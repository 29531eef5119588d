"""Pre-built experiment scenarios with exact inviscid references.

Each scenario packages smooth initial data, the distinguished space-time
point (tau, xi) where its singular pattern lives, a recommended solve domain, and,
for the two shocked scenarios, their inviscid shock paths and a vectorised
exact evaluator for the inviscid entropy solution wherever it is available
in closed or root-solvable form.

Ramped step data absorbs into clean shocks in finite time; the reference
switches from characteristic tracing (before blow-up) to the states between
the shocks (after absorption) and refuses the messy regime in between.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ConfigError, OutOfDomainError
from .flux import FluxModel, ShockData, rankine_hugoniot
from .inviscid import (SmoothData, blowup_time, bracketed_root, characteristic_value,
                       z_root)
from .profiles import MergingTriple
from .rescale import FormationPoint

# absorption margin: a tanh tail is below machine epsilon past 19 widths
_ABSORB_WIDTHS = 20.0


@dataclass(frozen=True)
class Scenario:
    """A runnable singular-pattern experiment.

    A shocked scenario's outer states are its limit shock's, ``shock.u_minus``
    and ``shock.u_plus``; a merging one's middle state is ``merging.u_star``.
    Its ``shocks(t)``, from ``formed_time`` on, gives its inviscid shocks' x at
    time t, in increasing order, and the states they separate.
    """

    id: str
    flux: FluxModel
    initial: SmoothData
    tau: float
    xi: float
    domain: Tuple[float, float]
    formed_time: float
    blowup: float
    reference: Optional[Callable] = field(repr=False, compare=False, default=None)
    shocks: Optional[Callable] = field(repr=False, compare=False, default=None)
    shock: Optional[ShockData] = None
    merging: Optional[MergingTriple] = None
    formation: Optional[FormationPoint] = None


def _ramp(center: float, width: float):
    """Unit upward tanh step through (center, 1/2)."""
    def h(x):
        return 0.5 * (1.0 + np.tanh((np.asarray(x, dtype=float) - center) / width))

    def dh(x):
        th = np.tanh((np.asarray(x, dtype=float) - center) / width)
        return 0.5 * (1.0 - th * th) / width
    return h, dh


def _reference(data: SmoothData, flux: FluxModel, blow: float, formed: float,
               shocks: Callable) -> Callable:
    """The exact inviscid solution reference(t, x): the data's characteristics
    before 0.98 of the blow-up time, the states between ``shocks(t)`` from the
    absorption time on (the right one on a shock), and OutOfDomainError between."""
    def reference(t, x):
        t = float(t)
        if t >= formed:
            positions, states = shocks(t)
            return np.asarray(states)[np.searchsorted(positions, x, side="right")]
        if t < 0.98 * blow:
            return characteristic_value(data, flux, t, x)
        raise OutOfDomainError(
            f"no exact reference between blow-up ({blow:.3g}) and absorption ({formed:.3g})")
    return reference


def _absorb_time(flux: FluxModel, left: float, right: float, speed: float,
                 width: float) -> float:
    """Time for a tanh ramp's tails to be machine-fully eaten by its shock."""
    rate = min(flux.df(left) - speed, speed - flux.df(right))
    if not rate > 0.0:
        raise ValueError(f"the shock ({left}, {right}) is too weak to absorb its ramp")
    return _ABSORB_WIDTHS * width / rate


def single_shock_scenario(flux: FluxModel, u_minus: float = 1.0, u_plus: float = -1.0,
                          *, tau: float = 1.0, ramp_width: float = 0.02) -> Scenario:
    """Smoothed step whose inviscid limit is one shock through (tau, speed*tau)."""
    if u_minus <= u_plus:
        raise ConfigError(f"need a downward jump, got ({u_minus}, {u_plus})")
    if tau <= 0.0 or ramp_width <= 0.0:
        raise ValueError("tau and ramp_width must be positive")
    shock = rankine_hugoniot(flux, u_minus, u_plus)
    mid = 0.5 * (u_minus + u_plus)
    half = 0.5 * (u_minus - u_plus)
    w = float(ramp_width)

    def u0(x):
        return mid - half * np.tanh(np.asarray(x, dtype=float) / w)

    def du0(x):
        th = np.tanh(np.asarray(x, dtype=float) / w)
        return -half * (1.0 - th * th) / w

    data = SmoothData(u0, du0, check_points=np.linspace(-4.0 * w, 4.0 * w, 17))
    formed = _absorb_time(flux, u_minus, u_plus, shock.speed, w)
    if formed >= tau:
        raise ValueError(
            f"ramp_width {w} absorbs only at t={formed:.3g}, after tau={tau}")
    blow = float(np.min(blowup_time(data, flux, np.linspace(-3.0 * w, 3.0 * w, 31))))

    def shocks(t):
        return [shock.speed * t], (u_minus, u_plus)

    lo = min(0.0, shock.speed * tau) - 2.0
    hi = max(0.0, shock.speed * tau) + 2.0
    return Scenario("theorem1-single", flux, data, tau, shock.speed * tau,
                    (lo, hi), formed, blow, _reference(data, flux, blow, formed, shocks),
                    shocks, shock=shock)


def merging_shocks_scenario(flux: FluxModel, u_minus: float = 1.0, u_star: float = 0.0,
                            u_plus: float = -1.0, *, tau: float = 1.0,
                            ramp_width: float = 0.01) -> Scenario:
    """Two smoothed steps whose inviscid shocks meet exactly at (tau, 0)."""
    triple = MergingTriple.from_states(flux, u_minus, u_star, u_plus)
    if tau <= 0.0 or ramp_width <= 0.0:
        raise ValueError("tau and ramp_width must be positive")
    gap = (triple.lambda1 - triple.lambda2) * tau
    if ramp_width > gap / 20.0:
        raise ValueError(f"ramp_width must be at most (merge distance)/20 = {gap / 20.0:.3g}")
    p1 = -triple.lambda1 * tau
    p2 = -triple.lambda2 * tau
    w = float(ramp_width)
    h1, dh1 = _ramp(p1, w)
    h2, dh2 = _ramp(p2, w)

    def u0(x):
        return u_minus + (u_star - u_minus) * h1(x) + (u_plus - u_star) * h2(x)

    def du0(x):
        return (u_star - u_minus) * dh1(x) + (u_plus - u_star) * dh2(x)

    pts = np.concatenate([p1 + np.linspace(-4.0 * w, 4.0 * w, 9),
                          p2 + np.linspace(-4.0 * w, 4.0 * w, 9)])
    data = SmoothData(u0, du0, check_points=pts)
    formed = max(_absorb_time(flux, u_minus, u_star, triple.lambda1, w),
                 _absorb_time(flux, u_star, u_plus, triple.lambda2, w))
    if formed >= 0.5 * tau:
        raise ValueError(f"ramps absorb only at t={formed:.3g}; thin them or raise tau")
    scan = np.concatenate([p1 + np.linspace(-3.0 * w, 3.0 * w, 21),
                           p2 + np.linspace(-3.0 * w, 3.0 * w, 21)])
    blow = float(np.min(blowup_time(data, flux, scan)))
    merged = rankine_hugoniot(flux, u_minus, u_plus)

    def shocks(t):
        s = t - tau
        if s < 0.0:
            return [triple.lambda1 * s, triple.lambda2 * s], (u_minus, u_star, u_plus)
        return [merged.speed * s], (u_minus, u_plus)

    lo = min(p1, merged.speed * tau) - 2.0
    hi = max(p2, merged.speed * tau) + 2.0
    return Scenario("theorem1-merging", flux, data, tau, 0.0, (lo, hi), formed, blow,
                    _reference(data, flux, blow, formed, shocks), shocks,
                    shock=merged, merging=triple)


def _cubic_profile_root(amplitude: float, flux: FluxModel, spread: float,
                        x, u_bracket: float):
    """Vectorised decreasing root of x = -amplitude*u^3 - spread*f'(u).

    The seed is the closed-form root of the cubic with f' linearised at
    u = 0, exact for a constant-curvature flux, clipped into the bracket
    [-u_bracket, u_bracket]; ``bracketed_root`` polishes it on the negated,
    increasing residual amplitude*u^3 + spread*f'(u) + x.
    """
    x = np.asarray(x, dtype=float)
    zero = np.float64(0.0)
    t = -spread * float(flux.d2f(zero)) / amplitude
    seed = z_root(t, (x + spread * float(flux.df(zero))) / amplitude)

    def residual(u):
        return (amplitude * (u * u) * u + spread * np.asarray(flux.df(u), dtype=float) + x,
                3.0 * amplitude * u * u + spread * np.asarray(flux.d2f(u), dtype=float))

    return bracketed_root(residual, np.clip(seed, -u_bracket, u_bracket),
                          -u_bracket, u_bracket)


def shock_formation_scenario(flux: FluxModel, amplitude: float = 1.0, *,
                             tau: float = 1.0,
                             clamp_radius: float = 2.5) -> Scenario:
    """Data that first focuses at (tau, 0) with a cubic profile there.

    The profile at the formation instant is the decreasing root of
    x = -amplitude * u^3; flowing it backward along characteristics gives
    the initial data, clamped to constants outside |x| <= clamp_radius.
    """
    # the formation point's x_uuu is -6 amplitude
    if not 0.0 < 6.0 * amplitude < np.inf:
        raise ConfigError(f"a cubic tangency needs 0 < 6 amplitude < inf, "
                          f"got amplitude={amplitude!r}")
    if tau <= 0.0 or clamp_radius <= 0.0:
        raise ValueError("tau and clamp_radius must be positive")
    A = float(amplitude)
    R = float(clamp_radius)

    # bracket the data range: x0(u) = -A u^3 - tau f'(u) is strictly decreasing
    # (convex flux), so double until [-b, b] maps over [-R, R]
    def foot(u: float) -> float:
        return -A * u ** 3 - tau * float(flux.df(u))

    b = 1.0
    while foot(b) > -R or foot(-b) < R:
        b *= 2.0
        if b > 1e6:
            raise ConfigError("could not bracket the data range")

    def u0(x):
        xc = np.clip(np.asarray(x, dtype=float), -R, R)
        out = _cubic_profile_root(A, flux, tau, xc, b)
        return out if np.ndim(x) else float(out)

    def du0(x):
        x = np.asarray(x, dtype=float)
        u = u0(x)
        inner = np.abs(x) < R
        slope = -1.0 / (3.0 * A * u ** 2 + tau * np.asarray(flux.d2f(u), dtype=float))
        out = np.where(inner, slope, 0.0)
        return out if out.ndim else float(out)

    data = SmoothData(u0, du0, check_points=np.linspace(-0.8 * R, 0.8 * R, 17))
    return Scenario("theorem2-formation", flux, data, tau, 0.0, (-R - 1.0, R + 1.0),
                    tau, tau, formation=FormationPoint(tau, 0.0, 0.0, -6.0 * A))


# each scenario id with its constructor; the constructors' defaults are the
# canonical states
SCENARIOS = {"theorem1-single": single_shock_scenario,
             "theorem1-merging": merging_shocks_scenario,
             "theorem2-formation": shock_formation_scenario}
SCENARIO_IDS = tuple(SCENARIOS)


def build_scenario(scenario_id: str, flux: FluxModel, **overrides) -> Scenario:
    """Construct one of the named scenarios with canonical defaults."""
    if scenario_id not in SCENARIOS:
        raise ValueError(f"unknown scenario id: {scenario_id!r}")
    return SCENARIOS[scenario_id](flux, **overrides)
