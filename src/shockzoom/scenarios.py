"""Pre-built experiment scenarios with exact inviscid references.

Each scenario packages smooth initial data, the distinguished space-time
point where its singular pattern lives, a recommended solve domain, and a
vectorised exact evaluator for the inviscid entropy solution wherever it is
available in closed or root-solvable form.

Ramped step data absorbs into clean shocks in finite time; the reference
switches from characteristic tracing (before blow-up) to the piecewise
pattern (after absorption) and refuses the messy regime in between.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DegenerateError, NotLaxError, OutOfDomainError
from .flux import FluxModel, ShockData, rankine_hugoniot
from .inviscid import SmoothData, blowup_time, characteristic_value, single_shock, two_shock
from .profiles import MergingTriple
from .rescale import FormationPoint

# absorption margin: a tanh tail is below machine epsilon past 19 widths
_ABSORB_WIDTHS = 20.0


@dataclass(frozen=True)
class Scenario:
    """A runnable singular-pattern experiment."""

    id: str
    flux: FluxModel
    initial: SmoothData
    singular_point: Tuple[float, float]
    states: Tuple[float, ...]
    domain: Tuple[float, float]
    formed_time: float
    blowup: float
    reference: Callable = field(repr=False, compare=False, default=None)
    shock: Optional[ShockData] = None
    merging: Optional[MergingTriple] = None
    formation: Optional[FormationPoint] = None

    @property
    def tau(self) -> float:
        return self.singular_point[0]

    @property
    def xi(self) -> float:
        return self.singular_point[1]


def _ramp(center: float, width: float):
    """Unit upward tanh step through (center, 1/2)."""
    def h(x):
        return 0.5 * (1.0 + np.tanh((np.asarray(x, dtype=float) - center) / width))

    def dh(x):
        th = np.tanh((np.asarray(x, dtype=float) - center) / width)
        return 0.5 * (1.0 - th * th) / width
    return h, dh


def _absorb_time(flux: FluxModel, left: float, right: float, speed: float,
                 width: float) -> float:
    """Time for a tanh ramp's tails to be machine-fully eaten by its shock."""
    rate = min(flux.df(left) - speed, speed - flux.df(right))
    return _ABSORB_WIDTHS * width / rate


def single_shock_scenario(flux: FluxModel, u_minus: float = 1.0, u_plus: float = -1.0,
                          *, tau: float = 1.0, ramp_width: float = 0.02) -> Scenario:
    """Smoothed step whose inviscid limit is one shock through (tau, speed*tau)."""
    if u_minus <= u_plus:
        raise NotLaxError(f"need a downward jump, got ({u_minus}, {u_plus})")
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
    blow = min(blowup_time(data, flux, xi) for xi in np.linspace(-3.0 * w, 3.0 * w, 31))

    def reference(t, x):
        t = float(t)
        if t >= formed:
            return single_shock(shock, t, x)
        if t < 0.98 * blow:
            xs = np.atleast_1d(np.asarray(x, dtype=float))
            out = np.array([characteristic_value(data, flux, t, xi) for xi in xs])
            return out if np.ndim(x) else float(out[0])
        raise OutOfDomainError(
            f"no exact reference between blow-up ({blow:.3g}) and absorption ({formed:.3g})")

    lo = min(0.0, shock.speed * tau) - 2.0
    hi = max(0.0, shock.speed * tau) + 2.0
    return Scenario("theorem1-single", flux, data,
                    (tau, shock.speed * tau), (u_minus, u_plus),
                    (lo, hi), formed, blow,
                    reference, shock=shock)


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
    blow = min(blowup_time(data, flux, xi) for xi in scan)

    def reference(t, x):
        t = float(t)
        if t >= formed:
            return two_shock(flux, u_minus, u_star, u_plus, t - tau, x)
        if t < 0.98 * blow:
            xs = np.atleast_1d(np.asarray(x, dtype=float))
            out = np.array([characteristic_value(data, flux, t, xi) for xi in xs])
            return out if np.ndim(x) else float(out[0])
        raise OutOfDomainError(
            f"no exact reference between blow-up ({blow:.3g}) and absorption ({formed:.3g})")

    merged = rankine_hugoniot(flux, u_minus, u_plus)
    lo = min(p1, merged.speed * tau) - 2.0
    hi = max(p2, merged.speed * tau) + 2.0
    return Scenario("theorem1-merging", flux, data, (tau, 0.0),
                    (u_minus, u_star, u_plus), (lo, hi), formed, blow,
                    reference, shock=merged, merging=triple)


def _cubic_profile_root(amplitude: float, flux: FluxModel, spread: float,
                        x, u_bracket: float):
    """Vectorised decreasing root of x = -amplitude*u^3 - spread*f'(u)."""
    x = np.asarray(x, dtype=float)
    lo = np.full(x.shape, -u_bracket)
    hi = np.full(x.shape, u_bracket)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        val = -amplitude * mid ** 3 - spread * np.asarray(flux.df(mid), dtype=float)
        high = val > x  # residual decreasing in u: root lies above mid
        lo = np.where(high, mid, lo)
        hi = np.where(high, hi, mid)
    return 0.5 * (lo + hi)


def shock_formation_scenario(flux: FluxModel, amplitude: float = 1.0, *,
                             tau: float = 1.0,
                             clamp_radius: float = 2.5) -> Scenario:
    """Data that first focuses at (tau, 0) with a cubic profile there.

    The profile at the formation instant is the decreasing root of
    x = -amplitude * u^3; flowing it backward along characteristics gives
    the initial data, clamped to constants outside |x| <= clamp_radius.
    """
    if amplitude <= 0.0:
        raise DegenerateError("amplitude must be positive for a cubic tangency")
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
            raise DegenerateError("could not bracket the data range")

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
    u_edge = float(u0(-R))

    def reference(t, x):
        """Exact inviscid solution for t <= tau (pre-shock)."""
        t = float(t)
        if t > tau:
            raise OutOfDomainError("reference available only up to the formation time")
        x = np.asarray(x, dtype=float)
        spread = tau - t
        smooth = _cubic_profile_root(A, flux, spread, x, b)
        x_left = -R + t * float(flux.df(u_edge))
        x_right = R + t * float(flux.df(-u_edge))
        out = np.where(x < x_left, u_edge, np.where(x > x_right, -u_edge, smooth))
        return out if out.ndim else float(out)

    point = FormationPoint(tau, 0.0, 0.0, 0.0, 0.0, -6.0 * A)
    return Scenario("theorem2-formation", flux, data, (tau, 0.0),
                    (), (-R - 1.0, R + 1.0), tau, tau,
                    reference, formation=point)


def blowup_map_minimum(scenario: Scenario, span: float = 1.0,
                       n: int = 201) -> Tuple[float, float, float]:
    """Scan the blow-up map near the singular foot point.

    Returns (best_xi, best_time, second_difference); a structurally stable
    formation point shows a strict interior minimum with positive curvature.
    """
    xs = np.linspace(-span, span, n)
    times = np.array([blowup_time(scenario.initial, scenario.flux, xi) for xi in xs])
    k = int(np.argmin(times))
    if k in (0, n - 1):
        raise DegenerateError("blow-up map minimum sits on the scan boundary")
    second = times[k - 1] - 2.0 * times[k] + times[k + 1]
    return float(xs[k]), float(times[k]), float(second)


def shock_consistency(scenario: Scenario) -> float:
    """Worst inconsistency of declared jumps against the flux chords.

    Recomputes each declared shock's speed from its states and checks the
    strict speed ordering that admissibility requires; returns the largest
    absolute defect (0 for exactly consistent scenarios).
    """
    worst = 0.0
    checks = []
    if scenario.shock is not None:
        checks.append(scenario.shock)
    if scenario.merging is not None:
        trip = scenario.merging
        checks.append(rankine_hugoniot(scenario.flux, trip.u_minus, trip.u_star))
        checks.append(rankine_hugoniot(scenario.flux, trip.u_star, trip.u_plus))
    for sh in checks:
        again = rankine_hugoniot(scenario.flux, sh.u_minus, sh.u_plus)
        worst = max(worst, abs(again.speed - sh.speed))
        lax = min(float(scenario.flux.df(sh.u_minus)) - sh.speed,
                  sh.speed - float(scenario.flux.df(sh.u_plus)))
        if lax <= 0.0:
            raise NotLaxError(f"declared shock {sh} is not admissible")
    return worst


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
