"""Viscous profile constructions at unit viscosity.

Three families:

* traveling waves S with S' = f(S) - speed * S - offset, joining u_minus to
  u_plus, integrated from the midpoint in both directions;
* merging data: two traveling waves glued with a smooth blend far in the
  past, evolved forward to realise the two-shock interaction wave;
* the eternal wave Z^(n): the viscous evolution launched from the cubic
  wave z(-n, .), whose large-n limit is the universal formation profile.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import NotConvergedError, NotLaxError, NotOrderedError, TauTooLateError
from .flux import FluxModel, ShockData, burgers, rankine_hugoniot
from .grid import GridFunction, Window, l1_distance
from .inviscid import _outer_root, z_root
from .solver import Clamped, SolverConfig, solve


@dataclass(frozen=True)
class TravelingWave:
    """A monotone viscous profile with its jump data and chord offset."""

    shock: ShockData
    offset: float
    profile: GridFunction
    flux: FluxModel = field(repr=False, compare=False, default=None)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.shock.u_minus + self.shock.u_plus)

    def __call__(self, x):
        """Linear interpolation with the exact limits beyond the grid."""
        return np.interp(x, self.profile.x, self.profile.values,
                         left=self.shock.u_minus, right=self.shock.u_plus)

    def ode_residual(self) -> float:
        """Max deviation of a five-point slope from f(S) - speed*S - offset.

        Independent of the integrator: the stored values are differentiated
        numerically and tested against the defining equation.
        """
        s = self.profile.values
        dx = self.profile.dx
        ds = (-s[4:] + 8.0 * s[3:-1] - 8.0 * s[1:-3] + s[:-4]) / (12.0 * dx)
        mid = s[2:-2]
        rhs = self.flux.f(mid) - self.shock.speed * mid - self.offset
        return float(np.max(np.abs(ds - rhs)))


def traveling_wave(flux: FluxModel, u_minus: float, u_plus: float,
                   half_width: float, dx: float) -> TravelingWave:
    """Integrate the profile equation from the midpoint outwards.

    Classical fourth-order Runge-Kutta with step dx/2, storing every other
    node, over [-half_width, half_width].  Requires a downward jump.
    """
    if u_minus <= u_plus:
        raise NotLaxError(f"traveling wave needs u_minus > u_plus, got ({u_minus}, {u_plus})")
    shock = rankine_hugoniot(flux, u_minus, u_plus)

    def g(s):
        return flux.f(s) - shock.speed * s - shock.offset

    n_half = int(round(half_width / dx))
    if n_half < 1:
        raise ValueError("half_width must cover at least one dx")
    h = 0.5 * dx

    def march(sign: float) -> np.ndarray:
        vals = np.empty(n_half)
        s = 0.5 * (u_minus + u_plus)
        hh = sign * h
        for k in range(n_half):
            for _ in range(2):
                k1 = g(s)
                k2 = g(s + 0.5 * hh * k1)
                k3 = g(s + 0.5 * hh * k2)
                k4 = g(s + hh * k3)
                s = s + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            vals[k] = s
        return vals

    right = march(+1.0)
    left = march(-1.0)
    values = np.concatenate([left[::-1], [0.5 * (u_minus + u_plus)], right])
    prof = GridFunction(-n_half * dx, dx, values)
    if np.max(np.diff(values)) > 1e-13 * max(1.0, u_minus - u_plus):
        raise RuntimeError("integrated profile failed to decrease monotonically")
    return TravelingWave(shock, shock.offset, prof, flux)


def transition_width(wave: TravelingWave, fraction: float = 0.01) -> float:
    """Half-width outside which the profile sits within fraction*jump of its limits."""
    jump = wave.shock.u_minus - wave.shock.u_plus
    s = wave.profile.values
    x = wave.profile.x
    inner = (np.minimum(wave.shock.u_minus - s, s - wave.shock.u_plus)
             > fraction * jump)
    if not np.any(inner):
        return 0.0
    return float(np.max(np.abs(x[inner])))


def smoothstep(s):
    """The cubic blend 3 s^2 - 2 s^3, clipped to [0, 1]."""
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    return s * s * (3.0 - 2.0 * s)


@dataclass(frozen=True)
class MergingTriple:
    """Two admissible jumps sharing a middle state, plus the blend speed."""

    flux: FluxModel
    u_minus: float
    u_star: float
    u_plus: float
    lambda1: float
    lambda2: float
    lambda_star: float

    @classmethod
    def from_states(cls, flux: FluxModel, u_minus: float, u_star: float,
                    u_plus: float, lambda_star: Optional[float] = None) -> "MergingTriple":
        if not (u_minus > u_star > u_plus):
            raise NotOrderedError(
                f"need u_minus > u_star > u_plus, got {(u_minus, u_star, u_plus)}")
        s1 = rankine_hugoniot(flux, u_minus, u_star)
        s2 = rankine_hugoniot(flux, u_star, u_plus)
        ls = 0.5 * (s1.speed + s2.speed) if lambda_star is None else float(lambda_star)
        if not s2.speed < ls < s1.speed:
            raise ValueError("lambda_star must separate the two shock speeds")
        return cls(flux, u_minus, u_star, u_plus, s1.speed, s2.speed, ls)


def merging_initial(triple: MergingTriple, tau: float, grid: GridFunction,
                    profiles: Optional[Tuple[TravelingWave, TravelingWave]] = None,
                    ) -> GridFunction:
    """Blend the two traveling waves at their time-tau positions.

    The faster wave is centred at lambda1*tau, the slower at lambda2*tau,
    and the smoothstep blend weight ramps over one unit from lambda_star*tau.
    tau must be negative enough that the transition regions stay clear of
    the blend; otherwise TauTooLateError.
    """
    if profiles is None:
        w1 = traveling_wave(triple.flux, triple.u_minus, triple.u_star, 60.0, 0.02)
        w2 = traveling_wave(triple.flux, triple.u_star, triple.u_plus, 60.0, 0.02)
    else:
        w1, w2 = profiles
    separation = (triple.lambda1 - triple.lambda2) * abs(tau)
    # 5% tails: the blend only needs the discarded profile to be nearly flat
    needed = transition_width(w1, 0.05) + transition_width(w2, 0.05) + 1.0
    if tau >= 0.0 or separation <= needed:
        raise TauTooLateError(
            f"tau={tau} puts the waves {separation:.3g} apart; need more than {needed:.3g}")
    x = grid.x
    theta = smoothstep(x - triple.lambda_star * tau)
    values = (theta * w2(x - triple.lambda2 * tau)
              + (1.0 - theta) * w1(x - triple.lambda1 * tau))
    return grid.with_values(values)


@dataclass(frozen=True)
class CauchyReport:
    """Distances between restarts at a shared comparison time.

    ``distances`` pairs consecutive restart times, latest pair first, so a
    decreasing tuple means the family is settling as tau recedes.
    """

    taus: Tuple[float, ...]
    comparison_time: float
    distances: Tuple[float, ...]
    log_slope: float

    @property
    def decreasing(self) -> bool:
        d = self.distances
        return all(d[i] > d[i + 1] for i in range(len(d) - 1))


def merging_wave(triple: MergingTriple, tau_list: Sequence[float], window: Window, *,
                 dx: float = 0.05, comparison_time: Optional[float] = None,
                 snapshot_times: Sequence[float] = (),
                 ) -> Tuple[List[Tuple[float, GridFunction]], CauchyReport]:
    """Realise the interaction wave by evolving blended restarts.

    Each tau in tau_list launches the blended data at that time and evolves
    it at unit viscosity, its ends held; all runs
    are measured against each other at ``comparison_time`` (default: the
    window start).  The run from the most negative tau doubles as the limit
    surrogate and is returned sampled at the window times plus any extra
    ``snapshot_times``.

    The padding puts the clamped ends deep enough that the outer
    profile tails reach their constant states to ~1e-9 there; anything less
    makes each restart clamp at a slightly different edge value, and those
    mismatches advect inward and swamp the settling distances.
    """
    taus = sorted(float(s) for s in tau_list)
    if len(taus) < 2:
        raise ValueError("need at least two restart times")
    t_cmp = window.t_min if comparison_time is None else float(comparison_time)
    if taus[-1] >= t_cmp:
        raise ValueError("all restart times must precede the comparison time")

    flux = triple.flux
    jump = triple.u_minus - triple.u_plus
    rate_l = abs(float(flux.df(triple.u_minus)) - triple.lambda1)
    rate_r = abs(float(flux.df(triple.u_plus)) - triple.lambda2)
    depth = np.log(max(jump, 1.0) / 1e-9)
    x_pad = 6.0 + depth / min(rate_l, rate_r)
    x_lo = triple.lambda1 * taus[0] - x_pad
    x_hi = triple.lambda2 * taus[0] + x_pad
    n = int(round((x_hi - x_lo) / dx)) + 1
    template = GridFunction(x_lo, dx, np.zeros(n))
    w1 = traveling_wave(flux, triple.u_minus, triple.u_star, 60.0, 0.02)
    w2 = traveling_wave(flux, triple.u_star, triple.u_plus, 60.0, 0.02)

    extra = [float(s) for s in np.atleast_1d(snapshot_times)]
    full_times = sorted(set([t_cmp, window.t_min, window.t_max] + extra))

    cfg = SolverConfig(viscosity=1.0, boundary=Clamped())
    states_at_cmp = []
    trajectory: List[Tuple[float, GridFunction]] = []
    for i, tau in enumerate(taus):
        data = merging_initial(triple, tau, template, profiles=(w1, w2))
        if i == 0:
            targets = [s - tau for s in full_times if s > tau]
            snaps = solve(data, flux, cfg, targets[-1], targets)
            trajectory = [(s + tau, g) for s, g in snaps]
            cmp_state = min(trajectory, key=lambda p: abs(p[0] - t_cmp))[1]
        else:
            snaps = solve(data, flux, cfg, t_cmp - tau, [t_cmp - tau])
            cmp_state = snaps[-1][1]
        states_at_cmp.append(cmp_state)

    dists = [l1_distance(a, b) for a, b in zip(states_at_cmp[:-1], states_at_cmp[1:])]
    later = np.abs(np.array(taus[1:], dtype=float))
    logd = np.log(np.maximum(dists, 1e-300))
    slope = float(np.polyfit(later, logd, 1)[0]) if len(dists) > 1 else float("nan")
    report = CauchyReport(tuple(taus), t_cmp, tuple(float(d) for d in dists[::-1]), slope)
    return trajectory, report


# ---------------------------------------------------------------------------
# the eternal wave


def eternal_z(n: float, window: Window, *, dx: float = 0.02, x_max: Optional[float] = None,
              snapshot_times: Sequence[float] = ()) -> List[Tuple[float, GridFunction]]:
    """Evolve unit-viscosity data z(-n, .) up to the window times.

    Returns (t, state) pairs at the snapshot times (default: the window's
    ends), in physical time.  The computational domain is symmetric and
    wider than the observation window; the ends are clamped to the exact
    outer cubic root at the running time, the correct far-field
    continuation up to a small viscous correction.  The root is odd in x,
    so one evaluation per step gives both ends.  Snapshots past t = 0 are
    allowed as long as the ends stay outside the fold region, which holds
    for any reasonable x_max.
    """
    if n <= 0.0:
        raise ValueError("n must be positive")
    if window.t_min < -n:
        raise ValueError("window starts before the launch time -n")
    if x_max is None:
        x_max = max(abs(window.x_min), abs(window.x_max)) + 20.0
    half = int(round(x_max / dx))
    xr = half * dx
    x = dx * np.arange(-half, half + 1)
    data = GridFunction(-xr, dx, z_root(-n, x))

    def ends(t: float) -> Tuple[float, float]:
        r = float(_outer_root(t - n, xr))
        return -r, r

    times = sorted(set(float(t) for t in np.atleast_1d(snapshot_times))) or \
        [window.t_min, window.t_max]
    if times[0] < -n:
        raise ValueError("snapshot before the launch time")
    cfg = SolverConfig(viscosity=1.0, boundary=Clamped(ends))
    shifted = [t + n for t in times]
    snaps = solve(data, burgers(), cfg, shifted[-1], shifted)
    return [(t - n, g) for t, g in snaps]


@dataclass(frozen=True)
class ZLimitReport:
    """Monotonicity and Cauchy behaviour of the eternal-wave family."""

    n_list: Tuple[float, ...]
    sample_times: Tuple[float, ...]
    monotone_margin: float          # min over x >= 0 of Z^(next) - Z^(prev)
    sup_diffs: Tuple[float, ...]    # consecutive horizons, increasing n
    final_diff: float

    @property
    def decreasing(self) -> bool:
        d = self.sup_diffs
        return all(d[i] > d[i + 1] for i in range(len(d) - 1))


def eternal_z_limit(n_list: Sequence[float], window: Window, tol: float, *,
                    dx: float = 0.02, x_max: Optional[float] = None,
                    ) -> Tuple[List[Tuple[float, GridFunction]], ZLimitReport]:
    """Run increasing horizons and certify the family is settling.

    The horizons are compared at nine equally spaced window times.  The
    largest horizon is returned as the limit surrogate; no extrapolation is
    performed.  Raises NotConvergedError when the last consecutive
    difference exceeds tol.
    """
    ns = sorted(float(v) for v in n_list)
    if len(ns) < 2:
        raise ValueError("need at least two horizons")
    sample_times = [float(t) for t in np.linspace(window.t_min, window.t_max, 9)]
    runs = [eternal_z(v, window, dx=dx, x_max=x_max,
                      snapshot_times=sample_times) for v in ns]

    mono = np.inf
    sups = []
    for prev, nxt in zip(runs[:-1], runs[1:]):
        worst_gap = np.inf
        sup = 0.0
        # every run holds the sample times, in order
        for (_, a), (_, b) in zip(prev, nxt):
            sel = a.x >= 0.0
            gap = b.values[sel] - a.values[sel]
            worst_gap = min(worst_gap, float(np.min(gap)))
            sup = max(sup, float(np.max(np.abs(b.values - a.values))))
        mono = min(mono, worst_gap)
        sups.append(sup)
    report = ZLimitReport(tuple(ns), tuple(sample_times), float(mono),
                          tuple(sups), float(sups[-1]))
    if report.final_diff > tol:
        raise NotConvergedError(
            f"horizon differences ended at {report.final_diff:.3g} > tol {tol:.3g}")
    return runs[-1], report
