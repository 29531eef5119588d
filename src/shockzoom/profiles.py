"""Viscous profile constructions at unit viscosity.

Three families:

* traveling waves S with S' = f(S) - speed * S - offset, joining u_minus to
  u_plus, integrated from the midpoint in both directions;
* merging data: two traveling waves glued with a smooth blend far in the
  past, evolved forward to realise the two-shock interaction wave, which
  for a flux of constant curvature is also exact by Cole-Hopf;
* the eternal wave Z^(n): the viscous evolution launched from the cubic
  wave z(-n, .), exact by Cole-Hopf, whose large-n limit is the universal
  formation profile.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .flux import FluxModel, ShockData, rankine_hugoniot
from .grid import GridFunction, Window, cell_count, l1_distance
from .inviscid import z_exact
from .solver import MAX_SNAPSHOT_VALUES, Clamped, SolverConfig, solve


@dataclass(frozen=True)
class TravelingWave:
    """A monotone viscous profile with its jump data."""

    shock: ShockData
    profile: GridFunction
    flux: FluxModel = field(repr=False, compare=False)

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
        rhs = self.flux.f(mid) - self.shock.speed * mid - self.shock.offset
        return float(np.max(np.abs(ds - rhs)))


def traveling_wave(flux: FluxModel, u_minus: float, u_plus: float,
                   half_width: float, dx: float) -> TravelingWave:
    """Integrate the profile equation from the midpoint outwards.

    Classical fourth-order Runge-Kutta with step dx/2, storing every other
    node, over [-half_width, half_width].  Requires a downward jump.
    """
    if not u_minus > u_plus:
        raise ConfigError(f"traveling wave needs u_minus > u_plus, got ({u_minus}, {u_plus})")
    shock = rankine_hugoniot(flux, u_minus, u_plus)

    def g(s):
        return flux.f(s) - shock.speed * s - shock.offset

    n_half = cell_count(half_width, dx)
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
    return TravelingWave(shock, prof, flux)


def transition_width(wave: TravelingWave, fraction: float) -> float:
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
                    u_plus: float) -> "MergingTriple":
        if not (u_minus > u_star > u_plus):
            raise ConfigError(
                f"need u_minus > u_star > u_plus, got {(u_minus, u_star, u_plus)}")
        s1 = rankine_hugoniot(flux, u_minus, u_star)
        s2 = rankine_hugoniot(flux, u_star, u_plus)
        # the blend speed; it fails to separate them where both underflow to 0
        ls = 0.5 * (s1.speed + s2.speed)
        if not s2.speed < ls < s1.speed:
            raise ValueError("lambda_star must separate the two shock speeds")
        return cls(flux, u_minus, u_star, u_plus, s1.speed, s2.speed, ls)


def merging_initial(triple: MergingTriple, tau: float, grid: GridFunction,
                    profiles: Tuple[TravelingWave, TravelingWave]) -> GridFunction:
    """Blend the two traveling waves ``profiles`` at their time-tau positions.

    The faster wave is centred at lambda1*tau, the slower at lambda2*tau,
    and the smoothstep blend weight ramps over one unit from lambda_star*tau.
    tau must be negative enough that the transition regions stay clear of
    the blend; otherwise ConfigError.
    """
    w1, w2 = profiles
    separation = (triple.lambda1 - triple.lambda2) * abs(tau)
    # 5% tails: the blend only needs the discarded profile to be nearly flat
    needed = transition_width(w1, 0.05) + transition_width(w2, 0.05) + 1.0
    if tau >= 0.0 or separation <= needed:
        raise ConfigError(
            f"tau={tau} puts the waves {separation:.3g} apart; need more than {needed:.3g}")
    x = grid.x
    theta = smoothstep(x - triple.lambda_star * tau)
    values = (theta * w2(x - triple.lambda2 * tau)
              + (1.0 - theta) * w1(x - triple.lambda1 * tau))
    return grid.with_values(values)


@dataclass(frozen=True)
class CauchyReport:
    """Settling of the restarts at their shared comparison time.

    ``distances`` are the L1 distances between consecutive restart times,
    latest pair first, so a decreasing tuple means the family is settling
    as tau recedes; ``log_slope`` is the slope of their logarithm against
    the later restart's |tau| (NaN for a single pair).
    """

    distances: Tuple[float, ...]
    log_slope: float

    @property
    def decreasing(self) -> bool:
        d = self.distances
        return all(d[i] > d[i + 1] for i in range(len(d) - 1))


def merging_wave(triple: MergingTriple, tau_list: Sequence[float], window: Window, *,
                 dx: float, comparison_time: float, snapshot_times: Sequence[float],
                 ) -> Tuple[List[Tuple[float, GridFunction]], CauchyReport]:
    """Realise the interaction wave by evolving blended restarts.

    Each tau in tau_list launches the blended data at that time and evolves
    it at unit viscosity, its ends held; all runs
    are measured against each other at ``comparison_time``.  The run from
    the most negative tau doubles as the limit surrogate and is returned
    sampled at the window's ends, the comparison time and the
    ``snapshot_times``.

    The restarts' grid spans both waves at the earliest restart, padded so
    that the outer profile tails reach their constant states to ~1e-9 at
    its clamped ends; anything less makes each restart clamp at a slightly
    different edge value, and those mismatches advect inward and swamp the
    settling distances.

    ConfigError, before any solve, unless every restart precedes the
    comparison time, the comparison time does not lie after the window
    (where the run ends), and the window lies after the earliest restart
    and on the restarts' grid, where the run can be sampled.
    """
    taus = sorted(float(s) for s in tau_list)
    if len(taus) < 2:
        raise ValueError("need at least two restart times")
    t_cmp = float(comparison_time)
    if taus[-1] >= t_cmp:
        raise ConfigError(f"the restart at tau={taus[-1]:.6g} does not precede the "
                          f"comparison time {t_cmp:.6g}")
    if t_cmp > window.t_max:
        raise ConfigError(f"the comparison time {t_cmp:.6g} lies after the window's "
                          f"end t={window.t_max:.6g}, where the run ends")
    if not taus[0] < window.t_min:
        raise ConfigError(f"the window starts at t={window.t_min:.6g}, not after the "
                          f"earliest restart tau={taus[0]:.6g}")

    flux = triple.flux
    depth = np.log(max(triple.u_minus - triple.u_plus, 1.0) / 1e-9)
    x_pad = 6.0 + depth / min(abs(float(flux.df(triple.u_minus)) - triple.lambda1),
                              abs(float(flux.df(triple.u_plus)) - triple.lambda2))
    x_lo = triple.lambda1 * taus[0] - x_pad
    x_hi = triple.lambda2 * taus[0] + x_pad
    template = GridFunction(x_lo, dx, np.zeros(cell_count(x_hi - x_lo, dx) + 1))
    if not template.x_left <= window.x_min <= window.x_max <= template.x_right:
        raise ConfigError(f"the window's x in [{window.x_min:.6g}, {window.x_max:.6g}] "
                          f"leaves the restarts' grid [{template.x_left:.6g}, "
                          f"{template.x_right:.6g}]")
    waves = (traveling_wave(flux, triple.u_minus, triple.u_star, 60.0, 0.02),
             traveling_wave(flux, triple.u_star, triple.u_plus, 60.0, 0.02))
    times = sorted(set([t_cmp, window.t_min, window.t_max]
                       + [float(s) for s in snapshot_times]))

    cfg = SolverConfig(viscosity=1.0, boundary=Clamped())
    # every restart's blend is checked (ConfigError) before the first solve
    restarts = [merging_initial(triple, tau, template, waves) for tau in taus]
    first = solve(restarts[0], flux, cfg, times[-1] - taus[0], [s - taus[0] for s in times])
    states_at_cmp = [dict(first)[t_cmp - taus[0]]] + [
        solve(data, flux, cfg, t_cmp - tau, [t_cmp - tau])[-1][1]
        for tau, data in zip(taus[1:], restarts[1:])]

    dists = [l1_distance(a, b) for a, b in zip(states_at_cmp[:-1], states_at_cmp[1:])]
    later = np.abs(np.array(taus[1:], dtype=float))
    logd = np.log(np.maximum(dists, 1e-300))
    slope = float(np.polyfit(later, logd, 1)[0]) if len(dists) > 1 else float("nan")
    report = CauchyReport(tuple(float(d) for d in dists[::-1]), slope)
    return [(s + taus[0], g) for s, g in first], report


# the smallest normal float over its epsilon: where the product form of
# exact_merging_wave sums to less, its terms have lost digits to underflow
_UNDERFLOW = np.finfo(float).tiny / np.finfo(float).eps


def exact_merging_wave(triple: MergingTriple) -> Callable:
    """The interaction wave of ``triple`` at unit viscosity, exact by Cole-Hopf.

    For a flux of constant curvature, f = c u^2/2 + b u, the wave is
    U = sum u_i w_i / sum w_i over the three states, with
    w_i = exp(-c u_i X/2 + (c^2 u_i^2/4 + c b u_i/2) T).  Its shocks run at
    lambda1 and lambda2 and meet at (0, 0), like the surrogate's.  The
    returned callable has ``SnapshotInterpolant``'s contract: ``wave(t, x)``
    has shape ``t.shape + x.shape``, here for every t and x.

    ValueError unless the flux's curvature bounds c1 and c2 are equal.
    """
    flux = triple.flux
    if flux.c1 != flux.c2:
        raise ValueError(f"flux {flux.name!r}: no closed-form interaction wave "
                         f"unless f'' is constant, got [{flux.c1}, {flux.c2}]")
    c, b = flux.c1, float(flux.df(np.float64(0.0)))
    u = np.array([triple.u_minus, triple.u_star, triple.u_plus])
    x_rate = -0.5 * c * u
    t_rate = c * u * (0.25 * c * u + 0.5 * b)

    def wave(t, x) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        et = np.multiply.outer(t.reshape(-1), t_rate)
        ex = np.multiply.outer(x_rate, x.reshape(-1))
        with np.errstate(under="ignore"):
            # each factor shifted by its max over the states, so neither overflows
            ft = np.exp(et - et.max(axis=1, keepdims=True))
            fx = np.exp(ex - ex.max(axis=0))
            den = ft @ fx
            vals = (ft * u) @ fx
            # where the factors' maxima fall on different states, their
            # product can underflow: those points by a log-sum-exp each
            low = den < _UNDERFLOW
            if low.any():
                i, j = np.nonzero(low)
                e = et[i] + ex[:, j].T
                w = np.exp(e - e.max(axis=1, keepdims=True))
                vals[i, j] = (w @ u) / w.sum(axis=1)
                den[i, j] = 1.0
        vals /= den
        return vals.reshape(t.shape + x.shape)

    return wave


# ---------------------------------------------------------------------------
# the eternal wave


def eternal_z(n: float, half_width: float, *, dx: float,
              snapshot_times: Sequence[float]) -> List[Tuple[float, GridFunction]]:
    """(t, state) pairs of the exact eternal wave Z^(n) (``z_exact``) at the
    snapshot times, on the grid of [-xr, xr] at spacing dx, xr the node
    nearest ``half_width``.

    ConfigError, before any quadrature, unless there is a snapshot time and
    the snapshots hold at most MAX_SNAPSHOT_VALUES values; ``z_exact``
    checks the times, the launch data and its own work.
    """
    times = sorted(set(float(t) for t in np.atleast_1d(snapshot_times)))
    if not times:
        raise ConfigError("eternal_z needs at least one snapshot time")
    half = cell_count(half_width, dx)
    if len(times) * (2 * half + 1) > MAX_SNAPSHOT_VALUES:
        raise ConfigError(f"{len(times)} snapshots of {2 * half + 1} nodes exceed "
                          f"{MAX_SNAPSHOT_VALUES} stored values")
    rows = z_exact(n, times, dx * np.arange(-half, half + 1))
    return [(t, GridFunction(-half * dx, dx, row)) for t, row in zip(times, rows)]


@dataclass(frozen=True)
class ZLimitReport:
    """Monotonicity and Cauchy behaviour of the eternal-wave family at its
    sample times: the least Z^(next) - Z^(prev) over x >= 0, and the sup of
    |Z^(next) - Z^(prev)|, per pair of consecutive horizons in increasing n."""

    sample_times: Tuple[float, ...]
    monotone_margin: float
    sup_diffs: Tuple[float, ...]

    @property
    def decreasing(self) -> bool:
        d = self.sup_diffs
        return all(d[i] > d[i + 1] for i in range(len(d) - 1))


def eternal_z_limit(n_list: Sequence[float], window: Window, *, dx: float,
                    ) -> Tuple[List[Tuple[float, GridFunction]], ZLimitReport]:
    """Run increasing horizons and measure how the family settles.

    The horizons are compared at nine equally spaced window times.  The
    largest horizon is returned as the limit surrogate; no extrapolation is
    performed.
    """
    ns = sorted(float(v) for v in n_list)
    if len(ns) < 2:
        raise ValueError("need at least two horizons")
    sample_times = [float(t) for t in np.linspace(window.t_min, window.t_max, 9)]
    half_width = max(abs(window.x_min), abs(window.x_max))
    runs = [eternal_z(v, half_width, dx=dx, snapshot_times=sample_times) for v in ns]

    # every run holds the sample times, in order, on the same grid
    right = runs[0][0][1].x >= 0.0
    values = [np.array([g.values for _, g in run]) for run in runs]
    diffs = [b - a for a, b in zip(values[:-1], values[1:])]
    mono = min(float(np.min(d[:, right])) for d in diffs)
    sups = [float(np.max(np.abs(d))) for d in diffs]
    return runs[-1], ZLimitReport(tuple(sample_times), mono, tuple(sups))
