"""Flux-plane diagnostics and long-run audits.

The central object is the transformed curve u -> w = f(u) - u_x.  For an
exact traveling wave this curve collapses onto the chord of f through the
two end states, so distance-to-chord measures how close a state is to a
profile, and membership in a slightly widened chord-hull region certifies
the later stages of the approach to the wave.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import NoCrossingError
from .flux import FluxModel, chord
from .grid import GridFunction, l1_distance
from .profiles import TravelingWave, traveling_wave
from .rescale import FitResult, RateFit, convergence_rate, fit_shift
from .solver import Clamped, Periodic, SolverConfig, solve


@dataclass(frozen=True)
class WCurve:
    """Samples of the transformed curve (u, f(u) - u_x)."""

    u: np.ndarray
    w: np.ndarray


def w_curve(state: GridFunction, flux: FluxModel) -> WCurve:
    """Build the transformed curve; u_x by centred differences, one-sided ends."""
    ux = np.gradient(state.values, state.dx, edge_order=1)
    return WCurve(state.values.copy(), np.asarray(flux.f(state.values), dtype=float) - ux)


def strip_deviation(curve: WCurve, chord_fn: Callable,
                    u_range: Tuple[float, float]) -> float:
    """Sup of |w - chord(u)| over samples whose u lies in the given range."""
    lo, hi = min(u_range), max(u_range)
    sel = (curve.u >= lo) & (curve.u <= hi)
    if not np.any(sel):
        return 0.0
    return float(np.max(np.abs(curve.w[sel] - np.asarray(chord_fn(curve.u[sel]), dtype=float))))


@dataclass(frozen=True)
class MembershipReport:
    inside: np.ndarray
    margins: np.ndarray
    worst_margin: float

    @property
    def all_inside(self) -> bool:
        return bool(np.all(self.inside))


def chord_region_membership(curve: WCurve, flux: FluxModel, u_minus: float,
                            u_plus: float, delta1: float) -> MembershipReport:
    """Test samples against the widened chord-hull region.

    The region widens the state interval by delta1 on both sides, takes the
    chord of f over the widened interval raised by delta1 as the upper
    boundary, and f - delta1 lowered by a further hull fillet allowance of
    delta1 as the lower boundary.  The lower edge itself counts as outside.
    """
    lo, hi = u_plus - delta1, u_minus + delta1
    wide = chord(flux, hi, lo)
    hull_slack = delta1
    upper = np.asarray(wide(curve.u), dtype=float) + delta1
    lower = np.asarray(flux.f(curve.u), dtype=float) - delta1 - hull_slack
    m_u = np.minimum(curve.u - lo, hi - curve.u)
    m_low = curve.w - lower
    m_up = upper - curve.w
    margins = np.minimum(np.minimum(m_u, m_up), m_low)
    inside = (m_u >= 0.0) & (m_up >= 0.0) & (m_low > 0.0)
    return MembershipReport(inside, margins, float(np.min(margins)))


def strip_profile_fit(state: GridFunction, flux: FluxModel, u_minus: float,
                      u_plus: float, delta: float,
                      template: Optional[TravelingWave] = None) -> FitResult:
    """Fit a shifted traveling wave to a state whose w-curve hugs the chord.

    The state must straddle the midpoint of the two states; the caller
    asserts sup_error against its delta budget.
    """
    mid = 0.5 * (u_minus + u_plus)
    v = state.values
    if not (np.min(v) < mid < np.max(v)):
        raise NoCrossingError("state does not straddle the midpoint")
    if template is None:
        half = max(abs(state.x_left), abs(state.x_right)) + 10.0
        template = traveling_wave(flux, u_minus, u_plus, half, min(state.dx, 0.01))
    return fit_shift(state, template, mid)


def almost_monotone_margin(state: GridFunction) -> float:
    """Largest upward excursion max_{x1 < x2} (u(x2) - u(x1))."""
    v = state.values
    running_min = np.minimum.accumulate(v)
    return float(np.max(v - running_min))


def phase_times(M: float, m: float, a: float, b: float, c1: float,
                delta1: float, u_minus: float, u_plus: float) -> Tuple[float, float]:
    """Explicit settling times for the two stages of the approach to a wave.

    T1 bounds when the solution's range and monotonicity defects contract to
    the delta1 scale; T2 bounds when the transformed curve enters the
    widened chord region.
    """
    if not (M > m and b > a and c1 > 0.0 and 0.0 < delta1 <= 1.0 and u_minus > u_plus):
        raise ValueError("phase_times needs M > m, b > a, c1 > 0, delta1 in (0, 1], a downward jump")
    t1 = 8.0 * (M - m) * (b - a) / (c1 * delta1 ** 2)
    t2 = max(1.0 / (c1 * delta1),
             (8.0 * (M - m) * (b - a) + 8.0 * c1
              + (u_minus - u_plus + 2.0 * delta1) ** 2 * c1) / (2.0 * c1 * delta1 ** 2))
    return t1, t2


@dataclass(frozen=True)
class PhaseAuditReport:
    """Rows (check, t, margin, passed) for the staged settling checks."""

    t1: float
    t2: float
    rows: Tuple[Tuple[str, float, float, bool], ...]

    @property
    def passed(self) -> bool:
        return all(r[3] for r in self.rows)


def phase_audit(initial: GridFunction, flux: FluxModel, delta0: float,
                delta1: float, cfg: SolverConfig,
                tolerance: Optional[float] = None,
                interval: Optional[Tuple[float, float]] = None) -> PhaseAuditReport:
    """Evolve box-shaped data and check the staged approach to a single wave.

    The data must be delta0-close to its edge values outside some interval
    [a, b] with a downward jump overall, and delta1 must lie in
    [2 delta0, 1].  The interval may be declared (any valid bracketing
    works; the settling times only grow with it) or is otherwise read off
    from the samples as the tightest one.  After the settling times: the
    range is contained in the delta1-widened state interval, upward
    excursions stay below 2 delta1, and past T2 the transformed curve sits
    inside the widened chord region.  All checks carry the audit tolerance
    (default 0.1 delta1).
    """
    v = initial.values
    x = initial.x
    u_minus = float(v[0])
    u_plus = float(v[-1])
    if not u_minus > u_plus:
        raise ValueError("edge values must form a downward jump")
    if not (2.0 * delta0 <= delta1 <= 1.0):
        raise ValueError("need delta1 in [2 delta0, 1]")
    dev_l = np.abs(v - u_minus) > delta0
    dev_r = np.abs(v - u_plus) > delta0
    if not (np.any(dev_l) and np.any(dev_r)):
        raise ValueError("data is constant to delta0; no transition interval")
    if dev_l[0] or dev_r[-1]:
        raise ValueError("data must be delta0-close to its edge values at the ends")
    if interval is None:
        a = float(x[int(np.argmax(dev_l)) - 1])
        b = float(x[len(v) - 1 - int(np.argmax(dev_r[::-1])) + 1])
    else:
        a, b = float(interval[0]), float(interval[1])
        if np.any(dev_l & (x <= a)) or np.any(dev_r & (x >= b)):
            raise ValueError("declared interval does not bracket the transition")
    if not b > a:
        raise ValueError("could not locate a transition interval [a, b]")
    m = float(np.min(v))
    M = float(np.max(v))
    t1, t2 = phase_times(M, m, a, b, flux.c1, delta1, u_minus, u_plus)
    tol = 0.1 * delta1 if tolerance is None else float(tolerance)

    run_cfg = replace(cfg, boundary=Clamped())
    check_times = [t1, 0.5 * (t1 + t2), t2, 1.2 * t2]
    snaps = solve(initial, flux, run_cfg, check_times[-1], check_times)

    rows = []
    for t, state in snaps:
        hi = float(np.max(state.values))
        lo = float(np.min(state.values))
        margin = min((u_minus + delta1) - hi, lo - (u_plus - delta1)) + tol
        rows.append(("range", t, float(margin), margin >= 0.0))
        margin = 2.0 * delta1 + tol - almost_monotone_margin(state)
        rows.append(("almost-monotone", t, float(margin), margin >= 0.0))
        if t >= t2:
            curve = w_curve(state, flux)
            rep = chord_region_membership(curve, flux, u_minus, u_plus, delta1)
            margin = rep.worst_margin + tol
            rows.append(("chord-region", t, float(margin), margin >= 0.0))
    return PhaseAuditReport(t1, t2, tuple(rows))


@dataclass(frozen=True)
class KuznetsovReport:
    """Viscosity sweep against an exact reference."""

    eps_list: Tuple[float, ...]
    l1_errors: Tuple[float, ...]
    rate: RateFit
    pointwise: Tuple[Tuple[float, float, float], ...]  # (eps, max error, allowance)

    @property
    def pointwise_ok(self) -> bool:
        return all(e <= allow for _, e, allow in self.pointwise)


def kuznetsov_audit(initial: GridFunction, flux: FluxModel,
                    eps_list: Sequence[float], t_check: float,
                    reference: Callable, boundary: Union[Periodic, Clamped], *,
                    lipschitz_interval: Optional[Tuple[float, float]] = None,
                    shock_positions: Sequence[float] = ()) -> KuznetsovReport:
    """Measure the vanishing-viscosity error and fit its rate.

    For each eps the solution at t_check is compared with the exact
    reference in L1 on the whole grid.  When a Lipschitz interval is given,
    the pointwise error is additionally checked there after standing off
    eps^(1/3) from each declared shock, against an allowance of
    2 * C * eps^(1/6) with C read from the fitted intercept.
    """
    eps_arr = [float(e) for e in eps_list]
    if len(eps_arr) < 3:
        raise ValueError("need at least three viscosities for a rate")
    if any(e2 >= e1 for e1, e2 in zip(eps_arr[:-1], eps_arr[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    errors = []
    finals = []
    ref_vals = np.asarray(reference(t_check, initial.x), dtype=float)
    ref_state = initial.with_values(ref_vals)
    for eps in eps_arr:
        final = solve(initial, flux, SolverConfig(eps, boundary), t_check, [t_check])[-1][1]
        finals.append(final)
        errors.append(l1_distance(final, ref_state))
    rate = convergence_rate(eps_arr, errors)

    pointwise = []
    if lipschitz_interval is not None:
        c_star = float(np.exp(rate.intercept))
        for eps, final in zip(eps_arr, finals):
            lo, hi = lipschitz_interval
            standoff = eps ** (1.0 / 3.0)
            sel = (initial.x >= lo) & (initial.x <= hi)
            for s in shock_positions:
                sel &= np.abs(initial.x - s) >= standoff
            err = float(np.max(np.abs(final.values[sel] - ref_vals[sel]))) if np.any(sel) else 0.0
            pointwise.append((eps, err, 2.0 * c_star * eps ** (1.0 / 6.0)))
    return KuznetsovReport(tuple(eps_arr), tuple(float(e) for e in errors),
                           rate, tuple(pointwise))
