"""Flux-plane diagnostics and long-run audits.

The central object is the transformed curve u -> w = f(u) - u_x.  For an
exact traveling wave this curve collapses onto the chord of f through the
two end states, so a positive margin to a slightly widened chord-hull
region certifies the later stages of the approach to the wave.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .errors import NoCrossingError
from .flux import FluxModel, chord
from .grid import GridFunction
from .profiles import TravelingWave, traveling_wave
from .rescale import FitResult, fit_shift
from .solver import Clamped, SolverConfig, solve


def chord_region_margin(state: GridFunction, flux: FluxModel, u_minus: float,
                        u_plus: float, delta1: float) -> float:
    """Worst margin of the transformed curve (u, f(u) - u_x) of ``state`` to
    the widened chord-hull region; negative where the curve leaves it.

    u_x is taken by centred differences, one-sided at the ends.  The region
    widens the state interval by delta1 on both sides, takes the chord of f
    over the widened interval raised by delta1 as the upper boundary, and
    f - delta1 lowered by a further hull fillet allowance of delta1 as the
    lower boundary.
    """
    u = state.values
    f = np.asarray(flux.f(u), dtype=float)
    w = f - np.gradient(u, state.dx, edge_order=1)
    lo, hi = u_plus - delta1, u_minus + delta1
    upper = np.asarray(chord(flux, hi, lo)(u), dtype=float) + delta1
    lower = f - delta1 - delta1
    m_u = np.minimum(u - lo, hi - u)
    return float(np.min(np.minimum(np.minimum(m_u, upper - w), w - lower)))


def strip_profile_fit(state: GridFunction, flux: FluxModel, u_minus: float,
                      u_plus: float, template: Optional[TravelingWave] = None) -> FitResult:
    """Fit a shifted traveling wave to a state whose w-curve hugs the chord.

    NoCrossingError unless the state reaches more than 1e-9 of the jump
    past the midpoint of the two states on both sides; the caller asserts
    sup_error against its own budget.
    """
    mid = 0.5 * (u_minus + u_plus)
    # a state within rounding of the midpoint at one end has the shock on
    # its edge, where the sign of that rounding decides a crossing; 1e-9 of
    # the jump is far above rounding and far below any fit error
    gap = 1e-9 * (u_minus - u_plus)
    v = state.values
    if not np.min(v) < mid - gap < mid + gap < np.max(v):
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


def phase_audit(initial: GridFunction, flux: FluxModel, delta0: float,
                delta1: float, cfg: SolverConfig, *,
                interval: Tuple[float, float]) -> PhaseAuditReport:
    """Evolve box-shaped data and check the staged approach to a single wave.

    The data must be delta0-close to its edge values outside the declared
    interval [a, b] (any valid bracketing works; the settling times only
    grow with it) with a downward jump overall, and delta1 must lie in
    [2 delta0, 1].  After the settling times: the range is contained in the
    delta1-widened state interval, upward excursions stay below 2 delta1,
    and past T2 the transformed curve sits inside the widened chord region.
    All checks carry the audit tolerance 0.1 delta1.
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
    a, b = float(interval[0]), float(interval[1])
    if np.any(dev_l & (x <= a)) or np.any(dev_r & (x >= b)):
        raise ValueError("declared interval does not bracket the transition")
    m = float(np.min(v))
    M = float(np.max(v))
    # phase_times needs b > a
    t1, t2 = phase_times(M, m, a, b, flux.c1, delta1, u_minus, u_plus)
    tol = 0.1 * delta1

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
            margin = chord_region_margin(state, flux, u_minus, u_plus, delta1) + tol
            rows.append(("chord-region", t, float(margin), margin >= 0.0))
    return PhaseAuditReport(t1, t2, tuple(rows))
