"""End-to-end experiment pipelines: solve, zoom, fit, measure.

Everything here composes the core modules into the runs the acceptance
checks (and the CLI) need: viscosity sweeps against zoomed limit patterns,
merging-wave comparisons, formation-profile comparisons, and the cheap
health audits (contraction, mass, one-sided slope bounds).

Grid policy for the zoom sweeps: the shock-resolving runs refine the mesh
faster than the viscous width (dx ~ eps^{3/2}), so the discretisation error
measured in observation coordinates shrinks along the sweep instead of
staying at a fixed relative level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import KuznetsovReport, kuznetsov_audit
from .flux import FluxModel, burgers
from .grid import GridFunction, Window, l1_distance, periodic_mass, trapezoid
from .inviscid import z_bounds_audit, z_root
from .profiles import CauchyReport, eternal_z, merging_wave, traveling_wave
from .rescale import (RescaleFrame, SnapshotInterpolant, fit_formation_frame, fit_shift,
                      zoom_sample)
from .scenarios import Scenario
from .solver import (Clamped, OleinikReport, Periodic, SolverConfig,
                     oleinik_check, solve)

# The merging shift search tries time shifts on the surrogate's snapshot
# lattice, so no time interpolation error enters, and space shifts on a
# finer grid, both within +-SHIFT_RANGE.
SHIFT_RANGE = 1.0
SHIFT_LATTICE = 0.125
SHIFT_DY = 0.05


@dataclass(frozen=True)
class ZoomOutcome:
    """One viscosity's mismatch between the zoomed solve and its pattern."""

    eps: float
    sup_error: float
    l1_error: float
    shift: float
    shift_t: float = 0.0


def refined_dx(eps: float, eps_max: float, base_divisor: float = 8.0) -> float:
    """Mesh for shock-resolving runs; sharpens relative to eps along a sweep."""
    return eps / base_divisor * math.sqrt(eps / eps_max)


def scenario_grid(scenario: Scenario, dx: float) -> GridFunction:
    lo, hi = scenario.domain
    return GridFunction.from_callable(scenario.initial.u0, lo, hi, dx)


def _zoom_slices(scenario: Scenario, eps: float, dx: float, frame: RescaleFrame,
                 s_grid: np.ndarray,
                 y_grid: np.ndarray) -> List[Tuple[float, GridFunction]]:
    """Clamped solve at the frame's times, sampled in the zoomed field."""
    times = sorted(float(frame.to_physical(s, 0.0)[0]) for s in s_grid)
    cfg = SolverConfig(eps, Clamped())
    snaps = solve(scenario_grid(scenario, dx), scenario.flux, cfg, times[-1], times)
    return zoom_sample(SnapshotInterpolant(snaps), frame, s_grid, y_grid)


def _mismatch(slices: List[Tuple[float, GridFunction]],
              model: Callable) -> Tuple[float, float]:
    """Sup and space-time L1 norm of |u - model(s, g)| over the zoom slices."""
    sup = 0.0
    per_slice = np.empty(len(slices))
    for i, (s, g) in enumerate(slices):
        diff = np.abs(g.values - model(s, g))
        sup = max(sup, float(np.max(diff)))
        per_slice[i] = trapezoid(diff, g.dx)
    if len(slices) == 1:
        return sup, float(per_slice[0])
    return sup, trapezoid(per_slice, slices[1][0] - slices[0][0])


def single_shock_zoom(scenario: Scenario, eps_list: Sequence[float], *,
                      window: Window, nt: int = 21, ny: int = 401,
                      base_divisor: float = 8.0) -> List[ZoomOutcome]:
    """Compare type-1 zooms of the single-shock scenario with a fitted wave.

    The shift is fitted once per viscosity, on the central time slice; the
    same shifted wave is then held against every slice of the window.
    """
    lam = scenario.shock.speed
    u_minus, u_plus = scenario.states
    s_grid = window.t_samples(nt)
    y_grid = window.x_samples(ny)
    half = max(abs(window.x_min), abs(window.x_max)) + \
        abs(lam) * max(abs(window.t_min), abs(window.t_max)) + 6.0
    template = traveling_wave(scenario.flux, u_minus, u_plus, half, 0.005)
    eps_max = max(eps_list)
    k0 = int(np.argmin(np.abs(s_grid)))
    out = []
    for eps in eps_list:
        frame = RescaleFrame.type1(scenario.tau, scenario.xi, float(eps))
        dx = refined_dx(float(eps), eps_max, base_divisor)
        slices = _zoom_slices(scenario, float(eps), dx, frame, s_grid, y_grid)
        # the wave moves at the shock speed through the zoom window
        s0, centered = slices[k0]
        moved = GridFunction(centered.x_left - lam * s0, centered.dx, centered.values)
        fit = fit_shift(moved, template, template.midpoint)
        sup, l1 = _mismatch(slices, lambda s, g: template(g.x - lam * s - fit.shift))
        out.append(ZoomOutcome(float(eps), sup, l1, fit.shift))
    return out


def merging_surrogate(scenario: Scenario, *,
                      taus: Sequence[float] = (-20.0, -30.0, -40.0),
                      window: Window,
                      comparison_time: float = -10.0, dx: float = 0.05,
                      ) -> Tuple[SnapshotInterpolant, CauchyReport]:
    """Build the two-shock interaction wave surrogate for zoom comparisons.

    Snapshots land on the SHIFT_LATTICE time lattice over the window; the
    returned interpolant is exact at lattice times.  For a zoom, pad the
    zoom window by more than SHIFT_RANGE so that shifted copies stay inside.
    """
    if scenario.merging is None:
        raise ValueError("scenario has no merging data")
    n_lat = int(round((window.t_max - window.t_min) / SHIFT_LATTICE))
    lattice = window.t_min + SHIFT_LATTICE * np.arange(n_lat + 1)
    traj, report = merging_wave(scenario.merging, taus, window, dx=dx,
                                comparison_time=comparison_time,
                                snapshot_times=list(lattice))
    keep = [(t, g) for t, g in traj if t >= window.t_min - 1e-9]
    return SnapshotInterpolant(keep), report


def merging_zoom(scenario: Scenario, eps_list: Sequence[float],
                 wave_interp: SnapshotInterpolant, *,
                 window: Window, nt: int = 21, ny: int = 401,
                 base_divisor: float = 8.0) -> List[ZoomOutcome]:
    """L1-compare type-1 zooms with the interaction wave, shift-fitted in (t, x).

    The shift is found by lattice search (see SHIFT_RANGE) followed by a
    parabolic refinement of the space shift.
    """
    s_grid = window.t_samples(nt)
    y_grid = window.x_samples(ny)
    eps_max = max(eps_list)
    n_shift = int(round(SHIFT_RANGE / SHIFT_LATTICE))
    dt_cands = SHIFT_LATTICE * np.arange(-n_shift, n_shift + 1)
    n_dy = int(round(SHIFT_RANGE / SHIFT_DY))
    dy_cands = SHIFT_DY * np.arange(-n_dy, n_dy + 1)

    def shifted(dt_shift: float, dy_shift: float) -> Callable:
        return lambda s, g: wave_interp(s + dt_shift, y_grid + dy_shift)

    out = []
    for eps in eps_list:
        frame = RescaleFrame.type1(scenario.tau, scenario.xi, float(eps))
        dx = refined_dx(float(eps), eps_max, base_divisor)
        slices = _zoom_slices(scenario, float(eps), dx, frame, s_grid, y_grid)

        def l1_against(dt_shift: float, dy_shift: float) -> float:
            return _mismatch(slices, shifted(dt_shift, dy_shift))[1]

        best = (np.inf, 0.0, 0.0)
        for dt_s in dt_cands:
            for dy_s in dy_cands:
                val = l1_against(float(dt_s), float(dy_s))
                if val < best[0]:
                    best = (val, float(dt_s), float(dy_s))
        # fine local scan of the time shift: the optimum drifts off the
        # coarse lattice as eps shrinks, and the leftover dt error would
        # otherwise floor the sweep
        _, bt, by = best
        for dt_f in bt + (SHIFT_LATTICE / 8.0) * np.arange(-8, 9):
            if abs(dt_f) > SHIFT_RANGE:
                continue
            val = l1_against(float(dt_f), by)
            if val < best[0]:
                best = (val, float(dt_f), by)
        # parabolic refinement of the space shift at the winning point
        _, bt, by = best
        lo, mid, hi = (l1_against(bt, by - SHIFT_DY), best[0],
                       l1_against(bt, by + SHIFT_DY))
        denom = lo - 2.0 * mid + hi
        if denom > 0.0:
            vertex = by + 0.5 * SHIFT_DY * (lo - hi) / denom
            val = l1_against(bt, vertex)
            if val < best[0]:
                best = (val, bt, vertex)
        _, bt, by = best
        sup, l1 = _mismatch(slices, shifted(bt, by))
        out.append(ZoomOutcome(float(eps), sup, l1, float(by), float(bt)))
    return out


def formation_zoom(scenario: Scenario, eps_list: Sequence[float],
                   z_wave: List[Tuple[float, GridFunction]], *, window: Window,
                   nt: int = 17, ny: int = 321,
                   dx_hat: float = 0.04) -> List[ZoomOutcome]:
    """Compare type-2 zooms of a formation scenario with the eternal wave.

    General frames are normalised through the fitted (c, sigma, lam): the
    field f''(u_c)(u - u_c)/sigma zoomed at effective viscosity eps/sigma in
    the drifting frame is the one converging to the eternal wave.  For the
    canonical scenario all factors are 1.

    The mesh scales as dx_hat * eps^{3/4}: constant resolution in
    observation coordinates, fine enough that the horizon gap dominates.
    """
    if scenario.formation is None:
        raise ValueError("scenario has no formation point")
    fit = fit_formation_frame(scenario.formation, scenario.flux)
    u_c = scenario.formation.u_value
    f2 = float(scenario.flux.d2f(np.float64(u_c)))
    s_grid = window.t_samples(nt)
    y_grid = window.x_samples(ny)
    z_interp = SnapshotInterpolant(z_wave)
    out = []
    for eps in eps_list:
        frame = RescaleFrame.type2(fit.tau_eps, fit.xi_eps, float(eps), u_c,
                                   time_scale=fit.sigma, drift=fit.lam, value_scale=f2)
        dx = dx_hat * float(eps) ** 0.75
        slices = _zoom_slices(scenario, float(eps), dx, frame, s_grid, y_grid)
        sup, l1 = _mismatch(slices, lambda s, g: z_interp(s, y_grid))
        out.append(ZoomOutcome(float(eps), sup, l1, 0.0))
    return out


def kuznetsov_sweep(scenario: Scenario, eps_list: Sequence[float], *,
                    t_check: Optional[float] = None,
                    n_nodes: int = 4096) -> KuznetsovReport:
    """Viscosity sweep of a scenario against its exact inviscid reference."""
    if t_check is None:
        t_check = 0.5 * (scenario.formed_time + scenario.tau)
    lo, hi = scenario.domain
    dx = (hi - lo) / (n_nodes - 1)
    data = scenario_grid(scenario, dx)
    shocks = []
    if scenario.shock is not None and t_check >= scenario.formed_time:
        shocks.append(scenario.shock.speed * t_check)
    if scenario.merging is not None and t_check >= scenario.formed_time:
        trip = scenario.merging
        if t_check < scenario.tau:
            shocks = [trip.lambda1 * (t_check - scenario.tau),
                      trip.lambda2 * (t_check - scenario.tau)]
        else:
            shocks = [scenario.shock.speed * (t_check - scenario.tau)]
    interval = (lo + 0.5, hi - 0.5)
    return kuznetsov_audit(data, scenario.flux, eps_list, float(t_check),
                           scenario.reference, Clamped(),
                           lipschitz_interval=interval, shock_positions=shocks)


# ---------------------------------------------------------------------------
# health audits


@dataclass(frozen=True)
class ContractionReport:
    """L1 distances between two evolutions at increasing times."""

    times: Tuple[float, ...]
    distances: Tuple[float, ...]

    @property
    def relative_slack(self) -> float:
        """Largest forward increase of the distance, relative to its start."""
        d = self.distances
        if d[0] == 0.0:
            return 0.0
        return max(0.0, max(b - a for a, b in zip(d[:-1], d[1:])) / d[0])


def contraction_check(initial_a: GridFunction, initial_b: GridFunction,
                      flux: FluxModel, cfg: SolverConfig,
                      times: Sequence[float]) -> ContractionReport:
    """Evolve two data sets side by side and track their L1 distance."""
    ts = sorted(float(t) for t in times)
    if ts[0] > 0.0:
        ts = [0.0] + ts
    snaps_a = solve(initial_a, flux, cfg, ts[-1], ts)
    snaps_b = solve(initial_b, flux, cfg, ts[-1], ts)
    dists = [l1_distance(a, b) for (_, a), (_, b) in zip(snaps_a, snaps_b)]
    return ContractionReport(tuple(ts), tuple(dists))


@dataclass(frozen=True)
class MassReport:
    """Periodic-mass history of one evolution."""

    times: Tuple[float, ...]
    masses: Tuple[float, ...]

    @property
    def drift_rate(self) -> float:
        """Worst |mass(t) - mass(0)| per unit time."""
        t0, m0 = self.times[0], self.masses[0]
        rates = [abs(m - m0) / max(t - t0, 1e-30)
                 for t, m in zip(self.times[1:], self.masses[1:])]
        return max(rates) if rates else 0.0


def mass_drift_check(initial: GridFunction, flux: FluxModel, cfg: SolverConfig,
                     times: Sequence[float]) -> MassReport:
    if not isinstance(cfg.boundary, Periodic):
        raise ValueError("mass drift is audited on periodic runs")
    ts = sorted(float(t) for t in times)
    if ts[0] > 0.0:
        ts = [0.0] + ts
    snaps = solve(initial, flux, cfg, ts[-1], ts)
    return MassReport(tuple(ts), tuple(periodic_mass(g) for _, g in snaps))


# ---------------------------------------------------------------------------
# named audit suites (shared by the CLI and the acceptance checks)


def suite_cubic_bounds(nt: int = 100, nx: int = 100):
    """Analytic slope/curvature/envelope bounds of the cubic wave on a grid."""
    report = z_bounds_audit(np.linspace(-10.0, -0.5, nt), np.linspace(-50.0, 50.0, nx))
    rows = [(name, 0.0, margin, margin >= -1e-12)
            for name, margin in sorted(report.worst.items())]
    return report, rows


def suite_sandwich(n: float = 16.0, dx: float = 0.02, x_solve: float = 60.0,
                   x_check: float = 40.0,
                   times: Sequence[float] = (-9.0, -4.0, -1.0)):
    """Eternal-wave order and closeness against the cubic wave.

    Checks z <= Z^(n) <= z + 2|t|^{-3/2} + 5 dx on |x| <= x_check for x >= 0
    and the mirrored order on x <= 0.
    """
    times = sorted(float(t) for t in times)
    window = Window(times[0], times[-1], -x_check, x_check)
    wave = eternal_z(n, window, dx=dx, x_max=x_solve, snapshot_times=times)
    rows = []
    for t, g in wave:
        sel = np.abs(g.x) <= x_check + 1e-9
        x = g.x[sel]
        zv = z_root(t, x)
        diff = g.values[sel] - zv
        band = 2.0 * abs(t) ** -1.5 + 5.0 * dx
        # signed gap: Z sits above z on the right half, below on the left
        gap = np.where(x >= 0.0, diff, -diff)
        rows.append(("order", t, float(np.min(gap)), bool(np.min(gap) >= -1e-12)))
        rows.append(("band", t, float(np.min(band - np.abs(diff))),
                     bool(np.max(np.abs(diff)) <= band)))
    return wave, rows


def suite_oleinik(eps: float = 1.0, n_nodes: int = 1024, length: float = 2 * math.pi,
                  times: Sequence[float] = (0.5, 1.0, 2.0), c1: float = 1.0,
                  ) -> Tuple[OleinikReport, list]:
    """One-sided slope decay for periodic sine data under Burgers' flux."""
    dx = length / n_nodes
    x = dx * np.arange(n_nodes)
    data = GridFunction(0.0, dx, np.sin(2.0 * math.pi * x / length))
    cfg = SolverConfig(eps, Periodic())
    ts = sorted(float(t) for t in times)
    snaps = solve(data, burgers(), cfg, ts[-1], ts)
    report = oleinik_check(snaps, c1, tolerance=2.0 * dx)
    rows = [("slope", t, margin, margin >= 0.0)
            for (t, slope, bound, margin) in report.rows]
    return report, rows
