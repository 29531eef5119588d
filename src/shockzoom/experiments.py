"""End-to-end experiment pipelines: solve, zoom, fit, measure.

Everything here composes the core modules into the runs the acceptance
checks (and the CLI) need: viscosity sweeps against zoomed limit patterns,
merging-wave comparisons, formation-profile comparisons, and the cheap
health audits (contraction, mass, one-sided slope bounds).

One pipeline serves the three zooms (``zooms``): every viscosity's zoom is
planned and checked before the first solve; then each is solved, landing
on the frame's times, and read into one (nt, ny) array of the rescaled
field, each row interpolated in x off the snapshot at its time; only the
comparison with the pattern differs between the zooms.

Grid policy for the zoom sweeps: the shock-resolving runs refine the mesh
faster than the viscous width (dx ~ eps^{3/2}), so the discretisation error
measured in observation coordinates shrinks along the sweep instead of
staying at a fixed relative level.  Each zoom solve marches only the
window's cone of dependence, which shrinks as the march nears the window:
in ZOOM_STAGES stages of equal duration, each cut at its start t to the
scenario grid's nodes within s (t_end - t) plus ten diffusion lengths
sqrt(eps (t_end - t)) of the x-range the window sees, s the largest speed
on the current cut, with the cut's ends held through the stage.  Each cut
then drops its flat ends, the nodes equal to its first or last value, but
for the s (t_stop - t) + ten diffusion lengths sqrt(eps (t_stop - t)) next
to the nodes that vary, its reach over the stage: a held end sits in data
equal to it, so the heat kernel's erfc(5)/2 bound that sizes the cone
keeps it exact too.  The default merging run's first cut at eps = 0.01
holds 3,771 of the grid's 8,001 nodes, 6,801 without the trim.  Where the
data are still smooth before the window (t0, a quarter of the window's
duration before it opens, lies before the blow-up time) and the grid is at
least twice as fine as a cell Peclet number of 0.5 needs, the stages before
t0 march on every m-th node of the grid, counted from its left end, and the
state is prolonged to the fine nodes at t0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import phase_audit, strip_profile_fit
from .flux import FluxModel, burgers
from .errors import ConfigError, OutOfDomainError
from .grid import (MAX_CELLS, GridFunction, Window, cell_count, l1_distance,
                   periodic_mass, prolong_cubic, trapezoid)
from .inviscid import z_bounds_audit, z_exact, z_root
from .profiles import CauchyReport, eternal_z, merging_wave, traveling_wave
from .rescale import (RateFit, RescaleFrame, SnapshotInterpolant, convergence_rate,
                      fit_formation_frame)
from .scenarios import Scenario
from .solver import (MAX_SNAPSHOT_VALUES, Clamped, OleinikReport, Periodic, SolverConfig,
                     check_step_count, oleinik_check, solve)

# The merging shift search tries time shifts on the surrogate's snapshot
# lattice, where no time interpolation error enters, and space shifts on a
# finer grid, both within +-SHIFT_RANGE; its fine scan's time steps of
# SHIFT_LATTICE/8 fall between the snapshots, where the surrogate blends two.
SHIFT_RANGE = 1.0
SHIFT_LATTICE = 0.125
SHIFT_DY = 0.05
# the lattice's time shifts, which the search compares at once
SHIFT_TIMES = SHIFT_LATTICE * np.arange(-round(SHIFT_RANGE / SHIFT_LATTICE),
                                        round(SHIFT_RANGE / SHIFT_LATTICE) + 1)

# A zoom solve's margin past the window, beyond the advective reach, in
# diffusion lengths sqrt(eps t): the heat kernel holds erfc(5)/2 < 1e-12 of
# its mass past ten of them.  Every stage's held ends leak into the cut, so
# the staged march needs more than one fixed cut: on the merging scenario
# at eps = 0.08 it leaves 9.0e-9 of the solution's sup at eight, 2.7e-9 at
# nine and 7.8e-10 at ten.
REACH_DIFFUSION_LENGTHS = 10.0
# The zoom march is cut back to the window's cone this many times.
ZOOM_STAGES = 8
# The fine solve takes over this fraction of the window's duration before
# the window opens, so the prolongation's error is smoothed before it is seen.
COARSE_LEAD = 0.25
# The coarse start's cell Peclet number, a quarter of the solver's limit of
# 2: on the acceptance gate's formation study (eps = 0.01, 0.004, 0.0016)
# it moves the zoom errors by at most 0.15%, against 0.72% at 1.
COARSE_PECLET = 0.5


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


def zoom_frame(scenario: Scenario, eps: float) -> RescaleFrame:
    """The frame of a zoom at viscosity eps: the type-2 frame of
    ``fit_formation_frame`` at a formation point, else type 1."""
    point = scenario.formation
    if point is None:
        return RescaleFrame.type1(scenario.tau, scenario.xi, eps)
    return fit_formation_frame(point, scenario.flux, eps)


def zooms(scenario: Scenario, eps_list: Sequence[float], window: Window, nt: int,
          ny: int, *, base_divisor: float = 8.0, dx_hat: float = 0.04):
    """The zooms of a sweep over ``window`` at nt x ny samples: s_grid, y_grid
    and an iterator of (eps, ``_zoom_field``) in the frame of ``zoom_frame``.

    This call plans, and so checks, every zoom; the iterator solves each one
    when it reaches it.  The mesh is dx_hat eps^{3/4} for a type-2 zoom,
    constant resolution in observation coordinates fine enough that the
    horizon gap dominates, and ``refined_dx`` against the sweep's largest eps
    for a type-1 zoom.  ConfigError unless a window of two or more times
    has nonzero duration, unless the samples, held once per SHIFT_TIMES
    entry and once per viscosity by the merging search, fit in
    MAX_SNAPSHOT_VALUES values, and unless each zoom's window starts at
    t >= 0, where the solve starts from the data, and sees x on
    ``scenario_grid`` at its mesh, whose last node is the one nearest the
    domain's right end.
    """
    if nt >= 2 and window.t_min == window.t_max:
        raise ConfigError(f"the window's t in [{window.t_min:.6g}, {window.t_max:.6g}] "
                          f"has zero duration, so its {nt} time samples are 0 apart")
    held = 1 if scenario.merging is None else len(SHIFT_TIMES) + len(eps_list)
    if nt * ny * held > MAX_SNAPSHOT_VALUES:
        raise ConfigError(f"{held} x {nt} x {ny} zoom samples exceed "
                          f"{MAX_SNAPSHOT_VALUES} values")
    lo, hi = scenario.domain
    plans = []
    for eps in map(float, eps_list):
        dx = (dx_hat * eps ** 0.75 if scenario.formation is not None
              else refined_dx(eps, max(eps_list), base_divisor))
        frame = zoom_frame(scenario, eps)
        end = lo + cell_count(hi - lo, dx) * dx
        with np.errstate(all="ignore"):
            t, x = frame.to_physical([[window.t_min], [window.t_max]],
                                     [window.x_min, window.x_max])
        if not np.min(t) >= 0.0:
            raise ConfigError(f"the window at eps={eps:.3g} starts at t={np.min(t):.3g}, "
                              f"before the data at t = 0")
        if not lo <= np.min(x) <= np.max(x) <= end:
            raise ConfigError(f"the window at eps={eps:.3g} sees x in [{np.min(x):.6g}, "
                              f"{np.max(x):.6g}], outside the scenario's grid "
                              f"[{lo:.6g}, {end:.6g}] at dx={dx:.3g}")
        plans.append((eps, frame, dx))
    s_grid, y_grid = window.t_samples(nt), window.x_samples(ny)
    return s_grid, y_grid, ((eps, _zoom_field(scenario, eps, dx, frame, s_grid, y_grid))
                            for eps, frame, dx in plans)


def _zoom_field(scenario: Scenario, eps: float, dx: float, frame: RescaleFrame,
                s_grid: np.ndarray, y_grid: np.ndarray) -> np.ndarray:
    """The rescaled field at the frame's points (s_grid x y_grid), one row per time.

    The clamped march from the data at t = 0 to the window's last time
    t_end covers only the window's cone of dependence, and it shrinks as it
    goes.  It runs in ZOOM_STAGES stages of equal duration.  At each stage's
    start t the state is cut to the nodes of ``scenario_grid(scenario, dx)``
    within s (t_end - t) + REACH_DIFFUSION_LENGTHS sqrt(eps (t_end - t)) of
    the x-range the window sees at any of its times, inside the last cut.
    Here s is max|f'(u)| over the current cut, which the maximum principle
    makes a bound for the rest of the march; at t = 0 it is read at the
    grid's end nodes.  The cut then keeps only what the stage can change:
    its leading nodes equal to its first value and trailing nodes equal to
    its last (exactly, with no tolerance) are dropped but for the
    ceil(reach / (m dx)) next to the first and last varying node, with
    reach = s (stop - start) + REACH_DIFFUSION_LENGTHS sqrt(eps (stop - start)),
    the cone's formula run forward over the stage; a cut with no varying
    node is kept whole.  Each cut's end nodes are held through its stage:
    beyond the varying part's reach the state stays the held value to the
    heat kernel's erfc(5)/2, as at the cone's edge.  Every stage lands on
    the frame's times within it, and each row is interpolated linearly in
    x off the snapshot at its time; a row point past a trimmed end reads
    the end's held value.

    Where the solution is still smooth before the window, the march starts
    coarse: with m = floor(COARSE_PECLET eps / (max|f'(u0)| dx)) >= 2, at
    least three coarse cells on the grid and t0 = t_first - COARSE_LEAD
    (t_last - t_first) in (0, blow-up time), the stages before t0 march on
    the grid's nodes whose index is a multiple of m, each cut at least three
    coarse cells long, and the state is prolonged to the fine nodes by cubic
    interpolation at t0, which is one more stage start.
    """
    # each row's time, once: the march lands on it and the row is read there
    t_rows = frame.to_physical(s_grid, 0.0)[0].tolist()
    times = sorted(set(t_rows))
    t_end = times[-1]
    lo, hi = scenario.domain
    last = cell_count(hi - lo, dx)
    flux, u0 = scenario.flux, scenario.initial.u0
    with np.errstate(over="ignore"):
        _, x_rows = frame.to_physical(s_grid[:, None], y_grid)
    x_seen = np.min(x_rows), np.max(x_rows)

    def reach(speed: float, duration: float) -> float:
        """How far data can act at speed ``speed`` over ``duration``."""
        return speed * duration + REACH_DIFFUSION_LENGTHS * math.sqrt(eps * duration)

    def cone(t: float, speed: float, i: int, j: int, m: int):
        """The nodes a < b, multiples of m in the cut i, ..., j, that cover the
        window's cone of dependence at time t, at least one cell apart, or
        three coarse cells, the four nodes that ``prolong_cubic`` needs."""
        cells = 3 if m > 1 else 1
        far = reach(speed, t_end - t)
        # clipped as floats, so that a window far off the grid cannot overflow int()
        with np.errstate(over="ignore"):
            a = np.clip(np.floor((x_seen[0] - far - lo) / (m * dx)), i // m, j // m - cells)
            b = np.clip(np.ceil((x_seen[1] + far - lo) / (m * dx)), a + cells, j // m)
        return m * int(a), m * int(b)

    def varying(values: np.ndarray, speed: float, duration: float, m: int):
        """The offsets p < q into the cut's values that a stage of ``duration``
        must march: its flat ends, the nodes equal to its first or last value,
        are dropped but for the ceil(reach / (m dx)) next to the nodes that
        differ from them, keeping as many cells as ``cone``; a cut that is
        flat throughout is kept whole."""
        n = values.size
        left, right = np.flatnonzero(values != values[0]), np.flatnonzero(values != values[-1])
        if not left.size:
            return 0, n - 1
        cells = 3 if m > 1 else 1
        keep = math.ceil(reach(speed, duration) / (m * dx))
        p = min(max(int(left[0]) - keep, 0), n - 1 - cells)
        return p, min(max(int(right[-1]) + keep, p + cells), n - 1)

    # every scenario's data are monotone, so their largest speed is at the
    # grid's end nodes
    speed = flux.max_speed(u0(lo + dx * np.array([0.0, last])))
    t0 = times[0] - COARSE_LEAD * (t_end - times[0])
    m = math.floor(COARSE_PECLET * eps / (speed * dx))
    if not (m >= 2 and 0.0 < t0 < min(times[0], scenario.blowup) and 3 * m <= last):
        m = 1
    i, j = cone(0.0, speed, 0, last, m)
    # the whole march's steps at the data's speed, its coarse stretch at
    # stride m, are capped before any step, as one solve's would be
    check_step_count(t_end - t0 * (m - 1) / m, speed, dx)
    starts = sorted({t_end * k / ZOOM_STAGES for k in range(ZOOM_STAGES)}
                    | ({t0} if m > 1 else set()))
    # each row to the stage that ends at or after its time
    stage_of = np.maximum(np.searchsorted(starts, t_rows) - 1, 0)
    field = np.empty(x_rows.shape)
    # sampled on the cut's nodes only, each as scenario_grid places it
    values = u0(lo + dx * np.arange(i, j + 1, m))
    for k, (start, stop) in enumerate(zip(starts, starts[1:] + [t_end])):
        if k:
            if start == t0 and m > 1:
                values, m = prolong_cubic(values, m), 1
            speed = flux.max_speed(values)
            a, b = cone(start, speed, i, j, m)
            values = values[(a - i) // m:(b - i) // m + 1]
            i, j = a, b
        p, q = varying(values, speed, stop - start, m)
        values = values[p:q + 1]
        i, j = i + m * p, i + m * q
        cut = GridFunction(lo + dx * i, m * dx, values)
        rows = np.flatnonzero(stage_of == k)
        snaps = dict(solve(cut, flux, SolverConfig(eps, Clamped()), stop - start,
                           [t_rows[r] - start for r in rows] + [stop - start]))
        for r in rows:
            field[r] = np.interp(x_rows[r], cut.x, snaps[t_rows[r] - start].values)
        values = snaps[stop - start].values
    return frame.rescale_values(field)


def _mismatch(field: np.ndarray, model: np.ndarray, s_grid: np.ndarray, y_grid: np.ndarray):
    """Sup and space-time L1 norm of |field - model| on s_grid x y_grid.

    ``model`` holds model values as (..., nt, ny); both norms reduce the
    last two axes, so leading axes index candidates.  With one time the L1
    norm is the integral over y alone.
    """
    diff = field - model
    np.abs(diff, out=diff)
    per_row = trapezoid(diff, y_grid[1] - y_grid[0])
    l1 = (per_row[..., 0] if len(s_grid) == 1
          else trapezoid(per_row, s_grid[1] - s_grid[0]))
    return diff.max(axis=(-2, -1)), l1


def single_shock_zoom(scenario: Scenario, eps_list: Sequence[float], *,
                      window: Window, nt: int = 21, ny: int = 401,
                      base_divisor: float = 8.0) -> List[ZoomOutcome]:
    """Compare type-1 zooms of the single-shock scenario with a fitted wave.

    The shift is fitted once per viscosity, on the central time slice; the
    same shifted wave is then held against every slice of the window.
    NoCrossingError unless that slice straddles the midpoint, as
    ``strip_profile_fit`` asks.
    """
    s_grid, y_grid, fields = zooms(scenario, eps_list, window, nt, ny,
                                    base_divisor=base_divisor)
    lam = scenario.shock.speed
    u_minus, u_plus = scenario.shock.u_minus, scenario.shock.u_plus
    half = max(abs(window.x_min), abs(window.x_max)) + \
        abs(lam) * max(abs(window.t_min), abs(window.t_max)) + 6.0
    template = traveling_wave(scenario.flux, u_minus, u_plus, half, 0.005)
    k0 = int(np.argmin(np.abs(s_grid)))
    out = []
    for eps, field in fields:
        # the wave moves at the shock speed through the zoom window
        centered = GridFunction(float(y_grid[0]), float(y_grid[1] - y_grid[0]), field[k0])
        moved = GridFunction(centered.x_left - lam * s_grid[k0], centered.dx, centered.values)
        fit = strip_profile_fit(moved, scenario.flux, u_minus, u_plus, template)
        sup, l1 = _mismatch(field, template(centered.x - lam * s_grid[:, None] - fit.shift),
                            s_grid, y_grid)
        out.append(ZoomOutcome(eps, float(sup), float(l1), fit.shift))
    return out


def merging_surrogate(scenario: Scenario, *, taus: Sequence[float], window: Window,
                      comparison_time: float, dx: float = 0.05,
                      ) -> Tuple[SnapshotInterpolant, CauchyReport]:
    """Build the two-shock interaction wave surrogate for zoom comparisons.

    Snapshots land on the SHIFT_LATTICE time lattice over the window; the
    returned interpolant is exact at lattice times.  For a zoom, pad the
    zoom window by more than SHIFT_RANGE so that shifted copies stay inside.
    """
    if scenario.merging is None:
        raise ValueError("scenario has no merging data")
    with np.errstate(over="ignore"):
        steps = np.float64(window.t_max - window.t_min) / SHIFT_LATTICE
    # bounded before the lattice is allocated
    if not steps <= MAX_CELLS:
        raise ConfigError(f"the window spans {steps:.3g} lattice steps of "
                          f"{SHIFT_LATTICE}, more than {MAX_CELLS}")
    n_lat = int(round(steps))
    lattice = window.t_min + SHIFT_LATTICE * np.arange(n_lat + 1)
    traj, report = merging_wave(scenario.merging, taus, window, dx=dx,
                                comparison_time=comparison_time,
                                snapshot_times=list(lattice))
    keep = [(t, g) for t, g in traj if t >= window.t_min - 1e-9]
    return SnapshotInterpolant(keep), report


def merging_zoom(scenario: Scenario, eps_list: Sequence[float],
                 wave_interp: Callable, *,
                 window: Window, nt: int = 21, ny: int = 401,
                 base_divisor: float = 8.0) -> List[ZoomOutcome]:
    """L1-compare type-1 zooms with the interaction wave, shift-fitted in (t, x).

    ``wave_interp`` is the surrogate's interpolant, or any callable with its
    contract, such as ``profiles.exact_merging_wave``.  The shift is found
    by a lattice search (see SHIFT_RANGE), one pass that scores every
    viscosity's field, then for each viscosity by a fine scan of the time
    shift and a parabolic refinement of the space shift.
    """
    s_grid, y_grid, fields = zooms(scenario, eps_list, window, nt, ny,
                                    base_divisor=base_divisor)
    n_dy = int(round(SHIFT_RANGE / SHIFT_DY))
    dy_cands = SHIFT_DY * np.arange(-n_dy, n_dy + 1)
    # every field is solved first, so the lattice, which does not depend on
    # eps, is evaluated once for all of them: one wave call per dy column,
    # at the distinct shifted times only (on a window whose time step is a
    # multiple of SHIFT_LATTICE most of them repeat)
    fields = list(fields)
    times, inverse = np.unique(np.add.outer(SHIFT_TIMES, s_grid), return_inverse=True)
    inverse = inverse.reshape(len(SHIFT_TIMES), len(s_grid))
    lattice = np.empty((len(fields), len(SHIFT_TIMES), len(dy_cands)))
    for k, dy in enumerate(dy_cands):
        model = wave_interp(times, y_grid + dy)[inverse]
        for f, (_, field) in enumerate(fields):
            lattice[f, :, k] = _mismatch(field, model, s_grid, y_grid)[1]

    out = []
    for (eps, field), l1 in zip(fields, lattice):

        def mismatch(dt, dy: float):
            """Sup and L1 against the wave shifted by (dt, dy), per dt if an array."""
            return _mismatch(field, wave_interp(np.add.outer(dt, s_grid), y_grid + dy),
                             s_grid, y_grid)

        # the flat argmin over the lattice runs over dt, then dy, and picks
        # the first candidate with the least L1
        i, k = np.unravel_index(int(np.argmin(l1)), l1.shape)
        bt, by = float(SHIFT_TIMES[i]), float(dy_cands[k])
        # fine local scan of the time shift: the optimum drifts off the
        # coarse lattice as eps shrinks, and the leftover dt error would
        # otherwise floor the sweep
        fine = bt + (SHIFT_LATTICE / 8.0) * np.arange(-8, 9)
        fine = fine[np.abs(fine) <= SHIFT_RANGE]
        bt = float(fine[int(np.argmin(mismatch(fine, by)[1]))])
        # parabolic refinement of the space shift at the winning point; the
        # vertex replaces it only with a strictly smaller L1
        lo, mid, hi = (float(mismatch(bt, dy)[1])
                       for dy in (by - SHIFT_DY, by, by + SHIFT_DY))
        denom = lo - 2.0 * mid + hi
        if denom > 0.0:
            vertex = by + 0.5 * SHIFT_DY * (lo - hi) / denom
            if mismatch(bt, vertex)[1] < mid:
                by = vertex
        sup, l1 = mismatch(bt, by)
        out.append(ZoomOutcome(eps, float(sup), float(l1), float(by), float(bt)))
    return out


def formation_zoom(scenario: Scenario, eps_list: Sequence[float], n: float, *,
                   window: Window, nt: int = 17, ny: int = 321,
                   dx_hat: float = 0.04) -> List[ZoomOutcome]:
    """Compare type-2 zooms (see ``zoom_frame``) of a formation scenario, on the
    mesh of ``zooms``, with Z^(n) (``z_exact``) at their samples, before any solve."""
    if scenario.formation is None:
        raise ValueError("scenario has no formation point")
    s_grid, y_grid, fields = zooms(scenario, eps_list, window, nt, ny, dx_hat=dx_hat)
    pattern = z_exact(n, s_grid, y_grid)
    out = []
    for eps, field in fields:
        sup, l1 = _mismatch(field, pattern, s_grid, y_grid)
        out.append(ZoomOutcome(eps, float(sup), float(l1), 0.0))
    return out


@dataclass(frozen=True)
class KuznetsovReport:
    """Viscosity sweep against an exact reference, per viscosity in the
    order swept: the L1 errors, their fitted rate, and the pointwise
    (max error, allowance) pairs."""

    l1_errors: Tuple[float, ...]
    rate: RateFit
    pointwise: Tuple[Tuple[float, float], ...]


def kuznetsov_sweep(scenario: Scenario, eps_list: Sequence[float], *,
                    t_check: Optional[float] = None,
                    n_nodes: int = 4096) -> KuznetsovReport:
    """Viscosity sweep of a scenario against its exact inviscid reference.

    Each clamped solution at t_check (default: midway between absorption
    and tau) is compared with the reference: in L1 on the whole grid, for
    the fitted rate, and pointwise on the domain less 0.5 at each end,
    eps^(1/3) clear of each shock, against 2 * C * eps^(1/6) with C from
    the fitted intercept.  The reference is evaluated before any solve:
    ConfigError where it does not exist, for a scenario whose limit holds no
    shock, or for fewer than three viscosities; after the solves, ConfigError
    where an L1 error is 0, which no log-log rate fits.
    """
    if scenario.shock is None:
        raise ConfigError(f"{scenario.id}: rate sweeps need an exact shocked reference")
    eps_arr = [float(e) for e in eps_list]
    if len(eps_arr) < 3:
        raise ConfigError(f"need at least three viscosities for a rate, got {eps_arr}")
    if any(e2 >= e1 for e1, e2 in zip(eps_arr[:-1], eps_arr[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if t_check is None:
        t_check = 0.5 * (scenario.formed_time + scenario.tau)
    t_check = float(t_check)
    lo, hi = scenario.domain
    data = scenario_grid(scenario, (hi - lo) / (n_nodes - 1))
    try:
        ref_vals = np.asarray(scenario.reference(t_check, data.x), dtype=float)
    except OutOfDomainError as e:
        raise ConfigError(f"t_check={t_check:.6g}: {e}") from None
    ref_state = data.with_values(ref_vals)
    shocks = scenario.shocks(t_check)[0] if t_check >= scenario.formed_time else []

    finals = [solve(data, scenario.flux, SolverConfig(eps, Clamped()), t_check,
                    [t_check])[-1][1] for eps in eps_arr]
    errors = [l1_distance(final, ref_state) for final in finals]
    if 0.0 in errors:
        eps = eps_arr[errors.index(0.0)]
        raise ConfigError(f"t_check={t_check:.6g}: the solution at eps={eps:.6g} "
                          f"equals the reference, so no log-log rate can be fitted")
    rate = convergence_rate(eps_arr, errors)
    c_star = float(np.exp(rate.intercept))
    pointwise = []
    for eps, final in zip(eps_arr, finals):
        standoff = eps ** (1.0 / 3.0)
        sel = (data.x >= lo + 0.5) & (data.x <= hi - 0.5)
        for s in shocks:
            sel &= np.abs(data.x - s) >= standoff
        err = float(np.max(np.abs(final.values[sel] - ref_vals[sel]))) if np.any(sel) else 0.0
        pointwise.append((err, 2.0 * c_star * eps ** (1.0 / 6.0)))
    return KuznetsovReport(tuple(float(e) for e in errors), rate, tuple(pointwise))


# ---------------------------------------------------------------------------
# health audits


def contraction_check(initial_a: GridFunction, initial_b: GridFunction,
                      flux: FluxModel, cfg: SolverConfig, times: Sequence[float]) -> float:
    """Evolve two data sets side by side; the relative slack of their L1
    contraction: the largest forward rise of the distance between the
    sorted times, over the first distance, or 0.0 when that is 0."""
    ts = sorted(float(t) for t in times)
    snaps_a = solve(initial_a, flux, cfg, ts[-1], ts)
    snaps_b = solve(initial_b, flux, cfg, ts[-1], ts)
    d = [l1_distance(a, b) for (_, a), (_, b) in zip(snaps_a, snaps_b)]
    if d[0] == 0.0:
        return 0.0
    return max(0.0, max(b - a for a, b in zip(d[:-1], d[1:])) / d[0])


def mass_drift_check(initial: GridFunction, flux: FluxModel, cfg: SolverConfig,
                     times: Sequence[float]) -> float:
    """Evolve periodic data; the worst |mass(t) - mass(t0)| per unit time,
    t0 the first of the sorted times."""
    if not isinstance(cfg.boundary, Periodic):
        raise ValueError("mass drift is audited on periodic runs")
    ts = sorted(float(t) for t in times)
    snaps = solve(initial, flux, cfg, ts[-1], ts)
    m0 = periodic_mass(snaps[0][1])
    rates = [abs(periodic_mass(g) - m0) / max(t - ts[0], 1e-30)
             for t, (_, g) in zip(ts[1:], snaps[1:])]
    return max(rates) if rates else 0.0


def health_rows(scenario: Scenario, eps: float, seed: int) -> list:
    """Cheap conservation/contraction audit on coarsened scenario data: the
    rows (name, t, margin, pass) of ``contraction_check`` and
    ``mass_drift_check`` over six times up to the horizon, min(0.5, tau/2),
    which is each row's t."""
    lo, hi = scenario.domain
    rng = np.random.default_rng(seed)
    center = rng.uniform(lo + 0.3 * (hi - lo), lo - 0.7 * (lo - hi))

    def nodes(n: int, *states: GridFunction) -> int:
        # refine a coarse grid only where the data's cell Peclet number exceeds 1
        speed = max(scenario.flux.max_speed(g.values) for g in states)
        return max(n, math.ceil((hi - lo) * speed / eps))

    def bumped(n: int) -> Tuple[GridFunction, GridFunction]:
        data = scenario_grid(scenario, (hi - lo) / n)
        bump = 0.05 * np.exp(-((data.x - center) / (0.05 * (hi - lo))) ** 2)
        return data, data.with_values(data.values + bump)

    data, other = bumped(800)
    n = nodes(800, data, other)
    if n > 800:
        data, other = bumped(n)
    cfg = SolverConfig(eps, Clamped())
    horizon = min(0.5, 0.5 * scenario.tau)
    slack = contraction_check(data, other, scenario.flux, cfg,
                              list(np.linspace(0.0, horizon, 6)))
    rows = [("contraction", horizon, 1e-3 - slack, slack <= 1e-3)]
    mid = float(np.mean(data.values))
    amp = 0.5 * (float(np.max(data.values)) - float(np.min(data.values))) or 1.0

    def periodic(n: int) -> GridFunction:
        xp = lo + (hi - lo) / n * np.arange(n)
        return GridFunction(lo, (hi - lo) / n,
                            mid + 0.3 * amp * np.sin(2.0 * np.pi * (xp - lo) / (hi - lo)))

    per = periodic(nodes(512, periodic(512)))
    drift = mass_drift_check(per, scenario.flux, SolverConfig(eps, Periodic()),
                             list(np.linspace(0.0, horizon, 6)))
    rows.append(("mass-drift", horizon, 1e-10 - drift, drift <= 1e-10))
    return rows


# ---------------------------------------------------------------------------
# named audit suites (shared by the CLI and the acceptance checks)


def suite_cubic_bounds(nt: int = 100, nx: int = 100):
    """Analytic slope/curvature/envelope bounds of the cubic wave on a grid."""
    report = z_bounds_audit(np.linspace(-10.0, -0.5, nt), np.linspace(-50.0, 50.0, nx))
    rows = [(name, 0.0, margin, margin >= -1e-12)
            for name, margin in sorted(report.worst.items())]
    return report, rows


def suite_sandwich(n: float = 16.0, dx: float = 0.02, x_check: float = 40.0,
                   times: Sequence[float] = (-9.0, -4.0, -1.0)):
    """Eternal-wave order and closeness against the cubic wave.

    Checks z <= Z^(n) <= z + 2|t|^{-3/2} + 5 dx on |x| <= x_check for x >= 0
    and the mirrored order on x <= 0.
    """
    wave = eternal_z(n, x_check, dx=dx, snapshot_times=times)
    rows = []
    for t, g in wave:
        diff = g.values - z_root(t, g.x)
        band = 2.0 * abs(t) ** -1.5 + 5.0 * dx
        # signed gap: Z sits above z on the right half, below on the left
        gap = np.where(g.x >= 0.0, diff, -diff)
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


def suite_phase():
    """Staged-settling audit of the step-to-wave relaxation at unit viscosity."""
    dx = 0.05
    half = int(round(30.0 / dx))
    x = dx * np.arange(-half, half + 1)
    data = GridFunction(-half * dx, dx, np.clip(-2.0 * x, -1.0, 1.0))
    report = phase_audit(data, burgers(), 0.25, 0.5, SolverConfig(1.0), interval=(-0.5, 0.5))
    return report, list(report.rows)
