"""Experiment-layer plumbing: health checks, mesh rules, audit suites."""
import math

import numpy as np
import pytest

from shockzoom import (Clamped, ConfigError, GridFunction, Periodic, RescaleFrame,
                       SnapshotInterpolant, SolverConfig, Window, burgers,
                       burgers_plus_linear, build_scenario, exact_merging_wave,
                       solve, trapezoid)
from shockzoom import experiments, solver
from shockzoom.experiments import (COARSE_PECLET, REACH_DIFFUSION_LENGTHS, SHIFT_DY,
                                   SHIFT_LATTICE, SHIFT_RANGE, SHIFT_TIMES, ZOOM_STAGES, _zoom_field, contraction_check,
                                   formation_zoom, kuznetsov_sweep, mass_drift_check,
                                   merging_surrogate, merging_zoom, refined_dx, scenario_grid,
                                   single_shock_zoom, suite_cubic_bounds,
                                   suite_oleinik, zoom_frame)
from shockzoom.scenarios import SCENARIOS


def test_refined_dx_scaling():
    # eps/divisor at the coarsest viscosity, then an extra sqrt factor
    assert refined_dx(0.04, 0.04) == pytest.approx(0.005)
    assert refined_dx(0.01, 0.04) == pytest.approx(0.01 / 8.0 * 0.5)
    assert refined_dx(0.04, 0.04, base_divisor=16.0) == pytest.approx(0.0025)


def test_scenario_grid_covers_domain():
    scen = build_scenario("theorem1-single", burgers())
    g = scenario_grid(scen, 0.05)
    lo, hi = scen.domain
    assert g.x_left == pytest.approx(lo)
    assert g.x_right == pytest.approx(hi, abs=0.05)
    assert float(g.values[0]) == pytest.approx(1.0, abs=1e-10)
    assert float(g.values[-1]) == pytest.approx(-1.0, abs=1e-10)


def test_data_speed_peaks_at_the_grid_ends():
    # _zoom_field reads max|f'(u0)| at the two end nodes of scenario_grid,
    # which is exact only for monotone data; data that peak inside fail here
    cases = [build_scenario(sid, burgers()) for sid in SCENARIOS]
    cases.append(build_scenario("theorem2-formation", burgers_plus_linear(0.5),
                                amplitude=2.0))
    for scen in cases:
        for dx in (0.05, 0.0123, 0.004, 0.04 * 0.004 ** 0.75):
            g = scenario_grid(scen, dx)
            ends = g.values[[0, -1]]
            assert scen.flux.max_speed(ends) == scen.flux.max_speed(g.values), (scen.id, dx)


def _stub_solve(monkeypatch, scales):
    """Replace the solver by one that returns, at the sorted times it is
    asked for, the data's values times scales[k] at the k-th time."""
    def fake(data, flux, cfg, t_end, times):
        return [(t, data.with_values(data.values * scale))
                for t, scale in zip(sorted(times), scales)]
    monkeypatch.setattr(experiments, "solve", fake)


def test_contraction_check_on_periodic_pair(monkeypatch):
    n = 128
    dx = 2.0 * np.pi / n
    x = dx * np.arange(n)
    a = GridFunction(0.0, dx, np.sin(x))
    b = GridFunction(0.0, dx, np.sin(x) + 0.05 * np.sin(2.0 * x))
    cfg = SolverConfig(0.5, Periodic())
    # a contracting pair: the distance never rises
    assert 0.0 <= contraction_check(a, b, burgers(), cfg, [0.0, 0.2, 0.4]) <= 1e-12
    # identical data start 0 apart: the zero-start branch, exactly 0
    assert contraction_check(a, a, burgers(), cfg, [0.0, 0.2, 0.4]) == 0.0
    # distances 1.0, 0.5, 0.8 (zeros against ones scaled, on two nodes 1
    # apart): the largest forward rise, 0.3, over the first distance, 1.0
    pair = GridFunction(0.0, 1.0, np.zeros(2)), GridFunction(0.0, 1.0, np.ones(2))
    _stub_solve(monkeypatch, [1.0, 0.5, 0.8])
    slack = contraction_check(*pair, burgers(), cfg, [0.4, 0.0, 0.2])
    assert slack == pytest.approx(0.3, rel=1e-15)


def test_mass_drift_check_periodic(monkeypatch):
    n = 128
    dx = 2.0 * np.pi / n
    x = dx * np.arange(n)
    g = GridFunction(0.0, dx, 0.2 + np.sin(x))
    cfg = SolverConfig(0.3, Periodic())
    assert mass_drift_check(g, burgers(), cfg, [0.0, 0.5, 1.0]) < 1e-13
    with pytest.raises(ValueError, match="periodic"):
        mass_drift_check(g, burgers(), SolverConfig(0.3, Clamped()), [0.0, 1.0])
    # masses 0, 0.25 and 0.125 (ones scaled, on two nodes 1/2 apart) at the
    # sorted times 1, 1.5 and 3: drift rates 0.25/0.5 and 0.125/2, the worst 0.5
    unit = GridFunction(0.0, 0.5, np.ones(2))
    _stub_solve(monkeypatch, [0.0, 0.25, 0.125])
    assert mass_drift_check(unit, burgers(), cfg, [3.0, 1.0, 1.5]) == 0.5


def test_cubic_bounds_suite_clean():
    report, rows = suite_cubic_bounds(nt=20, nx=40)
    assert report.violations == 0
    assert all(r[3] for r in rows)


def test_oleinik_suite_positive_slope_decay():
    report, rows = suite_oleinik(n_nodes=256)
    assert report.violations == 0
    assert all(r[3] for r in rows)


def test_sweep_stands_off_a_moving_shock():
    # burgers-plus-linear at b = 0.5 moves the shock of (1, -1) to x = 0.5 t;
    # the pointwise band must stand off it there, since a band that kept the
    # shock's points would read errors of order the jump, 2
    scen = build_scenario("theorem1-single", burgers_plus_linear(0.5))
    report = kuznetsov_sweep(scen, (0.04, 0.02, 0.01), n_nodes=1024)
    assert all(err < 1e-3 for err, _ in report.pointwise), report.pointwise


# Coarse versions of the three zooms, about two seconds together.  Their
# outputs are pinned to 1e-12 so that any change to the frame arithmetic,
# the sampling or the shift fits shows here, not only in the slow gate.


def _pinned(outcomes, expected):
    got = [(o.eps, o.sup_error, o.l1_error, o.shift, o.shift_t) for o in outcomes]
    assert len(got) == len(expected)
    for row, want in zip(got, expected):
        assert row == pytest.approx(want, rel=1e-12)


def test_single_shock_zoom_regression():
    scen = build_scenario("theorem1-single", burgers())
    outcomes = single_shock_zoom(scen, (0.08, 0.04), window=Window(-2.0, 2.0, -4.0, 4.0),
                                 nt=5, ny=81, base_divisor=4.0)
    _pinned(outcomes, [
        (0.08, 0.005718736679536929, 0.05835791912329614, 5.329070518200751e-15, 0.0),
        (0.04, 0.0010681210712590872, 0.011824967655463814, -4.15371174904422e-05, 0.0),
    ])


def test_merging_zoom_regression():
    scen = build_scenario("theorem1-merging", burgers())
    wave, cauchy = merging_surrogate(scen, taus=(-14.0, -16.0),
                                     window=Window(-2.25, 2.25, -3.25, 3.25),
                                     comparison_time=-3.0, dx=0.1)
    assert cauchy.distances == pytest.approx((0.012906645532659756,), rel=1e-12)
    outcomes = merging_zoom(scen, (0.08, 0.04), wave, window=Window(-1.0, 1.0, -2.0, 2.0),
                            nt=3, ny=41, base_divisor=4.0)
    _pinned(outcomes, [
        (0.08, 0.021359978509083333, 0.09236164284966134, 0.009406976085400228, 1.0),
        (0.04, 0.00277154067609231, 0.009969416715997968, 0.006315686132863524, 0.453125),
    ])



def test_merging_surrogate_converges_to_the_exact_wave():
    # the judge of the default surrogate (restarts at -20, -30, -40, its
    # window padded to +-6.25 as the merging run pads it): on the run's
    # 21 x 401 samples of [-5, 5]^2 it meets the Cole-Hopf wave within
    # 3.0e-4 at dx 0.1 and 7.8e-5 at dx 0.05, a second-order fall
    scen = build_scenario("theorem1-merging", burgers())
    exact = exact_merging_wave(scen.merging)
    window = Window(-5.0, 5.0, -5.0, 5.0)
    s_grid, y_grid = window.t_samples(21), window.x_samples(401)
    errors = []
    for dx in (0.1, 0.05):
        wave, _ = merging_surrogate(scen, taus=(-20.0, -30.0, -40.0),
                                    window=Window(-6.25, 6.25, -6.25, 6.25),
                                    comparison_time=-10.0, dx=dx)
        errors.append(float(np.max(np.abs(wave(s_grid, y_grid) - exact(s_grid, y_grid)))))
    assert errors[1] < 1e-4, errors
    assert errors[0] / errors[1] >= 3.0, errors


class _RecordingWave:
    """Forwards to an interpolant and keeps the (t, x) of every call."""

    def __init__(self, interp):
        self.interp = interp
        self.calls = []

    def __call__(self, t, x):
        self.calls.append((np.asarray(t), np.asarray(x)))
        return self.interp(t, x)


def _scalar_search(field, s_grid, wave, y_grid):
    """The merging shift search, one scalar interpolant call per row.

    Returns the coarse winner, the fine time scan, the final (dt, dy) and
    its space-time L1 mismatch.
    """
    def l1(dt, dy):
        per_row = [trapezoid(np.abs(row - wave(s + dt, y_grid + dy)), y_grid[1] - y_grid[0])
                   for s, row in zip(s_grid, field)]
        return trapezoid(np.array(per_row), s_grid[1] - s_grid[0])

    def first_least(cands):
        return cands[int(np.argmin([l1(dt, dy) for dt, dy in cands]))]

    n_dt, n_dy = round(SHIFT_RANGE / SHIFT_LATTICE), round(SHIFT_RANGE / SHIFT_DY)
    coarse = first_least([(float(dt), float(dy))
                          for dt in SHIFT_LATTICE * np.arange(-n_dt, n_dt + 1)
                          for dy in SHIFT_DY * np.arange(-n_dy, n_dy + 1)])
    fine = [float(dt) for dt in coarse[0] + (SHIFT_LATTICE / 8.0) * np.arange(-8, 9)
            if abs(dt) <= SHIFT_RANGE]
    bt, by = first_least([(dt, coarse[1]) for dt in fine])
    lo, mid, hi = l1(bt, by - SHIFT_DY), l1(bt, by), l1(bt, by + SHIFT_DY)
    denom = lo - 2.0 * mid + hi
    if denom > 0.0:
        bt, by = first_least([(bt, by), (bt, by + 0.5 * SHIFT_DY * (lo - hi) / denom)])
    return coarse, fine, (bt, by), l1(bt, by)


def _check_against_scalar_search(scen, wave, window, nt, eps_list):
    """Run ``merging_zoom`` through a recording wave and hold each viscosity's
    outcome, bit for bit, against ``_scalar_search`` on the same field."""
    s_grid, y_grid = window.t_samples(nt), window.x_samples(41)
    recording = _RecordingWave(wave)
    outcomes = merging_zoom(scen, eps_list, recording, window=window,
                            nt=nt, ny=41, base_divisor=4.0)
    # one lattice pass for every viscosity, one call per dy column at the
    # distinct shifted times; then each viscosity's fine scan, the only
    # call with a candidate axis, and at most five calls of its refinement
    n_dy = round(SHIFT_RANGE / SHIFT_DY)
    dy_cands = SHIFT_DY * np.arange(-n_dy, n_dy + 1)
    times = np.unique(np.add.outer(SHIFT_TIMES, s_grid))
    lattice, rest = recording.calls[:len(dy_cands)], recording.calls[len(dy_cands):]
    for (t, x), dy in zip(lattice, dy_cands):
        assert np.array_equal(t, times)
        assert np.array_equal(x, y_grid + dy)
    fine_calls = [(t, x) for t, x in rest if t.ndim == 2]
    assert len(fine_calls) == len(eps_list)
    assert len(rest) <= 6 * len(eps_list)
    for o, (t, x) in zip(outcomes, fine_calls):
        frame = RescaleFrame.type1(scen.tau, scen.xi, o.eps)
        field = _zoom_field(scen, o.eps, refined_dx(o.eps, max(eps_list), 4.0), frame,
                            s_grid, y_grid)
        coarse, fine, (bt, by), l1 = _scalar_search(field, s_grid, wave, y_grid)
        # the fine scan is laid around the coarse winner, so its one call,
        # a candidate axis of 9 to 17 time shifts, pins it
        assert 9 <= len(fine) <= 17
        assert np.array_equal(t, np.add.outer(fine, s_grid))
        assert np.array_equal(x, y_grid + coarse[1])
        assert (o.shift_t, o.shift, o.l1_error) == (bt, by, l1)
    return times


def test_merging_search_matches_scalar_search():
    # the test_merging_zoom_regression setup, against an exhaustive search
    # that loops over candidates and slices; the window's time step 1 is a
    # multiple of SHIFT_LATTICE, so 33 distinct times serve 17 x 3 shifted ones
    scen = build_scenario("theorem1-merging", burgers())
    wave, _ = merging_surrogate(scen, taus=(-14.0, -16.0),
                                window=Window(-2.25, 2.25, -3.25, 3.25),
                                comparison_time=-3.0, dx=0.1)
    times = _check_against_scalar_search(scen, wave, Window(-1.0, 1.0, -2.0, 2.0), 3,
                                         (0.08, 0.04))
    assert len(times) == 33


def _one_time_per_call(wave):
    """``wave`` evaluated at one time per call, so that no value depends on
    the other times of a call: the exact wave's matrix product can round a
    row differently, by an ulp or two, with the number of rows it is
    computed with, which no search that batches times can match bit for bit."""
    def at(t, x):
        t = np.asarray(t, dtype=float)
        rows = np.array([wave(s, x) for s in t.reshape(-1)])
        return rows.reshape(t.shape + np.shape(x))
    return at


def test_merging_search_without_shared_times_matches_scalar_search():
    # times 0.6 apart, so no two differ by a multiple of SHIFT_LATTICE and
    # no shifted time repeats (on [-1, 1] at nt = 4, -1 + 1 = 1 - 1 would):
    # the search still matches the exhaustive one bit for bit, on the exact
    # wave and on the surrogate's interpolant
    scen = build_scenario("theorem1-merging", burgers())
    surrogate, _ = merging_surrogate(scen, taus=(-14.0, -16.0),
                                     window=Window(-2.25, 2.25, -3.25, 3.25),
                                     comparison_time=-3.0, dx=0.1)
    for wave in (_one_time_per_call(exact_merging_wave(scen.merging)), surrogate):
        times = _check_against_scalar_search(scen, wave, Window(-0.9, 0.9, -2.0, 2.0), 4,
                                             (0.08, 0.04))
        assert len(times) == 4 * len(SHIFT_TIMES)


def test_merging_search_takes_the_first_least_candidate():
    # against a zero wave every candidate has the same L1, bit for bit, so
    # each stage keeps its first candidate: the lattice corner (-1, -1)
    scen = build_scenario("theorem1-merging", burgers())
    zero = GridFunction(-3.25, 0.1, np.zeros(66))
    wave = SnapshotInterpolant([(-2.25, zero), (2.25, zero)])
    (o,) = merging_zoom(scen, (0.08,), wave, window=Window(-1.0, 1.0, -2.0, 2.0),
                        nt=3, ny=41, base_divisor=4.0)
    assert (o.shift_t, o.shift) == (-SHIFT_RANGE, -SHIFT_RANGE)


def test_formation_zoom_regression():
    # sigma = 2^(-1/3) and lam = 0.5 exercise the normalised type-2 frame
    scen = build_scenario("theorem2-formation", burgers_plus_linear(0.5), amplitude=2.0)
    window = Window(-1.0, 0.5, -2.0, 2.0)
    outcomes = formation_zoom(scen, (0.04, 0.02), 4.0, window=window,
                              nt=3, ny=41, dx_hat=0.1)
    _pinned(outcomes, [
        (0.04, 0.012643830628607411, 0.048956037348334265, 0.0, 0.0),
        (0.02, 0.020976333498858746, 0.08299255213702225, 0.0, 0.0),
    ])


def test_one_time_zooms_integrate_over_y(monkeypatch):
    # a window of one time, through each zoom: L1 is the trapezoid integral
    # over y of |row - model| and sup its max, for every candidate the
    # merging search holds at once, one per time shift of its lattice and
    # of its fine scan
    calls = []
    mismatch = experiments._mismatch

    def recording(field, model, s_grid, y_grid):
        sup, l1 = mismatch(field, model, s_grid, y_grid)
        calls.append((field, model, sup, l1))
        return sup, l1

    monkeypatch.setattr(experiments, "_mismatch", recording)
    single = build_scenario("theorem1-single", burgers())
    merging = build_scenario("theorem1-merging", burgers())
    formation = build_scenario("theorem2-formation", burgers_plus_linear(0.5), amplitude=2.0)
    wave, _ = merging_surrogate(merging, taus=(-14.0, -16.0),
                                window=Window(-2.25, 2.25, -3.25, 3.25),
                                comparison_time=-3.0, dx=0.1)
    z_window = Window(-1.0, 0.5, -2.0, 2.0)
    # (window, ny, zoom, the candidate axes of its models, the fine scan's
    # among them)
    fine = {(k,) for k in range(9, 18)}
    cases = [
        (Window(-2.0, 2.0, -4.0, 4.0), 81, lambda w: single_shock_zoom(
            single, (0.08,), window=w, nt=1, ny=81, base_divisor=4.0), [{()}]),
        (Window(-1.0, 1.0, -2.0, 2.0), 41, lambda w: merging_zoom(
            merging, (0.08,), wave, window=w, nt=1, ny=41, base_divisor=4.0),
         [{(), (len(SHIFT_TIMES),), k} for k in fine]),
        (z_window, 41, lambda w: formation_zoom(
            formation, (0.04,), 4.0, window=w, nt=1, ny=41, dx_hat=0.1), [{()}]),
    ]
    for window, ny, zoom, axes in cases:
        calls.clear()
        (outcome,) = zoom(window)
        y_grid = window.x_samples(ny)
        for field, model, sup, l1 in calls:
            assert field.shape == (1, ny)
            rows = np.abs(field[0] - model[..., 0, :])
            np.testing.assert_allclose(l1, np.trapezoid(rows, y_grid, axis=-1),
                                       rtol=1e-12, atol=0.0)
            assert np.array_equal(sup, rows.max(axis=-1))
        assert (outcome.sup_error, outcome.l1_error) == tuple(map(float, calls[-1][2:]))
        assert {model.shape[:-2] for _, model, _, _ in calls} in axes


def test_zoom_sample_bound_counts_the_merging_shifts(monkeypatch):
    # nt x ny = 10^8 samples fit the bound once, but not once per time shift
    # and per viscosity of the merging search; planning alone solves nothing
    def no_solve(*args, **kwargs):
        raise AssertionError("solve called")

    for module in (experiments, solver):
        monkeypatch.setattr(module, "solve", no_solve)
    nt, ny = 100, 10**6
    assert nt * ny <= solver.MAX_SNAPSHOT_VALUES < len(SHIFT_TIMES) * nt * ny
    single = build_scenario("theorem1-single", burgers())
    s_grid, y_grid, _ = experiments.zooms(single, (0.04,), Window(-2.0, 2.0, -4.0, 4.0),
                                          nt, ny)
    assert (s_grid.size, y_grid.size) == (nt, ny)
    merging = build_scenario("theorem1-merging", burgers())
    with pytest.raises(ConfigError, match="18 x 100 x 1000000 zoom samples exceed"):
        experiments.zooms(merging, (0.04,), Window(-1.0, 1.0, -2.0, 2.0), nt, ny)


def test_zoom_local_solve_matches_full_solve(monkeypatch):
    # every stage of a zoom's march, against one full-domain solve at the
    # zoom's dx that lands on the same stage times
    stages = []

    def recording(initial, flux, cfg, t_final, snapshot_times):
        stages.append((initial, t_final))
        return solve(initial, flux, cfg, t_final, snapshot_times)

    monkeypatch.setattr(experiments, "solve", recording)

    def gap(scen, eps, dx, window, nt, ny):
        """Sup gap and reference sup of the rows, each stage's stride, and
        whether the last stage dropped nodes."""
        frame = zoom_frame(scen, eps)
        s_grid, y_grid = window.t_samples(nt), window.x_samples(ny)
        stages.clear()
        local = _zoom_field(scen, eps, dx, frame, s_grid, y_grid)
        full = scenario_grid(scen, dx)
        strides, ends, inside = [], [], (0, full.n - 1)
        for g, duration in stages:
            # a node offset and a stride into the full grid, inside the last cut
            k, m = round((g.x_left - full.x_left) / dx), round(g.dx / dx)
            assert inside[0] <= k and k + m * (g.n - 1) <= inside[1], (inside, k, m, g.n)
            # on the grid's own stride-m lattice, counted from its left end
            assert k % m == 0, (k, m)
            np.testing.assert_allclose(g.x, full.x[k:k + m * (g.n - 1) + 1:m],
                                       rtol=0.0, atol=1e-12)
            inside = (k, k + m * (g.n - 1))
            strides.append(m)
            ends.append((ends[-1] if ends else 0.0) + duration)
        t_rows = [float(frame.to_physical(s, 0.0)[0]) for s in s_grid]
        snaps = dict(solve(full, scen.flux, SolverConfig(eps, Clamped()), max(t_rows),
                           t_rows + ends[:-1]))
        # each row read off the full solve's snapshot at its time, at the
        # frame's physical points
        ref = []
        for s, t in zip(s_grid, t_rows):
            _, x = frame.to_physical(s, y_grid)
            ref.append(frame.rescale_values(np.interp(x, full.x, snaps[t].values)))
        ref = np.array(ref)
        cut = stages[-1][0].n < full.n
        return float(np.max(np.abs(local - ref))), float(np.max(np.abs(ref))), strides, cut

    # the single-shock and merging regression configurations, and a single
    # shock at an eps small enough for the march to drop nodes from stage 2;
    # the data's flat ends leave every first cut shorter than the grid
    single = build_scenario("theorem1-single", burgers())
    merging = build_scenario("theorem1-merging", burgers())
    type1 = [(single, eps, Window(-2.0, 2.0, -4.0, 4.0), 5, 81) for eps in (0.08, 0.04, 0.01)]
    type1 += [(merging, eps, Window(-1.0, 1.0, -2.0, 2.0), 3, 41) for eps in (0.08, 0.04)]
    for scen, eps, window, nt, ny in type1:
        dx = refined_dx(eps, 0.08, 4.0)
        sup_gap, sup_ref, strides, cut = gap(scen, eps, dx, window, nt, ny)
        assert sup_gap <= 1e-9 * sup_ref, (scen.id, eps, sup_gap)
        assert strides == [1] * ZOOM_STAGES and cut, (scen.id, eps)
        assert stages[0][0].n < scenario_grid(scen, dx).n, (scen.id, eps, stages[0][0].n)

    # the formation regression scenario at eps = 0.01, dx_hat = 0.04, where
    # the cut drops nodes and the coarse start engages: the stages before t0
    # march at stride m and one more starts at t0
    scen = build_scenario("theorem2-formation", burgers_plus_linear(0.5), amplitude=2.0)
    window = Window(-1.0, 0.5, -2.0, 2.0)
    eps, dx = 0.01, 0.04 * 0.01 ** 0.75
    (outcome,) = formation_zoom(scen, (eps,), 4.0, window=window, nt=3, ny=41,
                                dx_hat=0.04)
    sup_gap, _, strides, cut = gap(scen, eps, dx, window, 3, 41)
    speed = scen.flux.max_speed(scenario_grid(scen, dx).values)
    m = int(COARSE_PECLET * eps / (speed * dx))
    coarse = strides.count(m)
    assert m >= 2 and coarse >= 1 and cut, (m, strides)
    assert strides == [m] * coarse + [1] * (ZOOM_STAGES + 1 - coarse), (m, strides)
    assert sup_gap < 0.1 * outcome.sup_error, (sup_gap, outcome.sup_error)
    # a grid of 783 cells, no multiple of m = 2, whose cone covers it all:
    # the first cut drops the clamped plateau's flat ends, 5 coarse nodes
    # at each, and stays on the grid's own lattice
    scen = build_scenario("theorem2-formation", burgers(), amplitude=1.0)
    eps, dx = 0.04, 0.1 * 0.04 ** 0.75
    (outcome,) = formation_zoom(scen, (eps,), 4.0, window=window, nt=3, ny=41, dx_hat=0.1)
    sup_gap, _, strides, cut = gap(scen, eps, dx, window, 3, 41)
    first, full = stages[0][0], scenario_grid(scen, dx)
    assert full.n == 784 and strides[0] == 2 and cut, (full.n, strides)
    assert round((first.x_left - full.x_left) / dx) == 10 and first.n == 382, first
    assert sup_gap < 0.1 * outcome.sup_error, (sup_gap, outcome.sup_error)
    # at eps = 0.08 the cone reaches past the plateau, so the first cut spans
    # the grid, whose 465 cells are no multiple of m = 2 either: the coarse
    # start still engages, on the grid's own lattice
    eps2, dx2 = 0.08, 0.1 * 0.08 ** 0.75
    (outcome2,) = formation_zoom(scen, (eps2,), 4.0, window=window, nt=3, ny=41, dx_hat=0.1)
    sup_gap, _, strides, cut = gap(scen, eps2, dx2, window, 3, 41)
    first, full = stages[0][0], scenario_grid(scen, dx2)
    assert full.n == 466 and strides[0] == 2 and cut, (full.n, strides)
    assert first.x_left == full.x_left and first.n == 465 // 2 + 1, first
    assert sup_gap < 0.1 * outcome2.sup_error, (sup_gap, outcome2.sup_error)
    # a window of one time leaves the fine march no lead, so it starts fine;
    # sampled straight off the coarse start's prolongation, its gap was
    # 1.3e-4 of the reference sup, and the staged cuts leave 3.0e-6
    for window, nt in ((Window(-1.0, 0.5, -2.0, 2.0), 1), (Window(-1.0, -1.0, -2.0, 2.0), 3)):
        sup_gap, sup_ref, strides, cut = gap(scen, eps, dx, window, nt, 41)
        assert strides == [1] * ZOOM_STAGES and cut, strides
        assert sup_gap <= 1e-5 * sup_ref, (sup_gap, sup_ref)


def test_zoom_cut_drops_the_datas_flat_ends(monkeypatch):
    # the first stage marches only where its state can change: no march,
    # the first cut is read off the first solve's input
    class FirstStage(Exception):
        pass

    first = []

    def record(initial, flux, cfg, t_final, snapshot_times):
        first.append((initial, t_final))
        raise FirstStage

    monkeypatch.setattr(experiments, "solve", record)

    def first_cut(scen, eps, dx, window, nt, ny):
        first.clear()
        with pytest.raises(FirstStage):
            _zoom_field(scen, eps, dx, zoom_frame(scen, eps), window.t_samples(nt),
                        window.x_samples(ny))
        return first[0]

    # the default merging zoom at eps = 0.01: the window's cone holds 6,801
    # of the grid's 8,001 nodes, and the plateaus at 1 and -1 are dropped
    # but for the nodes one stage's reach spans next to the varying data
    scen = build_scenario("theorem1-merging", burgers())
    eps, dx = 0.01, refined_dx(0.01, 0.04)
    cut, duration = first_cut(scen, eps, dx, Window(-5.0, 5.0, -5.0, 5.0), 21, 401)
    data = scenario_grid(scen, dx)
    assert data.n == 8001 and cut.n == 3771, (data.n, cut.n)
    k = round((cut.x_left - data.x_left) / dx)
    np.testing.assert_array_equal(cut.values, data.values[k:k + cut.n])
    speed = scen.flux.max_speed(data.values[[0, -1]])
    keep = math.ceil((speed * duration + REACH_DIFFUSION_LENGTHS * math.sqrt(eps * duration))
                     / dx)
    left = np.flatnonzero(data.values != data.values[0])[0]
    right = np.flatnonzero(data.values != data.values[-1])[-1]
    assert (k, k + cut.n - 1) == (left - keep, right + keep), (k, cut.n, left, right, keep)
    # control: the default formation zoom at eps = 0.01, whose cone holds no
    # flat node, keeps its whole first cut of 1,268 coarse nodes
    scen = build_scenario("theorem2-formation", burgers())
    cut, _ = first_cut(scen, 0.01, 0.04 * 0.01 ** 0.75, Window(-3.0, 1.0, -4.0, 4.0), 17, 321)
    assert cut.n == 1268, cut.n
    assert cut.values[1] != cut.values[0] and cut.values[-2] != cut.values[-1]


def test_zoom_march_is_step_capped_as_a_whole(monkeypatch):
    # each stage of the march takes an eighth of its steps, so the cap is
    # checked on all of it, before the first stage's solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solve called")

    scen = build_scenario("theorem1-single", burgers())
    eps, window = 0.04, Window(-2.0, 2.0, -4.0, 4.0)
    dx = refined_dx(eps, 0.08, 4.0)
    frame = zoom_frame(scen, eps)
    t_end = float(frame.to_physical(window.t_max, 0.0)[0])
    speed = scen.flux.max_speed(scenario_grid(scen, dx).values)
    steps = t_end * speed / (SolverConfig.cfl_advection * dx)
    monkeypatch.setattr(experiments, "solve", no_solve)
    monkeypatch.setattr(solver, "MAX_STEPS", int(steps / 2))
    with pytest.raises(ConfigError, match="steps"):
        _zoom_field(scen, eps, dx, frame, window.t_samples(5), window.x_samples(81))


def test_oleinik_suite_regression():
    report, _ = suite_oleinik(n_nodes=128)
    assert report.violations == 0
    assert report.worst_margin == pytest.approx(0.4747617768396703, rel=1e-12)
    expected = [(0.5, 0.502535223264058, 2.098174770424681, 1.5956395471606233),
                (1.0, 0.31012390512967536, 1.0981747704246811, 0.7880508652950058),
                (2.0, 0.12341299358501073, 0.598174770424681, 0.4747617768396703)]
    for row, want in zip(report.rows, expected):
        assert row == pytest.approx(want, rel=1e-12)
