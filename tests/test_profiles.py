"""Viscous profiles: traveling waves, merging data, the eternal wave."""
import numpy as np
import pytest

from shockzoom import (Clamped, GridFunction, MergingTriple, NotLaxError,
                       SolverConfig, TauTooLateError, Window, burgers, eternal_z,
                       merging_initial, profiles, smoothstep, solve, solver,
                       transition_width, traveling_wave, z_root)
from shockzoom.errors import NotOrderedError
from shockzoom.inviscid import _outer_root


def test_wave_matches_tanh_oracle():
    # symmetric quadratic pair: S(x) = -tanh(x/2), derived by separation
    tw = traveling_wave(burgers(), 1.0, -1.0, 20.0, 0.005)
    x = tw.profile.x
    err = np.max(np.abs(tw.profile.values + np.tanh(x / 2.0)))
    assert err <= 1e-8
    assert tw.shock.speed == pytest.approx(0.0, abs=1e-15)
    assert tw.offset == pytest.approx(0.5, abs=1e-15)


def test_wave_matches_logistic_oracle():
    # pair (1, 0): S(x) = 1 / (1 + exp(x/2)), speed 1/2
    tw = traveling_wave(burgers(), 1.0, 0.0, 20.0, 0.005)
    x = tw.profile.x
    err = np.max(np.abs(tw.profile.values - 1.0 / (1.0 + np.exp(x / 2.0))))
    assert err <= 1e-8
    assert tw.shock.speed == pytest.approx(0.5, abs=1e-15)


def test_wave_satisfies_its_ode():
    tw = traveling_wave(burgers(), 1.3, -0.4, 15.0, 0.01)
    assert tw.ode_residual() < 1e-7


def test_wave_call_extends_with_limits():
    tw = traveling_wave(burgers(), 1.0, -1.0, 10.0, 0.01)
    assert tw(-50.0) == 1.0
    assert tw(50.0) == -1.0
    assert tw(0.0) == pytest.approx(0.0, abs=1e-12)


def test_upward_jump_rejected():
    with pytest.raises(NotLaxError):
        traveling_wave(burgers(), -1.0, 1.0, 10.0, 0.01)


def test_transition_width_tanh():
    tw = traveling_wave(burgers(), 1.0, -1.0, 20.0, 0.01)
    # |S| reaches 1 - 2*fraction at x = 2 artanh(1 - 2 fraction)
    expected = 2.0 * np.arctanh(0.98)
    assert transition_width(tw, 0.01) == pytest.approx(expected, abs=0.03)
    assert transition_width(tw, 0.01) > transition_width(tw, 0.05)


def test_smoothstep_values():
    assert smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0
    assert smoothstep(0.5) == 0.5
    assert smoothstep(-3.0) == 0.0
    assert smoothstep(7.0) == 1.0


def make_triple():
    return MergingTriple.from_states(burgers(), 1.0, 0.0, -1.0)


def test_triple_orders_and_speeds():
    triple = make_triple()
    assert triple.lambda1 == pytest.approx(0.5)
    assert triple.lambda2 == pytest.approx(-0.5)
    assert triple.lambda_star == pytest.approx(0.0)
    with pytest.raises(NotOrderedError):
        MergingTriple.from_states(burgers(), -1.0, 0.0, 1.0)
    # both speeds underflow to 0, which their mean cannot separate
    with pytest.raises(ValueError, match="separate"):
        MergingTriple.from_states(burgers(), 1e-300, 0.0, -1e-300)


def make_waves(triple):
    return (traveling_wave(triple.flux, triple.u_minus, triple.u_star, 60.0, 0.02),
            traveling_wave(triple.flux, triple.u_star, triple.u_plus, 60.0, 0.02))


def test_merging_initial_far_fields():
    triple = make_triple()
    grid = GridFunction.from_callable(lambda x: 0.0 * x, -60.0, 60.0, 0.05)
    data = merging_initial(triple, -16.0, grid, make_waves(triple))
    assert abs(data.values[0] - 1.0) < 1e-6
    assert abs(data.values[-1] + 1.0) < 1e-6
    # between the waves the data sits near the middle state
    assert abs(float(data(0.0))) < 0.05


def test_merging_initial_rejects_late_tau():
    triple = make_triple()
    grid = GridFunction.from_callable(lambda x: 0.0 * x, -40.0, 40.0, 0.05)
    waves = make_waves(triple)
    with pytest.raises(TauTooLateError):
        merging_initial(triple, -5.0, grid, waves)
    with pytest.raises(TauTooLateError):
        merging_initial(triple, 1.0, grid, waves)


def test_eternal_wave_is_odd():
    win = Window(-1.5, -0.5, -6.0, 6.0)
    zw = eternal_z(2.0, win, dx=0.05, x_max=12.0, snapshot_times=[-1.5, -0.5])
    for t, g in zw:
        v = g.values
        # the half-line solve, mirrored
        assert np.array_equal(v, -v[::-1])


def _symmetric_eternal_z(n, dx, x_max, times):
    """The eternal wave solved on all of [-xr, xr], both ends clamped."""
    half = round(x_max / dx)
    xr = half * dx
    data = GridFunction(-xr, dx, z_root(-n, dx * np.arange(-half, half + 1)))

    def ends(t):
        r = float(_outer_root(t - n, xr))
        return -r, r

    shifted = [t + n for t in times]
    snaps = solve(data, burgers(), SolverConfig(1.0, Clamped(ends)), shifted[-1], shifted)
    return [(t - n, g) for t, g in snaps]


def _sup_gap(a, b, stride=1):
    """Sup distance of two runs on a's nodes, b's every stride-th."""
    return max(float(np.max(np.abs(ga.values - gb.values[::stride])))
               for (_, ga), (_, gb) in zip(a, b))


def test_half_line_wave_matches_symmetric_solve():
    # t0 = t_first - (t_last - t_first) falls before the launch, so both
    # march fine from t = -n; one run reaches past t = 0
    for n, dx, x_max, times in ((4.0, 0.1, 15.0, [-3.0, -1.0, 1.0]),
                                (2.0, 0.05, 12.0, [-1.5, -0.5])):
        window = Window(times[0], times[-1], -4.0, 4.0)
        half_line = eternal_z(n, window, dx=dx, x_max=x_max, snapshot_times=times)
        full = _symmetric_eternal_z(n, dx, x_max, times)
        assert [t for t, _ in half_line] == [t for t, _ in full]
        assert all(g.x_left == h.x_left and g.n == h.n
                   for (_, g), (_, h) in zip(half_line, full))
        assert _sup_gap(half_line, full) <= 1e-13


def test_coarse_start_moves_z_less_than_halving_dx(monkeypatch):
    # the default zref over the default window2 samples, and the regression
    # configuration of test_formation_zoom_regression
    for n, dx, x_max, window, nt in ((32.0, 0.04, 60.0, Window(-3.0, 1.0, -4.0, 4.0), 17),
                                     (4.0, 0.1, 15.0, Window(-1.0, 0.5, -2.0, 2.0), 3)):
        times = list(window.t_samples(nt))
        strides = []

        def recording(initial, *args, **kwargs):
            strides.append(round(initial.dx / dx, 6))
            return solve(initial, *args, **kwargs)

        monkeypatch.setattr(solver, "solve", recording)
        coarse = eternal_z(n, window, dx=dx, x_max=x_max, snapshot_times=times)
        assert strides == [profiles.ETERNAL_STRIDE, 1]
        monkeypatch.setattr(profiles, "ETERNAL_STRIDE", 1)
        fine = eternal_z(n, window, dx=dx, x_max=x_max, snapshot_times=times)
        finer = eternal_z(n, window, dx=dx / 2, x_max=x_max, snapshot_times=times)
        monkeypatch.undo()
        assert _sup_gap(coarse, fine) < 0.5 * _sup_gap(fine, finer, 2)


def test_eternal_wave_starts_fine_where_coarse_peclet_is_high(monkeypatch):
    strides = []

    def recording(initial, *args, **kwargs):
        strides.append(initial.dx)
        return solve(initial, *args, **kwargs)

    monkeypatch.setattr(solver, "solve", recording)
    window = Window(-3.0, 1.0, -4.0, 4.0)
    times = list(window.t_samples(17))
    # zref.dx = 0.32: at t0 = -7 the clamp |z| = 3.32 would put the coarse
    # cell Peclet number at 2.1, past the solver's limit of 2, where the
    # fine grid's 1.06 is safe
    eternal_z(32.0, window, dx=0.32, x_max=60.0, snapshot_times=times)
    assert strides == [0.32]


def test_eternal_wave_sits_above_cubic():
    win = Window(-1.5, -0.5, -6.0, 6.0)
    zw = eternal_z(2.0, win, dx=0.05, x_max=12.0, snapshot_times=[-1.5, -0.5])
    t, g = zw[-1]
    assert t == -0.5
    z = z_root(t, g.x)
    sel = g.x >= 0.0
    assert float(np.min(g.values[sel] - z[sel])) > -1e-3


def test_eternal_wave_converges_at_second_order():
    # self-convergence: halving dx cuts the gap to the next grid by about 4
    window = Window(-1.0, -1.0, -10.0, 10.0)
    waves = [eternal_z(2.0, window, dx=dx, x_max=10.0, snapshot_times=[-1.0])[-1][1]
             for dx in (0.08, 0.04, 0.02)]
    assert [len(g.values) for g in waves] == [251, 501, 1001]
    # sup differences on the coarse nodes
    gaps = [np.max(np.abs(waves[0].values - waves[1].values[::2])),
            np.max(np.abs(waves[1].values[::2] - waves[2].values[::4]))]
    assert np.log2(gaps[0] / gaps[1]) >= 1.8, gaps


def test_eternal_wave_needs_launch_before_window():
    win = Window(-1.0, -0.5, -4.0, 4.0)
    with pytest.raises(ValueError, match="launch"):
        eternal_z(0.5, win, dx=0.05, x_max=8.0, snapshot_times=[-1.0, -0.5])


# clamp radii half*dx of the eternal waves run by the gate, the CLI and the tests
CLAMP_RADII = [round(x_max / dx) * dx for x_max, dx in
               ((60.0, 0.02), (40.0, 0.02), (60.0, 0.04), (40.0, 0.1),
                (12.0, 0.05), (15.0, 0.1), (10.0, 0.05), (8.0, 0.05))]


def test_outer_root_is_odd_bitwise():
    # the eternal wave clamps its left end to minus the right end's root
    for xr in CLAMP_RADII:
        for t in np.linspace(-64.0, 1.0, 1301):
            right = _outer_root(float(t), xr)
            assert -_outer_root(float(t), -xr) == right, (t, xr)


def test_eternal_wave_evaluates_one_root_per_step(monkeypatch):
    roots = steps = 0
    outer_root, stable_dt = profiles._outer_root, solver.stable_dt

    def counted_root(*args):
        nonlocal roots
        roots += 1
        return outer_root(*args)

    def counted_dt(*args):
        nonlocal steps
        steps += 1
        return stable_dt(*args)

    monkeypatch.setattr(profiles, "_outer_root", counted_root)
    monkeypatch.setattr(solver, "stable_dt", counted_dt)
    eternal_z(2.0, Window(-1.5, -1.0, -4.0, 4.0), dx=0.1, x_max=8.0,
              snapshot_times=[-1.5, -1.0])
    assert steps > 0
    assert roots == steps
