"""Viscous profiles: traveling waves, merging data, the eternal wave."""
import warnings

import numpy as np
import pytest

from shockzoom import (Clamped, ConfigError, GridFunction, MergingTriple,
                       SolverConfig, Window, burgers,
                       burgers_plus_linear, eternal_z, eternal_z_limit,
                       exact_merging_wave, merging_initial,
                       quartic_perturbed, smoothstep, solve, transition_width,
                       traveling_wave, z_root)
from shockzoom.inviscid import _outer_root


def test_wave_matches_tanh_oracle():
    # symmetric quadratic pair: S(x) = -tanh(x/2), derived by separation
    tw = traveling_wave(burgers(), 1.0, -1.0, 20.0, 0.005)
    x = tw.profile.x
    err = np.max(np.abs(tw.profile.values + np.tanh(x / 2.0)))
    assert err <= 1e-8
    assert tw.shock.speed == pytest.approx(0.0, abs=1e-15)
    assert tw.shock.offset == pytest.approx(0.5, abs=1e-15)


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
    with pytest.raises(ConfigError, match="needs u_minus > u_plus"):
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
    with pytest.raises(ConfigError, match="need u_minus > u_star > u_plus"):
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
    assert abs(float(np.interp(0.0, data.x, data.values))) < 0.05


def test_merging_initial_rejects_late_tau():
    triple = make_triple()
    grid = GridFunction.from_callable(lambda x: 0.0 * x, -40.0, 40.0, 0.05)
    waves = make_waves(triple)
    with pytest.raises(ConfigError, match="tau=-5.0 puts the waves"):
        merging_initial(triple, -5.0, grid, waves)
    with pytest.raises(ConfigError, match="tau=1.0 puts the waves"):
        merging_initial(triple, 1.0, grid, waves)


def test_exact_merging_wave_shape_and_broadcasting():
    wave = exact_merging_wave(make_triple())
    x = np.linspace(-5.0, 5.0, 11)
    t = np.array([[-1.0, 0.0, 2.0], [3.0, 4.0, 5.0]])
    grid = wave(t, x)
    assert grid.shape == (2, 3, 11)
    assert wave(0.5, x).shape == (11,)
    assert wave(0.5, 0.25).shape == ()
    # every (t, x) pair is the same point however the call is shaped
    np.testing.assert_allclose(grid[1, 2], wave(5.0, x), rtol=0.0, atol=1e-14)
    assert float(wave(5.0, x[3])) == pytest.approx(grid[1, 2, 3], rel=0.0, abs=1e-14)
    # the closed form of the default states (1, 0, -1)
    e = np.exp(t[..., None] / 4.0)
    want = -2.0 * np.sinh(x / 2.0) * e / (1.0 + 2.0 * np.cosh(x / 2.0) * e)
    assert np.max(np.abs(grid - want)) <= 1e-14


@pytest.mark.parametrize("flux", [burgers(), burgers_plus_linear(1.0), quartic_perturbed(0.0)],
                         ids=lambda f: f.name)
def test_exact_merging_wave_solves_unit_viscosity_equation(flux):
    # U_T + f(U)_X = U_XX by centred differences at h = 1e-3, whose own
    # error is about 1e-8 here
    triple = MergingTriple.from_states(flux, 1.2, 0.1, -0.9)
    wave = exact_merging_wave(triple)
    h = 1e-3
    t = np.linspace(-6.0, 6.0, 25)
    # both shocks, at lambda_i t, stay on x for every t
    x = np.linspace(-12.0, 12.0, 241)
    u = wave(t, x)
    u_t = (wave(t + h, x) - wave(t - h, x)) / (2.0 * h)
    f_x = (flux.f(wave(t, x + h)) - flux.f(wave(t, x - h))) / (2.0 * h)
    u_xx = (wave(t, x + h) - 2.0 * u + wave(t, x - h)) / h ** 2
    assert np.max(np.abs(u_t + f_x - u_xx)) <= 1e-6


def test_exact_merging_wave_far_fields():
    triple = make_triple()
    wave = exact_merging_wave(triple)
    # before the merger: the outer states outside the fan, the middle one
    # between the two shocks
    far = wave(-40.0, np.array([-200.0, 0.0, 200.0]))
    assert far == pytest.approx([1.0, 0.0, -1.0], abs=1e-15)
    # after it: one shock of the outer states
    assert wave(40.0, np.array([-200.0, 200.0])) == pytest.approx([1.0, -1.0], abs=1e-15)


def test_exact_merging_wave_shocks_run_at_their_speeds():
    # burgers-linear at b = 1: both shocks shift by b, and each sits where
    # the wave crosses the mean of its two states, at lambda_i T, up to the
    # third state's weight, exp(T/2) of the two others there
    triple = MergingTriple.from_states(burgers_plus_linear(1.0), 1.0, 0.0, -1.0)
    assert (triple.lambda1, triple.lambda2) == pytest.approx((1.5, 0.5))
    wave = exact_merging_wave(triple)
    for t in (-80.0, -70.0, -60.0):
        for speed, mid in ((triple.lambda1, 0.5), (triple.lambda2, -0.5)):
            assert float(wave(t, speed * t)) == pytest.approx(mid, abs=1e-12), (t, speed)


def test_exact_merging_wave_is_finite_far_out():
    # the product of the two factors underflows where their maxima fall on
    # different states; those points are summed by a log-sum-exp
    wave = exact_merging_wave(make_triple())
    far = np.array([-1e4, -1e3, -1.0, 0.0, 1.0, 1e3, 1e4])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals = wave(far, far)
    assert np.all(np.isfinite(vals))
    assert np.all(np.abs(vals) <= 1.0)
    # inside the fan at T = -1e4 the middle state, outside it the outer ones
    assert vals[0] == pytest.approx([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0], abs=1e-12)


def test_exact_merging_wave_needs_constant_curvature():
    triple = MergingTriple.from_states(quartic_perturbed(0.05), 1.0, 0.0, -1.0)
    with pytest.raises(ValueError, match="constant"):
        exact_merging_wave(triple)


def test_eternal_wave_is_odd():
    zw = eternal_z(2.0, 6.0, dx=0.05, snapshot_times=[-1.5, -0.5])
    for t, g in zw:
        v = g.values
        # z_exact sums each |x| once
        assert np.array_equal(v, -v[::-1])


def test_eternal_wave_sits_above_cubic():
    zw = eternal_z(2.0, 6.0, dx=0.05, snapshot_times=[-1.5, -0.5])
    t, g = zw[-1]
    assert t == -0.5
    z = z_root(t, g.x)
    sel = g.x >= 0.0
    assert float(np.min(g.values[sel] - z[sel])) > -1e-3


def test_eternal_wave_converges_at_second_order():
    # the judge of the exact wave: z(-n, .) solved at unit viscosity on
    # [-60, 60], its ends clamped to the outer cubic root at the running
    # time, meets eternal_z on the window's nodes with an error that falls
    # by 4 when dx halves (5.5e-5, then 1.4e-5); at x_max = 40 the clamps'
    # far-field error, 8.2e-4, would hide it
    n, x_max, times = 16.0, 60.0, [-3.0, -1.0, 1.0]
    errors = []
    for dx in (0.04, 0.02):
        half = round(x_max / dx)
        xr = half * dx
        data = GridFunction(-xr, dx, z_root(-n, dx * np.arange(-half, half + 1)))

        def ends(t):
            r = float(_outer_root(t - n, xr))
            return -r, r

        snaps = solve(data, burgers(), SolverConfig(1.0, Clamped(ends)), times[-1] + n,
                      [t + n for t in times])
        exact = eternal_z(n, 4.0, dx=dx, snapshot_times=times)
        inner = slice(half - exact[0][1].n // 2, half + exact[0][1].n // 2 + 1)
        errors.append(max(float(np.max(np.abs(g.values[inner] - z.values)))
                          for (_, g), (_, z) in zip(snaps, exact)))
    assert errors[0] < 1e-4, errors
    assert 3.8 < errors[0] / errors[1] < 4.2, errors


def test_eternal_wave_needs_launch_before_window():
    with pytest.raises(ValueError, match="launch"):
        eternal_z(0.5, 4.0, dx=0.05, snapshot_times=[-1.0, -0.5])


def test_eternal_z_limit_matches_snapshot_loop():
    # the report's margins equal those of a loop over each pair of
    # horizons and each sample time, bit for bit: min and max are exact
    window = Window(-1.5, -0.5, -6.0, 6.0)
    wave, report = eternal_z_limit([8.0, 2.0, 4.0], window, dx=0.1)
    times = [float(t) for t in np.linspace(-1.5, -0.5, 9)]
    runs = [eternal_z(n, 6.0, dx=0.1, snapshot_times=times) for n in (2.0, 4.0, 8.0)]
    gaps, sups = [], []
    for prev, nxt in zip(runs[:-1], runs[1:]):
        pair = [(b.values - a.values, a.x >= 0.0) for (_, a), (_, b) in zip(prev, nxt)]
        gaps.append(min(float(np.min(d[right])) for d, right in pair))
        sups.append(max(float(np.max(np.abs(d))) for d, _ in pair))
    assert report.sample_times == tuple(times)
    assert report.monotone_margin == min(gaps)
    assert report.sup_diffs == tuple(sups)
    assert all(np.array_equal(g.values, r.values) for (_, g), (_, r) in zip(wave, runs[-1]))


# grid radii half*dx of the clamped judge and of the eternal waves built by
# the gate, the CLI and the tests
CLAMP_RADII = [round(x_max / dx) * dx for x_max, dx in
               ((60.0, 0.02), (60.0, 0.04), (40.0, 0.02), (20.0, 0.02),
                (10.0, 0.1), (6.0, 0.05), (4.0, 0.04), (4.0, 0.02))]


def test_outer_root_is_odd_bitwise():
    # a float pair and its mirror image take the same arithmetic, up to sign
    for xr in CLAMP_RADII:
        for t in np.linspace(-64.0, 1.0, 1301):
            right = _outer_root(float(t), xr)
            assert -_outer_root(float(t), -xr) == right, (t, xr)
