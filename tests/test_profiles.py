"""Viscous profiles: traveling waves, merging data, the eternal wave."""
import numpy as np
import pytest

from shockzoom import (Clamped, GridFunction, MergingTriple, NotLaxError,
                       SolverConfig, TauTooLateError, burgers, eternal_z,
                       merging_initial, smoothstep, solve, transition_width,
                       traveling_wave, z_root)
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
