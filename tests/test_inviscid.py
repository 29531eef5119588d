"""Exact-solution oracles: characteristics, blow-up times, cubic wave."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockzoom import (ConfigError, ShockzoomError, SmoothData, blowup_time,
                       build_scenario, burgers, characteristic_value, inviscid,
                       z_bounds_audit, z_eval, z_exact, z_root)
from shockzoom.flux import burgers_plus_linear, quartic_perturbed

# where each pair below is cross-checked against finite differences
CHECK_POINTS = np.linspace(-2.0, 2.0, 17)


def linear_data():
    return SmoothData(lambda x: -np.asarray(x, dtype=float),
                      lambda x: -np.ones_like(np.asarray(x, dtype=float)), CHECK_POINTS)


def test_characteristic_linear_data():
    # u0 = -x under burgers: u(t, x) = -x / (1 - t)
    data = linear_data()
    val = characteristic_value(data, burgers(), 0.5, 0.25)
    assert val == pytest.approx(-0.5, abs=1e-12)
    assert characteristic_value(data, burgers(), 0.0, 0.7) == pytest.approx(-0.7, abs=1e-12)


def test_characteristic_value_takes_arrays(monkeypatch):
    # one call on many x equals one call per x, bit for bit, on the early
    # times of each shocked scenario's reference, in one block of rows or
    # in several
    for scenario_id in ("theorem1-single", "theorem1-merging"):
        scen = build_scenario(scenario_id, burgers())
        t = 0.5 * scen.blowup
        x = np.linspace(*scen.domain, 64)
        values = characteristic_value(scen.initial, scen.flux, t, x)
        assert values.shape == x.shape
        each = [characteristic_value(scen.initial, scen.flux, t, xi) for xi in x]
        assert all(isinstance(v, float) for v in each)
        assert np.array_equal(values, each), scenario_id
        assert np.array_equal(scen.reference(t, x), values)
        with monkeypatch.context() as m:
            m.setattr(inviscid, "_FOOT_ROWS", 10)
            blocks = characteristic_value(scen.initial, scen.flux, t, x.reshape(8, 8))
        assert np.array_equal(blocks, values.reshape(8, 8)), scenario_id
    # on a crossed field the first x with several foot points is named
    data = SmoothData(lambda x: -np.tanh(np.asarray(x, dtype=float)),
                      lambda x: -1.0 / np.cosh(np.asarray(x, dtype=float)) ** 2,
                      CHECK_POINTS)
    with pytest.raises(ShockzoomError, match="candidate foot points of x=-0.25:"):
        characteristic_value(data, burgers(), 2.0, [-40.0, -0.25, 0.0, 0.25])


def _bisection_foot_value(scen, t, x):
    """u at (t, x) from a 200-step bisection of the foot residual
    xi + t f'(u0(xi)) - x, which increases in xi before the blow-up."""
    speed = np.max(np.abs(scen.flux.df(np.array([scen.shock.u_minus, scen.shock.u_plus]))))
    lo, hi = x - t * speed - 1.0, x + t * speed + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        low = (mid - x) + t * scen.flux.df(scen.initial.u0(mid)) < 0.0
        lo, hi = np.where(low, mid, lo), np.where(low, hi, mid)
    # the end of the last bracket with the smaller residual
    r_lo, r_hi = ((v - x) + t * scen.flux.df(scen.initial.u0(v)) for v in (lo, hi))
    return scen.initial.u0(np.where(np.abs(r_lo) <= np.abs(r_hi), lo, hi))


@pytest.mark.parametrize("scenario_id", ["theorem1-single", "theorem1-merging"])
@pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
def test_characteristic_roots_match_bisection(scenario_id, fraction):
    # the shared Newton root agrees with a long bisection to round-off
    scen = build_scenario(scenario_id, burgers())
    t = fraction * scen.blowup
    x = np.linspace(*scen.domain, 2001)
    u = characteristic_value(scen.initial, scen.flux, t, x)
    assert np.max(np.abs(u - _bisection_foot_value(scen, t, x))) <= 1e-14


@pytest.mark.parametrize("flux", [burgers(), burgers_plus_linear(0.5), quartic_perturbed(0.05)],
                         ids=["burgers", "burgers-plus-linear", "quartic-0.05"])
@pytest.mark.parametrize("scenario_id", ["theorem1-single", "theorem1-merging"])
def test_characteristic_roots_count_their_flux_calls(monkeypatch, flux, scenario_id):
    # a block of rows costs two df calls for the speed bound, one for the
    # scan and one per Newton pass, up to just before the blow-up
    calls = []

    def df(u):
        calls.append(u)
        return flux.df(u)

    monkeypatch.setattr(inviscid, "_FOOT_ROWS", 4096)
    scen = build_scenario(scenario_id, dataclasses.replace(flux, df=df))
    x = np.linspace(*scen.domain, 4096)
    for fraction in (0.0, 0.1, 0.5, 0.9, 0.97):
        calls.clear()
        characteristic_value(scen.initial, scen.flux, fraction * scen.blowup, x)
        assert len(calls) <= 16, fraction


def test_blowup_time_linear():
    data = linear_data()
    assert blowup_time(data, burgers(), 0.3) == pytest.approx(1.0, abs=1e-12)
    rising = SmoothData(lambda x: np.asarray(x, dtype=float),
                        lambda x: np.ones_like(np.asarray(x, dtype=float)), CHECK_POINTS)
    assert blowup_time(rising, burgers(), 0.0) == np.inf
    # an array of feet, one of which never focuses, gives the scalar calls
    # bit for bit
    bump = SmoothData(lambda x: np.exp(-np.square(x)),
                      lambda x: -2.0 * np.asarray(x) * np.exp(-np.square(x)), CHECK_POINTS)
    xi = np.array([-1.0, 0.0, 0.3, 0.7071, 1.5])
    times = blowup_time(bump, burgers(), xi)
    assert times.shape == xi.shape and times[0] == np.inf
    each = [blowup_time(bump, burgers(), v) for v in xi]
    assert all(isinstance(v, float) for v in each)
    assert np.array_equal(times, each)


def test_characteristics_cross_after_blowup():
    data = SmoothData(lambda x: -np.tanh(np.asarray(x, dtype=float)),
                      lambda x: -1.0 / np.cosh(np.asarray(x, dtype=float)) ** 2,
                      CHECK_POINTS)
    with pytest.raises(ShockzoomError, match="characteristics have crossed"):
        characteristic_value(data, burgers(), 2.0, 0.0)


def test_smooth_data_rejects_wrong_derivative():
    with pytest.raises(ValueError, match="disagrees"):
        SmoothData(lambda x: np.sin(x), lambda x: np.sin(x), CHECK_POINTS)


def test_smooth_data_rejects_nan():
    with pytest.raises(ValueError, match="disagrees"):
        SmoothData(lambda x: np.full_like(np.asarray(x, dtype=float), np.nan),
                   lambda x: np.zeros_like(np.asarray(x, dtype=float)), CHECK_POINTS)


def test_z_known_points():
    # x = tz - z^3 at t = -1: z = -1 gives x = 1 - (-1) = 2
    assert z_root(-1.0, 2.0) == pytest.approx(-1.0, abs=1e-14)
    assert z_root(-1.0, 0.0) == 0.0
    assert z_root(0.0, 8.0) == pytest.approx(-2.0, abs=1e-14)  # pure cube root
    z, zx, zxx, zxxx = z_eval(-1.0, 0.0)
    assert z == 0.0
    assert zx == pytest.approx(-1.0, abs=1e-14)
    assert zxx == 0.0
    assert zxxx == pytest.approx(6.0, abs=1e-12)
    # broadcast over t and x
    table = z_eval([[-1.0], [-2.0]], [0.0, 2.0, 5.0])
    assert all(np.shape(a) == (2, 3) for a in table)
    assert np.array_equal(table[0], z_root([[-1.0], [-2.0]], [0.0, 2.0, 5.0]))


def test_z_odd_in_x():
    t = -2.5
    x = np.linspace(0.0, 30.0, 101)
    assert np.allclose(z_root(t, -x), -z_root(t, x), atol=1e-13)


def test_z_self_similarity():
    # z(d^2 t, d^3 x) = d z(t, x)
    rng = np.random.default_rng(7)
    t = -1.0 - 3.0 * rng.random(40)
    x = 20.0 * rng.random(40) - 10.0
    for d in (0.5, 2.0):
        lhs = z_root(d * d * t, d ** 3 * x)
        assert np.allclose(lhs, d * z_root(t, x), rtol=1e-12, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.floats(-8.0, -0.6), st.floats(-15.0, 15.0))
def test_z_derivatives_match_differences(t, x):
    h = 1e-5 * max(1.0, abs(x))
    z, zx, zxx, _ = z_eval(t, x)
    zp = z_root(t, x + h)
    zm = z_root(t, x - h)
    fd1 = (zp - zm) / (2.0 * h)
    fd2 = (zp - 2.0 * z + zm) / (h * h)
    assert zx == pytest.approx(fd1, rel=2e-6, abs=2e-6)
    assert zxx == pytest.approx(fd2, rel=5e-4, abs=5e-4)


def test_z_bounds_audit_clean():
    t = -np.geomspace(0.5, 9.0, 25)
    x = np.linspace(-40.0, 40.0, 161)
    report = z_bounds_audit(t, x)
    assert report.violations == 0
    assert report.residual_max < 1e-10 * 41.0


def test_z_root_rejects_positive_time():
    with pytest.raises(ValueError):
        z_root(0.5, 1.0)
    with pytest.raises(ValueError):
        z_eval(0.5, 1.0)


def test_z_exact_solves_burgers():
    # U_T + U U_X = U_XX by centred differences of step h: their own error
    # is about h^2 = 1e-6 times the third derivatives, 8e-6 at the blow-up
    # time t = 0, where U_XX peaks near 0.13
    n, h = 8.0, 1e-3
    x = np.linspace(-6.0, 6.0, 121)[:, None] + h * np.array([-1.0, 0.0, 1.0])
    for t in (-7.5, -1.0, 0.0, 2.0):
        before, (left, u, right), after = z_exact(n, [t - h, t, t + h], x).transpose(0, 2, 1)
        residual = ((after[1] - before[1]) / (2.0 * h) + u * (right - left) / (2.0 * h)
                    - (right - 2.0 * u + left) / (h * h))
        assert np.max(np.abs(residual)) < 2e-5, t


def test_z_exact_is_odd_and_starts_from_the_cubic_wave():
    x = np.linspace(0.0, 30.0, 301)
    for n, t in ((2.0, -1.5), (32.0, -3.0), (32.0, 1.0), (4.0, 20.0)):
        right = z_exact(n, t, x)
        assert np.array_equal(z_exact(n, t, -x), -right)
        assert right[0] == 0.0
    assert np.array_equal(z_exact(32.0, -32.0, x), z_root(-32.0, x))
    assert np.array_equal(z_exact(32.0, [-32.0, -3.0], x)[0], z_root(-32.0, x))


def test_z_exact_sits_above_the_cubic_wave():
    # z <= Z^(n) on x >= 0 before the blow-up time, as criterion 4 checks
    x = np.linspace(0.0, 40.0, 2001)
    for n in (2.0, 16.0, 32.0):
        for t in (0.5 - n, -1.0, 0.0):
            assert np.min(z_exact(n, t, x) - z_root(t, x)) >= -1e-14, (n, t)


def test_z_exact_quadrature_is_converged(monkeypatch):
    # half the trapezoid step over twice the tail moves no value past 1e-13,
    # on the default zref and zlimit horizons and past the blow-up, on wide
    # x-ranges and on the zoom windows of the formation run and of
    # test_formation_zoom_regression, where the weight's sextic tail, not
    # its saddles, sets the step (a saddle-only step moved them 1.7e-8 and
    # 2.2e-6)
    cases = [(32.0, np.linspace(-3.0, 1.0, 17), 60.0), (4.0, [-3.5, -1.0], 40.0),
             (48.0, [-3.0, 1.0], 60.0), (2.0, [-1.9, 10.0], 12.0),
             (32.0, np.linspace(-3.0, 1.0, 17), 4.0), (4.0, [-1.0, -0.25, 0.5], 2.0)]
    x = [np.linspace(0.0, xr, 1501) for _, _, xr in cases]
    got = [z_exact(n, t, xs) for (n, t, _), xs in zip(cases, x)]
    monkeypatch.setattr(inviscid, "Z_STEP", inviscid.Z_STEP / 2.0)
    monkeypatch.setattr(inviscid, "Z_TAIL", inviscid.Z_TAIL * 2.0)
    for (n, t, _), xs, want in zip(cases, x, got):
        assert np.max(np.abs(z_exact(n, t, xs) - want)) <= 1e-13, n


def test_z_exact_bounds_its_work(monkeypatch):
    # just after the launch, or long after the blow-up, the step shrinks
    # past the node cap; the term cap counts every time before any sum
    x = np.linspace(0.0, 60.0, 1501)
    for n, t in ((32.0, -32.0 + 1e-9), (4.0, 1e10), (4.0, 1e300)):
        with pytest.raises(ConfigError, match="quadrature nodes"):
            z_exact(n, t, x)
    with pytest.raises(ConfigError, match="t >= -n, the launch time -n=-4"):
        z_exact(4.0, -4.5, x)
    # a huge horizon stays finite and near its limit Z(infinity)
    far = z_exact(1e100, 1.0, x)
    assert np.all(np.isfinite(far))
    assert np.max(np.abs(far - z_exact(1e8, 1.0, x))) < 1e-7

    def no_sum(*args):
        raise AssertionError("quadrature summed")

    monkeypatch.setattr(inviscid, "_z_mean", no_sum)
    monkeypatch.setattr(inviscid, "MAX_QUADRATURE_TERMS", 10**6)
    with pytest.raises(ConfigError, match="quadrature terms"):
        z_exact(32.0, np.linspace(-3.0, 1.0, 17), x)
    # each time counts at least one 2^15-term block of the sum, however few
    # its x: 31 of them exceed 10^6
    with pytest.raises(ConfigError, match="1015808 quadrature terms"):
        z_exact(32.0, np.linspace(-3.0, 1.0, 31), [1.0])
