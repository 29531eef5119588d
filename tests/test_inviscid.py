"""Exact-solution oracles: characteristics, shock patterns, cubic wave."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockzoom import (MultipleRootsError, ShockData, SmoothData, blowup_time,
                       burgers, characteristic_value, single_shock, two_shock,
                       z_bounds_audit, z_eval, z_root)
from shockzoom.errors import NotOrderedError


def linear_data():
    return SmoothData(lambda x: -np.asarray(x, dtype=float),
                      lambda x: -np.ones_like(np.asarray(x, dtype=float)))


def test_characteristic_linear_data():
    # u0 = -x under burgers: u(t, x) = -x / (1 - t)
    data = linear_data()
    val = characteristic_value(data, burgers(), 0.5, 0.25)
    assert val == pytest.approx(-0.5, abs=1e-12)
    assert characteristic_value(data, burgers(), 0.0, 0.7) == pytest.approx(-0.7, abs=1e-12)


def test_blowup_time_linear():
    data = linear_data()
    assert blowup_time(data, burgers(), 0.3) == pytest.approx(1.0, abs=1e-12)
    rising = SmoothData(lambda x: np.asarray(x, dtype=float),
                        lambda x: np.ones_like(np.asarray(x, dtype=float)))
    assert blowup_time(rising, burgers(), 0.0) == np.inf


def test_characteristics_cross_after_blowup():
    data = SmoothData(lambda x: -np.tanh(np.asarray(x, dtype=float)),
                      lambda x: -1.0 / np.cosh(np.asarray(x, dtype=float)) ** 2)
    with pytest.raises(MultipleRootsError):
        characteristic_value(data, burgers(), 2.0, 0.0)


def test_smooth_data_rejects_wrong_derivative():
    with pytest.raises(ValueError, match="disagrees"):
        SmoothData(lambda x: np.sin(x), lambda x: np.sin(x))


def test_smooth_data_rejects_nan():
    with pytest.raises(ValueError, match="disagrees"):
        SmoothData(lambda x: np.full_like(np.asarray(x, dtype=float), np.nan),
                   lambda x: np.zeros_like(np.asarray(x, dtype=float)))


def test_single_shock_pattern():
    shock = ShockData(1.0, -1.0, 0.0, 0.5)
    assert single_shock(shock, 3.0, -0.1) == 1.0
    assert single_shock(shock, 3.0, 0.1) == -1.0
    assert single_shock(shock, 3.0, 0.0) == -1.0  # line takes the right state


def test_two_shock_wedge_and_merge():
    flux = burgers()
    # speeds 1/2 and -1/2 merge at the origin at t = 0
    um, us, up = 1.0, 0.0, -1.0
    assert two_shock(flux, um, us, up, -1.0, 0.0) == us
    assert two_shock(flux, um, us, up, -1.0, -0.6) == um
    assert two_shock(flux, um, us, up, -1.0, 0.6) == up
    assert two_shock(flux, um, us, up, 1.0, -0.1) == um
    assert two_shock(flux, um, us, up, 1.0, 0.1) == up
    with pytest.raises(NotOrderedError):
        two_shock(flux, -1.0, 0.0, 1.0, -1.0, 0.0)


def test_z_known_points():
    # x = tz - z^3 at t = -1: z = -1 gives x = 1 - (-1) = 2
    assert z_root(-1.0, 2.0) == pytest.approx(-1.0, abs=1e-14)
    assert z_root(-1.0, 0.0) == 0.0
    assert z_root(0.0, 8.0) == pytest.approx(-2.0, abs=1e-14)  # pure cube root
    p = z_eval(-1.0, 0.0)
    assert p.zx == pytest.approx(-1.0, abs=1e-14)
    assert p.zxx == 0.0
    assert p.zxxx == pytest.approx(6.0, abs=1e-12)


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
    p = z_eval(t, x)
    zp = z_root(t, x + h)
    zm = z_root(t, x - h)
    fd1 = (zp - zm) / (2.0 * h)
    fd2 = (zp - 2.0 * p.z + zm) / (h * h)
    assert p.zx == pytest.approx(fd1, rel=2e-6, abs=2e-6)
    assert p.zxx == pytest.approx(fd2, rel=5e-4, abs=5e-4)


def test_z_bounds_audit_clean():
    t = -np.geomspace(0.5, 9.0, 25)
    x = np.linspace(-40.0, 40.0, 161)
    report = z_bounds_audit(t, x)
    assert report.passed
    assert report.residual_max < 1e-10 * 41.0


def test_z_root_rejects_positive_time():
    with pytest.raises(ValueError):
        z_root(0.5, 1.0)
    with pytest.raises(ValueError):
        z_eval(0.5, 1.0)
