import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shockzoom import (GridFunction, ShockzoomError, Window, l1_distance,
                       max_forward_slope, periodic_mass, trapezoid)
from shockzoom.grid import prolong_cubic


def test_trapezoid_matches_numpy():
    rng = np.random.default_rng(7)
    v = rng.normal(size=57)
    assert trapezoid(v, 0.3) == pytest.approx(np.trapezoid(v, dx=0.3), rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.floats(1e-3, 2.0))
def test_periodic_mass_is_plain_sum(n, dx):
    v = np.arange(n, dtype=float)
    g = GridFunction(0.0, dx, v)
    assert periodic_mass(g) == pytest.approx(float(v.sum()) * dx, rel=1e-14)


def test_grid_geometry():
    g = GridFunction(-1.0, 0.5, np.zeros(5))
    assert g.x_right == 1.0
    assert np.allclose(g.x, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_l1_distance_and_mismatch():
    a = GridFunction(0.0, 0.1, np.zeros(11))
    b = GridFunction(0.0, 0.1, np.ones(11))
    assert l1_distance(a, b) == pytest.approx(1.0, rel=1e-13)
    c = GridFunction(0.0, 0.1, np.ones(12))
    with pytest.raises(ShockzoomError, match="grids differ"):
        l1_distance(a, c)


def test_mass_on_linear_profile():
    g = GridFunction.from_callable(lambda x: x, 0.0, 1.0, 0.125)
    assert trapezoid(g.values, g.dx) == pytest.approx(0.5, abs=1e-14)


def test_max_forward_slope():
    g = GridFunction(0.0, 0.5, np.array([0.0, 1.0, 0.5]))
    assert max_forward_slope(g) == pytest.approx(2.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridFunction(0.0, -0.5, np.zeros(4))
    with pytest.raises(ValueError):
        GridFunction(0.0, 0.5, np.array([1.0]))
    with pytest.raises(ValueError):
        GridFunction(0.0, 0.5, np.array([1.0, np.nan]))


def test_window_validation_and_samples():
    w = Window(-1.0, 1.0, -2.0, 2.0)
    assert len(w.t_samples(5)) == 5
    assert w.x_samples(3)[1] == 0.0
    with pytest.raises(ValueError):
        Window(1.0, -1.0, 0.0, 0.0)


def test_cubic_prolongation_reproduces_cubics():
    # seven coarse nodes, so the end stencils are shifted and the middle
    # ones centred
    coarse_x = 0.3 * np.arange(7) - 0.5
    for m in (2, 3, 5):
        fine_x = coarse_x[0] + 0.3 / m * np.arange(6 * m + 1)
        for poly in ([1.0], [2.0, -1.0], [0.5, -1.0, 2.0], [1.0, -2.0, 0.5, 3.0]):
            coarse = np.polyval(poly, coarse_x)
            fine = prolong_cubic(coarse, m)
            np.testing.assert_allclose(fine, np.polyval(poly, fine_x), rtol=0.0, atol=1e-12)
            # the coarse nodes keep their values bit for bit
            assert np.array_equal(fine[::m], coarse)
    # a quartic is not reproduced: the test above is not vacuous
    quartic = prolong_cubic(coarse_x ** 4, 2)
    assert np.max(np.abs(quartic - (coarse_x[0] + 0.15 * np.arange(13)) ** 4)) > 1e-4
