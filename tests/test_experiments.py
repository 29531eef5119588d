"""Experiment-layer plumbing: health checks, mesh rules, audit suites."""
import numpy as np
import pytest

from shockzoom import (GridFunction, Periodic, SolverConfig, Window, burgers,
                       burgers_plus_linear, build_scenario, eternal_z)
from shockzoom.experiments import (contraction_check, formation_zoom,
                                   mass_drift_check, merging_surrogate,
                                   merging_zoom, refined_dx, scenario_grid,
                                   single_shock_zoom, suite_cubic_bounds,
                                   suite_oleinik)


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


def test_contraction_check_on_periodic_pair():
    n = 128
    dx = 2.0 * np.pi / n
    x = dx * np.arange(n)
    a = GridFunction(0.0, dx, np.sin(x))
    b = GridFunction(0.0, dx, np.sin(x) + 0.05 * np.sin(2.0 * x))
    cfg = SolverConfig(0.5, Periodic())
    rep = contraction_check(a, b, burgers(), cfg, [0.0, 0.2, 0.4])
    assert rep.relative_slack <= 1e-12
    assert rep.distances[0] > rep.distances[-1]


def test_mass_drift_check_periodic():
    n = 128
    dx = 2.0 * np.pi / n
    x = dx * np.arange(n)
    g = GridFunction(0.0, dx, 0.2 + np.sin(x))
    rep = mass_drift_check(g, burgers(), SolverConfig(0.3, Periodic()),
                           [0.0, 0.5, 1.0])
    assert rep.drift_rate < 1e-13


def test_cubic_bounds_suite_clean():
    report, rows = suite_cubic_bounds(nt=20, nx=40)
    assert report.passed
    assert all(r[3] for r in rows)


def test_oleinik_suite_positive_slope_decay():
    report, rows = suite_oleinik(n_nodes=256)
    assert report.passed
    assert all(r[3] for r in rows)


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
        (0.08, 0.00568476296849707, 0.057860722875788854, 3.552713678800501e-15, 0.0),
        (0.04, 0.0010683082229202001, 0.011831051031390486, -4.153708276666279e-05, 0.0),
    ])


def test_merging_zoom_regression():
    scen = build_scenario("theorem1-merging", burgers())
    wave, cauchy = merging_surrogate(scen, taus=(-14.0, -16.0),
                                     window=Window(-2.25, 2.25, -3.25, 3.25),
                                     comparison_time=-3.0, dx=0.1)
    assert cauchy.distances == pytest.approx((0.012904067981211048,), rel=1e-12)
    outcomes = merging_zoom(scen, (0.08, 0.04), wave, window=Window(-1.0, 1.0, -2.0, 2.0),
                            nt=3, ny=41, base_divisor=4.0)
    _pinned(outcomes, [
        (0.08, 0.021260234590274263, 0.09164853630839978, 0.009399737442736417, 1.0),
        (0.04, 0.0027992399836532234, 0.009990867250906005, 0.006315746897121967, 0.453125),
    ])


def test_formation_zoom_regression():
    # sigma = 2^(-1/3) and lam = 0.5 exercise the normalised type-2 frame
    scen = build_scenario("theorem2-formation", burgers_plus_linear(0.5), amplitude=2.0)
    window = Window(-1.0, 0.5, -2.0, 2.0)
    z_wave = eternal_z(4.0, window, dx=0.1, x_max=15.0,
                       snapshot_times=list(window.t_samples(3)))
    outcomes = formation_zoom(scen, (0.04, 0.02), z_wave, window=window,
                              nt=3, ny=41, dx_hat=0.1)
    _pinned(outcomes, [
        (0.04, 0.01273479232868091, 0.04961528651479527, 0.0, 0.0),
        (0.02, 0.02088875749880259, 0.08234047070460118, 0.0, 0.0),
    ])


def test_oleinik_suite_regression():
    report, _ = suite_oleinik(n_nodes=128)
    assert report.violations == 0
    assert report.worst_margin == pytest.approx(0.47482545268733767, rel=1e-12)
    expected = [(0.5, 0.5024060209952741, 2.098174770424681, 1.595768749429407),
                (1.0, 0.31000316191224303, 1.0981747704246811, 0.7881716085124382),
                (2.0, 0.1233493177373434, 0.598174770424681, 0.47482545268733767)]
    for row, want in zip(report.rows, expected):
        assert row == pytest.approx(want, rel=1e-12)
