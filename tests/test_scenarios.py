"""Named experiment setups and their exact references."""
import numpy as np
import pytest

from shockzoom import (NotLaxError, OutOfDomainError, blowup_time, build_scenario,
                       burgers, merging_shocks_scenario, single_shock_scenario)


def test_single_reference_is_shock_after_forming():
    scen = build_scenario("theorem1-single", burgers())
    t = max(scen.formed_time, 0.5)
    assert scen.reference(t, -1.0) == 1.0
    assert scen.reference(t, 1.0) == -1.0
    # stationary for the symmetric pair
    assert scen.singular_point == (1.0, 0.0)
    assert scen.shock.speed == 0.0


def test_single_reference_smooth_early():
    scen = build_scenario("theorem1-single", burgers())
    # well before blow-up the reference follows the data
    v = scen.reference(0.0, 0.5)
    assert v == pytest.approx(float(scen.initial.u0(0.5)), abs=1e-10)


def test_single_reference_gap_raises():
    scen = build_scenario("theorem1-single", burgers())
    t_gap = 0.5 * (scen.blowup + scen.formed_time)
    if scen.blowup < scen.formed_time:
        with pytest.raises(OutOfDomainError):
            scen.reference(t_gap, 0.0)


def test_single_validation():
    with pytest.raises(NotLaxError):
        single_shock_scenario(burgers(), -1.0, 1.0)
    with pytest.raises(ValueError):
        single_shock_scenario(burgers(), 1.0, -1.0, tau=1e-4)


def test_merging_ramp_positions():
    scen = build_scenario("theorem1-merging", burgers())
    trip = scen.merging
    # ramps start at -lambda_i * tau so the shocks meet at (tau, 0)
    u0 = scen.initial.u0
    assert float(u0(-trip.lambda1 * scen.tau)) == pytest.approx(0.5, abs=1e-9)
    assert float(u0(-trip.lambda2 * scen.tau)) == pytest.approx(-0.5, abs=1e-9)
    assert float(u0(-5.0)) == pytest.approx(1.0, abs=1e-12)
    assert float(u0(5.0)) == pytest.approx(-1.0, abs=1e-12)
    # post-merge reference carries only the outer states
    t = scen.tau + 1.0
    assert scen.reference(t, -2.0) == 1.0
    assert scen.reference(t, 2.0) == -1.0


def test_merging_validation():
    with pytest.raises(ValueError, match="ramp_width"):
        merging_shocks_scenario(burgers(), 1.0, 0.0, -1.0, ramp_width=0.2)


def test_formation_data_oracle():
    scen = build_scenario("theorem2-formation", burgers())
    # u0(-1) solves u^3 + u = 1 (A = tau = 1)
    root = 0.6823278038280194
    assert float(scen.initial.u0(-1.0)) == pytest.approx(root, abs=1e-12)
    assert float(scen.initial.u0(0.0)) == pytest.approx(0.0, abs=1e-12)
    # du0 from the implicit relation: -1/(3u^2 + tau f'')
    expected = -1.0 / (3.0 * root ** 2 + 1.0)
    assert float(scen.initial.du0(-1.0)) == pytest.approx(expected, rel=1e-9)
    # clamped outside the radius
    assert float(scen.initial.du0(4.0)) == 0.0


def test_formation_blowup_map():
    # a structurally stable formation point: the blow-up map has a strict
    # interior minimum, the formation time, with positive curvature
    scen = build_scenario("theorem2-formation", burgers())
    xs = np.linspace(-0.5, 0.5, 101)
    times = np.array([blowup_time(scen.initial, scen.flux, xi) for xi in xs])
    k = int(np.argmin(times))
    assert 0 < k < xs.size - 1
    assert times[k - 1] > times[k] < times[k + 1]
    assert xs[k] == pytest.approx(0.0, abs=1e-2)
    assert times[k] == pytest.approx(scen.tau, abs=1e-6)
    assert times[k - 1] - 2.0 * times[k] + times[k + 1] > 0.0


def test_unknown_scenario_id():
    with pytest.raises(ValueError, match="unknown scenario"):
        build_scenario("theorem9-nope", burgers())
