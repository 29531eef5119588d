"""Named experiment setups and their exact references."""
import dataclasses

import numpy as np
import pytest

from shockzoom import (ConfigError, FluxModel, OutOfDomainError, blowup_time,
                       build_scenario, burgers, burgers_plus_linear, characteristic_value,
                       merging_shocks_scenario, quartic_perturbed, single_shock_scenario)


def test_single_reference_is_shock_after_forming():
    scen = build_scenario("theorem1-single", burgers())
    t = max(scen.formed_time, 0.5)
    assert scen.reference(t, -1.0) == 1.0
    assert scen.reference(t, 1.0) == -1.0
    # stationary for the symmetric pair
    assert (scen.tau, scen.xi) == (1.0, 0.0)
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
    with pytest.raises(ConfigError, match="need a downward jump"):
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

def test_merging_reference_regimes():
    # Burgers, states (1, 0, -1): the data's characteristics until just
    # before blow-up, no reference until the ramps are absorbed, then two
    # shocks at lambda1 = 1/2 and lambda2 = -1/2 that merge at (tau, 0)
    # into one standing shock
    scen = build_scenario("theorem1-merging", burgers())
    trip = scen.merging
    assert (trip.lambda1, trip.lambda2, scen.shock.speed) == (0.5, -0.5, 0.0)
    assert scen.blowup == pytest.approx(0.02, abs=1e-12)
    assert scen.formed_time == pytest.approx(0.4, abs=1e-12)
    x = np.linspace(-2.0, 2.0, 81)
    for t in (0.0, 0.5 * scen.blowup, 0.97 * scen.blowup):
        assert np.array_equal(scen.reference(t, x),
                              characteristic_value(scen.initial, scen.flux, t, x))
    for t in (0.98 * scen.blowup, scen.blowup, 0.2, 0.39):
        with pytest.raises(OutOfDomainError):
            scen.reference(t, x)
    for t in (scen.formed_time, 0.7, 0.99):
        s = t - scen.tau
        expected = np.where(x < trip.lambda1 * s, 1.0,
                            np.where(x < trip.lambda2 * s, 0.0, -1.0))
        assert np.array_equal(scen.reference(t, x), expected)
        assert np.any(scen.reference(t, x) == 0.0)
    for t in (scen.tau, 1.5):
        assert np.array_equal(scen.reference(t, x), np.where(x < 0.0, 1.0, -1.0))


def test_single_shock_pattern():
    # burgers-plus-linear at b = 0.5 moves the shock of (1, -1) at speed 0.5;
    # each side takes its own state, and a point on the line the right one
    scen = build_scenario("theorem1-single", burgers_plus_linear(0.5))
    for t in (scen.tau, 3.0):
        x = 0.5 * t
        assert scen.shocks(t) == ([x], (1.0, -1.0))
        assert scen.reference(t, x - 0.1) == 1.0
        assert scen.reference(t, x + 0.1) == -1.0
        assert scen.reference(t, x) == -1.0


def test_merging_shocks_wedge_and_merge():
    # Burgers, states (1, 0, -1): shocks at speeds 1/2 and -1/2 hold the
    # middle state between them until they merge at (tau, 0) = (1, 0) into
    # one standing shock; a point on any line takes the state to its right
    scen = build_scenario("theorem1-merging", burgers())
    t = 0.5
    assert scen.shocks(t) == ([-0.25, 0.25], (1.0, 0.0, -1.0))
    for x, state in ((0.0, 0.0), (-0.6, 1.0), (0.6, -1.0), (-0.25, 0.0), (0.25, -1.0)):
        assert scen.reference(t, x) == state, x
    t = 2.0
    assert scen.shocks(t) == ([0.0], (1.0, -1.0))
    for x, state in ((-0.1, 1.0), (0.1, -1.0), (0.0, -1.0)):
        assert scen.reference(t, x) == state, x


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


def _bisection_root(amplitude, flux, x, tau=1.0, radius=2.5):
    """The formation data by 90 bisection sweeps over the scenario's bracket."""
    def foot(u):
        return -amplitude * u ** 3 - tau * float(flux.df(u))

    b = 1.0
    while foot(b) > -radius or foot(-b) < radius:
        b *= 2.0
    lo = np.full(x.shape, -b)
    hi = np.full(x.shape, b)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        high = -amplitude * mid ** 3 - tau * flux.df(mid) > x
        lo = np.where(high, mid, lo)
        hi = np.where(high, hi, mid)
    return 0.5 * (lo + hi)


def _curvature_bumps(c=1.0, k=20.0, a=0.5):
    """Convex flux whose f'' peaks at u = +-a, far above its value at u = 0.

    Newton from the seed, which sees only f''(0), cycles on it without the
    bracket: the steps overshoot across the steep stretches of f'.
    """
    def antiderivative(v):  # of arctan(k v)
        return v * np.arctan(k * v) - np.log1p((k * v) ** 2) / (2.0 * k)

    return FluxModel(
        f=lambda u: 0.5 * u * u + c * (antiderivative(u - a) + antiderivative(u + a)),
        df=lambda u: u + c * (np.arctan(k * (u - a)) + np.arctan(k * (u + a))),
        d2f=lambda u: 1.0 + c * k * (1.0 / (1.0 + (k * (u - a)) ** 2)
                                     + 1.0 / (1.0 + (k * (u + a)) ** 2)),
        c1=1.0, c2=1.0 + 2.0 * c * k, name="curvature-bumps", u_range=(-2.0, 2.0))


@pytest.mark.parametrize("flux", [burgers(), burgers_plus_linear(1.0), quartic_perturbed(0.05),
                                  quartic_perturbed(5.0), _curvature_bumps()],
                         ids=["burgers", "burgers-plus-linear", "quartic-0.05", "quartic-5",
                              "curvature-bumps"])
@pytest.mark.parametrize("amplitude", [0.5, 1.0, 2.0])
def test_formation_data_match_bisection(flux, amplitude):
    # the seeded Newton root agrees with a 90-step bisection to round-off
    # over the whole clamp range, and the data stay monotone
    x = np.linspace(-2.5, 2.5, 20001)
    u0 = build_scenario("theorem2-formation", flux, amplitude=amplitude).initial.u0
    u = u0(x)
    assert np.max(np.abs(u - _bisection_root(amplitude, flux, x))) <= 2e-15
    assert np.all(np.diff(u) <= 0.0)
    # each node stops on its own: one point at a time, or a slice, gives
    # the batched bits
    assert np.array_equal([u0(v) for v in x[::97]], u[::97])
    assert np.array_equal(u0(x[7000:9001]), u[7000:9001])


@pytest.mark.parametrize("flux, amplitude, most", [
    (burgers(), 1.0, 3), (burgers_plus_linear(1.0), 1.0, 3),
    (burgers(), 0.5, 3), (burgers_plus_linear(0.5), 2.0, 3),
    (quartic_perturbed(5.0), 0.1, 12)],
    ids=["burgers", "burgers-plus-linear", "burgers-A0.5", "burgers-plus-linear-A2",
         "quartic-5-A0.1"])
def test_formation_data_count_their_flux_calls(flux, amplitude, most):
    # the closed-form seed is exact for constant curvature, so one Newton
    # pass settles it; the stiff quartic needs a few more
    calls = []

    def df(u):
        calls.append(u)
        return flux.df(u)

    scen = build_scenario("theorem2-formation", dataclasses.replace(flux, df=df),
                          amplitude=amplitude)
    x = np.linspace(-3.0, 3.0, 2001)
    calls.clear()
    u = scen.initial.u0(x)
    assert len(calls) <= most
    assert np.max(np.abs(u - _bisection_root(amplitude, flux, np.clip(x, -2.5, 2.5)))) <= 2e-15


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
