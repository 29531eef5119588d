"""Jump algebra and flux-model self-checks."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shockzoom import (BUILTIN_FLUXES, ConfigError, FluxModel,
                       NotLaxWarning, burgers, burgers_plus_linear, chord,
                       make_flux, quartic_perturbed, rankine_hugoniot)

states = st.floats(-2.0, 2.0, allow_nan=False)


def test_burgers_symmetric_pair():
    # (f(1) - f(-1)) / 2 = 0 and offset f(-1) - 0 = 1/2
    s = rankine_hugoniot(burgers(), 1.0, -1.0)
    assert s.speed == 0.0
    assert s.offset == 0.5


def test_burgers_speed_is_mean():
    s = rankine_hugoniot(burgers(), 1.5, 0.3)
    assert s.speed == pytest.approx(0.9, abs=1e-14)


def test_linear_shift_adds_to_speed():
    s0 = rankine_hugoniot(burgers(), 1.2, -0.4)
    s1 = rankine_hugoniot(burgers_plus_linear(0.7), 1.2, -0.4)
    assert s1.speed == pytest.approx(s0.speed + 0.7, abs=1e-14)


def test_equal_states_raise():
    with pytest.raises(ConfigError, match="u_minus == u_plus == 0.3"):
        rankine_hugoniot(burgers(), 0.3, 0.3)


def test_upward_jump_warns():
    with pytest.warns(NotLaxWarning):
        rankine_hugoniot(burgers(), -1.0, 1.0)


@settings(max_examples=50, deadline=None)
@given(states, states)
def test_chord_hits_both_endpoints(a, b):
    if abs(a - b) < 1e-6:
        return
    hi, lo = max(a, b), min(a, b)
    flux = burgers()
    line = chord(flux, hi, lo)
    assert line(hi) == pytest.approx(float(flux.f(hi)), abs=1e-12)
    assert line(lo) == pytest.approx(float(flux.f(lo)), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(states, states)
def test_chord_above_f_for_convex(a, b):
    # convexity puts the graph under the chord between the states
    if abs(a - b) < 1e-3:
        return
    hi, lo = max(a, b), min(a, b)
    flux = quartic_perturbed(0.01)
    line = chord(flux, hi, lo)
    u = np.linspace(lo, hi, 33)
    assert np.all(flux.f(u) <= line(u) + 1e-12)


def test_quartic_products_match_the_powers():
    # f and df are written with products for speed; on the declared range
    # they agree with the pow forms to a few ulp
    u = np.linspace(-2.0, 2.0, 4001)
    for kappa in (0.05, 1.0):
        flux = quartic_perturbed(kappa)
        np.testing.assert_array_max_ulp(flux.f(u), 0.5 * u * u + kappa * u ** 4, maxulp=4)
        np.testing.assert_array_max_ulp(flux.df(u), u + 4.0 * kappa * u ** 3, maxulp=4)


def test_self_check_rejects_nan():
    # a NaN discrepancy fails the check instead of slipping past err > tol
    with pytest.raises(ValueError, match="disagrees"):
        burgers_plus_linear(float("nan"))
    with pytest.raises(ValueError, match="d2f disagrees"):
        FluxModel(f=lambda u: 0.5 * u * u, df=lambda u: np.asarray(u, dtype=float),
                  d2f=lambda u: np.full_like(np.asarray(u, dtype=float), np.nan),
                  c1=1.0, c2=1.0, name="nan-curvature")


def test_derivative_self_check_catches_typo():
    with pytest.raises(ValueError, match="disagrees"):
        FluxModel(f=lambda u: 0.5 * u * u, df=lambda u: 2.0 * u,
                  d2f=lambda u: np.ones_like(np.asarray(u, dtype=float)),
                  c1=1.0, c2=1.0, name="typo")


def test_convexity_range_check():
    with pytest.raises(ValueError, match="leaves"):
        FluxModel(f=lambda u: 0.5 * u * u, df=lambda u: np.asarray(u, dtype=float),
                  d2f=lambda u: np.ones_like(np.asarray(u, dtype=float)),
                  c1=2.0, c2=3.0, name="wrong-band")


def test_builtin_registry():
    assert set(BUILTIN_FLUXES) >= {"burgers"}
    assert make_flux("burgers").name == "burgers"
    with pytest.raises(KeyError):
        make_flux("no-such-flux")


def test_max_speed():
    flux = burgers()
    assert flux.max_speed(np.array([-1.5, 0.2, 0.9])) == 1.5
