"""The transformed (u, f(u) - u_x) curve and its region diagnostics."""
import numpy as np
import pytest

from shockzoom import (GridFunction, NoCrossingError, almost_monotone_margin,
                       burgers, chord, chord_region_membership, phase_times,
                       strip_profile_fit, traveling_wave, w_curve)


def exact_wave_state(dx=0.002, half=15.0):
    x = np.arange(-half, half + dx / 2, dx)
    return GridFunction(-half, dx, -np.tanh(x / 2.0))


def test_wave_collapses_onto_chord():
    # for the exact profile, f(S) - S_x is the chord lam*u + C exactly
    state = exact_wave_state()
    curve = w_curve(state, burgers())
    line = chord(burgers(), 1.0, -1.0)
    dev = np.max(np.abs(curve.w - line(curve.u)))
    # centred differences leave an O(dx^2 * |S'''|) residue
    assert dev < 5e-6


def test_membership_inside_and_outside():
    state = exact_wave_state(dx=0.002)
    flux = burgers()
    curve = w_curve(state, flux)
    report = chord_region_membership(curve, flux, 1.0, -1.0, 0.25)
    assert report.all_inside
    assert report.worst_margin > 0.0
    # the lower edge w = f(u) - 2*delta1 counts as outside
    u = np.linspace(-0.9, 0.9, 40)
    edge = type(curve)(u, np.asarray(flux.f(u)) - 0.5)
    report = chord_region_membership(edge, flux, 1.0, -1.0, 0.25)
    assert not report.all_inside
    # points far above the widened chord are outside too
    high = type(curve)(u, np.asarray(flux.f(u)) + 5.0)
    assert not chord_region_membership(high, flux, 1.0, -1.0, 0.25).all_inside


def test_strip_fit_recovers_shift():
    dx = 0.002
    x = np.arange(-15.0, 15.0 + dx / 2, dx)
    state = GridFunction(-15.0, dx, -np.tanh((x - 1.2) / 2.0))
    fit = strip_profile_fit(state, burgers(), 1.0, -1.0)
    assert fit.shift == pytest.approx(1.2, abs=1e-5)
    assert fit.sup_error < 1e-6


def test_strip_fit_needs_straddle():
    state = GridFunction(0.0, 0.1, np.full(11, 0.9))
    with pytest.raises(NoCrossingError):
        strip_profile_fit(state, burgers(), 1.0, -1.0)


def test_almost_monotone_margin():
    g = GridFunction(0.0, 1.0, np.array([3.0, 1.0, 2.5, 0.0]))
    assert almost_monotone_margin(g) == pytest.approx(1.5)
    g = GridFunction(0.0, 1.0, np.array([3.0, 2.0, 1.0]))
    assert almost_monotone_margin(g) == 0.0


def test_phase_times_pinned():
    # M=1, m=-1, interval (-1/2, 1/2), c1=1, delta1=1/2, states (1, -1):
    # T1 = 8*2*1/(1/4) = 64 and T2 = max(2, (16+8+9)/(1/2)) = 66
    t1, t2 = phase_times(1.0, -1.0, -0.5, 0.5, 1.0, 0.5, 1.0, -1.0)
    assert t1 == pytest.approx(64.0)
    assert t2 == pytest.approx(66.0)
    # doubling delta1 quarters T1
    t1b, _ = phase_times(1.0, -1.0, -0.5, 0.5, 1.0, 1.0, 1.0, -1.0)
    assert t1 == pytest.approx(4.0 * t1b)


def test_phase_times_validation():
    with pytest.raises(ValueError):
        phase_times(-1.0, 1.0, -1.0, 1.0, 1.0, 0.25, 1.0, -1.0)
    with pytest.raises(ValueError):
        phase_times(1.0, -1.0, -1.0, 1.0, 1.0, 3.0, 1.0, -1.0)
