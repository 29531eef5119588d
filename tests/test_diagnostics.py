"""The transformed (u, f(u) - u_x) curve and its region diagnostics."""
import numpy as np
import pytest

from shockzoom import (GridFunction, NoCrossingError, almost_monotone_margin,
                       burgers, chord, chord_region_margin, phase_times,
                       strip_profile_fit)


def exact_wave_state(dx=0.002, half=15.0, width=2.0, sign=-1.0):
    x = np.arange(-half, half + dx / 2, dx)
    return GridFunction(-half, dx, sign * np.tanh(x / width))


def test_wave_collapses_onto_chord():
    # for the exact profile, f(S) - S_x is the chord lam*u + C exactly
    state = exact_wave_state()
    u = state.values
    w = burgers().f(u) - np.gradient(u, state.dx, edge_order=1)
    dev = np.max(np.abs(w - chord(burgers(), 1.0, -1.0)(u)))
    # centred differences leave an O(dx^2 * |S'''|) residue
    assert dev < 5e-6


def test_membership_inside_and_outside():
    # states (1, -1) widened by delta1 = 1/4: u in [-1.25, 1.25]; the chord
    # over that range is the constant f(1.25) = 0.78125, so the region is
    # f(u) - 0.5 < w <= 1.03125, with w = f(u) - u_x
    flux = burgers()

    def margin(state):
        return chord_region_margin(state, flux, 1.0, -1.0, 0.25)

    # the exact wave -tanh(x/2) sits inside, a quarter from the u-range's ends
    assert margin(exact_wave_state()) == pytest.approx(0.25, abs=1e-6)
    # out through the widened u-range: a constant state at 1.4, whose
    # w = f(1.4) = 0.98 lies between both curves
    assert margin(GridFunction(-1.0, 0.1, np.full(21, 1.4))) == pytest.approx(-0.15, rel=1e-12)
    # out through the raised chord: a wave ten times too steep, w = 5 at u = 0
    assert margin(exact_wave_state(width=0.2)) == pytest.approx(1.03125 - 5.0, rel=1e-4)
    # out through the lowered f: an upward step, u_x = 1 at u = 0
    assert margin(exact_wave_state(width=1.0, sign=1.0)) == pytest.approx(-0.5, rel=1e-4)


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
