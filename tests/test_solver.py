"""Conservative solver checks against closed-form viscous solutions."""
import numpy as np
import pytest

from shockzoom import (CENTRAL, LLF, Clamped, GridFunction, InstabilityError,
                       Periodic, SolverConfig, burgers, l1_distance,
                       oleinik_check, periodic_mass, solve)
from shockzoom import solver


def tanh_wave(eps):
    # stationary viscous profile for the symmetric pair (1, -1)
    return lambda x: -np.tanh(np.asarray(x) / (2.0 * eps))


def test_stationary_profile_stays_put():
    eps = 0.5
    data = GridFunction.from_callable(tanh_wave(eps), -10.0, 10.0, 0.02)
    cfg = SolverConfig(eps, Clamped(lambda t: (1.0, -1.0)), flux_scheme=CENTRAL)
    final = solve(data, burgers(), cfg, 1.0, [1.0])[-1][1]
    # pure discretisation error; the exact solution does not move
    assert float(np.max(np.abs(final.values - data.values))) < 2e-4


def test_llf_also_keeps_profile():
    eps = 0.5
    data = GridFunction.from_callable(tanh_wave(eps), -10.0, 10.0, 0.02)
    cfg = SolverConfig(eps, Clamped(lambda t: (1.0, -1.0)), flux_scheme=LLF)
    final = solve(data, burgers(), cfg, 1.0, [1.0])[-1][1]
    # the a*dx/2 numerical viscosity thickens the layer a little
    assert float(np.max(np.abs(final.values - data.values))) < 2e-2


def test_snapshots_land_exactly():
    data = GridFunction.from_callable(np.sin, 0.0, 2.0 * np.pi, 2.0 * np.pi / 128)
    cfg = SolverConfig(0.1, Periodic())
    req = [0.037, 0.2, 0.55]
    snaps = solve(data, burgers(), cfg, req[-1], req)
    assert [t for t, _ in snaps] == req


def test_time_zero_snapshot_is_copy():
    data = GridFunction.from_callable(np.sin, 0.0, 2.0 * np.pi, 2.0 * np.pi / 64)
    snaps = solve(data, burgers(), SolverConfig(0.2, Periodic()), 0.3, [0.0, 0.3])
    assert snaps[0][0] == 0.0
    assert np.array_equal(snaps[0][1].values, data.values)
    assert snaps[0][1].values is not data.values


def test_periodic_mass_conserved_to_roundoff():
    n = 256
    dx = 2.0 * np.pi / n
    x = dx * np.arange(n)
    data = GridFunction(0.0, dx, 0.3 + np.sin(x))
    snaps = solve(data, burgers(), SolverConfig(0.05, Periodic()), 1.5, [1.5])
    drift = abs(periodic_mass(snaps[-1][1]) - periodic_mass(data))
    assert drift < 1e-12


def test_llf_l1_contraction():
    n = 200
    dx = 2.0 * np.pi / n
    x = dx * np.arange(n)
    a = GridFunction(0.0, dx, np.sin(x))
    b = GridFunction(0.0, dx, np.sin(x) + 0.2 * np.cos(3.0 * x))
    cfg = SolverConfig(0.02, Periodic(), flux_scheme=LLF)
    d0 = l1_distance(a, b)
    prev = d0
    for t in (0.3, 0.6, 1.0):
        fa = solve(a, burgers(), cfg, t, [t])[-1][1]
        fb = solve(b, burgers(), cfg, t, [t])[-1][1]
        d = l1_distance(fa, fb)
        assert d <= prev + 1e-12 * d0
        prev = d


def test_instability_raises():
    # central flux with no viscosity is dispersive; once the sine steepens
    # the oscillations grow past the runaway cap
    data = GridFunction.from_callable(np.sin, 0.0, 2.0 * np.pi, 2.0 * np.pi / 128)
    cfg = SolverConfig(0.0, Periodic(), flux_scheme=CENTRAL)
    with pytest.raises(InstabilityError):
        solve(data, burgers(), cfg, 5.0, [5.0])


def test_time_dependent_clamp_tracks_values():
    ends = lambda t: (1.0 + 0.1 * t, -1.0)
    data = GridFunction.from_callable(lambda x: -np.tanh(x), -8.0, 8.0, 0.05)
    cfg = SolverConfig(0.5, Clamped(ends))
    snaps = solve(data, burgers(), cfg, 0.8, [0.4, 0.8])
    for t, g in snaps:
        assert g.values[0] == pytest.approx(ends(t)[0], abs=1e-9)
        assert g.values[-1] == pytest.approx(ends(t)[1], abs=1e-9)


def test_held_ends_keep_initial_values(monkeypatch):
    # no ends(t): the data's own end values stay, exactly, and nothing is called
    def no_call(self, t):
        raise AssertionError("held ends evaluated a boundary")

    monkeypatch.setattr(Clamped, "at", no_call)
    data = GridFunction.from_callable(lambda x: -np.tanh(x + 0.3), -6.0, 6.0, 0.05)
    snaps = solve(data, burgers(), SolverConfig(0.5, Clamped()), 0.3, [0.1, 0.3])
    for _, g in snaps:
        assert g.values[0] == data.values[0]
        assert g.values[-1] == data.values[-1]
        assert not np.array_equal(g.values, data.values)


def test_clamp_evaluated_once_per_step(monkeypatch):
    # the pinned end nodes need the boundary values at the new time only
    seen = []

    def ends(t):
        seen.append(t)
        return 1.0, -1.0

    steps = 0
    stable_dt = solver.stable_dt

    def counted(*args):
        nonlocal steps
        steps += 1
        return stable_dt(*args)

    monkeypatch.setattr(solver, "stable_dt", counted)
    data = GridFunction.from_callable(lambda x: -np.tanh(x), -8.0, 8.0, 0.05)
    solve(data, burgers(), SolverConfig(0.5, Clamped(ends)), 0.3, [0.1, 0.3])
    assert steps > 0
    assert len(seen) == steps
    assert all(b > a for a, b in zip(seen[:-1], seen[1:]))
    assert 0.0 not in seen


def test_oleinik_check_flags_increase():
    g_bad = GridFunction(0.0, 0.1, np.array([0.0, 5.0, 0.0]))
    report = oleinik_check([(1.0, g_bad)], 1.0, tolerance=0.0)
    assert report.violations > 0
    assert not report.passed
    g_ok = GridFunction(0.0, 0.1, np.array([0.0, 0.05, 0.1]))
    report = oleinik_check([(1.0, g_ok)], 1.0, tolerance=0.0)
    assert report.passed
