"""Conservative solver checks against closed-form viscous solutions."""
import numpy as np
import pytest

from shockzoom import (Clamped, ConfigError, GridFunction, InstabilityError, Periodic,
                       SolverConfig, burgers, l1_distance, oleinik_check, periodic_mass,
                       solve)
from shockzoom import solver


def tanh_wave(eps):
    # stationary viscous profile for the symmetric pair (1, -1)
    return lambda x: -np.tanh(np.asarray(x) / (2.0 * eps))


def test_stationary_profile_stays_put():
    eps = 0.5
    data = GridFunction.from_callable(tanh_wave(eps), -10.0, 10.0, 0.02)
    cfg = SolverConfig(eps, Clamped(lambda t: (1.0, -1.0)))
    final = solve(data, burgers(), cfg, 1.0, [1.0])[-1][1]
    # pure discretisation error; the exact solution does not move
    assert float(np.max(np.abs(final.values - data.values))) < 2e-4


def test_moving_wave_converges_at_second_order():
    # the exact traveling wave between 1.5 and -0.5 moves at speed 0.5
    eps = 0.5

    def exact(t, x):
        return 0.5 - np.tanh((np.asarray(x) - 0.5 * t) / (2.0 * eps))

    ends = lambda t: (float(exact(t, -12.0)), float(exact(t, 12.0)))
    errors = []
    for dx in (0.08, 0.04, 0.02):
        data = GridFunction.from_callable(lambda x: exact(0.0, x), -12.0, 12.0, dx)
        final = solve(data, burgers(), SolverConfig(eps, Clamped(ends)), 1.0)[-1][1]
        errors.append(float(np.max(np.abs(final.values - exact(1.0, final.x)))))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 1.8), (errors, orders)


def test_viscosity_must_be_positive():
    for nu in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="viscosity"):
            SolverConfig(nu)


def test_coarse_grid_fails_the_peclet_guard():
    # max|u| = 1 on dx = 0.25 needs viscosity above 0.125
    data = GridFunction.from_callable(lambda x: -np.tanh(x), -4.0, 4.0, 0.25)
    solve(data, burgers(), SolverConfig(0.13, Clamped()), 0.1)
    with pytest.raises(ConfigError, match=r"Peclet number 2.* dx=0.25, viscosity=0.12"):
        solve(data, burgers(), SolverConfig(0.12, Clamped()), 0.1)


def test_snapshot_memory_is_capped(monkeypatch):
    data = GridFunction.from_callable(np.sin, 0.0, 2.0 * np.pi, 2.0 * np.pi / 10)
    cfg = SolverConfig(1.0, Periodic())
    monkeypatch.setattr(solver, "MAX_SNAPSHOT_VALUES", 10 * data.n)
    times = list(np.linspace(0.01, 0.1, 10))
    assert len(solve(data, burgers(), cfg, 0.1, times)) == 10
    # one more snapshot is refused before the first step
    with pytest.raises(ConfigError, match="snapshots"):
        solve(data, burgers(), cfg, 0.11, times + [0.11])


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


def test_l1_contraction():
    n = 200
    dx = 2.0 * np.pi / n
    x = dx * np.arange(n)
    a = GridFunction(0.0, dx, np.sin(x))
    b = GridFunction(0.0, dx, np.sin(x) + 0.2 * np.cos(3.0 * x))
    cfg = SolverConfig(0.02, Periodic())
    d0 = l1_distance(a, b)
    prev = d0
    for t in (0.3, 0.6, 1.0):
        fa = solve(a, burgers(), cfg, t, [t])[-1][1]
        fb = solve(b, burgers(), cfg, t, [t])[-1][1]
        d = l1_distance(fa, fb)
        assert d <= prev + 1e-12 * d0
        prev = d


def test_instability_raises(monkeypatch):
    # four times the stable step breaks the explicit diffusion bound; the
    # oscillations grow past the runaway cap, and the error says where
    stable_dt = solver.stable_dt
    monkeypatch.setattr(solver, "stable_dt", lambda *args: 4.0 * stable_dt(*args))
    data = GridFunction.from_callable(np.sin, 0.0, 2.0 * np.pi, 2.0 * np.pi / 128)
    with pytest.raises(InstabilityError,
                       match=r"at step \d+, t=[\d.]+, dt=[\d.e-]+: max\|u\|=.* at x=[\d.-]+ "):
        solve(data, burgers(), SolverConfig(0.1, Periodic()), 5.0, [5.0])


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
