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


def test_step_fraction_must_be_linearly_stable():
    SolverConfig(1.0, cfl_advection=2.2)
    for cfl in (0.0, -0.9, solver.MAX_CFL, 2.3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"cfl_advection must lie in \(0, 2.27\)"):
            SolverConfig(1.0, cfl_advection=cfl)


def amplification(cfl, peclet, theta):
    """|g| of one ARS(2,2,2) step with central advection, per mode theta: the
    von Neumann factor at CFL number cfl and cell Peclet number peclet."""
    g, delta = solver.GAMMA, solver.DELTA
    a = -1j * cfl * np.sin(theta)
    d = -4.0 * (cfl / peclet) * np.sin(theta / 2.0) ** 2
    inner = (1.0 + g * a) / (1.0 - g * d)
    return np.abs((1.0 + (1.0 - g) * d * inner + delta * a + (1.0 - delta) * a * inner)
                  / (1.0 - g * d))


def test_step_is_linearly_stable_below_the_bound():
    # every cell Peclet number the guard admits, at the default fraction, at
    # the zoom march's transit fraction and at the bound SolverConfig keeps
    # below; past it, near Peclet number 2, a mode grows
    theta = np.linspace(0.0, np.pi, 4097)
    for peclet in (1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0, 1.99):
        for cfl in (0.9, 1.8, solver.MAX_CFL):
            assert np.max(amplification(cfl, peclet, theta)) <= 1.0 + 1e-14, (peclet, cfl)
    assert np.max(amplification(2.3, 1.99, theta)) > 1.0


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


def test_step_count_is_capped(monkeypatch):
    data = GridFunction.from_callable(np.sin, 0.0, 2.0 * np.pi, 2.0 * np.pi / 10)
    cfg = SolverConfig(1.0, Periodic())
    # max|f'(u0)| = max|sin| at the nodes, cfl_advection dx per unit speed
    per_unit_time = float(np.max(np.abs(data.values))) / (SolverConfig.cfl_advection * data.dx)
    monkeypatch.setattr(solver, "MAX_STEPS", 10)
    assert len(solve(data, burgers(), cfg, 9.0 / per_unit_time)) == 1
    # a longer horizon is refused before the first step, and so is one that
    # overflows the count
    with pytest.raises(ConfigError, match="steps"):
        solve(data, burgers(), cfg, 11.0 / per_unit_time)
    # twice the step fraction counts half the steps
    twice = SolverConfig(1.0, Periodic(), 2.0 * SolverConfig.cfl_advection)
    assert len(solve(data, burgers(), twice, 19.0 / per_unit_time)) == 1
    with pytest.raises(ConfigError, match="steps"):
        solve(data, burgers(), twice, 21.0 / per_unit_time)
    with pytest.raises(ConfigError, match="steps"):
        solve(data, burgers(), cfg, 1e308)


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
    # fifty times the advective step breaks the explicit flux difference
    # (the implicit viscosity damps a smaller excess); the oscillations grow
    # past the runaway cap, and the error says where
    stable_dt = solver.stable_dt
    monkeypatch.setattr(solver, "stable_dt", lambda *args: 50.0 * stable_dt(*args))
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


def test_steps_are_advective(monkeypatch):
    # implicit viscosity: at unit viscosity on dx = 0.02 every step but a
    # landing is the advective bound, far above the explicit diffusion
    # bound 0.4 dx^2 = 1.6e-4
    seen, bounds = [], []

    def ends(t):
        seen.append(t)
        return 1.0 + t, -1.0

    stable_dt = solver.stable_dt

    def recorded(values, dx, flux, cfg):
        bounds.append(SolverConfig.cfl_advection * dx / np.max(np.abs(values)))
        return stable_dt(values, dx, flux, cfg)

    monkeypatch.setattr(solver, "stable_dt", recorded)
    data = GridFunction.from_callable(lambda x: -np.tanh(x / 2.0), -8.0, 8.0, 0.02)
    targets = [0.25, 0.5]
    solve(data, burgers(), SolverConfig(1.0, Clamped(ends)), 0.5, targets)
    assert len(seen) == len(bounds)
    steps = np.diff([0.0] + seen)
    for t, dt, bound in zip(seen, steps, bounds):
        if t in targets:
            assert 0.0 < dt <= bound
        else:
            assert dt == pytest.approx(bound, rel=1e-12)


@pytest.mark.parametrize("periodic", [False, True])
def test_implicit_solves_match_dense(periodic):
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 7, 40, 300, 2000):
        i = np.arange(n)
        for r in (1e-3, 0.1, 1.0, 10.0, 200.0, 1e3):
            # the Thomas head is 295 nodes at r = 200 and 657 at r = 1e3
            matrix = np.zeros((n, n))
            np.add.at(matrix, (i, i), 1.0 + 2.0 * r)
            if periodic:
                np.add.at(matrix, (i, (i - 1) % n), -r)
                np.add.at(matrix, (i, (i + 1) % n), -r)
            else:
                matrix[i[1:], i[:-1]] = matrix[i[:-1], i[1:]] = -r
            d = rng.standard_normal(n)
            if periodic:
                x = solver.solve_circulant(d, r)
            else:
                x = solver.TridiagonalInverse(d.size, r).solve(d, (0.0, 0.0))[1:-1]
            want = np.linalg.solve(matrix, d)
            # the forward error of a stable solve, LAPACK's included, grows
            # with the condition number 1 + 4r: 1e-13 up to r = 200, in
            # proportion beyond
            tol = 1e-13 * max(1.0, r / 200.0)
            assert np.max(np.abs(x - want)) <= tol * np.max(np.abs(want)), (n, r)


def _dense_ars222(u, dx, flux, nu, dt, periodic, now, new):
    """One ARS(2,2,2) step by dense solves and an explicit Laplacian.

    ``u`` is the marched state: every node when periodic, else the interior
    between ``now`` (its ends at t) and ``new`` (at t + dt)."""
    n = u.size
    i = np.arange(n)
    lap = np.zeros((n, n))
    np.add.at(lap, (i, i), -2.0 / dx ** 2)
    if periodic:
        np.add.at(lap, (i, (i - 1) % n), 1.0 / dx ** 2)
        np.add.at(lap, (i, (i + 1) % n), 1.0 / dx ** 2)
    else:
        lap[i[1:], i[:-1]] = lap[i[:-1], i[1:]] = 1.0 / dx ** 2
    g, d = solver.GAMMA, solver.DELTA
    implicit = np.eye(n) - g * dt * nu * lap

    def ghosts(v, ends):
        # the Laplacian's boundary terms, and v between its neighbours
        b = np.zeros(n)
        if periodic:
            return b, np.concatenate([v[-1:], v, v[:1]])
        b[0], b[-1] = ends[0] / dx ** 2, ends[1] / dx ** 2
        return b, np.concatenate([[ends[0]], v, [ends[1]]])

    def rate(v, ends):
        b, w = ghosts(v, ends)
        return -(flux.f(w[2:]) - flux.f(w[:-2])) / (2.0 * dx), nu * (lap @ v + b)

    mid = None if periodic else [a + g * (c - a) for a, c in zip(now, new)]
    k1, _ = rate(u, now)
    inner = np.linalg.solve(implicit, u + g * dt * k1 + g * dt * nu * ghosts(u, mid)[0])
    k2, diffusion = rate(inner, mid)
    rhs = u + dt * (d * k1 + (1.0 - d) * k2 + (1.0 - g) * diffusion)
    return np.linalg.solve(implicit, rhs + g * dt * nu * ghosts(u, new)[0])


@pytest.mark.parametrize("case", ["periodic", "held", "moving"])
def test_step_matches_dense_reference(case):
    # one step at an advective dt, against dense ARS(2,2,2) with the
    # Laplacian written out; r = GAMMA dt nu / dx^2 is about 0.7 here
    nu, dx, t = 0.2, 0.05, 0.3
    x = -4.0 + dx * np.arange(161)
    u = 0.4 - np.tanh(2.0 * x) + 0.1 * np.sin(3.0 * x)
    if case == "periodic":
        u, boundary = u[:-1], Periodic()
    else:
        boundary = Clamped() if case == "held" else Clamped(lambda s: (1.4 + s, -0.6 - s))
    cfg = SolverConfig(nu, boundary)
    dt = solver.stable_dt(u, dx, burgers(), cfg)
    got = solver._ars222(u, dx, burgers(), cfg, dt, t)
    if case == "periodic":
        want = _dense_ars222(u, dx, burgers(), nu, dt, True, None, None)
    else:
        now = (u[0], u[-1])
        new = now if case == "held" else boundary.at(t + dt)
        want = np.concatenate([[new[0]], _dense_ars222(u[1:-1], dx, burgers(), nu, dt,
                                                       False, now, new), [new[1]]])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), case


def test_oleinik_check_flags_increase():
    g_bad = GridFunction(0.0, 0.1, np.array([0.0, 5.0, 0.0]))
    report = oleinik_check([(1.0, g_bad)], 1.0, tolerance=0.0)
    assert report.violations > 0
    g_ok = GridFunction(0.0, 0.1, np.array([0.0, 0.05, 0.1]))
    report = oleinik_check([(1.0, g_ok)], 1.0, tolerance=0.0)
    assert report.violations == 0
