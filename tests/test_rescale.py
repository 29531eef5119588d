"""Zoom frames, snapshot interpolation, and the fitting helpers."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockzoom import (ConfigError, FormationPoint, GridFunction,
                       NoCrossingError, OutOfDomainError, RescaleFrame,
                       SnapshotInterpolant, burgers, burgers_plus_linear,
                       convergence_rate, fit_formation_frame, fit_shift,
                       quartic_perturbed)


def test_frame_exponents():
    f1 = RescaleFrame.type1(2.0, 3.0, 0.01)
    assert (f1.alpha, f1.beta, f1.gamma) == (1.0, 1.0, 0.0)
    f2 = RescaleFrame.type2(2.0, 3.0, 0.01)
    assert (f2.alpha, f2.beta, f2.gamma) == (0.5, 0.75, 0.25)
    with pytest.raises(ValueError):
        RescaleFrame.type1(0.0, 0.0, -0.1)


def test_frame_maps_and_rescales():
    f = RescaleFrame.type2(1.0, -2.0, 0.0016, u_center=0.5)
    t_phys, x_phys = f.to_physical(1.0, 1.0)
    assert t_phys == pytest.approx(1.0 + 0.0016 ** 0.5)
    assert x_phys == pytest.approx(-2.0 + 0.0016 ** 0.75)
    # amplitude gain eps^(-1/4)
    assert f.rescale_values(0.5 + 0.0016 ** 0.25) == pytest.approx(1.0, rel=1e-12)


def test_frame_sampling_roundtrip():
    # the physical coordinate itself, read at the (times x points) of a zoom
    # and rescaled, must be the observation coordinate plus the frame offset
    # scaling, on every row
    f = RescaleFrame.type1(0.0, 1.0, 0.25)
    y = GridFunction.from_callable(lambda x: 0.0 * x, -2.0, 2.0, 0.5).x
    t_phys, x_phys = f.to_physical(np.array([0.0, 1.0])[:, None], y)
    assert np.array_equal(t_phys[:, 0], [0.0, 0.25])
    rows = f.rescale_values(x_phys)
    assert rows.shape == (2, y.size)
    for row in rows:
        assert np.allclose(row, 1.0 + 0.25 * y, atol=1e-14)


def test_type2_frame_carries_formation_normalisation():
    # sigma != 1 and lam != 0: the frame must reproduce the hand-written
    # formation mapping t = tau + sqrt(e) s / sigma, x = xi + lam (t - tau)
    # + e^(3/4) y, v = e^(-1/4) f''(u_c) / sigma * (u - u_c), e = eps / sigma
    flux = burgers_plus_linear(0.5)
    point = FormationPoint(1.0, 0.2, 0.3, -6.0 / 2.0 ** 3)
    eps = 0.004
    frame = fit_formation_frame(point, flux, eps)
    # c = 2 and f'' = 1, so sigma = 2; lam = f'(0.3) = 0.8
    sigma, lam = frame.time_scale, frame.drift
    assert sigma == pytest.approx(2.0, rel=1e-12) and lam == pytest.approx(0.8, rel=1e-12)
    assert (frame.tau_eps, frame.xi_eps, frame.eps) == (point.tau, point.xi, eps)
    eps_eff = eps / sigma
    amp = eps_eff ** -0.25 * 1.0 / sigma
    y = np.linspace(-3.0, 3.0, 13)

    def field(t, x):
        return 0.3 - 0.2 * np.tanh(x - 0.5 * t)

    # the zoom's rows: one per time, read at that time's physical points
    s_grid = np.array([-2.0, 0.0, 0.75])
    t_rows, x_rows = frame.to_physical(s_grid[:, None], y)
    rows = frame.rescale_values(field(t_rows, x_rows))
    for s, t_frame, x_frame, row in zip(s_grid, t_rows[:, 0], x_rows, rows):
        tp = point.tau + math.sqrt(eps_eff) * s / sigma
        xp = point.xi + lam * (tp - point.tau) + eps_eff ** 0.75 * y
        assert float(t_frame) == pytest.approx(tp, rel=1e-15)
        assert np.allclose(x_frame, xp, rtol=1e-15, atol=0.0)
        assert np.allclose(row, amp * (field(tp, xp) - point.u_value),
                           rtol=1e-12, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(-3.0, 3.0))
def test_fit_shift_recovers_translation(s0):
    template = lambda x: -np.tanh(np.asarray(x) / 2.0)
    prof = GridFunction.from_callable(lambda x: template(x - s0), -12.0, 12.0, 0.01)
    fit = fit_shift(prof, template, 0.0)
    assert fit.shift == pytest.approx(s0, abs=1e-6)
    assert fit.sup_error < 1e-6


def test_fit_shift_needs_a_crossing():
    prof = GridFunction.from_callable(lambda x: 1.0 + 0.0 * x, -1.0, 1.0, 0.1)
    with pytest.raises(NoCrossingError):
        fit_shift(prof, lambda x: -np.tanh(x), 0.0)


def test_formation_frame_canonical():
    frame = fit_formation_frame(FormationPoint(1.0, 0.0, 0.0, -6.0), burgers(), 0.01)
    assert (frame.alpha, frame.beta, frame.gamma) == (0.5, 0.75, 0.25)
    assert (frame.tau_eps, frame.xi_eps, frame.eps, frame.u_center) == (1.0, 0.0, 0.01, 0.0)
    assert frame.time_scale == pytest.approx(1.0)
    assert frame.drift == pytest.approx(0.0)
    assert frame.value_scale == 1.0


def test_formation_frame_scalings():
    # x = -(u/c)^3 means x_uuu = -6 / c^3
    c = 2.0
    cases = [
        # f'' = 1: sigma = c, lam = f'(u_c) = u_c
        (burgers(), 0.3, c, 0.3, 1.0),
        # f = u^2/2 + u^4: f''(1/2) = 4 and f'(1/2) = 1, so sigma = 4 c
        (quartic_perturbed(1.0), 0.5, 4.0 * c, 1.0, 4.0)]
    for flux, u_c, sigma, lam, f2 in cases:
        frame = fit_formation_frame(FormationPoint(1.0, 0.0, u_c, -6.0 / c ** 3), flux, 0.01)
        assert frame.u_center == u_c
        assert frame.time_scale == pytest.approx(sigma, rel=1e-12)
        assert frame.drift == pytest.approx(lam, rel=1e-12)
        assert frame.value_scale == pytest.approx(f2, rel=1e-12)


def test_formation_frame_rejects_degenerate():
    for x_uuu in (6.0, 0.0, float("nan")):
        with pytest.raises(ConfigError, match="need x_uuu < 0"):
            fit_formation_frame(FormationPoint(1.0, 0.0, 0.0, x_uuu), burgers(), 0.01)


def test_convergence_rate_exact_power():
    eps = [0.04, 0.02, 0.01, 0.005]
    errs = [3.7 * e ** 0.8 for e in eps]
    fit = convergence_rate(eps, errs)
    assert fit.slope == pytest.approx(0.8, abs=1e-12)
    assert np.exp(fit.intercept) == pytest.approx(3.7, rel=1e-12)
    assert fit.residual < 1e-12


def test_convergence_rate_validation():
    with pytest.raises(ValueError):
        convergence_rate([0.1, 0.2, 0.3], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        convergence_rate([0.1, 0.05], [1.0, 1.0])
    with pytest.raises(ValueError, match="must be positive for a log-log fit"):
        convergence_rate([0.1, 0.05, 0.025], [1.0, -1.0, 1.0])


def test_interpolant_bilinear():
    g0 = GridFunction(0.0, 1.0, np.array([0.0, 1.0, 2.0]))
    g1 = GridFunction(0.0, 1.0, np.array([2.0, 3.0, 4.0]))
    interp = SnapshotInterpolant([(0.0, g0), (1.0, g1)])
    assert interp(0.0, 0.5) == pytest.approx(0.5)
    assert interp(0.5, 0.0) == pytest.approx(1.0)
    assert interp(0.25, 1.5) == pytest.approx(2.0)
    with pytest.raises(OutOfDomainError):
        interp(2.0, 0.0)
    with pytest.raises(OutOfDomainError):
        interp(0.5, 5.0)


def test_interpolant_needs_matching_grids():
    g0 = GridFunction(0.0, 1.0, np.array([0.0, 1.0, 2.0]))
    g1 = GridFunction(0.0, 0.5, np.array([2.0, 3.0, 4.0]))
    with pytest.raises(ValueError):
        SnapshotInterpolant([(0.0, g0), (1.0, g1)])


def test_interpolant_time_arrays_match_scalar_calls():
    # snapshots every 1/8 on [-1, 1]; each scalar call is checked against
    # the bilinear formula, and a time array against the stacked calls
    times = -1.0 + 0.125 * np.arange(17)
    x_nodes = np.linspace(-3.0, 3.0, 61)
    snaps = [(t, GridFunction(-3.0, 0.1, np.tanh(x_nodes - t) + 0.3 * t * np.sin(x_nodes)))
             for t in times]
    interp = SnapshotInterpolant(snaps)
    x = np.linspace(-2.95, 2.95, 37)
    slack = interp.slack

    def at(j):
        return np.interp(x, snaps[j][1].x, snaps[j][1].values)

    def bilinear(t):
        j = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), len(times) - 1)
        if j == len(times) - 1 or times[j] == t:
            return at(j)
        w = (t - times[j]) / (times[j + 1] - times[j])
        return (1.0 - w) * at(j) + w * at(j + 1)

    kinds = {
        "lattice": times[3:12],
        # steps of 1/64, so every eighth time is a lattice time
        "off-lattice": -1.0 + np.arange(129) / 64.0,
        "ends": np.array([times[0], times[-1], times[-1], times[0]]),
        "slack": np.array([times[0] - 0.5 * slack, times[0] + 0.5 * slack,
                           times[-1] - 0.5 * slack, times[-1] + 0.5 * slack]),
    }
    for kind, ts in kinds.items():
        rows = np.array([interp(float(t), x) for t in ts])
        assert rows.shape == (ts.size, x.size), kind
        assert np.array_equal(interp(ts, x), rows), kind
        assert np.array_equal(rows, np.array([bilinear(float(t)) for t in ts])), kind
    # the result takes the shape of t, then of x
    assert interp(kinds["lattice"][:8].reshape(2, 4), x).shape == (2, 4, x.size)
    for bad in (times[0] - 2.0 * slack, times[-1] + 2.0 * slack):
        with pytest.raises(OutOfDomainError):
            interp(np.array([0.0, bad, 0.5]), x)
    with pytest.raises(OutOfDomainError):
        interp(kinds["lattice"], np.array([0.0, 3.0 + 2.0 * slack]))
