"""The fifteen acceptance checks, one test per criterion.

``pytest tests/test_acceptance.py -v`` gives one pass/fail line per
criterion; each test also prints its measured numbers (shown with -s, and
for any failure).  Tolerances are pinned here and nowhere else.  The heavy
criteria share module-scoped fixtures so the expensive surrogates are built
once.
"""
import time

import numpy as np
import pytest

from shockzoom import (Clamped, GridFunction, Periodic, SolverConfig, Window,
                       burgers, build_scenario, eternal_z_limit,
                       strip_profile_fit, traveling_wave)
from shockzoom.cli import main
from shockzoom.diagnostics import phase_audit
from shockzoom.experiments import (formation_zoom, health_rows, kuznetsov_sweep,
                                   merging_surrogate, merging_zoom,
                                   single_shock_zoom, suite_cubic_bounds,
                                   suite_oleinik, suite_sandwich)

EPS_TYPE1 = (0.04, 0.02, 0.01)
EPS_TYPE2 = (1e-2, 4e-3, 1.6e-3)


def _say(num, text):
    print(f"criterion {num:02d}: {text}")


def _decreasing(seq):
    return all(b < a for a, b in zip(seq[:-1], seq[1:]))


@pytest.fixture(scope="module")
def cubic_audit():
    t0 = time.perf_counter()
    report, rows = suite_cubic_bounds(nt=100, nx=100)
    return report, rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def merging_bundle():
    scenario = build_scenario("theorem1-merging", burgers())
    t0 = time.perf_counter()
    wave, cauchy = merging_surrogate(
        scenario, taus=(-20.0, -30.0, -40.0),
        window=Window(-6.25, 13.0, -5.0, 5.0), comparison_time=-10.0)
    return {"scenario": scenario, "wave": wave, "cauchy": cauchy,
            "elapsed": time.perf_counter() - t0}


def test_criterion_01_traveling_wave_oracle():
    t0 = time.perf_counter()
    tw = traveling_wave(burgers(), 1.0, -1.0, 20.0, 0.005)
    err = float(np.max(np.abs(tw.profile.values + np.tanh(tw.profile.x / 2.0))))
    elapsed = time.perf_counter() - t0
    _say(1, f"wave oracle sup error {err:.3e} (tol 1e-8), {elapsed:.2f} s")
    assert err <= 1e-8
    assert elapsed < 1.0


def test_criterion_02_cubic_wave_bounds_audit(cubic_audit):
    report, rows, elapsed = cubic_audit
    _say(2, f"{report.n_points} nodes, {report.violations} violations, "
            f"{elapsed:.2f} s")
    assert report.n_points == 10000
    assert report.violations == 0
    assert all(r[3] for r in rows)
    assert elapsed < 1.0


def test_criterion_03_cubic_residual(cubic_audit):
    report, _, _ = cubic_audit
    margin = report.worst["residual"]
    _say(3, f"residual max {report.residual_max:.3e}, worst margin {margin:.3e}")
    assert margin >= 0.0
    assert report.residual_max <= 1e-10 * 51.0


def test_criterion_04_eternal_wave_sandwich():
    t0 = time.perf_counter()
    _, rows = suite_sandwich(n=16.0, dx=0.02, x_check=40.0, times=(-9.0, -4.0, -1.0))
    elapsed = time.perf_counter() - t0
    worst = min(r[2] for r in rows)
    _say(4, f"worst sandwich margin {worst:.3e} over {len(rows)} checks, "
            f"{elapsed:.1f} s")
    assert all(r[3] for r in rows)
    assert elapsed < 120.0


def test_criterion_05_horizon_monotonicity():
    window = Window(-3.5, -1.0, -20.0, 20.0)
    _, report = eternal_z_limit((4.0, 8.0, 16.0), window, dx=0.02)
    n_sampled = len(report.sample_times) * 1001
    _say(5, f"monotone margin {report.monotone_margin:.3e} over ~{n_sampled} "
            f"points, sup diffs {[f'{d:.3e}' for d in report.sup_diffs]}")
    assert n_sampled >= 100
    assert report.monotone_margin >= -1e-4
    assert report.decreasing


def test_criterion_06_merging_cauchy_rate(merging_bundle):
    cauchy = merging_bundle["cauchy"]
    wave = merging_bundle["wave"]
    t0 = time.perf_counter()
    xs = np.arange(-5.0, 5.0 + 0.025, 0.05)
    state = GridFunction(-5.0, 0.05, wave(12.0, xs))
    fit = strip_profile_fit(state, burgers(), 1.0, -1.0)
    elapsed = merging_bundle["elapsed"] + (time.perf_counter() - t0)
    _say(6, f"distances {[f'{d:.3e}' for d in cauchy.distances]}, "
            f"slope {cauchy.log_slope:.3f}, post-merge sup {fit.sup_error:.3e}, "
            f"{elapsed:.1f} s")
    assert cauchy.decreasing
    assert cauchy.log_slope < 0.0
    assert fit.sup_error <= 0.05 * 2.0
    assert elapsed < 300.0


def test_criterion_07_contraction_and_mass():
    worst = []
    for sid in ("theorem1-single", "theorem1-merging", "theorem2-formation"):
        scenario = build_scenario(sid, burgers())
        for name, t, margin, ok in health_rows(scenario, 0.04, seed=0):
            worst.append((sid, name, margin, ok))
    txt = ", ".join(f"{s}/{n} {m:.2e}" for s, n, m, _ in worst)
    _say(7, txt)
    assert all(ok for _, _, _, ok in worst)


def test_criterion_08_one_sided_slope_decay():
    report, rows = suite_oleinik(eps=1.0, n_nodes=1024, times=(0.5, 1.0, 2.0))
    _say(8, f"violations {report.violations}, worst margin "
            f"{report.worst_margin:.3e}")
    assert report.violations == 0
    assert all(r[3] for r in rows)


def test_criterion_09_viscosity_rate_sweep():
    scenario = build_scenario("theorem1-single", burgers())
    t0 = time.perf_counter()
    report = kuznetsov_sweep(scenario, (0.04, 0.02, 0.01, 0.005), n_nodes=4096)
    elapsed = time.perf_counter() - t0
    _say(9, f"L1 slope {report.rate.slope:.4f} (need >= 0.45), {elapsed:.1f} s")
    assert report.rate.slope >= 0.45
    assert elapsed < 600.0


def test_criterion_10_single_shock_zoom():
    scenario = build_scenario("theorem1-single", burgers())
    outcomes = single_shock_zoom(scenario, EPS_TYPE1,
                                 window=Window(-5.0, 5.0, -5.0, 5.0))
    sups = [o.sup_error for o in outcomes]
    _say(10, f"sup errors {[f'{s:.3e}' for s in sups]} (final tol 0.2)")
    assert _decreasing(sups)
    assert sups[-1] <= 0.1 * 2.0


def test_criterion_11_merging_zoom(merging_bundle):
    outcomes = merging_zoom(merging_bundle["scenario"], EPS_TYPE1,
                            merging_bundle["wave"],
                            window=Window(-5.0, 5.0, -5.0, 5.0))
    l1s = [o.l1_error for o in outcomes]
    _say(11, f"L1 errors {[f'{v:.3e}' for v in l1s]}")
    assert _decreasing(l1s)


def test_criterion_12_formation_zoom():
    scenario = build_scenario("theorem2-formation", burgers())
    window = Window(-3.0, 1.0, -4.0, 4.0)
    t0 = time.perf_counter()
    outcomes = formation_zoom(scenario, EPS_TYPE2, 48.0, window=window)
    elapsed = time.perf_counter() - t0
    sups = [o.sup_error for o in outcomes]
    _say(12, f"sup errors {[f'{s:.3e}' for s in sups]}, {elapsed:.1f} s")
    assert _decreasing(sups)
    assert elapsed < 900.0


def test_criterion_13_strip_size_linearity():
    template = traveling_wave(burgers(), 1.0, -1.0, 25.0, 0.005)
    dx = 0.002
    x = np.arange(-15.0, 15.0 + dx / 2, dx)
    bump = np.sin(1.3 * x + 0.4) / np.cosh(x / 2.0)
    ratios = []
    for delta in (0.1, 0.05, 0.025):
        state = GridFunction(-15.0, dx, -np.tanh(x / 2.0) + 0.5 * delta * bump)
        fit = strip_profile_fit(state, burgers(), 1.0, -1.0, template=template)
        ratios.append(fit.sup_error / delta)
    band = max(ratios) / min(ratios)
    _say(13, f"sup_error/delta ratios {[f'{r:.4f}' for r in ratios]}, "
             f"band {band:.3f} (tol 3)")
    assert band <= 3.0


def test_criterion_14_phase_settling():
    dx = 0.05
    half = int(round(30.0 / dx))
    xg = dx * np.arange(-half, half + 1)
    data = GridFunction(-half * dx, dx, np.clip(-2.0 * xg, -1.0, 1.0))
    report = phase_audit(data, burgers(), 0.25, 0.5, SolverConfig(1.0),
                         interval=(-0.5, 0.5))
    worst = min(r[2] for r in report.rows)
    _say(14, f"T1={report.t1:g} T2={report.t2:g}, worst margin {worst:.3e} "
             f"(tolerance 0.05)")
    assert report.t1 == pytest.approx(64.0)
    assert report.t2 == pytest.approx(66.0)
    assert all(r[3] for r in report.rows)


def test_criterion_15_byte_determinism(tmp_path):
    args = ["sweep", "--scenario", "theorem1-single",
            "--eps", "0.08,0.04,0.02", "--set", "sweep.n_nodes=1024"]
    rc1 = main(args + ["--out", str(tmp_path / "a")])
    rc2 = main(args + ["--out", str(tmp_path / "b")])
    assert rc1 == rc2
    zt = ["z-table", "--t", "-1.0", "--x", "-5", "5", "--n", "101"]
    assert main(zt + ["--out", str(tmp_path / "za")]) == 0
    assert main(zt + ["--out", str(tmp_path / "zb")]) == 0
    pairs = [("a", "b", "sweep.csv"), ("a", "b", "audit.csv"),
             ("a", "b", "summary.json"), ("za", "zb", "ztable.csv"),
             ("za", "zb", "summary.json")]
    for d1, d2, name in pairs:
        b1 = (tmp_path / d1 / name).read_bytes()
        b2 = (tmp_path / d2 / name).read_bytes()
        assert b1 == b2, f"{name} differs between reruns"
    _say(15, f"{len(pairs)} file pairs byte-identical across reruns")
