"""Command-line front end.

Subcommands::

    run       scenario pipeline: solve, zoom, fit, audit -> CSVs + summary.json
    sweep     vanishing-viscosity rate sweep against the exact reference
    audit     named analytic/numerical audit suites
    z-table   cubic-wave values and derivatives on a grid
    profile   traveling-wave profile dump
    merge     two-shock interaction wave construction + settling report
    zlimit    eternal-wave horizon family + monotonicity report

Configuration is a flat list of dotted ``key = value`` pairs (see
``--dump-defaults``); any key can be overridden on the command line with
``--set key=value``.  Exit codes: 0 all checks passed, 1 a check failed,
2 configuration error, 3 solver instability.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import experiments, io
from .errors import ConfigError, InstabilityError, NotConvergedError, ShockzoomError
from .diagnostics import phase_audit
from .flux import FluxModel, burgers, make_flux
from .grid import GridFunction, Window
from .inviscid import z_eval
from .profiles import eternal_z_limit, traveling_wave
from .scenarios import SCENARIO_IDS, Scenario, build_scenario
from .solver import CENTRAL, LLF, Clamped, Periodic, SolverConfig

DEFAULTS: Dict[str, str] = {
    "flux.name": "burgers",
    "flux.b": "0.0",
    "flux.kappa": "0.0",
    "run.scenario": "theorem1-single",
    "run.eps": "0.04,0.02,0.01",
    "run.eps2": "0.01,0.004",
    "run.out": "out",
    "run.seed": "0",
    "run.threads": "0",  # still accepted in configs; studies run in one thread
    "scenario.tau": "1.0",
    "scenario.u_minus": "1.0",
    "scenario.u_star": "0.0",
    "scenario.u_plus": "-1.0",
    "scenario.ramp_width": "",
    "scenario.amplitude": "1.0",
    "scenario.clamp_radius": "2.5",
    "window.t_min": "-5.0",
    "window.t_max": "5.0",
    "window.x_min": "-5.0",
    "window.x_max": "5.0",
    "window2.t_min": "-3.0",
    "window2.t_max": "1.0",
    "window2.x_min": "-4.0",
    "window2.x_max": "4.0",
    "zoom.nt": "21",
    "zoom.ny": "401",
    "zoom2.nt": "17",
    "zoom2.ny": "321",
    "grid.base_divisor": "8.0",
    "grid.dx_hat": "0.04",
    "solver.scheme": "central",
    "sweep.t_check": "",
    "sweep.n_nodes": "4096",
    "sweep.min_slope": "0.45",
    "merge.taus": "-20.0,-30.0,-40.0",
    "merge.comparison_time": "-10.0",
    "merge.dx": "0.05",
    "merge.nt": "23",
    "zref.n": "32.0",
    "zref.dx": "0.04",
    "zref.x_max": "60.0",
    "zlimit.n_list": "4.0,8.0,16.0",
    "zlimit.tol": "0.05",
    "zlimit.dx": "0.02",
    "zlimit.t_min": "-3.5",
    "zlimit.t_max": "-1.0",
    "zlimit.x_max": "20.0",
    "audit.suite": "lemma81",
    "ztable.n": "2001",
}


class Config:
    """Flat dotted key-value store with typed, validating accessors."""

    def __init__(self, values: Dict[str, str]):
        for key in values:
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key: {key}")
        merged = dict(DEFAULTS)
        merged.update(values)
        self.values = merged

    def str(self, key: str) -> str:
        return self.values[key]

    def float(self, key: str) -> float:
        try:
            return float(self.values[key])
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {self.values[key]!r}")

    def positive(self, key: str) -> float:
        val = self.float(key)
        if not 0.0 < val < math.inf:
            raise ConfigError(f"{key}: need a positive number, got {self.values[key]!r}")
        return val

    def opt_float(self, key: str) -> Optional[float]:
        return None if self.values[key] == "" else self.float(key)

    def int(self, key: str, minimum: Optional[int] = None) -> int:
        try:
            val = int(self.values[key])
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {self.values[key]!r}")
        if minimum is not None and val < minimum:
            raise ConfigError(f"{key}: need at least {minimum}, got {val}")
        return val

    def floats(self, key: str) -> List[float]:
        raw = self.values[key]
        try:
            vals = [float(tok) for tok in raw.split(",") if tok != ""]
        except ValueError:
            raise ConfigError(f"{key}: expected comma-separated numbers, got {raw!r}")
        if not vals:
            raise ConfigError(f"{key}: expected at least one number")
        return vals

    def eps_list(self, key: str, minimum: int = 1) -> List[float]:
        vals = self.floats(key)
        if len(vals) < minimum:
            raise ConfigError(f"{key}: need at least {minimum} values")
        if any(v <= 0.0 for v in vals):
            raise ConfigError(f"{key}: viscosities must be positive")
        if any(b >= a for a, b in zip(vals[:-1], vals[1:])):
            raise ConfigError(f"{key}: viscosities must be strictly decreasing")
        return vals

    def scheme(self) -> str:
        name = self.values["solver.scheme"]
        if name == "central":
            return CENTRAL
        if name in (LLF, "llf"):
            return LLF
        raise ConfigError(f"solver.scheme: unknown scheme {name!r}")


def load_config(path: Optional[str], sets: Sequence[str]) -> Config:
    values: Dict[str, str] = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        for ln in p.read_text().split("\n"):
            stripped = ln.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"bad config line (need key = value): {ln!r}")
            key, _, val = stripped.partition("=")
            values[key.strip()] = val.strip()
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, _, val = item.partition("=")
        values[key.strip()] = val.strip()
    return Config(values)


def _flux(cfg: Config) -> FluxModel:
    name = cfg.str("flux.name")
    try:
        # each flux parses only the parameters it uses
        return make_flux(name, b=cfg.str("flux.b"), kappa=cfg.str("flux.kappa"))
    except KeyError:
        raise ConfigError(f"flux.name: unknown flux {name!r}")
    except ValueError as e:
        raise ConfigError(f"flux {name!r}: {e}")


def make_scenario(cfg: Config, scenario_id: str) -> Scenario:
    flux = _flux(cfg)
    if scenario_id not in SCENARIO_IDS:
        raise ConfigError(f"run.scenario: unknown scenario {scenario_id!r}")
    kw = dict(tau=cfg.float("scenario.tau"))
    try:
        if scenario_id == "theorem1-single":
            kw.update(u_minus=cfg.float("scenario.u_minus"),
                      u_plus=cfg.float("scenario.u_plus"))
            rw = cfg.opt_float("scenario.ramp_width")
            if rw is not None:
                kw["ramp_width"] = rw
        elif scenario_id == "theorem1-merging":
            kw.update(u_minus=cfg.float("scenario.u_minus"),
                      u_star=cfg.float("scenario.u_star"),
                      u_plus=cfg.float("scenario.u_plus"))
            rw = cfg.opt_float("scenario.ramp_width")
            if rw is not None:
                kw["ramp_width"] = rw
        else:
            kw.update(amplitude=cfg.float("scenario.amplitude"),
                      clamp_radius=cfg.float("scenario.clamp_radius"))
        return build_scenario(scenario_id, flux, **kw)
    except ValueError as e:
        raise ConfigError(f"scenario parameters: {e}")


def _window(prefix: str, t_min: float, t_max: float, x_min: float,
            x_max: float) -> Window:
    try:
        return Window(t_min, t_max, x_min, x_max)
    except ValueError as e:
        raise ConfigError(f"{prefix}: {e}")


def _config_window(cfg: Config, prefix: str) -> Window:
    return _window(prefix, cfg.float(f"{prefix}.t_min"), cfg.float(f"{prefix}.t_max"),
                   cfg.float(f"{prefix}.x_min"), cfg.float(f"{prefix}.x_max"))


def _out_dir(cfg: Config, override: Optional[str]) -> Path:
    out = Path(override if override is not None else cfg.str("run.out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _strictly_decreasing(values: Sequence[float]) -> bool:
    return all(b < a for a, b in zip(values[:-1], values[1:]))


def _health_rows(scenario: Scenario, eps: float, seed: int) -> list:
    """Cheap conservation/contraction audit on coarsened scenario data."""
    lo, hi = scenario.domain
    dx = (hi - lo) / 800.0
    data = experiments.scenario_grid(scenario, dx)
    rng = np.random.default_rng(seed)
    center = rng.uniform(lo + 0.3 * (hi - lo), lo - 0.7 * (lo - hi))
    bump = 0.05 * np.exp(-((data.x - center) / (0.05 * (hi - lo))) ** 2)
    other = data.with_values(data.values + bump)
    cfg = SolverConfig(eps, Clamped(float(data.values[0]), float(data.values[-1])))
    horizon = min(0.5, 0.5 * scenario.tau)
    contraction = experiments.contraction_check(
        data, other, scenario.flux, cfg, list(np.linspace(0.0, horizon, 6)))
    rows = [("contraction", contraction.times[-1], 1e-3 - contraction.relative_slack,
             contraction.relative_slack <= 1e-3)]
    n = 512
    dxp = (hi - lo) / n
    xp = lo + dxp * np.arange(n)
    mid = float(np.mean(data.values))
    amp = 0.5 * (float(np.max(data.values)) - float(np.min(data.values))) or 1.0
    per = GridFunction(lo, dxp, mid + 0.3 * amp * np.sin(2.0 * np.pi * (xp - lo) / (hi - lo)))
    mass = experiments.mass_drift_check(per, scenario.flux,
                                        SolverConfig(eps, Periodic()),
                                        list(np.linspace(0.0, horizon, 6)))
    rows.append(("mass-drift", mass.times[-1], 1e-10 - mass.drift_rate,
                 mass.drift_rate <= 1e-10))
    return rows


def _zoom_settings(cfg: Config, scheme: str) -> dict:
    """Keyword arguments of the type-1 zooms."""
    return dict(window=_config_window(cfg, "window"),
                nt=cfg.int("zoom.nt", minimum=1), ny=cfg.int("zoom.ny", minimum=2),
                base_divisor=cfg.positive("grid.base_divisor"), scheme=scheme)


def cmd_run(cfg: Config, out_override: Optional[str]) -> int:
    scenario_id = cfg.str("run.scenario")
    scenario = make_scenario(cfg, scenario_id)
    out = _out_dir(cfg, out_override)
    scheme = cfg.scheme()
    seed = cfg.int("run.seed")
    checks: list = []

    # every setting is read, and so checked, before the first solve
    if scenario.kind == "shock_formation":
        eps = cfg.eps_list("run.eps2", minimum=2)
        window = _config_window(cfg, "window2")
        nt = cfg.int("zoom2.nt", minimum=1)
        ny = cfg.int("zoom2.ny", minimum=2)
        dx_hat = cfg.positive("grid.dx_hat")
        n = cfg.positive("zref.n")
        if window.t_min < -n:
            raise ConfigError("zref.n: window2.t_min lies before the launch time -zref.n")
        z_wave = experiments.eternal_z(
            n, window, SolverConfig(1.0, flux_scheme=scheme),
            dx=cfg.positive("zref.dx"), x_max=cfg.positive("zref.x_max"),
            snapshot_times=list(window.t_samples(nt)))
        outcomes = experiments.formation_zoom(
            scenario, eps, z_wave, window=window, nt=nt, ny=ny, dx_hat=dx_hat,
            scheme=scheme)
        sups = [o.sup_error for o in outcomes]
        checks.append(("sup-decreasing", eps[-1],
                       min(a - b for a, b in zip(sups[:-1], sups[1:])),
                       _strictly_decreasing(sups)))
    elif scenario.kind == "merging_shocks":
        eps = cfg.eps_list("run.eps", minimum=2)
        zoom = _zoom_settings(cfg, scheme)
        window = zoom["window"]
        # the surrogate must cover the zoom window plus the shift search range
        pad = experiments.SHIFT_RANGE + 0.25
        wave, cauchy = experiments.merging_surrogate(
            scenario, taus=cfg.floats("merge.taus"),
            window=Window(window.t_min - pad, window.t_max + pad,
                          window.x_min - pad, window.x_max + pad),
            comparison_time=cfg.float("merge.comparison_time"),
            dx=cfg.positive("merge.dx"))
        outcomes = experiments.merging_zoom(scenario, eps, wave, **zoom)
        l1s = [o.l1_error for o in outcomes]
        checks.append(("l1-decreasing", eps[-1],
                       min(a - b for a, b in zip(l1s[:-1], l1s[1:])),
                       _strictly_decreasing(l1s)))
        checks.append(("cauchy-decreasing", cauchy.comparison_time,
                       -cauchy.log_slope, cauchy.decreasing))
    else:
        eps = cfg.eps_list("run.eps", minimum=2)
        outcomes = experiments.single_shock_zoom(scenario, eps,
                                                 **_zoom_settings(cfg, scheme))
        sups = [o.sup_error for o in outcomes]
        jump = scenario.states[0] - scenario.states[-1]
        checks.append(("sup-decreasing", eps[-1],
                       min(a - b for a, b in zip(sups[:-1], sups[1:])),
                       _strictly_decreasing(sups)))
        checks.append(("final-sup", eps[-1], 0.1 * jump - sups[-1],
                       sups[-1] <= 0.1 * jump))

    checks.extend(_health_rows(scenario, eps[0], seed))
    io.write_sweep(out / "sweep.csv", outcomes)
    io.write_audit(out / "audit.csv", checks)
    passed = all(c[3] for c in checks)
    payload = {
        "command": "run",
        "config": cfg.values,
        "scenario": scenario_id,
        "eps": eps,
        "outcomes": [{"eps": o.eps, "sup_error": o.sup_error,
                      "l1_error": o.l1_error, "shift": o.shift,
                      "shift_t": o.shift_t} for o in outcomes],
        "checks": [{"name": c[0], "t": c[1], "margin": c[2], "pass": bool(c[3])}
                   for c in checks],
        "passed": passed,
    }
    io.write_summary(out / "summary.json", payload)
    return 0 if passed else 1


def cmd_sweep(cfg: Config, out_override: Optional[str]) -> int:
    scenario_id = cfg.str("run.scenario")
    scenario = make_scenario(cfg, scenario_id)
    if scenario.kind == "shock_formation":
        raise ConfigError("run.scenario: rate sweeps need an exact shocked reference")
    n_nodes = cfg.int("sweep.n_nodes", minimum=2)
    t_check = cfg.opt_float("sweep.t_check")
    if t_check is not None and not t_check > 0.0:
        raise ConfigError("sweep.t_check: need a positive time")
    out = _out_dir(cfg, out_override)
    eps = cfg.eps_list("run.eps", minimum=3)
    report = experiments.kuznetsov_sweep(
        scenario, eps, t_check=t_check, n_nodes=n_nodes, scheme=cfg.scheme())
    min_slope = cfg.float("sweep.min_slope")
    pw = {e: err for e, err, _ in report.pointwise}
    rows = [experiments.ZoomOutcome(e, pw.get(e, 0.0), l1, 0.0)
            for e, l1 in zip(report.eps_list, report.l1_errors)]
    io.write_sweep(out / "sweep.csv", rows)
    checks = [
        {"name": "l1-slope", "t": 0.0, "margin": report.rate.slope - min_slope,
         "pass": bool(report.rate.slope >= min_slope)},
        {"name": "pointwise-band", "t": 0.0,
         "margin": min((allow - err for _, err, allow in report.pointwise),
                       default=0.0),
         "pass": bool(report.pointwise_ok)},
    ]
    passed = all(c["pass"] for c in checks)
    io.write_summary(out / "summary.json", {
        "command": "sweep", "config": cfg.values, "scenario": scenario_id,
        "eps": list(report.eps_list), "l1_errors": list(report.l1_errors),
        "slope": report.rate.slope, "intercept": report.rate.intercept,
        "residual": report.rate.residual, "checks": checks, "passed": passed,
    })
    io.write_audit(out / "audit.csv",
                   [(c["name"], c["t"], c["margin"], c["pass"]) for c in checks])
    return 0 if passed else 1


def cmd_audit(cfg: Config, out_override: Optional[str]) -> int:
    suite = cfg.str("audit.suite")
    out = _out_dir(cfg, out_override)
    if suite == "lemma81":
        report, rows = experiments.suite_cubic_bounds()
        extra = {"n_points": report.n_points, "violations": report.violations,
                 "residual_max": report.residual_max}
        passed = report.passed
    elif suite == "zbo":
        _, rows = experiments.suite_sandwich()
        extra = {}
        passed = all(r[3] for r in rows)
    elif suite == "oleinik":
        report, rows = experiments.suite_oleinik()
        extra = {"violations": report.violations,
                 "worst_margin": report.worst_margin}
        passed = report.passed
    elif suite == "phase":
        rows, extra = _phase_suite()
        passed = all(r[3] for r in rows)
    else:
        raise ConfigError(f"audit.suite: unknown suite {suite!r}")
    io.write_audit(out / "audit.csv", rows)
    io.write_summary(out / "summary.json", {
        "command": "audit", "config": cfg.values, "suite": suite,
        "checks": [{"name": r[0], "t": r[1], "margin": r[2], "pass": bool(r[3])}
                   for r in rows],
        "passed": bool(passed), **extra,
    })
    return 0 if passed else 1


def _phase_suite():
    """Staged-settling audit of the step-to-wave relaxation at unit viscosity."""
    dx = 0.05
    half = int(round(30.0 / dx))
    x = dx * np.arange(-half, half + 1)
    data = GridFunction(-half * dx, dx, np.clip(-2.0 * x, -1.0, 1.0))
    report = phase_audit(data, burgers(), 0.25, 0.5,
                         SolverConfig(1.0), interval=(-0.5, 0.5))
    rows = [(name, t, margin, ok) for name, t, margin, ok in report.rows]
    return rows, {"t1": report.t1, "t2": report.t2}


def cmd_ztable(cfg: Config, out_override: Optional[str],
               t_values: Sequence[float], x_range: Sequence[float]) -> int:
    n = cfg.int("ztable.n", minimum=2)
    if len(x_range) != 2 or x_range[0] >= x_range[1]:
        raise ConfigError("--x: need x_min < x_max")
    if not t_values:
        raise ConfigError("--t: need at least one time")
    if any(t > 0.0 for t in t_values):
        raise ConfigError("--t: the cubic wave is defined for t <= 0")
    out = _out_dir(cfg, out_override)
    xs = np.linspace(x_range[0], x_range[1], n)
    points = [z_eval(float(t), float(xv)) for t in t_values for xv in xs]
    io.write_z_table(out / "ztable.csv", points)
    io.write_summary(out / "summary.json", {
        "command": "z-table", "config": cfg.values, "t": list(t_values),
        "x": list(x_range), "n": n, "rows": len(points), "passed": True,
    })
    return 0


def cmd_profile(cfg: Config, out_override: Optional[str], u_minus: float,
                u_plus: float, half_width: float, dx: float) -> int:
    if u_minus <= u_plus:
        raise ConfigError("--u-minus/--u-plus: need a downward jump")
    if half_width <= 0.0 or dx <= 0.0 or half_width < dx:
        raise ConfigError("--half-width/--dx: need 0 < dx <= half_width")
    out = _out_dir(cfg, out_override)
    wave = traveling_wave(_flux(cfg), u_minus, u_plus, half_width, dx)
    io.write_profile(out / "profile.csv", wave.profile.x, wave.profile.values)
    io.write_summary(out / "summary.json", {
        "command": "profile", "config": cfg.values,
        "u_minus": u_minus, "u_plus": u_plus, "speed": wave.shock.speed,
        "offset": wave.offset, "ode_residual": wave.ode_residual(),
        "passed": True,
    })
    return 0


def cmd_merge(cfg: Config, out_override: Optional[str]) -> int:
    scenario = make_scenario(cfg, "theorem1-merging")
    out = _out_dir(cfg, out_override)
    window = _config_window(cfg, "window")
    wave, cauchy = experiments.merging_surrogate(
        scenario, taus=cfg.floats("merge.taus"), window=window,
        comparison_time=cfg.float("merge.comparison_time"),
        dx=cfg.positive("merge.dx"))
    times = window.t_samples(cfg.int("merge.nt"))
    ys = window.x_samples(201)
    snaps = [(float(t), GridFunction(float(ys[0]), float(ys[1] - ys[0]),
                                     wave(float(t), ys))) for t in times]
    io.write_snapshots(out / "wave.csv", snaps)
    # a single restart pair has no slope to test
    passed = cauchy.decreasing and \
        (len(cauchy.distances) < 2 or cauchy.log_slope < 0.0)
    io.write_summary(out / "summary.json", {
        "command": "merge", "config": cfg.values,
        "taus": list(cauchy.taus), "comparison_time": cauchy.comparison_time,
        "distances": list(cauchy.distances), "log_slope": cauchy.log_slope,
        "passed": bool(passed),
    })
    return 0 if passed else 1


def cmd_zlimit(cfg: Config, out_override: Optional[str]) -> int:
    x_max = cfg.float("zlimit.x_max")
    window = _window("zlimit", cfg.float("zlimit.t_min"), cfg.float("zlimit.t_max"),
                     -x_max, x_max)
    dx = cfg.positive("zlimit.dx")
    out = _out_dir(cfg, out_override)
    n_list = cfg.floats("zlimit.n_list")
    if len(n_list) < 2 or any(b <= a for a, b in zip(n_list[:-1], n_list[1:])):
        raise ConfigError("zlimit.n_list: need at least two increasing horizons")
    if -n_list[0] > window.t_min:
        raise ConfigError("zlimit.t_min: window starts before the smallest horizon")
    try:
        wave, report = eternal_z_limit(n_list, window, cfg.float("zlimit.tol"),
                                       dx=dx)
    except NotConvergedError as e:
        io.write_summary(out / "summary.json", {
            "command": "zlimit", "config": cfg.values, "passed": False,
            "error": str(e),
        })
        return 1
    io.write_snapshots(out / "zwave.csv", list(wave.trajectory))
    passed = report.decreasing and report.monotone_margin >= -1e-4
    io.write_summary(out / "summary.json", {
        "command": "zlimit", "config": cfg.values,
        "n_list": list(report.n_list), "sample_times": list(report.sample_times),
        "monotone_margin": report.monotone_margin,
        "sup_diffs": list(report.sup_diffs), "final_diff": report.final_diff,
        "passed": bool(passed),
    })
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shockzoom",
        description="viscous approximations of scalar conservation laws: "
                    "local singular patterns at desk scale")
    parser.add_argument("--dump-defaults", action="store_true",
                        help="print every config key with its default and exit")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key")
        p.add_argument("--out", help="output directory (default from run.out)")

    p_run = sub.add_parser("run", help="scenario pipeline with pass/fail checks")
    common(p_run)
    p_run.add_argument("--scenario", choices=list(SCENARIO_IDS))
    p_run.add_argument("--eps", help="comma-separated decreasing viscosities")

    p_sweep = sub.add_parser("sweep", help="viscosity rate sweep")
    common(p_sweep)
    p_sweep.add_argument("--scenario", choices=list(SCENARIO_IDS))
    p_sweep.add_argument("--eps", help="comma-separated decreasing viscosities")

    p_audit = sub.add_parser("audit", help="named audit suite")
    common(p_audit)
    p_audit.add_argument("--suite", help="lemma81 | zbo | oleinik | phase")

    p_zt = sub.add_parser("z-table", help="cubic-wave table")
    common(p_zt)
    p_zt.add_argument("--t", type=float, nargs="+", required=True,
                      help="sample times (each must be <= 0)")
    p_zt.add_argument("--x", type=float, nargs=2, required=True,
                      metavar=("X_MIN", "X_MAX"))
    p_zt.add_argument("--n", type=int, help="x samples per time")

    p_prof = sub.add_parser("profile", help="traveling-wave dump")
    common(p_prof)
    p_prof.add_argument("--u-minus", type=float, default=1.0)
    p_prof.add_argument("--u-plus", type=float, default=-1.0)
    p_prof.add_argument("--half-width", type=float, default=20.0)
    p_prof.add_argument("--dx", type=float, default=0.01)

    p_merge = sub.add_parser("merge", help="interaction-wave construction")
    common(p_merge)
    p_merge.add_argument("--taus", help="comma-separated restart times")

    p_zl = sub.add_parser("zlimit", help="eternal-wave horizon family")
    common(p_zl)
    p_zl.add_argument("--n-list", help="comma-separated increasing horizons")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.dump_defaults:
        for key in sorted(DEFAULTS):
            print(f"{key} = {DEFAULTS[key]}")
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        sets = list(args.set)
        if getattr(args, "scenario", None):
            sets.append(f"run.scenario={args.scenario}")
        if getattr(args, "eps", None):
            key = "run.eps"
            if "formation" in (getattr(args, "scenario", "") or ""):
                key = "run.eps2"
            sets.append(f"{key}={args.eps}")
        if getattr(args, "suite", None):
            sets.append(f"audit.suite={args.suite}")
        if getattr(args, "taus", None):
            sets.append(f"merge.taus={args.taus}")
        if getattr(args, "n_list", None):
            sets.append(f"zlimit.n_list={args.n_list}")
        if getattr(args, "n", None):
            sets.append(f"ztable.n={args.n}")
        cfg = load_config(args.config, sets)
        if args.command == "run":
            return cmd_run(cfg, args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out)
        if args.command == "audit":
            return cmd_audit(cfg, args.out)
        if args.command == "z-table":
            return cmd_ztable(cfg, args.out, args.t, args.x)
        if args.command == "profile":
            return cmd_profile(cfg, args.out, args.u_minus, args.u_plus,
                               args.half_width, args.dx)
        if args.command == "merge":
            return cmd_merge(cfg, args.out)
        if args.command == "zlimit":
            return cmd_zlimit(cfg, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except InstabilityError as e:
        print(f"solver instability: {e}", file=sys.stderr)
        return 3
    except ShockzoomError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
