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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import experiments, io
from .errors import ConfigError, InstabilityError, NoCrossingError, ShockzoomError
from .diagnostics import phase_audit, strip_profile_fit
from .flux import FluxModel, burgers, make_flux
from .grid import GridFunction, Window
from .inviscid import z_eval
from .profiles import CauchyReport, eternal_z_limit, traveling_wave
from .scenarios import SCENARIO_IDS, Scenario, build_scenario
from .solver import Clamped, Periodic, SolverConfig

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

# the subcommand flags that set one config key each; --eps is mapped in main()
# to the viscosity list of the scenario that runs
FLAG_KEYS = {"scenario": "run.scenario", "suite": "audit.suite", "taus": "merge.taus",
             "n_list": "zlimit.n_list", "n": "ztable.n"}
# the largest count a key or flag accepts: grid nodes, samples, snapshot
# times, profile steps on each side of the midpoint
MAX_COUNT = 10**6


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
            val = float(self.values[key])
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {self.values[key]!r}")
        if not math.isfinite(val):
            raise ConfigError(f"{key}: need a finite number, got {self.values[key]!r}")
        return val

    def positive(self, key: str) -> float:
        val = self.float(key)
        if not val > 0.0:
            raise ConfigError(f"{key}: need a positive number, got {self.values[key]!r}")
        return val

    def opt_float(self, key: str) -> Optional[float]:
        return None if self.values[key] == "" else self.float(key)

    def int(self, key: str, minimum: Optional[int] = None,
            maximum: Optional[int] = None) -> int:
        try:
            val = int(self.values[key])
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {self.values[key]!r}")
        if minimum is not None and val < minimum:
            raise ConfigError(f"{key}: need at least {minimum}, got {val}")
        if maximum is not None and val > maximum:
            raise ConfigError(f"{key}: need at most {maximum}, got {val}")
        return val

    def floats(self, key: str) -> List[float]:
        raw = self.values[key]
        try:
            vals = [float(tok) for tok in raw.split(",") if tok != ""]
        except ValueError:
            raise ConfigError(f"{key}: expected comma-separated numbers, got {raw!r}")
        if not vals:
            raise ConfigError(f"{key}: expected at least one number")
        if not all(math.isfinite(v) for v in vals):
            raise ConfigError(f"{key}: need finite numbers, got {raw!r}")
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
        # each flux parses only the parameters it uses; a parameter that
        # overflows the flux fails its self-check with a ValueError
        with np.errstate(all="ignore"):
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
        if scenario_id == "theorem2-formation":
            kw.update(amplitude=cfg.float("scenario.amplitude"),
                      clamp_radius=cfg.float("scenario.clamp_radius"))
        else:
            kw.update(u_minus=cfg.float("scenario.u_minus"),
                      u_plus=cfg.float("scenario.u_plus"))
            if scenario_id == "theorem1-merging":
                kw["u_star"] = cfg.float("scenario.u_star")
            rw = cfg.opt_float("scenario.ramp_width")
            if rw is not None:
                kw["ramp_width"] = rw
        return build_scenario(scenario_id, flux, **kw)
    except ValueError as e:
        raise ConfigError(f"scenario parameters: {e}")


def _eps_key(scenario_id: str) -> str:
    """The config key of the viscosity list that ``run`` reads for a scenario."""
    return "run.eps2" if scenario_id == "theorem2-formation" else "run.eps"


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


def _decreasing(name: str, t: float, values: Sequence[float]) -> tuple:
    """Check row: values strictly decreasing; the margin is the smallest drop."""
    pairs = list(zip(values[:-1], values[1:]))
    return (name, t, min((a - b for a, b in pairs), default=0.0),
            all(b < a for a, b in pairs))


def _cauchy_row(cauchy: CauchyReport) -> tuple:
    """Check row: restart distances shrink as the restart time recedes.

    The margin is minus the fitted log-slope; a single distance has no
    slope, and its margin is 0 as in ``_decreasing``.
    """
    margin = -cauchy.log_slope if len(cauchy.distances) >= 2 else 0.0
    return ("cauchy-decreasing", cauchy.comparison_time, margin, cauchy.decreasing)


def _interior_shift_row(t: float, outcomes: Sequence[experiments.ZoomOutcome]) -> tuple:
    """Check row: every fitted (t, x) shift lies inside the search range.

    An optimum on the edge of +-SHIFT_RANGE may be a boundary minimum
    rather than a fitted one; the margin is the room left to that edge.
    """
    widest = max(max(abs(o.shift_t), abs(o.shift)) for o in outcomes)
    margin = experiments.SHIFT_RANGE - widest
    return ("interior-shift", t, margin, margin > 0.0)


def _report(out: Path, cfg: Config, command: str, rows: Sequence[tuple],
            **fields) -> int:
    """Write the check rows (name, t, margin, pass) to audit.csv and summary.json.

    Returns the exit code: 0 when every row passes, 1 otherwise.
    """
    io.write_audit(out / "audit.csv", rows)
    passed = all(bool(r[3]) for r in rows)
    io.write_summary(out / "summary.json", {
        "command": command, "config": cfg.values,
        "checks": [{"name": name, "t": t, "margin": margin, "pass": bool(ok)}
                   for name, t, margin, ok in rows],
        "passed": passed, **fields,
    })
    return 0 if passed else 1


def _health_rows(scenario: Scenario, eps: float, seed: int) -> list:
    """Cheap conservation/contraction audit on coarsened scenario data."""
    lo, hi = scenario.domain
    rng = np.random.default_rng(seed)
    center = rng.uniform(lo + 0.3 * (hi - lo), lo - 0.7 * (lo - hi))

    def nodes(n: int, *states: GridFunction) -> int:
        # refine a coarse grid only where the data's cell Peclet number exceeds 1
        speed = max(scenario.flux.max_speed(g.values) for g in states)
        return max(n, math.ceil((hi - lo) * speed / eps))

    def bumped(n: int) -> Tuple[GridFunction, GridFunction]:
        data = experiments.scenario_grid(scenario, (hi - lo) / n)
        bump = 0.05 * np.exp(-((data.x - center) / (0.05 * (hi - lo))) ** 2)
        return data, data.with_values(data.values + bump)

    data, other = bumped(nodes(800, *bumped(800)))
    cfg = SolverConfig(eps, Clamped())
    horizon = min(0.5, 0.5 * scenario.tau)
    contraction = experiments.contraction_check(
        data, other, scenario.flux, cfg, list(np.linspace(0.0, horizon, 6)))
    rows = [("contraction", contraction.times[-1], 1e-3 - contraction.relative_slack,
             contraction.relative_slack <= 1e-3)]
    mid = float(np.mean(data.values))
    amp = 0.5 * (float(np.max(data.values)) - float(np.min(data.values))) or 1.0

    def periodic(n: int) -> GridFunction:
        xp = lo + (hi - lo) / n * np.arange(n)
        return GridFunction(lo, (hi - lo) / n,
                            mid + 0.3 * amp * np.sin(2.0 * np.pi * (xp - lo) / (hi - lo)))

    per = periodic(nodes(512, periodic(512)))
    mass = experiments.mass_drift_check(per, scenario.flux,
                                        SolverConfig(eps, Periodic()),
                                        list(np.linspace(0.0, horizon, 6)))
    rows.append(("mass-drift", mass.times[-1], 1e-10 - mass.drift_rate,
                 mass.drift_rate <= 1e-10))
    return rows


def _zoom_settings(cfg: Config) -> dict:
    """Keyword arguments of the type-1 zooms."""
    return dict(window=_config_window(cfg, "window"),
                nt=cfg.int("zoom.nt", 1, MAX_COUNT),
                ny=cfg.int("zoom.ny", 2, MAX_COUNT),
                base_divisor=cfg.positive("grid.base_divisor"))


def cmd_run(cfg: Config, args: argparse.Namespace) -> int:
    scenario_id = cfg.str("run.scenario")
    scenario = make_scenario(cfg, scenario_id)
    out = _out_dir(cfg, args.out)
    seed = cfg.int("run.seed")
    eps = cfg.eps_list(_eps_key(scenario_id), minimum=2)

    # every setting is read, and so checked, before the first solve
    if scenario_id == "theorem2-formation":
        window = _config_window(cfg, "window2")
        nt = cfg.int("zoom2.nt", 1, MAX_COUNT)
        ny = cfg.int("zoom2.ny", 2, MAX_COUNT)
        dx_hat = cfg.positive("grid.dx_hat")
        n = cfg.positive("zref.n")
        if window.t_min < -n:
            raise ConfigError("zref.n: window2.t_min lies before the launch time -zref.n")
        z_wave = experiments.eternal_z(
            n, window, dx=cfg.positive("zref.dx"),
            x_max=cfg.positive("zref.x_max"), snapshot_times=list(window.t_samples(nt)))
        outcomes = experiments.formation_zoom(
            scenario, eps, z_wave, window=window, nt=nt, ny=ny, dx_hat=dx_hat)
        checks = [_decreasing("sup-decreasing", eps[-1],
                              [o.sup_error for o in outcomes])]
    elif scenario_id == "theorem1-merging":
        zoom = _zoom_settings(cfg)
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
        checks = [_decreasing("l1-decreasing", eps[-1],
                              [o.l1_error for o in outcomes]),
                  _cauchy_row(cauchy),
                  _interior_shift_row(eps[-1], outcomes)]
    else:
        outcomes = experiments.single_shock_zoom(scenario, eps, **_zoom_settings(cfg))
        sups = [o.sup_error for o in outcomes]
        jump = scenario.states[0] - scenario.states[-1]
        checks = [_decreasing("sup-decreasing", eps[-1], sups),
                  ("final-sup", eps[-1], 0.1 * jump - sups[-1],
                   sups[-1] <= 0.1 * jump)]

    checks.extend(_health_rows(scenario, eps[0], seed))
    io.write_sweep(out / "sweep.csv", outcomes)
    return _report(out, cfg, "run", checks, scenario=scenario_id, eps=eps,
                   outcomes=[{"eps": o.eps, "sup_error": o.sup_error,
                              "l1_error": o.l1_error, "shift": o.shift,
                              "shift_t": o.shift_t} for o in outcomes])


def cmd_sweep(cfg: Config, args: argparse.Namespace) -> int:
    scenario_id = cfg.str("run.scenario")
    scenario = make_scenario(cfg, scenario_id)
    if scenario_id == "theorem2-formation":
        raise ConfigError("run.scenario: rate sweeps need an exact shocked reference")
    n_nodes = cfg.int("sweep.n_nodes", 2, MAX_COUNT)
    t_check = cfg.opt_float("sweep.t_check")
    if t_check is not None and not t_check > 0.0:
        raise ConfigError("sweep.t_check: need a positive time")
    out = _out_dir(cfg, args.out)
    eps = cfg.eps_list("run.eps", minimum=3)
    report = experiments.kuznetsov_sweep(
        scenario, eps, t_check=t_check, n_nodes=n_nodes)
    min_slope = cfg.float("sweep.min_slope")
    pw = {e: err for e, err, _ in report.pointwise}
    io.write_sweep(out / "sweep.csv",
                   [experiments.ZoomOutcome(e, pw.get(e, 0.0), l1, 0.0)
                    for e, l1 in zip(report.eps_list, report.l1_errors)])
    checks = [
        ("l1-slope", 0.0, report.rate.slope - min_slope,
         report.rate.slope >= min_slope),
        ("pointwise-band", 0.0,
         min((allow - err for _, err, allow in report.pointwise), default=0.0),
         report.pointwise_ok),
    ]
    return _report(out, cfg, "sweep", checks, scenario=scenario_id,
                   eps=list(report.eps_list), l1_errors=list(report.l1_errors),
                   slope=report.rate.slope, intercept=report.rate.intercept,
                   residual=report.rate.residual)


def cmd_audit(cfg: Config, args: argparse.Namespace) -> int:
    suite = cfg.str("audit.suite")
    out = _out_dir(cfg, args.out)
    if suite == "lemma81":
        report, rows = experiments.suite_cubic_bounds()
        extra = {"n_points": report.n_points, "violations": report.violations,
                 "residual_max": report.residual_max}
    elif suite == "zbo":
        _, rows = experiments.suite_sandwich()
        extra = {}
    elif suite == "oleinik":
        report, rows = experiments.suite_oleinik()
        extra = {"violations": report.violations,
                 "worst_margin": report.worst_margin}
    elif suite == "phase":
        rows, extra = _phase_suite()
    else:
        raise ConfigError(f"audit.suite: unknown suite {suite!r}")
    return _report(out, cfg, "audit", rows, suite=suite, **extra)


def _phase_suite():
    """Staged-settling audit of the step-to-wave relaxation at unit viscosity."""
    dx = 0.05
    half = int(round(30.0 / dx))
    x = dx * np.arange(-half, half + 1)
    data = GridFunction(-half * dx, dx, np.clip(-2.0 * x, -1.0, 1.0))
    report = phase_audit(data, burgers(), 0.25, 0.5,
                         SolverConfig(1.0), interval=(-0.5, 0.5))
    return list(report.rows), {"t1": report.t1, "t2": report.t2}


def cmd_ztable(cfg: Config, args: argparse.Namespace) -> int:
    n = cfg.int("ztable.n", 2, MAX_COUNT)
    t_values, x_range = args.t, args.x
    if not x_range[0] < x_range[1]:
        raise ConfigError("--x: need x_min < x_max")
    if any(t > 0.0 for t in t_values):
        raise ConfigError("--t: the cubic wave is defined for t <= 0")
    # an infinite range or an argument too large for the cubic gives a
    # non-finite value, reported below
    with np.errstate(all="ignore"):
        xs = np.linspace(x_range[0], x_range[1], n)
        points = [z_eval(float(t), float(xv)) for t in t_values for xv in xs]
    # the derivatives blow up at the singular point t = 0, x = 0
    bad = next((p for p in points
                if not all(map(math.isfinite, (p.z, p.zx, p.zxx, p.zxxx)))), None)
    if bad is not None:
        raise ConfigError(f"--t/--x: the cubic wave or its x-derivatives are not "
                          f"finite at t={bad.t!r}, x={bad.x!r}")
    out = _out_dir(cfg, args.out)
    io.write_z_table(out / "ztable.csv", points)
    io.write_summary(out / "summary.json", {
        "command": "z-table", "config": cfg.values, "t": list(t_values),
        "x": list(x_range), "n": n, "rows": len(points), "passed": True,
    })
    return 0


def cmd_profile(cfg: Config, args: argparse.Namespace) -> int:
    u_minus, u_plus, half_width, dx = args.u_minus, args.u_plus, args.half_width, args.dx
    if not u_minus > u_plus:
        raise ConfigError("--u-minus/--u-plus: need a downward jump")
    # the residual's five-point stencil needs two steps on each side
    if not (dx > 0.0 and 2.0 <= half_width / dx <= MAX_COUNT):
        raise ConfigError(f"--half-width/--dx: need dx > 0 and "
                          f"2 <= half_width/dx <= {MAX_COUNT}")
    flux = _flux(cfg)
    try:
        # states that overflow the flux (an error here, not a warning), or
        # steps too coarse for the jump
        with np.errstate(all="ignore"):
            wave = traveling_wave(flux, u_minus, u_plus, half_width, dx)
    except (ValueError, RuntimeError, OverflowError) as e:
        raise ConfigError(f"--u-minus/--u-plus/--dx: no profile at these settings: {e}")
    out = _out_dir(cfg, args.out)
    io.write_profile(out / "profile.csv", wave.profile.x, wave.profile.values)
    io.write_summary(out / "summary.json", {
        "command": "profile", "config": cfg.values,
        "u_minus": u_minus, "u_plus": u_plus, "speed": wave.shock.speed,
        "offset": wave.offset, "ode_residual": wave.ode_residual(),
        "passed": True,
    })
    return 0


def cmd_merge(cfg: Config, args: argparse.Namespace) -> int:
    scenario = make_scenario(cfg, "theorem1-merging")
    window = _config_window(cfg, "window")
    nt = cfg.int("merge.nt", 1, MAX_COUNT)
    out = _out_dir(cfg, args.out)
    wave, cauchy = experiments.merging_surrogate(
        scenario, taus=cfg.floats("merge.taus"), window=window,
        comparison_time=cfg.float("merge.comparison_time"),
        dx=cfg.positive("merge.dx"))
    ys = window.x_samples(201)

    def sample(t: float) -> GridFunction:
        return GridFunction(float(ys[0]), float(ys[1] - ys[0]), wave(t, ys))

    io.write_snapshots(out / "wave.csv",
                       [(float(t), sample(float(t))) for t in window.t_samples(nt)])
    checks = [_cauchy_row(cauchy)]
    # a single restart pair has no slope to test
    if len(cauchy.distances) >= 2:
        checks.append(("cauchy-slope", cauchy.comparison_time, -cauchy.log_slope,
                       cauchy.log_slope < 0.0))
    # after the merge the wave is one traveling wave of the outer states
    u_minus, u_plus = scenario.states[0], scenario.states[-1]
    delta = 0.05 * (u_minus - u_plus)
    try:
        fit = strip_profile_fit(sample(window.t_max), scenario.flux, u_minus, u_plus, delta)
        checks.append(("post-merge", window.t_max, delta - fit.sup_error,
                       fit.sup_error <= delta))
    except NoCrossingError:
        # the shock has left the window: no profile fits there
        checks.append(("post-merge", window.t_max, -delta, False))
    return _report(out, cfg, "merge", checks, taus=list(cauchy.taus),
                   comparison_time=cauchy.comparison_time,
                   distances=list(cauchy.distances), log_slope=cauchy.log_slope)


def cmd_zlimit(cfg: Config, args: argparse.Namespace) -> int:
    x_max = cfg.float("zlimit.x_max")
    window = _window("zlimit", cfg.float("zlimit.t_min"), cfg.float("zlimit.t_max"),
                     -x_max, x_max)
    dx = cfg.positive("zlimit.dx")
    tol = cfg.float("zlimit.tol")
    n_list = cfg.floats("zlimit.n_list")
    if len(n_list) < 2 or any(b <= a for a, b in zip(n_list[:-1], n_list[1:])):
        raise ConfigError("zlimit.n_list: need at least two increasing horizons")
    if -n_list[0] > window.t_min:
        raise ConfigError("zlimit.t_min: window starts before the smallest horizon")
    out = _out_dir(cfg, args.out)
    # the settled row below applies zlimit.tol, so the library's gate is off
    wave, report = eternal_z_limit(n_list, window, math.inf, dx=dx)
    io.write_snapshots(out / "zwave.csv", wave)
    checks = [_decreasing("decreasing", 0.0, report.sup_diffs),
              ("monotone", 0.0, report.monotone_margin + 1e-4,
               report.monotone_margin >= -1e-4),
              ("settled", 0.0, tol - report.final_diff, report.final_diff <= tol)]
    return _report(out, cfg, "zlimit", checks, n_list=list(report.n_list),
                   sample_times=list(report.sample_times),
                   monotone_margin=report.monotone_margin,
                   sup_diffs=list(report.sup_diffs), final_diff=report.final_diff)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shockzoom",
        description="viscous approximations of scalar conservation laws: "
                    "local singular patterns at desk scale")
    parser.add_argument("--dump-defaults", action="store_true",
                        help="print every config key with its default and exit")
    sub = parser.add_subparsers(dest="command")

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key")
        p.add_argument("--out", help="output directory (default from run.out)")
        p.set_defaults(func=func)
        return p

    for p in (command("run", cmd_run, "scenario pipeline with pass/fail checks"),
              command("sweep", cmd_sweep, "viscosity rate sweep")):
        p.add_argument("--scenario", choices=list(SCENARIO_IDS))
        p.add_argument("--eps", help="comma-separated decreasing viscosities")

    command("audit", cmd_audit, "named audit suite").add_argument(
        "--suite", help="lemma81 | zbo | oleinik | phase")

    p_zt = command("z-table", cmd_ztable, "cubic-wave table")
    p_zt.add_argument("--t", type=float, nargs="+", required=True,
                      help="sample times (each must be <= 0)")
    p_zt.add_argument("--x", type=float, nargs=2, required=True,
                      metavar=("X_MIN", "X_MAX"))
    p_zt.add_argument("--n", type=int, help="x samples per time")

    p_prof = command("profile", cmd_profile, "traveling-wave dump")
    p_prof.add_argument("--u-minus", type=float, default=1.0)
    p_prof.add_argument("--u-plus", type=float, default=-1.0)
    p_prof.add_argument("--half-width", type=float, default=20.0)
    p_prof.add_argument("--dx", type=float, default=0.01)

    command("merge", cmd_merge, "interaction-wave construction").add_argument(
        "--taus", help="comma-separated restart times")
    command("zlimit", cmd_zlimit, "eternal-wave horizon family").add_argument(
        "--n-list", help="comma-separated increasing horizons")
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
        # flags override --set; a flag left out is None, an empty one is still set
        sets = list(args.set) + [f"{key}={getattr(args, dest)}"
                                 for dest, key in FLAG_KEYS.items()
                                 if getattr(args, dest, None) is not None]
        cfg = load_config(args.config, sets)
        if getattr(args, "eps", None) is not None:
            cfg.values[_eps_key(cfg.str("run.scenario"))] = args.eps
        return args.func(cfg, args)
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
