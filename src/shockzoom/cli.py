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
import dataclasses
import math
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import experiments, io
from .errors import ConfigError, InstabilityError, NoCrossingError, ShockzoomError
from .diagnostics import strip_profile_fit
from .flux import FluxModel, make_flux
from .grid import GridFunction, Window
from .inviscid import z_eval
from .profiles import eternal_z_limit, exact_merging_wave, traveling_wave
from .scenarios import SCENARIO_IDS, Scenario, build_scenario

AUDIT_SUITES = ("lemma81", "zbo", "oleinik", "phase")
# the largest count a key or flag accepts: grid nodes, samples, snapshot
# times, profile steps on each side of the midpoint
MAX_COUNT = 10**6


# The parsers of the config table: each takes the raw string and returns
# the typed value, or raises ValueError saying what the key needs.

def _kind(convert: Callable[[str], Any], test: Callable[[Any], bool],
          need: str) -> Callable[[str], Any]:
    """The parser that ``convert``s the raw string and checks ``test`` on it."""
    def parse(raw: str) -> Any:
        try:
            val = convert(raw)
        except ValueError:
            pass
        else:
            if test(val):
                return val
        raise ValueError(f"need {need}, got {raw!r}")
    return parse


def _optional(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    """``parse``, with the empty string read as None."""
    return lambda raw: None if raw == "" else parse(raw)


def _floats(raw: str) -> List[float]:
    """One or more comma-separated finite numbers; empty items are skipped."""
    vals = [float(tok) for tok in raw.split(",") if tok]
    if not (vals and all(map(math.isfinite, vals))):
        raise ValueError(raw)
    return vals


def _increasing(vals: List[float]) -> bool:
    return all(a < b for a, b in zip(vals[:-1], vals[1:]))


def _count(lo: int) -> Callable[[str], int]:
    return _kind(int, lambda n: lo <= n <= MAX_COUNT, f"an integer in [{lo}, {MAX_COUNT}]")


def _choice(options: Sequence[str]) -> Callable[[str], str]:
    return _kind(str, lambda v: v in options, "one of " + " | ".join(options))


_number = _kind(float, math.isfinite, "a finite number")
_positive = _kind(float, lambda v: 0.0 < v < math.inf, "a finite positive number")
# the count of viscosities a command needs is checked where it reads them
_viscosities = _kind(_floats, lambda e: min(e) > 0.0 and _increasing(e[::-1]),
                     "finite positive viscosities, strictly decreasing")


# every config key with its default string and the parser of its kind
KEYS: Dict[str, Tuple[str, Callable[[str], Any]]] = {
    # each flux parses only the parameters it uses, see _flux
    "flux.name": ("burgers", str),
    "flux.b": ("0.0", str),
    "flux.kappa": ("0.0", str),
    "run.scenario": ("theorem1-single", _choice(SCENARIO_IDS)),
    "run.eps": ("0.04,0.02,0.01", _viscosities),
    "run.eps2": ("0.01,0.004", _viscosities),
    "run.out": ("out", str),
    "run.seed": ("0", _kind(int, lambda n: n >= 0, "an integer >= 0")),
    "run.threads": ("0", str),  # still accepted in configs; studies run in one thread
    "scenario.tau": ("1.0", _number),
    "scenario.u_minus": ("1.0", _number),
    "scenario.u_star": ("0.0", _number),
    "scenario.u_plus": ("-1.0", _number),
    "scenario.ramp_width": ("", _optional(_number)),
    "scenario.amplitude": ("1.0", _number),
    "scenario.clamp_radius": ("2.5", _number),
    "window.t_min": ("-5.0", _number),
    "window.t_max": ("5.0", _number),
    "window.x_min": ("-5.0", _number),
    "window.x_max": ("5.0", _number),
    "window2.t_min": ("-3.0", _number),
    "window2.t_max": ("1.0", _number),
    "window2.x_min": ("-4.0", _number),
    "window2.x_max": ("4.0", _number),
    "zoom.nt": ("21", _count(1)),
    "zoom.ny": ("401", _count(2)),
    "zoom2.nt": ("17", _count(1)),
    "zoom2.ny": ("321", _count(2)),
    "grid.base_divisor": ("8.0", _positive),
    "grid.dx_hat": ("0.04", _positive),
    "sweep.t_check": ("", _optional(_positive)),
    "sweep.n_nodes": ("4096", _count(2)),
    "sweep.min_slope": ("0.45", _number),
    # two equal restarts are 0 apart, which no settling slope can be fitted to
    "merge.taus": ("-20.0,-30.0,-40.0",
                   _kind(_floats, lambda taus: 2 <= len(taus) == len(set(taus)),
                         "two or more distinct finite restart times")),
    "merge.comparison_time": ("-10.0", _number),
    "merge.dx": ("0.05", _positive),
    "merge.nt": ("23", _count(1)),
    "zref.n": ("32.0", _positive),
    "zlimit.n_list": ("4.0,8.0,16.0",
                      _kind(_floats, lambda ns: len(ns) >= 2 and _increasing(ns),
                            "two or more finite horizons, increasing")),
    "zlimit.tol": ("0.05", _number),
    "zlimit.dx": ("0.02", _positive),
    "zlimit.t_min": ("-3.5", _number),
    "zlimit.t_max": ("-1.0", _number),
    "zlimit.x_max": ("20.0", _number),
    "audit.suite": ("lemma81", _choice(AUDIT_SUITES)),
    "ztable.n": ("2001", _count(2)),
}
DEFAULTS: Dict[str, str] = {key: default for key, (default, _) in KEYS.items()}

# the subcommand flags that set one config key each; --eps is mapped in main()
# to the viscosity list of the scenario that runs
FLAG_KEYS = {"scenario": "run.scenario", "suite": "audit.suite", "taus": "merge.taus",
             "n_list": "zlimit.n_list", "n": "ztable.n"}


class Config:
    """Flat dotted key-value store of raw strings; ``cfg[key]`` parses one.

    A value is parsed, and so checked, when it is read: ``cfg[key]`` returns
    it typed by the key's parser in KEYS, or raises ConfigError naming the
    key and the reason.
    """

    def __init__(self, values: Dict[str, str]):
        for key in values:
            if key not in KEYS:
                raise ConfigError(f"unknown config key: {key}")
        self.values = {**DEFAULTS, **values}

    def __getitem__(self, key: str) -> Any:
        try:
            return KEYS[key][1](self.values[key])
        except ValueError as e:
            raise ConfigError(f"{key}: {e}") from None


def load_config(path: Optional[str], sets: Sequence[str]) -> Config:
    """A file's ``key = value`` lines, then the ``--set`` items over them."""
    items = list(sets)
    if path is not None:
        try:
            text = Path(path).read_text()
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except (OSError, UnicodeDecodeError) as e:
            # a directory, say, or a file that is not text
            raise ConfigError(f"config file {path} cannot be read as text: {e}") from None
        items[:0] = [ln for ln in map(str.strip, text.split("\n"))
                     if ln and not ln.startswith("#")]
    values: Dict[str, str] = {}
    for item in items:
        if "=" not in item:
            raise ConfigError(f"bad config item (need key = value): {item!r}")
        key, _, val = item.partition("=")
        values[key.strip()] = val.strip()
    return Config(values)


def _flux(cfg: Config) -> FluxModel:
    name = cfg["flux.name"]
    try:
        # each flux parses only the parameters it uses; a parameter that
        # overflows the flux fails its self-check with a ValueError
        with np.errstate(all="ignore"):
            return make_flux(name, b=cfg["flux.b"], kappa=cfg["flux.kappa"])
    except KeyError:
        raise ConfigError(f"flux.name: unknown flux {name!r}")
    except ValueError as e:
        raise ConfigError(f"flux {name!r}: {e}")


def make_scenario(cfg: Config, scenario_id: str) -> Scenario:
    flux = _flux(cfg)
    names = {"theorem2-formation": ("amplitude", "clamp_radius"),
             "theorem1-merging": ("u_minus", "u_star", "u_plus", "ramp_width"),
             }.get(scenario_id, ("u_minus", "u_plus", "ramp_width"))
    # an empty scenario.ramp_width leaves the scenario's own default
    kw = {name: cfg[f"scenario.{name}"] for name in ("tau", *names)}
    kw = {name: val for name, val in kw.items() if val is not None}
    try:
        # parameters that overflow the scenario's own arithmetic fail here,
        # not with a RuntimeWarning in a later solve
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return build_scenario(scenario_id, flux, **kw)
    except (ValueError, ArithmeticError) as e:
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
    """The zoom window under ``prefix``; its x-range is sampled, so it needs width."""
    window = _window(prefix, *(cfg[f"{prefix}.{end}"]
                               for end in ("t_min", "t_max", "x_min", "x_max")))
    if not window.x_min < window.x_max:
        raise ConfigError(f"{prefix}.x_min/x_max: need x_min < x_max")
    return window


def _out_dir(cfg: Config, override: Optional[str]) -> Path:
    """The output directory, ``--out`` or else run.out, checked before any work.

    The directory is made by the first file written into it, once the
    command has its results; here a file at the path, or at one of its
    parents, where the directory would have to be, is refused.
    """
    out = Path(override if override is not None else cfg["run.out"])
    for d in (out, *out.parents):
        if d.exists():
            if d.is_dir():
                return out
            raise ConfigError(f"output directory {out}: {d} is not a directory")
    return out


def _decreasing(name: str, t: float, values: Sequence[float]) -> tuple:
    """Check row: values strictly decreasing; the margin is the smallest drop."""
    pairs = list(zip(values[:-1], values[1:]))
    return (name, t, min((a - b for a, b in pairs), default=0.0),
            all(b < a for a, b in pairs))


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


def _merge_settings(cfg: Config, window: Window, pad: float = 0.0) -> dict:
    """Keyword arguments of the merging surrogate over ``window`` padded by ``pad``."""
    padded = Window(window.t_min - pad, window.t_max + pad,
                    window.x_min - pad, window.x_max + pad)
    return dict(window=padded, taus=cfg["merge.taus"],
                comparison_time=cfg["merge.comparison_time"], dx=cfg["merge.dx"])


def _merging_pattern(cfg: Config, scenario: Scenario, window: Window) -> tuple:
    """The type-1 pattern of a merging ``run``: its name, the wave, and its check rows.

    For a flux of constant curvature it is the exact Cole-Hopf wave, which
    reads no ``merge.*`` key and adds no row.  Otherwise it is the surrogate
    over the zoom window plus the shift search range, with the
    ``cauchy-decreasing`` row of its settling.
    """
    if scenario.flux.c1 == scenario.flux.c2:
        return "exact", exact_merging_wave(scenario.merging), []
    settings = _merge_settings(cfg, window, experiments.SHIFT_RANGE + 0.25)
    wave, cauchy = experiments.merging_surrogate(scenario, **settings)
    return "surrogate", wave, [_decreasing("cauchy-decreasing", settings["comparison_time"],
                                           cauchy.distances)]


def cmd_run(cfg: Config, args: argparse.Namespace) -> int:
    scenario_id = cfg["run.scenario"]
    scenario = make_scenario(cfg, scenario_id)
    seed = cfg["run.seed"]
    eps_key = _eps_key(scenario_id)
    eps = cfg[eps_key]
    if len(eps) < 2:
        raise ConfigError(f"{eps_key}: need at least 2 viscosities")

    # every setting is read, and every zoom planned and so checked, before the
    # first solve: the merging pattern is built, and the eternal wave
    # evaluated, before any zoom runs
    prefix = "window2" if scenario_id == "theorem2-formation" else "window"
    window = _config_window(cfg, prefix)
    if scenario_id == "theorem2-formation":
        nt, ny, dx_hat, n = cfg["zoom2.nt"], cfg["zoom2.ny"], cfg["grid.dx_hat"], cfg["zref.n"]
        mesh = dict(dx_hat=dx_hat)
    else:
        mesh = dict(base_divisor=cfg["grid.base_divisor"])
        nt, ny = cfg["zoom.nt"], cfg["zoom.ny"]
    zoom = dict(window=window, nt=nt, ny=ny, **mesh)
    # this call solves nothing: its zooms are solved only when iterated
    experiments.zooms(scenario, eps, **zoom)
    extra = {}
    if scenario_id == "theorem1-merging":
        extra["pattern"], wave, settling = _merging_pattern(cfg, scenario, window)

    if scenario_id == "theorem2-formation":
        outcomes = experiments.formation_zoom(scenario, eps, n, **zoom)
        checks = [_decreasing("sup-decreasing", eps[-1],
                              [o.sup_error for o in outcomes])]
    elif scenario_id == "theorem1-merging":
        outcomes = experiments.merging_zoom(scenario, eps, wave, **zoom)
        checks = [_decreasing("l1-decreasing", eps[-1],
                              [o.l1_error for o in outcomes]),
                  *settling, _interior_shift_row(eps[-1], outcomes)]
    else:
        jump = scenario.shock.u_minus - scenario.shock.u_plus
        try:
            outcomes = experiments.single_shock_zoom(scenario, eps, **zoom)
        except NoCrossingError:
            # the window's central slice holds no shock: no wave fits there;
            # the margin is the final-sup budget, missed
            outcomes, checks = [], [("shock-fit", eps[-1], -0.1 * jump, False)]
        else:
            sups = [o.sup_error for o in outcomes]
            checks = [_decreasing("sup-decreasing", eps[-1], sups),
                      ("final-sup", eps[-1], 0.1 * jump - sups[-1],
                       sups[-1] <= 0.1 * jump)]

    checks.extend(experiments.health_rows(scenario, eps[0], seed))
    io.write_sweep(args.out / "sweep.csv", outcomes)
    return _report(args.out, cfg, "run", checks, scenario=scenario_id, eps=eps,
                   outcomes=[dataclasses.asdict(o) for o in outcomes], **extra)


def cmd_sweep(cfg: Config, args: argparse.Namespace) -> int:
    scenario_id = cfg["run.scenario"]
    scenario = make_scenario(cfg, scenario_id)
    n_nodes = cfg["sweep.n_nodes"]
    t_check = cfg["sweep.t_check"]
    eps = cfg["run.eps"]
    min_slope = cfg["sweep.min_slope"]
    report = experiments.kuznetsov_sweep(scenario, eps, t_check=t_check, n_nodes=n_nodes)
    checks = [
        ("l1-slope", 0.0, report.rate.slope - min_slope,
         report.rate.slope >= min_slope),
        ("pointwise-band", 0.0,
         min(allow - err for err, allow in report.pointwise),
         all(err <= allow for err, allow in report.pointwise)),
    ]
    io.write_sweep(args.out / "sweep.csv",
                   [experiments.ZoomOutcome(e, err, l1, 0.0)
                    for e, (err, _), l1 in zip(eps, report.pointwise, report.l1_errors)])
    return _report(args.out, cfg, "sweep", checks, scenario=scenario_id,
                   eps=eps, l1_errors=list(report.l1_errors),
                   slope=report.rate.slope, intercept=report.rate.intercept,
                   residual=report.rate.residual)



def cmd_audit(cfg: Config, args: argparse.Namespace) -> int:
    suite = cfg["audit.suite"]
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
    else:
        report, rows = experiments.suite_phase()
        extra = {"t1": report.t1, "t2": report.t2}
    return _report(args.out, cfg, "audit", rows, suite=suite, **extra)


def cmd_ztable(cfg: Config, args: argparse.Namespace) -> int:
    n = cfg["ztable.n"]
    t_values, x_range = args.t, args.x
    if not x_range[0] < x_range[1]:
        raise ConfigError("--x: need x_min < x_max")
    if any(t > 0.0 for t in t_values):
        raise ConfigError("--t: the cubic wave is defined for t <= 0")
    if len(t_values) * n > MAX_COUNT:
        raise ConfigError(f"--t/--n: {len(t_values)} times of {n} samples make more "
                          f"than {MAX_COUNT} rows")
    # an infinite range or an argument too large for the cubic gives a
    # non-finite value, reported below
    with np.errstate(all="ignore"):
        t, x = np.meshgrid(t_values, np.linspace(x_range[0], x_range[1], n), indexing="ij")
        table = np.stack([t, x, *z_eval(t, x)], axis=-1).reshape(-1, 6)
    # the derivatives blow up at the singular point t = 0, x = 0
    bad = np.flatnonzero(~np.all(np.isfinite(table[:, 2:]), axis=1))
    if bad.size:
        t, x = table[bad[0], :2].tolist()
        raise ConfigError(f"--t/--x: the cubic wave or its x-derivatives are not "
                          f"finite at t={t!r}, x={x!r}")
    io.write_z_table(args.out / "ztable.csv", table)
    io.write_summary(args.out / "summary.json", {
        "command": "z-table", "config": cfg.values, "t": list(t_values),
        "x": list(x_range), "n": n, "rows": len(table), "passed": True,
    })
    return 0


def cmd_profile(cfg: Config, args: argparse.Namespace) -> int:
    u_minus, u_plus, half_width, dx = args.u_minus, args.u_plus, args.half_width, args.dx
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
    io.write_profile(args.out / "profile.csv", wave.profile.x, wave.profile.values)
    io.write_summary(args.out / "summary.json", {
        "command": "profile", "config": cfg.values,
        "u_minus": u_minus, "u_plus": u_plus, "speed": wave.shock.speed,
        "offset": wave.shock.offset, "ode_residual": wave.ode_residual(),
        "passed": True,
    })
    return 0


def cmd_merge(cfg: Config, args: argparse.Namespace) -> int:
    scenario = make_scenario(cfg, "theorem1-merging")
    window = _config_window(cfg, "window")
    nt = cfg["merge.nt"]
    ys = window.x_samples(201)
    if nt * ys.size > MAX_COUNT:
        raise ConfigError(f"merge.nt: {nt} times of {ys.size} samples make more than "
                          f"{MAX_COUNT} rows")
    settings = _merge_settings(cfg, window)
    wave, cauchy = experiments.merging_surrogate(scenario, **settings)
    # the table's times, then t_max, where the post-merge fit reads the wave
    ts = window.t_samples(nt)
    states = [GridFunction(float(ys[0]), float(ys[1] - ys[0]), row)
              for row in wave(np.append(ts, window.t_max), ys)]
    t_cmp = settings["comparison_time"]
    checks = [_decreasing("cauchy-decreasing", t_cmp, cauchy.distances)]
    # a single restart pair has no slope to test
    if len(cauchy.distances) >= 2:
        checks.append(("cauchy-slope", t_cmp, -cauchy.log_slope, cauchy.log_slope < 0.0))
    # after the merge the wave is one traveling wave of the outer states
    u_minus, u_plus = scenario.shock.u_minus, scenario.shock.u_plus
    delta = 0.05 * (u_minus - u_plus)
    try:
        fit = strip_profile_fit(states[-1], scenario.flux, u_minus, u_plus)
        checks.append(("post-merge", window.t_max, delta - fit.sup_error,
                       fit.sup_error <= delta))
    except NoCrossingError:
        # the shock has left the window: no profile fits there
        checks.append(("post-merge", window.t_max, -delta, False))
    io.write_snapshots(args.out / "wave.csv", list(zip(ts.tolist(), states[:-1])))
    return _report(args.out, cfg, "merge", checks, taus=sorted(settings["taus"]),
                   comparison_time=t_cmp, distances=list(cauchy.distances),
                   log_slope=cauchy.log_slope)


def cmd_zlimit(cfg: Config, args: argparse.Namespace) -> int:
    x_max = cfg["zlimit.x_max"]
    window = _window("zlimit", cfg["zlimit.t_min"], cfg["zlimit.t_max"], -x_max, x_max)
    dx, tol, n_list = cfg["zlimit.dx"], cfg["zlimit.tol"], cfg["zlimit.n_list"]
    wave, report = eternal_z_limit(n_list, window, dx=dx)
    final = report.sup_diffs[-1]
    checks = [_decreasing("decreasing", 0.0, report.sup_diffs),
              ("monotone", 0.0, report.monotone_margin + 1e-4,
               report.monotone_margin >= -1e-4),
              ("settled", 0.0, tol - final, final <= tol)]
    io.write_snapshots(args.out / "zwave.csv", wave)
    return _report(args.out, cfg, "zlimit", checks, n_list=n_list,
                   sample_times=list(report.sample_times),
                   monotone_margin=report.monotone_margin,
                   sup_diffs=list(report.sup_diffs), final_diff=final)


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
        "--suite", help=" | ".join(AUDIT_SUITES))

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
            cfg.values[_eps_key(cfg["run.scenario"])] = args.eps
        args.out = _out_dir(cfg, args.out)
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
