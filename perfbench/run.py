"""shockzoom benchmark: default CLI studies, one at a time, each in a fresh process.

    python3 perfbench/run.py --workload formation|merging|oleinik \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (``src/shockzoom`` must exist).
Load is a closed loop with one client: a study starts only after the
previous one has returned.  Each study runs in a new interpreter with no
extra threads (``SHOCKZOOM_THREADS`` unset, ``run.threads=1``, BLAS pinned
to one thread), so imports and caches never carry over between studies.
The seed goes to the study as ``run.seed`` where the subcommand has one.

``--trace 0`` times set-up several times, then repeats the study while
another one still fits in ``S`` seconds (at least once), and reports the
median of each end-to-end metric.  ``--trace 1`` runs the study once
untraced and once traced, and reports the per-layer breakdown and the
tracing overhead.  Every study's output is checked: exit code 0,
``"passed": true``, and the same zoom error in every study of the run.  A
failed study counts in ``failed`` and never in the timings.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit and record the environment.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / "_work"
TRACE_DIR = HERE / "_traces"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
# a traced run makes two studies; with these limits every run ends within
# three minutes even when a study hangs
SETUP_TIMEOUT_S = 10.0
STUDY_TIMEOUT_S = 75.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("final_error", "1"), ("min_margin", "1"))


class StudyFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # set-up is timed with cached bytecode, which the warm-up process writes
    # into the checkout's __pycache__ directories
    for var in ("SHOCKZOOM_THREADS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE",
                "PYTHONPYCACHEPREFIX"):
        env.pop(var, None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, out: Path, flags, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "study.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), *flags]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=str(ROOT), timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise StudyFailed(f"no result within {timeout:.0f} s")
    if proc.returncode != 0:
        raise StudyFailed(f"harness exit {proc.returncode}: {proc.stderr.strip()[-600:]}")
    return json.loads((out / "measure.json").read_text())


def study(workload: str, seed: int, out: Path, traced: bool = False) -> dict:
    """One checked study; raises StudyFailed unless it exits 0 and passes."""
    m = run_child(workload, seed, out, ["--trace"] if traced else [], STUDY_TIMEOUT_S)
    if m["exit"] != 0:
        raise StudyFailed(f"cli exit code {m['exit']}")
    if m["passed"] is not True:
        raise StudyFailed('summary.json reports "passed": false')
    return m


def setup_times(workload: str, seed: int, out: Path, count: int) -> list:
    """Set-up times of ``count`` fresh processes."""
    return [run_child(workload, seed, out / str(i), ["--setup-only"],
                      SETUP_TIMEOUT_S)["setup_s"] for i in range(count)]


def environment(seed: int) -> dict:
    import numpy
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": os.cpu_count(), "cpu": "unknown", "seed": seed}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in range(4):
        cache = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        try:
            level = (cache / "level").read_text().strip()
            kind = (cache / "type").read_text().strip()
            size = (cache / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            env[f"L{level}"] = size
    return env


def kib(size: str) -> float:
    """A sysfs cache size such as ``2048K`` or ``4M`` in KiB."""
    scale = {"K": 1.0, "M": 1024.0, "G": 1024.0 ** 2}
    return float(size[:-1]) * scale[size[-1]] if size[-1] in scale else float(size) / 1024.0


def print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:36s} {value:>14s} {m['unit']}")


def end_to_end(work, seed: int, seconds: float, tmp: Path) -> dict:
    setup_times(work.name, seed, tmp / "warm", 1)  # fills the bytecode cache
    # half of the set-up samples before the studies and half after, so that
    # their median covers the same stretch of time as the studies
    setups = setup_times(work.name, seed, tmp / "setup-before", SETUP_SAMPLES)
    ok, failures, durations = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        try:
            ok.append(study(work.name, seed, tmp / f"study{len(durations)}"))
        except StudyFailed as e:
            failures.append(str(e))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(durations) > deadline:
            break
    setups += setup_times(work.name, seed, tmp / "setup-after", SETUP_SAMPLES)
    attempted = len(durations)
    # accuracy figures are deterministic: every study of a run must agree
    deterministic = len({(m["final_error"], m["min_margin"]) for m in ok}) <= 1

    def median(key):
        return statistics.median(m[key] for m in ok) if ok else None

    metrics = {name: {"value": statistics.median(setups) if name == "setup_s" else median(name),
                      "unit": unit} for name, unit in END_TO_END}
    print(f"workload {work.name}: {len(ok)} of {attempted} studies passed "
          f"(failed_frac {len(failures) / attempted:.3g}); timings are medians over "
          f"{len(ok)} studies, setup_s over {len(setups)} fresh processes")
    for reason in failures:
        print(f"  failed: {reason}")
    if not deterministic:
        print("  accuracy figures differ between studies of one seed")
    print_metrics(metrics)
    return {"correct": bool(ok) and not failures and deterministic,
            "attempted": attempted, "failed": len(failures), "metrics": metrics}


def per_layer(work, seed: int, tmp: Path, l2) -> dict:
    runs = []
    try:
        for traced in (False, True):
            runs.append(study(work.name, seed, tmp / f"traced{int(traced)}", traced))
    except StudyFailed as e:
        print(f"workload {work.name}: study failed: {e}")
        return {"correct": False, "attempted": len(runs) + 1, "failed": 1, "metrics": {}}
    plain, traced = runs
    report = json.loads((tmp / "traced1" / "trace.json").read_text())
    TRACE_DIR.mkdir(exist_ok=True)
    (TRACE_DIR / f"{work.name}-seed{seed}.json").write_text(json.dumps(report))
    metrics = layer_metrics(report, traced["wall_s"], plain["wall_s"])
    print_breakdown(work.name, report, traced["wall_s"], plain["wall_s"])
    c = report["counts"]
    array_kb = 8 * c["max_nodes"] / 1024.0
    fits = "fits" if l2 and array_kb < kib(l2) else "may not fit"
    print(f"  largest grid {c['max_nodes']} nodes, {array_kb:.1f} KiB per float64 array: "
          f"{fits} in L2 ({l2}); bytes moved would be computed from array sizes, "
          "not measured")
    print_metrics(metrics)
    same = traced["final_error"] == plain["final_error"]
    return {"correct": same, "attempted": 2, "failed": 0, "metrics": metrics}


def layer_metrics(report: dict, traced_wall: float, plain_wall: float) -> dict:
    totals, counts, layer = report["totals"], report["counts"], report["layer_self_s"]

    def calls(name):
        return totals[name]["calls"]

    def total(name):
        return totals[name]["total_s"]

    def self_s(name):
        return totals[name]["self_s"]

    def pct(seconds):
        return 100.0 * seconds / traced_wall

    steps = counts["steps"]
    solver_self = self_s("solver.solve")
    values = [
        ("solver.calls", calls("solver.solve"), "count"),
        ("solver.steps", steps, "count"),
        ("solver.node_steps", counts["node_steps"], "count"),
        ("solver.steps_diffusive", counts["steps_diffusive"], "count"),
        ("solver.steps_advective", counts["steps_advective"], "count"),
        ("solver.steps_landing", counts["steps_landing"], "count"),
        ("solver.max_nodes", counts["max_nodes"], "count"),
        ("solver.self_s", solver_self, "s"),
        ("solver.us_per_step", 1e6 * solver_self / steps, "us"),
        ("solver.ns_per_node_step", 1e9 * solver_self / counts["node_steps"], "ns"),
        ("solver.clamp_calls", calls("solver.Clamped.at"), "count"),
        ("solver.clamp_pct", pct(total("solver.Clamped.at")), "%"),
        ("profiles.self_pct", pct(layer["profiles"]), "%"),
        ("profiles.traveling_wave.calls", calls("profiles.traveling_wave"), "count"),
        ("profiles.traveling_wave.pct", pct(total("profiles.traveling_wave")), "%"),
        ("profiles.eternal_z.self_pct", pct(self_s("profiles.eternal_z")), "%"),
        ("profiles.merging_wave.self_pct", pct(self_s("profiles.merging_wave")), "%"),
        ("rescale.self_pct", pct(layer["rescale"]), "%"),
        ("rescale.interp.calls", calls("rescale.SnapshotInterpolant.__call__"), "count"),
        ("rescale.interp.pct", pct(total("rescale.SnapshotInterpolant.__call__")), "%"),
        ("experiments.self_s", layer["experiments"], "s"),
        ("experiments.merging_zoom.self_pct", pct(self_s("experiments.merging_zoom")), "%"),
        ("experiments.formation_zoom.self_pct", pct(self_s("experiments.formation_zoom")), "%"),
        ("experiments.health.pct", pct(total("experiments.contraction_check")
                                       + total("experiments.mass_drift_check")), "%"),
        ("experiments.snapshots_held", counts["snapshots_held"], "count"),
        ("experiments.snapshot_mb", counts["snapshot_bytes"] / 1e6, "MB"),
        ("scenarios.self_pct", pct(layer["scenarios"]), "%"),
        ("cli.self_s", layer["cli"], "s"),
        ("io.calls", sum(v["calls"] for v in totals.values() if v["layer"] == "io"), "count"),
        ("io.s", layer["io"], "s"),
        ("io.bytes", counts["io_bytes"], "B"),
        ("trace.wall_s", traced_wall, "s"),
        ("trace.overhead_s", traced_wall - plain_wall, "s"),
    ]
    return {name: {"value": value, "unit": unit} for name, value, unit in values}


def print_breakdown(name: str, report: dict, traced_wall: float, plain_wall: float) -> None:
    print(f"workload {name}: traced wall {traced_wall:.4f} s, untraced {plain_wall:.4f} s, "
          f"tracing overhead {traced_wall - plain_wall:+.4f} s")
    print(f"  {'span':40s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
    for span, t in sorted(report["totals"].items(), key=lambda kv: -kv[1]["self_s"]):
        if t["calls"]:
            print(f"  {span:40s} {t['calls']:9d} {t['total_s']:10.4f} {t['self_s']:10.4f}")
    layer = report["layer_self_s"]
    print("  layer self s: " + ", ".join(f"{k} {v:.4f}" for k, v in layer.items()))
    print(f"  layer self times sum to {sum(layer.values()):.4f} s of traced wall "
          f"{traced_wall:.4f} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "shockzoom" / "__init__.py").is_file():
        print(f"no shockzoom source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    env = environment(args.seed)
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{work.name}-", dir=WORK_DIR))
    try:
        if args.trace:
            result = per_layer(work, args.seed, tmp, env.get("L2"))
        else:
            result = end_to_end(work, args.seed, args.seconds, tmp)
    except StudyFailed as e:
        # only a set-up process lands here: without set-up there is no result
        print(f"set-up failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
