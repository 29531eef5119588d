"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py [WORKLOAD ...]

Run from the root of a source checkout.  Checks that

* uninstalling the tracer restores every wrapped function, so untraced
  studies measure unmodified code;
* the traced self times of all spans add up to the traced ``cli.main`` call;
* two traced studies of each named workload (default: all) give identical
  solver step, node-step and clamp counts and interpolation calls, so that
  count claims can rest on them.

The last check runs each workload twice (about a minute per workload).
Exit code 0 when every check passes, 1 otherwise.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from run import WORK_DIR, study  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REPEATED_COUNTS = ("solver.steps", "solver.node_steps", "solver.clamp_calls",
                   "rescale.interp.calls")


def bindings() -> dict:
    """Every attribute of every shockzoom module and of the classes they define."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "shockzoom" or name.startswith("shockzoom.")):
            continue
        for attr, value in list(vars(mod).items()):
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for key, member in list(vars(value).items()):
                    out[(name, f"{attr}.{key}")] = member
    return out


def check_restore() -> None:
    import shockzoom.cli  # noqa: F401
    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        if tracer.patched_count() == 0:
            raise AssertionError("tracer wrapped nothing")
        changed = [k for k, v in bindings().items() if before.get(k) is not v]
        if not changed:
            raise AssertionError("tracer reported patches but nothing changed")
    finally:
        tracer.uninstall()
    after = bindings()
    moved = [k for k in before if after.get(k) is not before[k]]
    if moved or set(after) != set(before):
        raise AssertionError(f"not restored after tracing: {moved[:5]}")


def check_partition(tmp: Path) -> None:
    from shockzoom import cli
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(["run", "--scenario", "theorem1-single", "--eps", "0.04,0.02",
                         "--set", "run.threads=1", "--out", str(tmp / "single")])
    finally:
        tracer.uninstall()
    if code != 0:
        raise AssertionError(f"cheap study exited {code}")
    report = tracer.report()
    root = report["totals"]["cli.main"]["total_s"]
    parts = sum(report["layer_self_s"].values())
    if abs(parts - root) > 1e-9 * max(1.0, root):
        raise AssertionError(f"self times sum to {parts} s, cli.main took {root} s")
    if report["counts"]["steps"] == 0 or report["totals"]["solver.solve"]["calls"] == 0:
        raise AssertionError("no solver work was traced")


def check_counts(workload: str, tmp: Path) -> None:
    seen = []
    for i in range(2):
        out = tmp / f"{workload}{i}"
        study(workload, 1, out, traced=True)
        report = json.loads((out / "trace.json").read_text())
        counts, totals = report["counts"], report["totals"]
        seen.append({
            "solver.steps": counts["steps"],
            "solver.node_steps": counts["node_steps"],
            "solver.clamp_calls": totals["solver.Clamped.at"]["calls"],
            "rescale.interp.calls": totals["rescale.SnapshotInterpolant.__call__"]["calls"],
        })
    if seen[0] != seen[1]:
        raise AssertionError(f"counts differ between traced runs: {seen}")
    print(f"  {workload}: " + ", ".join(f"{k}={seen[0][k]}" for k in REPEATED_COUNTS))


def main(argv) -> int:
    names = argv or sorted(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK_DIR))
    checks = [("wrappers restored", check_restore),
              ("self times partition cli.main", lambda: check_partition(tmp))]
    checks += [(f"repeatable counts: {n}", lambda n=n: check_counts(n, tmp)) for n in names]
    failed = 0
    try:
        for label, fn in checks:
            try:
                fn()
                print(f"PASS {label}")
            except Exception as e:  # report every check, then fail the run
                failed += 1
                print(f"FAIL {label}: {type(e).__name__}: {e}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
