"""One shockzoom study in a fresh process, measured from the inside.

    python3 perfbench/study.py --workload NAME --seed N --out DIR [--setup-only] [--trace]

Writes ``DIR/measure.json``.  Set-up is timed from before ``import
shockzoom`` to after ``cli.load_config`` and ``cli.make_scenario``.  The
study is timed from the ``cli.main`` call to its return, in wall and
process CPU time.  With ``--trace`` the layers are wrapped only around that
call and unwrapped afterwards; the spans are written to ``DIR/trace.json``.
"""
from __future__ import annotations

import argparse
import inspect
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    work = WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    from shockzoom import cli
    cfg = cli.load_config(None, work.config_sets(args.seed) + [work.setting])
    if work.scenario is not None:
        cli.make_scenario(cfg, work.scenario)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        (out / "measure.json").write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    argv = work.cli_argv(args.seed, str(out))
    w0 = time.perf_counter()
    c0 = time.process_time()
    try:
        code = cli.main(argv)
    finally:
        wall_s = time.perf_counter() - w0
        cpu_s = time.process_time() - c0
        if tracer is not None:
            tracer.uninstall()
    result.update(exit=code, wall_s=wall_s, cpu_s=cpu_s,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if code == 0:
        result.update(read_summary(work, out))
    if tracer is not None:
        (out / "trace.json").write_text(json.dumps(tracer.report()))
    (out / "measure.json").write_text(json.dumps(result))
    return 0


def read_summary(work, out: Path) -> dict:
    """The pass flag, the zoom error at the smallest eps and the smallest margin."""
    summary = json.loads((out / "summary.json").read_text())
    checks = summary["checks"]
    if work.error_field is not None:
        final_error = summary["outcomes"][-1][work.error_field]
    else:
        final_error = oleinik_slope(checks[-1])
    return {"passed": summary["passed"], "final_error": final_error,
            "min_margin": min(c["margin"] for c in checks)}


def oleinik_slope(check: dict) -> float:
    """The audit has no zoom error; report its one-sided slope at the last time.

    The summary holds only the margin, so the slope is the suite's bound
    1/(c1 t) + 2 dx minus that margin, with c1 and dx from the suite defaults.
    """
    from shockzoom import experiments
    p = inspect.signature(experiments.suite_oleinik).parameters
    dx = p["length"].default / p["n_nodes"].default
    return 1.0 / (p["c1"].default * check["t"]) + 2.0 * dx - check["margin"]


if __name__ == "__main__":
    sys.exit(main())
