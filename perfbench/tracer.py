"""Span tracing around the public functions of each shockzoom layer.

The tracer works from outside the package: ``install`` rebinds each traced
function in every loaded ``shockzoom`` module that holds it (and methods on
their class), and ``uninstall`` puts every original back.  Nothing under
``src/`` changes.

A span's self time is its duration minus the time its traced children
took, so the self times of all spans under ``cli.main`` add up to the
duration of ``cli.main``.  Hot leaf calls (``Clamped.at`` and the snapshot
interpolant) are folded into per-name totals instead of one record per
call, and ``stable_dt`` is only counted, which keeps the tracing cost low.
"""
from __future__ import annotations

import math
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (module, function or Class.method, layer, keep one record per call)
TRACED: Tuple[Tuple[str, str, str, bool], ...] = (
    ("shockzoom.cli", "main", "cli", True),
    ("shockzoom.scenarios", "build_scenario", "scenarios", True),
    ("shockzoom.profiles", "traveling_wave", "profiles", True),
    ("shockzoom.profiles", "merging_wave", "profiles", True),
    ("shockzoom.profiles", "eternal_z", "profiles", True),
    ("shockzoom.solver", "solve", "solver", True),
    ("shockzoom.solver", "Clamped.at", "solver", False),
    ("shockzoom.rescale", "SnapshotInterpolant.__call__", "rescale", False),
    ("shockzoom.rescale", "fit_shift", "rescale", True),
    ("shockzoom.rescale", "fit_formation_frame", "rescale", True),
    ("shockzoom.experiments", "merging_surrogate", "experiments", True),
    ("shockzoom.experiments", "merging_zoom", "experiments", True),
    ("shockzoom.experiments", "formation_zoom", "experiments", True),
    ("shockzoom.experiments", "single_shock_zoom", "experiments", True),
    ("shockzoom.experiments", "contraction_check", "experiments", True),
    ("shockzoom.experiments", "mass_drift_check", "experiments", True),
    ("shockzoom.experiments", "suite_oleinik", "experiments", True),
    ("shockzoom.io", "write_sweep", "io", True),
    ("shockzoom.io", "write_audit", "io", True),
    ("shockzoom.io", "write_summary", "io", True),
    ("shockzoom.io", "write_snapshots", "io", True),
    ("shockzoom.io", "write_profile", "io", True),
    ("shockzoom.io", "write_z_table", "io", True),
)
LAYERS = ("cli", "scenarios", "profiles", "solver", "rescale", "experiments", "io")


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Spans and counters for one traced study, kept in memory."""

    def __init__(self):
        self._stack: List[list] = []          # [name, seconds in children]
        self.spans: List[tuple] = []          # (name, parent, start, end, self_s)
        self.totals: Dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.layer_of: Dict[str, str] = {}
        self.counts = {"steps": 0, "node_steps": 0, "steps_diffusive": 0,
                       "steps_advective": 0, "steps_landing": 0, "max_nodes": 0,
                       "snapshots_held": 0, "snapshot_bytes": 0, "io_bytes": 0}
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _timed(self, name: str, fn: Callable, keep: bool,
               after: Optional[Callable] = None) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        total = self.totals.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                total[0] += 1
                total[1] += dur
                total[2] += dur - frame[1]
                if keep:
                    spans.append((name, parent, start, end, dur - frame[1]))
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_solve(self, result, initial, flux, cfg, t_final, snapshot_times=(), **_):
        targets = set(float(s) for s in snapshot_times) or {float(t_final)}
        c = self.counts
        # every distinct target after t=0 ends with one shortened landing step
        c["steps_landing"] += sum(1 for t in targets if t > 0.0)
        c["snapshots_held"] = max(c["snapshots_held"], len(result))
        c["snapshot_bytes"] = max(c["snapshot_bytes"],
                                  sum(g.values.nbytes for _, g in result))

    def _counted_stable_dt(self, fn: Callable) -> Callable:
        c = self.counts

        def counted(values, dx, flux, cfg):
            dt = fn(values, dx, flux, cfg)
            c["steps"] += 1
            c["node_steps"] += values.size
            if values.size > c["max_nodes"]:
                c["max_nodes"] = values.size
            # recompute the advective bound from the same inputs; any step
            # shorter than it was cut by the diffusion bound
            speed = flux.max_speed(values)
            adv = cfg.cfl_advection * dx / speed if speed > 0.0 else math.inf
            if dt >= adv:
                c["steps_advective"] += 1
            else:
                c["steps_diffusive"] += 1
            return dt

        counted.__wrapped__ = fn
        return counted

    def _after_io(self, result, path, *args, **kwargs):
        self.counts["io_bytes"] += os.path.getsize(path)

    def _rebind(self, name: str, original, replacement) -> None:
        """Replace ``original`` wherever a shockzoom module binds it as ``name``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "shockzoom" or mod_name.startswith("shockzoom.")):
                continue
            if mod.__dict__.get(name) is original:
                self._patches.append((mod, name, original))
                setattr(mod, name, replacement)

    def install(self) -> None:
        """Wrap every traced function; the package must already be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        solver = sys.modules["shockzoom.solver"]
        self._rebind("stable_dt", solver.stable_dt,
                     self._counted_stable_dt(solver.stable_dt))
        for module, attr, layer, keep in TRACED:
            mod = sys.modules[module]
            name = span_name(module, attr)
            self.layer_of[name] = layer
            after = None
            if attr == "solve":
                after = self._after_solve
            elif layer == "io":
                after = self._after_io
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[meth]
                self._patches.append((owner, meth, original))
                setattr(owner, meth, self._timed(name, original, keep, after))
            else:
                original = getattr(mod, attr)
                self._rebind(attr, original,
                             self._timed(name, original, keep, after))

    def uninstall(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched_count(self) -> int:
        return len(self._patches)

    # -- results ------------------------------------------------------------

    def layer_self(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.totals.items():
            out[self.layer_of[name]] += self_s
        return out

    def report(self) -> dict:
        """Everything the tracer holds, as plain JSON data."""
        return {
            "totals": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2],
                           "layer": self.layer_of[k]}
                       for k, v in self.totals.items()},
            "layer_self_s": self.layer_self(),
            "counts": dict(self.counts),
            "spans": [{"name": n, "parent": p, "start": s, "end": e, "self_s": x}
                      for n, p, s, e, x in self.spans],
        }
