"""The benchmark's workloads: default CLI studies, one per stressed path.

Each workload is a default ``shockzoom`` study.  Together they stand in for
the acceptance criteria that take most of the gate time, which are too long
to repeat for every benchmark run.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Tuple[str, ...]
    # the config item that ``cli.main`` derives from ``argv``
    setting: str
    # scenario built during set-up; None for an audit, which builds none
    scenario: Optional[str]
    # summary.json outcome field holding the zoom error; None for an audit
    error_field: Optional[str]
    # whether the subcommand reads ``run.seed``
    takes_seed: bool

    def config_sets(self, seed: int) -> List[str]:
        """The ``--set`` items of the study, pinned to one thread."""
        sets = ["run.threads=1"]
        if self.takes_seed:
            sets.append(f"run.seed={seed}")
        return sets

    def cli_argv(self, seed: int, out: str) -> List[str]:
        """Arguments for ``shockzoom.cli.main``."""
        flags = [f for item in self.config_sets(seed) for f in ("--set", item)]
        return list(self.argv) + flags + ["--out", out]


WORKLOADS = {
    # unit-viscosity eternal wave with callable clamps, then type-2 zooms
    "formation": Workload("formation", ("run", "--scenario", "theorem2-formation"),
                          "run.scenario=theorem2-formation", "theorem2-formation",
                          "sup_error", True),
    # LLF interaction-wave surrogate, then type-1 zooms with a shift search
    "merging": Workload("merging", ("run", "--scenario", "theorem1-merging"),
                        "run.scenario=theorem1-merging", "theorem1-merging",
                        "l1_error", True),
    # periodic LLF solve on 1024 nodes: fixed per-step overhead dominates
    "oleinik": Workload("oleinik", ("audit", "--suite", "oleinik"),
                        "audit.suite=oleinik", None, None, False),
}
