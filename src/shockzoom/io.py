"""Deterministic text persistence: CSV tables and canonical JSON.

Floats are printed with 17 significant digits so every table round-trips
bit-for-bit; booleans are the words true/false; no timestamps or other
run-dependent noise ever enters an output file.  Each writer makes its
file's directory, so a directory appears only when something is written
into it.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Sequence, Tuple

import numpy as np

from .grid import GridFunction

# the rows of a table converted to Python objects at a time
_BLOCK_ROWS = 4096
_FLOAT = "%.17g"


def _open(path):
    """``path`` opened for writing, its directory made first."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w")


def _write(path, header: Sequence[str], cells: Sequence[str],
           tables: Iterable[np.ndarray]) -> None:
    """The header, then each row of each 2-D table formatted by one ``%`` call.

    ``cells`` holds the ``%`` conversion of each column.  Rows are read off
    ``tolist`` in blocks of _BLOCK_ROWS rows, so a table of 10^6 rows holds
    no more than one block as Python objects.
    """
    line = ",".join(cells) + "\n"
    with _open(path) as f:
        f.write(",".join(header) + "\n")
        for table in tables:
            for start in range(0, len(table), _BLOCK_ROWS):
                f.writelines(line % tuple(row)
                             for row in table[start:start + _BLOCK_ROWS].tolist())


def write_snapshots(path, snaps: Sequence[Tuple[float, GridFunction]]) -> None:
    """Long-format solution table, one (t, x, u) row per node per snapshot."""
    _write(path, ("t", "x", "u"), [_FLOAT] * 3,
           (np.column_stack((np.full(g.n, float(t)), g.x, g.values))
            for t, g in snaps))


def write_profile(path, x: np.ndarray, values: np.ndarray) -> None:
    _write(path, ("x", "S"), [_FLOAT] * 2, [np.column_stack((x, values))])


def write_z_table(path, points: np.ndarray) -> None:
    """Cubic-wave evaluations, one (t, x, z, zx, zxx, zxxx) row of ``points`` each."""
    _write(path, ("t", "x", "z", "zx", "zxx", "zxxx"), [_FLOAT] * 6, [points])


def write_sweep(path, outcomes) -> None:
    """Per-viscosity errors of a zoom or rate sweep (ZoomOutcome instances)."""
    _write(path, ("eps", "sup_error", "l1_error", "shift"), [_FLOAT] * 4,
           [np.array([(o.eps, o.sup_error, o.l1_error, o.shift) for o in outcomes])])


def write_audit(path, rows: Iterable[Tuple[str, float, float, bool]]) -> None:
    """Check rows (name, t, margin, pass), the pass flag written as true/false."""
    _write(path, ("check", "t", "margin", "pass"), ("%s", _FLOAT, _FLOAT, "%s"),
           [np.array([(name, t, margin, "true" if ok else "false")
                      for name, t, margin, ok in rows], dtype=object)])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        # strict JSON has no NaN or Infinity; a number that is not finite is null
        return float(obj) if math.isfinite(obj) else None
    return obj


def write_summary(path, payload: dict) -> None:
    """Canonical JSON: sorted keys, two-space indent, trailing newline, no NaN."""
    with _open(path) as f:
        f.write(json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")
