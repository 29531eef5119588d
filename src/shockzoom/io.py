"""Deterministic text persistence: CSV tables and canonical JSON.

Floats are printed with 17 significant digits so every table round-trips
bit-for-bit; booleans are the words true/false; no timestamps or other
run-dependent noise ever enters an output file.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from .grid import GridFunction

Cell = Union[float, bool, str, int]
# the rows of a float table converted to Python floats at a time
_BLOCK_ROWS = 4096


def format_cell(v: Cell) -> str:
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def parse_cell(s: str) -> Cell:
    if s == "true":
        return True
    if s == "false":
        return False
    try:
        return float(s)
    except ValueError:
        return s


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[Cell]]) -> None:
    """The header and each row as one line, streamed to the file."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(map(format_cell, row)) + "\n" for row in rows)


def read_csv(path) -> Tuple[List[str], List[Tuple[Cell, ...]]]:
    text = Path(path).read_text()
    lines = [ln for ln in text.split("\n") if ln != ""]
    header = lines[0].split(",")
    rows = [tuple(parse_cell(tok) for tok in ln.split(",")) for ln in lines[1:]]
    return header, rows


def _write_floats(path, header: Sequence[str], tables: Iterable[np.ndarray]) -> None:
    """The header and the rows of each float table, as ``write_csv`` writes them.

    Each row is formatted by one ``%`` call, read off ``tolist`` in blocks
    of _BLOCK_ROWS rows, so a table of 10^6 rows holds no more than one
    block as Python floats.
    """
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for table in tables:
            for start in range(0, len(table), _BLOCK_ROWS):
                f.writelines(line % tuple(row)
                             for row in table[start:start + _BLOCK_ROWS].tolist())


def write_snapshots(path, snaps: Sequence[Tuple[float, GridFunction]]) -> None:
    """Long-format solution table, one (t, x, u) row per node per snapshot."""
    _write_floats(path, ("t", "x", "u"),
                  (np.column_stack((np.full(g.n, float(t)), g.x, g.values))
                   for t, g in snaps))


def write_profile(path, x: np.ndarray, values: np.ndarray) -> None:
    _write_floats(path, ("x", "S"), [np.column_stack((x, values))])


def write_z_table(path, points: np.ndarray) -> None:
    """Cubic-wave evaluations, one (t, x, z, zx, zxx, zxxx) row of ``points`` each."""
    _write_floats(path, ("t", "x", "z", "zx", "zxx", "zxxx"), [points])


def write_sweep(path, outcomes) -> None:
    """Per-viscosity errors of a zoom or rate sweep (ZoomOutcome instances)."""
    write_csv(path, ("eps", "sup_error", "l1_error", "shift"),
              ((o.eps, o.sup_error, o.l1_error, o.shift) for o in outcomes))


def write_audit(path, rows: Iterable[Tuple[str, float, float, bool]]) -> None:
    write_csv(path, ("check", "t", "margin", "pass"), rows)


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
    Path(path).write_text(
        json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")
