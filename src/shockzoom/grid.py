"""Uniform one-dimensional grids and the basic operations on sampled profiles.

A :class:`GridFunction` stores samples of a profile on nodes
``x_i = x_left + i * dx``.  All integral quantities use the trapezoid rule
on the closed interval ``[x_left, x_right]``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ShockzoomError

_GRID_RTOL = 1e-9


# the most cells one grid may have: 80 MB per array of its values
MAX_CELLS = 10**7


def cell_count(width: float, dx: float) -> int:
    """``width / dx`` rounded; ConfigError unless it lies in [1, MAX_CELLS]."""
    with np.errstate(over="ignore"):
        cells = width / dx
    if not (np.isfinite(cells) and 1 <= round(cells) <= MAX_CELLS):
        raise ConfigError(f"dx={dx:.3g} on a width of {width:.6g} gives {cells:.3g} "
                          f"cells, outside [1, {MAX_CELLS}]")
    return int(round(cells))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real-valued samples on a uniform grid.

    The dataclass is frozen; operations that change values return a new
    instance sharing the geometry.
    """

    x_left: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if not (self.dx > 0.0):
            raise ValueError(f"dx must be positive, got {self.dx}")
        if v.ndim != 1 or v.size < 2:
            raise ValueError("values must be a 1-d array with at least two nodes")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def x_right(self) -> float:
        return self.x_left + (self.n - 1) * self.dx

    @property
    def x(self) -> np.ndarray:
        return self.x_left + self.dx * np.arange(self.n)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.x_left, self.dx, values)

    @classmethod
    def from_callable(cls, f: Callable, x_left: float, x_right: float,
                      dx: float) -> "GridFunction":
        """Sample ``f`` on the uniform grid covering ``[x_left, x_right]``.

        The node count is rounded so that the spacing is exactly ``dx``;
        ``x_right`` is then the nearest grid node.
        """
        n = cell_count(x_right - x_left, dx) + 1
        x = x_left + dx * np.arange(n)
        return cls(x_left, dx, np.asarray(f(x), dtype=float))


@dataclass(frozen=True)
class Window:
    """A rectangle of (t, x) observation points."""

    t_min: float
    t_max: float
    x_min: float
    x_max: float

    def __post_init__(self):
        if not (self.t_min <= self.t_max and self.x_min <= self.x_max):
            raise ValueError("window bounds must be ordered")

    def t_samples(self, nt: int) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, nt)

    def x_samples(self, nx: int) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, nx)


def _check_same_grid(a: GridFunction, b: GridFunction) -> None:
    scale = max(1.0, abs(a.x_left), a.dx)
    if (a.n != b.n or abs(a.x_left - b.x_left) > _GRID_RTOL * scale
            or abs(a.dx - b.dx) > _GRID_RTOL * a.dx):
        raise ShockzoomError(
            f"grids differ: ({a.x_left}, {a.dx}, {a.n}) vs ({b.x_left}, {b.dx}, {b.n})")


def trapezoid(values: np.ndarray, dx: float):
    """Trapezoid rule along the last axis: a float for 1-d values."""
    v = np.asarray(values, dtype=float)
    out = dx * (v.sum(axis=-1) - 0.5 * (v[..., 0] + v[..., -1]))
    return float(out) if v.ndim == 1 else out


def periodic_mass(state: GridFunction) -> float:
    """Integral over one period for grids that omit the duplicate endpoint.

    This is the quantity the conservative update preserves exactly under
    periodic boundaries.
    """
    return float(state.values.sum() * state.dx)


def l1_distance(a: GridFunction, b: GridFunction) -> float:
    """Trapezoid-rule L1 distance between two profiles on the same grid."""
    _check_same_grid(a, b)
    return trapezoid(np.abs(a.values - b.values), a.dx)


def prolong_cubic(values: np.ndarray, m: int) -> np.ndarray:
    """Cubic Lagrange values on the grid m times finer; needs four or more nodes.

    Each fine node takes the cubic through the four coarse nodes around it,
    the stencil shifted inward at the ends, so every polynomial of degree
    <= 3 is reproduced; the coarse nodes keep their values exactly.
    """
    j = np.arange((values.size - 1) * m + 1)
    # the stencil's first coarse node and the fine node's place in it, in [0, 3]
    k = np.clip(j // m - 1, 0, values.size - 4)
    s = (j - m * k) / m
    a, b, c, d = (values[k + i] for i in range(4))
    return (-(s - 1.0) * (s - 2.0) * (s - 3.0) / 6.0 * a + s * (s - 2.0) * (s - 3.0) / 2.0 * b
            - s * (s - 1.0) * (s - 3.0) / 2.0 * c + s * (s - 1.0) * (s - 2.0) / 6.0 * d)


def max_forward_slope(state: GridFunction) -> float:
    """Largest one-sided slope (v[i+1] - v[i]) / dx over the grid."""
    return float(np.max(np.diff(state.values)) / state.dx)
