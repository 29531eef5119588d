"""Explicit conservative solver for u_t + f(u)_x = eps * u_xx.

Space: second-order central differencing, which adds no viscosity of its
own; it is free of grid oscillations only while the cell Peclet number
max|f'(u)| dx / eps stays below 2, so a grid too coarse for its viscosity
raises ConfigError.  Time: Heun's two-stage second-order method with a
step obeying both an advective CFL bound and an explicit diffusion bound.
Clamped end nodes are pinned and only the interior is marched: they hold
the data's end values, or, when the boundary carries ``ends(t)``, are set
once per step to its values at the new time.  Snapshots are hit exactly
by shortening the final step; nothing is ever interpolated in time.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError, InstabilityError
from .flux import FluxModel
from .grid import GridFunction, max_forward_slope

# the most grid values one solve may hold in snapshots (8 bytes each, 800 MB)
MAX_SNAPSHOT_VALUES = 10**8


@dataclass(frozen=True)
class Periodic:
    """Grid stores one period; the duplicate endpoint is omitted."""


@dataclass(frozen=True)
class Clamped:
    """Dirichlet ends: the data's end values, held, or ``ends(t) -> (left, right)``."""

    ends: Optional[Callable[[float], Tuple[float, float]]] = None

    def at(self, t: float) -> Tuple[float, float]:
        left, right = self.ends(t)
        return float(left), float(right)


@dataclass(frozen=True)
class SolverConfig:
    viscosity: float
    boundary: Union[Periodic, Clamped] = field(default_factory=Periodic)
    cfl_advection: ClassVar[float] = 0.9
    diffusion_number: ClassVar[float] = 0.4

    def __post_init__(self):
        if not 0.0 < self.viscosity < np.inf:
            raise ValueError("viscosity must be positive and finite")


def stable_dt(values: np.ndarray, dx: float, flux: FluxModel, cfg: SolverConfig) -> float:
    """Largest admissible step for the current state; ConfigError at cell Peclet >= 2."""
    speed = flux.max_speed(values)
    # checked every step: clamped ends that move can raise max|f'(u)|
    if speed * dx >= 2.0 * cfg.viscosity:
        raise ConfigError(f"cell Peclet number {speed * dx / cfg.viscosity:.3g} >= 2 at "
                          f"dx={dx:.3g}, viscosity={cfg.viscosity:.3g}: grid too coarse")
    dt = cfg.cfl_advection * dx / speed if speed > 0.0 else np.inf
    return float(min(dt, cfg.diffusion_number * dx * dx / cfg.viscosity))


def _rhs(ue: np.ndarray, dx: float, flux: FluxModel, cfg: SolverConfig) -> np.ndarray:
    """Semi-discrete update of ue[1:-1]; ue[0] and ue[-1] only enter as neighbours."""
    fu = flux.f(ue)
    interface = 0.5 * (fu[:-1] + fu[1:])
    rhs = -(interface[1:] - interface[:-1]) / dx
    rhs += cfg.viscosity * (ue[2:] - 2.0 * ue[1:-1] + ue[:-2]) / (dx * dx)
    return rhs


def _wrap(u: np.ndarray) -> np.ndarray:
    """One period with its wrapped neighbours as ghost nodes at both ends."""
    ue = np.empty(u.size + 2)
    ue[1:-1] = u
    ue[0], ue[-1] = u[-1], u[0]
    return ue


def _heun(u: np.ndarray, dx: float, flux: FluxModel, cfg: SolverConfig,
          dt: float, t: float) -> np.ndarray:
    if isinstance(cfg.boundary, Periodic):
        k1 = _rhs(_wrap(u), dx, flux, cfg)
        mid = u + dt * k1
        k2 = _rhs(_wrap(mid), dx, flux, cfg)
        return u + (0.5 * dt) * (k1 + k2)
    # clamped: only the interior is marched, with the current end values as
    # its neighbours; the end nodes keep their values, or move to ends(t + dt)
    bc = cfg.boundary
    left, right = (u[0], u[-1]) if bc.ends is None else bc.at(t + dt)
    k1 = _rhs(u, dx, flux, cfg)
    mid = np.empty_like(u)
    mid[1:-1] = u[1:-1] + dt * k1
    mid[0], mid[-1] = left, right
    k2 = _rhs(mid, dx, flux, cfg)
    out = np.empty_like(u)
    out[1:-1] = u[1:-1] + (0.5 * dt) * (k1 + k2)
    out[0], out[-1] = left, right
    return out


def solve(initial: GridFunction, flux: FluxModel, cfg: SolverConfig,
          t_final: float, snapshot_times: Sequence[float] = ()) -> List[Tuple[float, GridFunction]]:
    """March from t=0 and return (t, state) pairs at the requested times.

    Snapshot times must lie in [0, t_final]; when none are given the final
    time itself is reported.  The step before each snapshot is shortened so
    the landing is exact.  The snapshots together may hold at most
    MAX_SNAPSHOT_VALUES grid values; more raise ConfigError before any step.
    """
    if t_final < 0.0:
        raise ValueError("t_final must be nonnegative")
    targets = sorted(set(float(s) for s in snapshot_times)) or [float(t_final)]
    if targets[0] < 0.0 or targets[-1] > t_final + 1e-12 * max(1.0, t_final):
        raise ValueError("snapshot_times must lie within [0, t_final]")
    if len(targets) * initial.n > MAX_SNAPSHOT_VALUES:
        raise ConfigError(f"{len(targets)} snapshots of {initial.n} nodes exceed "
                          f"{MAX_SNAPSHOT_VALUES} stored values")

    dx = initial.dx
    u = initial.values.copy()
    cap = 10.0 * max(1.0, float(np.max(np.abs(u))))
    out: List[Tuple[float, GridFunction]] = []
    t = 0.0
    step = 0
    for target in targets:
        while t < target:
            dt = stable_dt(u, dx, flux, cfg)
            landing = t + dt >= target
            if landing:
                dt = target - t
            u = _heun(u, dx, flux, cfg, dt, t)
            t = target if landing else t + dt
            step += 1
            m = np.max(np.abs(u))
            if not np.isfinite(m) or m > cap:
                x = initial.x_left + dx * int(np.argmax(np.abs(u)))
                raise InstabilityError(
                    f"solution blew up at step {step}, t={t:.6g}, dt={dt:.3g}: "
                    f"max|u|={m:.3g} at x={x:.6g} exceeds cap {cap:.3g}")
        out.append((target, initial.with_values(u.copy())))
    return out


@dataclass(frozen=True)
class OleinikReport:
    """One row per snapshot: measured max slope vs the decay bound 1/(c1 t)."""

    rows: Tuple[Tuple[float, float, float, float], ...]  # (t, slope, bound, margin)
    violations: int
    worst_margin: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def oleinik_check(snapshots: Sequence[Tuple[float, GridFunction]], c1: float,
                  tolerance: float) -> OleinikReport:
    """Check the one-sided slope decay u_x <= 1/(c1 t) + tolerance."""
    if c1 <= 0.0:
        raise ValueError("c1 must be positive")
    rows = []
    violations = 0
    worst = np.inf
    for t, snap in snapshots:
        if t <= 0.0:
            raise ValueError("slope decay bound needs t > 0")
        slope = max_forward_slope(snap)
        bound = 1.0 / (c1 * t) + tolerance
        margin = bound - slope
        worst = min(worst, margin)
        if margin < 0.0:
            violations += 1
        rows.append((t, slope, bound, margin))
    return OleinikReport(tuple(rows), violations, float(worst))
