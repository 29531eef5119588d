"""Explicit conservative solver for u_t + f(u)_x = eps * u_xx.

Space: second-order conservative differencing with either a central
numerical flux or a local Lax-Friedrichs flux (default; the interface
dissipation coefficient is the larger neighbouring wave speed).  Time:
Heun's two-stage second-order method with a step obeying both an advective
CFL bound and an explicit diffusion bound.  Clamped end nodes are pinned
and only the interior is marched: they hold the data's end values, or,
when the boundary carries ``ends(t)``, are set once per step to its values
at the new time.  Snapshots are hit exactly by shortening the final step;
nothing is ever interpolated in time.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import InstabilityError
from .flux import FluxModel
from .grid import GridFunction, max_forward_slope

CENTRAL = "central"
LLF = "local-lax-friedrichs"


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
    viscosity: float = 0.0
    boundary: Union[Periodic, Clamped] = field(default_factory=Periodic)
    flux_scheme: str = LLF
    cfl_advection: ClassVar[float] = 0.9
    diffusion_number: ClassVar[float] = 0.4

    def __post_init__(self):
        if self.viscosity < 0.0:
            raise ValueError("viscosity must be nonnegative")
        if self.flux_scheme not in (CENTRAL, LLF):
            raise ValueError(f"unknown flux_scheme {self.flux_scheme!r}")


def stable_dt(values: np.ndarray, dx: float, flux: FluxModel, cfg: SolverConfig) -> float:
    """Largest admissible step for the current state."""
    speed = flux.max_speed(values)
    dt = cfg.cfl_advection * dx / speed if speed > 0.0 else np.inf
    # the LLF interface dissipation acts like extra viscosity speed*dx/2, and
    # the two diffusive terms share one stability budget
    diffusion = cfg.viscosity
    if cfg.flux_scheme == LLF:
        diffusion += 0.5 * speed * dx
    if diffusion > 0.0:
        dt = min(dt, cfg.diffusion_number * dx * dx / diffusion)
    if not np.isfinite(dt):
        # neither advection nor diffusion active; any step is formally stable
        dt = dx
    return float(dt)


def _rhs(ue: np.ndarray, dx: float, flux: FluxModel, cfg: SolverConfig) -> np.ndarray:
    """Semi-discrete update of ue[1:-1]; ue[0] and ue[-1] only enter as neighbours."""
    fu = flux.f(ue)
    interface = 0.5 * (fu[:-1] + fu[1:])
    if cfg.flux_scheme == LLF:
        dfe = np.abs(flux.df(ue))
        a = np.maximum(dfe[:-1], dfe[1:])
        interface = interface - 0.5 * a * (ue[1:] - ue[:-1])
    rhs = -(interface[1:] - interface[:-1]) / dx
    if cfg.viscosity > 0.0:
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


def _check_stable(u: np.ndarray, cap: float, t: float) -> None:
    m = np.max(np.abs(u))
    if not np.isfinite(m) or m > cap:
        raise InstabilityError(
            f"solution blew up at t={t:.6g}: max|u|={m:.3g} exceeds cap {cap:.3g}")


def solve(initial: GridFunction, flux: FluxModel, cfg: SolverConfig,
          t_final: float, snapshot_times: Sequence[float] = ()) -> List[Tuple[float, GridFunction]]:
    """March from t=0 and return (t, state) pairs at the requested times.

    Snapshot times must lie in [0, t_final]; when none are given the final
    time itself is reported.  The step before each snapshot is shortened so
    the landing is exact.
    """
    if t_final < 0.0:
        raise ValueError("t_final must be nonnegative")
    targets = sorted(set(float(s) for s in snapshot_times)) or [float(t_final)]
    if targets[0] < 0.0 or targets[-1] > t_final + 1e-12 * max(1.0, t_final):
        raise ValueError("snapshot_times must lie within [0, t_final]")

    dx = initial.dx
    u = initial.values.copy()
    cap = 10.0 * max(1.0, float(np.max(np.abs(u))))
    out: List[Tuple[float, GridFunction]] = []
    t = 0.0
    for target in targets:
        while t < target:
            dt = stable_dt(u, dx, flux, cfg)
            if t + dt >= target:
                u = _heun(u, dx, flux, cfg, target - t, t)
                t = target
            else:
                u = _heun(u, dx, flux, cfg, dt, t)
                t += dt
            _check_stable(u, cap, t)
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
