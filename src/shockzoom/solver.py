"""IMEX conservative solver for u_t + f(u)_x = eps * u_xx.

Space: second-order central differencing, which adds no viscosity of its
own; it is free of grid oscillations only while the cell Peclet number
max|f'(u)| dx / eps stays below 2, so a grid too coarse for its viscosity
raises ConfigError.  Time: the two-stage second-order ARS(2,2,2) method
(Ascher, Ruuth and Spiteri, Appl. Numer. Math. 25, 1997): the flux
difference is explicit and the viscosity implicit, so the step obeys only
the advective bound: it is cfl_advection dx / max|f'(u)|, with the fraction
0.9 by default.  With central advection one step is linearly stable up to
the fraction MAX_CFL = 2.27 at every cell Peclet number below 2, so a
``SolverConfig`` takes any fraction in (0, MAX_CFL); the zoom march of
``experiments`` steps at 1.8 where it only carries the data to the window.
Each implicit stage solves one constant-coefficient tridiagonal system, by
FFT on a periodic grid and, on a clamped one, through its exact inverse
(``TridiagonalInverse``), whose constants are built once per step for both
stages; the inner stage's diffusion is read off its own solve.
Clamped end nodes are pinned and only the interior is marched: they hold
the data's end values, or, when the boundary carries ``ends(t)``, are set
once per step to its values at the new time, and the inner stage takes
the straight line between the old and the new end values.  Snapshots are
hit exactly by shortening the final step; nothing is ever interpolated in
time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError, InstabilityError
from .flux import FluxModel
from .grid import GridFunction, max_forward_slope

# the most grid values one solve may hold in snapshots (8 bytes each, 800 MB)
MAX_SNAPSHOT_VALUES = 10**8
# the most steps one solve may take, as the advective bound at t = 0 counts
# them: a state that speeds up or slows down later changes the true count
MAX_STEPS = 10**7

# ARS(2,2,2): the implicit stage weight and the explicit tableau's last row
GAMMA = 1.0 - 1.0 / math.sqrt(2.0)
DELTA = 1.0 - 1.0 / (2.0 * GAMMA)
# The step's fraction of the advective bound below which one ARS(2,2,2) step
# with central advection is linearly stable at every cell Peclet number
# below 2: von Neumann's max |g| over the modes first exceeds 1 at 2.85 for
# Peclet number 1 and at 2.27 as it nears 2.
MAX_CFL = 2.27

# a recurrence term damped below this fraction is dropped
_NEGLIGIBLE = 1e-18


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
    # the step's fraction of the advective bound dx / max|f'(u)|
    cfl_advection: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.viscosity < np.inf:
            raise ValueError("viscosity must be positive and finite")
        if not 0.0 < self.cfl_advection < MAX_CFL:
            raise ValueError(f"cfl_advection must lie in (0, {MAX_CFL}), where one step "
                             f"is linearly stable; got {self.cfl_advection!r}")


def stable_dt(values: np.ndarray, dx: float, flux: FluxModel, cfg: SolverConfig) -> float:
    """Advective step bound for the current state; ConfigError at cell Peclet >= 2."""
    speed = flux.max_speed(values)
    # checked every step: clamped ends that move can raise max|f'(u)|
    if speed * dx >= 2.0 * cfg.viscosity:
        raise ConfigError(f"cell Peclet number {speed * dx / cfg.viscosity:.3g} >= 2 at "
                          f"dx={dx:.3g}, viscosity={cfg.viscosity:.3g}: grid too coarse")
    return float(cfg.cfl_advection * dx / speed) if speed > 0.0 else np.inf


def check_step_count(t_final: float, speed: float, dx: float, cfl: float) -> None:
    """ConfigError if a march to t_final takes more than MAX_STEPS steps at
    the fraction ``cfl`` of the advective bound of ``speed`` on the mesh dx."""
    with np.errstate(over="ignore"):
        steps = np.float64(t_final) * speed / (cfl * dx)
    if not steps <= MAX_STEPS:
        raise ConfigError(f"t_final={t_final:.3g} takes about {steps:.3g} steps at "
                          f"dx={dx:.3g}, more than {MAX_STEPS}")


def _advection(u: np.ndarray, dx: float, flux: FluxModel, periodic: bool) -> np.ndarray:
    """-f(u)_x by central differences at u[1:-1], or at every node of a periodic u."""
    fu = flux.f(u)
    if periodic:
        fu = np.concatenate((fu[-1:], fu, fu[:1]))
    return (fu[:-2] - fu[2:]) * (0.5 / dx)


class TridiagonalInverse:
    """The exact inverse of (1 + 2r) x[i] - r (x[i-1] + x[i+1]) on n nodes, r > 0,
    with its r-dependent constants built once for every solve on them.

    On the whole line the inverse is c alpha^|i-k|, with c = 1/sqrt(1 + 4r)
    and alpha = r/beta < 1, beta the larger root of p^2 - (1 + 2r) p + r^2.
    Its two one-sided sums F[i] = sum_{k<=i} alpha^(i-k) d[k] and B, the same
    from the right, are one recurrence with ratio alpha, run by recursive
    doubling (Stone, J. ACM 20, 1973) over d joined to its reverse; past the
    join the reversed run also carries alpha^(n-i) F[n-1].  That sum,
    y = c (F + B - d), solves every row; the two homogeneous solutions
    alpha^(i+1) and alpha^(n-i), fitted to y's misses at i = -1 and n, take it
    onto the ends, exactly for every n.  Terms below _NEGLIGIBLE are dropped;
    rounding grows like sqrt(r) / n once r exceeds n^2.
    """

    def __init__(self, n: int, r: float):
        self.n = n
        root = math.sqrt(1.0 + 4.0 * r)
        self.alpha = alpha = 2.0 * r / (1.0 + 2.0 * r + root)
        self.c = 1.0 / root
        # the doubling passes e[shift:] += power e[:-shift] over the 2n values
        self.passes = []
        power, shift = alpha, 1
        while power >= _NEGLIGIBLE and shift < 2 * n:
            self.passes.append((power, shift))
            power, shift = power * power, 2 * shift
        self.far = alpha ** (n + 1)
        # alpha^j past the last k nodes is negligible
        k = min(n, math.ceil(math.log(_NEGLIGIBLE) / math.log(alpha)))
        self.decay = alpha ** np.arange(1.0, k + 1.0)

    def solve(self, d: np.ndarray, ends: Tuple[float, float]) -> np.ndarray:
        """The n + 2 values x[-1], ..., x[n]: the solve for d between the ends."""
        n, alpha, c, far, decay = self.n, self.alpha, self.c, self.far, self.decay
        out = np.empty(n + 2)
        out[0], out[-1] = ends
        if n == 0:
            return out
        # e[i] += alpha e[i-1] by recursive doubling: e[:n] is F, e[n:] B reversed
        e = np.concatenate((d, d[::-1]))
        for power, shift in self.passes:
            e[shift:] += power * e[:-shift]
        # y's misses at -1 and n, past the end values, and the fit that clears them
        a, b = c * alpha * e[-1] - ends[0], c * (1.0 + alpha) * e[n - 1] - ends[1]
        left, right = (a - far * b) / (1.0 - far * far), (b - far * a) / (1.0 - far * far)
        x = out[1:-1]
        np.add(e[:n], e[:n - 1:-1], out=x)
        x -= d
        x *= c
        k = decay.size
        x[:k] -= left * decay
        x[n - k:] -= right * decay[::-1]
        return out


def solve_circulant(d: np.ndarray, r: float) -> np.ndarray:
    """Solve (1 + 2r) x[i] - r (x[i-1] + x[i+1]) = d[i] with periodic indices, r > 0."""
    n = d.size
    symbol = 1.0 + 4.0 * r * np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2
    return np.fft.irfft(np.fft.rfft(d) / symbol, n)


def _ars222(u: np.ndarray, dx: float, flux: FluxModel, cfg: SolverConfig,
            dt: float, t: float) -> np.ndarray:
    """One ARS(2,2,2) step from time t to t + dt."""
    r = GAMMA * dt * cfg.viscosity / (dx * dx)
    bc = cfg.boundary
    periodic = isinstance(bc, Periodic)
    if periodic:
        v = u
    else:
        # only the interior is marched; the inner stage at t + GAMMA*dt takes
        # its ends on the line from the current to the new end values
        v, now = u[1:-1], (u[0], u[-1])
        if bc.ends is None:
            mid = new = now
        else:
            new = bc.at(t + dt)
            mid = tuple(a + GAMMA * (b - a) for a, b in zip(now, new))
        # both stages solve with the same r on the same nodes
        inverse = TridiagonalInverse(v.size, r)
    k1 = _advection(u, dx, flux, periodic)
    d = v + (GAMMA * dt) * k1
    inner = solve_circulant(d, r) if periodic else inverse.solve(d, mid)
    k2 = _advection(inner, dx, flux, periodic)
    # the inner stage's diffusion, from its own solve: nu u_xx = (inner - d) / (GAMMA dt);
    # inner is spent once k2 is taken, so the right-hand side is built in it
    rhs = inner if periodic else inner[1:-1]
    rhs -= d
    rhs *= (1.0 - GAMMA) / GAMMA
    rhs += v
    rhs += (DELTA * dt) * k1
    rhs += ((1.0 - DELTA) * dt) * k2
    return solve_circulant(rhs, r) if periodic else inverse.solve(rhs, new)


def solve(initial: GridFunction, flux: FluxModel, cfg: SolverConfig,
          t_final: float, snapshot_times: Sequence[float] = ()) -> List[Tuple[float, GridFunction]]:
    """March from t=0 and return (t, state) pairs at the requested times.

    Snapshot times must lie in [0, t_final]; when none are given the final
    time itself is reported.  The step before each snapshot is shortened so
    the landing is exact.  The snapshots together may hold at most
    MAX_SNAPSHOT_VALUES grid values, and a run of more than MAX_STEPS steps
    at the initial step bound is refused; either raises ConfigError before
    any step.
    """
    if t_final < 0.0:
        raise ValueError("t_final must be nonnegative")
    targets = sorted(set(float(s) for s in snapshot_times)) or [float(t_final)]
    if targets[0] < 0.0 or targets[-1] > t_final + 1e-12 * max(1.0, t_final):
        raise ValueError("snapshot_times must lie within [0, t_final]")
    if len(targets) * initial.n > MAX_SNAPSHOT_VALUES:
        raise ConfigError(f"{len(targets)} snapshots of {initial.n} nodes exceed "
                          f"{MAX_SNAPSHOT_VALUES} stored values")
    check_step_count(t_final, flux.max_speed(initial.values), initial.dx, cfg.cfl_advection)

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
            u = _ars222(u, dx, flux, cfg, dt, t)
            t = target if landing else t + dt
            step += 1
            m = np.abs(u).max()
            if not math.isfinite(m) or m > cap:
                x = initial.x_left + dx * int(np.argmax(np.abs(u)))
                raise InstabilityError(
                    f"solution blew up at step {step}, t={t:.6g}, dt={dt:.3g}: "
                    f"max|u|={m:.3g} at x={x:.6g} exceeds cap {cap:.3g}")
        # no step writes into its input, so each snapshot keeps its step's output
        out.append((target, initial.with_values(u)))
    return out


@dataclass(frozen=True)
class OleinikReport:
    """One row per snapshot: measured max slope vs the decay bound 1/(c1 t)."""

    rows: Tuple[Tuple[float, float, float, float], ...]  # (t, slope, bound, margin)
    violations: int
    worst_margin: float


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
