"""Exact inviscid solutions: characteristics, shock patterns, and the
backward self-similar cubic wave.

The cubic wave z(t, x) is the decreasing root of

    x = t z - z^3,        t <= 0,

which solves the inviscid quadratic-flux equation backward from a cubic
critical point at the origin.  It is evaluated in closed form (stabilised
Cardano root, picking the larger-magnitude cube root to avoid cancellation)
and polished with Newton steps on the cubic residual, so the residual is at
round-off level everywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (MultipleRootsError, NoBracketError, NotOrderedError)
from .flux import FluxModel, ShockData, rankine_hugoniot

_FD_RTOL = 1e-6


@dataclass(frozen=True)
class SmoothData:
    """Smooth initial data with its derivative.

    The derivative is cross-checked against central differences at
    construction on ``check_points`` (a default interior sample when not
    given), so an inconsistent pair fails immediately.
    """

    u0: Callable
    du0: Callable
    check_points: Optional[np.ndarray] = None

    def __post_init__(self):
        pts = self.check_points
        if pts is None:
            pts = np.linspace(-2.0, 2.0, 17)
        pts = np.asarray(pts, dtype=float)
        object.__setattr__(self, "check_points", pts)
        h = 1e-5
        fd = (self.u0(pts + h) - self.u0(pts - h)) / (2.0 * h)
        du = self.du0(pts)
        # a NaN error must fail too, hence not (err <= tol)
        if not np.max(np.abs(fd - du) / (1.0 + np.abs(du))) <= _FD_RTOL:
            raise ValueError("du0 disagrees with finite differences of u0")


def characteristic_value(data: SmoothData, flux: FluxModel, t: float, x: float,
                         tol: float = 1e-13) -> float:
    """Value carried to (t, x) along straight characteristics.

    Solves xi + t f'(u0(xi)) = x for the foot point by a bracketed scan,
    bisection, and a Newton polish.  A single sign change is required:
    none raises NoBracketError, several raise MultipleRootsError (the
    characteristic field has folded).
    """

    def residual(xi):
        return xi + t * flux.df(data.u0(xi)) - x

    # bootstrap the speed bound from a local sample, then widen
    local = np.linspace(x - 1.0, x + 1.0, 33)
    m = float(np.max(np.abs(flux.df(data.u0(local)))))
    width = (m + 1.0) * (abs(t) + 1.0)
    wide = np.linspace(x - width, x + width, 65)
    m = max(m, float(np.max(np.abs(flux.df(data.u0(wide))))))
    lo = x - abs(t) * m - 1.0
    hi = x + abs(t) * m + 1.0

    scan = np.linspace(lo, hi, 257)
    r = residual(scan)
    # an exact zero at a scan node is one root, not two sign flips around it
    node_roots = np.nonzero(r == 0.0)[0]
    sign_change = np.nonzero(r[:-1] * r[1:] < 0.0)[0]
    n_roots = node_roots.size + sign_change.size
    if n_roots == 0:
        raise NoBracketError(f"no characteristic foot point in [{lo:.3g}, {hi:.3g}]")
    if n_roots > 1:
        raise MultipleRootsError(
            f"{n_roots} candidate foot points: characteristics have crossed")
    if node_roots.size:
        return float(data.u0(scan[node_roots[0]]))

    a, b = scan[sign_change[0]], scan[sign_change[0] + 1]
    ra = residual(a)
    for _ in range(80):
        mid = 0.5 * (a + b)
        rm = residual(mid)
        if rm == 0.0 or (b - a) < tol * max(1.0, abs(mid)):
            a = b = mid
            break
        if (ra < 0.0) == (rm < 0.0):
            a, ra = mid, rm
        else:
            b = mid
    xi = 0.5 * (a + b)
    # one Newton polish; derivative by finite differences of the residual
    h = 1e-7 * max(1.0, abs(xi))
    dr = (residual(xi + h) - residual(xi - h)) / (2.0 * h)
    if dr != 0.0 and np.isfinite(dr):
        xi_new = xi - residual(xi) / dr
        if lo <= xi_new <= hi:
            xi = xi_new
    return float(data.u0(xi))


def blowup_time(data: SmoothData, flux: FluxModel, xi: float) -> float:
    """First focusing time of the characteristic from xi; inf if it never focuses."""
    slope = float(data.du0(xi)) * float(flux.d2f(data.u0(xi)))
    if slope >= 0.0:
        return float(np.inf)
    return -1.0 / slope


def single_shock(shock: ShockData, t, x):
    """Two-state pattern with the jump on the line x = speed * t.

    Points on the line take the right state.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.where(x < shock.speed * t, shock.u_minus, shock.u_plus)
    return out if out.ndim else float(out)


def two_shock(flux: FluxModel, u_minus: float, u_star: float, u_plus: float, t, x):
    """Two shocks merging at the origin: three states for t < 0, two after.

    Requires u_minus > u_star > u_plus.  Ties on a shock line take the state
    to the right.
    """
    if not (u_minus > u_star > u_plus):
        raise NotOrderedError(
            f"need u_minus > u_star > u_plus, got {(u_minus, u_star, u_plus)}")
    s1 = rankine_hugoniot(flux, u_minus, u_star)
    s2 = rankine_hugoniot(flux, u_star, u_plus)
    merged = rankine_hugoniot(flux, u_minus, u_plus)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    pre = np.where(x < s1.speed * t, u_minus,
                   np.where(x < s2.speed * t, u_star, u_plus))
    post = np.where(x < merged.speed * t, u_minus, u_plus)
    out = np.where(t < 0.0, pre, post)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# the cubic wave


def z_root(t, x):
    """Vectorised decreasing root of x = t z - z^3 for t <= 0.

    Uses the closed-form real root; the cube root of larger magnitude is
    expanded and its partner recovered from the product identity, which
    avoids catastrophic cancellation near x = 0.  Two Newton polish steps
    bring the cubic residual to round-off.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(t > 0.0):
        raise ValueError("z_root is defined for t <= 0")
    return _outer_root(t, x)


def _outer_root(t, x):
    """Single real root of x = t z - z^3 when the discriminant is positive.

    For t <= 0 this is always the case; for t > 0 it holds outside the
    fold region |x| <= 2 (t/3)^(3/2), which is where boundary clamps use it.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    t, x = np.broadcast_arrays(t, x)
    disc = 0.25 * x * x - (t ** 3) / 27.0
    if np.any(disc < 0.0):
        raise ValueError("no single real root inside the fold region")
    s = np.sqrt(disc)
    h1 = -0.5 * x + s
    h2 = -0.5 * x - s
    big = np.where(np.abs(h1) >= np.abs(h2), h1, h2)
    a = np.cbrt(big)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(a != 0.0, a + t / (3.0 * np.where(a != 0.0, a, 1.0)), 0.0)
    for _ in range(2):
        r = (z * z - t) * z + x
        d = 3.0 * z * z - t
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(d != 0.0, z - r / d, z)
    return z if z.ndim else float(z)


def _z_derivatives(t, z):
    """First three x-derivatives from implicit differentiation of the cubic."""
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = t - 3.0 * z * z          # negative for t < 0
        zx = 1.0 / g
        zxx = 6.0 * z / g ** 3
        zxxx = 6.0 / g ** 4 + 108.0 * z * z / g ** 5
    return zx, zxx, zxxx


@dataclass(frozen=True)
class ZPoint:
    """Cubic-wave value and x-derivatives at one (t, x)."""

    t: float
    x: float
    z: float
    zx: float
    zxx: float
    zxxx: float

    @property
    def residual(self) -> float:
        return abs(self.x - (self.t * self.z - self.z ** 3))


def z_eval(t: float, x: float) -> ZPoint:
    """Evaluate the cubic wave and its first three x-derivatives at (t, x), t <= 0."""
    if t > 0.0:
        raise ValueError("z_eval requires t <= 0")
    z = float(z_root(t, x))
    zx, zxx, zxxx = _z_derivatives(t, z)
    return ZPoint(float(t), float(x), z, float(zx), float(zxx), float(zxxx))


@dataclass(frozen=True)
class ZBoundsReport:
    """Violation counts and worst margins of the cubic-wave bounds on a grid."""

    n_points: int
    violations: int
    worst: dict
    residual_max: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def z_bounds_audit(t_grid: Sequence[float], x_grid: Sequence[float],
                   slack: float = 1e-12) -> ZBoundsReport:
    """Audit slope, curvature, third-derivative, and envelope bounds of z.

    Checked on the tensor grid, all with t < 0:
      slope:      1/t <= z_x < 0
      curvature:  |z_xx| < |t|^(-5/2), with the sign of x
      third:      |z_xxx| <= 36 / t^4
      envelope:   min(|x/2t|, |x/2|^(1/3)) <= |z| <= min(|x/t|, |x|^(1/3))
      residual:   |x - (t z - z^3)| <= 1e-10 (1 + |x|)
    """
    t_grid = np.asarray(t_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    if np.any(t_grid >= 0.0):
        raise ValueError("audit grid needs t < 0")
    tt, xx = np.meshgrid(t_grid, x_grid, indexing="ij")
    z = z_root(tt, xx)
    zx, zxx, zxxx = _z_derivatives(tt, z)
    absz = np.abs(z)
    abst = np.abs(tt)
    absx = np.abs(xx)

    margins = {
        "slope_upper": -zx,                                  # need zx < 0
        "slope_lower": zx - 1.0 / tt,                        # need zx >= 1/t
        "curvature": abst ** -2.5 - np.abs(zxx),
        "curvature_sign": np.sign(xx) * zxx,                 # z_xx carries the sign of x
        "third": 36.0 / tt ** 4 - np.abs(zxxx),
        "envelope_lower": absz - np.minimum(absx / (2.0 * abst), (absx / 2.0) ** (1.0 / 3.0)),
        "envelope_upper": np.minimum(absx / abst, absx ** (1.0 / 3.0)) - absz,
        "residual": 1e-10 * (1.0 + absx) - np.abs(xx - (tt * z - z ** 3)),
    }
    violations = 0
    worst = {}
    for key, m in margins.items():
        worst[key] = float(np.min(m))
        violations += int(np.count_nonzero(m < -slack))
    res = float(np.max(np.abs(xx - (tt * z - z ** 3))))
    return ZBoundsReport(int(z.size), violations, worst, res)
