"""Exact inviscid solutions: characteristics, blow-up times, and the
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
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ShockzoomError
from .flux import FluxModel

_FD_RTOL = 1e-6
# rows per block of ``characteristic_value``: 512 x 257 scan points, 1 MB an
# array, however many x a reference asks for (4096 rows at once raised the
# peak RSS of a sweep before the blow-up from 37 to 66 MB, for no speed)
_FOOT_ROWS = 512


@dataclass(frozen=True)
class SmoothData:
    """Smooth initial data with its derivative.

    The derivative is cross-checked against central differences at
    construction on ``check_points``, so an inconsistent pair fails
    immediately.
    """

    u0: Callable
    du0: Callable
    check_points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.check_points, dtype=float)
        object.__setattr__(self, "check_points", pts)
        h = 1e-5
        fd = (self.u0(pts + h) - self.u0(pts - h)) / (2.0 * h)
        du = self.du0(pts)
        # a NaN error must fail too, hence not (err <= tol)
        if not np.max(np.abs(fd - du) / (1.0 + np.abs(du))) <= _FD_RTOL:
            raise ValueError("du0 disagrees with finite differences of u0")


def bracketed_root(residual: Callable, u, lo, hi):
    """Root of an increasing residual at every node, inside its bracket [lo, hi].

    ``residual(u)`` returns ``(r, r_u)``.  Each pass takes a Newton step from
    u; a step that lands outside the closed bracket takes the bracket's
    midpoint instead, and the sign of each residual narrows the node's
    bracket.  A node is frozen once it moves at most four ulps of
    max(|u|, 1), so its value never depends on the other nodes of the call;
    the loop stops after at most 90 passes, as many as a bisection takes to
    close any bracket.
    """
    live = np.ones(np.shape(u), dtype=bool)
    for _ in range(90):
        r, slope = residual(u)
        lo = np.where(r <= 0.0, u, lo)
        hi = np.where(r >= 0.0, u, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = u - r / slope
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        moved = np.abs(new - u) > 4.0 * np.finfo(float).eps * np.maximum(np.abs(u), 1.0)
        u = np.where(live, new, u)
        live &= moved
        if not np.any(live):
            break
    return u


def characteristic_value(data: SmoothData, flux: FluxModel, t: float, x):
    """Values carried to (t, x) along straight characteristics, at every x at once.

    Solves xi + t f'(u0(xi)) = x for each foot point: a scan brackets it,
    then ``bracketed_root`` finds it from the bracket's midpoint, one row per
    x, in blocks of _FOOT_ROWS rows.  Each x needs a single sign change: the
    first x with none, or with several (the characteristic field has folded),
    raises ShockzoomError.  A scalar x gives a float.
    """
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    out = np.empty(flat.size)

    for first in range(0, flat.size, _FOOT_ROWS):
        x = flat[first:first + _FOOT_ROWS]
        # bootstrap the speed bound from a local sample, then widen
        local = np.linspace(x - 1.0, x + 1.0, 33, axis=-1)
        m = np.max(np.abs(flux.df(data.u0(local))), axis=1)
        width = (m + 1.0) * (abs(t) + 1.0)
        wide = np.linspace(x - width, x + width, 65, axis=-1)
        m = np.maximum(m, np.max(np.abs(flux.df(data.u0(wide))), axis=1))
        lo = x - abs(t) * m - 1.0
        hi = x + abs(t) * m + 1.0

        scan = np.linspace(lo, hi, 257, axis=-1)
        r = (scan - x[:, None]) + t * flux.df(data.u0(scan))
        # an exact zero at a scan node is one root, not two sign flips around it
        node_root = r == 0.0
        sign_change = r[:, :-1] * r[:, 1:] < 0.0
        n_roots = np.sum(node_root, axis=1) + np.sum(sign_change, axis=1)
        bad = np.flatnonzero(n_roots != 1)
        if bad.size:
            k = bad[0]
            if n_roots[k] == 0:
                raise ShockzoomError(f"no characteristic foot point of x={x[k]:.6g} in "
                                     f"[{lo[k]:.3g}, {hi[k]:.3g}]")
            raise ShockzoomError(f"{n_roots[k]} candidate foot points of x={x[k]:.6g}: "
                                 f"characteristics have crossed")

        # each row's bracket: [j, j + 1] around its sign change, or its root
        # node j twice, which is settled
        rows = np.arange(x.size)
        node = np.any(node_root, axis=1)
        j = np.where(node, np.argmax(node_root, axis=1), np.argmax(sign_change, axis=1))
        a = scan[rows, j]
        b = scan[rows, j + ~node]

        def residual(xi, x=x):
            u = data.u0(xi)
            return ((xi - x) + t * flux.df(u),
                    1.0 + t * flux.d2f(u) * data.du0(xi))

        xi = bracketed_root(residual, 0.5 * (a + b), a, b)
        out[first:first + _FOOT_ROWS] = data.u0(xi)
    return out.reshape(xs.shape) if xs.ndim else float(out[0])


def blowup_time(data: SmoothData, flux: FluxModel, xi):
    """First focusing time of the characteristic from each xi; inf where it
    never focuses.  A scalar xi gives a float."""
    xi = np.asarray(xi, dtype=float)
    slope = data.du0(xi) * flux.d2f(data.u0(xi))
    with np.errstate(divide="ignore"):
        out = np.where(slope >= 0.0, np.inf, -1.0 / slope)
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
    """Single real root of x = t z - z^3: at every x for t <= 0, and outside
    the fold region |x| <= 2 (t/3)^(3/2) for t > 0."""
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


def z_eval(t, x):
    """The cubic wave and its first three x-derivatives, (z, z_x, z_xx, z_xxx),
    as arrays broadcast over t and x, all t <= 0.

    The derivatives come from implicit differentiation of the cubic.
    """
    z = z_root(t, x)
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = t - 3.0 * z * z          # negative for t < 0
        return z, 1.0 / g, 6.0 * z / g ** 3, 6.0 / g ** 4 + 108.0 * z * z / g ** 5


@dataclass(frozen=True)
class ZBoundsReport:
    """Violation counts and worst margins of the cubic-wave bounds on a grid."""

    n_points: int
    violations: int
    worst: dict
    residual_max: float


def z_bounds_audit(t_grid: Sequence[float], x_grid: Sequence[float]) -> ZBoundsReport:
    """Audit slope, curvature, third-derivative, and envelope bounds of z.

    Checked on the tensor grid, all with t < 0, each to a slack of 1e-12:
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
    z, zx, zxx, zxxx = z_eval(tt, xx)
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
        violations += int(np.count_nonzero(m < -1e-12))
    res = float(np.max(np.abs(xx - (tt * z - z ** 3))))
    return ZBoundsReport(int(z.size), violations, worst, res)


# ---------------------------------------------------------------------------
# the eternal wave, by Cole-Hopf

# the trapezoid step in widths of the log-weight's curvature (a Gaussian's
# rule errs by exp(-2 pi^2 / Z_STEP^2), 1e-20), the log-weight below every
# peak where nodes stop, and the most nodes per time and terms per call
Z_STEP, Z_TAIL, MAX_Z_NODES, MAX_QUADRATURE_TERMS = 0.65, 60.0, 10**5, 10**9


def z_exact(n: float, t, x: np.ndarray) -> np.ndarray:
    """The eternal wave Z^(n): unit-viscosity Burgers from z(-n, .) at t = -n.

    By Cole-Hopf, with s = t + n > 0, Z is the mean of (x - y)/s under the
    weight exp(psi(y) - (x - y)^2/(4s)), psi(y) = -1/2 int_0^y z(-n, .) =
    n z^2/4 + 3 z^4/8 at z = z(-n, y), summed by the trapezoid rule in z
    with y = -n z - z^3, dy = (n + 3 z^2) dz.  At t = -n, Z is z(-n, x).
    A sequence of times t adds a leading axis to x's shape.  ConfigError,
    before any sum, unless n > 0 and every t >= -n are finite and z(-n, .)
    is finite on |x|; past MAX_Z_NODES nodes at a time (one just after the
    launch) or MAX_QUADRATURE_TERMS in all, each time counting at least one
    block of ``_z_mean``; and for a value not finite.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    x = np.asarray(x, dtype=float)
    if not (0.0 < n < np.inf and np.all(np.isfinite(times) & (times >= -n))):
        raise ConfigError(f"Z^(n) needs a finite n > 0 and finite times t >= -n, "
                          f"the launch time -n={-n:.6g}")
    # Z is odd: each distinct |x| is summed once
    ax, back = np.unique(np.abs(x), return_inverse=True)
    xr = float(np.max(ax, initial=0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(z_root(-n, xr)):
            raise ConfigError(f"n={n:.3g}: the launch data z(-n, x) overflow")
    later = np.flatnonzero(times > -n)
    terms = later.size * 2**15
    if terms <= MAX_QUADRATURE_TERMS:
        lo, hi, h = _z_spans(n, times[later], xr)
        nodes = np.ceil(hi / h) - np.floor(lo / h) + 1.0
        terms = int(np.sum(np.maximum(ax.size * nodes, 2**15)))
    if terms > MAX_QUADRATURE_TERMS:
        raise ConfigError(f"Z^({n:.3g}) takes {terms} quadrature terms, more than "
                          f"{MAX_QUADRATURE_TERMS}")
    out = np.empty(times.shape + x.shape)
    out[times == -n] = z_root(-n, x)
    for i, a, b, step in zip(later, lo, hi, h):
        z = step * np.arange(np.floor(a / step), np.ceil(b / step) + 1.0)
        keep = np.flatnonzero(_z_bound(z, n, times[i], xr) >= -Z_TAIL)
        z = z[max(keep[0] - 1, 0):keep[-1] + 2]
        # x = 0 takes 0, not the -0 of a negative sum
        out[i] = np.where(x == 0.0, 0.0,
                          np.sign(x) * _z_mean(n, times[i], ax, z)[back].reshape(x.shape))
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"Z^({n:.3g}) is not finite")
    return out if np.ndim(t) else out[0]


def _z_bound(z, n: float, t, xr: float):
    """psi(y) - dist(y, [0, xr])^2/(4s) at y = -n z - z^3, a bound on the
    log-weight at 0 <= x <= xr, with psi - y^2/(4s) expanded so that no term
    grows with n."""
    zz, y = z * z, -(n + z * z) * z
    near = np.clip(y, 0.0, xr)
    return (zz * (n * t + (1.5 * t - 0.5 * n) * zz - zz * zz)
            + near * (2.0 * y - near)) / (4.0 * (t + n))


def _z_spans(n: float, t: np.ndarray, xr: float):
    """Each time's trapezoid step h and span [lo, hi] in z on |x| <= xr, t > -n.

    On x >= 0 every peak of the log-weight L is >= 0 (at y = x); the span
    doubles outwards from [0, xr] until ``_z_bound``, unimodal on either
    side, falls below -Z_TAIL.  On a strip of half-width d the rule errs by
    about exp(max_z (L + d^2 k/2) - 2 pi d/h), k = (15 z^4 + (3n - 9t) z^2
    - n t + 6 x z)/(2s) the curvature of -L: (n + 3 z^2)(3 z^2 - t)/(2s) at
    a saddle x = t z - z^3, |z| <= zm = xr^(1/3) + sqrt(max(t, 0)).  So
    h = Z_STEP/sqrt(K) keeps a Gaussian's exp(-T), T = 2 pi^2/Z_STEP^2, if
    K >= k T/(T - L): K is the larger of k at zm and the largest k T/(T -
    ``_z_bound``) at 65 points of the span, k taken at x = xr for z > 0."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = 3.0 * (np.cbrt(xr) + np.sqrt(np.maximum(t, 0.0))) ** 2
        h = Z_STEP / np.sqrt((n + w) * (w - t) / (2.0 * (t + n)) + 1.0)
        core = _outer_root(-n, xr)
        lo, hi = core - h, h
        # each side doubles up to the node cap, or to a bound of -inf or nan
        while np.any(grow := (_z_bound(lo, n, t, xr) >= -Z_TAIL) & ((hi - lo) / h <= MAX_Z_NODES)):
            lo = np.where(grow, core - 2.0 * (core - lo), lo)
        while np.any(grow := (_z_bound(hi, n, t, xr) >= -Z_TAIL) & ((hi - lo) / h <= MAX_Z_NODES)):
            hi = np.where(grow, 2.0 * hi, hi)
        z = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 65)
        zz, tt = z * z, t[:, None]
        k = (15.0 * zz * zz + (3.0 * n - 9.0 * tt) * zz - n * tt
             + 6.0 * xr * np.maximum(z, 0.0)) / (2.0 * (tt + n))
        tail = 2.0 * np.pi ** 2 / Z_STEP ** 2
        k *= tail / (tail + np.maximum(-_z_bound(z, n, tt, xr), 0.0))
        h = np.minimum(h, Z_STEP / np.sqrt(np.max(k, axis=1) + 1.0))
        wide = np.flatnonzero(~((hi - lo) / h <= MAX_Z_NODES))
    if wide.size:
        raise ConfigError(f"Z^({n:.3g}) at t={t[wide[0]]:.6g} on |x| <= {xr:.3g} needs "
                          f"more than {MAX_Z_NODES} quadrature nodes")
    return lo, hi, h


def _z_mean(n: float, t: float, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Z^(n)(t, x) for x >= 0 on the nodes z, a 256 kB block of terms at a time."""
    s, zz = t + n, z * z
    # psi - (x - y)^2/(4s) + log dy/dz, with q = x + z^3 written as
    # (n t z^2 - q (q + 2 n z))/(4s) + 3 z^4/8 + log(n + 3 z^2): no term grows with n
    base = (0.25 * n * t / s) * zz + 0.375 * zz * zz + np.log(n + 3.0 * zz)
    cube, rows = zz * z, max(1, 2**15 // z.size)
    out = np.empty(x.size)
    for i in range(0, x.size, rows):
        q = np.add.outer(x.ravel()[i:i + rows], cube)
        e = q + 2.0 * n * z
        e *= q
        e *= -0.25 / s
        e += base
        e -= e.max(axis=1, keepdims=True)
        np.exp(e, out=e)
        q += n * z                      # x - y
        out[i:i + rows] = np.einsum("ij,ij->i", e, q) / (s * e.sum(axis=1))
    return out.reshape(x.shape)
