"""Zoom frames around a distinguished space-time point and fitting helpers.

A frame with clock rate sigma (``time_scale``) and drift lam zooms at the
effective viscosity e = eps / sigma.  It maps observation coordinates
(t, x) to physical coordinates

    t_phys = tau_eps + e^alpha * t / sigma
    x_phys = xi_eps + lam * (t_phys - tau_eps) + e^beta * x

and rescales values by e^(-gamma) * value_scale / sigma after subtracting
a centre value.  Type-1 frames (exponents 1, 1, 0) resolve a formed shock
of width eps; type-2 frames (1/2, 3/4, 1/4) resolve the first instant of
gradient blow-up, where amplitudes shrink like eps^(1/4).  With the
default sigma = 1, lam = 0 and value_scale = 1 the plain power-law zoom
remains; ``fit_formation_frame`` sets all three from a formation point.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import ConfigError, NoCrossingError, OutOfDomainError
from .flux import FluxModel
from .grid import GridFunction


@dataclass(frozen=True)
class RescaleFrame:
    tau_eps: float
    xi_eps: float
    eps: float
    alpha: float
    beta: float
    gamma: float
    u_center: float = 0.0
    time_scale: float = 1.0
    drift: float = 0.0
    # turns u - u_center into a speed, e.g. f''(u_c) near a formation point
    value_scale: float = 1.0

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if self.time_scale <= 0.0:
            raise ValueError("time_scale must be positive")

    @classmethod
    def type1(cls, tau_eps: float, xi_eps: float, eps: float) -> "RescaleFrame":
        return cls(tau_eps, xi_eps, eps, 1.0, 1.0, 0.0)

    @classmethod
    def type2(cls, tau_eps: float, xi_eps: float, eps: float,
              u_center: float = 0.0, time_scale: float = 1.0, drift: float = 0.0,
              value_scale: float = 1.0) -> "RescaleFrame":
        return cls(tau_eps, xi_eps, eps, 0.5, 0.75, 0.25, u_center,
                   time_scale, drift, value_scale)

    @property
    def eps_eff(self) -> float:
        """The viscosity seen on the frame's clock."""
        return self.eps / self.time_scale

    def to_physical(self, t, x) -> Tuple[np.ndarray, np.ndarray]:
        e = self.eps_eff
        t_phys = self.tau_eps + e ** self.alpha * np.asarray(t, dtype=float) / self.time_scale
        return (t_phys, self.xi_eps + self.drift * (t_phys - self.tau_eps)
                + e ** self.beta * np.asarray(x, dtype=float))

    def rescale_values(self, u):
        # a clock running sigma times faster sees speeds sigma times smaller
        gain = self.eps_eff ** -self.gamma * self.value_scale / self.time_scale
        return gain * (np.asarray(u, dtype=float) - self.u_center)


class SnapshotInterpolant:
    """Bilinear sampler over a list of (t, GridFunction) snapshots.

    Linear in t between stored times, linear in x between nodes; points
    outside the stored rectangle raise OutOfDomainError.
    """

    def __init__(self, trajectory: Sequence[Tuple[float, GridFunction]]):
        traj = sorted(trajectory, key=lambda p: p[0])
        if len(traj) < 1:
            raise ValueError("empty trajectory")
        self.times = np.array([t for t, _ in traj], dtype=float)
        self.grids = [g for _, g in traj]
        g0 = self.grids[0]
        for g in self.grids[1:]:
            if g.n != g0.n or abs(g.x_left - g0.x_left) > 1e-9 or \
                    abs(g.dx - g0.dx) > 1e-12:
                raise ValueError("snapshots must share one grid")
        self.x_left = g0.x_left
        self.x_right = g0.x_right
        # the shared nodes, built once rather than by each snapshot's call
        self.nodes = g0.x
        self.slack = 1e-9 * max(1.0, abs(self.times[-1]), abs(self.x_right))

    def __call__(self, t, x):
        """Values at every time of ``t`` and point of ``x``.

        The result has shape ``t.shape + x.shape``, so a scalar ``t`` gives
        one row.  Each stored snapshot that any time needs is interpolated
        at ``x`` once per call.
        """
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        ts = t.reshape(-1)
        if np.any(ts < self.times[0] - self.slack) or np.any(ts > self.times[-1] + self.slack):
            raise OutOfDomainError(f"t in [{ts.min()}, {ts.max()}] outside stored times "
                                   f"[{self.times[0]}, {self.times[-1]}]")
        if np.any(x < self.x_left - self.slack) or np.any(x > self.x_right + self.slack):
            raise OutOfDomainError("x outside the stored grid")
        last = len(self.grids) - 1
        j = np.maximum(np.searchsorted(self.times, ts, side="right") - 1, 0)
        # times strictly between two snapshots; the rest take snapshot j as is
        mid = (j < last) & (self.times[j] != ts)
        # the snapshots used, as a mask: the merging search's fine time scan
        # asks 357 times (294 between snapshots) x 401 points a call, and there
        # np.unique with the plain blend below raised the quartic merging
        # run's peak RSS by 0.6-0.8 MB
        need = np.zeros(len(self.grids), dtype=bool)
        need[j] = True
        need[j[mid] + 1] = True
        used = np.flatnonzero(need)
        rows = np.array([np.interp(x, self.nodes, self.grids[i].values) for i in used])
        vals = rows[np.searchsorted(used, j)]
        if np.any(mid):
            t0, t1 = self.times[j[mid]], self.times[j[mid] + 1]
            w = ((ts[mid] - t0) / (t1 - t0)).reshape((-1,) + (1,) * x.ndim)
            # (1 - w) a + w b, blended in place: two temporaries, not four, of
            # up to 294 x 401 values in the merging search's fine time scan
            blend = vals[mid]
            blend *= 1.0 - w
            upper = rows[np.searchsorted(used, j[mid] + 1)]
            upper *= w
            blend += upper
            vals[mid] = blend
        return vals.reshape(t.shape + x.shape)


@dataclass(frozen=True)
class FitResult:
    shift: float
    sup_error: float


def fit_shift(profile: GridFunction, template: Callable, midpoint: float) -> FitResult:
    """Locate the midpoint crossing and measure the mismatch to the template.

    The shift is the x where the profile first crosses the midpoint going
    down (linear interpolation between the bracketing nodes).  The template
    is assumed centred, i.e. template(0) = midpoint; the error compares
    profile(x) with template(x - shift) on the profile's grid.
    """
    d = profile.values - midpoint
    down = np.nonzero((d[:-1] >= 0.0) & (d[1:] < 0.0))[0]
    if down.size == 0:
        raise NoCrossingError("profile never crosses the midpoint from above")
    i = int(down[0])
    frac = d[i] / (d[i] - d[i + 1])
    shift = profile.x_left + profile.dx * (i + frac)
    fitted = np.asarray(template(profile.x - shift), dtype=float)
    return FitResult(float(shift), float(np.max(np.abs(profile.values - fitted))))


@dataclass(frozen=True)
class FormationPoint:
    """A gradient catastrophe at (tau, xi): to leading order the inverse
    profile there is the clean cubic x - xi = x_uuu/6 (u - u_value)^3, with
    x_uuu < 0."""

    tau: float
    xi: float
    u_value: float
    x_uuu: float


def fit_formation_frame(point: FormationPoint, flux: FluxModel, eps: float) -> RescaleFrame:
    """The type-2 frame at viscosity eps that matches the cubic degeneracy
    to the normalised formation profile: the limit is c Z(sigma t, x - lam t).

    Scaling u = c v turns x = x_uuu/6 * u^3 into the canonical x = -v^3
    when c = (-x_uuu / 6)^(-1/3); the observation clock runs at
    sigma = f''(u_c) * c, the frame drifts at lam = f'(u_c), and f''(u_c)
    turns u - u_c into a speed.
    """
    if not point.x_uuu < 0.0:
        raise ConfigError("need x_uuu < 0 at the formation point")
    c = (-point.x_uuu / 6.0) ** (-1.0 / 3.0)
    a = float(flux.d2f(np.float64(point.u_value)))
    if a <= 0.0:
        raise ConfigError("flux curvature must be positive at the formation value")
    return RescaleFrame.type2(point.tau, point.xi, eps, point.u_value, time_scale=a * c,
                              drift=float(flux.df(np.float64(point.u_value))),
                              value_scale=a)


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    residual: float


def convergence_rate(eps_list: Sequence[float], errors: Sequence[float]) -> RateFit:
    """Least-squares slope of log(error) against log(eps).

    Needs at least three strictly decreasing positive eps values and
    positive errors; the residual is the rms misfit of the line.
    """
    eps = np.asarray(eps_list, dtype=float)
    err = np.asarray(errors, dtype=float)
    if eps.size != err.size or eps.size < 3:
        raise ValueError("need at least three (eps, error) pairs")
    if np.any(eps <= 0.0) or np.any(err <= 0.0):
        raise ValueError("eps and errors must be positive for a log-log fit")
    if np.any(np.diff(eps) >= 0.0):
        raise ValueError("eps_list must be strictly decreasing")
    le = np.log(eps)
    lr = np.log(err)
    a = np.vstack([le, np.ones_like(le)]).T
    coef, *_ = np.linalg.lstsq(a, lr, rcond=None)
    fit = a @ coef
    rms = float(np.sqrt(np.mean((lr - fit) ** 2)))
    return RateFit(float(coef[0]), float(coef[1]), rms)
