"""Convex flux models and jump (Rankine-Hugoniot) algebra.

A flux model carries ``f`` together with analytic first and second
derivatives and uniform convexity bounds ``0 < c1 <= f'' <= c2`` on its
declared state range.  Derivatives are cross-checked against finite
differences at construction so a typo in ``df`` or ``d2f`` fails fast.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import EqualStatesError, NotLaxWarning

_FD_RTOL = 1e-6
_FD_STEP = 1e-5


@dataclass(frozen=True)
class FluxModel:
    """Uniformly convex flux with analytic derivatives.

    All three callables must accept numpy arrays.  ``u_range`` is the state
    interval on which the convexity bounds are declared and on which the
    construction self-check samples.
    """

    f: Callable
    df: Callable
    d2f: Callable
    c1: float
    c2: float
    name: str
    u_range: Tuple[float, float] = (-3.0, 3.0)

    def __post_init__(self):
        if not (0.0 < self.c1 <= self.c2):
            raise ValueError(f"need 0 < c1 <= c2, got c1={self.c1}, c2={self.c2}")
        lo, hi = self.u_range
        if not lo < hi:
            raise ValueError("u_range must be a nonempty interval")
        u = np.linspace(lo, hi, 41)
        h = _FD_STEP * max(1.0, hi - lo)
        fd_f = (self.f(u + h) - self.f(u - h)) / (2.0 * h)
        fd_df = (self.df(u + h) - self.df(u - h)) / (2.0 * h)
        df_u = self.df(u)
        d2f_u = self.d2f(u)
        # written as not (err <= tol) so that a NaN error fails the check
        if not np.max(np.abs(fd_f - df_u) / (1.0 + np.abs(df_u))) <= _FD_RTOL:
            raise ValueError(f"flux {self.name!r}: df disagrees with finite differences of f")
        if not np.max(np.abs(fd_df - d2f_u) / (1.0 + np.abs(d2f_u))) <= _FD_RTOL:
            raise ValueError(f"flux {self.name!r}: d2f disagrees with finite differences of df")
        slack = 1e-9 * max(1.0, self.c2)
        if not self.c1 - slack <= np.min(d2f_u) <= np.max(d2f_u) <= self.c2 + slack:
            raise ValueError(
                f"flux {self.name!r}: f'' leaves [{self.c1}, {self.c2}] on the declared range")

    def max_speed(self, values: np.ndarray) -> float:
        return float(np.max(np.abs(self.df(values))))


@dataclass(frozen=True)
class ShockData:
    """An admissible jump: states, speed, and the flux offset of its chord.

    ``offset`` is ``f(u_plus) - speed * u_plus`` (equal on both sides), so the
    chord through the two states is ``w(u) = speed * u + offset``.
    """

    u_minus: float
    u_plus: float
    speed: float
    offset: float


def rankine_hugoniot(flux: FluxModel, u_minus: float, u_plus: float) -> ShockData:
    """Jump speed and chord offset for the pair (u_minus, u_plus).

    Equal states raise; an upward jump (u_minus <= u_plus) is not admissible
    for convex flux and only warns, since the raw speed is still well defined.
    """
    if u_minus == u_plus:
        raise EqualStatesError(f"u_minus == u_plus == {u_minus}")
    if u_minus < u_plus:
        warnings.warn(
            f"jump ({u_minus}, {u_plus}) is upward and not admissible",
            NotLaxWarning, stacklevel=2)
    f_m = float(flux.f(np.float64(u_minus)))
    f_p = float(flux.f(np.float64(u_plus)))
    speed = (f_m - f_p) / (u_minus - u_plus)
    offset = f_p - speed * u_plus
    return ShockData(u_minus, u_plus, speed, offset)


def chord(flux: FluxModel, u_minus: float, u_plus: float) -> Callable:
    """Affine map through (u_minus, f(u_minus)) and (u_plus, f(u_plus))."""
    data = rankine_hugoniot(flux, u_minus, u_plus)
    return lambda u: data.speed * np.asarray(u, dtype=float) + data.offset


def burgers(u_range: Tuple[float, float] = (-3.0, 3.0)) -> FluxModel:
    """f(u) = u^2 / 2, the canonical quadratic flux."""
    return FluxModel(
        f=lambda u: 0.5 * u * u,
        df=lambda u: u,
        d2f=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        c1=1.0, c2=1.0, name="burgers", u_range=u_range)


def burgers_plus_linear(b: float, u_range: Tuple[float, float] = (-3.0, 3.0)) -> FluxModel:
    """f(u) = u^2 / 2 + b u; shifts every speed by b, curvature unchanged."""
    return FluxModel(
        f=lambda u: 0.5 * u * u + b * u,
        df=lambda u: u + b,
        d2f=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        c1=1.0, c2=1.0, name="burgers-plus-linear", u_range=u_range)


def quartic_perturbed(kappa: float, u_range: Tuple[float, float] = (-2.0, 2.0)) -> FluxModel:
    """f(u) = u^2 / 2 + kappa u^4 with kappa >= 0, still uniformly convex."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative to keep f convex")
    hi = max(abs(u_range[0]), abs(u_range[1]))
    return FluxModel(
        f=lambda u: 0.5 * u * u + kappa * u ** 4,
        df=lambda u: u + 4.0 * kappa * u ** 3,
        d2f=lambda u: 1.0 + 12.0 * kappa * u ** 2,
        c1=1.0, c2=1.0 + 12.0 * kappa * hi * hi,
        name="quartic-perturbed", u_range=u_range)


BUILTIN_FLUXES = {
    "burgers": lambda params: burgers(),
    "burgers-plus-linear": lambda params: burgers_plus_linear(float(params.get("b", 1.0))),
    "quartic-perturbed": lambda params: quartic_perturbed(float(params.get("kappa", 0.05))),
}
# the short names the command line accepts
BUILTIN_FLUXES["burgers-linear"] = BUILTIN_FLUXES["burgers-plus-linear"]
BUILTIN_FLUXES["quartic"] = BUILTIN_FLUXES["quartic-perturbed"]


def make_flux(name: str, **params) -> FluxModel:
    """Look up a built-in flux by name with keyword parameters.

    Unknown names raise KeyError; bad parameter values raise ValueError.
    """
    try:
        factory = BUILTIN_FLUXES[name]
    except KeyError:
        raise KeyError(f"unknown flux {name!r}; have {sorted(BUILTIN_FLUXES)}") from None
    return factory(params)
