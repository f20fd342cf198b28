"""Gauge functions z(u) > 0 and the change of variable they induce.

Psi(u) is the integral of 1 / sqrt(z) from a fixed base point; it is strictly
increasing, so it has an inverse (written I here) with

    I'(v)  = sqrt(z(I(v))),        I''(v) = z'(I(v)) / 2.

Psi straightens the quadratic-gradient compatibility structure of the
Hamiltonians treated in this package; everything downstream (transformed
Hamiltonians, the v-form of the pricing equation, the regularity constants)
consumes it through this module.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, RangeError
from .osgood import gl_panel

_TABLE_NODES = 4097
# from linear interpolation in a table bracket, Newton's quadratic
# convergence reaches double precision in two steps; a third is margin
_NEWTON_STEPS = 3


@dataclass(frozen=True)
class GaugeFunction:
    """A positive gauge z with derivative and bounds on a working interval.

    z and z_prime are elementwise: a float gives a float, an array an array
    of the same shape.
    """

    name: str
    z: Callable[[np.ndarray], np.ndarray]
    z_prime: Callable[[np.ndarray], np.ndarray]
    lambda0: float
    Lambda0: float
    domain: tuple[float, float]
    # base point override for Psi; None means lower-edge default
    base_point: float | None = None

    def __post_init__(self):
        if not 0.0 < self.lambda0 <= self.Lambda0:
            raise ConfigurationError(
                f"gauge {self.name}: need 0 < lambda0 <= Lambda0, "
                f"got ({self.lambda0!r}, {self.Lambda0!r})"
            )


@dataclass
class Transformation:
    """Psi, its inverse and the derivative identities, for one gauge.

    One table on 4097 equally spaced nodes u_k holds Psi(u_k), accumulated by
    a fixed Gauss-Legendre rule per table panel, and the exact slopes
    I'(Psi(u_k)) = sqrt(z(u_k)).  Between nodes Psi is the table value plus
    the same rule on the remaining sub-panel.  The inverse starts from
    linear interpolation in the table bracket and takes Newton steps with the
    exact derivative Psi' = 1/sqrt(z), each kept inside the bracket; the
    grid-sweep interpolant is the cubic Hermite interpolant of I through the
    table with the exact slopes.  Psi and its inverse take a float or an
    array and return the same shape.  Immutable after construction.
    """

    gauge: GaugeFunction
    margin: float
    base_point: float = field(init=False)
    _u_table: np.ndarray = field(init=False, repr=False)
    _psi_table: np.ndarray = field(init=False, repr=False)
    # per-panel Hermite coefficients of I in powers of v - Psi(u_k), shape (4, 4096)
    _hermite: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a, b = self.gauge.domain
        if self.margin < 0.0:
            raise ConfigurationError(f"margin must be nonnegative, got {self.margin!r}")
        lo, hi = a - self.margin, b + self.margin
        base = self.gauge.base_point if self.gauge.base_point is not None else lo
        if not lo <= base <= hi:
            raise ConfigurationError(
                f"base point {base!r} outside transformation domain ({lo!r}, {hi!r})"
            )
        self.base_point = base
        us = np.linspace(lo, hi, _TABLE_NODES)
        zs = self.gauge.z(us)
        if np.any(zs <= 0.0):
            bad = us[int(np.argmin(zs))]
            raise ConfigurationError(
                f"gauge {self.gauge.name} is not positive near u = {bad!r}; "
                "gauges must stay bounded away from zero on the domain"
            )
        # accumulate panel integrals, then shift so Psi(base_point) = 0
        self._u_table = us
        self._psi_table = np.concatenate(([0.0], np.cumsum(self._panel(us[:-1], us[1:]))))
        self._psi_table -= self.psi(base)
        slopes, h = np.sqrt(zs), np.diff(self._psi_table)
        secant = np.diff(us) / h
        c2 = (3.0 * secant - 2.0 * slopes[:-1] - slopes[1:]) / h
        c3 = (slopes[:-1] + slopes[1:] - 2.0 * secant) / (h * h)
        self._hermite = np.stack((us[:-1], slopes[:-1], c2, c3))

    def _panel(self, a, b):
        """Integral of 1/sqrt(z) from a to b, elementwise, by one Gauss-Legendre rule."""
        return gl_panel(lambda u: 1.0 / np.sqrt(self.gauge.z(u)), a, b)

    def _psi_at(self, k, u):
        """Psi(u) for u in table panel k, i.e. between nodes k and k + 1."""
        return self._psi_table[k] + self._panel(self._u_table[k], u)

    @property
    def u_range(self) -> tuple[float, float]:
        return float(self._u_table[0]), float(self._u_table[-1])

    @property
    def v_range(self) -> tuple[float, float]:
        return float(self._psi_table[0]), float(self._psi_table[-1])

    def psi(self, u):
        """Psi(u): the integral of 1/sqrt(z) from the base point to u."""
        lo, hi = self.u_range
        uu = np.asarray(u, dtype=float)
        if not np.all((lo <= uu) & (uu <= hi)):
            raise DomainError(
                f"u = {u!r} outside transformation domain [{lo!r}, {hi!r}]"
            )
        k = np.clip(np.searchsorted(self._u_table, uu) - 1, 0, _TABLE_NODES - 2)
        return _like(u, self._psi_at(k, uu))

    def psi_inverse(self, v):
        """I(v): table bracketing, then Newton steps safeguarded by the bracket."""
        vlo, vhi = self.v_range
        vv = np.asarray(v, dtype=float)
        if not np.all((vlo - 1e-12 <= vv) & (vv <= vhi + 1e-12)):
            raise RangeError(f"v = {v!r} outside Psi range [{vlo!r}, {vhi!r}]")
        vv = np.clip(vv, vlo, vhi)
        k = self._bracket(vv)
        a, b = self._u_table[k], self._u_table[k + 1]
        fa, fb = self._psi_table[k], self._psi_table[k + 1]
        u = a + (vv - fa) / (fb - fa) * (b - a)
        for _ in range(_NEWTON_STEPS):
            u = np.clip(u - (self._psi_at(k, u) - vv) * np.sqrt(self.gauge.z(u)), a, b)
        return _like(v, u)

    def inverse_derivatives(self, v):
        """(I'(v), I''(v)) = (sqrt(z(I(v))), z'(I(v)) / 2)."""
        u = self.psi_inverse(v)
        return _like(v, np.sqrt(self.gauge.z(u))), _like(v, 0.5 * self.gauge.z_prime(u))

    def _bracket(self, v):
        """Index k of the table panel [Psi(u_k), Psi(u_k+1)] holding v; the
        end panels take the values beyond the table."""
        return np.searchsorted(self._psi_table[1:-1], v)

    def hermite_inverse(self, v: np.ndarray) -> np.ndarray:
        """The cubic Hermite interpolant of I at v, unchecked: v must lie in
        v_range.  inverse_interpolant is the checked form."""
        k = self._bracket(v)
        c0, c1, c2, c3 = self._hermite[:, k]
        d = v - self._psi_table[k]
        return c0 + d * (c1 + d * (c2 + d * c3))

    def inverse_interpolant(self) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorized cubic Hermite approximation of I, for grid sweeps.

        Interpolates the table values u_k at Psi(u_k) with the exact slopes
        sqrt(z(u_k)); its error is far below the solver tolerances it
        serves.  psi_inverse remains the reference implementation.  A query
        within 1e-9 of v_range is clipped onto it; one further out raises
        RangeError.
        """
        vlo, vhi = self.v_range

        def inv(v: np.ndarray) -> np.ndarray:
            v = np.asarray(v, dtype=float)
            lo, hi = v.min(), v.max()
            if lo < vlo or hi > vhi:
                if lo < vlo - 1e-9 or hi > vhi + 1e-9:
                    raise RangeError("interpolated inverse queried outside Psi range")
                v = np.clip(v, vlo, vhi)
            return self.hermite_inverse(v)

        return inv


def _like(arg, value):
    """value as a float when arg is a scalar, else as an array."""
    return float(value) if np.ndim(arg) == 0 else value


# ---------------------------------------------------------------------------
# gauge catalog


def unit_gauge(domain: tuple[float, float] = (0.0, 1.0)) -> GaugeFunction:
    return GaugeFunction(
        "unit", lambda u: 1.0 + 0.0 * u, lambda u: 0.0 * u, 1.0, 1.0, domain
    )


def shift_sq_gauge(domain: tuple[float, float]) -> GaugeFunction:
    """z(u) = (u+1)^2, the Example-1 gauge; domain must stay right of -1."""
    a, b = domain
    if a <= -1.0:
        raise ConfigurationError(f"shift-sq gauge needs domain right of -1, got {domain!r}")
    return GaugeFunction(
        "shift-sq",
        lambda u: (u + 1.0) ** 2,
        lambda u: 2.0 * (u + 1.0),
        (a + 1.0) ** 2,
        (b + 1.0) ** 2,
        domain,
    )


def affine_sq_gauge(lam1: float, lam2: float, domain: tuple[float, float]) -> GaugeFunction:
    """z(u) = (lam1*u - lam2)^2 with lam1*a > lam2 > 0 on the domain."""
    a, b = domain
    if not (lam2 > 0.0 and lam1 * a > lam2):
        raise ConfigurationError(
            f"affine-sq gauge needs lam1*a > lam2 > 0; got lam1={lam1!r}, "
            f"lam2={lam2!r}, domain={domain!r}"
        )
    return GaugeFunction(
        f"affine-sq:{lam1:g},{lam2:g}",
        lambda u: (lam1 * u - lam2) ** 2,
        lambda u: 2.0 * lam1 * (lam1 * u - lam2),
        (lam1 * a - lam2) ** 2,
        (lam1 * b - lam2) ** 2,
        domain,
    )


def exp_gauge(domain: tuple[float, float]) -> GaugeFunction:
    """z(u) = exp(-2u); 1/sqrt(z) integrates to exp, so Psi(u) = e^u - e^base."""
    a, b = domain
    return GaugeFunction(
        "exp",
        lambda u: np.exp(-2.0 * u),
        lambda u: -2.0 * np.exp(-2.0 * u),
        math.exp(-2.0 * b),
        math.exp(-2.0 * a),
        domain,
    )


def mbs_exp_gauge(m0: float, M0: float) -> GaugeFunction:
    """The affine-sq gauge z(u) = (2u/m0 - 1)^2 on [m0, M0], based at m0.

    With Psi(m0) = 0 the inverse is I(v) = m0 (exp(2v/m0) + 1) / 2 on
    [0, (m0/2) log(2 M0/m0 - 1)], the closed form the regularity constants
    are built on.
    """
    if not 0.0 < m0 <= M0:
        raise ConfigurationError(f"need 0 < m0 <= M0, got ({m0!r}, {M0!r})")
    return dataclasses.replace(
        affine_sq_gauge(2.0 / m0, 1.0, (m0, M0)), name=f"mbs-exp:{m0:g},{M0:g}", base_point=m0
    )


def arctan_gauge(beta: float, domain: tuple[float, float]) -> GaugeFunction:
    """z(u) = (u^2+1)^2 (beta - arctan(u)^2 / 2)^2, requiring 8 beta > pi^2."""
    if 8.0 * beta <= math.pi**2:
        raise ConfigurationError(
            f"arctan gauge needs 8*beta > pi^2, got beta = {beta!r}"
        )

    def z(u):
        return (u * u + 1.0) ** 2 * (beta - 0.5 * np.arctan(u) ** 2) ** 2

    def zp(u):
        A = u * u + 1.0
        B = beta - 0.5 * np.arctan(u) ** 2
        return 2.0 * A * B * (2.0 * u * B - np.arctan(u))

    a, b = domain
    vals = z(np.linspace(a, b, 2049))
    return GaugeFunction(
        f"arctan:{beta:g}", z, zp, float(vals.min()), float(vals.max()), domain
    )


def gauge_from_identifier(ident: str, domain: tuple[float, float] | None = None) -> GaugeFunction:
    """Catalog lookup: "unit", "shift-sq", "affine-sq:l1,l2", "exp",
    "mbs-exp:m0,M0", "arctan:beta".  Gauges other than mbs-exp need a domain.
    """
    head, _, arg = ident.partition(":")
    if head == "mbs-exp":
        m0, M0 = (float(s) for s in arg.split(","))
        return mbs_exp_gauge(m0, M0)
    if domain is None:
        raise ConfigurationError(f"gauge {ident!r} needs an explicit domain")
    if head == "unit":
        return unit_gauge(domain)
    if head == "shift-sq":
        return shift_sq_gauge(domain)
    if head == "affine-sq":
        lam1, lam2 = (float(s) for s in arg.split(","))
        return affine_sq_gauge(lam1, lam2, domain)
    if head == "exp":
        return exp_gauge(domain)
    if head == "arctan":
        return arctan_gauge(float(arg), domain)
    raise ConfigurationError(f"unknown gauge identifier {ident!r}")
