"""Gauge functions z(u) > 0 and the change of variable they induce.

Psi(u) is the integral of 1 / sqrt(z) from a fixed base point; it is strictly
increasing, so it has an inverse (written I here) with

    I'(v)  = sqrt(z(I(v))),        I''(v) = z'(I(v)) / 2.

Every gauge of the catalog below carries a closed-form antiderivative F of
1 / sqrt(z) and its inverse, so Psi(u) = F(u) - F(base) and
I(v) = F^-1(v + F(base)) are exact up to rounding.  Psi straightens the
quadratic-gradient compatibility structure of the Hamiltonians treated in
this package; everything downstream (transformed Hamiltonians, the v-form of
the pricing equation, the regularity constants) consumes it through this
module.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, RangeError


@dataclass(frozen=True)
class GaugeFunction:
    """A positive gauge z with derivative and bounds on a working interval.

    F is an antiderivative of 1/sqrt(z) and F_inv its inverse.  z, z_prime,
    F and F_inv are elementwise: a float gives a float, an array an array of
    the same shape.
    """

    name: str
    z: Callable[[np.ndarray], np.ndarray]
    z_prime: Callable[[np.ndarray], np.ndarray]
    lambda0: float
    Lambda0: float
    domain: tuple[float, float]
    F: Callable[[np.ndarray], np.ndarray]
    F_inv: Callable[[np.ndarray], np.ndarray]
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
    """Psi, its inverse I and I's derivatives, for one gauge.

    The gauge's domain widened by margin on each side is the u-range; it
    must keep z positive and F finite.  Psi and I come from the gauge's
    closed forms F and F_inv, take a float or an array and return the same
    shape.  Every (I, I', I'') = (I, sqrt(z(I)), z'(I) / 2) comes from
    _triple, behind one range test unless the caller clamped v onto v_range.
    inverse_interpolant returns psi_inverse for the benchmark that calls it.
    Immutable after construction.
    """

    gauge: GaugeFunction
    margin: float
    base_point: float = field(init=False)
    u_range: tuple[float, float] = field(init=False)
    v_range: tuple[float, float] = field(init=False)
    _F_base: float = field(init=False, repr=False)

    def __post_init__(self):
        a, b = self.gauge.domain
        if not 0.0 <= self.margin < math.inf:
            raise ConfigurationError(
                f"margin must be finite and nonnegative, got {self.margin!r}"
            )
        lo, hi = a - self.margin, b + self.margin
        base = self.gauge.base_point if self.gauge.base_point is not None else lo
        if not lo <= base <= hi:
            raise ConfigurationError(
                f"base point {base!r} outside transformation domain ({lo!r}, {hi!r})"
            )
        with np.errstate(all="ignore"):
            F_ends = self.gauge.F(np.array([lo, hi]))
            zs = self.gauge.z(np.linspace(lo, hi, 257))
        if not (np.all(np.isfinite(F_ends)) and np.all(zs > 0.0)):
            raise ConfigurationError(
                f"gauge {self.gauge.name} is not positive with an integrable "
                f"1/sqrt(z) on the margined domain [{lo!r}, {hi!r}] (margin {self.margin!r})"
            )
        self.base_point, self.u_range = base, (lo, hi)
        self._F_base = float(self.gauge.F(base))
        self.v_range = (float(F_ends[0]) - self._F_base, float(F_ends[1]) - self._F_base)

    def psi(self, u):
        """Psi(u) = F(u) - F(base point)."""
        uu = _clipped(u, *self.u_range, 0.0, DomainError, "u", "transformation domain")
        return _like(u, self.gauge.F(uu) - self._F_base)

    def psi_inverse(self, v):
        """I(v) = F_inv(v + F(base point)).  A v within 1e-12 of v_range is
        clipped onto it, and the result onto u_range."""
        return self.inverse_derivatives(v)[0]

    def inverse_derivatives(self, v):
        """(I(v), I'(v), I''(v)) = (I, sqrt(z(I)), z'(I) / 2), v tested like psi_inverse's."""
        vv = _clipped(v, *self.v_range, 1e-12, RangeError, "v", "Psi range")
        return tuple(_like(v, w) for w in self._triple(vv))

    def _triple(self, v):
        """(I, I', I'') at v already in v_range: no range test; I is clipped onto u_range."""
        u = np.clip(self.gauge.F_inv(v + self._F_base), *self.u_range)
        return u, np.sqrt(self.gauge.z(u)), 0.5 * self.gauge.z_prime(u)

    def inverse_interpolant(self) -> Callable[[np.ndarray], np.ndarray]:
        """psi_inverse itself."""
        return self.psi_inverse


def _like(arg, value):
    """value as a float when arg is a scalar, else as an array."""
    return float(value) if np.ndim(arg) == 0 else value


def _clipped(x, lo, hi, tol, error, name, what) -> np.ndarray:
    """x as floats clipped onto [lo, hi]; error names the first value outside
    [lo - tol, hi + tol], its index and how many values are outside."""
    xx = np.asarray(x, dtype=float)
    ok = (lo - tol <= xx) & (xx <= hi + tol)
    if not ok.all():
        bad = np.flatnonzero(~ok)
        at = [int(i) for i in np.unravel_index(bad[0], xx.shape)]
        raise error(f"{name}{at or ''} = {float(xx.flat[bad[0]])!r} outside {what} [{lo!r}, "
                    f"{hi!r}]" + (f" ({bad.size} of {xx.size} values outside)" if at else ""))
    return np.clip(xx, lo, hi)


# ---------------------------------------------------------------------------
# gauge catalog


def unit_gauge(domain: tuple[float, float] = (0.0, 1.0)) -> GaugeFunction:
    return GaugeFunction(
        "unit", lambda u: 1.0 + 0.0 * u, lambda u: 0.0 * u, 1.0, 1.0, domain,
        lambda u: u, lambda y: y,
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
        np.log1p,
        np.expm1,
    )


def affine_sq_gauge(lam1: float, lam2: float, domain: tuple[float, float]) -> GaugeFunction:
    """z(u) = (lam1*u - lam2)^2 with lam1*a > lam2 > 0 on the domain;
    F(u) = log(lam1*u - lam2) / lam1."""
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
        lambda u: np.log(lam1 * u - lam2) / lam1,
        lambda y: (lam2 + np.exp(lam1 * y)) / lam1,
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
        np.exp,
        np.log,
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
    """z(u) = (u^2+1)^2 (beta - arctan(u)^2 / 2)^2, requiring 8 beta > pi^2.

    With w = arctan(u), 1/sqrt(z) du = dw / (beta - w^2/2); for
    c = sqrt(2 beta) that gives F(u) = (2/c) artanh(arctan(u) / c), whose
    argument stays inside (-1, 1) because |arctan(u)| < pi/2 < c.
    """
    if 8.0 * beta <= math.pi**2:
        raise ConfigurationError(
            f"arctan gauge needs 8*beta > pi^2, got beta = {beta!r}"
        )
    c = math.sqrt(2.0 * beta)

    def z(u):
        return (u * u + 1.0) ** 2 * (beta - 0.5 * np.arctan(u) ** 2) ** 2

    def zp(u):
        A = u * u + 1.0
        B = beta - 0.5 * np.arctan(u) ** 2
        return 2.0 * A * B * (2.0 * u * B - np.arctan(u))

    a, b = domain
    vals = z(np.linspace(a, b, 2049))
    return GaugeFunction(
        f"arctan:{beta:g}", z, zp, float(vals.min()), float(vals.max()), domain,
        lambda u: 2.0 / c * np.arctanh(np.arctan(u) / c),
        lambda y: np.tan(c * np.tanh(0.5 * c * y)),
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
