"""Osgood-type functions and the numerics built on them.

A function Gamma on [0, l] is of Osgood type when it is increasing,
Gamma(0) = 0 and the integral of 1/Gamma over (0, l] diverges.  This module
keeps a small catalog of such functions (and of near misses like sqrt), a
brute-force evaluation of the supremum formula behind the "xlog" entry,
divergence scoring of the defining integral, and an explicit Euler flow of
f' = Gamma(f) whose f = 0 fixed point is the discrete shadow of the
uniqueness lemma.  It also holds the two numerical rules the package
shares: the maximiser refine_max and the Gauss-Legendre panel gl_panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, QuadratureError

INV_E = 1.0 / math.e

# Gauss-Legendre rule on [-1, 1] behind gl_panel
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)

# divergence_score halves its panels at most this often
_MAX_HALVINGS = 10

OSGOOD_CLAIMED = "osgood-claimed"
NON_OSGOOD_CLAIMED = "non-osgood-claimed"


@dataclass(frozen=True)
class OsgoodFunction:
    """A candidate Gamma on [0, l] with a claim about its Osgood status."""

    name: str
    l: float
    fn: Callable[[float], float]
    tag: str = OSGOOD_CLAIMED
    # interior points where fn is not smooth, passed to the quadrature
    kinks: tuple[float, ...] = field(default=())

    def __call__(self, h: float) -> float:
        """Gamma(h) for h in [0, l]; raises DomainError otherwise."""
        if not (0.0 <= h <= self.l * (1.0 + 1e-12)):
            raise DomainError(f"{self.name}: argument {h!r} outside [0, {self.l!r}]")
        if h == 0.0:
            return 0.0
        return float(self.fn(min(h, self.l)))


def _xlog(h: float) -> float:
    # h*log(1/h) on (0, 1/e), continued by its maximum 1/e afterwards;
    # written as -h*log(h) so subnormal h cannot overflow the reciprocal
    if h <= 0.0:
        return 0.0
    if h < INV_E:
        return -h * math.log(h)
    return INV_E


def xlog() -> OsgoodFunction:
    """The xlog example: h log(1/h) capped at 1/e, domain [0, 1/e + 1/2]."""
    return OsgoodFunction("xlog", INV_E + 0.5, _xlog, OSGOOD_CLAIMED, (INV_E,))


def linear(rate: float, l: float = 1.0) -> OsgoodFunction:
    if rate < 0.0:
        raise DomainError(f"linear rate must be nonnegative, got {rate!r}")
    return OsgoodFunction(f"linear:{rate:g}", l, lambda h: rate * h)


def power(exponent: float, l: float = 1.0) -> OsgoodFunction:
    if not 0.0 < exponent <= 1.0:
        raise DomainError(f"power exponent must lie in (0, 1], got {exponent!r}")
    tag = OSGOOD_CLAIMED if exponent == 1.0 else NON_OSGOOD_CLAIMED
    return OsgoodFunction(f"power:{exponent:g}", l, lambda h: h**exponent, tag)


def from_identifier(ident: str) -> OsgoodFunction:
    """Catalog lookup: "linear:L" or "power:gamma" on [0, 1], or "xlog"."""
    head, _, arg = ident.partition(":")
    if head == "xlog":
        return xlog()
    if head == "linear":
        return linear(float(arg))
    if head == "power":
        return power(float(arg))
    raise DomainError(f"unknown Osgood catalog identifier {ident!r}")


def scaled(gamma: OsgoodFunction, factor: float) -> OsgoodFunction:
    """Gamma0(theta) = Gamma(factor * theta), defined on [0, l / factor].

    The rescaling preserves the Osgood property; it is what lets a Gamma
    stated for one interval serve a gauge-stretched one.
    """
    if factor <= 0.0:
        raise DomainError(f"scale factor must be positive, got {factor!r}")
    return OsgoodFunction(
        f"{gamma.name}~scaled:{factor:g}",
        gamma.l / factor,
        lambda h: gamma.fn(factor * h),
        gamma.tag,
        tuple(k / factor for k in gamma.kinks),
    )


def gl_panel(fn: Callable[[np.ndarray], np.ndarray], a, b):
    """Integral of fn from a to b, elementwise over a and b, by one 10-node
    Gauss-Legendre rule.

    fn is elementwise and is called once, on an array with a trailing axis
    of the 10 nodes of every panel.  The rule is exact for polynomials of
    degree 19; on a panel where fn is smooth on the panel's scale its error
    is below double-precision rounding.
    """
    half = 0.5 * (np.asarray(b) - a)
    nodes = (0.5 * (np.asarray(b) + a))[..., None] + half[..., None] * _GL_NODES
    return half * (fn(nodes) @ _GL_WEIGHTS)


def refine_max(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, n: int) -> float:
    """Maximum of fn over [lo, hi]: the best of n grid points, refined by
    ten zoomed scans of 65 points, each between the best point's two
    neighbours in the scan before it.

    fn is elementwise and every scan is one fn call.  Each zoom shrinks the
    bracket 32-fold, so ten take it from 2 (hi - lo) / (n - 1) below a
    double's resolution.  When the best grid point is lo or hi and the first
    zoom, over the end cell, still peaks there, the search stops: the end
    point is then located to that zoom's resolution, (hi - lo) / (64 (n - 1)),
    and fn is called twice.  A maximum farther inside the end cell moves the
    first zoom off the end, and all ten zooms run.
    """
    xs = np.linspace(lo, hi, n)
    best, end = -math.inf, None
    for zoom in range(11):
        vals = fn(xs)
        k = int(np.argmax(vals))
        best = max(best, float(vals[k]))
        if zoom == 0 and k in (0, n - 1):
            end = xs[k]
        elif zoom == 1 and xs[k] == end:
            break
        xs = np.linspace(xs[max(k - 1, 0)], xs[min(k + 1, len(xs) - 1)], 65)
    return best


def sup_formula(h: float, interval: tuple[float, float], n_grid: int = 1000) -> float:
    """Brute-force sup of x log(x) - (x+h) log(x+h) over x in the interval.

    x log x is extended by 0 at x <= 0.  The grid maximum is refined by
    refine_max's zoomed scans between the neighbours of the best grid point.
    """
    if h < 0.0:
        raise DomainError(f"shift h must be nonnegative, got {h!r}")
    if n_grid < 100:
        raise DomainError(f"n_grid must be at least 100, got {n_grid}")
    if h == 0.0:
        return 0.0

    def xlogx(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(x > 0.0, x * np.log(x), 0.0)

    return refine_max(lambda x: xlogx(x) - xlogx(x + h), *interval, n_grid)


def divergence_score(
    gamma: OsgoodFunction, eps_sequence: Sequence[float]
) -> list[float]:
    """Integral of 1/Gamma over [eps, l] for each eps, by gl_panel panels.

    The integrand is r / Gamma(r) in s = log r, which flattens the boundary
    layer at the small endpoint.  The segments between eps, the kinks and l
    start from panels of width at most 1 in s, which are halved until two
    successive sums agree to 1e-11 (relative once the sum exceeds 1).

    For an Osgood function the scores grow without bound as eps shrinks; for
    a convergent integral they flatten.  Raw scores only; classification is a
    caller-side heuristic (see classify_divergence).
    """
    scores = []
    for eps in eps_sequence:
        if not 0.0 < eps < gamma.l:
            raise DomainError(
                f"eps {eps!r} outside (0, {gamma.l!r}) for {gamma.name}"
            )
        if gamma.fn(eps) <= 0.0:
            raise QuadratureError(
                f"{gamma.name}(r) = 0 at r = {eps!r} > 0; 1/Gamma is singular there"
            )

        def integrand(s: np.ndarray) -> np.ndarray:
            r = np.exp(s)
            g = np.vectorize(gamma.fn, otypes=[float])(r)
            if np.any(g <= 0.0):
                raise QuadratureError(
                    f"{gamma.name}(r) = 0 at r = {float(r[g <= 0.0][0])!r} "
                    f"inside ({eps!r}, {gamma.l!r})"
                )
            return r / g

        breaks = np.log([eps, *sorted(k for k in gamma.kinks if eps < k < gamma.l), gamma.l])
        edges = np.concatenate([np.linspace(a, b, max(math.ceil(b - a), 1), endpoint=False)
                                for a, b in zip(breaks, breaks[1:])] + [breaks[-1:]])
        prev = math.nan
        for _ in range(_MAX_HALVINGS + 1):
            val = float(np.sum(gl_panel(integrand, edges[:-1], edges[1:])))
            if abs(val - prev) <= 1e-11 * max(1.0, abs(val)):
                break
            prev = val
            edges = np.sort(np.concatenate((edges, 0.5 * (edges[:-1] + edges[1:]))))
        else:
            raise QuadratureError(
                f"{gamma.name}: 1/Gamma on ({eps!r}, {gamma.l!r}) does not converge in "
                f"{_MAX_HALVINGS} halvings; is a kink or a zero of Gamma undeclared?"
            )
        scores.append(val)
    return scores


def classify_divergence(scores: Sequence[float]) -> str:
    """Heuristic label from a score sequence at decreasing eps.

    "osgood-consistent" iff the last two increments both exceed 10% of the
    increment before them.  This is a desk heuristic for flagging flattening
    sequences, never a proof of (non-)divergence.
    """
    if len(scores) < 4:
        raise DomainError("need at least 4 scores to classify")
    d = np.diff(np.asarray(scores, dtype=float))
    if d[-1] > 0.1 * d[-3] and d[-2] > 0.1 * d[-3]:
        return "osgood-consistent"
    return "integral-converging"


@dataclass(frozen=True)
class FlowTrajectory:
    """Explicit Euler trajectory of f' = Gamma(f), possibly clamped at l."""

    times: np.ndarray
    values: np.ndarray
    step: float
    saturated: bool = False

    def __len__(self) -> int:
        return len(self.times)


def ode_flow(
    gamma: OsgoodFunction, f0: float, t_flow: float, dt: float
) -> FlowTrajectory:
    """Flow the extremal ODE f' = Gamma(f) from f0 with explicit Euler.

    The recursion f_{i+1} = f_i + dt * Gamma(f_i) keeps f = 0 an exact fixed
    point, which is the property under test.  Values are clamped at the
    domain endpoint l, with a saturation flag recorded.
    """
    if not 0.0 <= f0 < gamma.l:
        raise DomainError(f"f0 {f0!r} outside [0, {gamma.l!r})")
    if not 0.0 < dt <= t_flow:
        raise DomainError(f"need 0 < dt <= t_flow, got dt={dt!r}, t_flow={t_flow!r}")
    n = int(round(t_flow / dt))
    times = np.arange(n + 1) * dt
    values = np.empty(n + 1)
    values[0] = f0
    saturated = False
    f = f0
    for i in range(n):
        f = f + dt * gamma.fn(f)
        if f > gamma.l:
            f = gamma.l
            saturated = True
        values[i + 1] = f
    return FlowTrajectory(times, values, dt, saturated)
