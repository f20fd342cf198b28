"""Named analytic coefficient forms for the pricing model.

Model coefficients are declared as parametric closed forms so that spatial
gradients and Hessians are exact instead of numerically differentiated.
Only the rate r, the bank account xi and the cash flow h depend on time: r
and xi are affine time forms and h is a spatial profile times an affine time
factor 1 + slope * t.  The drift mu is a vector field of x alone, sigma is a
constant (N, d) array, and U0 is the datum at t = 0.  All evaluators accept x
of shape (..., N) and broadcast; t is a scalar or an array over the leading
axes of x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError


def _as_points(x: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != n:
        raise ConfigurationError(f"expected points with last axis {n}, got shape {x.shape}")
    return x


def real(value) -> float:
    """value as a float, refusing JSON true and false (float(True) is 1.0)."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def reals(value) -> np.ndarray:
    """value, a number or nested lists of numbers, as a float array, refusing
    a JSON true or false anywhere in it."""
    def walk(v):
        return [walk(u) for u in v] if isinstance(v, (list, tuple, np.ndarray)) else real(v)

    return np.asarray(walk(value), dtype=float)


def parse_field(spec: dict, key: str, convert: Callable = real, default=None):
    """convert applied to spec[key], or to default when one is given and the
    key is absent; a value that convert refuses is reported with its field
    name (a missing required key raises KeyError)."""
    try:
        return convert(spec[key] if default is None else spec.get(key, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"field {key!r}: {exc}") from exc


def integer(value) -> int:
    """value as an int, refusing one that is not integral (1.5, inf) and a
    JSON true or false."""
    x = real(value)
    n = int(x)
    if n != x:
        raise ValueError(f"{value!r} is not an integer")
    return n


def refuse_unknown(spec: dict, fields: tuple[str, ...]) -> None:
    """Refuse a key of spec that is not in fields, which would otherwise be
    ignored without a word (a misspelt "Rho" or "dtt")."""
    for key in spec:
        if key not in fields:
            raise ConfigurationError(f"unknown field {key!r}")


# ---------------------------------------------------------------------------
# time forms (interest rate r, bank account xi)


@dataclass(frozen=True)
class TimeForm:
    """Affine scalar function of time, intercept + slope t, with its exact
    antiderivative."""

    name: str
    intercept: float
    slope: float = 0.0

    def __call__(self, t):
        return self.intercept + self.slope * t

    def antiderivative(self, t):
        """Integral from 0 to t."""
        t = np.asarray(t, dtype=float)
        return self.intercept * t + 0.5 * self.slope * t * t

    def max_on(self, T: float) -> float:
        return float(max(self(0.0), self(T)))

    def abs_max_on(self, T: float) -> float:
        """sup of |f| on [0, T], reached at an end since f is affine."""
        return float(max(abs(self(0.0)), abs(self(T))))

    def to_dict(self) -> dict:
        if self.slope == 0.0:
            return {"form": "constant", "params": {"value": self.intercept}}
        return {"form": "affine", "params": {"intercept": self.intercept, "slope": self.slope}}


def time_form(spec: dict) -> TimeForm:
    form, params = spec["form"], spec.get("params", {})
    if form == "constant":
        return TimeForm("constant", real(params["value"]))
    if form == "affine":
        return TimeForm("affine", real(params["intercept"]), real(params["slope"]))
    raise ConfigurationError(f"unknown time form {form!r}")


# ---------------------------------------------------------------------------
# spatial profiles


@dataclass(frozen=True)
class _Profile:
    """Spatial part phi(x) with exact derivatives and global constants.

    lip_hess = sup over x and unit e of |D^3 phi(x)[e, e, e]| is the
    Lipschitz constant of D^2 phi, since a symmetric trilinear form's norm
    is its sup on the diagonal (Banach, Studia Math. 7, 1938).  For a bump
    it is the 1D profile's: off the centre a line carries a factor <= 1.
    """

    name: str
    dim: int
    value: Callable = field(repr=False)
    grad: Callable = field(repr=False)
    hess: Callable = field(repr=False)
    sup: float = 0.0
    inf: float = 0.0
    grad_sup: float = 0.0
    lip_grad: float = 0.0
    lip_hess: float = 0.0
    support_radius: float = 1.0
    center: np.ndarray | None = None
    params: dict = field(default_factory=dict)


def _zero_profile(n: int) -> _Profile:
    return _Profile(
        "zero", n,
        lambda x: np.zeros(x.shape[:-1]),
        lambda x: np.zeros(x.shape),
        lambda x: np.zeros(x.shape + (n,)),
    )


def _constant_profile(n: int, c: float) -> _Profile:
    return _Profile(
        "constant", n,
        lambda x: np.full(x.shape[:-1], c),
        lambda x: np.zeros(x.shape),
        lambda x: np.zeros(x.shape + (n,)),
        sup=c, inf=c, params={"value": c},
    )


def _gaussian_profile(n: int, A: float, center, width: float) -> _Profile:
    if A <= 0.0 or width <= 0.0:
        raise ConfigurationError("gaussian bump needs positive amplitude and width")
    c = reals(center)
    w2 = width * width

    def val(x):
        y = x - c
        return A * np.exp(-np.sum(y * y, axis=-1) / (2.0 * w2))

    def grad(x):
        y = x - c
        return -val(x)[..., None] * y / w2

    def hess(x):
        y = x - c
        e = val(x)
        eye = np.eye(n)
        return (e[..., None, None] / w2) * (
            y[..., :, None] * y[..., None, :] / w2 - eye
        )

    return _Profile(
        "gaussian-bump", n, val, grad, hess,
        sup=A, inf=0.0,
        grad_sup=A / (width * math.sqrt(math.e)),
        lip_grad=A / w2,
        # (3u - u^3) e^{-u^2/2}, u = |y|/w, peaks at u^2 = 3 - sqrt 6
        lip_hess=math.sqrt(6.0 * (3.0 - math.sqrt(6.0)))
        * math.exp(-(3.0 - math.sqrt(6.0)) / 2.0) * A / (w2 * width),
        support_radius=8.0 * width,
        center=c,
        params={"amplitude": A, "center": list(c), "width": width},
    )


def _rational_profile(n: int, A: float, center) -> _Profile:
    if A <= 0.0:
        raise ConfigurationError("rational bump needs positive amplitude")
    c = reals(center)
    s2 = 1.0 - 2.0 / math.sqrt(5.0)

    def val(x):
        y = x - c
        return A / (1.0 + np.sum(y * y, axis=-1))

    def grad(x):
        y = x - c
        d = 1.0 + np.sum(y * y, axis=-1)
        return -2.0 * A * y / (d * d)[..., None]

    def hess(x):
        y = x - c
        d = 1.0 + np.sum(y * y, axis=-1)
        eye = np.eye(n)
        return (-2.0 * A / (d * d))[..., None, None] * eye + (
            8.0 * A / (d ** 3)
        )[..., None, None] * (y[..., :, None] * y[..., None, :])

    return _Profile(
        "rational-bump", n, val, grad, hess,
        sup=A, inf=0.0,
        grad_sup=A * 3.0 * math.sqrt(3.0) / 8.0,
        lip_grad=2.0 * A,
        # 24 s (1 - s^2) / (1 + s^2)^4 peaks at s^2 = 1 - 2/sqrt 5; a line at
        # distance a from the centre scales it by (1 + a^2)^(-5/2)
        lip_hess=24.0 * A * math.sqrt(s2) * (1.0 - s2) / (1.0 + s2) ** 4,
        support_radius=30.0,
        center=c,
        params={"amplitude": A, "center": list(c)},
    )


def _cosine_profile(n: int, A: float, wavevector) -> _Profile:
    k = reals(wavevector)
    knorm = float(np.linalg.norm(k))

    def val(x):
        return A * np.cos(x @ k)

    def grad(x):
        return (-A * np.sin(x @ k))[..., None] * k

    def hess(x):
        return (-A * np.cos(x @ k))[..., None, None] * np.outer(k, k)

    return _Profile(
        "cosine", n, val, grad, hess,
        sup=abs(A), inf=-abs(A),
        grad_sup=abs(A) * knorm,
        lip_grad=abs(A) * knorm**2,
        lip_hess=abs(A) * knorm**3,
        support_radius=2.0 * math.pi / knorm if knorm > 0 else 1.0,
        params={"amplitude": A, "wavevector": list(k)},
    )


# ---------------------------------------------------------------------------
# scalar fields (cash-flow h, initial datum U0)


@dataclass(frozen=True)
class FieldForm:
    """Scalar field s(t) * phi(x) with s(t) = 1 + time_slope * t."""

    profile: _Profile
    time_slope: float = 0.0

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def dim(self) -> int:
        return self.profile.dim

    def time_factor(self, t):
        return 1.0 + self.time_slope * t

    def value(self, x, t=0.0):
        x = _as_points(x, self.dim)
        return self.time_factor(t) * self.profile.value(x)

    def grad(self, x, t=0.0):
        x = _as_points(x, self.dim)
        return np.asarray(self.time_factor(t))[..., None] * self.profile.grad(x)

    def hess(self, x, t=0.0):
        x = _as_points(x, self.dim)
        return np.asarray(self.time_factor(t))[..., None, None] * self.profile.hess(x)

    def dt(self, x):
        """d/dt of the field, the same at every t."""
        x = _as_points(x, self.dim)
        return self.time_slope * self.profile.value(x)

    def is_zero(self) -> bool:
        return self.profile.name == "zero"

    def time_factor_range(self, T: float) -> tuple[float, float]:
        lo = min(1.0, 1.0 + self.time_slope * T)
        hi = max(1.0, 1.0 + self.time_slope * T)
        return lo, hi

    def sup_at(self, t):
        """sup over x of the field at time t, elementwise in t."""
        s = self.time_factor(t)
        return s * np.where(s >= 0, self.profile.sup, self.profile.inf)

    def inf_at(self, t):
        """inf over x of the field at time t, elementwise in t."""
        s = self.time_factor(t)
        return s * np.where(s >= 0, self.profile.inf, self.profile.sup)

    def bounds(self, T: float) -> dict:
        lo, hi = self.time_factor_range(T)
        if lo < 0.0:
            raise ConfigurationError(
                f"time factor of {self.name} changes sign on [0, {T}]"
            )
        cands = [lo * self.profile.sup, hi * self.profile.sup,
                 lo * self.profile.inf, hi * self.profile.inf]
        return {
            "sup": max(cands),
            "inf": min(cands),
            "grad_sup": hi * self.profile.grad_sup,
            "lip_grad": hi * self.profile.lip_grad,
            "lip_hess": hi * self.profile.lip_hess,
            "dt_sup": abs(self.time_slope) * max(abs(self.profile.sup), abs(self.profile.inf)),
            "lip_dt": abs(self.time_slope) * self.profile.grad_sup,
        }

    def to_dict(self) -> dict:
        d = {"form": self.profile.name, "params": dict(self.profile.params)}
        if self.time_slope:
            d["params"]["time_slope"] = self.time_slope
        return d


def field_form(spec: dict, dim: int) -> FieldForm:
    form, params = spec["form"], dict(spec.get("params", {}))
    slope = real(params.pop("time_slope", 0.0))
    if form == "zero":
        return FieldForm(_zero_profile(dim), slope)
    if form == "constant":
        return FieldForm(_constant_profile(dim, real(params["value"])), slope)
    if form == "gaussian-bump":
        return FieldForm(
            _gaussian_profile(
                dim, real(params["amplitude"]),
                params.get("center", [0.0] * dim), real(params["width"]),
            ),
            slope,
        )
    if form == "rational-bump":
        return FieldForm(
            _rational_profile(dim, real(params["amplitude"]), params.get("center", [0.0] * dim)),
            slope,
        )
    if form == "cosine":
        return FieldForm(
            _cosine_profile(dim, real(params["amplitude"]), params["wavevector"]), slope
        )
    raise ConfigurationError(f"unknown field form {form!r}")


# ---------------------------------------------------------------------------
# vector fields (drift mu)


@dataclass(frozen=True)
class VectorForm:
    """Bounded Lipschitz drift field."""

    name: str
    dim: int
    fn: Callable = field(repr=False)
    sup_norm: float = 0.0
    lip: float = 0.0
    params: dict = field(default_factory=dict)

    def value(self, x):
        x = _as_points(x, self.dim)
        return self.fn(x)

    def to_dict(self) -> dict:
        return {"form": self.name, "params": dict(self.params)}


def vector_form(spec: dict, dim: int) -> VectorForm:
    form, params = spec["form"], spec.get("params", {})
    if form == "zero":
        return VectorForm("zero", dim, lambda x: np.zeros(x.shape))
    if form == "constant":
        vec = reals(params["vector"])
        if vec.shape != (dim,):
            raise ConfigurationError(f"mu constant vector must have length {dim}")
        return VectorForm(
            "constant", dim,
            lambda x: np.broadcast_to(vec, x.shape).copy(),
            sup_norm=float(np.linalg.norm(vec)),
            params={"vector": list(vec)},
        )
    if form == "sinusoid":
        amp = reals(params["amplitude"])
        wave = reals(params["wavevector"])
        if amp.shape != (dim,) or wave.shape != (dim, dim):
            raise ConfigurationError(
                f"sinusoid mu needs amplitude ({dim},) and wavevector ({dim},{dim})"
            )

        def fn(x):
            return amp * np.sin(x @ wave.T)

        row_lip = np.abs(amp) * np.linalg.norm(wave, axis=1)
        return VectorForm(
            "sinusoid", dim, fn,
            sup_norm=float(np.linalg.norm(amp)),
            lip=float(np.linalg.norm(row_lip)),
            params={"amplitude": list(amp), "wavevector": wave.tolist()},
        )
    raise ConfigurationError(f"unknown vector form {form!r}")


# ---------------------------------------------------------------------------
# volatility matrix


def matrix_form(spec: dict, n: int, d: int) -> np.ndarray:
    """The constant (n, d) volatility matrix sigma."""
    form, params = spec["form"], spec.get("params", {})
    if form == "constant":
        m = reals(params["matrix"])
        if m.shape != (n, d):
            raise ConfigurationError(f"sigma matrix must be {n}x{d}, got {m.shape}")
        if not np.isfinite(m).all():
            raise ConfigurationError(f"sigma matrix {m.tolist()} has a non-finite entry")
        return m
    raise ConfigurationError(f"unknown matrix form {form!r}")
