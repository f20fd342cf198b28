"""Named analytic coefficient forms for the pricing model.

Model coefficients are declared as parametric closed forms so that spatial
gradients and Hessians are exact instead of numerically differentiated.
Scalar fields combine a spatial profile with an optional affine time factor
1 + slope * t.  All evaluators accept x of shape (..., N) and broadcast; t is
a scalar or an array over the leading axes of x.
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


# ---------------------------------------------------------------------------
# time forms (interest rate r, bank account xi)


@dataclass(frozen=True)
class TimeForm:
    """Scalar function of time with exact derivative and antiderivative."""

    name: str
    intercept: float
    slope: float = 0.0

    def __call__(self, t):
        return self.intercept + self.slope * np.asarray(t, dtype=float)

    def derivative(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.slope)

    def antiderivative(self, t):
        """Integral from 0 to t."""
        t = np.asarray(t, dtype=float)
        return self.intercept * t + 0.5 * self.slope * t * t

    def max_on(self, T: float) -> float:
        return float(max(self(0.0), self(T)))

    def deriv_sup(self, T: float) -> float:
        return abs(self.slope)

    def to_dict(self) -> dict:
        if self.slope == 0.0:
            return {"form": "constant", "params": {"value": self.intercept}}
        return {"form": "affine", "params": {"intercept": self.intercept, "slope": self.slope}}


def time_form(spec: dict) -> TimeForm:
    form, params = spec["form"], spec.get("params", {})
    if form == "constant":
        return TimeForm("constant", float(params["value"]))
    if form == "affine":
        return TimeForm("affine", float(params["intercept"]), float(params["slope"]))
    raise ConfigurationError(f"unknown time form {form!r}")


# ---------------------------------------------------------------------------
# spatial profiles


@dataclass(frozen=True)
class _Profile:
    """Spatial part phi(x) with exact derivatives and global constants."""

    name: str
    dim: int
    value: Callable = field(repr=False)
    grad: Callable = field(repr=False)
    hess: Callable = field(repr=False)
    sup: float = 0.0
    inf: float = 0.0
    grad_sup: float = 0.0
    lip_grad: float = 0.0
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
    c = np.asarray(center, dtype=float)
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
        support_radius=8.0 * width,
        center=c,
        params={"amplitude": A, "center": list(c), "width": width},
    )


def _rational_profile(n: int, A: float, center) -> _Profile:
    if A <= 0.0:
        raise ConfigurationError("rational bump needs positive amplitude")
    c = np.asarray(center, dtype=float)

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
        support_radius=30.0,
        center=c,
        params={"amplitude": A, "center": list(c)},
    )


def _cosine_profile(n: int, A: float, wavevector) -> _Profile:
    k = np.asarray(wavevector, dtype=float)
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
        return 1.0 + self.time_slope * np.asarray(t, dtype=float)

    def value(self, x, t=0.0):
        x = _as_points(x, self.dim)
        return self.time_factor(t) * self.profile.value(x)

    def grad(self, x, t=0.0):
        x = _as_points(x, self.dim)
        return self.time_factor(t)[..., None] * self.profile.grad(x)

    def hess(self, x, t=0.0):
        x = _as_points(x, self.dim)
        return self.time_factor(t)[..., None, None] * self.profile.hess(x)

    def dt(self, x, t=0.0):
        x = _as_points(x, self.dim)
        return self.time_slope * self.profile.value(x) + 0.0 * np.asarray(t, dtype=float)

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
    slope = float(params.pop("time_slope", 0.0))
    if form == "zero":
        return FieldForm(_zero_profile(dim), slope)
    if form == "constant":
        return FieldForm(_constant_profile(dim, float(params["value"])), slope)
    if form == "gaussian-bump":
        return FieldForm(
            _gaussian_profile(
                dim, float(params["amplitude"]),
                params.get("center", [0.0] * dim), float(params["width"]),
            ),
            slope,
        )
    if form == "rational-bump":
        return FieldForm(
            _rational_profile(dim, float(params["amplitude"]), params.get("center", [0.0] * dim)),
            slope,
        )
    if form == "cosine":
        return FieldForm(
            _cosine_profile(dim, float(params["amplitude"]), params["wavevector"]), slope
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

    def value(self, x, t=0.0):
        x = _as_points(x, self.dim)
        return self.fn(x)

    def to_dict(self) -> dict:
        return {"form": self.name, "params": dict(self.params)}


def vector_form(spec: dict, dim: int) -> VectorForm:
    form, params = spec["form"], spec.get("params", {})
    if form == "zero":
        return VectorForm("zero", dim, lambda x: np.zeros(x.shape))
    if form == "constant":
        vec = np.asarray(params["vector"], dtype=float)
        if vec.shape != (dim,):
            raise ConfigurationError(f"mu constant vector must have length {dim}")
        return VectorForm(
            "constant", dim,
            lambda x: np.broadcast_to(vec, x.shape).copy(),
            sup_norm=float(np.linalg.norm(vec)),
            params={"vector": list(vec)},
        )
    if form == "sinusoid":
        amp = np.asarray(params["amplitude"], dtype=float)
        wave = np.asarray(params["wavevector"], dtype=float)
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


@dataclass(frozen=True)
class MatrixForm:
    """Volatility sigma(t); constant in time at desk scale."""

    name: str
    matrix: np.ndarray

    def value(self, t=0.0) -> np.ndarray:
        return self.matrix

    @property
    def dim(self) -> tuple[int, int]:
        return self.matrix.shape

    def op_norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))

    def diffusion(self, t=0.0) -> np.ndarray:
        """sigma sigma^T."""
        s = self.value(t)
        return s @ s.T

    def to_dict(self) -> dict:
        return {"form": "constant", "params": {"matrix": self.matrix.tolist()}}


def matrix_form(spec: dict, n: int, d: int) -> MatrixForm:
    form, params = spec["form"], spec.get("params", {})
    if form == "constant":
        m = np.asarray(params["matrix"], dtype=float)
        if m.shape != (n, d):
            raise ConfigurationError(f"sigma matrix must be {n}x{d}, got {m.shape}")
        return MatrixForm("constant", m)
    raise ConfigurationError(f"unknown matrix form {form!r}")
