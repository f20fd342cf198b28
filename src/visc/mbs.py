"""The degenerate quasilinear pricing model and its analytic structure.

The unknown U(x, t) solves

    dU/dt - (1/2) tr(sigma sigma^T D^2 U) - <mu, DU>
          + rho |sigma^T DU|^2 / (U + h + xi(t)) + r(t)(U + h) - tau h = 0

with nonnegative cash-flow h, positive bank account xi, risk aversion
rho > 0 and coupon rate tau > 0.  This module computes the explicit
time barriers sandwiching every admissible solution, validates the standing
assumptions by sampling, builds the shifted problem in u = U + h + xi (whose
Hamiltonian feeds the structural checkers), and evaluates the Lipschitz
growth constant of the straightened unknown.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import forms
from .errors import (
    ConfigurationError,
    DomainError,
    ModelError,
    PreconditionError,
)
from .hamiltonian import CheckReport, HamiltonianSpec, ModulusFamily, sample_rng
from .osgood import OsgoodFunction, gl_panel, refine_max
from .transform import GaugeFunction, Transformation, mbs_exp_gauge


# ---------------------------------------------------------------------------
# model


@dataclass
class MbsModel:
    """All coefficients of the pricing equation as named analytic forms."""

    dim_state: int
    dim_noise: int
    sigma: np.ndarray
    mu: forms.VectorForm
    r: forms.TimeForm
    xi: forms.TimeForm
    h: forms.FieldForm
    rho: float
    tau: float
    T: float
    U0: forms.FieldForm
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.dim_noise > self.dim_state:
            raise ConfigurationError("need d <= N")
        if not 0.0 < self.T < math.inf:
            raise ConfigurationError(f"field 'T': maturity {self.T!r} must be positive and finite")
        if not 0.0 <= self.rho < math.inf:
            raise ConfigurationError(f"field 'rho': {self.rho!r} must be nonnegative and finite")
        if not math.isfinite(self.tau):
            raise ConfigurationError(f"field 'tau': {self.tau!r} must be finite")

    # -- declared bounds -----------------------------------------------------

    def scan_box(self) -> tuple[np.ndarray, np.ndarray]:
        rad = max(self.h.profile.support_radius, self.U0.profile.support_radius, 4.0)
        centers = [
            p.center
            for p in (self.h.profile, self.U0.profile)
            if p.center is not None
        ]
        c = np.mean(centers, axis=0) if centers else np.zeros(self.dim_state)
        return c - rad, c + rad

    def _lip_hess_trace_scan(self) -> float:
        """Spatial Lipschitz constant of tr(sigma sigma^T D^2 h), by a dense
        quotient scan of the analytic Hessian, inflated 1.3x."""
        if self.h.is_zero() or self.h.profile.name == "constant":
            return 0.0
        W = self.sigma @ self.sigma.T
        n = self.dim_state
        per_dim = {1: 4001, 2: 161, 3: 41}.get(n, 41)
        lo, hi = self.scan_box()
        axes = [np.linspace(lo[i], hi[i], per_dim) for i in range(n)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        tf = self.h.time_factor_range(self.T)[1]
        tr = tf * np.einsum("ij,...ij->...", W, self.h.profile.hess(mesh))
        worst = 0.0
        for ax in range(n):
            d = float(axes[ax][1] - axes[ax][0])
            q = np.abs(np.diff(tr, axis=ax)) / d
            worst = max(worst, float(q.max()))
        return 1.3 * worst

    def bounds(self) -> dict:
        """Analytic (or scan-derived) constants the candidate moduli rely on."""
        if "bounds" in self._cache:
            return self._cache["bounds"]
        hb = self.h.bounds(self.T)
        ub = self.U0.bounds(self.T)
        r_max = self.r.max_on(self.T)
        xi_max = self.xi.max_on(self.T)
        b = {
            "mu_sup": self.mu.sup_norm,
            "mu_lip": self.mu.lip,
            "h_sup": hb["sup"],
            "h_inf": hb["inf"],
            "grad_h_sup": hb["grad_sup"],
            "lip_grad_h": hb["lip_grad"],
            "lip_dt_h": hb["lip_dt"],
            "dt_h_sup": hb["dt_sup"],
            "lip_hess_trace_h": self._lip_hess_trace_scan(),
            "u0_sup": ub["sup"],
            "u0_lip": ub["grad_sup"],
            "sigma_op": float(np.linalg.norm(self.sigma, 2)),
            "sigma_tr": float(np.trace(self.sigma @ self.sigma.T)),
            "r_max": r_max,
            "xi_prime_sup": abs(self.xi.slope),
        }
        # sup and spatial Lipschitz constant of the source g, bounded by parts
        b["g_sup"] = (
            b["dt_h_sup"]
            + 0.5 * b["sigma_tr"] * b["lip_grad_h"]
            + b["mu_sup"] * b["grad_h_sup"]
            + self.tau * max(abs(b["h_sup"]), abs(b["h_inf"]))
            + b["xi_prime_sup"]
            + r_max * xi_max
        )
        b["g_lip"] = (
            b["lip_dt_h"]
            + 0.5 * b["lip_hess_trace_h"]
            + b["mu_lip"] * b["grad_h_sup"]
            + b["mu_sup"] * b["lip_grad_h"]
            + self.tau * b["grad_h_sup"]
        )
        self._cache["bounds"] = b
        return b

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "N": self.dim_state,
            "d": self.dim_noise,
            "sigma": {"form": "constant", "params": {"matrix": self.sigma.tolist()}},
            "mu": self.mu.to_dict(),
            "r": self.r.to_dict(),
            "xi": self.xi.to_dict(),
            "h": self.h.to_dict(),
            "rho": self.rho,
            "tau": self.tau,
            "T": self.T,
            "U0": self.U0.to_dict(),
        }


_MODEL_FIELDS = ("N", "d", "sigma", "mu", "r", "xi", "h", "rho", "tau", "T", "U0")


def model_from_dict(cfg: dict) -> MbsModel:
    for key in _MODEL_FIELDS:
        if key not in cfg:
            raise ConfigurationError(f"model config missing required field {key!r}")
    forms.refuse_unknown(cfg, _MODEL_FIELDS + ("bounds",))
    # older model files carry an empty "bounds"; overrides of the derived
    # constants are refused rather than ignored
    if cfg.get("bounds"):
        raise ConfigurationError(
            "model field 'bounds' is not supported: the constants are derived from the forms"
        )
    field_of = forms.parse_field
    n, d = field_of(cfg, "N", forms.integer), field_of(cfg, "d", forms.integer)
    model = MbsModel(
        dim_state=n,
        dim_noise=d,
        sigma=field_of(cfg, "sigma", lambda spec: forms.matrix_form(spec, n, d)),
        mu=field_of(cfg, "mu", lambda spec: forms.vector_form(spec, n)),
        r=field_of(cfg, "r", forms.time_form),
        xi=field_of(cfg, "xi", forms.time_form),
        h=field_of(cfg, "h", lambda spec: forms.field_form(spec, n)),
        rho=field_of(cfg, "rho"),
        tau=field_of(cfg, "tau"),
        T=field_of(cfg, "T"),
        U0=field_of(cfg, "U0", lambda spec: forms.field_form(spec, n)),
    )
    # U0 is read at t = 0 only: a slope would move the barrier constants, not the solve
    if "time_slope" in cfg["U0"].get("params", {}):
        raise ConfigurationError("field 'U0': the datum at t = 0 takes no 'time_slope'")
    return model


def load_model(path) -> MbsModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def default_model() -> MbsModel:
    """Desk-scale 1D pool: Gaussian-bump cash-flow, mild sinusoidal drift."""
    return model_from_dict(
        {
            "N": 1,
            "d": 1,
            "sigma": {"form": "constant", "params": {"matrix": [[0.4]]}},
            "mu": {
                "form": "sinusoid",
                "params": {"amplitude": [0.05], "wavevector": [[1.0]]},
            },
            "r": {"form": "constant", "params": {"value": 0.03}},
            "xi": {"form": "constant", "params": {"value": 1.0}},
            "h": {
                "form": "gaussian-bump",
                "params": {"amplitude": 0.5, "center": [0.0], "width": 1.0},
            },
            "rho": 0.5,
            "tau": 0.06,
            "T": 1.0,
            "U0": {
                "form": "gaussian-bump",
                "params": {"amplitude": 0.25, "center": [0.0], "width": 1.5},
            },
        }
    )


def heat_model() -> MbsModel:
    """rho = 0 linear fixture: pure heat flow of a cosine initial datum.

    With sigma^2 = 2 and everything else off, U(x, t) = exp(-t) cos(x).
    U0 takes negative values, so assumption (P3) is deliberately violated;
    validate_model reports it and the linear solver does not care.
    """
    return model_from_dict(
        {
            "N": 1,
            "d": 1,
            "sigma": {"form": "constant", "params": {"matrix": [[math.sqrt(2.0)]]}},
            "mu": {"form": "zero", "params": {}},
            "r": {"form": "constant", "params": {"value": 0.0}},
            "xi": {"form": "constant", "params": {"value": 1.0}},
            "h": {"form": "zero", "params": {}},
            "rho": 0.0,
            "tau": 1.0,
            "T": 1.0,
            "U0": {"form": "cosine", "params": {"amplitude": 1.0, "wavevector": [1.0]}},
        }
    )


# ---------------------------------------------------------------------------
# barriers


@dataclass(frozen=True)
class BarrierPair:
    """The explicit sub/supersolution pair and its constants.  k_lower and
    k_upper take a float or an array of times in [0, T) and keep its shape."""

    k_lower: Callable
    k_upper: Callable
    K0: float
    c0: float
    m0: float
    M0: float


def _source_extreme(m: MbsModel, s, inf: bool):
    """inf (or sup) over x of (tau - r(s)) h(x, s), elementwise in s."""
    c = m.tau - m.r(s)
    return c * np.where((c >= 0.0) == inf, m.h.inf_at(s), m.h.sup_at(s))


def _check_time(m: MbsModel, t) -> None:
    if not np.all((0.0 <= np.asarray(t)) & (np.asarray(t) < m.T)):
        raise DomainError(f"t = {t!r} outside [0, {m.T!r})")


def lower_barrier(m: MbsModel, t):
    """k_lower(t) = e^{-int r} (inf U0 + int_0^t e^{int r} inf_x[(tau-r)h])."""
    _check_time(m, t)
    return _lower_barrier_table(m)(t)


def _lower_barrier_table(m: MbsModel) -> Callable:
    """k_lower on the closed interval [0, T], elementwise, built once per model.

    r and h's time factor are affine, so the integrand e^{R(s)} inf_x[(tau -
    r(s)) h(x, s)] is smooth between the roots of tau - r and of that factor.
    Its integral is tabulated on 256 equal panels of [0, T], with those roots
    as extra breaks, by one Gauss-Legendre rule per panel; at t the same rule
    adds the part of t's panel below t.
    """
    if "k_lower" in m._cache:
        return m._cache["k_lower"]
    R = m.r.antiderivative
    u0_inf = m.U0.inf_at(0.0)

    def integrand(s):
        return np.exp(R(s)) * _source_extreme(m, s, inf=True)

    roots = [(m.tau - m.r.intercept) / m.r.slope if m.r.slope else 0.0,
             -1.0 / m.h.time_slope if m.h.time_slope else 0.0]
    nodes = np.union1d(np.linspace(0.0, m.T, 257),
                       [s for s in roots if 0.0 < s < m.T])
    table = np.concatenate(([0.0], np.cumsum(gl_panel(integrand, nodes[:-1], nodes[1:]))))

    def k_lower(t):
        t = np.asarray(t, dtype=float)
        # t in [0, T]: the panel holding t, the last one for t = T
        k = np.minimum(np.searchsorted(nodes, t, side="right") - 1, len(nodes) - 2)
        return np.exp(-R(t)) * (u0_inf + (table[k] + gl_panel(integrand, nodes[k], t)))

    m._cache["k_lower"] = k_lower
    return k_lower


def barrier_pair(m: MbsModel) -> BarrierPair:
    if "barriers" in m._cache:
        return m._cache["barriers"]
    b = m.bounds()
    k_closed = _lower_barrier_table(m)
    c0 = max(b["u0_sup"], refine_max(k_closed, 0.0, m.T, 1001))

    def k0_integrand(t):
        r = m.r(t)
        return np.maximum(_source_extreme(m, t, inf=False) - c0 * r, 0.0) / (1.0 + t * r)

    K0 = max(refine_max(k0_integrand, 0.0, m.T, 1001), 0.0)

    def k_upper(t):
        _check_time(m, t)
        return K0 * t + c0

    m0 = -refine_max(lambda t: -(k_closed(t) + m.h.inf_at(t) + m.xi(t)), 0.0, m.T, 1001)
    sup_hxi = refine_max(lambda t: m.h.sup_at(t) + m.xi(t), 0.0, m.T, 1001)
    M0 = K0 * m.T + c0 + sup_hxi
    pair = BarrierPair(lambda t: lower_barrier(m, t), k_upper, K0, c0, m0, M0)
    m._cache["barriers"] = pair
    return pair


def upper_barrier(m: MbsModel, t):
    return barrier_pair(m).k_upper(t)


# ---------------------------------------------------------------------------
# assumption validation


def validate_model(m: MbsModel, n_samples: int, seed: int) -> CheckReport:
    """Sampled verification of the standing assumptions plus positivity.

    Failures are report entries, not exceptions.  max_violation is the worst
    constraint excess across all named checks (<= 0 means everything held).
    worst_sample is the first sample with the largest failing excess (with
    no failing sample, the one where xi + h + k_lower is least).
    """
    rng = sample_rng(n_samples, seed)
    b = m.bounds()
    lo, hi = m.scan_box()
    tol = 1e-9
    xs = rng.uniform(lo, hi, (n_samples, m.dim_state))
    ys = xs + rng.normal(0.0, 0.5, (n_samples, m.dim_state))
    ts = rng.uniform(0.0, m.T * (1.0 - 1e-12), n_samples)
    ss = rng.uniform(0.0, m.T * (1.0 - 1e-12), n_samples)

    def norm(v):
        return np.linalg.norm(v, axis=-1)

    dxy = norm(xs - ys)
    apart = dxy > 1e-9
    dxy = np.where(apart, dxy, 1.0)

    def lipschitz(diff, bound):
        # only pairs that are apart constrain the quotient
        return np.where(apart, diff / dxy - bound, -np.inf)

    def positive(v):
        return np.where(v <= 0.0, np.maximum(-v, 1e-6), -1.0)

    mu_x, hx, dh_x = m.mu.value(xs), m.h.value(xs, ts), m.h.grad(xs, ts)
    u0x, xi_t = m.U0.value(xs), m.xi(ts)
    v_xi = xi_t + hx + barrier_pair(m).k_lower(ts)
    excess = {
        "P1:mu-bounded": norm(mu_x) - b["mu_sup"],
        "P1:mu-lipschitz": lipschitz(norm(mu_x - m.mu.value(ys)), b["mu_lip"]),
        "P2:h-nonnegative": -hx,
        "P2:h-bounded": hx - b["h_sup"],
        "P2:grad-h-bounded": norm(dh_x) - b["grad_h_sup"],
        "P2:grad-h-lipschitz": lipschitz(norm(dh_x - m.h.grad(ys, ts)), b["lip_grad_h"]),
        "P2:dt-h-lipschitz": lipschitz(
            np.abs(m.h.dt(xs) - m.h.dt(ys)), b["lip_dt_h"]),
        "P3:U0-nonnegative": -u0x,
        "P3:U0-bounded": u0x - b["u0_sup"],
        "P3:U0-lipschitz": lipschitz(np.abs(u0x - m.U0.value(ys)), b["u0_lip"]),
        "P2:xi-positive": positive(xi_t),
        "XI:positivity": positive(v_xi),
    }
    failures = {k: float(e.max()) for k, e in excess.items() if e.max() > tol}
    stack = np.stack(list(excess.values()))
    worst = np.where(stack > tol, stack, -np.inf).max(axis=0)
    # a sample with no failure has xi + h + k_lower > 0, so -v_xi < any failure
    i = int(np.argmax(np.where(worst > -np.inf, worst, -v_xi)))

    dts = np.abs(ts - ss)
    rates = np.abs(hx - m.h.value(xs, ss)) / np.where(dts > 1e-9, dts, 1.0)
    dt_rate = float(np.max(rates, where=dts > 1e-9, initial=0.0))
    for name, e in (
        ("P2:rho-positive", 1.0 if m.rho <= 0.0 else -1.0),
        ("P2:tau-positive", 1.0 if m.tau <= 0.0 else -1.0),
        ("dt-h:linear-envelope", dt_rate - b["dt_h_sup"] - tol),
    ):
        if e > tol:
            failures[name] = e

    return CheckReport(
        check="validate-model",
        samples_tested=n_samples,
        max_violation=max(failures.values()) if failures else 0.0,
        worst_sample={"x": xs[i].tolist(), "t": float(ts[i])} if failures else {},
        seed=seed,
        passed=not failures,
        details={"failures": sorted(failures), "dt_h_fitted_rate": dt_rate},
    )


def barrier_residuals(m: MbsModel, n_samples: int, seed: int) -> CheckReport:
    """Residuals of the pricing operator at the spatially constant barriers.

    At U = k_lower the operator reduces to k' + r(k + h) - tau h, and with
    the closed-form derivative k_lower' = -r k_lower + inf_x[(tau - r) h]
    the residual is inf_x[(tau - r) h] - (tau - r) h(x, t) <= 0; likewise the
    upper barrier residual is K0 (1 + t r) + c0 r - (tau - r) h >= 0.
    worst_sample is the first sample where the side it names reaches
    max_violation; a tie names the sub side.
    """
    rng = sample_rng(n_samples, seed)
    pair = barrier_pair(m)
    lo, hi = m.scan_box()
    n = m.dim_state
    # sample k is the row (x_k, t_k), scaled per column as Generator.uniform does
    draws = rng.random((n_samples, n + 1))
    xs = lo + (hi - lo) * draws[:, :n]
    ts = m.T * (1.0 - 1e-12) * draws[:, n]
    r = m.r(ts)
    source = (m.tau - r) * m.h.value(xs, ts)
    res_sub = _source_extreme(m, ts, inf=True) - source
    res_super = pair.K0 * (1.0 + ts * r) + pair.c0 * r - source
    i, j = int(np.argmax(res_sub)), int(np.argmin(res_super))
    worst_sub, worst_super = float(res_sub[i]), float(res_super[j])
    side, k = ("super", j) if -worst_super > worst_sub else ("sub", i)
    violation = max(worst_sub, -worst_super)
    return CheckReport(
        check="barrier-residuals",
        samples_tested=n_samples,
        max_violation=violation,
        worst_sample={"x": xs[k].tolist(), "t": float(ts[k]), "side": side},
        seed=seed,
        passed=violation <= 1e-8,
        details={"max_residual_sub": worst_sub, "min_residual_super": worst_super},
    )


# ---------------------------------------------------------------------------
# the shifted problem in u = U + h + xi


def source_g(m: MbsModel, x: np.ndarray, t) -> np.ndarray:
    """g = -dh/dt + (1/2) tr(sigma sigma^T D^2 h) + <mu, Dh> - tau h - (xi' + r xi).

    t is a scalar or an array over the leading axes of x.
    """
    return source_g_on(m, x)(t)


def source_g_on(m: MbsModel, x: np.ndarray) -> Callable:
    """t -> source_g(m, x, t), with every spatial part evaluated once on x.

    sigma and mu are constant in time and h = s(t) phi(x) with an affine
    factor s, so g(x, t) = -s' phi + s(t) [tr(W D^2 phi)/2 + <mu, D phi> -
    tau phi] - (xi' + r xi)(t).
    """
    x = np.asarray(x, dtype=float)
    h = m.h
    spatial = (
        0.5 * np.einsum("ij,...ij->...", m.sigma @ m.sigma.T, h.hess(x))
        + np.sum(m.mu.value(x) * h.grad(x), axis=-1)
        - m.tau * h.value(x)
    )
    h_dt = h.dt(x)

    def g(t):
        return (
            -h_dt
            + h.time_factor(t) * spatial
            - (m.xi.derivative(t) + m.r(t) * m.xi(t))
        )

    return g


def dm2_hamiltonian(m: MbsModel) -> HamiltonianSpec:
    """The Hamiltonian of the shifted equation, in comparison orientation:

        F(x,t,u,p,X) = -(1/2) tr(sigma sigma^T X) - <mu, p>
                       + rho |sigma^T p - sigma^T Dh|^2 / u + r(t) u + g(x,t),

    on the barrier interval u in (m0, M0) widened by eps0 = m0/2, so u stays
    at least m0/2 > 0.  Batched: evaluates stacks of samples in one call.
    """
    pair = barrier_pair(m)
    if pair.m0 <= 0.0:
        raise ModelError(
            "positivity condition fails: inf(k_lower + h + xi) = "
            f"{pair.m0!r} <= 0, so u > 0 is not guaranteed"
        )
    sig = m.sigma
    W = sig @ sig.T

    def fn(x, t, u, p, X):
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        val = -0.5 * np.einsum("ij,...ji->...", W, X) - np.sum(m.mu.value(x) * p, axis=-1)
        if m.rho > 0.0:
            sp = (p - m.h.grad(x, t)) @ sig
            val = val + m.rho * np.sum(sp * sp, axis=-1) / u
        return val + m.r(t) * u + source_g(m, x, t)

    return HamiltonianSpec(
        name="mbs-dm2",
        dim_state=m.dim_state,
        u_domain=(pair.m0, pair.M0),
        eps0=0.5 * pair.m0,
        fn=fn,
        t_max=m.T,
        batched=True,
    )


def transformed_problem(m: MbsModel) -> tuple[HamiltonianSpec, Callable]:
    """The u = U + h + xi problem: its Hamiltonian and initial datum."""
    H = dm2_hamiltonian(m)

    def u0(x):
        return m.U0.value(x) + m.h.value(x, 0.0) + float(m.xi(0.0))

    return H, u0


# ---------------------------------------------------------------------------
# candidate moduli for the structural checks


def cp6_candidates(m: MbsModel) -> tuple[ModulusFamily, ModulusFamily]:
    """Linear moduli that dominate the doubled-variable inequality.

    nu2 collects the x-Lipschitz pieces (drift, source, quadratic term),
    nu2R the trace of the diffusion against the 2*eps3 matrix slack.
    """
    b = m.bounds()
    pair = barrier_pair(m)
    m0 = pair.m0
    quad_rate = (
        0.0
        if m.rho == 0.0
        else 2.0
        * m.rho
        * b["sigma_op"] ** 2
        * b["lip_grad_h"]
        * max(1.0, b["grad_h_sup"])
        / m0
    )
    nu2 = ModulusFamily("linear", b["mu_lip"] + quad_rate + b["g_lip"])
    nu2R = ModulusFamily("linear", 0.5 * b["sigma_tr"])
    return nu2, nu2R


def cp7_candidates(
    m: MbsModel, R: float
) -> tuple[OsgoodFunction, ModulusFamily, GaugeFunction]:
    """Gauge z = (lam1 u - lam2)^2, lam1 = 2/m0 and lam2 = 1, plus moduli for
    the Osgood check.

    Gamma is linear at rate rho ((C2 M0)^2 / (4 lam2) + C2), with C2 the
    explicit constant collected from the term-by-term expansion of the
    shifted Hamiltonian:

        C2 = max( 2 |sigma^T| |Dh| / m0^2,
                  2 |sigma^T|^2 |Dh|^2 lam1 M0 / (lam0 m0^2)
                    + (r_max lam2 + |g| lam1) / (rho lam0) ).

    The nu_hat rate bounds every term produced by off-canonical scaling
    factors; all constants are upper bounds, so a sampled violation above
    float noise falsifies the derivation rather than the sampler.
    """
    if m.rho <= 0.0:
        raise PreconditionError("the Osgood candidates require rho > 0")
    pair = barrier_pair(m)
    m0, M0 = pair.m0, pair.M0
    if m0 <= 0.0:
        raise ModelError("need inf(k_lower + h + xi) > 0")
    lam1, lam2 = 2.0 / m0, 1.0
    gauge = mbs_exp_gauge(m0, M0)
    b = m.bounds()
    lam0 = gauge.lambda0
    sig = b["sigma_op"]
    dh = b["grad_h_sup"]
    c2 = max(
        2.0 * sig * dh / m0**2,
        2.0 * sig**2 * dh**2 * lam1 * M0 / (lam0 * m0**2)
        + (b["r_max"] * lam2 + b["g_sup"] * lam1) / (m.rho * lam0),
    )
    rate = m.rho * ((c2 * M0) ** 2 / (4.0 * lam2) + c2)
    gamma = OsgoodFunction(
        f"mbs-linear:{rate:g}", max(M0 - m0, 1e-12), lambda s: rate * s
    )
    nu_rate = (
        (lam1 / (4.0 * lam0) + m.rho / (2.0 * math.sqrt(lam0) * m0)) * sig**2 * R
        + m.rho * sig**2 * dh**2 / (2.0 * lam0**1.5 * m0)
        + (b["r_max"] * M0 + b["g_sup"]) / (2.0 * lam0**1.5)
    )
    return gamma, ModulusFamily("linear", nu_rate), gauge


# ---------------------------------------------------------------------------
# regularity constants


@dataclass(frozen=True)
class RegularityData:
    """Coefficient functions and the growth constant of the straightened
    unknown v, plus the factor mapping v-increments back to u-increments."""

    model: MbsModel
    gauge_kind: str
    lambda1: Callable[[float], float]
    lambda2: Callable[[float], float]
    w: Callable
    f: Callable
    M: float
    C: float
    v_range: tuple[float, float]
    min_lambda1_prime: float
    u_scale_factor: float
    lip_v0: float
    constants: dict = field(default_factory=dict)


def constant_from_bounds(
    lip_mu: float,
    sup_lambda2_prime: float,
    sup_w: float,
    min_lambda1_prime: float,
    sup_lambda2: float,
    sup_sigma: float,
    lip_w: float,
    lip_f: float,
    M: float,
) -> float:
    """The four-term growth constant

        C = 2 Lip(mu) + |l2'|^2 |w|^2 / (4 min l1')
            + 2 |l2| |sigma^T| Lip(w) + Lip(f) (1/(2M) + 1).

    The middle term is absent when |l2'| |w| = 0 (its origin is a square
    completion against min l1' > 0, vacuous when the numerator vanishes).
    """
    if M <= 0.0:
        raise PreconditionError("M must be positive")
    num = (sup_lambda2_prime * sup_w) ** 2
    if num == 0.0:
        mid = 0.0
    else:
        if min_lambda1_prime <= 0.0:
            raise PreconditionError(
                "min lambda1' must be positive when the drift-coupling term is present"
            )
        mid = num / (4.0 * min_lambda1_prime)
    return (
        2.0 * lip_mu
        + mid
        + 2.0 * sup_lambda2 * sup_sigma * lip_w
        + lip_f * (0.5 / M + 1.0)
    )


def regularity_constant(m: MbsModel, M: float | None = None) -> RegularityData:
    """Coefficients of the straightened equation and the constant C.

    For rho > 0 the Transformation of mbs_exp_gauge(m0, M0) supplies I, I'
    and I'' on v_range = [0, v_max], where lambda1'(v) = (4 rho/m0^2)
    I'(v) / (I'(v) + 1)^2 > 0 has its minimum at the right endpoint.  For
    rho = 0 the equation is linear and the identity straightening is used
    (requires h = 0 unless the value floor stays positive).
    """
    b = m.bounds()
    pair = barrier_pair(m)
    m0, M0 = pair.m0, pair.M0
    sig = b["sigma_op"]

    def w_fn(x, t):
        return m.h.grad(np.asarray(x, dtype=float), t) @ m.sigma

    if m.rho > 0.0:
        if m0 <= 0.0:
            raise ModelError("need inf(k_lower + h + xi) > 0 when rho > 0")
        T = Transformation(mbs_exp_gauge(m0, M0), 0.0)
        v_range, v_max = T.v_range, T.v_range[1]
        I, Ip = T.psi_inverse, lambda v: T.inverse_derivatives(v)[1]
        grid = np.linspace(0.0, max(v_max, 1e-12), 10_001)
        Iv, Ipv, Ippv = T.inverse_derivatives(grid)
        lambda1 = lambda v: m.rho * Ip(v) / I(v) - 1.0 / m0
        lambda2 = lambda v: -2.0 * m.rho / I(v)
        lam1p_min = (4.0 * m.rho / m0**2) * (Ip(v_max) / (Ip(v_max) + 1.0) ** 2)
        sup_lambda2 = float(np.max(2.0 * m.rho / Iv))
        sup_lambda2_prime = float(np.max(2.0 * m.rho * Ipv / Iv**2)) * 1.05
        # v-derivative envelopes for the three pieces of f, on the grid
        d_inv_IIp = np.abs(-(Ipv**2 + Iv * Ippv) / (Iv * Ipv) ** 2)
        d_inv_Ip = np.abs(-Ippv / Ipv**2)
        d_I_over_Ip = np.abs(1.0 - Iv * Ippv / Ipv**2)
        # the saturation term of f carries the risk-aversion weight: it is
        # the residue of rho |I' s^T Dv - s^T Dh|^2 / (I I') at Dv = 0
        w_sq_sup = m.rho * (sig * b["grad_h_sup"]) ** 2
        lip_f_v = 1.05 * float(
            np.max(
                w_sq_sup * d_inv_IIp
                + b["g_sup"] * d_inv_Ip
                + b["r_max"] * d_I_over_Ip
            )
        )
        lip_f_x = (
            2.0 * m.rho * sig**2 * b["grad_h_sup"] * b["lip_grad_h"]
            / float(np.min(Iv * Ipv))
            + b["g_lip"] / float(np.min(Ipv))
        )
        lip_f = max(lip_f_x, lip_f_v)
        u_scale = 2.0 * M0 / m0 - 1.0
        lip_v0 = (b["u0_lip"] + b["grad_h_sup"]) / 1.0  # min I' = 1 at v = 0
        gauge_kind = "mbs-exp"

        def f_fn(x, t, v):
            wv = m.sigma.T @ m.h.grad(np.asarray(x, dtype=float), t)
            Iv, Ipv, _ = T.inverse_derivatives(v)
            return (
                m.rho * float(wv @ wv) / (Iv * Ipv)
                + float(source_g(m, x, t)) / Ipv
                + float(m.r(t)) * Iv / Ipv
            )

    else:
        if not m.h.is_zero() and m0 <= 1e-12:
            raise PreconditionError(
                "identity straightening with a nonzero cash-flow needs a "
                "positive value floor"
            )
        lambda1 = lambda v: 0.0
        lambda2 = lambda v: 0.0
        lam1p_min = 0.0
        sup_lambda2 = 0.0
        sup_lambda2_prime = 0.0
        lip_f = b["g_lip"] + b["r_max"]
        u_scale = 1.0
        lip_v0 = b["u0_lip"] + b["grad_h_sup"]
        gauge_kind = "identity"
        v_range = (m0, M0)

        def f_fn(x, t, v):
            return float(source_g(m, x, t)) + float(m.r(t)) * v

    if M is None:
        M = max(lip_v0, 1e-6)
    if M <= 0.5 * lip_v0:
        raise PreconditionError(
            f"M = {M!r} must exceed Lip(v0)/2 = {0.5 * lip_v0!r}"
        )
    sup_w = sig * b["grad_h_sup"]
    lip_w = sig * b["lip_grad_h"]
    C = constant_from_bounds(
        b["mu_lip"], sup_lambda2_prime, sup_w, lam1p_min,
        sup_lambda2, sig, lip_w, lip_f, M,
    )
    return RegularityData(
        model=m,
        gauge_kind=gauge_kind,
        lambda1=lambda1,
        lambda2=lambda2,
        w=w_fn,
        f=f_fn,
        M=M,
        C=C,
        v_range=v_range,
        min_lambda1_prime=lam1p_min,
        u_scale_factor=u_scale,
        lip_v0=lip_v0,
        constants={
            "sup_lambda2": sup_lambda2,
            "sup_lambda2_prime": sup_lambda2_prime,
            "sup_w": sup_w,
            "lip_w": lip_w,
            "lip_f": lip_f,
            "m0": pair.m0,
            "M0": pair.M0,
        },
    )


def lipschitz_bound(rd: RegularityData, t: float) -> tuple[float, float]:
    """(v-scale, u-scale) Lipschitz bounds at time t.

    The v-scale bound is 2 M e^{Ct}; the u-scale bound multiplies it by the
    supremum of I' over the working interval (2 M0/m0 - 1 for the
    exponential straightening, 1 for the identity).
    """
    _check_time(rd.model, t)
    v_bound = 2.0 * rd.M * math.exp(rd.C * t)
    return v_bound, rd.u_scale_factor * v_bound
