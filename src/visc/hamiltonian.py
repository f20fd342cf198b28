"""Evaluatable Hamiltonians, gauge transforms and sampled hypothesis checks.

A HamiltonianSpec wraps a function F(x, t, u, p, X) together with its state
dimension and the open u-interval (a, b) it is defined around (with margin
eps0).  fn is pointwise by default: it takes one sample, x and p of shape
(N,), scalar t and u, X of shape (N, N), and returns a float.  A spec
declared batched has an fn that also broadcasts over leading axes: x
(..., N), t (...), u (...), p (..., N) and X (..., N, N) give an array of
shape (...), and a single sample still gives a scalar.  The fixtures,
mbs.dm2_hamiltonian and the gauge transform of a batched spec are batched.

The checkers report the worst violation of a structural inequality:

  * degenerate ellipticity        F(..., X + Y) <= F(..., X) for Y >= 0
  * gradient modulus              |F(..., p, X) - F(..., q, X)| <= nu(|p - q|)
  * doubled-matrix structure      F(x,..,X+Z) - F(y,..,-Y+Z) >= -nu2(..) - nu2R(2 eps3)
  * Osgood compatibility          gauge-scaled difference >= -Gamma(u-v) - nu_hat(..)

Each checker draws all of its samples up front as arrays from one
default_rng(seed), then evaluates F once per side of its inequality: in one
call for a batched spec, in a loop over the drawn rows for a pointwise one.
The sample stream depends only on the seed and the sample count, so a
batched spec and its pointwise form give the same report, and every report
is reproducible bit for bit.

Every checker reports the same way: max_violation is the largest violation
over the samples, worst_sample is the first sample that reaches it (ties go
to the earliest row), as plain floats and nested lists, and the check passes
when max_violation is at most PASS_TOL.  A pass means "no sampled
counterexample above float noise", never a proof.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, PreconditionError, SamplingError
from .osgood import INV_E, OsgoodFunction, xlog
from .transform import GaugeFunction, Transformation

PASS_TOL = 1e-9
# candidates per row of the cp6 rejection sampler before it falls back to zero
_CP6_TRIES = 200
_MODULUS_BINS = 24
# the sampled states x lie in [-_X_BOX, _X_BOX]^N
_X_BOX = 2.0
# relative size below which a difference of two F values is rounding noise
_DIFF_NOISE = 1e-12


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class HamiltonianSpec:
    """F(x, t, u, p, X) with declared u-domain (a, b) and margin eps0 > 0.

    batched declares what fn accepts, as described in the module docstring:
    False (the default) means one sample per call, True means fn also
    broadcasts over leading axes.  It is not a tuning option.
    """

    name: str
    dim_state: int
    u_domain: tuple[float, float]
    eps0: float
    fn: Callable[..., float]
    t_max: float = 1.0
    transformation: Transformation | None = field(
        default=None, compare=False, repr=False
    )
    batched: bool = False

    @property
    def eval_interval(self) -> tuple[float, float]:
        a, b = self.u_domain
        return a - self.eps0, b + self.eps0


@dataclass(frozen=True)
class ModulusFamily:
    """Parametric modulus candidate: L * s (linear) or L * s**gamma (power)."""

    shape: str
    coefficient: float
    exponent: float = 1.0

    def __post_init__(self):
        if self.shape not in ("linear", "power"):
            raise ConfigurationError(f"unknown modulus shape {self.shape!r}")
        if self.coefficient < 0.0:
            raise ConfigurationError("modulus coefficient must be nonnegative")
        if self.shape == "power" and not 0.0 < self.exponent <= 1.0:
            raise ConfigurationError("power modulus exponent must lie in (0, 1]")

    def __call__(self, s):
        """The modulus at s, zero for s <= 0; elementwise on arrays."""
        s = np.maximum(s, 0.0)
        if self.shape == "linear":
            return self.coefficient * s
        return self.coefficient * s**self.exponent

    def to_json_dict(self) -> dict:
        d = {"shape": self.shape, "coefficient": self.coefficient}
        if self.shape == "power":
            d["exponent"] = self.exponent
        return d


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one sampled check; reproducible bit for bit per seed."""

    check: str
    samples_tested: int
    max_violation: float
    worst_sample: dict
    seed: int
    fitted_modulus: ModulusFamily | None = None
    passed: bool = True
    details: dict = field(default_factory=dict, compare=False, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "samples": self.samples_tested,
            "max_violation": self.max_violation,
            "worst_sample": self.worst_sample,
            "fitted_modulus": (
                self.fitted_modulus.to_json_dict() if self.fitted_modulus else None
            ),
            "seed": self.seed,
            "pass": self.passed,
        }


# ---------------------------------------------------------------------------
# evaluation and transformation


def eval_hamiltonian(
    H: HamiltonianSpec,
    x: np.ndarray,
    t: float,
    u: float,
    p: np.ndarray,
    X: np.ndarray,
) -> float:
    """Evaluate F(x, t, u, p, X) at one sample, enforcing the declared domains."""
    lo, hi = H.eval_interval
    if not lo < u < hi:
        raise DomainError(f"{H.name}: u = {u!r} outside ({lo!r}, {hi!r})")
    if not 0.0 <= t < H.t_max:
        raise DomainError(f"{H.name}: t = {t!r} outside [0, {H.t_max!r})")
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.shape != (H.dim_state, H.dim_state) or not np.allclose(X, X.T, atol=1e-12):
        raise DomainError(f"{H.name}: X must be a symmetric {H.dim_state}x{H.dim_state} matrix")
    return float(H.fn(x, t, u, p, X))


def _check_cover(gauge: GaugeFunction, H: HamiltonianSpec) -> None:
    """Refuse a gauge whose domain does not cover H's u-domain."""
    (a, b), (ga, gb) = H.u_domain, gauge.domain
    if ga > a + 1e-12 or gb < b - 1e-12:
        raise ConfigurationError(
            f"gauge {gauge.name} domain {gauge.domain!r} does not cover the "
            f"Hamiltonian u-domain {H.u_domain!r}"
        )


def _evaluate(H: HamiltonianSpec, x, t, u, p, X) -> np.ndarray:
    """F on every row of stacked samples: one call for a batched spec, a
    loop over the rows for a pointwise one."""
    if H.batched:
        return np.asarray(H.fn(x, t, u, p, X), dtype=float)
    return np.array([H.fn(x[k], t[k], u[k], p[k], X[k]) for k in range(len(t))], dtype=float)


def transform_hamiltonian(H: HamiltonianSpec, gauge: GaugeFunction) -> HamiltonianSpec:
    """Gauge-transform F into the Hamiltonian of the straightened unknown.

    With I the inverse of Psi (built from the gauge), the new Hamiltonian is

        Ft(x, t, v, p, X) = F(x, t, I(v), I'(v) p, I'(v) X + I''(v) p (x) p) / I'(v)

    and its evaluation interval is the Psi-image of (a - eps0/2, b + eps0/2).
    It is batched when H is.
    """
    _check_cover(gauge, H)
    gauge_on_H = dataclasses.replace(gauge, domain=H.u_domain)
    T = Transformation(gauge_on_H, margin=H.eps0 / 2.0)
    v_lo, v_hi = T.v_range
    m = 0.02 * (v_hi - v_lo)

    def fn(x, t, v, p, X):
        u, ip, ipp = T.inverse_derivatives(v)
        ip, ipp = np.asarray(ip), np.asarray(ipp)
        p = np.asarray(p, dtype=float)
        pp = p[..., :, None] * p[..., None, :]
        Xt = ip[..., None, None] * np.asarray(X, dtype=float) + ipp[..., None, None] * pp
        return H.fn(x, t, u, ip[..., None] * p, Xt) / ip

    return HamiltonianSpec(
        name=f"{H.name}~{gauge.name}",
        dim_state=H.dim_state,
        u_domain=(v_lo + m, v_hi - m),
        eps0=m,
        fn=fn,
        t_max=H.t_max,
        transformation=T,
        batched=H.batched,
    )


# ---------------------------------------------------------------------------
# fixtures (all batched)


def _trace(X) -> np.ndarray:
    return np.einsum("...ii->...", np.asarray(X, dtype=float))


def _phi_example1(u):
    u = np.asarray(u, dtype=float)
    pos = u > 0.0
    return np.where(pos, (u * u + u) * np.log(np.where(pos, u, 1.0)), 0.0)


def example1() -> HamiltonianSpec:
    """-tr(X) + |p|^2/(u+1) + (u^2+u) log u, N = 1, on u in [-1/2, 1/e].

    Quadratic gradient growth and a non-Lipschitz zero-order part; the
    fixture that motivates the xlog Osgood function.
    """

    def fn(x, t, u, p, X):
        p = np.asarray(p, dtype=float)
        return -_trace(X) + np.sum(p * p, axis=-1) / (u + 1.0) + _phi_example1(u)

    return HamiltonianSpec("example1", 1, (-0.5, INV_E), 0.25, fn, batched=True)


def example2_power(gamma: float = 0.5) -> HamiltonianSpec:
    """-tr(X) + |p|^gamma, N = 1: degenerate elliptic, Hoelder but not Lipschitz in p."""
    if not 0.0 < gamma < 1.0:
        raise ConfigurationError(f"example2-power needs gamma in (0,1), got {gamma!r}")

    def fn(x, t, u, p, X):
        return -_trace(X) + np.linalg.norm(np.asarray(p, dtype=float), axis=-1) ** gamma

    return HamiltonianSpec(f"example2-power:{gamma:g}", 1, (-1.0, 1.0), 0.5, fn, batched=True)


def _g_log(p):
    """sign(p) log(1 + |p|), elementwise."""
    return np.sign(p) * np.log(1.0 + np.abs(p))


def example2_log() -> HamiltonianSpec:
    """-X - g(p) with g(p) = sign(p) log(1 + |p|), one space dimension.

    Lipschitz in p but with p g'(p) - g(p) unbounded both ways; pairs with
    the arctan gauge.
    """

    def fn(x, t, u, p, X):
        X = np.asarray(X, dtype=float)
        return -X[..., 0, 0] - _g_log(np.asarray(p, dtype=float)[..., 0])

    return HamiltonianSpec("example2-log", 1, (-1.0, 1.0), 0.5, fn, batched=True)


# ---------------------------------------------------------------------------
# batched sampling helpers


def sample_rng(n_samples: int, seed: int) -> np.random.Generator:
    """The generator of a sampled check, which needs at least one sample."""
    if n_samples < 1:
        raise PreconditionError("n_samples must be at least 1")
    return np.random.default_rng(seed)


def _sym(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def _spectral_norm(X: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack of symmetric matrices: the largest |eigenvalue|."""
    return np.abs(np.linalg.eigvalsh(X)).max(axis=-1)


def _shrink(norms: np.ndarray, radius: float) -> np.ndarray:
    """Factors that scale items with these norms into the ball of that radius."""
    out = np.ones_like(norms)
    big = norms > radius
    out[big] = radius / norms[big]
    return out


def _clip_vecs(v: np.ndarray, radius: float) -> np.ndarray:
    return v * _shrink(np.linalg.norm(v, axis=-1), radius)[:, None]


def _clip_syms(X: np.ndarray, radius: float) -> np.ndarray:
    return X * _shrink(_spectral_norm(X), radius)[:, None, None]


def _draw_states(rng: np.random.Generator, H: HamiltonianSpec, n: int):
    lo, hi = H.eval_interval
    pad = 1e-9 * (hi - lo)
    x = rng.uniform(-_X_BOX, _X_BOX, (n, H.dim_state))
    t = rng.uniform(0.0, H.t_max * (1.0 - 1e-9), n)
    u = rng.uniform(lo + pad, hi - pad, n)
    return x, t, u


def _report(check: str, viol, seed: int, sample: dict, holds=True, **extra) -> CheckReport:
    """The report of one violation per sample row, by the module docstring's
    rule.  sample names the drawn arrays, holds is a further condition of the
    pass, and extra goes to CheckReport as it is."""
    k = int(np.argmax(viol))
    worst = float(viol[k])
    sample = {name: np.asarray(v[k]).tolist() for name, v in sample.items()}
    return CheckReport(check, len(viol), worst, sample, seed,
                       passed=worst <= PASS_TOL and holds, **extra)


# ---------------------------------------------------------------------------
# checks


def check_degenerate_ellipticity(
    H: HamiltonianSpec, n_samples: int, seed: int
) -> CheckReport:
    """Sampled check of F(..., X + A^T A) <= F(..., X)."""
    rng = sample_rng(n_samples, seed)
    n, N = n_samples, H.dim_state
    x, t, u = _draw_states(rng, H, n)
    p = rng.normal(0.0, 1.0, (n, N))
    X = _sym(rng.normal(0.0, 1.0, (n, N, N)))
    A = rng.normal(0.0, 1.0, (n, N, N))
    Y = np.swapaxes(A, -1, -2) @ A
    viol = _evaluate(H, x, t, u, p, X + Y) - _evaluate(H, x, t, u, p, X)
    return _report("degenerate-ellipticity", viol, seed, dict(x=x, t=t, u=u, p=p, X=X, Y=Y))


def check_gradient_modulus(
    H: HamiltonianSpec, R: float, n_samples: int, seed: int
) -> CheckReport:
    """Bin |F(.., p, X) - F(.., q, X)| by |p - q| and fit a dominating modulus.

    The fitted family is linear unless the log-log envelope slope is clearly
    sublinear, in which case a power family is reported.  max_violation is
    the worst excess of a sampled difference over the fitted modulus, so a
    finite fit always passes; the informative outputs are the coefficient,
    the exponent and details["envelope_decays"]: the binned envelope of the
    shortest nonempty bin stays within twice the fitted modulus, which the
    pass also needs.  A difference no
    larger than _DIFF_NOISE (1 + max(|F(.., p, X)|, |F(.., q, X)|)) counts
    as zero, so an F that does not depend on p fits the zero modulus.
    """
    if R <= 0.0:
        raise PreconditionError("R must be positive")
    rng = sample_rng(n_samples, seed)
    n, N = n_samples, H.dim_state
    x, t, u = _draw_states(rng, H, n)
    X = _clip_syms(_sym(rng.normal(0.0, R, (n, N, N))), R)
    p = _clip_vecs(rng.normal(0.0, R / 2.0, (n, N)), R)
    q = _clip_vecs(rng.normal(0.0, R / 2.0, (n, N)), R)
    fp, fq = _evaluate(H, x, t, u, p, X), _evaluate(H, x, t, u, q, X)
    diffs = np.abs(fp - fq)
    diffs[diffs <= _DIFF_NOISE * (1.0 + np.maximum(np.abs(fp), np.abs(fq)))] = 0.0
    dists = np.linalg.norm(p - q, axis=-1)

    mask, top = dists > 0.0, diffs.max()
    decays = True
    if not np.any(mask) or top == 0.0:
        fitted = ModulusFamily("linear", 0.0)
    else:
        edges = np.linspace(0.0, dists.max(), _MODULUS_BINS + 1)
        idx = np.clip(np.digitize(dists, edges) - 1, 0, _MODULUS_BINS - 1)
        env = np.full(_MODULUS_BINS, np.nan)
        for b in range(_MODULUS_BINS):
            sel = idx == b
            if np.any(sel):
                env[b] = diffs[sel].max()
        centers = 0.5 * (edges[:-1] + edges[1:])
        ok = ~np.isnan(env) & (env > 0.0)
        # linear vs power is decided by scale stability of the sup ratio:
        # for a Lipschitz F the ratio diff/dist is bounded at every scale,
        # for a Hoelder one it blows up as dist -> 0
        ratios = diffs[mask] / dists[mask]
        d = dists[mask]
        med = float(np.median(d))
        small_sel = d <= 0.5 * med
        mid_sel = (d > 0.5 * med) & (d <= med)
        L_small = float(ratios[small_sel].max()) if np.any(small_sel) else 0.0
        L_large = float(ratios[mid_sel].max()) if np.any(mid_sel) else 0.0
        # no finite bin (NaN in each): the linear family's NaN fails the check
        if L_small <= 2.0 * L_large or not np.any(small_sel) or not ok.any():
            fitted = ModulusFamily("linear", float(ratios.max()))
        else:
            # exponent from the smallest-quarter bins, where the shape lives
            quarter = ok & (np.arange(_MODULUS_BINS) <= _MODULUS_BINS // 4)
            fit_on = quarter if quarter.sum() >= 3 else ok
            slope, _ = np.polyfit(np.log(centers[fit_on]), np.log(env[fit_on]), 1)
            expo = float(min(max(slope, 1e-3), 1.0))
            coef = float((diffs[mask] / dists[mask] ** expo).max())
            fitted = ModulusFamily("power", coef, expo)
        # a NaN difference leaves the decay flag at its default
        if not np.isnan(top) and ok.any():
            first = np.flatnonzero(ok)[0]
            decays = bool(env[first] <= 2.0 * fitted(edges[first + 1]) + 1e-12)

    return _report(
        "gradient-modulus", diffs - fitted(dists), seed, dict(x=x, t=t, u=u, p=p, q=q, X=X),
        holds=decays, fitted_modulus=fitted,
        details={"envelope_decays": decays},
    )


def _cp5_accepts(X, Y, eps1, eps2, eps3) -> np.ndarray:
    """Rows where -eps1 I <= diag(X, Y) <= eps2 [[I, -I], [-I, I]] + eps3 I,
    from the smallest eigenvalues of both sides' differences."""
    k, n = X.shape[0], X.shape[-1]
    M = np.zeros((k, 2 * n, 2 * n))
    M[:, :n, :n] = X
    M[:, n:, n:] = Y
    eye = np.eye(n)
    J = np.block([[eye, -eye], [-eye, eye]])
    I2 = np.eye(2 * n)
    lo = np.linalg.eigvalsh(M + eps1[:, None, None] * I2).min(axis=-1)
    hi = np.linalg.eigvalsh(
        eps2[:, None, None] * J + eps3[:, None, None] * I2 - M
    ).min(axis=-1)
    return (lo >= -1e-12) & (hi >= -1e-12)


def _draw_cp5_pairs(rng: np.random.Generator, n_dim: int, eps1, eps2, eps3):
    """One (X, Y) pair inside the coupled matrix constraint per row.

    Row 0 is X = Y = 0 and row 1 the corner X = -Y (zero if it fails the
    constraint).  Every later row takes its first accepted candidate out of
    at most _CP6_TRIES, or zero when none is accepted.  Candidates are drawn
    in rounds, one per row still open, and each round is tested as one
    eigenvalue stack.  Returns X, Y, the candidates tested per row and
    whether the row accepted one.
    """
    n = len(eps1)
    X = np.zeros((n, n_dim, n_dim))
    Y = np.zeros((n, n_dim, n_dim))
    tries = np.zeros(n, dtype=int)
    accepted = np.zeros(n, dtype=bool)
    if n > 1:
        B = _clip_syms(_sym(rng.normal(0.0, eps3[1], (1, n_dim, n_dim))), eps3[1] * 0.999)
        if _cp5_accepts(B, -B, eps1[1:2], eps2[1:2], eps3[1:2])[0]:
            X[1], Y[1] = B[0], -B[0]
    open_rows = np.arange(2, n)
    for _ in range(_CP6_TRIES):
        if open_rows.size == 0:
            break
        e1, e2, e3 = eps1[open_rows], eps2[open_rows], eps3[open_rows]
        # half the candidates are coupled (Y near -X), half independent
        coupled = (rng.uniform(size=open_rows.size) < 0.5)[:, None, None]
        G = _sym(rng.normal(0.0, 1.0, (3, open_rows.size, n_dim, n_dim)))
        B = (0.5 * e2 + 0.25 * e3)[:, None, None] * G[0]
        noise = (0.25 * e3)[:, None, None]
        wide = (0.4 * e3)[:, None, None]
        Xc = np.where(coupled, B + noise * G[1], wide * G[0])
        Yc = np.where(coupled, -B + noise * G[2], wide * G[1])
        ok = _cp5_accepts(Xc, Yc, e1, e2, e3)
        done = open_rows[ok]
        X[done], Y[done], accepted[done] = Xc[ok], Yc[ok], True
        tries[open_rows] += 1
        open_rows = open_rows[~ok]
    return X, Y, tries, accepted


def check_structure_cp6(
    H: HamiltonianSpec,
    R: float,
    candidate: tuple[ModulusFamily, ModulusFamily],
    n_samples: int,
    seed: int,
) -> CheckReport:
    """Sampled check of the doubled-variable matrix inequality.

    Draws (X, Y) pairs inside the coupled matrix constraint by rejection
    (each accepted pair passes smallest-eigenvalue tests of both sides),
    always including the deterministic corner cases X = Y = 0 and X = -Y.
    The reported violation is the most positive value of

        -[F(x,t,u,p,X+Z) - F(y,t,u,p,-Y+Z) + nu2(|x-y|(|p|+1) + eps2 |x-y|^2)
          + nu2R(2 eps3)].

    details["attempts"] counts the candidates tested and details["accepts"]
    the rows that found one.  A row without an accepted candidate raises
    SamplingError once 1000 candidates have been tested with fewer than one
    in a thousand accepted.
    """
    nu2, nu2R = candidate
    rng = sample_rng(n_samples, seed)
    n, N = n_samples, H.dim_state
    eps2 = rng.uniform(0.0, R / 8.0, n)
    eps3 = rng.uniform(1e-6, R / 8.0, n)
    eps1 = rng.uniform(eps3, R / 2.0)
    # deterministic corner: coincident points, zero blocks and zero slacks
    # reduce the inequality to exactly 0
    eps1[0] = eps2[0] = eps3[0] = 0.0
    if np.any(R < np.maximum(eps1, 2.0 * eps2 + eps3) + 2.0 * eps3):
        raise PreconditionError(
            "sampled (eps1, eps2, eps3) violate R >= max(eps1, 2*eps2+eps3) + 2*eps3"
        )
    X, Y, tries, accepted = _draw_cp5_pairs(rng, N, eps1, eps2, eps3)
    tested, took = np.cumsum(tries), np.cumsum(accepted)
    if np.any((tries > 0) & ~accepted & (tested >= 1000) & (took < 1e-3 * tested)):
        raise SamplingError(
            "rejection rate above 99.9% when sampling the matrix "
            "constraint; retry with a smaller block scale"
        )

    x, t, u = _draw_states(rng, H, n)
    u = np.clip(u, *H.u_domain)
    y = x + rng.normal(0.0, 0.3, (n, N))
    y[0] = x[0]
    p = _clip_vecs(rng.normal(0.0, R / 2.0, (n, N)), R)
    Z = _clip_syms(_sym(rng.normal(0.0, R / 4.0, (n, N, N))), R)
    lhs = _evaluate(H, x, t, u, p, X + Z) - _evaluate(H, y, t, u, p, -Y + Z)
    dxy = np.linalg.norm(x - y, axis=-1)
    allow = nu2(dxy * (np.linalg.norm(p, axis=-1) + 1.0) + eps2 * dxy**2) + nu2R(2.0 * eps3)
    return _report(
        "structure-cp6", -(lhs + allow), seed,
        dict(x=x, y=y, t=t, u=u, p=p, X=X, Y=Y, Z=Z, eps1=eps1, eps2=eps2, eps3=eps3),
        details={"attempts": int(tries.sum()), "accepts": int(accepted.sum())},
    )


def check_osgood_structure_cp7(
    H: HamiltonianSpec,
    gauge: GaugeFunction,
    gamma: OsgoodFunction,
    candidate: ModulusFamily,
    R: float,
    n_samples: int,
    seed: int,
) -> CheckReport:
    """Sampled check of the gauge-compatibility inequality.

    Samples a <= v <= u <= b, scaling factors lambda, lambda_hat inside
    [min sqrt(z), max sqrt(z)], curvatures 2*kappa <= z'(u), 2*kappa_hat >=
    z'(v), and evaluates

        F(x,t,u,l q, l X + k q(x)q)/l - F(x,t,v,lh q, lh X + kh q(x)q)/lh
          + Gamma(u - v) + nu_hat((|l^2-z(u)| + |lh^2-z(v)|)(1 + |q| + |X|)).

    The most negative value of that expression is reported as the violation.
    The canonical choice lambda = sqrt(z(u)), kappa = z'(u)/2 at u = v gives
    exactly zero; it is always the first sample.
    """
    _check_cover(gauge, H)
    a, b = H.u_domain
    if gamma.l < (b - a) * (1.0 - 1e-12):
        raise PreconditionError(
            f"Gamma domain [0, {gamma.l!r}] too short for u-v range up to {b - a!r}"
        )
    rng = sample_rng(n_samples, seed)
    n, N = n_samples, H.dim_state
    s_lo = math.sqrt(gauge.lambda0)
    s_hi = math.sqrt(gauge.Lambda0)
    x = rng.uniform(-_X_BOX, _X_BOX, (n, N))
    t = rng.uniform(0.0, H.t_max * (1.0 - 1e-9), n)
    uv = rng.uniform(a, b, (n, 2))
    u, v = uv.max(axis=1), uv.min(axis=1)
    q = _clip_vecs(rng.normal(0.0, R / 2.0, (n, N)), R)
    X = _clip_syms(_sym(rng.normal(0.0, R / 2.0, (n, N, N))), R)
    # each scaling factor and curvature is canonical with probability 1/2
    canonical = rng.uniform(size=(4, n)) < 0.5
    lam_free = rng.uniform(s_lo, s_hi, (2, n))
    kap_free = np.abs(rng.normal(0.0, 0.3, (2, n)))
    # the canonical sample
    u[0] = v[0] = 0.5 * (a + b)
    q[0] = R / (2.0 * math.sqrt(N))
    X[0] = 0.0
    canonical[:, 0] = True
    lam = np.where(canonical[0], np.sqrt(gauge.z(u)), lam_free[0])
    lam_hat = np.where(canonical[1], np.sqrt(gauge.z(v)), lam_free[1])
    kap = 0.5 * gauge.z_prime(u) - np.where(canonical[2], 0.0, kap_free[0])
    kap_hat = 0.5 * gauge.z_prime(v) + np.where(canonical[3], 0.0, kap_free[1])

    qq = q[:, :, None] * q[:, None, :]
    lhs = _evaluate(
        H, x, t, u, lam[:, None] * q, lam[:, None, None] * X + kap[:, None, None] * qq
    ) / lam - _evaluate(
        H, x, t, v, lam_hat[:, None] * q,
        lam_hat[:, None, None] * X + kap_hat[:, None, None] * qq,
    ) / lam_hat
    dev = np.abs(lam**2 - gauge.z(u)) + np.abs(lam_hat**2 - gauge.z(v))
    scale = 1.0 + np.linalg.norm(q, axis=-1) + _spectral_norm(X)
    # Gamma is a scalar callable
    gam = np.array([gamma(h) for h in (u - v).tolist()])
    return _report(
        "osgood-structure-cp7", -(lhs + gam + candidate(dev * scale)), seed,
        dict(x=x, t=t, u=u, v=v, q=q, X=X, lam=lam, lam_hat=lam_hat, kappa=kap,
             kappa_hat=kap_hat),
    )


def example1_cp7_candidates(R: float) -> tuple[OsgoodFunction, ModulusFamily]:
    """Moduli under which the Example-1 fixture satisfies the Osgood check.

    Gamma is the xlog function (its inequality is exactly the one the
    fixture reduces to at the canonical gauge).  The linear nu_hat rate
    dominates the off-canonical terms: 4R from the |p|^2 coefficient spread
    and 2.1 from the zero-order part, both computed from z = (u+1)^2 bounds
    on [-1/2, 1/e].
    """
    return xlog(), ModulusFamily("linear", 4.0 * R + 2.1)
