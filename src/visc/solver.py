"""Explicit monotone finite-difference solver on a truncated box.

The scheme is explicit Euler in time.  One linear stencil serves both the
pricing unknown U and the straightened unknown v: central second differences
for the diffusion, upwind differences for the drift and Lax-Friedrichs
dissipation for the gradient-quadratic terms,

    W_i^{n+1} = W_i + dt [ sum_k (a_kk + theta_k dx_k) / 2 D2_k W
                           + mu_k^+ D+_k W - mu_k^- D-_k W
                           + reaction(x, t, W, Dc W) ].

Each problem supplies only its reaction term.  For U it is

    - rho |sigma^T Dc U|^2 / den - r (U + h) + tau h,

with den = U + h + xi floored at m0/2 (diagnostic flag when the floor binds);
for v it is the gauge-curvature and transformed quadratic terms plus the
zero-order source.  With sigma sigma^T = diag(a), the reaction's slope in the
central gradient is dH/dp_k = a_k c_k(x, t), and the update is nondecreasing
in each stencil value (the discrete comparison property the tests lean on)
when a_k/dx_k + theta_k >= |dH/dp_k| at every node and dt is under the CFL
bound.  The automatic theta is the least that satisfies this on the initial
field with a safety factor; runs record the realised max |dH/dp_k| and report
the smallest margin as the flag monotone_margin.  theta is fixed for a run,
so the CFL bound is checked once per run.  The boundary ring is refreshed by
constant extrapolation from the nearest interior node; the equation itself is
posed on all of R^N, so truncation is ours, and accuracy is audited away from
the reserved padding margin (GridSpec.audited_slice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import BlowUpError, ConfigurationError, ModelError, PreconditionError
from .hamiltonian import CheckReport
from .mbs import MbsModel, RegularityData, barrier_pair, lipschitz_bound, source_g_on
from .transform import Transformation


# ---------------------------------------------------------------------------
# grids and fields


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid over a box, with a reserved boundary margin."""

    box: tuple[tuple[float, float], ...]
    nodes: tuple[int, ...]
    padding: int = 2

    def __post_init__(self):
        if len(self.box) != len(self.nodes):
            raise ConfigurationError("box and nodes must have the same dimension")
        if any(n < 8 for n in self.nodes):
            raise ConfigurationError("need at least 8 nodes per dimension")
        if any(hi <= lo for lo, hi in self.box):
            raise ConfigurationError("box intervals must be nonempty")
        if self.padding < 1:
            raise ConfigurationError("padding must be at least 1")

    @property
    def dim(self) -> int:
        return len(self.nodes)

    @property
    def dx(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / (n - 1) for (lo, hi), n in zip(self.box, self.nodes)
        )

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(lo, hi, n) for (lo, hi), n in zip(self.box, self.nodes)
        ]

    def points(self) -> np.ndarray:
        """Mesh coordinates, shape nodes + (dim,)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(mesh, axis=-1)

    def refined(self) -> "GridSpec":
        return replace(self, nodes=tuple(2 * n - 1 for n in self.nodes))

    def audited_slice(self) -> tuple:
        """Index block excluding the reserved boundary-influence margin.

        The truncation boundary is the artifact's, not the equation's;
        accuracy statements are made on the region the padding protects.
        """
        return tuple(slice(self.padding, n - self.padding) for n in self.nodes)


@dataclass
class GridField:
    """One scalar value per node at one time level."""

    grid: GridSpec
    t: float
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.nodes:
            raise ConfigurationError(
                f"field shape {self.values.shape} does not match grid {self.grid.nodes}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("field values must be finite")


@dataclass(frozen=True)
class SchemeConfig:
    """Artificial-viscosity coefficients, time step and recording cadence."""

    theta: tuple[float, ...]
    dt: float
    record_every: int = 100

    def __post_init__(self):
        if any(t < 0.0 for t in self.theta):
            raise ConfigurationError("dissipation coefficients must be nonnegative")
        if self.dt < 0.0:
            raise ConfigurationError("dt must be nonnegative")
        if self.record_every < 1:
            raise ConfigurationError("record_every must be at least 1")


# ---------------------------------------------------------------------------
# problems


def _interior(values: np.ndarray) -> np.ndarray:
    return values[tuple(slice(1, -1) for _ in range(values.ndim))]


def _shifted(values: np.ndarray, axis: int, step: int) -> np.ndarray:
    sl = [slice(1, -1)] * values.ndim
    sl[axis] = slice(1 + step, values.shape[axis] - 1 + step or None)
    return values[tuple(sl)]


class _MonotoneStencil:
    """The linear monotone stencil both unknowns share: per-axis diffusion,
    upwind drift and Lax-Friedrichs dissipation, plus the central gradient
    handed to the subclass's reaction term."""

    def __init__(self, model: MbsModel, grid: GridSpec):
        if grid.dim != model.dim_state:
            raise ConfigurationError("grid dimension does not match the model")
        W = model.sigma.diffusion()
        if np.max(np.abs(W - np.diag(np.diag(W)))) > 1e-14:
            raise ConfigurationError(
                "monotone stencil requires a diagonal diffusion sigma sigma^T"
            )
        self.model = model
        self.grid = grid
        self.diffusion = np.diag(W)
        self.x_int = grid.points()[tuple(slice(1, -1) for _ in range(grid.dim))]
        self.mu_int = model.mu.value(self.x_int, 0.0)
        b = model.bounds()
        self.mu_sup = b["mu_sup"]
        self.r_sup = b["r_max"]
        self.a_dx = self.diffusion / np.asarray(grid.dx)
        # running max over nodes and steps of |dH/dp_k|, per axis
        self.slope_sup = np.zeros(grid.dim)

    def _record_slope(self, b: np.ndarray) -> None:
        b_max = np.abs(b).reshape(-1, self.grid.dim).max(axis=0)
        np.maximum(self.slope_sup, b_max, out=self.slope_sup)

    def _reaction(self, W: np.ndarray, grad: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def rhs(self, values: np.ndarray, t: float, theta: Sequence[float]) -> np.ndarray:
        dx = self.grid.dx
        W = _interior(values)
        out = np.zeros_like(W)
        grad = np.empty(W.shape + (self.grid.dim,))
        for ax in range(self.grid.dim):
            up = _shifted(values, ax, +1)
            dn = _shifted(values, ax, -1)
            second = (up - 2.0 * W + dn) / dx[ax] ** 2
            out += 0.5 * (self.diffusion[ax] + theta[ax] * dx[ax]) * second
            mu_ax = self.mu_int[..., ax]
            out += np.maximum(mu_ax, 0.0) * (up - W) / dx[ax]
            out -= np.maximum(-mu_ax, 0.0) * (W - dn) / dx[ax]
            grad[..., ax] = (up - dn) / (2.0 * dx[ax])
        return out + self._reaction(W, grad, t)


class PricingProblem(_MonotoneStencil):
    """The pricing equation in the original unknown U; its reaction term is
    -rho |sigma^T Dc U|^2 / den - r (U + h) + tau h."""

    def __init__(self, model: MbsModel, grid: GridSpec):
        super().__init__(model, grid)
        if model.rho > 0.0:
            pair = barrier_pair(model)
            if pair.m0 <= 0.0:
                raise ModelError(
                    "quadratic term needs a positive value floor; "
                    "the positivity condition fails for this model"
                )
            self.den_floor = 0.5 * pair.m0
        else:
            self.den_floor = None
        # h = s(t) phi(x): the profile on the interior nodes, once per problem
        self.h_phi = model.h.value(self.x_int)
        self.flags = {"denominator_clamped": False}

    def initial_values(self) -> np.ndarray:
        return self.model.U0.value(self.grid.points(), 0.0)

    def _reaction(self, U: np.ndarray, grad: np.ndarray, t: float) -> np.ndarray:
        m = self.model
        h_int = m.h.time_factor(t) * self.h_phi
        out = m.tau * h_int - float(m.r(t)) * (U + h_int)
        if m.rho > 0.0:
            sp = grad @ m.sigma.value(t)
            den = U + h_int + float(m.xi(t))
            if np.any(den < self.den_floor):
                self.flags["denominator_clamped"] = True
                den = np.maximum(den, self.den_floor)
            out -= m.rho * np.sum(sp * sp, axis=-1) / den
            # dH/dp_k = -2 rho a_k p_k / den
            self._record_slope((2.0 * m.rho * self.diffusion) * grad / den[..., None])
        return out


class StraightenedProblem(_MonotoneStencil):
    """The straightened unknown v = Psi(U + h + xi).

    The v-equation carries the same diffusion and drift; its reaction term
    holds two gradient-quadratic terms (one from the gauge curvature, one
    from the original quadratic term), which the Lax-Friedrichs dissipation
    dominates, and the zero-order source (r I(v) + g) / I'(v).
    """

    def __init__(self, model: MbsModel, transf: Transformation, grid: GridSpec):
        super().__init__(model, grid)
        self.transf = transf
        self.inv = transf.inverse_interpolant()
        self.v_lo, self.v_hi = transf.v_range
        # h = s(t) phi(x): the spatial parts on the interior nodes, once per problem
        self.dphi_sig = model.h.grad(self.x_int) @ model.sigma.value()
        self.g_at = source_g_on(model, self.x_int)
        self.flags = {"v_range_clamped": False}
        # stable_dt's discount: the source -(r u + g) / I'(v), u = I(v), falls in v at the
        # rate r - (r u + g) z'(u) / 2z(u); its sup over the u-range, nodes and 33 times
        u = np.linspace(*transf.u_range, 257)[:, None]
        q = 0.5 * transf.gauge.z_prime(u) / transf.gauge.z(u)
        ts = np.linspace(0.0, model.T, 33)
        g = np.array([self.g_at(t) for t in ts]).reshape(len(ts), -1)
        rate = model.r(ts) * (1.0 - u * q) - q * np.where(q > 0.0, g.min(axis=1), g.max(axis=1))
        self.r_sup = max(float(rate.max()), 0.0)

    def _gauge_at(self, v: np.ndarray):
        vv = np.clip(v, self.v_lo, self.v_hi)
        if np.any(v < self.v_lo) or np.any(v > self.v_hi):
            self.flags["v_range_clamped"] = True
        u = self.inv(vv)
        return u, np.sqrt(self.transf.gauge.z(u)), 0.5 * self.transf.gauge.z_prime(u)

    def initial_values(self) -> np.ndarray:
        m = self.model
        pts = self.grid.points()
        return self.transf.psi(m.U0.value(pts, 0.0) + m.h.value(pts, 0.0) + float(m.xi(0.0)))

    def _reaction(self, V: np.ndarray, grad: np.ndarray, t: float) -> np.ndarray:
        m = self.model
        sig = m.sigma.value(t)
        u, ip, ipp = self._gauge_at(V)
        sp = grad @ sig
        num = ip[..., None] * sp - m.h.time_factor(t) * self.dphi_sig
        # dH/dp = sigma c, c = (I''/I') sigma^T p - 2 rho num / u
        c = (ipp / ip)[..., None] * sp - (2.0 * m.rho / u)[..., None] * num
        self._record_slope(c @ sig.T)
        return (
            (0.5 * ipp / ip) * np.sum(sp * sp, axis=-1)
            - m.rho * np.sum(num * num, axis=-1) / (u * ip)
            - (float(m.r(t)) * u + self.g_at(t)) / ip
        )


# ---------------------------------------------------------------------------
# scheme configuration


THETA_SAFETY = 2.0
# fraction of the CFL bound stable_dt returns; a scheme file's dt can go lower
CFL_SAFETY = 0.9


def estimate_theta(problem) -> tuple[float, ...]:
    """Per-dimension dissipation certified on the problem's initial field:
    theta_k = max(0, s max|dH/dp_k| - a_k/dx_k), where the safety factor
    s = THETA_SAFETY leaves room for the gradients the run forms later.

    This is zero unless the cell-Peclet condition a_k/dx_k >= |dH/dp_k|
    fails somewhere (a degenerate axis has a_k = 0 and dH/dp_k = 0).  Runs
    re-certify it on every step they take and report the margin.
    """
    problem.slope_sup = np.zeros(problem.grid.dim)
    problem.rhs(problem.initial_values(), 0.0, (0.0,) * problem.grid.dim)
    theta = np.maximum(0.0, THETA_SAFETY * problem.slope_sup - problem.a_dx)
    return tuple(float(v) for v in theta)


def stable_dt(problem, theta: Sequence[float]) -> float:
    """CFL bound including drift and discount contributions: with it the
    diagonal coefficient of every node update is nonnegative."""
    g = problem.grid
    dx = g.dx
    denom = sum(
        problem.diffusion[k] / dx[k] ** 2 + problem.mu_sup / dx[k] + theta[k] / dx[k]
        for k in range(g.dim)
    ) + problem.r_sup
    return CFL_SAFETY / denom if denom > 0.0 else CFL_SAFETY


def auto_config(problem) -> SchemeConfig:
    theta = estimate_theta(problem)
    return SchemeConfig(theta=theta, dt=stable_dt(problem, theta))


def _check_cfl(problem, cfg: SchemeConfig):
    limit = stable_dt(problem, cfg.theta)
    if cfg.dt > limit * (1.0 + 1e-12):
        raise ConfigurationError(
            f"dt = {cfg.dt!r} violates the stability bound {limit!r} "
            "(diffusion + dissipation + drift + discount)"
        )


def _advance(values: np.ndarray, t: float, problem, theta, dt: float) -> np.ndarray:
    """The values one explicit Euler step on: the interior update, then the
    boundary ring copied from its inner neighbours (what np.pad's edge mode
    gives, corners included)."""
    out = np.empty_like(values)
    np.add(_interior(values), dt * problem.rhs(values, t, theta), out=_interior(out))
    for ax in range(out.ndim):
        head = (slice(None),) * ax
        out[head + (0,)] = out[head + (1,)]
        out[head + (-1,)] = out[head + (-2,)]
    return out


def step(field_in: GridField, problem, cfg: SchemeConfig) -> GridField:
    """One explicit Euler step; the update is monotone in each neighbour."""
    if cfg.dt == 0.0:
        return GridField(field_in.grid, field_in.t, field_in.values.copy())
    if field_in.grid != problem.grid:
        raise ConfigurationError("field grid does not match the problem grid")
    _check_cfl(problem, cfg)
    values = _advance(field_in.values, field_in.t, problem, cfg.theta, cfg.dt)
    return GridField(field_in.grid, field_in.t + cfg.dt, values)


# ---------------------------------------------------------------------------
# runs


@dataclass
class SolveResult:
    fields: list[GridField]
    cfg: SchemeConfig
    flags: dict

    def final(self) -> GridField:
        return self.fields[-1]


def _march(problem, start: GridField, cfg: SchemeConfig, t_end: float) -> SolveResult:
    """Step from `start` to t_end, the last step clipped to land on it,
    recording the start, every record_every-th step and the end.

    theta is fixed for the run and every dt_k <= cfg.dt, so one CFL check
    covers every step.  A recorded field with non-finite values raises
    BlowUpError.  The flags report the smallest monotonicity margin
    a_k/dx_k + theta_k - max|dH/dp_k| over axes and steps, never enforced.
    """
    _check_cfl(problem, cfg)
    problem.slope_sup = np.zeros(problem.grid.dim)
    fields = [start]
    values, t = start.values, start.t
    n_steps = int(math.ceil(t_end / cfg.dt - 1e-12))
    for k in range(n_steps):
        dt = min(cfg.dt, t_end - t)
        values = _advance(values, t, problem, cfg.theta, dt)
        t = t + dt
        if (k + 1) % cfg.record_every == 0 or k == n_steps - 1:
            finite = np.isfinite(values)
            if not finite.all():
                node = np.unravel_index(int(np.argmin(finite)), values.shape)
                raise BlowUpError(k + 1, t, tuple(int(i) for i in node))
            fields.append(GridField(problem.grid, t, values))
    flags = dict(problem.flags)
    flags["steps"] = n_steps
    flags["dH_dp_max"] = problem.slope_sup.tolist()
    flags["monotone_margin"] = float(np.min(problem.a_dx + cfg.theta - problem.slope_sup))
    return SolveResult(fields, cfg, flags)


def _sandwich_annotate(model: MbsModel, pair, field_out: GridField):
    tol = 2.0 * max(field_out.grid.dx) * (1.0 + pair.K0)
    t = min(field_out.t, model.T * (1.0 - 1e-12))
    klo, kup = pair.k_lower(t), pair.k_upper(t)
    excess = max(float((klo - field_out.values).max()), float((field_out.values - kup).max()))
    field_out.meta.update(
        k_lower=klo, k_upper=kup, sandwich_tol=tol,
        sandwich_excess=excess, sandwich_ok=bool(excess <= tol),
    )


def solve(
    model: MbsModel,
    grid: GridSpec,
    cfg: SchemeConfig | None = None,
    t_end: float | None = None,
    seed: int = 0,
) -> SolveResult:
    """March the pricing equation from U0 and return the recorded fields.

    Without cfg the scheme is auto_config's: the certified theta and its
    CFL step.  seed is unused; nothing in a run is random.

    Every recorded field is annotated with the barrier sandwich check
    k_lower(t) - tol <= U <= k_upper(t) + tol, tol = 2 dx (1 + K0); a
    violation is flagged, not fatal.
    """
    problem = PricingProblem(model, grid)
    if cfg is None:
        cfg = auto_config(problem)
    if t_end is None:
        t_end = model.T - cfg.dt
    if t_end >= model.T:
        raise ConfigurationError(f"t_end = {t_end!r} must stay below maturity {model.T!r}")
    pair = barrier_pair(model)
    start = GridField(grid, 0.0, problem.initial_values())
    result = _march(problem, start, cfg, t_end)
    for f in result.fields:
        _sandwich_annotate(model, pair, f)
    return result


def solve_transformed(
    model: MbsModel,
    transf: Transformation,
    grid: GridSpec,
    cfg: SchemeConfig | None = None,
    t_end: float | None = None,
    seed: int = 0,
) -> SolveResult:
    """March the straightened equation in v = Psi(u) from Psi(u0); cfg, seed as in solve."""
    problem = StraightenedProblem(model, transf, grid)
    if cfg is None:
        cfg = auto_config(problem)
    if t_end is None:
        t_end = model.T - cfg.dt
    return _march(problem, GridField(grid, 0.0, problem.initial_values()), cfg, t_end)


def map_back(result: SolveResult, transf: Transformation) -> list[GridField]:
    """I(v) for every recorded v-field, giving u-scale fields."""
    inv = transf.inverse_interpolant()
    return [
        GridField(f.grid, f.t, inv(np.clip(f.values, *transf.v_range)))
        for f in result.fields
    ]


# ---------------------------------------------------------------------------
# diagnostics and oracles


def discrete_comparison(run_a: Sequence[GridField], run_b: Sequence[GridField]) -> CheckReport:
    """Max over recorded times and nodes of (a - b)^+; ordering should persist."""
    run_a, run_b = list(run_a), list(run_b)
    if len(run_a) != len(run_b):
        raise ConfigurationError("runs have different numbers of recorded fields")
    worst = 0.0
    worst_sample: dict = {}
    for k, (fa, fb) in enumerate(zip(run_a, run_b)):
        if fa.grid != fb.grid:
            raise ConfigurationError("runs use different grids")
        if abs(fa.t - fb.t) > 1e-10:
            raise ConfigurationError("runs record at different times")
        gap = fa.values - fb.values
        v = float(max(gap.max(), 0.0))
        if v >= worst:
            worst = v
            idx = np.unravel_index(int(np.argmax(gap)), gap.shape)
            worst_sample = {"t": fa.t, "node": [int(i) for i in idx]}
    return CheckReport(
        check="discrete-comparison",
        samples_tested=len(run_a),
        max_violation=worst,
        worst_sample=worst_sample,
        seed=0,  # nothing is sampled
        passed=worst <= 1e-12,
    )


_MC_CHUNK = 4096


def mc_oracle(
    model: MbsModel,
    x: np.ndarray,
    t: float,
    n_paths: int,
    n_steps: int,
    seed: int,
) -> tuple[float, float]:
    """Probabilistic value of the linear (rho = 0) equation at one point.

    Simulates dX_s = mu ds + sigma dW from x (running the coefficients in
    reversed time so non-autonomous data are handled correctly; for the
    autonomous fixtures this is the plain forward expectation) and averages

        e^{-int_0^t r} U0(X_t) + int_0^t e^{-int_0^s r} (tau - r) h(X_s, .) ds.

    Paths run in chunks of _MC_CHUNK, each with its generator derived from
    (seed, chunk index), so enlarging n_paths extends the same stream family;
    reductions run in a fixed order.
    """
    if model.rho != 0.0:
        raise PreconditionError("the probabilistic oracle requires rho = 0")
    if n_paths < 2 or n_steps < 1:
        raise PreconditionError("need n_paths >= 2 and n_steps >= 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = model.dim_state
    R = model.r.antiderivative
    dt = t / n_steps
    sq = math.sqrt(dt)
    has_h = not model.h.is_zero()

    def disc(s: float) -> float:
        # exp(-int_0^s r(t - nu) d nu)
        return math.exp(-(float(R(t)) - float(R(t - s))))

    total = 0.0
    total_sq = 0.0
    done = 0
    c = 0
    while done < n_paths:
        k = min(_MC_CHUNK, n_paths - done)
        rng = np.random.default_rng([seed, c])
        X = np.tile(x, (k, 1))
        acc = np.zeros(k)
        for j in range(n_steps + 1):
            s = j * dt
            pde_t = max(t - s, 0.0)
            if has_h:
                w = 0.5 * dt if j in (0, n_steps) else dt
                acc += w * disc(s) * (model.tau - float(model.r(pde_t))) * model.h.value(
                    X, pde_t
                )
            if j < n_steps:
                Z = rng.standard_normal((k, model.dim_noise))
                sig = model.sigma.value(pde_t)
                X = X + model.mu.value(X, pde_t) * dt + (Z @ sig.T) * sq
        vals = acc + disc(t) * model.U0.value(X, 0.0)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += k
        c += 1
    mean = total / n_paths
    var = max(total_sq / n_paths - mean * mean, 0.0) * n_paths / (n_paths - 1)
    return mean, math.sqrt(var / n_paths)


def lipschitz_audit(run: Sequence[GridField], rd: RegularityData) -> CheckReport:
    """Adjacent-node difference quotients of u = U + h + xi against the
    mapped growth bound, with slack 2 dx * bound for discretization."""
    model = rd.model
    worst = -math.inf
    worst_sample: dict = {}
    n_fields = 0
    for field_k in run:
        n_fields += 1
        g = field_k.grid
        t = min(field_k.t, model.T * (1.0 - 1e-12))
        pts = g.points()
        u = field_k.values + model.h.value(pts, t) + float(model.xi(t))
        _, bound = lipschitz_bound(rd, t)
        for ax in range(g.dim):
            q = np.abs(np.diff(u, axis=ax)) / g.dx[ax]
            slack = 2.0 * g.dx[ax] * bound
            excess = float(q.max()) - (bound + slack)
            if excess > worst:
                worst = excess
                worst_sample = {"t": field_k.t, "axis": ax, "quotient": float(q.max()),
                                "bound": bound, "slack": slack}
    return CheckReport(
        check="lipschitz-audit",
        samples_tested=n_fields,
        max_violation=worst,
        worst_sample=worst_sample,
        seed=0,  # nothing is sampled
        passed=worst <= 0.0,
    )


def refinement_study(
    model: MbsModel,
    grids: Sequence[GridSpec],
    t_end: float,
) -> list[dict]:
    """Successive sup-norm differences at matching nodes and the empirical
    order log2 of their ratios; grids must each refine the previous by 2x."""
    grids = list(grids)
    if len(grids) < 3:
        raise PreconditionError("need at least 3 grids")
    for a, b in zip(grids, grids[1:]):
        if a.box != b.box or tuple(2 * n - 1 for n in a.nodes) != b.nodes:
            raise ConfigurationError(
                f"grids are not nested 2x refinements: {a.nodes} -> {b.nodes}"
            )
    finals = [solve(model, g, t_end=t_end).final().values for g in grids]
    diffs = [
        float(np.abs(coarse - fine[tuple(slice(None, None, 2) for _ in fine.shape)]).max())
        for coarse, fine in zip(finals, finals[1:])
    ]
    return [
        {
            "grid": "x".join(str(n) for n in g.nodes),
            "dx": max(g.dx),
            "diff_to_next": diffs[k] if k < len(diffs) else None,
            "order": (
                math.log2(diffs[k - 1] / diffs[k])
                if 1 <= k < len(diffs) and diffs[k] > 0.0
                else None
            ),
        }
        for k, g in enumerate(grids)
    ]
