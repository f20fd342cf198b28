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
zero-order source.  With theta_k at least the sampled sup of |dH/dp_k| and
dt under the CFL bound, every node update is nondecreasing in each stencil
value, giving the discrete comparison property the tests lean on.  theta is
fixed for a run, so the CFL bound is checked once per run.  The boundary
ring is refreshed by constant extrapolation from the nearest interior node;
the equation itself is posed on all of R^N, so truncation is ours, and runs
report when the reserved padding margin is exhausted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ModelError, PreconditionError
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
    cfl_safety: float = 0.9
    padding: int = 2

    def __post_init__(self):
        if len(self.box) != len(self.nodes):
            raise ConfigurationError("box and nodes must have the same dimension")
        if any(n < 8 for n in self.nodes):
            raise ConfigurationError("need at least 8 nodes per dimension")
        if any(hi <= lo for lo, hi in self.box):
            raise ConfigurationError("box intervals must be nonempty")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ConfigurationError("cfl_safety must lie in (0, 1]")
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

    def grad_bound(self) -> float:
        b = self.model.bounds()
        return 2.0 * (b["u0_lip"] + b["grad_h_sup"] + 1.0)

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

    def dH_dp_samples(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """|dH/dp_k| samples of the quadratic term over the barrier-bounded
        state set; zero when rho = 0."""
        m = self.model
        if m.rho == 0.0:
            return np.zeros((n, self.grid.dim))
        sig = m.sigma.value(0.0)
        pair = barrier_pair(m)
        P = self.grad_bound()
        us = rng.uniform(self.den_floor, pair.M0 + pair.m0, n)
        ps = rng.uniform(-P, P, (n, self.grid.dim))
        return np.abs(2.0 * m.rho * ((ps @ sig) @ sig.T) / us[:, None])

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

    def grad_bound(self) -> float:
        return super().grad_bound() / math.sqrt(self.transf.gauge.lambda0)

    def _gauge_at(self, v: np.ndarray):
        vv = np.clip(v, self.v_lo, self.v_hi)
        if np.any(v < self.v_lo) or np.any(v > self.v_hi):
            self.flags["v_range_clamped"] = True
        u = self.inv(vv)
        return u, np.sqrt(self.transf.gauge.z(u)), 0.5 * self.transf.gauge.z_prime(u)

    def dH_dp_samples(self, rng: np.random.Generator, n: int) -> np.ndarray:
        m = self.model
        sig = m.sigma.value(0.0)
        P = self.grad_bound()
        lo = np.array([b[0] for b in self.grid.box])
        hi = np.array([b[1] for b in self.grid.box])
        xs = rng.uniform(lo, hi, (n, self.grid.dim))
        ts = rng.uniform(0.0, m.T, n)
        vs = rng.uniform(self.v_lo, self.v_hi, n)
        ps = rng.uniform(-P, P, (n, self.grid.dim))
        u, ip, ipp = self._gauge_at(vs)
        sp = ps @ sig
        dh = m.h.grad(xs, ts) @ sig
        quad_grad = (
            (2.0 * m.rho * ip)[:, None] * ((ip[:, None] * sp - dh) @ sig.T)
            / (u * ip)[:, None]
        )
        curv_grad = (ipp / ip)[:, None] * (sp @ sig.T)
        return np.abs(quad_grad) + np.abs(curv_grad)

    def _reaction(self, V: np.ndarray, grad: np.ndarray, t: float) -> np.ndarray:
        m = self.model
        sig = m.sigma.value(t)
        u, ip, ipp = self._gauge_at(V)
        sp = grad @ sig
        num = ip[..., None] * sp - m.h.time_factor(t) * self.dphi_sig
        return (
            (0.5 * ipp / ip) * np.sum(sp * sp, axis=-1)
            - m.rho * np.sum(num * num, axis=-1) / (u * ip)
            - (float(m.r(t)) * u + self.g_at(t)) / ip
        )


# ---------------------------------------------------------------------------
# scheme configuration


def estimate_theta(problem, seed: int = 0, n_samples: int = 10_000) -> tuple[float, ...]:
    """Per-dimension dissipation: 1.2x the sampled sup of |dH/dp_k|."""
    rng = np.random.default_rng(seed)
    samples = problem.dH_dp_samples(rng, n_samples)
    return tuple(float(1.2 * samples[:, k].max()) for k in range(problem.grid.dim))


def stable_dt(problem, theta: Sequence[float]) -> float:
    """CFL bound including drift and discount contributions."""
    g = problem.grid
    dx = g.dx
    denom = sum(
        problem.diffusion[k] / dx[k] ** 2 + problem.mu_sup / dx[k] + theta[k] / dx[k]
        for k in range(g.dim)
    ) + problem.r_sup
    if denom <= 0.0:
        return g.cfl_safety
    return g.cfl_safety / denom


def auto_config(problem, seed: int = 0, record_every: int = 100) -> SchemeConfig:
    theta = estimate_theta(problem, seed)
    return SchemeConfig(theta=theta, dt=stable_dt(problem, theta), record_every=record_every)


def _check_cfl(problem, cfg: SchemeConfig):
    g = problem.grid
    dx = g.dx
    spec_bound = (
        g.cfl_safety
        * min(d**2 for d in dx)
        / max(sum(problem.diffusion[k] + cfg.theta[k] * dx[k] for k in range(g.dim)), 1e-300)
    )
    guard = stable_dt(problem, cfg.theta)
    limit = min(spec_bound, guard)
    if cfg.dt > limit * (1.0 + 1e-12):
        raise ConfigurationError(
            f"dt = {cfg.dt!r} violates the stability bound {limit!r} "
            "(diffusion + dissipation + drift + discount)"
        )


def _advance(field_in: GridField, problem, theta: Sequence[float], dt: float) -> GridField:
    interior_new = _interior(field_in.values) + dt * problem.rhs(
        field_in.values, field_in.t, theta
    )
    return GridField(field_in.grid, field_in.t + dt, np.pad(interior_new, 1, mode="edge"))


def step(field_in: GridField, problem, cfg: SchemeConfig) -> GridField:
    """One explicit Euler step; the update is monotone in each neighbour."""
    if cfg.dt == 0.0:
        return GridField(field_in.grid, field_in.t, field_in.values.copy())
    if field_in.grid != problem.grid:
        raise ConfigurationError("field grid does not match the problem grid")
    _check_cfl(problem, cfg)
    return _advance(field_in, problem, cfg.theta, cfg.dt)


# ---------------------------------------------------------------------------
# runs


@dataclass
class SolveResult:
    fields: list[GridField]
    cfg: SchemeConfig
    flags: dict

    def __iter__(self):
        return iter(self.fields)

    def __len__(self):
        return len(self.fields)

    def final(self) -> GridField:
        return self.fields[-1]


def _march(
    problem, current: GridField, cfg: SchemeConfig, t_end: float, on_record=None
) -> SolveResult:
    """Step from `current` to t_end, the last step clipped to land on it,
    recording the start, every record_every-th step and the end.

    theta is fixed for the run and every dt_k <= cfg.dt, so one CFL check
    covers every step.  on_record, if given, is called on each recorded field.
    """
    _check_cfl(problem, cfg)
    fields = [current]
    n_steps = int(math.ceil(t_end / cfg.dt - 1e-12))
    for k in range(n_steps):
        current = _advance(current, problem, cfg.theta, min(cfg.dt, t_end - current.t))
        if (k + 1) % cfg.record_every == 0 or k == n_steps - 1:
            fields.append(current)
    if on_record is not None:
        for f in fields:
            on_record(f)
    flags = dict(problem.flags)
    flags["steps"] = n_steps
    return SolveResult(fields, cfg, flags)


def _sandwich_annotate(model: MbsModel, pair, field_out: GridField):
    tol = 2.0 * max(field_out.grid.dx) * (1.0 + pair.K0)
    t = min(field_out.t, model.T * (1.0 - 1e-12))
    klo = pair.k_lower(t)
    kup = pair.k_upper(t)
    excess = max(
        float((klo - field_out.values).max()), float((field_out.values - kup).max())
    )
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

    Every recorded field is annotated with the barrier sandwich check
    k_lower(t) - tol <= U <= k_upper(t) + tol, tol = 2 dx (1 + K0); a
    violation is flagged, not fatal.  The run also reports when the boundary
    influence (one node per step) has exceeded the reserved padding margin.
    """
    problem = PricingProblem(model, grid)
    if cfg is None:
        cfg = auto_config(problem, seed)
    if t_end is None:
        t_end = model.T - cfg.dt
    if t_end >= model.T:
        raise ConfigurationError(f"t_end = {t_end!r} must stay below maturity {model.T!r}")
    pair = barrier_pair(model)
    start = GridField(grid, 0.0, model.U0.value(grid.points(), 0.0))
    result = _march(
        problem, start, cfg, t_end, lambda f: _sandwich_annotate(model, pair, f)
    )
    n_steps = result.flags["steps"]
    result.flags["boundary_influence_nodes"] = n_steps
    result.flags["padding_margin_exhausted"] = n_steps > grid.padding
    return result


def solve_transformed(
    model: MbsModel,
    transf: Transformation,
    grid: GridSpec,
    cfg: SchemeConfig | None = None,
    t_end: float | None = None,
    seed: int = 0,
) -> SolveResult:
    """March the straightened equation in v = Psi(u) from v0 = Psi(u0)."""
    problem = StraightenedProblem(model, transf, grid)
    if cfg is None:
        cfg = auto_config(problem, seed)
    if t_end is None:
        t_end = model.T - cfg.dt
    pts = grid.points()
    u0 = model.U0.value(pts, 0.0) + model.h.value(pts, 0.0) + float(model.xi(0.0))
    return _march(problem, GridField(grid, 0.0, transf.psi(u0)), cfg, t_end)


def map_back(result: SolveResult, transf: Transformation) -> list[GridField]:
    """I(v) for every recorded v-field, giving u-scale fields."""
    inv = transf.inverse_interpolant()
    return [
        GridField(f.grid, f.t, inv(np.clip(f.values, *transf.v_range)))
        for f in result.fields
    ]


# ---------------------------------------------------------------------------
# diagnostics and oracles


def discrete_comparison(
    run_a: Sequence[GridField], run_b: Sequence[GridField], seed: int = 0
) -> CheckReport:
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
        seed=seed,
        passed=worst <= 1e-12,
    )


def mc_oracle(
    model: MbsModel,
    x: np.ndarray,
    t: float,
    n_paths: int,
    n_steps: int,
    seed: int,
    chunk: int = 4096,
) -> tuple[float, float]:
    """Probabilistic value of the linear (rho = 0) equation at one point.

    Simulates dX_s = mu ds + sigma dW from x (running the coefficients in
    reversed time so non-autonomous data are handled correctly; for the
    autonomous fixtures this is the plain forward expectation) and averages

        e^{-int_0^t r} U0(X_t) + int_0^t e^{-int_0^s r} (tau - r) h(X_s, .) ds.

    Per-chunk generators are derived from (seed, chunk index), so enlarging
    n_paths extends the same stream family; reductions run in a fixed order.
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
        k = min(chunk, n_paths - done)
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


def lipschitz_audit(
    run: Sequence[GridField], rd: RegularityData, seed: int = 0
) -> CheckReport:
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
        seed=seed,
        passed=worst <= 0.0,
    )


def refinement_study(
    model: MbsModel,
    grids: Sequence[GridSpec],
    t_end: float,
    seed: int = 0,
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
    finals = []
    for g in grids:
        res = solve(model, g, t_end=t_end, seed=seed)
        finals.append(res.final())
    rows = []
    diffs = []
    for k in range(len(grids) - 1):
        coarse = finals[k].values
        fine = finals[k + 1].values
        sub = fine[tuple(slice(None, None, 2) for _ in range(grids[k].dim))]
        diffs.append(float(np.abs(coarse - sub).max()))
    for k, g in enumerate(grids):
        row = {
            "grid": "x".join(str(n) for n in g.nodes),
            "dx": max(g.dx),
            "diff_to_next": diffs[k] if k < len(diffs) else None,
            "order": (
                math.log2(diffs[k - 1] / diffs[k])
                if 1 <= k < len(diffs) and diffs[k] > 0.0
                else None
            ),
        }
        rows.append(row)
    return rows
