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
the smallest margin as the flag monotone_margin.  The CFL bound (stable_dt)
is read from the diagonal c_0 = -sum_k (c_up_k + c_dn_k) that the run's
stencil folds: dt <= CFL_SAFETY / (-min c_0 + r_sup) keeps every node's own
coefficient 1 + dt (c_0 - r) nonnegative.  theta is fixed for a run, so the
bound is checked once per run.  The boundary ring is refreshed by
constant extrapolation from the nearest interior node; the equation itself is
posed on all of R^N, so truncation is ours, and accuracy is audited away from
the reserved padding margin (GridSpec.audited_slice).

A step is one fused update of the interior, W <- W + dt F(W), with dt F(W)
formed by one kernel from coefficients that already carry dt: per axis
dt c_up_k and dt c_dn_k, the diagonal dt (c_0 - r) and the problem's
dt-scaled reaction constants.  The kernel hands the reaction the raw
differences g_k = W_up - W_dn, and the factor 1/2dx_k sits in the reaction's
constants too.  A problem holds only what depends on its model and grid;
a run (_Run) owns everything the run changes: the coefficients folded for
its theta, the buffers their dt-scaled copies live in and the key they were
scaled for, the views of the field buffer every step reads and writes, its
node-wise record of |dH/dp_k| and its clamp flags.  The scaled copies and
the time-only arrays (functions of r(t), s(t) and xi(t) on the nodes) are
rescaled in place when dt or those factors differ from the last step's:
once per run for a model constant in time, and once more for a clipped
last step.  The record is reduced into the run's max once, at its end.  A
march binds one run; rhs binds one per call and is the kernel at dt = 1.
"""

from __future__ import annotations

import math
import os
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
        if self.padding < 1 or any(2 * self.padding >= n for n in self.nodes):
            raise ConfigurationError(
                f"field 'padding': {self.padding} must be at least 1 and under half the "
                f"nodes of every axis {self.nodes}, so that a node is audited"
            )

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
    """Artificial-viscosity coefficients, time step and recording cadence.

    The scheme's own rules are checked here, once: every theta_k >= 0 and
    dt > 0 (a zero dt never reaches t_end; NaN fails both).  The CFL bound depends on the
    problem, so each run checks it."""

    theta: tuple[float, ...]
    dt: float
    record_every: int = 100

    def __post_init__(self):
        if not all(t >= 0.0 for t in self.theta):
            raise ConfigurationError(f"field 'theta': {self.theta!r} has a negative entry")
        if not self.dt > 0.0:
            raise ConfigurationError(f"field 'dt': {self.dt!r} cannot march; it must be positive")
        if self.record_every < 1:
            raise ConfigurationError(f"field 'record_every': {self.record_every} is below 1")


# ---------------------------------------------------------------------------
# problems


class _MonotoneStencil:
    """The linear monotone stencil both unknowns share: per-axis diffusion,
    upwind drift and Lax-Friedrichs dissipation, plus the raw differences
    g_k = W_up - W_dn handed to the subclass's reaction term.

    A problem holds only what depends on its model and grid, each part
    computed as rarely as its inputs change.  Once per problem: the interior
    nodes, mu on them and every scratch buffer.  Once per theta, _fold_for
    folds the coefficients c_up_k, c_dn_k and c_0 (they do not depend on t,
    as mu has no time argument); stable_dt reads its CFL bound from that
    c_0.  When (dt, r(t), s(t), xi(t)) differs from the last call's,
    _time_arrays has the subclass's _rebuild(t, dt, r, s, xi) refill its
    dt-scaled time-only arrays and constants and return the rate q the
    diagonal carries (r for U, 0 for v).
    Everything a run changes lives on its _Run, which the reaction is
    handed: it reads the run's interior view W and writes the run's slope
    record and clamp flags (flag_names)."""

    # whether the reaction reads the differences; the kernel skips them if not
    _reads_gradient = True
    flag_names: tuple[str, ...] = ()

    def __init__(self, model: MbsModel, grid: GridSpec):
        if grid.dim != model.dim_state:
            raise ConfigurationError("grid dimension does not match the model")
        W = model.sigma @ model.sigma.T
        if np.max(np.abs(W - np.diag(np.diag(W)))) > 1e-14:
            raise ConfigurationError(
                "monotone stencil requires a diagonal diffusion sigma sigma^T"
            )
        self.model = model
        self.grid = grid
        self.diffusion = np.diag(W)
        self.x_int = grid.points()[(slice(1, -1),) * grid.dim]
        self.mu_int = model.mu.value(self.x_int)
        self.r_sup = model.bounds()["r_max"]
        self.a_dx = self.diffusion / np.asarray(grid.dx)
        # |dH/dp_k| is a run's node-wise slope record times _slope_scale
        self._slope_scale = 1.0
        shape = self.x_int.shape[:-1]
        self._rate, self._tmp = np.empty(shape), np.empty(shape)
        # stored axis by axis so grad[..., k] is contiguous
        self._grad = np.moveaxis(np.zeros((grid.dim,) + shape), 0, -1)
        self._built = (None, None)
        self._folded = (None, None)

    def _time_arrays(self, t: float, dt: float) -> tuple:
        """(key, q) for key = (dt, r(t), s(t), xi(t)) and the diagonal's rate
        q: _rebuild refills the time-only arrays for key unless they hold it
        already, so runs that share the problem each read their own step's
        arrays."""
        m = self.model
        key = (dt, m.r(t), m.h.time_factor(t), m.xi(t))
        if key != self._built[0]:
            self._built = (key, self._rebuild(t, *key))
        return self._built

    def _fold(self, theta: Sequence[float]) -> tuple:
        """(c_up_0, ..., c_dn_0, ..., c_0): c_up_k = (a_k + theta_k dx_k) / 2dx_k^2
        + mu_k^+ / dx_k, c_dn_k the same with mu_k^-, c_0 = -sum_k (c_up_k + c_dn_k)."""
        c_up, c_dn = [], []
        for k, dx in enumerate(self.grid.dx):
            diff = 0.5 * (self.diffusion[k] + theta[k] * dx) / dx**2
            c_up.append(diff + np.maximum(self.mu_int[..., k], 0.0) / dx)
            c_dn.append(diff + np.maximum(-self.mu_int[..., k], 0.0) / dx)
        return (*c_up, *c_dn, -(sum(c_up) + sum(c_dn)))

    def _fold_for(self, theta: Sequence[float]) -> tuple:
        """_fold(theta), kept for the last theta folded, so that a run's CFL
        bound and its binding read one fold (neither writes to it)."""
        if self._folded[0] != tuple(theta):
            self._folded = (tuple(theta), self._fold(theta))
        return self._folded[1]

    def _reaction(self, run: _Run, grad: np.ndarray, t: float) -> np.ndarray:
        """dt times the reaction term at run.W, from the raw differences grad."""
        raise NotImplementedError

    def rhs(self, values: np.ndarray, t: float, theta: Sequence[float]) -> np.ndarray:
        """The right-hand side on the interior nodes, in a fresh array: the
        step's kernel at dt = 1."""
        return _Run(self, values, theta).increment_into(t, 1.0, np.empty(self._rate.shape))


class _Run:
    """One run of a problem: a field buffer bound to the stencil, and
    everything the run changes.

    Binding takes the fold for the run's theta, allocates the buffers of its
    dt-scaled copies, and binds the buffer values the run updates in place:
    its interior view W, per axis the shifted views, scaled coefficients and
    difference slot (none when the reaction reads no gradient), and per axis
    the (edges, inners) view pair of the boundary ring's two ends.  When the
    key (dt, r(t), s(t), xi(t)) differs from the one its copies were scaled
    for, increment_into writes dt c_up_k, dt c_dn_k and the diagonal
    dt (c_0 - q) into them.  Per step, increment_into writes dt F(W), advance
    adds it to W, and the reaction keeps in slope the node-wise running max
    of its slope in the gradient and sets the clamp flags.  slope_max
    reduces that record once; rounding is monotone, max fl(c x) =
    fl(c max x), so the result equals a reduction per step.  Runs of one
    problem share its scratch buffers and no state, so they can be stepped
    in any order."""

    def __init__(self, problem: _MonotoneStencil, values: np.ndarray, theta: Sequence[float]):
        dim = problem.grid.dim
        self.problem = problem
        self.fold = problem._fold_for(theta)
        self.scaled = tuple(np.empty(problem._rate.shape) for _ in self.fold)
        self.key = None
        inner = (slice(1, -1),) * dim
        axes, ring = [], []
        for k, n in enumerate(problem.grid.nodes):
            up, dn = list(inner), list(inner)
            up[k], dn[k] = slice(2, None), slice(None, -2)
            axes.append((values[tuple(up)], values[tuple(dn)], self.scaled[k], self.scaled[dim + k],
                         problem._grad[..., k] if problem._reads_gradient else None))
            # both ends of axis k at once: nodes 0 and n - 1 from nodes 1 and n - 2
            head = (slice(None),) * k
            ring.append((values[head + (slice(0, None, n - 1),)],
                         values[head + (slice(1, n - 1, n - 3),)]))
        self.W, self.axes, self.ring = values[inner], tuple(axes), tuple(ring)
        # stored axis by axis so slope[..., k] is contiguous
        self.slope = np.moveaxis(np.zeros((dim,) + problem._rate.shape), 0, -1)
        self.flags = dict.fromkeys(problem.flag_names, False)

    def increment_into(self, t: float, dt: float, out: np.ndarray) -> np.ndarray:
        """dt F(W) on the interior nodes of the bound field, written into out."""
        p = self.problem
        key, q = p._time_arrays(t, dt)
        if key != self.key:
            self.key = key
            *coefs, c_0 = self.fold
            *dt_coefs, dt_diag = self.scaled
            for c, dt_c in zip(coefs, dt_coefs):
                np.multiply(dt, c, out=dt_c)
            np.multiply(dt, np.subtract(c_0, q, out=dt_diag), out=dt_diag)
        W, tmp = self.W, p._tmp
        np.multiply(self.scaled[-1], W, out=out)
        for up, dn, c_up, c_dn, g in self.axes:
            out += np.multiply(c_up, up, out=tmp)
            out += np.multiply(c_dn, dn, out=tmp)
            if g is not None:
                np.subtract(up, dn, out=g)
        out += p._reaction(self, p._grad, t)
        return out

    def advance(self, t: float, dt: float) -> None:
        """One explicit Euler step of the bound field, in place: the interior
        update (the whole increment is formed first), then the boundary ring
        copied from its inner neighbours (what np.pad's edge mode gives,
        corners included)."""
        np.add(self.W, self.increment_into(t, dt, self.problem._rate), out=self.W)
        for edge, inner in self.ring:
            edge[...] = inner

    def slope_max(self) -> np.ndarray:
        """Per axis, the max over nodes and steps of |dH/dp_k|."""
        p = self.problem
        return p._slope_scale * self.slope.max(axis=tuple(range(p.grid.dim)))


class PricingProblem(_MonotoneStencil):
    """The pricing equation in the original unknown U; its reaction term is
    -rho |sigma^T Dc U|^2 / den - r (U + h) + tau h, of which -r U sits in
    the diagonal and (tau - r) h is the source."""

    flag_names = ("denominator_clamped",)

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
        # with rho = 0 nothing reads the gradient, so the kernel forms none
        self._reads_gradient = model.rho > 0.0
        # h = s(t) phi(x): the profile on the interior nodes, once per problem
        self.h_phi = model.h.value(self.x_int)
        # with p_k = g_k / 2dx_k, dH/dp_k = -2 rho a_k p_k / den = -(rho a_k / dx_k) g_k / den
        # and rho a_k p_k^2 / den = (rho a_k / 4dx_k^2) g_k^2 / den: the reaction
        # records |g_k| / den, and its quadratic factors are dt times the latter
        self._slope_scale = model.rho * self.a_dx
        self._quad = [model.rho * a / (4.0 * dx**2) for a, dx in zip(self.diffusion, grid.dx)]
        self._den, self._abs, self._react, self._source, self._offset = (
            np.empty(self._rate.shape) for _ in range(5))

    def initial_values(self) -> np.ndarray:
        return self.model.U0.value(self.grid.points())

    def _rebuild(self, t, dt, r, s, xi):
        """Source dt (tau - r) h, offset h + xi of den, h = s phi, and the
        quadratic factors dt rho a_k / 4dx_k^2; the diagonal carries r."""
        np.multiply(s, self.h_phi, out=self._offset)
        np.multiply(dt * (self.model.tau - r), self._offset, out=self._source)
        self._offset += xi
        self._quad_dt = [dt * k for k in self._quad]
        return r

    def _reaction(self, run: _Run, grad: np.ndarray, t: float) -> np.ndarray:
        if self.model.rho == 0.0:
            return self._source
        den, out, q = self._den, self._react, self._tmp
        np.add(run.W, self._offset, out=den)
        if np.minimum.reduce(den, axis=None) < self.den_floor:
            run.flags["denominator_clamped"] = True
            np.maximum(den, self.den_floor, out=den)
        # dt rho |sigma^T p|^2 / den = sum_k K_k g_k q_k, q_k = g_k / den
        for ax, K in enumerate(self._quad_dt):
            g, slope = grad[..., ax], run.slope[..., ax]
            np.divide(g, den, out=q)
            np.maximum(slope, np.abs(q, out=self._abs), out=slope)
            q *= g
            q *= K
            np.subtract(out if ax else self._source, q, out=out)
        return out


class StraightenedProblem(_MonotoneStencil):
    """The straightened unknown v = Psi(U + h + xi).

    The v-equation carries the same diffusion and drift; its reaction term
    holds two gradient-quadratic terms (one from the gauge curvature, one
    from the original quadratic term), which the Lax-Friedrichs dissipation
    dominates, and the zero-order source (r I(v) + g) / I'(v).
    """

    flag_names = ("v_range_clamped",)

    def __init__(self, model: MbsModel, transf: Transformation, grid: GridSpec):
        super().__init__(model, grid)
        self.transf = transf
        self.v_lo, self.v_hi = transf.v_range
        # h = s(t) phi(x): the spatial parts on the interior nodes, once per problem
        self.dphi_sig = model.h.grad(self.x_int) @ model.sigma
        self.g_at = source_g_on(model, self.x_int)
        # the kernel's raw differences g_k = 2dx_k p_k: sigma^T p = g^T sig_g, with the
        # rows of sigma scaled by 1/2dx_k
        self._sig_g = model.sigma / (2.0 * np.asarray(grid.dx))[:, None]
        self._react, self._v, self._g_dt = (np.empty(self._rate.shape) for _ in range(3))
        self._sp, self._num, self._c, self._w, self._h_sig = (
            np.empty(self._rate.shape + (model.dim_noise,)) for _ in range(5))
        self._dH = np.empty(self._rate.shape + (grid.dim,))
        # stable_dt's discount: the source -(r u + g) / I'(v), u = I(v), falls in v at the
        # rate r - (r u + g) z'(u) / 2z(u); its sup over the u-range, nodes and 33 times
        u = np.linspace(*transf.u_range, 257)[:, None]
        q = 0.5 * transf.gauge.z_prime(u) / transf.gauge.z(u)
        ts = np.linspace(0.0, model.T, 33)
        g = self.g_at(ts.reshape((-1,) + (1,) * grid.dim)).reshape(len(ts), -1)
        rate = model.r(ts) * (1.0 - u * q) - q * np.where(q > 0.0, g.min(axis=1), g.max(axis=1))
        self.r_sup = max(float(rate.max()), 0.0)

    def _gauge_at(self, run: _Run):
        """(I, I', I'') at run.W clamped onto v_range, flagged on the run if it
        moved; a NaN passes this one range test and is reported by the march
        as a blow-up."""
        v = run.W
        if (np.minimum.reduce(v, axis=None) < self.v_lo
                or np.maximum.reduce(v, axis=None) > self.v_hi):
            run.flags["v_range_clamped"] = True
            v = np.clip(v, self.v_lo, self.v_hi, out=self._v)
        return self.transf._triple(v)

    def initial_values(self) -> np.ndarray:
        m = self.model
        pts = self.grid.points()
        return self.transf.psi(m.U0.value(pts) + m.h.value(pts, 0.0) + float(m.xi(0.0)))

    def _rebuild(self, t, dt, r, s, xi):
        """The source dt g(t), s(t) D phi sigma and the reaction's constants
        times dt; the diagonal carries no rate besides c_0."""
        np.multiply(dt, self.g_at(t), out=self._g_dt)
        np.multiply(s, self.dphi_sig, out=self._h_sig)
        self._half_dt, self._rho_dt, self._r_dt = 0.5 * dt, self.model.rho * dt, r * dt
        return 0.0

    def _reaction(self, run: _Run, grad: np.ndarray, t: float) -> np.ndarray:
        m, sig = self.model, self.model.sigma
        out, tmp = self._react, self._tmp
        u, ip, ipp = self._gauge_at(run)
        ratio = np.divide(ipp, ip, out=ipp)
        sp = np.dot(grad, self._sig_g, out=self._sp)
        num = np.multiply(ip[..., None], sp, out=self._num)
        num -= self._h_sig
        # dH/dp = sigma c, c = (I''/I') sigma^T p - 2 rho num / u
        c = np.multiply(ratio[..., None], sp, out=self._c)
        c -= np.multiply(np.divide(2.0 * m.rho, u, out=tmp)[..., None], num, out=self._w)
        dH = np.dot(c, sig.T, out=self._dH)
        np.maximum(run.slope, np.abs(dH, out=dH), out=run.slope)
        # dt [(I''/2I') |sigma^T p|^2 - rho |num|^2 / (u I') - (r u + g) / I']
        np.multiply(np.multiply(self._half_dt, ratio, out=ratio),
                    np.sum(np.square(sp, out=sp), axis=-1, out=out), out=out)
        np.multiply(u, ip, out=tmp)
        rho_num = np.sum(np.square(num, out=num), axis=-1, out=ratio)
        out -= np.divide(np.multiply(self._rho_dt, rho_num, out=rho_num), tmp, out=tmp)
        np.add(np.multiply(self._r_dt, u, out=u), self._g_dt, out=u)
        out -= np.divide(u, ip, out=u)
        return out


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
    run = _Run(problem, problem.initial_values(), (0.0,) * problem.grid.dim)
    run.increment_into(0.0, 1.0, problem._rate)
    theta = np.maximum(0.0, THETA_SAFETY * run.slope_max() - problem.a_dx)
    return tuple(float(v) for v in theta)


def stable_dt(problem, theta: Sequence[float]) -> float:
    """CFL_SAFETY / (-min c_0 + r_sup), c_0 being the interior diagonal that
    the stencil folds for theta: with this dt every node update's diagonal
    coefficient 1 + dt (c_0 - r) is nonnegative, and the bound reads the
    coefficients the kernel steps with.  Every run reaches it first, so it
    refuses a theta without one entry per axis before folding it."""
    dim = problem.grid.dim
    if len(theta) != dim:
        raise ConfigurationError(
            f"field 'theta': {len(theta)} entries for a grid of dimension {dim}"
        )
    denom = -float(np.min(problem._fold_for(theta)[-1])) + problem.r_sup
    return float(CFL_SAFETY / denom) if denom > 0.0 else CFL_SAFETY


def auto_config(*problems) -> SchemeConfig:
    """The scheme problems share: per axis the largest estimate_theta and,
    for that theta, the smallest stable_dt.  Runs on one grid compare node
    by node only under one dt and one theta; for one problem this is its
    certified theta and its CFL step."""
    theta = tuple(map(max, zip(*map(estimate_theta, problems))))
    return SchemeConfig(theta=theta, dt=min(stable_dt(p, theta) for p in problems))


def _check_cfl(problem, cfg: SchemeConfig):
    limit = stable_dt(problem, cfg.theta)
    if cfg.dt > limit * (1.0 + 1e-12):
        raise ConfigurationError(
            f"dt = {cfg.dt!r} violates the stability bound {limit!r} "
            "(diffusion + dissipation + drift + discount)"
        )


def _check_finite(values: np.ndarray, step_no: int, t: float) -> None:
    """Raise BlowUpError naming the first non-finite node of values."""
    finite = np.isfinite(values)
    if not finite.all():
        node = np.unravel_index(int(np.argmin(finite)), values.shape)
        raise BlowUpError(step_no, float(t), tuple(int(i) for i in node))


# ---------------------------------------------------------------------------
# runs


@dataclass
class SolveResult:
    fields: list[GridField]
    cfg: SchemeConfig
    flags: dict

    def final(self) -> GridField:
        return self.fields[-1]


def _march(problem, values: np.ndarray, cfg: SchemeConfig, t_end: float) -> SolveResult:
    """Step the field values from t = 0 to t_end, the last step clipped to
    land on it, recording the start, every record_every-th step and the end.

    theta is fixed for the run and every dt_k <= cfg.dt, so one CFL check
    covers every step.  The start is recorded as given and the march steps a
    copy of it.  A recorded field with non-finite values raises BlowUpError.
    The flags are the run's clamp flags, and the smallest monotonicity
    margin a_k/dx_k + theta_k - max|dH/dp_k| over axes and steps, never
    enforced.
    """
    _check_cfl(problem, cfg)
    fields = [GridField(problem.grid, 0.0, values)]
    values, t = values.copy(), 0.0
    run = _Run(problem, values, cfg.theta)
    n_steps = int(math.ceil(t_end / cfg.dt - 1e-12))
    for k in range(n_steps):
        dt = min(cfg.dt, t_end - t)
        run.advance(t, dt)
        t = t + dt
        if (k + 1) % cfg.record_every == 0 or k == n_steps - 1:
            _check_finite(values, k + 1, t)
            fields.append(GridField(problem.grid, t, values.copy()))
    slope = run.slope_max()
    flags = dict(run.flags)
    flags["steps"] = n_steps
    flags["dH_dp_max"] = slope.tolist()
    flags["monotone_margin"] = float(np.min(problem.a_dx + cfg.theta - slope))
    return SolveResult(fields, cfg, flags)


def _run(problem, cfg: SchemeConfig | None, t_end: float | None) -> SolveResult:
    """The march of solve and solve_transformed from the problem's initial
    field at t = 0: auto_config's scheme without cfg, and t_end one step short
    of maturity without one; a t_end outside [0, T) is refused."""
    T = problem.model.T
    if cfg is None:
        cfg = auto_config(problem)
    if t_end is None:
        t_end = T - cfg.dt
    if not 0.0 <= t_end < T:
        raise ConfigurationError(f"t_end = {t_end!r} must lie in [0, maturity {T!r})")
    return _march(problem, problem.initial_values(), cfg, t_end)


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
    return solve_problem(PricingProblem(model, grid), cfg, t_end)


def solve_problem(
    problem: PricingProblem, cfg: SchemeConfig | None = None, t_end: float | None = None
) -> SolveResult:
    """solve on a built problem, for a caller that has already sized its
    scheme on it."""
    result = _run(problem, cfg, t_end)
    pair = barrier_pair(problem.model)
    for f in result.fields:
        _sandwich_annotate(problem.model, pair, f)
    return result


def solve_transformed(
    model: MbsModel,
    transf: Transformation,
    grid: GridSpec,
    cfg: SchemeConfig | None = None,
    t_end: float | None = None,
    seed: int = 0,
) -> SolveResult:
    """March the straightened equation in v = Psi(u) from Psi(u0); cfg, t_end
    and seed as in solve."""
    return _run(StraightenedProblem(model, transf, grid), cfg, t_end)


def map_back(result: SolveResult, transf: Transformation) -> list[GridField]:
    """I(v) for every recorded v-field, v clipped onto v_range: u-scale fields."""
    return [
        GridField(f.grid, f.t, transf._triple(np.clip(f.values, *transf.v_range))[0])
        for f in result.fields
    ]


# ---------------------------------------------------------------------------
# diagnostics and oracles


def discrete_comparison(run_a: Sequence[GridField], run_b: Sequence[GridField]) -> CheckReport:
    """Max over recorded times and nodes of (a - b)^+; ordering should persist.
    worst_sample is the first recorded field and node that reach the max, so
    a fully ordered pair reports the first recorded time."""
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
        if v > worst or not worst_sample:
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
_MC_BLOCK = 8  # steps whose normals one draw fills


def mc_oracle(
    model: MbsModel,
    x: np.ndarray,
    t: float,
    n_paths: int,
    n_steps: int,
    seed: int,
) -> tuple[float, float]:
    """Probabilistic value of the linear (rho = 0) equation at one point.

    Simulates dX_s = mu ds + sigma dW from x (mu and sigma have no time
    argument; only r and h depend on t, and they run in reversed time, PDE
    time t - s at path time s) and averages

        e^{-int_0^t r} U0(X_t) + int_0^t e^{-int_0^s r} (tau - r) h(X_s, .) ds.

    Paths run in chunks of _MC_CHUNK, each with its generator derived from
    (seed, chunk index), so enlarging n_paths extends the same stream family.
    The chunks run on a thread pool over the cores this process may use, and
    their sums are added in chunk order, so the result does not depend on
    how many cores there are.  A chunk draws the normals of _MC_BLOCK steps
    in one call into a buffer it owns; the generator fills it in order, so
    the stream is that of one draw per step.  Its paths step in place,
    X <- (X + mu dt) + sigma dW, and a drift of Lipschitz constant 0 is
    constant, so mu(x) dt is evaluated once per call.

    With h = 0 and such a drift nothing reads X_s for s < t, and one step,
    X_t = x + mu t + sigma sqrt(t) Z, is exact in law, so the paths take
    that one step whatever n_steps says: the result equals the n_steps = 1
    call bit for bit.  Otherwise n_steps is the resolution of the Euler
    path of a state-dependent drift and of the trapezoid source integral.
    """
    from concurrent.futures import ThreadPoolExecutor

    if model.rho != 0.0:
        raise PreconditionError("the probabilistic oracle requires rho = 0")
    if n_paths < 2 or n_steps < 1:
        raise PreconditionError("need n_paths >= 2 and n_steps >= 1")
    if not 0.0 <= t < model.T:
        raise ConfigurationError(f"t = {t!r} must lie in [0, maturity {model.T!r})")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (model.dim_state,):
        raise ConfigurationError(f"x has shape {x.shape}, not (dim_state = {model.dim_state},)")
    R = model.r.antiderivative
    if model.h.is_zero() and model.mu.lip == 0.0:
        # nothing reads X_s for s < t, and a constant-coefficient step is exact in law
        n_steps = 1
    dt = t / n_steps
    sq = math.sqrt(dt)
    sig_T = model.sigma.T
    pde_ts = [max(t - j * dt, 0.0) for j in range(n_steps + 1)]
    drift = model.mu.value(x[None, :]) * dt if model.mu.lip == 0.0 else None

    def disc(s: float) -> float:
        # exp(-int_0^s r(t - nu) d nu)
        return math.exp(-(float(R(t)) - float(R(t - s))))

    # per step: trapezoid weight * discount * (tau - r), the same for every path
    src = None
    if not model.h.is_zero():
        src = [(0.5 * dt if j in (0, n_steps) else dt) * disc(j * dt)
               * (model.tau - float(model.r(pde_ts[j]))) for j in range(n_steps + 1)]

    def chunk(c: int) -> tuple[float, float]:
        k = min(_MC_CHUNK, n_paths - c * _MC_CHUNK)
        rng = np.random.default_rng([seed, c])
        X = np.tile(x, (k, 1))
        acc = np.zeros(k)
        Zb = np.empty((_MC_BLOCK, k, model.dim_noise))
        dW = np.empty_like(X)
        for j, pde_t in enumerate(pde_ts):
            if src is not None:
                acc += src[j] * model.h.value(X, pde_t)
            if j == n_steps:
                break
            if j % _MC_BLOCK == 0:
                rng.standard_normal(out=Zb[:n_steps - j])
            np.dot(Zb[j % _MC_BLOCK], sig_T, out=dW)
            dW *= sq
            X += model.mu.value(X) * dt if drift is None else drift
            X += dW
        vals = acc + disc(t) * model.U0.value(X)
        return float(vals.sum()), float((vals * vals).sum())

    n_chunks = -(-n_paths // _MC_CHUNK)
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    total = 0.0
    total_sq = 0.0
    with ThreadPoolExecutor(max_workers=min(cores, n_chunks)) as pool:
        for s, s_sq in pool.map(chunk, range(n_chunks)):
            total += s
            total_sq += s_sq
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
