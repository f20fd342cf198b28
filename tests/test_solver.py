import math

import numpy as np
import pytest

from visc import mbs, solver
from visc.errors import BlowUpError, ConfigurationError, PreconditionError


def constants_model(**kw):
    from test_mbs import constants_model as cm

    return cm(**kw)


def small_grid(n=21, width=4.0):
    return solver.GridSpec(box=((-width, width),), nodes=(n,))


class TestGridSpec:
    def test_padding_must_leave_an_audited_node(self):
        box = ((-1.0, 1.0),)
        assert solver.GridSpec(box=box, nodes=(9,), padding=4).audited_slice() == (slice(4, 5),)
        for padding in (0, 5):
            with pytest.raises(ConfigurationError, match="field 'padding'"):
                solver.GridSpec(box=box, nodes=(9,), padding=padding)
        with pytest.raises(ConfigurationError, match="field 'padding'"):
            solver.GridSpec(box=box * 2, nodes=(33, 9), padding=5)


class TestStepReductions:
    def test_constant_field_is_ode_step(self):
        # U == c, h == 0: the stencils vanish and one step is c -> c - dt r0 c
        r0, c = 0.2, 0.7
        m = constants_model(u0=c, r0=r0, tau=0.3)
        grid = small_grid()
        problem = solver.PricingProblem(m, grid)
        cfg = solver.auto_config(problem)
        f0 = solver.GridField(grid, 0.0, np.full(grid.nodes, c))
        f1 = solver.step(f0, problem, cfg)
        assert np.allclose(f1.values, c - cfg.dt * r0 * c, rtol=0, atol=1e-15)

    def test_constant_field_trajectory_matches_exponential(self):
        r0, c = 0.2, 0.7
        m = constants_model(u0=c, r0=r0, tau=0.3)
        grid = small_grid()
        res = solver.solve(m, grid, t_end=0.5)
        final = res.final()
        # the run must equal the scalar Euler recursion exactly ...
        t, val, dt = 0.0, c, res.cfg.dt
        while t < 0.5 - 1e-12:
            dt_k = min(dt, 0.5 - t)
            val *= 1.0 - r0 * dt_k
            t += dt_k
        assert np.allclose(final.values, val, rtol=0, atol=1e-14)
        # ... and the exponential within the first-order Euler error
        expected = c * math.exp(-r0 * final.t)
        assert np.allclose(final.values, expected, rtol=0, atol=r0 * dt * c)

    def test_linear_transport_is_exact_in_the_interior(self):
        # sigma = 0, mu = mu0 > 0, rho = 0: the forward upwind difference of a
        # linear profile is exact, so one step shifts by mu0 dt slope
        m = mbs.model_from_dict(
            {
                "N": 1, "d": 1,
                "sigma": {"form": "constant", "params": {"matrix": [[0.0]]}},
                "mu": {"form": "constant", "params": {"vector": [0.5]}},
                "r": {"form": "constant", "params": {"value": 0.0}},
                "xi": {"form": "constant", "params": {"value": 1.0}},
                "h": {"form": "zero", "params": {}},
                "rho": 0.0, "tau": 1.0, "T": 1.0,
                "U0": {"form": "zero", "params": {}},
            }
        )
        grid = small_grid(n=41)
        problem = solver.PricingProblem(m, grid)
        cfg = solver.SchemeConfig(theta=(0.0,), dt=0.01)
        slope = 0.3
        xs = grid.axes()[0]
        f0 = solver.GridField(grid, 0.0, slope * xs)
        f1 = solver.step(f0, problem, cfg)
        inner = slice(1, -1)
        expected = slope * xs[inner] + cfg.dt * 0.5 * slope
        assert np.allclose(f1.values[inner], expected, rtol=0, atol=1e-14)

    def test_zero_dt_is_refused(self):
        # a step of zero length is no step: the scheme refuses it, as a march
        for dt in (0.0, -1e-3, float("nan")):
            with pytest.raises(ConfigurationError, match="field 'dt': .* must be positive"):
                solver.SchemeConfig(theta=(0.0,), dt=dt)

    def test_cfl_violation_raises_before_computation(self):
        m = mbs.heat_model()
        grid = small_grid(n=64, width=2 * np.pi)
        problem = solver.PricingProblem(m, grid)
        with pytest.raises(ConfigurationError, match="stability"):
            solver.step(
                solver.GridField(grid, 0.0, np.zeros(grid.nodes)),
                problem,
                solver.SchemeConfig(theta=(0.0,), dt=1.0),
            )


class TestSolveOracles:
    def test_heat_kernel_closed_form(self, heat_run):
        # exact solution exp(-t) cos(x); the sup norm is taken on the region
        # the padding margin protects from the artificial boundary
        final = heat_run.result.final()
        xs = heat_run.grid.axes()[0]
        exact = math.exp(-final.t) * np.cos(xs)
        err = np.abs(final.values - exact)[heat_run.grid.audited_slice()]
        assert float(err.max()) <= 5e-3

    def test_zero_model_stays_zero(self):
        res = solver.solve(constants_model(), small_grid(), t_end=0.5)
        for f in res.fields:
            assert np.all(f.values == 0.0)

    def test_degenerate_direction_is_fixed_point(self):
        # N = 2, d = 1, sigma = (s, 0)^T: data varying only in x2 see no
        # diffusion, drift or source, so the field is frozen
        m = mbs.model_from_dict(
            {
                "N": 2, "d": 1,
                "sigma": {"form": "constant", "params": {"matrix": [[0.7], [0.0]]}},
                "mu": {"form": "zero", "params": {}},
                "r": {"form": "constant", "params": {"value": 0.0}},
                "xi": {"form": "constant", "params": {"value": 1.0}},
                "h": {"form": "zero", "params": {}},
                "rho": 0.0, "tau": 1.0, "T": 1.0,
                "U0": {"form": "cosine", "params": {"amplitude": 1.0, "wavevector": [0.0, 1.0]}},
            }
        )
        grid = solver.GridSpec(box=((-3.0, 3.0), (-3.0, 3.0)), nodes=(33, 33))
        res = solver.solve(m, grid, t_end=0.2)
        inner = tuple(slice(1, -1) for _ in range(2))
        drift = float(
            np.abs(res.final().values[inner] - res.fields[0].values[inner]).max()
        )
        assert drift <= 1e-12
        # after the boundary ring settles on the first step, the whole field
        # is stationary
        ring_drift = float(np.abs(res.final().values - res.fields[1].values).max())
        assert ring_drift <= 1e-12

    def test_sandwich_annotation(self, desk_run):
        for f in desk_run.result.fields:
            assert f.meta["sandwich_ok"], f.meta
            assert f.meta["k_lower"] <= f.meta["k_upper"]

    def test_run_flags(self, desk_run):
        flags = desk_run.result.flags
        assert flags["steps"] > 0


class TestMonotonicity:
    def test_probe_random_configurations(self):
        # raising any single neighbour must not lower the updated value
        m = mbs.default_model()
        grid = small_grid(n=16)
        problem = solver.PricingProblem(m, grid)
        cfg = solver.auto_config(problem)
        rng = np.random.default_rng(42)
        pair = mbs.barrier_pair(m)
        delta = 1e-6
        for _ in range(1000):
            vals = rng.uniform(pair.m0 - 0.3, pair.M0 + 0.3, grid.nodes)
            i = int(rng.integers(1, grid.nodes[0] - 1))
            j = i + int(rng.choice([-1, 0, 1]))
            base = solver.step(solver.GridField(grid, 0.0, vals), problem, cfg)
            bumped_vals = vals.copy()
            bumped_vals[j] += delta
            bumped = solver.step(solver.GridField(grid, 0.0, bumped_vals), problem, cfg)
            assert bumped.values[i] - base.values[i] >= -1e-12


class TestStraightenedMonotonicity:
    def test_probe_random_configurations(self):
        from visc import transform

        m = mbs.default_model()
        pair = mbs.barrier_pair(m)
        gauge = transform.affine_sq_gauge(2.0 / pair.m0, 1.0, (pair.m0, pair.M0))
        transf = transform.Transformation(gauge, margin=0.3 * pair.m0)
        grid = small_grid(n=16)
        problem = solver.StraightenedProblem(m, transf, grid)
        cfg = solver.auto_config(problem)
        rng = np.random.default_rng(33)
        v_lo, v_hi = transf.v_range
        delta = 1e-6
        for _ in range(400):
            vals = rng.uniform(v_lo + 0.05, v_hi - 0.05, grid.nodes)
            i = int(rng.integers(1, grid.nodes[0] - 1))
            j = i + int(rng.choice([-1, 0, 1]))
            base = solver.step(solver.GridField(grid, 0.0, vals), problem, cfg)
            bumped_vals = vals.copy()
            bumped_vals[j] += delta
            bumped = solver.step(solver.GridField(grid, 0.0, bumped_vals), problem, cfg)
            assert bumped.values[i] - base.values[i] >= -1e-12


class TestDiscreteComparison:
    def test_identical_runs_zero_gap(self):
        m = constants_model(u0=0.4, r0=0.1)
        grid = small_grid()
        res = solver.solve(m, grid, t_end=0.5)
        rep = solver.discrete_comparison(res.fields, res.fields)
        assert rep.passed
        assert rep.max_violation == 0.0

    def test_ordered_constants_keep_exponential_gap(self):
        r0 = 0.2
        grid = small_grid()
        m_lo = constants_model(u0=0.4, r0=r0)
        m_hi = constants_model(u0=0.5, r0=r0)
        problem = solver.PricingProblem(m_hi, grid)
        cfg = solver.auto_config(problem)
        res_lo = solver.solve(m_lo, grid, cfg=cfg, t_end=0.5)
        res_hi = solver.solve(m_hi, grid, cfg=cfg, t_end=0.5)
        rep = solver.discrete_comparison(res_lo.fields, res_hi.fields)
        assert rep.passed, rep.max_violation
        gap = res_hi.final().values - res_lo.final().values
        expected = 0.1 * math.exp(-r0 * res_hi.final().t)
        # the discrete gap follows the Euler product, so allow O(dt)
        assert np.allclose(gap, expected, atol=0.1 * r0 * cfg.dt)
        assert float(gap.max() - gap.min()) <= 1e-14

    def test_bump_dominates_zero(self):
        grid = small_grid(n=64)
        m_zero = mbs.default_model()
        cfg_src = solver.PricingProblem(m_zero, grid)
        cfg = solver.auto_config(cfg_src)
        m_bump = mbs.default_model()
        zero_cfg = m_zero.to_dict()
        zero_cfg["U0"] = {"form": "zero", "params": {}}
        m_zero = mbs.model_from_dict(zero_cfg)
        res_a = solver.solve(m_zero, grid, cfg=cfg, t_end=0.5)
        res_b = solver.solve(m_bump, grid, cfg=cfg, t_end=0.5)
        rep = solver.discrete_comparison(res_a.fields, res_b.fields)
        assert rep.passed, rep.max_violation

    def test_mismatched_grids_rejected(self):
        m = constants_model(u0=0.4)
        res_a = solver.solve(m, small_grid(n=21), t_end=0.25)
        res_b = solver.solve(m, small_grid(n=23), t_end=0.25)
        with pytest.raises(ConfigurationError):
            solver.discrete_comparison(res_a.fields, res_b.fields)


def _serial_oracle(model, x, t, n_paths, n_steps, seed):
    """mc_oracle's estimator written out chunk by chunk in one thread."""
    R = model.r.antiderivative
    dt = t / n_steps

    def disc(s):
        return math.exp(-(float(R(t)) - float(R(t - s))))

    total = total_sq = 0.0
    for c, start in enumerate(range(0, n_paths, solver._MC_CHUNK)):
        k = min(solver._MC_CHUNK, n_paths - start)
        rng = np.random.default_rng([seed, c])
        X = np.tile(x, (k, 1))
        acc = np.zeros(k)
        for j in range(n_steps + 1):
            pde_t = max(t - j * dt, 0.0)
            if not model.h.is_zero():
                w = 0.5 * dt if j in (0, n_steps) else dt
                acc += (w * disc(j * dt) * (model.tau - float(model.r(pde_t)))
                        * model.h.value(X, pde_t))
            if j < n_steps:
                Z = rng.standard_normal((k, model.dim_noise))
                X = X + model.mu.value(X) * dt + (Z @ model.sigma.T) * math.sqrt(dt)
        vals = acc + disc(t) * model.U0.value(X)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    mean = total / n_paths
    var = max(total_sq / n_paths - mean * mean, 0.0) * n_paths / (n_paths - 1)
    return mean, math.sqrt(var / n_paths)


def _source_model():
    """rho = 0 with a constant source, discounting and a cosine U0."""
    cfg = constants_model(h0=0.3, rho=0.0, r0=0.05).to_dict()
    cfg["U0"] = {"form": "cosine", "params": {"amplitude": 0.5, "wavevector": [1.0]}}
    return mbs.model_from_dict(cfg)


class TestMcOracle:
    def test_heat_matches_kernel(self):
        m = mbs.heat_model()
        for x0 in (0.0, 1.0, -2.0):
            est, se = solver.mc_oracle(m, np.array([x0]), 0.5, 40_000, 64, seed=3)
            exact = math.exp(-0.5) * math.cos(x0)
            assert abs(est - exact) <= 3.0 * se
            assert se < 0.01

    def test_deterministic_source_has_zero_variance(self):
        # h constant, U0 = 0: every path integrates the same deterministic
        # source, so the estimate is tau h0 t with stderr ~ 0
        m = constants_model(h0=0.3, rho=0.0, tau=1.0)
        est, se = solver.mc_oracle(m, np.zeros(1), 0.5, 1000, 32, seed=4)
        assert est == pytest.approx(1.0 * 0.3 * 0.5, rel=1e-12)
        assert se <= 1e-8  # float noise of the variance accumulator only

    def test_clt_scaling(self):
        m = mbs.heat_model()
        _, se1 = solver.mc_oracle(m, np.zeros(1), 0.5, 20_000, 32, seed=5)
        _, se2 = solver.mc_oracle(m, np.zeros(1), 0.5, 40_000, 32, seed=5)
        ratio = se2 / se1
        assert 0.8 / math.sqrt(2.0) <= ratio <= 1.2 / math.sqrt(2.0)

    def test_seed_family_extension(self):
        # same seed: the first chunks coincide, so small-n values reappear
        m = mbs.heat_model()
        e1, _ = solver.mc_oracle(m, np.zeros(1), 0.5, 4096, 16, seed=6)
        e1b, _ = solver.mc_oracle(m, np.zeros(1), 0.5, 4096, 16, seed=6)
        assert e1 == e1b

    def test_rho_precondition(self):
        with pytest.raises(PreconditionError):
            solver.mc_oracle(mbs.default_model(), np.zeros(1), 0.5, 100, 8, seed=0)

    def test_matches_serial_chunks_bit_for_bit(self):
        # criterion 4's size: the chunks run in parallel, their sums add in
        # order; on heat the 200-step call takes the one exact step
        m = mbs.heat_model()
        got = solver.mc_oracle(m, np.array([1.0]), 0.5, 200_000, 200, 11)
        assert got == _serial_oracle(m, np.array([1.0]), 0.5, 200_000, 1, 11)

    def test_ragged_count_with_source_bit_for_bit(self):
        m = _source_model()
        args = (np.array([0.3]), 0.5, 3 * solver._MC_CHUNK + 17, 64, 2)
        assert solver.mc_oracle(m, *args) == _serial_oracle(m, *args)

    def test_one_core_gives_the_same_result(self, monkeypatch):
        import concurrent.futures

        workers = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        m = _source_model()
        args = (np.array([0.3]), 0.5, 3 * solver._MC_CHUNK + 17, 16, 9)
        default = solver.mc_oracle(m, *args)
        monkeypatch.setattr(solver.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert solver.mc_oracle(m, *args) == default
        assert workers[-1] == 1


def _drift_model(mu):
    """_source_model with the drift mu."""
    cfg = _source_model().to_dict()
    cfg["mu"] = mu
    return mbs.model_from_dict(cfg)


def _two_state_model():
    """Two states driven by one noise, with a constant drift and a source."""
    cfg = _source_model().to_dict()
    cfg.update(
        N=2, d=1,
        sigma={"form": "constant", "params": {"matrix": [[0.8], [0.3]]}},
        mu={"form": "constant", "params": {"vector": [0.1, -0.2]}},
        U0={"form": "cosine", "params": {"amplitude": 0.5, "wavevector": [1.0, 0.5]}},
    )
    return mbs.model_from_dict(cfg)


def _no_source(model):
    """model with h = 0."""
    cfg = model.to_dict()
    cfg["h"] = {"form": "zero", "params": {}}
    return mbs.model_from_dict(cfg)


_ORACLE_MODELS = {
    "constant-mu": lambda: _drift_model({"form": "constant", "params": {"vector": [0.3]}}),
    "sinusoid-mu": lambda: _drift_model(
        {"form": "sinusoid", "params": {"amplitude": [0.4], "wavevector": [[1.3]]}}),
    "two-state-one-noise": _two_state_model,
}


class TestMcOracleBlocks:
    @pytest.mark.parametrize("n_steps", [1, 7, 8, 9, 17])  # around the block of 8
    @pytest.mark.parametrize("name", sorted(_ORACLE_MODELS))
    def test_matches_serial_chunks_bit_for_bit(self, name, n_steps):
        m = _ORACLE_MODELS[name]()
        args = (np.full(m.dim_state, 0.2), 0.5, 2 * solver._MC_CHUNK + 5, n_steps, 3)
        assert solver.mc_oracle(m, *args) == _serial_oracle(m, *args)

    def test_memory_holds_a_block_of_normals_per_chunk(self, monkeypatch):
        # two chunks in flight on any host; a chunk drawing all 64 steps'
        # normals at once would hold 2 MB of them alone.  A tiny call goes
        # first, so the modules a process's first call imports are not counted.
        import tracemalloc

        # The source keeps the Euler loop, which heat's one exact step skips.
        m = _source_model()
        monkeypatch.setattr(solver.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        solver.mc_oracle(m, np.zeros(1), 0.5, 2, 1, 0)
        tracemalloc.start()
        try:
            solver.mc_oracle(m, np.zeros(1), 0.5, 4 * solver._MC_CHUNK, 64, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    @pytest.mark.parametrize("model", [mbs.heat_model, lambda: _no_source(_two_state_model())],
                             ids=["heat", "two-state"])
    def test_constant_coefficients_take_one_step(self, model):
        m = model()
        args = (np.full(m.dim_state, 0.2), 0.5, 2 * solver._MC_CHUNK + 5)
        one = solver.mc_oracle(m, *args, 1, 3)
        assert solver.mc_oracle(m, *args, 7, 3) == one
        assert solver.mc_oracle(m, *args, 200, 3) == one

    def test_state_dependent_drift_keeps_the_loop(self):
        m = _no_source(_ORACLE_MODELS["sinusoid-mu"]())
        args = (np.array([0.2]), 0.5, 2 * solver._MC_CHUNK + 5)
        got = solver.mc_oracle(m, *args, 17, 3)
        assert got == _serial_oracle(m, *args, 17, 3)
        assert got != solver.mc_oracle(m, *args, 1, 3)

    def test_constant_drift_matches_the_closed_form(self):
        # U0 = A cos(k x) under X_t = x + mu t + sigma sqrt(t) Z averages to
        # A cos(k (x + mu t)) exp(-k^2 sigma^2 t / 2)
        A, k, mu, sig, x, t = 0.5, 1.3, 0.3, 0.8, 0.2, 0.5
        cfg = _source_model().to_dict()
        cfg.update(
            h={"form": "zero", "params": {}},
            mu={"form": "constant", "params": {"vector": [mu]}},
            r={"form": "constant", "params": {"value": 0.0}},
            sigma={"form": "constant", "params": {"matrix": [[sig]]}},
            U0={"form": "cosine", "params": {"amplitude": A, "wavevector": [k]}},
        )
        est, se = solver.mc_oracle(mbs.model_from_dict(cfg), np.array([x]), t, 40_000, 200, 5)
        exact = A * math.cos(k * (x + mu * t)) * math.exp(-0.5 * k * k * sig * sig * t)
        assert abs(est - exact) <= 3.0 * se, (est, exact, se)

    @pytest.mark.parametrize("t", [-0.1, 1.0, 1.5])
    def test_refuses_t_outside_the_horizon(self, t):
        with pytest.raises(ConfigurationError, match=r"^t = .* must lie in \[0, maturity 1.0\)"):
            solver.mc_oracle(mbs.heat_model(), np.zeros(1), t, 100, 8, seed=0)

    def test_refuses_a_point_of_the_wrong_dimension(self):
        with pytest.raises(ConfigurationError, match=r"^x has shape \(1,\), not \(dim_state = 2,\)"):
            solver.mc_oracle(_two_state_model(), np.zeros(1), 0.5, 100, 8, seed=0)


class TestLipschitzAudit:
    def test_heat_run_passes(self, heat_run):
        rd = mbs.regularity_constant(heat_run.model, M=1.0)
        rep = solver.lipschitz_audit(heat_run.result.fields, rd)
        assert rep.passed, rep.worst_sample

    def test_heat_quotients_contract(self, heat_run):
        final = heat_run.result.final()
        q = np.abs(np.diff(final.values)) / heat_run.grid.dx[0]
        assert q.max() <= 1.0 + 1e-3

    def test_constant_data_trivial(self):
        m = constants_model(u0=0.5)
        res = solver.solve(m, small_grid(), t_end=0.3)
        rd = mbs.regularity_constant(m, M=1.0)
        rep = solver.lipschitz_audit(res.fields, rd)
        assert rep.passed


    def test_iterator_input_counts_every_field(self, heat_run):
        rd = mbs.regularity_constant(heat_run.model, M=1.0)
        rep = solver.lipschitz_audit(iter(heat_run.result.fields), rd)
        assert rep.samples_tested == len(heat_run.result.fields)


class TestRefinement:
    def test_heat_order_in_expected_band(self):
        m = mbs.heat_model()
        base = solver.GridSpec(box=((-2 * np.pi, 2 * np.pi),), nodes=(51,))
        grids = [base, base.refined(), base.refined().refined()]
        rows = solver.refinement_study(m, grids, t_end=0.25)
        orders = [r["order"] for r in rows if r["order"] is not None]
        assert orders, rows
        assert 0.8 <= orders[-1] <= 2.2, rows

    def test_zero_model_all_differences_zero(self):
        m = constants_model()
        base = small_grid(n=17)
        grids = [base, base.refined(), base.refined().refined()]
        rows = solver.refinement_study(m, grids, t_end=0.25)
        assert all(r["diff_to_next"] in (None, 0.0) for r in rows)

    def test_transport_first_order(self):
        m = mbs.model_from_dict(
            {
                "N": 1, "d": 1,
                "sigma": {"form": "constant", "params": {"matrix": [[0.0]]}},
                "mu": {"form": "constant", "params": {"vector": [0.8]}},
                "r": {"form": "constant", "params": {"value": 0.0}},
                "xi": {"form": "constant", "params": {"value": 1.0}},
                "h": {"form": "zero", "params": {}},
                "rho": 0.0, "tau": 1.0, "T": 1.0,
                "U0": {"form": "gaussian-bump",
                        "params": {"amplitude": 1.0, "center": [0.0], "width": 0.6}},
            }
        )
        # 129 nodes resolve the bump; coarser grids are pre-asymptotic
        base = solver.GridSpec(box=((-4.0, 4.0),), nodes=(129,))
        grids = [base, base.refined(), base.refined().refined()]
        rows = solver.refinement_study(m, grids, t_end=0.5)
        orders = [r["order"] for r in rows if r["order"] is not None]
        assert 0.7 <= orders[-1] <= 1.3, rows

    def test_non_nested_rejected(self):
        m = constants_model()
        with pytest.raises(ConfigurationError):
            solver.refinement_study(
                m, [small_grid(17), small_grid(20), small_grid(33)], t_end=0.2
            )
        with pytest.raises(PreconditionError):
            solver.refinement_study(m, [small_grid(17), small_grid(33)], t_end=0.2)


class TestTwoFactorRun:
    def test_degenerate_model_sandwich_and_audit(self):
        m = mbs.model_from_dict(
            {
                "N": 2, "d": 1,
                "sigma": {"form": "constant", "params": {"matrix": [[0.4], [0.0]]}},
                "mu": {"form": "zero", "params": {}},
                "r": {"form": "constant", "params": {"value": 0.03}},
                "xi": {"form": "constant", "params": {"value": 1.0}},
                "h": {"form": "gaussian-bump",
                       "params": {"amplitude": 0.5, "center": [0.0, 0.0], "width": 1.2}},
                "rho": 0.5, "tau": 0.06, "T": 1.0,
                "U0": {"form": "gaussian-bump",
                        "params": {"amplitude": 0.25, "center": [0.0, 0.0], "width": 1.5}},
            }
        )
        grid = solver.GridSpec(box=((-4.0, 4.0), (-4.0, 4.0)), nodes=(65, 65))
        res = solver.solve(m, grid, t_end=0.4)
        assert all(f.meta["sandwich_ok"] for f in res.fields)
        rd = mbs.regularity_constant(m)
        rep = solver.lipschitz_audit(res.fields, rd)
        assert rep.passed, rep.worst_sample


class TestThreeFactorRun:
    def test_small_3d_run_and_checks(self):
        # desk ceiling: three factors, two noise directions
        m = mbs.model_from_dict(
            {
                "N": 3, "d": 2,
                "sigma": {"form": "constant",
                           "params": {"matrix": [[0.4, 0.0], [0.0, 0.3], [0.0, 0.0]]}},
                "mu": {"form": "zero", "params": {}},
                "r": {"form": "constant", "params": {"value": 0.02}},
                "xi": {"form": "constant", "params": {"value": 1.0}},
                "h": {"form": "gaussian-bump",
                       "params": {"amplitude": 0.4, "center": [0.0, 0.0, 0.0], "width": 1.5}},
                "rho": 0.5, "tau": 0.05, "T": 1.0,
                "U0": {"form": "gaussian-bump",
                        "params": {"amplitude": 0.2, "center": [0.0, 0.0, 0.0], "width": 1.5}},
            }
        )
        assert mbs.validate_model(m, 500, seed=1).passed
        grid = solver.GridSpec(box=((-3.0, 3.0),) * 3, nodes=(17, 17, 17))
        res = solver.solve(m, grid, t_end=0.2)
        assert all(f.meta["sandwich_ok"] for f in res.fields)
        H = mbs.dm2_hamiltonian(m)
        from visc.hamiltonian import check_degenerate_ellipticity, check_structure_cp6

        assert check_degenerate_ellipticity(H, 500, seed=2).passed
        rep = check_structure_cp6(H, 2.0, mbs.cp6_candidates(m), 500, seed=2)
        assert rep.passed, rep.max_violation


class TestChangeOfVariable:
    def test_agreement_and_shrinkage(self, change_of_variable_study):
        gaps = change_of_variable_study.gaps
        assert gaps[-1] <= 5e-3, gaps
        assert gaps[0] >= gaps[1] >= gaps[2], gaps

    def test_map_back_clips_a_field_above_the_range(self):
        m = mbs.default_model()
        transf = affine_sq_transformation(m)
        grid = small_grid(n=11)
        vs = np.linspace(transf.v_range[1] + 1e-9, transf.v_range[1] + 5.0, 11)
        res = solver.SolveResult([solver.GridField(grid, 0.5, vs)], None, {})
        (back,) = solver.map_back(res, transf)
        assert back.t == 0.5
        assert np.all(back.values == transf.u_range[1])


def affine_sq_transformation(m):
    from visc import transform

    pair = mbs.barrier_pair(m)
    gauge = transform.affine_sq_gauge(2.0 / pair.m0, 1.0, (pair.m0, pair.M0))
    return transform.Transformation(gauge, margin=0.3 * pair.m0)


class TestMaturity:
    @pytest.mark.parametrize("t_end", [-0.5, 1.0, 1.5])
    def test_both_solves_refuse_t_end_outside_zero_to_maturity(self, t_end):
        m = mbs.default_model()
        grid = small_grid(n=41)
        with pytest.raises(ConfigurationError, match="maturity"):
            solver.solve(m, grid, t_end=t_end)
        with pytest.raises(ConfigurationError, match="maturity"):
            solver.solve_transformed(m, affine_sq_transformation(m), grid, t_end=t_end)

    def test_dt_that_cannot_march_is_refused(self):
        # neither solve can be handed one: the config refuses it when built
        from dataclasses import replace

        cfg = solver.auto_config(solver.PricingProblem(mbs.default_model(), small_grid(n=41)))
        for dt in (0.0, -cfg.dt):
            with pytest.raises(ConfigurationError, match="field 'dt'"):
                replace(cfg, dt=dt)


    def test_auto_runs_record_float_times(self):
        m = mbs.default_model()
        grid = small_grid(n=201)
        for result in (solver.solve(m, grid, t_end=0.9),
                       solver.solve_transformed(m, affine_sq_transformation(m), grid,
                                                t_end=0.9)):
            assert len(result.fields) > 2
            assert [type(f.t) for f in result.fields] == [float] * len(result.fields)
            assert type(result.cfg.dt) is float


class TestSharedStencil:
    """The two problems share one stencil and differ in their reaction."""

    def test_unit_gauge_reduces_to_pricing_stencil(self):
        # rho = 0, h = 0, constant xi and z = 1 with Psi(0) = 0: v = U + xi,
        # and the v-equation is the U-equation shifted by xi
        from dataclasses import replace

        from visc import transform

        xi = 1.0
        m = mbs.model_from_dict(
            {
                "N": 1, "d": 1,
                "sigma": {"form": "constant", "params": {"matrix": [[0.4]]}},
                "mu": {"form": "sinusoid",
                       "params": {"amplitude": [0.3], "wavevector": [[1.0]]}},
                "r": {"form": "constant", "params": {"value": 0.05}},
                "xi": {"form": "constant", "params": {"value": xi}},
                "h": {"form": "zero", "params": {}},
                "rho": 0.0, "tau": 1.0, "T": 1.0,
                "U0": {"form": "zero", "params": {}},
            }
        )
        gauge = replace(transform.unit_gauge((0.0, 3.0)), base_point=0.0)
        transf = transform.Transformation(gauge, margin=0.0)
        grid = small_grid()
        v = np.random.default_rng(8).uniform(0.5, 2.5, grid.nodes)
        theta = (0.3,)
        rhs_v = solver.StraightenedProblem(m, transf, grid).rhs(v, 0.4, theta)
        rhs_u = solver.PricingProblem(m, grid).rhs(v - xi, 0.4, theta)
        assert np.max(np.abs(rhs_v - rhs_u)) <= 1e-13


def model_2d():
    """The desk model on two factors, diffusion on both axes."""
    cfg = mbs.default_model().to_dict()
    cfg.update({
        "N": 2, "d": 2,
        "sigma": {"form": "constant", "params": {"matrix": [[0.4, 0.0], [0.0, 0.3]]}},
        "mu": {"form": "sinusoid", "params": {
            "amplitude": [0.05, 0.05], "wavevector": [[1.0, 0.0], [0.0, 1.0]]}},
        "h": {"form": "gaussian-bump", "params": {
            "amplitude": 0.5, "center": [0.0, 0.0], "width": 1.0}},
        "U0": {"form": "gaussian-bump", "params": {
            "amplitude": 0.25, "center": [0.0, 0.0], "width": 1.5}},
    })
    return mbs.model_from_dict(cfg)


def steep_model():
    """Small xi and a narrow U0: 2 rho |p| dx / den > 1 on a coarse grid."""
    cfg = mbs.default_model().to_dict()
    cfg.update({
        "rho": 1.0,
        "xi": {"form": "constant", "params": {"value": 0.1}},
        "h": {"form": "gaussian-bump", "params": {
            "amplitude": 0.1, "center": [0.0], "width": 1.0}},
        "U0": {"form": "gaussian-bump", "params": {
            "amplitude": 0.4, "center": [0.0], "width": 0.4}},
    })
    return mbs.model_from_dict(cfg)


class TestMonotoneCertificate:
    def test_desk_runs_certify_zero_theta(self, desk_run):
        m = mbs.default_model()
        box = ((-4.0, 4.0),)
        runs = [
            desk_run.result,
            solver.solve(m, solver.GridSpec(box=box, nodes=(1601,)), t_end=0.5),
            solver.solve(model_2d(), solver.GridSpec(box=box * 2, nodes=(101, 101)),
                         t_end=0.5),
            solver.solve_transformed(m, affine_sq_transformation(m),
                                     solver.GridSpec(box=box, nodes=(401,)), t_end=0.5),
        ]
        for res in runs:
            assert all(th == 0.0 for th in res.cfg.theta), res.cfg
            assert res.flags["monotone_margin"] >= 0.0, res.flags

    def test_coarse_steep_grid_needs_theta(self):
        m = steep_model()
        grid = solver.GridSpec(box=((-4.0, 4.0),), nodes=(17,))
        auto = solver.solve(m, grid, t_end=0.9)
        assert auto.cfg.theta[0] > 0.0
        assert auto.flags["monotone_margin"] >= 0.0
        problem = solver.PricingProblem(m, grid)
        fixed = solver.SchemeConfig(theta=(0.0,), dt=solver.stable_dt(problem, (0.0,)))
        res = solver.solve(m, grid, cfg=fixed, t_end=0.9)
        assert res.flags["monotone_margin"] < 0.0

    def test_degenerate_axis_has_no_slope(self):
        # criterion 2's two-factor model: noise in the first coordinate only
        m = mbs.model_from_dict({
            **mbs.default_model().to_dict(), "N": 2, "d": 1,
            "sigma": {"form": "constant", "params": {"matrix": [[0.4], [0.0]]}},
            "mu": {"form": "zero", "params": {}},
            "h": {"form": "gaussian-bump", "params": {
                "amplitude": 0.5, "center": [0.0, 0.0], "width": 1.2}},
            "U0": {"form": "gaussian-bump", "params": {
                "amplitude": 0.3, "center": [0.0, 0.0], "width": 1.2}},
        })
        grid = solver.GridSpec(box=((-4.0, 4.0),) * 2, nodes=(33, 33))
        res = solver.solve(m, grid, t_end=0.3)
        assert res.cfg.theta[1] == 0.0
        assert res.flags["dH_dp_max"][0] > 0.0
        assert res.flags["dH_dp_max"][1] == 0.0
        assert res.flags["monotone_margin"] >= 0.0

    @pytest.mark.parametrize("nodes", [(161, 41), (41, 161)])
    def test_anisotropic_grids_solve(self, nodes):
        # one CFL bound: the auto dt is exactly stable_dt on any grid
        grid = solver.GridSpec(box=((-4.0, 4.0),) * 2, nodes=nodes)
        res = solver.solve(model_2d(), grid, t_end=0.1)
        problem = solver.PricingProblem(model_2d(), grid)
        assert res.cfg.dt == solver.stable_dt(problem, res.cfg.theta)
        assert res.flags["monotone_margin"] >= 0.0
        assert all(f.meta["sandwich_ok"] for f in res.fields)


class TestBlowUp:
    @pytest.mark.parametrize("record_every", [1, 100])
    def test_nan_is_named_with_its_step(self, monkeypatch, record_every):
        calls = []
        reaction = solver.PricingProblem._reaction

        def poisoned(self, U, grad, t):
            calls.append(t)
            out = reaction(self, U, grad, t)
            if len(calls) >= 3:
                out[19] = np.nan  # interior index 19 is grid node 20
            return out

        monkeypatch.setattr(solver.PricingProblem, "_reaction", poisoned)
        m = mbs.default_model()
        dt = 0.05
        cfg = solver.SchemeConfig(theta=(0.0,), dt=dt, record_every=record_every)
        with pytest.raises(BlowUpError) as info:
            solver.solve(m, small_grid(n=41), cfg=cfg, t_end=10 * dt)
        # the first recorded step at or after the third
        expected = 3 if record_every == 1 else 10
        assert info.value.step == expected
        assert info.value.t == pytest.approx(expected * dt, rel=1e-12)
        # the three-point stencil spreads the NaN one node per step after step 3
        assert info.value.node == (20 - (expected - 3),)

    def test_nan_in_a_straightened_march_is_a_blow_up(self, monkeypatch):
        # a NaN passes the v-range test of the gauge evaluation and is caught
        # as a blow-up, not refused as an out-of-range v
        calls = []
        reaction = solver.StraightenedProblem._reaction

        def poisoned(self, V, grad, t):
            calls.append(t)
            out = reaction(self, V, grad, t)
            if len(calls) == 3:
                out[99] = np.nan  # interior index 99 is grid node 100
            return out

        monkeypatch.setattr(solver.StraightenedProblem, "_reaction", poisoned)
        m = mbs.default_model()
        dt = 1e-3
        cfg = solver.SchemeConfig(theta=(0.0,), dt=dt, record_every=1)
        with pytest.raises(BlowUpError) as info:
            solver.solve_transformed(m, affine_sq_transformation(m), small_grid(n=201),
                                     cfg=cfg, t_end=10 * dt)
        assert info.value.step == 3
        assert info.value.node == (100,)


def time_model():
    """The desk model with affine r, affine xi and a time slope on h."""
    return mbs.model_from_dict({
        **mbs.default_model().to_dict(),
        "r": {"form": "affine", "params": {"intercept": 0.03, "slope": 0.04}},
        "xi": {"form": "affine", "params": {"intercept": 1.0, "slope": 0.2}},
        "h": {"form": "gaussian-bump", "params": {
            "amplitude": 0.5, "center": [0.0], "width": 1.0, "time_slope": 0.3}},
    })


def _kernel_case(name):
    """A fresh problem for each in-place kernel case."""
    m = time_model() if name.endswith("-time") else mbs.default_model()
    box = ((-4.0, 4.0),)
    if name in ("pricing-201", "pricing-time"):
        return solver.PricingProblem(m, solver.GridSpec(box=box, nodes=(201,)))
    if name == "pricing-2d":
        return solver.PricingProblem(model_2d(), solver.GridSpec(box=box * 2, nodes=(41, 41)))
    return solver.StraightenedProblem(m, affine_sq_transformation(m),
                                      solver.GridSpec(box=box, nodes=(101,)))


class TestInPlaceKernel:
    """solve marches in one reused buffer and copies the fields it records;
    public step copies per call.  Both go through the one kernel, so their
    fields agree bit for bit."""

    @pytest.mark.parametrize("case", ["pricing-201", "pricing-2d", "straightened-101",
                                      "pricing-time", "straightened-time"])
    def test_march_equals_step_loop(self, case):
        from dataclasses import replace

        problem = _kernel_case(case)
        cfg = replace(solver.auto_config(problem), record_every=3)
        t_end = 0.9
        if isinstance(problem, solver.PricingProblem):
            result = solver.solve(problem.model, problem.grid, cfg=cfg, t_end=t_end)
        else:
            result = solver.solve_transformed(problem.model, problem.transf, problem.grid,
                                              cfg=cfg, t_end=t_end)
        stepper = _kernel_case(case)
        f = solver.GridField(stepper.grid, 0.0, stepper.initial_values())
        fields = [f]
        n_steps = result.flags["steps"]
        for k in range(n_steps):
            f = solver.step(f, stepper, replace(cfg, dt=min(cfg.dt, t_end - f.t)))
            if (k + 1) % cfg.record_every == 0 or k == n_steps - 1:
                fields.append(f)
        assert len(result.fields) == len(fields) > 3
        assert [g.t for g in result.fields] == [g.t for g in fields]
        for got, want in zip(result.fields, fields):
            assert np.array_equal(got.values, want.values)
        assert result.flags["dH_dp_max"] == stepper.slope_sup.tolist()
        for key, flag in stepper.flags.items():
            assert result.flags[key] == flag
        for i, a in enumerate(result.fields):
            for b in result.fields[i + 1:]:
                assert not np.shares_memory(a.values, b.values)

    def test_folded_coefficients_match_difference_form(self):
        # rho = 0, r = 0, h = 0: rhs is the linear stencil alone, here against
        # its difference form sum_k (a_k + theta_k dx_k)/2 D2_k W + mu^+ D+ - mu^- D-
        m = mbs.model_from_dict({
            **model_2d().to_dict(), "rho": 0.0,
            "r": {"form": "constant", "params": {"value": 0.0}},
            "h": {"form": "zero", "params": {}},
        })
        grid = solver.GridSpec(box=((-4.0, 4.0), (-3.0, 3.0)), nodes=(21, 17))
        problem = solver.PricingProblem(m, grid)
        values = np.random.default_rng(5).uniform(-1.0, 1.0, grid.nodes)
        theta = (0.3, 0.2)
        W = values[1:-1, 1:-1]
        want = np.zeros_like(W)
        for ax, dx in enumerate(grid.dx):
            sl = [slice(1, -1)] * 2
            up = values[tuple(sl[:ax] + [slice(2, None)] + sl[ax + 1:])]
            dn = values[tuple(sl[:ax] + [slice(None, -2)] + sl[ax + 1:])]
            mu = problem.mu_int[..., ax]
            want += 0.5 * (problem.diffusion[ax] + theta[ax] * dx) * (up - 2.0 * W + dn) / dx**2
            want += np.maximum(mu, 0.0) * (up - W) / dx - np.maximum(-mu, 0.0) * (W - dn) / dx
        got = problem.rhs(values, 0.0, theta)
        scale = max(problem.diffusion + np.asarray(theta) * grid.dx) / min(grid.dx) ** 2
        assert np.max(np.abs(got - want)) <= 1e-14 * scale

    def test_rhs_returns_a_fresh_array(self):
        problem = _kernel_case("pricing-201")
        values = problem.initial_values()
        a = problem.rhs(values, 0.1, (0.0,))
        b = problem.rhs(values, 0.1, (0.0,))
        assert not np.shares_memory(a, b)
        assert np.array_equal(a, b)

    def test_clamps_are_flagged(self):
        # a field below the denominator floor, and one above Psi's range
        pricing = _kernel_case("pricing-201")
        low = np.full(pricing.grid.nodes, -float(pricing.model.xi(0.0)))
        cfg = solver.auto_config(pricing)
        res = solver._march(pricing, solver.GridField(pricing.grid, 0.0, low), cfg, 5 * cfg.dt)
        assert res.flags["denominator_clamped"]
        straightened = _kernel_case("straightened-101")
        high = np.full(straightened.grid.nodes, straightened.v_hi + 0.1)
        cfg = solver.auto_config(straightened)
        res = solver._march(straightened, solver.GridField(straightened.grid, 0.0, high),
                            cfg, 5 * cfg.dt)
        assert res.flags["v_range_clamped"]

    def test_flags_report_one_run(self):
        # a clamp in one run on a problem is not reported by the next run on it
        pricing = _kernel_case("pricing-201")
        cfg = solver.auto_config(pricing)
        low = np.full(pricing.grid.nodes, -float(pricing.model.xi(0.0)))
        first = solver._march(pricing, solver.GridField(pricing.grid, 0.0, low), cfg, 5 * cfg.dt)
        start = solver.GridField(pricing.grid, 0.0, pricing.initial_values())
        second = solver._march(pricing, start, cfg, 5 * cfg.dt)
        assert first.flags["denominator_clamped"]
        assert second.flags["denominator_clamped"] is False


class TestBoundRun:
    """A solve binds its field buffer once; a public step fails like a march."""

    @pytest.mark.parametrize("case", ["pricing-201", "straightened-101"])
    def test_solve_folds_and_binds_once(self, case, monkeypatch):
        problem = _kernel_case(case)
        cls = type(problem)
        calls = {"_fold": 0, "_bind": 0}
        runs = []
        for name in calls:
            def counted(self, *args, _name=name, _orig=getattr(cls, name)):
                calls[_name] += 1
                return _orig(self, *args)

            monkeypatch.setattr(cls, name, counted)
        advance = cls._advance

        def advance_seen(self, run, t, dt):
            runs.append(run)
            return advance(self, run, t, dt)

        monkeypatch.setattr(cls, "_advance", advance_seen)
        cfg = solver.SchemeConfig(theta=(0.0,), dt=1e-3)
        if isinstance(problem, solver.PricingProblem):
            res = solver.solve(problem.model, problem.grid, cfg=cfg, t_end=0.1)
        else:
            res = solver.solve_transformed(problem.model, problem.transf, problem.grid,
                                           cfg=cfg, t_end=0.1)
        assert res.flags["steps"] == 100
        assert calls == {"_fold": 1, "_bind": 1}
        assert len(runs) == 100 and all(run is runs[0] for run in runs)

    def test_step_blow_up_is_not_a_configuration_error(self):
        problem = _kernel_case("pricing-201")
        cfg = solver.auto_config(problem)
        values = problem.initial_values()
        values[100] = 1e300
        f = solver.GridField(problem.grid, 0.25, values)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as info:
            solver.step(f, problem, cfg)
        assert info.value.step == 1
        assert info.value.t == 0.25 + cfg.dt
        # the squared gradient overflows at the seeded node's neighbours, 99 first
        assert info.value.node == (99,)


class TestTimeArrays:
    """The time-only arrays of a step are rebuilt when r(t), s(t), xi(t) or
    the run's bound coefficients change, and a bound step allocates no array."""

    @staticmethod
    def _want(problem, values, t):
        # the difference form of the linear stencil plus the reaction
        # tau h - r (U + h) - rho a p^2 / den, written out
        m, dx = problem.model, problem.grid.dx[0]
        a, mu = problem.diffusion[0], problem.mu_int[..., 0]
        U, up, dn = values[1:-1], values[2:], values[:-2]
        h = m.h.value(problem.x_int, t)
        p = (up - dn) / (2.0 * dx)
        den = np.maximum(U + h + m.xi(t), problem.den_floor)
        return (0.5 * a * (up - 2.0 * U + dn) / dx**2
                + np.maximum(mu, 0.0) * (up - U) / dx - np.maximum(-mu, 0.0) * (U - dn) / dx
                + m.tau * h - m.r(t) * (U + h) - m.rho * a * p**2 / den)

    @pytest.mark.parametrize("bound", [False, True])
    def test_rhs_follows_time(self, bound):
        # r, xi and h all vary in time; bound reuses one binding for both times
        grid = small_grid(n=41)
        problem = solver.PricingProblem(time_model(), grid)
        values = problem.initial_values() + 0.1 * np.sin(grid.points()[..., 0])
        run = problem._bind(values, (0.0,))
        for t in (0.1, 0.7):
            if bound:
                got = problem._rhs_into(run, t, np.empty(grid.nodes[0] - 2))
            else:
                got = problem.rhs(values, t, (0.0,))
            assert np.max(np.abs(got - self._want(problem, values, t))) <= 1e-13

    def test_new_theta_rebuilds_the_diagonal(self):
        problem = _kernel_case("pricing-201")
        values = problem.initial_values()
        problem.rhs(values, 0.0, (0.0,))
        got = problem.rhs(values, 0.0, (0.5,))
        assert np.array_equal(got, _kernel_case("pricing-201").rhs(values, 0.0, (0.5,)))

    def test_bound_step_allocates_no_array(self):
        import tracemalloc

        problem = solver.PricingProblem(mbs.default_model(), small_grid(n=1601))
        cfg = solver.auto_config(problem)
        run = problem._bind(problem.initial_values(), cfg.theta)
        tracemalloc.start()
        try:
            for k in range(20):
                problem._advance(run, k * cfg.dt, cfg.dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < run.W.nbytes
