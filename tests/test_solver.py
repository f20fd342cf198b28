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

    def test_zero_dt_returns_identical_field(self):
        m = constants_model(u0=0.3)
        grid = small_grid()
        problem = solver.PricingProblem(m, grid)
        f0 = solver.GridField(grid, 0.0, np.linspace(0.0, 1.0, grid.nodes[0]))
        f1 = solver.step(f0, problem, solver.SchemeConfig(theta=(0.0,), dt=0.0))
        assert np.array_equal(f0.values, f1.values)
        assert f1.t == f0.t

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


def affine_sq_transformation(m):
    from visc import transform

    pair = mbs.barrier_pair(m)
    gauge = transform.affine_sq_gauge(2.0 / pair.m0, 1.0, (pair.m0, pair.M0))
    return transform.Transformation(gauge, margin=0.3 * pair.m0)


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
