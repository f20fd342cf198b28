import math

import numpy as np
import pytest

from visc import hamiltonian as ham
from visc import jsonio, transform
from visc.errors import ConfigurationError, DomainError, PreconditionError
from visc.osgood import linear, xlog

INV_E = math.exp(-1.0)


def neg_trace(dim=1, name="neg-trace"):
    return ham.HamiltonianSpec(
        name, dim, (-1.0, 1.0), 0.5,
        lambda x, t, u, p, X: -float(np.trace(X)),
    )


def pos_trace(dim=1):
    return ham.HamiltonianSpec(
        "pos-trace", dim, (-1.0, 1.0), 0.5,
        lambda x, t, u, p, X: float(np.trace(X)),
    )


class TestEval:
    def test_example1_at_inv_e(self):
        H = ham.example1()
        val = ham.eval_hamiltonian(H, np.zeros(1), 0.0, INV_E, np.zeros(1), np.zeros((1, 1)))
        expected = (math.exp(-2.0) + math.exp(-1.0)) * (-1.0)
        assert val == pytest.approx(expected, rel=1e-14)

    def test_example1_nonpositive_u(self):
        H = ham.example1()
        val = ham.eval_hamiltonian(H, np.zeros(1), 0.0, -0.25, np.zeros(1), np.zeros((1, 1)))
        assert val == 0.0

    def test_dm2_quadratic_term_only(self):
        # sigma = 1, mu = 0, h = 0, r = 0 leaves rho |p|^2 / u
        from visc import mbs

        model = mbs.model_from_dict(
            {
                "N": 1, "d": 1,
                "sigma": {"form": "constant", "params": {"matrix": [[1.0]]}},
                "mu": {"form": "zero", "params": {}},
                "r": {"form": "constant", "params": {"value": 0.0}},
                "xi": {"form": "constant", "params": {"value": 1.0}},
                "h": {"form": "zero", "params": {}},
                "rho": 0.8, "tau": 0.05, "T": 1.0,
                "U0": {"form": "zero", "params": {}},
            }
        )
        H = mbs.dm2_hamiltonian(model)
        # u = 1.25 lies in the barrier interval (1, 1) widened by eps0 = 1/2
        assert H.eval_interval == (0.5, 1.5)
        val = ham.eval_hamiltonian(H, np.zeros(1), 0.0, 1.25, np.ones(1), np.zeros((1, 1)))
        assert val == pytest.approx(0.8 / 1.25, rel=1e-14)

    def test_domain_errors(self):
        H = ham.example1()
        with pytest.raises(DomainError):
            ham.eval_hamiltonian(H, np.zeros(1), 0.0, 0.9, np.zeros(1), np.zeros((1, 1)))
        with pytest.raises(DomainError):
            ham.eval_hamiltonian(H, np.zeros(1), 2.0, 0.1, np.zeros(1), np.zeros((1, 1)))
        with pytest.raises(DomainError):
            ham.eval_hamiltonian(H, np.zeros(1), 0.0, 0.1, np.zeros(1), np.array([[0.0, 1.0]]))

    def test_fixture_constructors(self):
        from visc import mbs

        assert ham.example1().name == "example1"
        assert ham.example2_power(0.4).name == "example2-power:0.4"
        assert ham.example2_log().dim_state == 1
        assert mbs.dm2_hamiltonian(mbs.default_model()).name == "mbs-dm2"


class TestTransform:
    def test_unit_gauge_reproduces_original(self):
        H = ham.example1()
        gauge = transform.unit_gauge(H.u_domain)
        Ht = ham.transform_hamiltonian(H, gauge)
        T = Ht.transformation
        rng = np.random.default_rng(3)
        for _ in range(200):
            u = rng.uniform(-0.45, INV_E - 0.01)
            p = rng.normal(0.0, 1.0, 1)
            X = rng.normal(0.0, 1.0, (1, 1))
            v = T.psi(u)
            a = Ht.fn(np.zeros(1), 0.0, v, p, X)
            b = H.fn(np.zeros(1), 0.0, u, p, X)
            assert abs(a - b) <= 1e-12

    def test_example1_gradient_coefficient_vanishes(self):
        # with z = (u+1)^2 the |p|^2 coefficient sqrt(z)/(u+1) - z'/(2 sqrt z)
        # collapses to zero identically
        H = ham.example1()
        gauge = transform.shift_sq_gauge(H.u_domain)
        Ht = ham.transform_hamiltonian(H, gauge)
        T = Ht.transformation
        rng = np.random.default_rng(7)
        for _ in range(1000):
            u = rng.uniform(-0.5 + 1e-3, INV_E)
            p = rng.normal(0.0, 2.0, 1)
            if abs(p[0]) < 1e-3:
                continue
            v = T.psi(u)
            coeff = (Ht.fn(np.zeros(1), 0.0, v, p, np.zeros((1, 1)))
                     - Ht.fn(np.zeros(1), 0.0, v, np.zeros(1), np.zeros((1, 1)))) / (p[0] ** 2)
            assert abs(coeff) <= 1e-12

    def test_example1_transformed_closed_form(self):
        # F_z(u, p, X) = -tr X + u log u (zero-extended at u <= 0)
        H = ham.example1()
        Ht = ham.transform_hamiltonian(H, transform.shift_sq_gauge(H.u_domain))
        T = Ht.transformation
        rng = np.random.default_rng(11)
        for _ in range(400):
            u = rng.uniform(-0.5 + 1e-3, INV_E)
            p = rng.normal(0.0, 1.0, 1)
            X = np.array([[rng.normal()]])
            val = Ht.fn(np.zeros(1), 0.0, T.psi(u), p, X)
            expected = -float(np.trace(X)) + (u * math.log(u) if u > 0.0 else 0.0)
            assert abs(val - expected) <= 1e-10

    def test_log_composition_closed_form(self):
        # F(p, X) = X - |p|^gamma composed with the exp gauge gives
        # Y - q^2/w - w^{1-gamma} |q|^gamma at w = v + e^{base}
        gamma = 0.5
        H = ham.HamiltonianSpec(
            "power-base", 1, (-1.0, 1.0), 0.5,
            lambda x, t, u, p, X: float(X[0, 0]) - abs(float(p[0])) ** gamma,
        )
        gauge = transform.exp_gauge(H.u_domain)
        Ht = ham.transform_hamiltonian(H, gauge)
        T = Ht.transformation
        c = math.exp(T.base_point)
        rng = np.random.default_rng(13)
        for _ in range(300):
            v = rng.uniform(*Ht.u_domain)
            q = rng.normal(0.0, 1.0, 1)
            Y = np.array([[rng.normal()]])
            w = v + c
            expected = float(Y[0, 0]) - q[0] ** 2 / w - w ** (1.0 - gamma) * abs(q[0]) ** gamma
            val = Ht.fn(np.zeros(1), 0.0, v, q, Y)
            assert val == pytest.approx(expected, abs=1e-9)

    def test_arctan_gauge_composition_structure(self):
        # the log-drift Hamiltonian first composed with arctan, then with the
        # arctan-family gauge z = (u^2+1)^2 (beta - arctan(u)^2/2)^2, has
        # quadratic coefficient l(u) = -arctan(u) and saturation scale
        # w(u) = beta - arctan(u)^2/2 (comparison orientation negates both)
        beta = 2.0

        def phi_composed(x, t, u, p, X):
            # (1/Phi') F(Phi' p, Phi' X + Phi'' p^2), negated, Phi = arctan
            ip = 1.0 / (1.0 + u * u)
            ipp = -2.0 * u / (1.0 + u * u) ** 2
            q = float(np.asarray(p, dtype=float)[0])
            Y = float(X[0, 0])
            return -(ip * Y + ipp * q * q + ham._g_log(ip * q)) / ip

        H_phi = ham.HamiltonianSpec("log-drift~arctan", 1, (-1.0, 1.0), 0.5, phi_composed)
        gauge = transform.arctan_gauge(beta, (-1.0, 1.0))
        Ht = ham.transform_hamiltonian(H_phi, gauge)
        T = Ht.transformation
        rng = np.random.default_rng(19)
        for _ in range(300):
            u = rng.uniform(-1.0, 1.0)
            q = rng.normal(0.0, 1.0, 1)
            Y = np.array([[rng.normal()]])
            w = beta - 0.5 * math.atan(u) ** 2
            ell = -math.atan(u)
            expected = -(float(Y[0, 0]) + ell * q[0] ** 2 + ham._g_log(w * q[0]) / w)
            val = Ht.fn(np.zeros(1), 0.0, T.psi(u), q, Y)
            assert val == pytest.approx(expected, abs=1e-9)

    def test_arctan_gauge_quadratic_coefficient_decreases(self):
        # l' < 0 is what makes the quadratic part one-sided for u >= v
        beta = 2.0
        us = np.linspace(-0.9, 0.9, 25)
        ls = -np.arctan(us)
        assert np.all(np.diff(ls) < 0.0)

    def test_gauge_domain_mismatch(self):
        H = ham.example1()
        with pytest.raises(ConfigurationError):
            ham.transform_hamiltonian(H, transform.unit_gauge((0.0, 0.1)))


class TestDegenerateEllipticity:
    def test_neg_trace_passes_exactly(self):
        rep = ham.check_degenerate_ellipticity(neg_trace(), 500, seed=1)
        assert rep.passed
        assert rep.max_violation <= 0.0

    def test_pos_trace_fails(self):
        rep = ham.check_degenerate_ellipticity(pos_trace(), 500, seed=1)
        assert not rep.passed
        assert rep.max_violation > 1e-6

    @pytest.mark.parametrize("make", [ham.example1, ham.example2_power, ham.example2_log,
                                      lambda: _batched_builtin("dm2-desk")],
                             ids=["example1", "example2-power", "example2-log", "mbs-dm2"])
    def test_fixtures_pass(self, make):
        H = make()
        rep = ham.check_degenerate_ellipticity(H, 800, seed=2)
        assert rep.passed, (H.name, rep.max_violation)

    def test_dm2_difference_is_trace_identity(self):
        # linear-in-X Hamiltonian: F(X + Y) - F(X) = -tr(sigma sigma^T Y)/2,
        # nonpositive for Y = A^T A since sigma sigma^T is PSD
        from visc import mbs

        m = mbs.default_model()
        H = mbs.dm2_hamiltonian(m)
        W = m.sigma @ m.sigma.T
        rng = np.random.default_rng(14)
        for _ in range(100):
            A = rng.normal(0.0, 1.0, (1, 1))
            Y = A.T @ A
            X = np.array([[rng.normal()]])
            p = rng.normal(0.0, 1.0, 1)
            diff = H.fn(np.zeros(1), 0.1, 1.2, p, X + Y) - H.fn(np.zeros(1), 0.1, 1.2, p, X)
            expected = -0.5 * float(np.trace(W @ Y))
            assert diff == pytest.approx(expected, abs=1e-13)
            assert float(np.trace(W @ Y)) >= 0.0

    def test_reproducible(self):
        a = ham.check_degenerate_ellipticity(ham.example1(), 300, seed=9)
        b = ham.check_degenerate_ellipticity(ham.example1(), 300, seed=9)
        assert a == b
        assert jsonio.dumps(a.to_json_dict()) == jsonio.dumps(b.to_json_dict())


class TestGradientModulus:
    def test_p_independent_fits_zero(self):
        rep = ham.check_gradient_modulus(neg_trace(), 1.0, 500, seed=3)
        assert rep.fitted_modulus.shape == "linear"
        assert rep.fitted_modulus.coefficient == 0.0
        assert rep.passed

    def test_quadratic_fits_linear_below_2R(self):
        H = ham.HamiltonianSpec(
            "quad", 1, (-1.0, 1.0), 0.5,
            lambda x, t, u, p, X: -float(np.trace(X)) + float(p @ p),
        )
        rep = ham.check_gradient_modulus(H, 1.0, 3000, seed=4)
        assert rep.fitted_modulus.shape == "linear"
        # mean value bound: | |p|^2 - |q|^2 | <= 2 R |p - q|
        assert rep.fitted_modulus.coefficient <= 2.0 + 1e-9
        assert rep.passed

    def test_power_fixture_fits_power(self):
        rep = ham.check_gradient_modulus(ham.example2_power(0.5), 1.0, 4000, seed=5)
        assert rep.fitted_modulus.shape == "power"
        assert 0.35 <= rep.fitted_modulus.exponent <= 0.65
        assert rep.passed

    def test_rounding_noise_fits_zero(self):
        # the shift-sq transform of example1 does not depend on p; its
        # differences are rounding noise, which must not be fitted
        H1 = ham.example1()
        H = ham.transform_hamiltonian(H1, transform.shift_sq_gauge(H1.u_domain))
        for seed in range(1, 21):
            rep = ham.check_gradient_modulus(H, 2.0, 2000, seed)
            assert rep.fitted_modulus == ham.ModulusFamily("linear", 0.0), seed
            assert rep.passed


class TestStructureCp6:
    def test_coincident_corner_is_exactly_zero(self):
        zero = ham.ModulusFamily("linear", 0.0)
        rep = ham.check_structure_cp6(ham.example1(), 2.0, (zero, zero), 1, seed=0)
        assert rep.max_violation == 0.0

    def test_neg_trace_with_trace_modulus(self):
        # -tr(X + Y) >= -2 N eps3 under the matrix constraint, so the linear
        # nu2R at rate N dominates
        nu2 = ham.ModulusFamily("linear", 0.0)
        nu2R = ham.ModulusFamily("linear", 1.0)
        rep = ham.check_structure_cp6(neg_trace(), 2.0, (nu2, nu2R), 1500, seed=6)
        assert rep.passed, rep.max_violation

    def test_neg_trace_zero_moduli_bounded_by_trace_budget(self):
        # with both moduli zero the violation is exactly tr(X + Y), which the
        # constraint caps at 2 N eps3 <= 2 N R/8
        zero = ham.ModulusFamily("linear", 0.0)
        rep = ham.check_structure_cp6(neg_trace(), 2.0, (zero, zero), 1500, seed=6)
        assert rep.max_violation <= 2.0 * 1 * (2.0 / 8.0) + 1e-9

    def test_example1_passes(self):
        nu2 = ham.ModulusFamily("linear", 0.0)
        nu2R = ham.ModulusFamily("linear", 1.0)
        rep = ham.check_structure_cp6(ham.example1(), 2.0, (nu2, nu2R), 1500, seed=7)
        assert rep.passed, rep.max_violation

    def test_2d_passes(self):
        nu2 = ham.ModulusFamily("linear", 0.0)
        nu2R = ham.ModulusFamily("linear", 2.0)
        rep = ham.check_structure_cp6(neg_trace(dim=2), 2.0, (nu2, nu2R), 800, seed=8)
        assert rep.passed, rep.max_violation

    def test_spatial_dependence_without_modulus_is_detected(self):
        # an x-dependent drift with nu2 = 0 must produce real violations
        H = ham.HamiltonianSpec(
            "wavy", 1, (-1.0, 1.0), 0.5,
            lambda x, t, u, p, X: -float(np.trace(X)) + math.sin(3.0 * x[0]) * (abs(p[0]) + 1.0),
        )
        zero = ham.ModulusFamily("linear", 0.0)
        nu2R = ham.ModulusFamily("linear", 1.0)
        rep = ham.check_structure_cp6(H, 2.0, (zero, nu2R), 2000, seed=15)
        assert not rep.passed
        assert rep.max_violation > 0.1
        # and a sufficient linear rate restores the pass: 3 Lip(sin(3x)) = 3
        nu2 = ham.ModulusFamily("linear", 3.0)
        rep = ham.check_structure_cp6(H, 2.0, (nu2, nu2R), 2000, seed=15)
        assert rep.passed, rep.max_violation

    def test_reproducible(self):
        nu2 = ham.ModulusFamily("linear", 0.0)
        nu2R = ham.ModulusFamily("linear", 1.0)
        a = ham.check_structure_cp6(neg_trace(), 2.0, (nu2, nu2R), 400, seed=10)
        b = ham.check_structure_cp6(neg_trace(), 2.0, (nu2, nu2R), 400, seed=10)
        assert a == b


class TestOsgoodStructureCp7:
    def test_canonical_sample_is_exactly_zero(self):
        H = ham.example1()
        gauge = transform.shift_sq_gauge(H.u_domain)
        gamma, nu_hat = ham.example1_cp7_candidates(R=1.0)
        rep = ham.check_osgood_structure_cp7(H, gauge, gamma, nu_hat, 1.0, 1, seed=0)
        assert rep.max_violation == 0.0

    def test_example1_passes(self):
        H = ham.example1()
        gauge = transform.shift_sq_gauge(H.u_domain)
        gamma, nu_hat = ham.example1_cp7_candidates(R=2.0)
        rep = ham.check_osgood_structure_cp7(H, gauge, gamma, nu_hat, 2.0, 4000, seed=12)
        assert rep.passed, rep.max_violation

    def test_uncompensated_gauge_is_detected(self):
        # with z = 1 the quadratic term's u-dependence is not compensated
        # and the sampled inequality genuinely fails: the gauge is load-bearing
        H = ham.example1()
        gamma, nu_hat = ham.example1_cp7_candidates(R=2.0)
        rep = ham.check_osgood_structure_cp7(
            H, transform.unit_gauge(H.u_domain), gamma, nu_hat, 2.0, 2000, seed=13
        )
        assert not rep.passed
        assert rep.max_violation > 0.1

    def test_gamma_domain_precondition(self):
        H = ham.example1()
        gauge = transform.shift_sq_gauge(H.u_domain)
        from visc.osgood import OsgoodFunction

        short = OsgoodFunction("short", 0.1, lambda h: h)
        with pytest.raises(PreconditionError):
            ham.check_osgood_structure_cp7(
                H, gauge, short, ham.ModulusFamily("linear", 1.0), 1.0, 10, seed=0
            )

    def test_gauge_domain_mismatch(self):
        H = ham.example1()
        with pytest.raises(ConfigurationError):
            ham.check_osgood_structure_cp7(
                H,
                transform.unit_gauge((0.0, 0.05)),
                xlog(),
                ham.ModulusFamily("linear", 1.0),
                1.0,
                10,
                seed=0,
            )

    def test_reproducible(self):
        H = ham.example1()
        gauge = transform.shift_sq_gauge(H.u_domain)
        gamma, nu_hat = ham.example1_cp7_candidates(R=1.0)
        a = ham.check_osgood_structure_cp7(H, gauge, gamma, nu_hat, 1.0, 300, seed=21)
        b = ham.check_osgood_structure_cp7(H, gauge, gamma, nu_hat, 1.0, 300, seed=21)
        assert a == b
        c = ham.check_gradient_modulus(H, 1.0, 300, seed=21)
        d = ham.check_gradient_modulus(H, 1.0, 300, seed=21)
        assert c == d


class TestEllipticityProperty:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.floats(-0.45, 0.36),
        st.floats(-3.0, 3.0),
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_example1_monotone_in_hessian(self, u, p0, x0, a):
        # F(..., X + A^T A) <= F(..., X) for every PSD bump
        H = ham.example1()
        p = np.array([p0])
        X = np.array([[x0]])
        Y = np.array([[a * a]])
        hi = H.fn(np.zeros(1), 0.0, u, p, X + Y)
        lo = H.fn(np.zeros(1), 0.0, u, p, X)
        assert hi <= lo + 1e-12


class TestReportSerialization:
    def test_json_fields(self):
        rep = ham.check_degenerate_ellipticity(neg_trace(), 50, seed=1)
        d = rep.to_json_dict()
        assert set(d) == {"check", "samples", "max_violation", "worst_sample",
                          "fitted_modulus", "seed", "pass"}
        text = jsonio.dumps(d)
        assert '"pass"' in text

    def test_modulus_family_validation(self):
        with pytest.raises(ConfigurationError):
            ham.ModulusFamily("cubic", 1.0)
        with pytest.raises(ConfigurationError):
            ham.ModulusFamily("power", 1.0, exponent=1.5)
        m = ham.ModulusFamily("power", 2.0, exponent=0.5)
        assert m(0.25) == pytest.approx(1.0)
        assert m(0.0) == 0.0


def _stacked_draws(H, n, seed):
    rng = np.random.default_rng(seed)
    N = H.dim_state
    lo, hi = H.eval_interval
    x = rng.uniform(-2.0, 2.0, (n, N))
    t = rng.uniform(0.0, 0.99 * H.t_max, n)
    u = rng.uniform(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), n)
    p = rng.normal(0.0, 1.0, (n, N))
    A = rng.normal(0.0, 1.0, (n, N, N))
    return x, t, u, p, 0.5 * (A + np.swapaxes(A, 1, 2))


def _two_factor_model():
    from visc import mbs

    cfg = mbs.default_model().to_dict()
    cfg.update({
        "N": 2, "d": 1,
        "sigma": {"form": "constant", "params": {"matrix": [[0.4], [0.1]]}},
        "mu": {"form": "sinusoid",
               "params": {"amplitude": [0.1, 0.05], "wavevector": [[1.0, 0.0], [0.5, 1.0]]}},
        "h": {"form": "gaussian-bump",
              "params": {"amplitude": 0.5, "center": [0.0, 0.3], "width": 1.2,
                         "time_slope": 0.4}},
        "U0": {"form": "gaussian-bump",
               "params": {"amplitude": 0.25, "center": [0.0, 0.0], "width": 1.5}},
    })
    return mbs.model_from_dict(cfg)


def _batched_builtin(name):
    from visc import mbs

    if name == "dm2-desk":
        return mbs.dm2_hamiltonian(mbs.default_model())
    if name == "dm2-2d":
        return mbs.dm2_hamiltonian(_two_factor_model())
    if name == "example1~shift-sq":
        H = ham.example1()
        return ham.transform_hamiltonian(H, transform.shift_sq_gauge(H.u_domain))
    if name == "example2-power:0.3":
        return ham.example2_power(0.3)
    return {"example1": ham.example1, "example2-power": ham.example2_power,
            "example2-log": ham.example2_log}[name]()


class TestBatchedEvaluation:
    """Batched specs evaluate stacks of samples in one call; the result must
    be the per-sample result, and every checker must report the same for a
    batched spec and for the same fn declared pointwise."""

    @pytest.mark.parametrize(
        "name",
        ["example1", "example2-power", "example2-power:0.3", "example2-log",
         "dm2-desk", "dm2-2d", "example1~shift-sq"],
    )
    def test_stack_matches_per_sample_calls(self, name):
        H = _batched_builtin(name)
        assert H.batched
        x, t, u, p, X = _stacked_draws(H, 256, seed=31)
        stacked = H.fn(x, t, u, p, X)
        assert np.shape(stacked) == (256,)
        single = np.array([H.fn(x[k], t[k], u[k], p[k], X[k]) for k in range(256)])
        assert np.all(np.isfinite(single))
        np.testing.assert_allclose(stacked, single, rtol=1e-13, atol=1e-13)
        assert np.ndim(H.fn(x[0], float(t[0]), float(u[0]), p[0], X[0])) == 0

    @pytest.mark.parametrize("name", ["example1", "dm2-desk"])
    def test_checkers_agree_with_pointwise_form(self, name):
        from dataclasses import replace

        from visc import mbs

        H = _batched_builtin(name)
        P = replace(H, batched=False)
        if name == "example1":
            cand6 = (ham.ModulusFamily("linear", 0.0), ham.ModulusFamily("linear", 1.0))
            gauge = transform.shift_sq_gauge(H.u_domain)
            gamma, nu_hat = ham.example1_cp7_candidates(2.0)
        else:
            m = mbs.default_model()
            cand6 = mbs.cp6_candidates(m)
            gamma, nu_hat, gauge = mbs.cp7_candidates(m, 2.0)
        checks = [
            lambda G: ham.check_degenerate_ellipticity(G, 300, seed=23),
            lambda G: ham.check_gradient_modulus(G, 2.0, 300, seed=23),
            lambda G: ham.check_structure_cp6(G, 2.0, cand6, 300, seed=23),
            lambda G: ham.check_osgood_structure_cp7(G, gauge, gamma, nu_hat, 2.0, 300, seed=23),
        ]
        for check in checks:
            a, b = check(H), check(P)
            assert a == b
            assert a.details == b.details
            assert jsonio.dumps(a.to_json_dict()) == jsonio.dumps(b.to_json_dict())

    def test_cp6_attempts_count_tested_candidates(self):
        zero = ham.ModulusFamily("linear", 0.0)
        rep = ham.check_structure_cp6(ham.example1(), 2.0, (zero, zero), 500, seed=4)
        # rows 0 and 1 are the deterministic corners; every other row tests
        # at least one candidate and accepts at most one
        assert rep.details["accepts"] <= 498 <= rep.details["attempts"]

    def test_cp6_rejecting_everything_raises(self, monkeypatch):
        from visc.errors import SamplingError

        monkeypatch.setattr(
            ham, "_cp5_accepts", lambda X, Y, e1, e2, e3: np.zeros(len(X), dtype=bool)
        )
        zero = ham.ModulusFamily("linear", 0.0)
        with pytest.raises(SamplingError):
            ham.check_structure_cp6(ham.example1(), 2.0, (zero, zero), 20, seed=1)


class TestReportRule:
    """Every checker reports the first sample of largest violation: when all
    samples tie, that is row 0, whatever the checker draws."""

    @pytest.mark.parametrize("batched", [False, True])
    def test_ties_report_row_zero(self, batched):
        first = []

        def zero(x, t, u, p, X):
            if not first:
                first.append((np.copy(x), np.copy(t), np.copy(u)))
            return np.zeros(np.shape(u)) if batched else 0.0

        zero_mod = ham.ModulusFamily("linear", 0.0)
        checks = [
            lambda H: ham.check_degenerate_ellipticity(H, 50, seed=3),
            lambda H: ham.check_gradient_modulus(H, 2.0, 50, seed=3),
            lambda H: ham.check_structure_cp6(H, 2.0, (zero_mod, zero_mod), 50, seed=3),
            lambda H: ham.check_osgood_structure_cp7(
                H, transform.unit_gauge((0.0, 1.0)), linear(0.0), zero_mod, 2.0, 50, seed=3),
        ]
        for check in checks:
            first.clear()
            H = ham.HamiltonianSpec("zero", 2, (0.0, 1.0), 0.5, zero, batched=batched)
            rep = check(H)
            x, t, u = first[0]
            if batched:
                x, t, u = x[0], t[0], u[0]
            assert rep.max_violation == 0.0 and rep.passed, rep.check
            assert rep.worst_sample["x"] == x.tolist(), rep.check
            assert rep.worst_sample["t"] == float(t), rep.check
            assert rep.worst_sample["u"] == float(u), rep.check
            assert all(type(v) in (float, list) for v in rep.worst_sample.values()), rep.check


class TestNanModulus:
    """An F that is NaN on enough samples leaves no envelope to fit; the
    gradient-modulus check then reports as the other checkers do."""

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("where", ["everywhere", "p0-above-1"])
    def test_nan_fails_the_check(self, where, dim, batched):
        def fn(x, t, u, p, X):
            p0 = np.asarray(p)[..., 0]
            val = np.where(p0 > 1.0, np.nan, p0) if where == "p0-above-1" else p0 * np.nan
            return val if batched else float(val)

        H = ham.HamiltonianSpec(where, dim, (0.0, 1.0), 0.5, fn, batched=batched)
        rep = ham.check_gradient_modulus(H, 2.0, 300, seed=1)
        assert math.isnan(rep.max_violation) and not rep.passed
