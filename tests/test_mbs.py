import math

import numpy as np
import pytest

from visc import forms, mbs, osgood, solver, transform
from visc.errors import ConfigurationError, DomainError, ModelError, PreconditionError


def constants_model(h0=0.0, u0=0.0, r0=0.0, tau=1.0, sigma=1.0, xi=1.0, rho=0.5, T=1.0):
    h_spec = {"form": "zero", "params": {}} if h0 == 0.0 else {
        "form": "constant", "params": {"value": h0}}
    u_spec = {"form": "zero", "params": {}} if u0 == 0.0 else {
        "form": "constant", "params": {"value": u0}}
    return mbs.model_from_dict(
        {
            "N": 1, "d": 1,
            "sigma": {"form": "constant", "params": {"matrix": [[sigma]]}},
            "mu": {"form": "zero", "params": {}},
            "r": {"form": "constant", "params": {"value": r0}},
            "xi": {"form": "constant", "params": {"value": xi}},
            "h": h_spec,
            "rho": rho, "tau": tau, "T": T,
            "U0": u_spec,
        }
    )


def many_factor_bump_model(n: int) -> dict:
    """The desk model on n uncorrelated factors with a gaussian-bump h."""
    return mbs.default_model().to_dict() | {
        "N": n, "d": n,
        "sigma": {"form": "constant", "params": {"matrix": (0.3 * np.eye(n)).tolist()}},
        "mu": {"form": "zero", "params": {}},
        "h": {"form": "gaussian-bump",
              "params": {"amplitude": 0.5, "center": [0.0] * n, "width": 1.0}},
        "U0": {"form": "zero", "params": {}},
    }


PROFILE_SPECS = {
    "gaussian-bump": lambda rng, n: {"amplitude": 0.5, "center": rng.normal(0.0, 0.5, n).tolist(),
                                     "width": 1.2},
    "rational-bump": lambda rng, n: {"amplitude": 0.7, "center": rng.normal(0.0, 0.5, n).tolist()},
    "cosine": lambda rng, n: {"amplitude": -0.9, "wavevector": rng.uniform(0.5, 1.5, n).tolist()},
}


class TestForms:
    @pytest.mark.parametrize(
        "spec",
        [
            {"form": "gaussian-bump", "params": {"amplitude": 0.5, "center": [0.3], "width": 1.2}},
            {"form": "rational-bump", "params": {"amplitude": 0.7, "center": [-0.2]}},
            {"form": "cosine", "params": {"amplitude": 0.9, "wavevector": [1.3]}},
        ],
        ids=lambda s: s["form"],
    )
    def test_grad_and_hess_match_finite_differences(self, spec):
        f = forms.field_form(spec, 1)
        eps = 1e-5
        for x0 in np.linspace(-2.0, 2.0, 11):
            x = np.array([x0])
            g_fd = (f.value(np.array([x0 + eps])) - f.value(np.array([x0 - eps]))) / (2 * eps)
            assert f.grad(x)[0] == pytest.approx(float(g_fd), rel=1e-6, abs=1e-8)
            h_fd = (
                f.value(np.array([x0 + eps]))
                - 2 * f.value(x)
                + f.value(np.array([x0 - eps]))
            ) / eps**2
            assert f.hess(x)[0, 0] == pytest.approx(float(h_fd), rel=1e-4, abs=1e-6)

    def test_gaussian_2d_hessian_symmetry(self):
        f = forms.field_form(
            {"form": "gaussian-bump", "params": {"amplitude": 1.0, "center": [0.0, 0.5], "width": 0.8}},
            2,
        )
        x = np.array([0.3, -0.4])
        H = f.hess(x)
        assert H.shape == (2, 2)
        assert H[0, 1] == pytest.approx(H[1, 0], rel=1e-14)

    def test_declared_bounds_dominate_samples(self):
        f = forms.field_form(
            {"form": "gaussian-bump", "params": {"amplitude": 0.5, "center": [0.0], "width": 1.0}},
            1,
        )
        b = f.bounds(1.0)
        xs = np.linspace(-8.0, 8.0, 2001)[:, None]
        vals = f.value(xs)
        grads = np.abs(f.grad(xs)[:, 0])
        hesses = np.abs(f.hess(xs)[:, 0, 0])
        assert vals.max() <= b["sup"] + 1e-12
        assert grads.max() <= b["grad_sup"] + 1e-12
        assert hesses.max() <= b["lip_grad"] + 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("form", sorted(PROFILE_SPECS))
    def test_lip_hess_bounds_third_derivative_samples(self, form, n):
        # D^3 phi(x)[e, e, e] by central differences of the analytic Hessian
        rng = np.random.default_rng(n)
        profile = forms.field_form({"form": form, "params": PROFILE_SPECS[form](rng, n)}, n).profile
        if n == 1:
            x = np.linspace(-6.0, 6.0, 24001)[:, None]
            e = np.ones_like(x)
        else:
            x = rng.normal(0.0, 1.5, (20000, n))
            e = rng.normal(0.0, 1.0, (20000, n))
            e /= np.linalg.norm(e, axis=-1, keepdims=True)
        eps = 1e-4

        def second(y):
            return np.einsum("...i,...ij,...j->...", e, profile.hess(y), e)

        d3 = np.abs(second(x + eps * e) - second(x - eps * e)) / (2.0 * eps)
        assert d3.max() <= profile.lip_hess * (1.0 + 1e-6)
        if n == 1:
            assert d3.max() >= 0.999 * profile.lip_hess

    @pytest.mark.parametrize("form", ["zero", "constant"])
    def test_flat_profiles_have_no_third_derivative(self, form):
        params = {"value": 0.3} if form == "constant" else {}
        assert forms.field_form({"form": form, "params": params}, 2).profile.lip_hess == 0.0

    def test_time_factor(self):
        f = forms.field_form(
            {"form": "constant", "params": {"value": 2.0, "time_slope": 0.5}}, 1
        )
        x = np.array([0.0])
        assert float(f.value(x, 1.0)) == pytest.approx(3.0)
        assert float(f.dt(x)) == pytest.approx(1.0)

    @pytest.mark.parametrize("intercept, slope", [(0.03, 0.04), (0.1, -0.7 / 3.0), (1.0, 0.2)])
    def test_scalar_time_matches_the_array_path(self, intercept, slope):
        # a Python-float t stays in float arithmetic, and must round exactly as a 0-d array t
        T = 1.7
        r = forms.TimeForm("affine", intercept, slope)
        h = forms.field_form({"form": "constant", "params": {"value": 1.0, "time_slope": slope}}, 1)
        for t in np.linspace(0.0, T, 1000).tolist():
            assert type(r(t)) is float and type(h.time_factor(t)) is float
            assert r(t) == float(r(np.asarray(t)))
            assert h.time_factor(t) == float(h.time_factor(np.asarray(t)))

    def test_sinusoid_mu_bounds(self):
        mu = forms.vector_form(
            {"form": "sinusoid", "params": {"amplitude": [0.05], "wavevector": [[2.0]]}}, 1
        )
        xs = np.linspace(-5, 5, 500)[:, None]
        vals = mu.value(xs)
        assert np.abs(vals).max() <= mu.sup_norm + 1e-12
        quot = np.abs(np.diff(vals[:, 0])) / np.diff(xs[:, 0])
        assert quot.max() <= mu.lip + 1e-9

    def test_unknown_form_rejected(self):
        with pytest.raises(ConfigurationError):
            forms.field_form({"form": "spline", "params": {}}, 1)


class TestModelFile:
    def test_bounds_override_refused(self):
        cfg = mbs.default_model().to_dict()
        cfg["bounds"] = {"g_lip": 0.0}
        with pytest.raises(ConfigurationError, match="bounds"):
            mbs.model_from_dict(cfg)

    def test_empty_bounds_loads(self):
        cfg = mbs.default_model().to_dict()
        assert "bounds" not in cfg
        with_empty = mbs.model_from_dict(cfg | {"bounds": {}})
        assert with_empty.bounds() == mbs.model_from_dict(cfg).bounds()

    def test_unknown_field_refused(self):
        cfg = mbs.default_model().to_dict() | {"Rho": 5.0}
        with pytest.raises(ConfigurationError, match="unknown field 'Rho'"):
            mbs.model_from_dict(cfg)

    @pytest.mark.parametrize("key", ["rho", "N", "h"])
    def test_bad_value_named_by_field(self, key):
        cfg = mbs.default_model().to_dict()
        cfg[key] = "x" if key != "h" else {"form": "constant", "params": {"value": "x"}}
        with pytest.raises(ConfigurationError, match=f"field '{key}'"):
            mbs.model_from_dict(cfg)

    @pytest.mark.parametrize("n", [4, 5])
    def test_many_factor_bump_bounds_are_closed_form(self, n):
        # tr(sigma sigma^T) = 0.09 n times the bump's sup |D^3 h|, with no mesh
        b = mbs.model_from_dict(many_factor_bump_model(n)).bounds()
        d3 = math.sqrt(6.0 * (3.0 - math.sqrt(6.0))) * math.exp(-(3.0 - math.sqrt(6.0)) / 2.0)
        assert b["lip_hess_trace_h"] == pytest.approx(0.09 * n * 0.5 * d3, rel=1e-14)

    def test_negative_rho_refused(self):
        # the Hamiltonian, the barriers and the solver's denominator floor
        # all assume rho >= 0
        cfg = mbs.default_model().to_dict() | {"rho": -0.5}
        with pytest.raises(ConfigurationError, match="field 'rho': -0.5"):
            mbs.model_from_dict(cfg)


class TestLowerBarrier:
    def test_zero_data_zero_barrier(self):
        m = constants_model()
        for t in np.linspace(0.0, 0.99, 37):
            assert mbs.lower_barrier(m, float(t)) == 0.0

    def test_constant_h_zero_rate(self):
        # k_lower(t) = tau h0 t
        m = constants_model(h0=0.3)
        for t in np.linspace(0.0, 0.999, 1000):
            assert mbs.lower_barrier(m, float(t)) == pytest.approx(
                1.0 * 0.3 * t, abs=1e-10
            )

    def test_constant_h_constant_rate(self):
        # ODE y' = -r0 y + (tau - r0) h0, y(0) = u0
        r0, h0, u0, tau = 0.05, 0.3, 0.2, 1.0
        m = constants_model(h0=h0, u0=u0, r0=r0, tau=tau)
        for t in np.linspace(0.0, 0.999, 500):
            expected = math.exp(-r0 * t) * u0 + (tau - r0) * h0 * (
                1.0 - math.exp(-r0 * t)
            ) / r0
            assert mbs.lower_barrier(m, float(t)) == pytest.approx(expected, abs=1e-8)

    def test_domain_error(self):
        m = constants_model()
        with pytest.raises(Exception):
            mbs.lower_barrier(m, 1.5)


class TestUpperBarrier:
    def test_zero_data(self):
        m = constants_model()
        pair = mbs.barrier_pair(m)
        assert pair.c0 == 0.0
        assert pair.K0 == 0.0
        assert mbs.upper_barrier(m, 0.5) == 0.0

    def test_constant_h_closed_form(self):
        # c0 = sup k_lower = tau h0 T = h0; K0 = tau h0; k_upper = h0 (t + 1)
        h0 = 0.3
        m = constants_model(h0=h0)
        pair = mbs.barrier_pair(m)
        assert pair.c0 == pytest.approx(h0, abs=1e-9)
        assert pair.K0 == pytest.approx(h0, abs=1e-9)
        for t in np.linspace(0.0, 0.999, 100):
            assert mbs.upper_barrier(m, float(t)) == pytest.approx(
                h0 * (t + 1.0), abs=1e-8
            )

    def test_c0_dominates_initial_sup(self):
        for m in (constants_model(u0=0.4), mbs.default_model(), constants_model(h0=0.2)):
            pair = mbs.barrier_pair(m)
            assert pair.k_upper(0.0) >= m.bounds()["u0_sup"] - 1e-12

    def test_ordering_on_time_grid(self):
        for m in (constants_model(h0=0.3, r0=0.04, u0=0.1), mbs.default_model()):
            pair = mbs.barrier_pair(m)
            for t in np.linspace(0.0, m.T * 0.999, 1000):
                assert pair.k_lower(float(t)) <= pair.k_upper(float(t)) + 1e-12


# ---------------------------------------------------------------------------
# reference implementations: the barriers by adaptive quadrature and the
# sampled checks as per-sample loops, as computed before the barrier table


def desk_variant(**over):
    cfg = mbs.default_model().to_dict()
    cfg.update(over)
    return mbs.model_from_dict(cfg)


REFERENCE_MODELS = {
    "constant-r": lambda: constants_model(h0=0.3, u0=0.2, r0=0.05),
    "r-above-tau": lambda: desk_variant(
        h={"form": "rational-bump", "params": {"amplitude": 0.4, "center": [0.5]}},
        r={"form": "constant", "params": {"value": 0.06}}, tau=0.04, rho=1.2),
    # tau - r(s) changes sign at s* = 0.45, a kink of the integrand off the
    # equal-panel grid
    "affine-r-crossing": lambda: desk_variant(
        r={"form": "affine", "params": {"intercept": 0.02, "slope": 0.1}}, tau=0.065),
    "time-sloped-h": lambda: desk_variant(
        h={"form": "gaussian-bump", "params": {
            "amplitude": 0.5, "center": [0.0], "width": 1.0, "time_slope": 0.4}}),
    "zero-h": lambda: desk_variant(
        h={"form": "zero", "params": {}},
        r={"form": "affine", "params": {"intercept": 0.03, "slope": 0.02}}),
}


def _kinks(m):
    roots = []
    if m.r.slope:
        roots.append((m.tau - m.r.intercept) / m.r.slope)
    if m.h.time_slope:
        roots.append(-1.0 / m.h.time_slope)
    return [s for s in roots if 0.0 < s < m.T]


def _scalar_inf_source(m, s):
    c = m.tau - float(m.r(s))
    return c * float(m.h.inf_at(s)) if c >= 0.0 else c * float(m.h.sup_at(s))


def _scalar_sup_source(m, s):
    c = m.tau - float(m.r(s))
    return c * float(m.h.sup_at(s)) if c >= 0.0 else c * float(m.h.inf_at(s))


def quad_k_lower(m, t):
    """k_lower(t) by adaptive quadrature, with the kinks as break points."""
    from scipy.integrate import quad

    R = m.r.antiderivative
    pts = [s for s in _kinks(m) if s < t] or None
    integral = quad(
        lambda s: math.exp(float(R(s))) * _scalar_inf_source(m, s), 0.0, t,
        points=pts, epsabs=1e-14, epsrel=1e-14, limit=200,
    )[0]
    return math.exp(-float(R(t))) * (float(m.U0.inf_at(0.0)) + integral)


def scalar_refine_max(fn, lo, hi, n):
    xs = np.linspace(lo, hi, n)
    vals = np.array([fn(x) for x in xs])
    k = int(np.argmax(vals))
    a, b = xs[max(k - 1, 0)], xs[min(k + 1, n - 1)]
    for _ in range(80):
        m1, m2 = a + (b - a) / 3.0, b - (b - a) / 3.0
        if fn(m1) < fn(m2):
            a = m1
        else:
            b = m2
    return max(float(vals[k]), float(fn(0.5 * (a + b))))


def quad_barrier_constants(m):
    """(K0, c0, m0, M0) with scalar scans of the quadrature k_lower."""
    T = m.T
    c0 = max(m.bounds()["u0_sup"], scalar_refine_max(lambda t: quad_k_lower(m, t), 0.0, T, 1001))

    def k0_integrand(t):
        r = float(m.r(t))
        return max(_scalar_sup_source(m, t) - c0 * r, 0.0) / (1.0 + t * r)

    K0 = max(scalar_refine_max(k0_integrand, 0.0, T, 1001), 0.0)
    m0 = -scalar_refine_max(
        lambda t: -(quad_k_lower(m, t) + float(m.h.inf_at(t)) + float(m.xi(t))), 0.0, T, 1001)
    sup_hxi = scalar_refine_max(lambda t: float(m.h.sup_at(t)) + float(m.xi(t)), 0.0, T, 1001)
    return K0, c0, m0, K0 * T + c0 + sup_hxi


def loop_validate_model(m, n_samples, seed, k_lower):
    """validate_model as one Python pass per sample."""
    rng = np.random.default_rng(seed)
    b = m.bounds()
    lo, hi = m.scan_box()
    tol = 1e-9
    failures = {}

    def record(name, excess):
        if excess > tol:
            failures[name] = max(failures.get(name, 0.0), excess)

    xs = rng.uniform(lo, hi, (n_samples, m.dim_state))
    ys = xs + rng.normal(0.0, 0.5, (n_samples, m.dim_state))
    ts = rng.uniform(0.0, m.T * (1.0 - 1e-12), n_samples)
    ss = rng.uniform(0.0, m.T * (1.0 - 1e-12), n_samples)
    worst, worst_sample, dt_rate = -math.inf, {}, 0.0
    for i in range(n_samples):
        x, y, t, s = xs[i], ys[i], float(ts[i]), float(ss[i])
        dxy = float(np.linalg.norm(x - y))
        mu_x, mu_y = m.mu.value(x), m.mu.value(y)
        record("P1:mu-bounded", float(np.linalg.norm(mu_x)) - b["mu_sup"])
        hx = float(m.h.value(x, t))
        record("P2:h-nonnegative", -hx)
        record("P2:h-bounded", hx - b["h_sup"])
        record("P2:grad-h-bounded", float(np.linalg.norm(m.h.grad(x, t))) - b["grad_h_sup"])
        u0x = float(m.U0.value(x))
        record("P3:U0-nonnegative", -u0x)
        record("P3:U0-bounded", u0x - b["u0_sup"])
        if dxy > 1e-9:
            record("P1:mu-lipschitz", float(np.linalg.norm(mu_x - mu_y)) / dxy - b["mu_lip"])
            record("P2:grad-h-lipschitz",
                   float(np.linalg.norm(m.h.grad(x, t) - m.h.grad(y, t))) / dxy
                   - b["lip_grad_h"])
            record("P2:dt-h-lipschitz",
                   abs(float(m.h.dt(x)) - float(m.h.dt(y))) / dxy - b["lip_dt_h"])
            record("P3:U0-lipschitz",
                   abs(u0x - float(m.U0.value(y))) / dxy - b["u0_lip"])
        if abs(t - s) > 1e-9:
            dt_rate = max(dt_rate, abs(hx - float(m.h.value(x, s))) / abs(t - s))
        xi_t = float(m.xi(t))
        record("P2:xi-positive", max(-xi_t, 1e-6) if xi_t <= 0.0 else -1.0)
        v_xi = xi_t + hx + k_lower(t)
        record("XI:positivity", max(-v_xi, 1e-6) if v_xi <= 0.0 else -1.0)
        local = max(failures.values()) if failures else -v_xi
        if local > worst:
            worst, worst_sample = local, {"x": x.tolist(), "t": t}
    record("P2:rho-positive", 1.0 if m.rho <= 0.0 else -1.0)
    record("P2:tau-positive", 1.0 if m.tau <= 0.0 else -1.0)
    record("dt-h:linear-envelope", dt_rate - b["dt_h_sup"] - tol)
    max_violation = max(failures.values()) if failures else 0.0
    return sorted(failures), max_violation, worst_sample if failures else {}, dt_rate


def loop_barrier_residuals(m, n_samples, seed, K0, c0):
    """barrier_residuals as one draw and one evaluation per sample."""
    rng = np.random.default_rng(seed)
    lo, hi = m.scan_box()
    worst_sub, worst_super, worst_sample = -math.inf, math.inf, {}
    for _ in range(n_samples):
        x = rng.uniform(lo, hi, m.dim_state)
        t = float(rng.uniform(0.0, m.T * (1.0 - 1e-12)))
        r = float(m.r(t))
        hx = float(m.h.value(x, t))
        res_sub = _scalar_inf_source(m, t) - (m.tau - r) * hx
        res_super = K0 * (1.0 + t * r) + c0 * r - (m.tau - r) * hx
        if res_sub > worst_sub:
            worst_sub, worst_sample = res_sub, {"x": x.tolist(), "t": t, "side": "sub"}
        worst_super = min(worst_super, res_super)
    return worst_sub, worst_super, worst_sample


class TestBarrierTable:
    @pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
    def test_k_lower_matches_quadrature(self, name):
        m = REFERENCE_MODELS[name]()
        if name == "affine-r-crossing":
            assert _kinks(m) == [pytest.approx(0.45)]
        ts = np.concatenate((np.linspace(0.0, m.T * (1.0 - 1e-9), 97), _kinks(m)))
        expected = np.array([quad_k_lower(m, float(t)) for t in ts])
        got = mbs.lower_barrier(m, ts)
        assert got.shape == ts.shape
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)
        for t, k in zip(ts[::8], got[::8]):
            single = mbs.lower_barrier(m, float(t))
            assert isinstance(single, float)
            assert single == pytest.approx(float(k), rel=0.0, abs=1e-16)

    @pytest.mark.parametrize("name", ["constant-r", "r-above-tau", "affine-r-crossing",
                                      "time-sloped-h"])
    def test_constants_match_quadrature_path(self, name):
        m = REFERENCE_MODELS[name]()
        pair = mbs.barrier_pair(m)
        K0, c0, m0, M0 = quad_barrier_constants(m)
        assert abs(pair.K0 - K0) <= 1e-13
        assert abs(pair.c0 - c0) <= 1e-13
        assert abs(pair.m0 - m0) <= 1e-13
        assert abs(pair.M0 - M0) <= 1e-13

    @pytest.mark.parametrize("h_slope, xi_slope", [(0.4, -0.3), (-0.5, 0.2)])
    def test_M0_reads_the_endpoints_of_an_affine_sup(self, h_slope, xi_slope):
        # sup_x h + xi is affine in t, so its sup by refine_max is an endpoint
        m = desk_variant(
            r={"form": "affine", "params": {"intercept": 0.02, "slope": 0.05}},
            xi={"form": "affine", "params": {"intercept": 1.0, "slope": xi_slope}},
            h={"form": "gaussian-bump", "params": {
                "amplitude": 0.5, "center": [0.0], "width": 1.0, "time_slope": h_slope}})
        pair = mbs.barrier_pair(m)
        sup_hxi = osgood.refine_max(lambda t: m.h.sup_at(t) + m.xi(t), 0.0, m.T, 1001)
        assert type(pair.M0) is float
        assert pair.M0 == pair.K0 * m.T + pair.c0 + sup_hxi

    def test_array_domain_and_upper_barrier(self):
        m = mbs.default_model()
        pair = mbs.barrier_pair(m)
        with pytest.raises(DomainError):
            pair.k_lower(np.array([0.2, m.T]))
        with pytest.raises(DomainError):
            pair.k_upper(np.array([-1e-3, 0.2]))
        ts = np.linspace(0.0, 0.99, 5)
        np.testing.assert_array_equal(pair.k_upper(ts), pair.K0 * ts + pair.c0)


def desk_draw(seed):
    """A desk-family model: rates, risk aversion, volatility and both bumps
    drawn uniformly around the README desk model."""
    rng = np.random.default_rng(seed)

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    return desk_variant(
        sigma={"form": "constant", "params": {"matrix": [[u(0.3, 0.5)]]}},
        r={"form": "constant", "params": {"value": u(0.01, 0.08)}},
        tau=u(0.02, 0.08), rho=u(0.2, 1.0),
        h={"form": "gaussian-bump", "params": {
            "amplitude": u(0.2, 0.8), "center": [0.0], "width": u(0.7, 1.4)}},
        U0={"form": "gaussian-bump", "params": {
            "amplitude": u(0.1, 0.4), "center": [0.0], "width": u(1.0, 2.0)}})


def desk_2d_model():
    """The desk model on two factors, diffusion on both axes."""
    return desk_variant(
        N=2, d=2,
        sigma={"form": "constant", "params": {"matrix": [[0.4, 0.0], [0.0, 0.3]]}},
        mu={"form": "sinusoid", "params": {
            "amplitude": [0.05, 0.05], "wavevector": [[1.0, 0.0], [0.0, 1.0]]}},
        h={"form": "gaussian-bump", "params": {
            "amplitude": 0.5, "center": [0.0, 0.0], "width": 1.0}},
        U0={"form": "gaussian-bump", "params": {
            "amplitude": 0.25, "center": [0.0, 0.0], "width": 1.5}})


# desk_draw(1) has r > tau
END_POINT_MODELS = {
    "default": mbs.default_model,
    "heat": mbs.heat_model,
    "desk-2d": desk_2d_model,
    **{f"desk-draw-{s}": (lambda s=s: desk_draw(s)) for s in (1, 2, 3, 4)},
    **REFERENCE_MODELS,
}


class TestBarrierEndPoints:
    @pytest.mark.parametrize("name", sorted(END_POINT_MODELS))
    def test_constants_equal_the_ten_zoom_search(self, name, monkeypatch):
        from test_osgood import ten_zoom_refine_max

        m = END_POINT_MODELS[name]()
        if name == "desk-draw-1":
            assert m.r.max_on(m.T) > m.tau
        pair = mbs.barrier_pair(m)
        monkeypatch.setattr(mbs, "refine_max", ten_zoom_refine_max)
        want = mbs.barrier_pair(END_POINT_MODELS[name]())
        assert (pair.K0, pair.c0, pair.m0, pair.M0) == (want.K0, want.c0, want.m0, want.M0)

    def test_desk_constants_take_six_scans(self, monkeypatch):
        # c0, K0 and m0 each peak at t = 0 or t = T on the desk model
        calls = []

        def counted(fn, lo, hi, n):
            return osgood.refine_max(lambda t: calls.append(t) or fn(t), lo, hi, n)

        monkeypatch.setattr(mbs, "refine_max", counted)
        mbs.barrier_pair(mbs.default_model())
        assert len(calls) == 6


def derived_constants(m):
    """bounds(), the regularity constants and the rates of the candidate moduli."""
    rd = mbs.regularity_constant(m)
    out = m.bounds() | rd.constants | {"C": rd.C}
    nu2, nu2R = mbs.cp6_candidates(m)
    out |= {"nu2": nu2.coefficient, "nu2R": nu2R.coefficient}
    if m.rho > 0.0:
        gamma, nu_hat, _ = mbs.cp7_candidates(m, 2.0)
        out |= {"gamma": gamma.fn(1.0), "nu_hat": nu_hat.coefficient}
    return out


class TestSignedCoefficients:
    @pytest.mark.parametrize("rho", [0.5, 0.0])
    def test_negative_rate_enters_as_its_magnitude(self, rho):
        # |g| = |r xi| = 0.5 with h = 0 and xi = 1
        m = desk_variant(r={"form": "constant", "params": {"value": -0.5}},
                         h={"form": "zero", "params": {}}, rho=rho)
        b = m.bounds()
        assert b["r_max"] == -0.5
        assert b["g_sup"] == 0.5
        lip_f = mbs.regularity_constant(m).constants["lip_f"]
        # m0 = 1: k_lower = 0, so Lip_v f = 1.05 (2 |g| / m0 + |r|) for rho > 0
        assert lip_f == (1.05 * (0.5 * 2.0 + 0.5) if rho > 0.0 else 0.5)

    def test_negative_tau_enters_as_its_magnitude(self):
        b, b_neg = mbs.default_model().bounds(), desk_variant(tau=-0.06).bounds()
        assert (b_neg["g_sup"], b_neg["g_lip"]) == (b["g_sup"], b["g_lip"])

    @pytest.mark.parametrize("name", sorted(END_POINT_MODELS))
    def test_nonnegative_rates_keep_every_constant(self, name, monkeypatch):
        # with r >= 0, xi > 0 and tau > 0 the magnitudes are the signed values
        m = END_POINT_MODELS[name]()
        got = derived_constants(m)
        monkeypatch.setattr(forms.TimeForm, "abs_max_on", forms.TimeForm.max_on)
        assert got == derived_constants(END_POINT_MODELS[name]())


class TestBatchedChecksMatchLoops:
    MODELS = {
        "default": mbs.default_model,
        "heat": mbs.heat_model,
        "r-above-tau": REFERENCE_MODELS["r-above-tau"],
        "time-sloped-h": REFERENCE_MODELS["time-sloped-h"],
        "2d": lambda: desk_variant(
            N=2, d=2,
            sigma={"form": "constant", "params": {"matrix": [[0.4, 0.0], [0.1, 0.3]]}},
            mu={"form": "sinusoid", "params": {
                "amplitude": [0.05, 0.03], "wavevector": [[1.0, 0.0], [0.5, 1.0]]}},
            h={"form": "gaussian-bump", "params": {
                "amplitude": 0.5, "center": [0.0, 0.3], "width": 1.0, "time_slope": 0.2}},
            U0={"form": "gaussian-bump", "params": {
                "amplitude": 0.25, "center": [0.0, 0.0], "width": 1.5}}),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_validate_model_matches_loop(self, name):
        m = self.MODELS[name]()
        rep = mbs.validate_model(m, 400, seed=13)
        failures, max_violation, worst_sample, dt_rate = loop_validate_model(
            m, 400, 13, lambda t: quad_k_lower(m, t))
        assert rep.details["failures"] == failures
        assert rep.passed == (not failures)
        assert rep.worst_sample == worst_sample
        assert rep.max_violation == pytest.approx(max_violation, rel=0.0, abs=1e-13)
        assert rep.details["dt_h_fitted_rate"] == pytest.approx(dt_rate, rel=0.0, abs=1e-13)
        if name == "heat":
            assert worst_sample and "P3:U0-nonnegative" in failures

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_barrier_residuals_match_loop(self, name):
        m = self.MODELS[name]()
        pair = mbs.barrier_pair(m)
        rep = mbs.barrier_residuals(m, 500, seed=17)
        worst_sub, worst_super, worst_sample = loop_barrier_residuals(
            m, 500, 17, pair.K0, pair.c0)
        assert rep.worst_sample == worst_sample
        assert rep.passed == (max(worst_sub, -worst_super) <= 1e-8)
        assert rep.details["max_residual_sub"] == pytest.approx(worst_sub, rel=0.0, abs=1e-13)
        assert rep.details["min_residual_super"] == pytest.approx(
            worst_super, rel=0.0, abs=1e-13)

    def test_checks_need_a_sample(self):
        m = mbs.default_model()
        with pytest.raises(PreconditionError):
            mbs.validate_model(m, 0, seed=1)
        with pytest.raises(PreconditionError):
            mbs.barrier_residuals(m, 0, seed=1)


class TestBarrierResiduals:
    def test_constant_h_residuals_vanish(self):
        rep = mbs.barrier_residuals(constants_model(h0=0.3), 2000, seed=1)
        assert rep.passed
        assert rep.details["max_residual_sub"] == pytest.approx(0.0, abs=1e-12)
        assert rep.details["min_residual_super"] == pytest.approx(0.0, abs=1e-10)

    def test_desk_model_residuals(self):
        rep = mbs.barrier_residuals(mbs.default_model(), 4000, seed=2)
        assert rep.passed
        assert rep.details["max_residual_sub"] <= 1e-8
        assert rep.details["min_residual_super"] >= -1e-8

    def test_worst_sample_is_on_the_side_of_max_violation(self):
        # with r = 0 the upper residual K0 - tau h at the bump's peak comes
        # nearer zero than any lower residual
        cfg = mbs.default_model().to_dict() | {
            "h": {"form": "rational-bump", "params": {"amplitude": 0.5}},
            "r": {"form": "constant", "params": {"value": 0.0}},
        }
        m = mbs.model_from_dict(cfg)
        rep = mbs.barrier_residuals(m, 2000, seed=7)
        assert rep.max_violation == -rep.details["min_residual_super"]
        assert rep.max_violation > rep.details["max_residual_sub"]
        assert rep.worst_sample["side"] == "super"
        x, t = np.array([rep.worst_sample["x"]]), rep.worst_sample["t"]
        residual = mbs.barrier_pair(m).K0 - m.tau * float(m.h.value(x, t)[0])
        assert residual == pytest.approx(-rep.max_violation, rel=1e-12)


class TestValidateModel:
    def test_constants_model_passes(self):
        rep = mbs.validate_model(constants_model(sigma=1.0), 800, seed=3)
        assert rep.passed, rep.details["failures"]

    def test_zero_xi_fails_positivity(self):
        m = constants_model(xi=0.0)
        rep = mbs.validate_model(m, 400, seed=4)
        assert not rep.passed
        assert any(f.startswith("XI") or f.startswith("P2:xi") for f in rep.details["failures"])

    def test_rational_bump_time_independent(self):
        m = mbs.model_from_dict(
            {
                "N": 1, "d": 1,
                "sigma": {"form": "constant", "params": {"matrix": [[1.0]]}},
                "mu": {"form": "zero", "params": {}},
                "r": {"form": "constant", "params": {"value": 0.0}},
                "xi": {"form": "constant", "params": {"value": 1.0}},
                "h": {"form": "rational-bump", "params": {"amplitude": 0.4}},
                "rho": 0.5, "tau": 1.0, "T": 1.0,
                "U0": {"form": "zero", "params": {}},
            }
        )
        rep = mbs.validate_model(m, 800, seed=5)
        assert rep.passed, rep.details["failures"]
        assert rep.details["dt_h_fitted_rate"] == 0.0

    def test_heat_model_reports_known_violations(self):
        rep = mbs.validate_model(mbs.heat_model(), 400, seed=6)
        assert not rep.passed
        fails = set(rep.details["failures"])
        assert "P2:rho-positive" in fails
        assert "P3:U0-nonnegative" in fails

    def test_desk_model_passes(self):
        rep = mbs.validate_model(mbs.default_model(), 800, seed=7)
        assert rep.passed, rep.details["failures"]

    def test_reproducible(self):
        a = mbs.validate_model(mbs.default_model(), 300, seed=8)
        b = mbs.validate_model(mbs.default_model(), 300, seed=8)
        assert a == b


def shifted_datum(m, domain, margin):
    """u0 = U0 + h(., 0) + xi(0) on 201 nodes of [-6, 6], read back from the
    straightened solve's initial field under a unit gauge on domain."""
    grid = solver.GridSpec(box=((-6.0, 6.0),), nodes=(201,))
    transf = transform.Transformation(transform.unit_gauge(domain), margin=margin)
    return transf.psi_inverse(solver.StraightenedProblem(m, transf, grid).initial_values())


class TestTransformedProblem:
    def test_trivial_source(self):
        # h = 0, xi = 1, r = 0: g vanishes and u0 = U0 + 1
        assert float(mbs.source_g(constants_model(), np.zeros(1), 0.3)) == 0.0
        u0 = shifted_datum(constants_model(u0=0.2), (1.0, 1.5), 0.1)
        np.testing.assert_allclose(u0, 1.2, rtol=1e-15)

    def test_constant_h_source(self):
        m = constants_model(h0=0.25, tau=1.0)
        g = float(mbs.source_g(m, np.array([0.7]), 0.2))
        assert g == pytest.approx(-1.0 * 0.25, rel=1e-14)

    def test_bump_source_matches_fd_laplacian(self):
        m = mbs.model_from_dict(
            {
                "N": 1, "d": 1,
                "sigma": {"form": "constant", "params": {"matrix": [[1.0]]}},
                "mu": {"form": "zero", "params": {}},
                "r": {"form": "constant", "params": {"value": 0.0}},
                "xi": {"form": "constant", "params": {"value": 1.0}},
                "h": {"form": "rational-bump", "params": {"amplitude": 0.4}},
                "rho": 0.5, "tau": 0.8, "T": 1.0,
                "U0": {"form": "zero", "params": {}},
            }
        )
        eps = 1e-5
        for x0 in np.linspace(-2.0, 2.0, 9):
            lap_fd = (
                float(m.h.value(np.array([x0 + eps])))
                - 2.0 * float(m.h.value(np.array([x0])))
                + float(m.h.value(np.array([x0 - eps])))
            ) / eps**2
            expected = 0.5 * lap_fd - 0.8 * float(m.h.value(np.array([x0])))
            assert float(mbs.source_g(m, np.array([x0]), 0.1)) == pytest.approx(
                expected, rel=1e-4, abs=1e-7
            )

    def test_source_matches_termwise_formula_at_stacked_times(self):
        # g evaluated from once-computed profile parts equals the term-by-term
        # formula with h, Dh, D^2 h and dh/dt taken at each sample's own time
        cfg = mbs.default_model().to_dict()
        cfg.update({
            "N": 2, "d": 1,
            "sigma": {"form": "constant", "params": {"matrix": [[0.4], [0.1]]}},
            "mu": {"form": "sinusoid",
                   "params": {"amplitude": [0.1, 0.05],
                              "wavevector": [[1.0, 0.0], [0.5, 1.0]]}},
            "r": {"form": "affine", "params": {"intercept": 0.02, "slope": 0.03}},
            "xi": {"form": "affine", "params": {"intercept": 1.0, "slope": 0.2}},
            "h": {"form": "gaussian-bump",
                  "params": {"amplitude": 0.5, "center": [0.0, 0.3], "width": 1.2,
                             "time_slope": 0.4}},
            "U0": {"form": "zero", "params": {}},
        })
        m = mbs.model_from_dict(cfg)
        rng = np.random.default_rng(2)
        xs = rng.uniform(-3.0, 3.0, (50, 2))
        ts = rng.uniform(0.0, 1.0, 50)
        W = m.sigma @ m.sigma.T
        for k in range(50):
            x, t = xs[k], float(ts[k])
            expected = (
                -float(m.h.dt(x))
                + 0.5 * float(np.sum(W * m.h.hess(x, t)))
                + float(m.mu.value(x) @ m.h.grad(x, t))
                - m.tau * float(m.h.value(x, t))
                - (0.2 + float(m.r(t)) * float(m.xi(t)))
            )
            assert float(mbs.source_g(m, x, t)) == pytest.approx(expected, rel=1e-13, abs=1e-15)
        stacked = mbs.source_g(m, xs, ts)
        single = [float(mbs.source_g(m, xs[k], float(ts[k]))) for k in range(50)]
        np.testing.assert_allclose(stacked, single, rtol=1e-14, atol=1e-16)

    def test_initial_datum_above_floor(self):
        m = mbs.default_model()
        pair = mbs.barrier_pair(m)
        assert pair.m0 > 0.0
        # a value below m0 / 2 would leave the gauge's margined domain and raise
        u0 = shifted_datum(m, (pair.m0, pair.M0), 0.5 * pair.m0)
        assert np.all(u0 >= pair.m0 - 1e-12)

    def test_u_domain_matches_barrier_interval(self):
        m = mbs.default_model()
        H = mbs.dm2_hamiltonian(m)
        pair = mbs.barrier_pair(m)
        assert H.u_domain == (pair.m0, pair.M0)
        assert H.eps0 == pytest.approx(pair.m0 / 2.0)

    def test_positivity_violation_raises(self):
        with pytest.raises(ModelError):
            mbs.dm2_hamiltonian(mbs.heat_model())


class TestStructuralCandidates:
    def test_cp6_candidates_pass(self):
        from visc.hamiltonian import check_structure_cp6

        m = mbs.default_model()
        H = mbs.dm2_hamiltonian(m)
        rep = check_structure_cp6(H, 2.0, mbs.cp6_candidates(m), 2000, seed=9)
        assert rep.passed, rep.max_violation

    def test_cp7_candidates_pass(self):
        from visc.hamiltonian import check_osgood_structure_cp7

        m = mbs.default_model()
        H = mbs.dm2_hamiltonian(m)
        gamma, nu_hat, gauge = mbs.cp7_candidates(m, R=2.0)
        rep = check_osgood_structure_cp7(H, gauge, gamma, nu_hat, 2.0, 3000, seed=10)
        assert rep.passed, rep.max_violation

    def test_cp7_gamma_rate_formula(self):
        # rate = rho ((C2 M0)^2 / (4 lam2) + C2) for the computed C2
        m = mbs.default_model()
        gamma, _, _ = mbs.cp7_candidates(m, R=2.0)
        pair = mbs.barrier_pair(m)
        rate = gamma.fn(1.0)
        # invert the formula for C2 and check consistency
        disc = 1.0 + rate / m.rho * pair.M0**2 / 1.0
        c2 = (-1.0 + math.sqrt(1.0 + rate / m.rho * pair.M0**2)) * 2.0 / pair.M0**2
        assert m.rho * ((c2 * pair.M0) ** 2 / 4.0 + c2) == pytest.approx(rate, rel=1e-12)

    def test_cp7_requires_positive_rho(self):
        with pytest.raises(PreconditionError):
            mbs.cp7_candidates(mbs.heat_model(), R=1.0)

    @pytest.mark.parametrize(
        "variant",
        [
            # cash-flow above the coupon rate flips the sign of (tau - r) h
            {"h": {"form": "rational-bump", "params": {"amplitude": 0.4, "center": [0.5]}},
             "r": {"form": "constant", "params": {"value": 0.06}}, "tau": 0.04, "rho": 1.2},
            # time-dependent cash-flow exercises dh/dt in the source
            {"h": {"form": "gaussian-bump",
                    "params": {"amplitude": 0.5, "center": [0.0], "width": 1.0,
                               "time_slope": 0.4}}},
            # affine short rate
            {"r": {"form": "affine", "params": {"intercept": 0.02, "slope": 0.03}},
             "h": {"form": "constant", "params": {"value": 0.3}}, "tau": 0.08},
            # degenerate two-factor model, noise in the first coordinate only
            {"N": 2, "d": 1,
             "sigma": {"form": "constant", "params": {"matrix": [[0.4], [0.0]]}},
             "mu": {"form": "zero", "params": {}},
             "h": {"form": "gaussian-bump",
                    "params": {"amplitude": 0.5, "center": [0.0, 0.0], "width": 1.2}},
             "U0": {"form": "gaussian-bump",
                     "params": {"amplitude": 0.25, "center": [0.0, 0.0], "width": 1.5}}},
        ],
        ids=["r-above-tau", "time-sloped-h", "affine-r", "2d-degenerate"],
    )
    def test_candidates_hold_across_model_family(self, variant):
        from visc.hamiltonian import check_osgood_structure_cp7, check_structure_cp6

        cfg = mbs.default_model().to_dict()
        cfg.update(variant)
        m = mbs.model_from_dict(cfg)
        assert mbs.validate_model(m, 1000, seed=1).passed
        H = mbs.dm2_hamiltonian(m)
        rep6 = check_structure_cp6(H, 2.0, mbs.cp6_candidates(m), 4000, seed=3)
        assert rep6.passed, rep6.max_violation
        gamma, nu_hat, gauge = mbs.cp7_candidates(m, 2.0)
        rep7 = check_osgood_structure_cp7(H, gauge, gamma, nu_hat, 2.0, 4000, seed=3)
        assert rep7.passed, rep7.max_violation


def grid_regularity_constants(m):
    """regularity_constant's constants for rho > 0 as computed before the
    closed forms: envelopes maximised over 10,001 nodes of [0, v_max]."""
    b, pair = m.bounds(), mbs.barrier_pair(m)
    m0, M0, sig = pair.m0, pair.M0, b["sigma_op"]
    T = transform.Transformation(transform.mbs_exp_gauge(m0, M0), 0.0)
    v_max = T.v_range[1]
    Iv, Ipv, Ippv = T.inverse_derivatives(np.linspace(0.0, max(v_max, 1e-12), 10_001))
    sup_lambda2 = float(np.max(2.0 * m.rho / Iv))
    sup_lambda2_prime = float(np.max(2.0 * m.rho * Ipv / Iv**2)) * 1.05
    d_inv_IIp = np.abs(-(Ipv**2 + Iv * Ippv) / (Iv * Ipv) ** 2)
    d_inv_Ip = np.abs(-Ippv / Ipv**2)
    d_I_over_Ip = np.abs(1.0 - Iv * Ippv / Ipv**2)
    w_sq_sup = m.rho * (sig * b["grad_h_sup"]) ** 2
    lip_f_v = 1.05 * float(np.max(
        w_sq_sup * d_inv_IIp + b["g_sup"] * d_inv_Ip + b["r_abs_sup"] * d_I_over_Ip))
    lip_f_x = (
        2.0 * m.rho * sig**2 * b["grad_h_sup"] * b["lip_grad_h"] / float(np.min(Iv * Ipv))
        + b["g_lip"] / float(np.min(Ipv))
    )
    lip_v0 = (b["u0_lip"] + b["grad_h_sup"]) / float(np.min(Ipv))
    M = max(lip_v0, 1e-6)
    sup_w, lip_w = sig * b["grad_h_sup"], sig * b["lip_grad_h"]
    lip_f = max(lip_f_x, lip_f_v)
    E_max = float(Ipv[-1])
    lam1p_min = (4.0 * m.rho / m0**2) * E_max / (E_max + 1.0) ** 2
    C = mbs.constant_from_bounds(b["mu_lip"], sup_lambda2_prime, sup_w, lam1p_min,
                                 sup_lambda2, sig, lip_w, lip_f, M)
    return {"sup_lambda2": sup_lambda2, "sup_lambda2_prime": sup_lambda2_prime,
            "lip_f": lip_f, "lip_f_v": lip_f_v, "lip_f_x": lip_f_x, "lip_v0": lip_v0, "C": C}


REGULARITY_MODELS = {
    "default": mbs.default_model,
    "desk-wide-h": lambda: desk_variant(
        sigma={"form": "constant", "params": {"matrix": [[0.3]]}},
        h={"form": "gaussian-bump", "params": {"amplitude": 0.8, "center": [0.0], "width": 1.4}},
        rho=0.9),
    "desk-narrow-h": lambda: desk_variant(
        sigma={"form": "constant", "params": {"matrix": [[0.5]]}},
        h={"form": "gaussian-bump", "params": {"amplitude": 0.8, "center": [0.0], "width": 0.5}},
        rho=1.0, tau=0.02),
    "desk-r-above-tau": lambda: desk_variant(
        r={"form": "constant", "params": {"value": 0.08}}, tau=0.03, rho=0.6),
}


class TestRegularity:
    @pytest.mark.parametrize("name", sorted(REGULARITY_MODELS))
    def test_closed_forms_match_the_grid(self, name):
        m = REGULARITY_MODELS[name]()
        if name == "desk-r-above-tau":
            assert m.r.max_on(m.T) > m.tau
        rd = mbs.regularity_constant(m)
        want = grid_regularity_constants(m)
        # a narrow h makes the x-Lipschitz part of f the larger one
        assert (want["lip_f_x"] > want["lip_f_v"]) == (name == "desk-narrow-h")
        for key in ("sup_lambda2", "sup_lambda2_prime", "lip_f"):
            assert rd.constants[key] == pytest.approx(want[key], rel=1e-14, abs=0.0), key
        assert rd.lip_v0 == pytest.approx(want["lip_v0"], rel=1e-14, abs=0.0)
        assert rd.C == pytest.approx(want["C"], rel=1e-14, abs=0.0)

    def test_synthetic_constant_is_five(self):
        C = mbs.constant_from_bounds(
            lip_mu=1.0, sup_lambda2_prime=2.0, sup_w=1.0, min_lambda1_prime=1.0,
            sup_lambda2=1.0, sup_sigma=1.0, lip_w=0.0, lip_f=1.0, M=0.5,
        )
        assert C == 5.0

    def test_middle_term_vacuous_when_numerator_zero(self):
        C = mbs.constant_from_bounds(1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0)
        assert C == 2.0
        with pytest.raises(PreconditionError):
            mbs.constant_from_bounds(1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0)

    def test_lambda1_prime_closed_form(self):
        # lambda1'(v) = (4 rho/m0^2) E/(E+1)^2 matches a finite difference of
        # lambda1 and stays positive on a dense grid, minimum at the endpoint
        m = mbs.default_model()
        rd = mbs.regularity_constant(m)
        pair = mbs.barrier_pair(m)
        m0 = pair.m0
        v_max = rd.v_range[1]
        grid = np.linspace(0.0, v_max, 10_001)
        E = np.exp(2.0 * grid / m0)
        lam1p = (4.0 * m.rho / m0**2) * E / (E + 1.0) ** 2
        assert np.all(lam1p > 0.0)
        assert rd.min_lambda1_prime == pytest.approx(float(lam1p.min()), rel=1e-9)
        assert float(np.argmin(lam1p)) == len(grid) - 1
        dv = 1e-6
        for v in np.linspace(dv, v_max - dv, 7):
            fd = (rd.lambda1(v + dv) - rd.lambda1(v - dv)) / (2.0 * dv)
            closed = (4.0 * m.rho / m0**2) * math.exp(2 * v / m0) / (
                math.exp(2 * v / m0) + 1.0
            ) ** 2
            assert fd == pytest.approx(closed, rel=1e-5)

    def test_constant_monotone_in_M(self):
        m = mbs.default_model()
        rd1 = mbs.regularity_constant(m, M=0.5)
        rd2 = mbs.regularity_constant(m, M=1.0)
        rd3 = mbs.regularity_constant(m, M=4.0)
        assert rd1.C >= rd2.C >= rd3.C

    def test_heat_model_identity_path(self):
        rd = mbs.regularity_constant(mbs.heat_model(), M=1.0)
        assert rd.gauge_kind == "identity"
        assert rd.C == 0.0
        assert rd.u_scale_factor == 1.0

    def test_only_source_term_survives_without_cashflow(self):
        # h = 0 kills w and its Lipschitz constant; mu constant kills Lip(mu);
        # what is left is C = Lip(f) (1/(2M) + 1)
        m = constants_model(u0=0.2, r0=0.04, tau=0.5)
        rd = mbs.regularity_constant(m, M=1.0)
        assert rd.C == pytest.approx(rd.constants["lip_f"] * (0.5 / rd.M + 1.0), rel=1e-14)

    def test_M_precondition(self):
        m = mbs.default_model()
        rd = mbs.regularity_constant(m)
        with pytest.raises(PreconditionError):
            mbs.regularity_constant(m, M=0.25 * rd.lip_v0)

    def test_u_scale_factor(self):
        m = mbs.default_model()
        rd = mbs.regularity_constant(m)
        pair = mbs.barrier_pair(m)
        assert rd.u_scale_factor == pytest.approx(2.0 * pair.M0 / pair.m0 - 1.0)

    def test_straightened_coefficients_reassemble_the_hamiltonian(self):
        # the gauge-transformed Hamiltonian (generic machinery) must equal
        # -tr(W X)/2 - <mu, p> + l1(v)|s^T p|^2 + l2(v)<s^T p, w> + f(x,t,v)
        # built from the regularity coefficients (closed forms)
        from visc.hamiltonian import transform_hamiltonian
        from visc.transform import mbs_exp_gauge

        m = mbs.default_model()
        rd = mbs.regularity_constant(m)
        pair = mbs.barrier_pair(m)
        H = mbs.dm2_hamiltonian(m)
        Ht = transform_hamiltonian(H, mbs_exp_gauge(pair.m0, pair.M0))
        sig = m.sigma
        W = sig @ sig.T
        rng = np.random.default_rng(23)
        lo, hi = Ht.u_domain
        for _ in range(200):
            v = rng.uniform(max(lo, rd.v_range[0]), min(hi, rd.v_range[1]))
            x = rng.uniform(-3.0, 3.0, 1)
            t = rng.uniform(0.0, 0.999)
            p = rng.normal(0.0, 1.0, 1)
            X = np.array([[rng.normal()]])
            sp = sig.T @ p
            expected = (
                -0.5 * float(np.trace(W @ X))
                - float(m.mu.value(x) @ p)
                + rd.lambda1(v) * float(sp @ sp)
                + rd.lambda2(v) * float(sp @ rd.w(x, t))
                + rd.f(x, t, v)
            )
            assert Ht.fn(x, t, v, p, X) == pytest.approx(expected, abs=1e-9)


class TestLipschitzBound:
    def test_examples(self):
        heat = mbs.heat_model()
        rd = mbs.regularity_constant(heat, M=1.0)
        v0, u0 = mbs.lipschitz_bound(rd, 0.0)
        assert v0 == pytest.approx(2.0)
        assert u0 == pytest.approx(2.0)
        # C = 0 keeps the bound constant in time
        v1, _ = mbs.lipschitz_bound(rd, 0.9)
        assert v1 == pytest.approx(2.0)

    def test_exponential_growth_value(self):
        # C = 5, M = 1/2, t = 1 gives 2 M e^C = e^5 on the v scale
        import dataclasses

        rd = mbs.regularity_constant(constants_model(u0=0.0), M=0.5)
        rd5 = dataclasses.replace(rd, C=5.0)
        v, _ = mbs.lipschitz_bound(rd5, 0.99999999)
        assert v == pytest.approx(math.exp(5.0), rel=1e-6)


class TestModelIO:
    def test_roundtrip(self):
        m = mbs.default_model()
        m2 = mbs.model_from_dict(m.to_dict())
        assert m2.rho == m.rho
        assert m2.sigma.tolist() == m.sigma.tolist()
        x = np.array([0.4])
        assert float(m2.h.value(x, 0.2)) == float(m.h.value(x, 0.2))

    def test_missing_field_named(self):
        cfg = mbs.default_model().to_dict()
        del cfg["rho"]
        with pytest.raises(ConfigurationError, match="rho"):
            mbs.model_from_dict(cfg)
