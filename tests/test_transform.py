import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visc import transform
from visc.errors import ConfigurationError, DomainError, RangeError


def shift_sq_transformation(domain=(-0.5, 1.0 / math.e), margin=0.125):
    return transform.Transformation(transform.shift_sq_gauge(domain), margin)


class TestPsi:
    def test_unit_gauge_is_identity_from_base(self):
        T = transform.Transformation(transform.unit_gauge((0.0, 1.0)), 0.0)
        for u in np.linspace(0.0, 1.0, 17):
            assert T.psi(float(u)) == pytest.approx(u, abs=1e-13)

    def test_shift_sq_closed_form(self):
        # 1/sqrt((u+1)^2) integrates to log(u+1), so Psi(u) = log((u+1)/(a'+1))
        T = shift_sq_transformation()
        base = T.base_point
        for u in np.linspace(*T.u_range, 23):
            expected = math.log((u + 1.0) / (base + 1.0))
            assert T.psi(float(u)) == pytest.approx(expected, abs=1e-11)

    def test_exp_gauge_closed_form(self):
        # 1/sqrt(exp(-2u)) = e^u, so Psi(u) = e^u - e^base; with base 0: e^u - 1
        gauge = transform.exp_gauge((0.0, 1.0))
        T = transform.Transformation(gauge, 0.0)
        for u in np.linspace(0.0, 1.0, 17):
            assert T.psi(float(u)) == pytest.approx(math.exp(u) - 1.0, abs=1e-11)

    def test_out_of_domain(self):
        T = shift_sq_transformation()
        with pytest.raises(DomainError):
            T.psi(T.u_range[1] + 0.5)


class TestPsiInverse:
    def test_unit_gauge_shift(self):
        T = transform.Transformation(transform.unit_gauge((0.0, 1.0)), 0.0)
        for v in np.linspace(0.0, 1.0, 9):
            assert T.psi_inverse(float(v)) == pytest.approx(v + T.base_point, abs=1e-12)

    def test_shift_sq_log2(self):
        # with z = (u+1)^2 and base 0, Psi(1) = log 2
        T = transform.Transformation(
            transform.shift_sq_gauge((0.0, 1.2)), 0.0
        )
        assert T.psi_inverse(math.log(2.0)) == pytest.approx(1.0, abs=1e-10)

    def test_mbs_exp_closed_form(self):
        # I(v) = m0 (e^{2v/m0} + 1)/2 on [0, (m0/2) log(2 M0/m0 - 1)]
        m0, M0 = 1.0, 2.0
        gauge = transform.mbs_exp_gauge(m0, M0)
        T = transform.Transformation(gauge, 0.2)
        v_max = 0.5 * m0 * math.log(2.0 * M0 / m0 - 1.0)
        assert T.psi(m0) == pytest.approx(0.0, abs=1e-12)
        assert T.psi(M0) == pytest.approx(v_max, abs=1e-11)
        for v in np.linspace(0.0, v_max, 13):
            expected = 0.5 * m0 * (math.exp(2.0 * v / m0) + 1.0)
            assert T.psi_inverse(float(v)) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("m0, M0", [(1.0, 2.0), (0.3, 1.7), (49.0, 60.0), (49.0, 49.0)])
    def test_mbs_exp_is_affine_sq_based_at_m0(self, m0, M0):
        # 2/m0 * m0 rounds below 2 for m0 = 49, so z(m0) is a few ulps below
        # 1; lambda0 is that value, and m0 = M0 is a valid (flat) gauge
        g = transform.mbs_exp_gauge(m0, M0)
        a = transform.affine_sq_gauge(2.0 / m0, 1.0, (m0, M0))
        us = np.linspace(m0, M0, 101)
        assert g.name == f"mbs-exp:{m0:g},{M0:g}" and g.base_point == m0
        assert (g.domain, g.lambda0, g.Lambda0) == (a.domain, a.lambda0, a.Lambda0)
        assert g.lambda0 == g.z(m0) and g.Lambda0 == g.z(M0)
        np.testing.assert_array_equal(g.z(us), a.z(us))
        np.testing.assert_array_equal(g.z_prime(us), a.z_prime(us))

    def test_roundtrip_tolerance(self):
        T = shift_sq_transformation()
        rng = np.random.default_rng(5)
        for u in rng.uniform(*T.u_range, 100):
            v = T.psi(float(u))
            assert abs(T.psi_inverse(v) - u) <= 1e-10

    def test_out_of_range(self):
        T = shift_sq_transformation()
        with pytest.raises(RangeError):
            T.psi_inverse(T.v_range[1] + 1.0)

    @given(st.floats(-0.5, 1.0 / math.e), st.floats(-0.5, 1.0 / math.e))
    @settings(max_examples=100, deadline=None)
    def test_strict_monotonicity(self, u1, u2):
        # pairs closer than float resolution of Psi cannot stay strict
        if abs(u1 - u2) < 1e-9:
            return
        T = shift_sq_transformation(margin=0.0)
        v1, v2 = T.psi(u1), T.psi(u2)
        if u1 < u2:
            assert v1 < v2
            assert T.psi_inverse(v1) < T.psi_inverse(v2)


class TestInverseDerivatives:
    def test_unit_gauge(self):
        T = transform.Transformation(transform.unit_gauge((0.0, 1.0)), 0.0)
        u, ip, ipp = T.inverse_derivatives(0.5)
        assert u == 0.5
        assert ip == pytest.approx(1.0, abs=1e-14)
        assert ipp == 0.0

    def test_identity_against_gauge(self):
        # |I'(v)^2 - z(I(v))| small on sampled v
        T = shift_sq_transformation()
        rng = np.random.default_rng(11)
        for v in rng.uniform(*T.v_range, 50):
            u, ip, _ = T.inverse_derivatives(float(v))
            assert u == T.psi_inverse(float(v))
            assert abs(ip**2 - T.gauge.z(u)) <= 1e-8 * (1.0 + T.gauge.Lambda0)

    def test_matches_finite_difference(self):
        T = shift_sq_transformation()
        lo, hi = T.v_range
        dv = 1e-6 * (hi - lo)
        for v in np.linspace(lo + 2 * dv, hi - 2 * dv, 9):
            _, ip, _ = T.inverse_derivatives(float(v))
            fd = (T.psi_inverse(v + dv) - T.psi_inverse(v - dv)) / (2.0 * dv)
            assert ip == pytest.approx(fd, rel=1e-6)

    def test_mbs_exp_second_derivative(self):
        # I''(v) = z'(I(v))/2 = (2/m0) e^{2v/m0} for the closed-form gauge
        m0 = 1.0
        T = transform.Transformation(transform.mbs_exp_gauge(m0, 2.0), 0.2)
        for v in np.linspace(0.0, 0.5, 7):
            _, _, ipp = T.inverse_derivatives(float(v))
            assert ipp == pytest.approx(2.0 / m0 * math.exp(2.0 * v / m0), rel=1e-8)

    @pytest.mark.parametrize("m0, M0", [(1.0, 2.0), (0.37, 1.9)])
    def test_mbs_exp_triple_matches_closed_form(self, m0, M0):
        # with E = e^{2v/m0}: I = m0 (E + 1)/2, I' = E, I'' = (2/m0) E
        T = transform.Transformation(transform.mbs_exp_gauge(m0, M0), 0.0)
        vs = np.linspace(*T.v_range, 101)
        E = np.exp(2.0 * vs / m0)
        closed = (0.5 * m0 * (E + 1.0), E, (2.0 / m0) * E)
        for got, want in zip(T.inverse_derivatives(vs), closed):
            assert got.shape == vs.shape
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        for k in (0, 37, 100):
            triple = T.inverse_derivatives(float(vs[k]))
            assert all(type(w) is float for w in triple)
            for got, want in zip(triple, closed):
                assert got == pytest.approx(float(want[k]), rel=1e-14, abs=0.0)


class TestRangeMessages:
    def test_long_input_names_the_first_bad_value_briefly(self):
        T = shift_sq_transformation()
        vs = np.full(10_000, 0.5 * sum(T.v_range))
        vs[[4321, 7000]] = T.v_range[1] + 7.25
        with pytest.raises(RangeError) as err:
            T.psi_inverse(vs)
        msg = str(err.value)
        assert len(msg) < 300
        assert repr(T.v_range[1] + 7.25) in msg
        assert "[4321]" in msg and "2 of 10000" in msg
        us = np.full(10_000, T.u_range[0])
        us[9999] = math.nan
        with pytest.raises(DomainError) as err:
            T.psi(us)
        msg = str(err.value)
        assert len(msg) < 300 and "nan" in msg and "[9999]" in msg

    def test_scalar_message_names_the_value(self):
        T = shift_sq_transformation()
        with pytest.raises(RangeError, match=r"^v = 9\.5 outside Psi range"):
            T.inverse_derivatives(9.5)


class TestGaugeCatalog:
    def test_identifiers(self):
        g = transform.gauge_from_identifier("affine-sq:2,1", (1.0, 2.0))
        assert g.z(1.5) == pytest.approx(4.0)
        assert g.z_prime(1.5) == pytest.approx(8.0)
        g = transform.gauge_from_identifier("mbs-exp:1,2")
        assert g.base_point == 1.0
        g = transform.gauge_from_identifier("arctan:2.0", (-1.0, 1.0))
        assert g.z(0.0) == pytest.approx(4.0)
        with pytest.raises(ConfigurationError):
            transform.gauge_from_identifier("unknown", (0.0, 1.0))
        with pytest.raises(ConfigurationError):
            transform.gauge_from_identifier("unit")

    def test_gauge_bound_invariant(self):
        # z([a, b]) inside [lambda0, Lambda0] for every catalog gauge
        cases = [
            transform.unit_gauge((0.0, 1.0)),
            transform.shift_sq_gauge((-0.5, 0.4)),
            transform.affine_sq_gauge(2.0, 1.0, (1.0, 1.8)),
            transform.exp_gauge((-1.0, 1.0)),
            transform.mbs_exp_gauge(1.0, 1.8),
            transform.arctan_gauge(2.0, (-2.0, 2.0)),
        ]
        for g in cases:
            for u in np.linspace(*g.domain, 101):
                z = g.z(float(u))
                assert g.lambda0 * (1 - 1e-9) <= z <= g.Lambda0 * (1 + 1e-9), g.name

    def test_gauge_derivative_matches_fd(self):
        cases = [
            transform.shift_sq_gauge((-0.5, 0.4)),
            transform.affine_sq_gauge(2.0, 1.0, (1.0, 1.8)),
            transform.exp_gauge((-1.0, 1.0)),
            transform.mbs_exp_gauge(1.0, 1.8),
            transform.arctan_gauge(2.0, (-2.0, 2.0)),
        ]
        for g in cases:
            a, b = g.domain
            du = 1e-7 * (b - a)
            for u in np.linspace(a + du, b - du, 31):
                fd = (g.z(u + du) - g.z(u - du)) / (2.0 * du)
                assert g.z_prime(float(u)) == pytest.approx(fd, rel=1e-6, abs=1e-9), g.name

    def test_arctan_requires_8beta_over_pi_sq(self):
        with pytest.raises(ConfigurationError):
            transform.arctan_gauge(1.0, (-1.0, 1.0))

    def test_affine_sq_requires_positivity(self):
        with pytest.raises(ConfigurationError):
            transform.affine_sq_gauge(1.0, 2.0, (1.0, 3.0))

    def test_vanishing_gauge_rejected(self):
        # shift-sq would vanish at u = -1; a domain touching it must fail
        with pytest.raises(ConfigurationError):
            transform.shift_sq_gauge((-1.5, 0.0))


class TestInterpolant:
    @pytest.mark.parametrize(
        "ident", ["unit", "shift-sq", "affine-sq:2,1", "exp", "mbs-exp:1,2", "arctan:1.5"]
    )
    def test_matches_pointwise_inverse(self, ident):
        T = transform.Transformation(transform.gauge_from_identifier(ident, (1.0, 2.0)), 0.2)
        inv = T.inverse_interpolant()
        vs = np.linspace(*T.v_range, 257)
        exact = np.array([T.psi_inverse(float(v)) for v in vs])
        assert np.max(np.abs(inv(vs) - exact)) < 1e-10

    def test_range_is_tested_once(self):
        # within 1e-12 of the range a query is clipped onto it; further out it raises
        T = shift_sq_transformation()
        vlo, vhi = T.v_range
        ends = T.psi_inverse(np.array([vlo, vhi]))
        assert np.array_equal(T.psi_inverse(np.array([vlo - 5e-13, vhi + 5e-13])), ends)
        for bad in (vlo - 2e-12, vhi + 2e-12):
            with pytest.raises(RangeError):
                T.psi_inverse(np.array([0.5 * (vlo + vhi), bad]))


class TestArrayGauges:
    @pytest.mark.parametrize(
        "ident", ["unit", "shift-sq", "affine-sq:2,1", "exp", "mbs-exp:1,2", "arctan:1.5"]
    )
    def test_array_input_matches_scalar_calls(self, ident):
        gauge = transform.gauge_from_identifier(ident, (1.0, 2.0))
        us = np.linspace(*gauge.domain, 12).reshape(3, 4)
        for fn in (gauge.z, gauge.z_prime):
            vals = fn(us)
            assert np.shape(vals) == us.shape
            scalar = np.reshape([fn(float(u)) for u in us.ravel()], us.shape)
            np.testing.assert_allclose(vals, scalar, rtol=1e-14, atol=0.0)


class TestArrayPsi:
    """psi and psi_inverse take arrays; each gauge's closed form must agree
    with adaptive quadrature of 1/sqrt(z) from the base point."""

    @pytest.mark.parametrize(
        "ident", ["unit", "shift-sq", "affine-sq:2,1", "exp", "mbs-exp:1,2", "arctan:1.5"]
    )
    def test_matches_quad_and_round_trips(self, ident):
        from scipy.integrate import quad

        gauge = transform.gauge_from_identifier(ident, (1.0, 2.0))
        T = transform.Transformation(gauge, 0.2)
        us = np.random.default_rng(3).uniform(*T.u_range, 60).reshape(3, 20)
        vs = T.psi(us)
        assert vs.shape == us.shape
        integrand = lambda s: 1.0 / math.sqrt(gauge.z(s))
        oracle = np.reshape(
            [quad(integrand, T.base_point, u, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
             for u in us.ravel()],
            us.shape,
        )
        assert np.max(np.abs(vs - oracle)) <= 1e-13
        back = T.psi_inverse(vs)
        assert back.shape == us.shape
        assert np.max(np.abs(back - us)) <= 1e-12
        assert type(T.psi(float(us[0, 0]))) is float
        assert type(T.psi_inverse(float(vs[0, 0]))) is float
        assert T.psi(float(us[1, 3])) == vs[1, 3]

    @pytest.mark.parametrize(
        "ident", ["unit", "shift-sq", "affine-sq:2,1", "exp", "mbs-exp:1,2", "arctan:1.5"]
    )
    def test_ranges_map_onto_each_other(self, ident):
        # the closed forms carry the margined domain's ends onto v_range and
        # back, and no inverse leaves u_range, even at a clipped end
        T = transform.Transformation(transform.gauge_from_identifier(ident, (1.0, 2.0)), 0.2)
        assert tuple(T.psi(np.array(T.u_range))) == T.v_range
        np.testing.assert_allclose(T.psi_inverse(np.array(T.v_range)), T.u_range,
                                   rtol=1e-15, atol=1e-15)
        vlo, vhi = T.v_range
        us = T.psi_inverse(np.concatenate(([vlo - 1e-12, vhi + 1e-12], np.linspace(vlo, vhi, 1001))))
        assert np.all((T.u_range[0] <= us) & (us <= T.u_range[1]))
