import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visc import osgood
from visc.errors import DomainError, QuadratureError

INV_E = math.exp(-1.0)


class TestGammaEval:
    def test_xlog_at_inv_e(self):
        # the capped branch starts exactly at 1/e with value 1/e
        assert osgood.xlog()(INV_E) == pytest.approx(INV_E, abs=1e-15)

    def test_xlog_at_zero(self):
        assert osgood.xlog()(0.0) == 0.0

    def test_xlog_at_e_minus_2(self):
        # h log(1/h) at h = e^-2 is 2 e^-2
        val = osgood.xlog()(math.exp(-2.0))
        assert val == pytest.approx(2.0 * math.exp(-2.0), rel=1e-14)

    def test_out_of_domain_raises(self):
        g = osgood.xlog()
        with pytest.raises(DomainError):
            g(-0.1)
        with pytest.raises(DomainError):
            g(g.l + 0.5)

    def test_catalog_identifiers(self):
        assert osgood.from_identifier("linear:0.5")(0.4) == pytest.approx(0.2)
        assert osgood.from_identifier("power:0.5")(0.25) == pytest.approx(0.5)
        assert osgood.from_identifier("xlog").name == "xlog"
        with pytest.raises(DomainError):
            osgood.from_identifier("nope")


class TestCatalogInvariants:
    @pytest.mark.parametrize(
        "gamma",
        [osgood.xlog(), osgood.linear(2.0), osgood.power(0.5), osgood.power(1.0)],
        ids=lambda g: g.name,
    )
    def test_zero_at_zero_and_nondecreasing(self, gamma):
        grid = np.linspace(0.0, gamma.l, 1000)
        vals = np.array([gamma(h) for h in grid])
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) >= -1e-15)

    def test_scaled_keeps_invariants(self):
        # Gamma0(theta) = Gamma(sqrt(Lambda0) theta) on the shrunk domain
        g0 = osgood.scaled(osgood.xlog(), math.sqrt(2.0))
        grid = np.linspace(0.0, g0.l, 1000)
        vals = np.array([g0(h) for h in grid])
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) >= -1e-15)
        assert g0.l == pytest.approx(osgood.xlog().l / math.sqrt(2.0))

    @given(st.floats(0.0, INV_E + 0.5), st.floats(0.0, INV_E + 0.5))
    @settings(max_examples=200, deadline=None)
    def test_xlog_monotone_property(self, h1, h2):
        g = osgood.xlog()
        lo, hi = sorted((h1, h2))
        assert g(lo) <= g(hi) + 1e-15


class TestSupFormula:
    INTERVAL = (-0.5, INV_E)

    def test_zero_shift(self):
        assert osgood.sup_formula(0.0, self.INTERVAL) == 0.0

    def test_matches_xlog_at_inv_e(self):
        # the brute-force sup over I equals the closed form 1/e
        val = osgood.sup_formula(INV_E, self.INTERVAL, n_grid=2000)
        assert val == pytest.approx(INV_E, abs=1e-6)

    def test_matches_xlog_at_e_minus_2(self):
        val = osgood.sup_formula(math.exp(-2.0), self.INTERVAL, n_grid=2000)
        assert val == pytest.approx(2.0 * math.exp(-2.0), abs=1e-6)

    def test_lower_bounds_every_grid_point(self):
        h = 0.1

        def xlogx(x):
            return x * math.log(x) if x > 0 else 0.0

        val = osgood.sup_formula(h, self.INTERVAL, n_grid=500)
        for x in np.linspace(*self.INTERVAL, 500):
            assert val >= xlogx(x) - xlogx(x + h) - 1e-12

    def test_matches_xlog_across_domain(self):
        g = osgood.xlog()
        for h in [1e-3, 0.05, 0.2, 0.35, 0.5, 0.8]:
            expected = g(h)
            val = osgood.sup_formula(h, self.INTERVAL, n_grid=2000)
            assert val == pytest.approx(expected, abs=1e-6), h

    def test_preconditions(self):
        with pytest.raises(DomainError):
            osgood.sup_formula(-0.1, self.INTERVAL)
        with pytest.raises(DomainError):
            osgood.sup_formula(0.1, self.INTERVAL, n_grid=10)


def ten_zoom_refine_max(fn, lo, hi, n):
    """refine_max with all ten zooms after every base scan, even when the
    best point stays at an end of [lo, hi]."""
    xs = np.linspace(lo, hi, n)
    best = -math.inf
    for _ in range(11):
        vals = fn(xs)
        k = int(np.argmax(vals))
        best = max(best, float(vals[k]))
        xs = np.linspace(xs[max(k - 1, 0)], xs[min(k + 1, len(xs) - 1)], 65)
    return best


# the grid step of a 1001-point scan of [0, 1]
STEP = 1e-3


class TestRefineMax:
    @staticmethod
    def scalar_refine_max(fn, lo, hi, n):
        # the maximiser as a Python loop over float evaluations
        xs = np.linspace(lo, hi, n)
        vals = [fn(float(x)) for x in xs]
        k = int(np.argmax(vals))
        a, b = xs[max(k - 1, 0)], xs[min(k + 1, n - 1)]
        for _ in range(80):
            m1, m2 = a + (b - a) / 3.0, b - (b - a) / 3.0
            if fn(m1) < fn(m2):
                a = m1
            else:
                b = m2
        return max(vals[k], fn(0.5 * (a + b)))

    @pytest.mark.parametrize(
        "fn, interval",
        [
            (lambda x: np.sin(3.0 * x) * np.exp(-x), (0.0, 2.0)),
            (lambda x: -np.abs(x - 0.3), (-1.0, 1.0)),
            (lambda x: 2.0 * x, (0.0, 1.0)),
        ],
        ids=["smooth-interior", "kink", "right-endpoint"],
    )
    def test_one_array_scan_matches_scalar_search(self, fn, interval):
        shapes = []

        def spy(x):
            shapes.append(np.shape(x))
            return fn(np.asarray(x))

        val = osgood.refine_max(spy, *interval, 1001)
        assert shapes[0] == (1001,)
        # a handful of array calls, not one call per search step
        assert len(shapes) <= 12
        assert val == pytest.approx(
            self.scalar_refine_max(lambda x: float(fn(x)), *interval, 1001), rel=0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "fn, calls",
        [
            (lambda x: 1.0 - x, 2),
            (lambda x: 2.0 * x, 2),
            (lambda x: np.zeros_like(x), 2),
            (lambda x: np.sin(3.0 * x) * np.exp(-x), 11),
            (lambda x: -((x - 1.0 + 0.3 * STEP) ** 2), 11),
        ],
        ids=["lo", "hi", "flat", "interior", "inside-end-cell"],
    )
    def test_stops_at_a_confirmed_end_point(self, fn, calls):
        # an end point that the zoom over its cell keeps is final after 2 scans
        seen = []

        def spy(x):
            seen.append(x)
            return fn(x)

        val = osgood.refine_max(spy, 0.0, 1.0, 1001)
        assert len(seen) == calls
        assert val == ten_zoom_refine_max(fn, 0.0, 1.0, 1001)

    @pytest.mark.parametrize("at", [0.3 * STEP, 1.0 - 0.3 * STEP], ids=["lo-cell", "hi-cell"])
    def test_finds_a_maximum_inside_the_end_cell(self, at):
        # the base scan peaks at the end point, the first zoom moves off it
        def fn(x):
            return -((x - at) ** 2)

        assert np.argmax(fn(np.linspace(0.0, 1.0, 1001))) in (0, 1000)
        val = osgood.refine_max(fn, 0.0, 1.0, 1001)
        assert val == pytest.approx(
            self.scalar_refine_max(lambda x: float(fn(x)), 0.0, 1.0, 1001), rel=0.0, abs=1e-15)
        assert val == ten_zoom_refine_max(fn, 0.0, 1.0, 1001)


class TestDivergenceScore:
    def test_linear_matches_log(self):
        g = osgood.linear(1.0, l=1.0)
        eps = [10.0**-k for k in range(2, 13)]
        scores = osgood.divergence_score(g, eps)
        for k, s in zip(range(2, 13), scores):
            assert s == pytest.approx(k * math.log(10.0), rel=1e-6)

    def test_sqrt_converges_to_two(self):
        g = osgood.power(0.5, l=1.0)
        eps = [10.0**-k for k in range(2, 13)]
        scores = osgood.divergence_score(g, eps)
        # closed form: 2 (1 - sqrt(eps)) -> 2
        assert scores[-1] == pytest.approx(2.0, abs=1e-4)
        for e, s in zip(eps, scores):
            assert s == pytest.approx(2.0 * (1.0 - math.sqrt(e)), rel=1e-8)

    def test_xlog_matches_loglog(self):
        # antiderivative of 1/(r log(1/r)) on (0, 1/e] is -log log(1/r);
        # restricted to l = 1/e the score is exactly log log(1/eps)
        restricted = osgood.OsgoodFunction("xlog-restricted", INV_E, osgood._xlog)
        eps = [10.0**-k for k in range(2, 9)]
        scores = osgood.divergence_score(restricted, eps)
        for e, s in zip(eps, scores):
            assert s == pytest.approx(math.log(math.log(1.0 / e)), rel=1e-8)
        # the catalog entry integrates through the constant branch too,
        # adding exactly e/2
        full = osgood.divergence_score(osgood.xlog(), eps)
        for e, s in zip(eps, full):
            expected = math.log(math.log(1.0 / e)) + 0.5 * math.e
            assert s == pytest.approx(expected, rel=1e-8)

    def test_classification_heuristic(self):
        eps = [10.0**-k for k in range(2, 13)]
        lin = osgood.divergence_score(osgood.linear(1.0), eps)
        sqrt = osgood.divergence_score(osgood.power(0.5), eps)
        assert osgood.classify_divergence(lin) == "osgood-consistent"
        assert osgood.classify_divergence(sqrt) == "integral-converging"

    def test_eps_domain_errors(self):
        g = osgood.linear(1.0, l=1.0)
        with pytest.raises(DomainError):
            osgood.divergence_score(g, [2.0])
        with pytest.raises(DomainError):
            osgood.divergence_score(g, [0.0])

    def test_vanishing_gamma_reports_location(self):
        flat = osgood.OsgoodFunction("flat", 1.0, lambda h: 0.0 if h < 0.5 else h)
        with pytest.raises(QuadratureError):
            osgood.divergence_score(flat, [0.01])

    @pytest.mark.parametrize(
        "gamma",
        [
            osgood.xlog(),
            osgood.scaled(osgood.xlog(), 3.0),
            osgood.power(0.3),
            osgood.linear(2.0, l=0.5),
        ],
        ids=lambda g: g.name,
    )
    def test_matches_quad(self, gamma):
        from scipy.integrate import quad

        eps = [e for e in (10.0**-k for k in range(1, 13)) if e < gamma.l]
        scores = osgood.divergence_score(gamma, eps)
        for e, score in zip(eps, scores):
            pts = [math.log(k) for k in gamma.kinks if e < k < gamma.l]
            oracle, _ = quad(
                lambda s: math.exp(s) / gamma.fn(math.exp(s)),
                math.log(e), math.log(gamma.l),
                points=pts or None, limit=200, epsabs=1e-13, epsrel=1e-13,
            )
            assert abs(score - oracle) <= 1e-12 * abs(oracle)

    def test_zero_inside_the_range_raises(self):
        # Gamma(eps) > 0, but Gamma vanishes on [0.2, 0.5]: panel nodes land there
        gap = osgood.OsgoodFunction("gap", 1.0, lambda h: 0.0 if 0.2 <= h <= 0.5 else h)
        with pytest.raises(QuadratureError, match=r"at r = 0\.[234]"):
            osgood.divergence_score(gap, [0.01])
        # an isolated zero no node hits: the panel sums do not settle
        dip = osgood.OsgoodFunction("dip", 1.0, lambda h: (h - 0.5) ** 2)
        with pytest.raises(QuadratureError, match="does not converge"):
            osgood.divergence_score(dip, [0.01])


class TestOdeFlow:
    def test_zero_start_stays_zero_exactly(self):
        for gamma in (osgood.xlog(), osgood.linear(3.0), osgood.power(0.5)):
            traj = osgood.ode_flow(gamma, 0.0, 1.0, 1e-3)
            assert np.all(traj.values == 0.0)

    def test_recursion_is_exact(self):
        g = osgood.xlog()
        traj = osgood.ode_flow(g, 1e-2, 0.5, 1e-3)
        for i in range(len(traj) - 1):
            f = traj.values[i]
            assert traj.values[i + 1] == f + traj.step * g.fn(f)

    def test_xlog_closed_form(self):
        # with g = log(1/f), g' = -g, so f(t) = delta^(exp(-t))
        delta = 1e-3
        traj = osgood.ode_flow(osgood.xlog(), delta, 1.0, 1e-4)
        exact = delta ** math.exp(-1.0)
        assert traj.values[-1] == pytest.approx(exact, rel=1e-2)

    def test_sqrt_closed_form_from_tiny_start(self):
        # f' = sqrt(f) has f(t) = (sqrt(f0) + t/2)^2; the near-zero start
        # shadows the non-uniqueness branch absent in the Osgood case
        f0 = 1e-12
        traj = osgood.ode_flow(osgood.power(0.5), f0, 1.0, 1e-4)
        exact = (math.sqrt(f0) + 0.5) ** 2
        assert traj.values[-1] == pytest.approx(exact, rel=5e-3)

    def test_saturation_flag(self):
        traj = osgood.ode_flow(osgood.linear(50.0, l=1.0), 0.5, 1.0, 1e-2)
        assert traj.saturated
        assert traj.values.max() <= 1.0

    def test_preconditions(self):
        g = osgood.xlog()
        with pytest.raises(DomainError):
            osgood.ode_flow(g, g.l + 1.0, 1.0, 1e-3)
        with pytest.raises(DomainError):
            osgood.ode_flow(g, 0.0, 1.0, 2.0)
