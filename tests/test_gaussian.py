import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fppvar import gaussian as G

mpmath.mp.dps = 40

RULE = G.hermite_rule(64)


def mp_cdf(x: float) -> float:
    return float(mpmath.ncdf(x))


class TestPdfCdf:
    def test_pdf_peak(self):
        assert G.pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)

    def test_pdf_symmetric(self):
        for x in (0.3, 1.7, 5.0):
            assert G.pdf(x) == G.pdf(-x)

    def test_log_pdf_no_underflow(self):
        # pdf(40) underflows to 0 without an error
        assert G.pdf(40.0) == 0.0

    def test_cdf_half(self):
        assert G.cdf(0.0) == 0.5

    def test_cdf_against_mpmath(self):
        # independent high-precision oracle
        assert G.cdf(3.0) == pytest.approx(0.9986501019683699, abs=1e-13)
        for x in (-8.0, -3.0, -1.0, 0.5, 2.0, 6.0):
            assert G.cdf(x) == pytest.approx(mp_cdf(x), rel=1e-13)

    def test_cdf_symmetry_identity(self):
        for x in (0.1, 1.0, 5.0):
            assert G.cdf(x) + G.cdf(-x) == pytest.approx(1.0, abs=1e-15)

    def test_tail_relative_accuracy(self):
        # 1 - cdf(x) to 1e-12 relative for x <= 8
        for x in (2.0, 5.0, 8.0):
            want = float(1 - mpmath.ncdf(x))
            assert G.sf(x) == pytest.approx(want, rel=1e-12)

    def test_rejects_nonfinite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                G.pdf(bad)
            with pytest.raises(ValueError):
                G.cdf(bad)


class TestQuantile:
    def test_median(self):
        assert G.quantile(0.5) == 0.0

    def test_round_trip_relative_in_tail(self):
        p = 1e-10
        assert G.cdf(G.quantile(p)) == pytest.approx(p, rel=1e-12)

    def test_symmetry(self):
        assert G.quantile(0.025) == pytest.approx(-G.quantile(0.975), abs=1e-12)

    def test_round_trip_grid(self):
        grid = np.concatenate([np.geomspace(1e-300, 0.5, 160),
                               1.0 - np.geomspace(1e-16, 0.5, 80)])
        err = np.abs(G.cdf(G.quantile(grid)) - grid)
        assert np.all(err <= 1e-12 * np.maximum(grid, 1.0 - grid))

    def test_against_mpmath(self):
        for p in (1e-6, 0.01, 0.3, 0.77):
            want = float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1))
            assert G.quantile(p) == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_deep_tail_against_mpmath_cdf(self):
        # mpmath cannot invert at 1e-300, but it can check our inverse
        x = G.quantile(1e-300)
        assert float(mpmath.ncdf(x)) == pytest.approx(1e-300, rel=1e-11)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7, math.nan):
            with pytest.raises(ValueError):
                G.quantile(bad)

    @given(st.floats(min_value=1e-300, max_value=0.999999))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, p):
        err = abs(G.cdf(G.quantile(p)) - p)
        assert err <= 1e-12 * max(p, 1.0 - p)


class TestPdfAtQuantile:
    def test_center(self):
        assert G.pdf_at_quantile(0.5) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)

    def test_symmetry(self):
        assert G.pdf_at_quantile(0.01) == pytest.approx(G.pdf_at_quantile(0.99), rel=1e-12)

    def test_asymptotic_ratio_moderate(self):
        p = 1e-8
        ratio = G.pdf_at_quantile(p) / (p * math.sqrt(-2 * math.log(p)))
        assert 0.8 <= ratio <= 1.0

    def test_goldens_mpmath(self):
        # frozen from mpmath: g(G^{-1}(p)) at dps=50
        gold = {1e-4: 3.9584796675993488e-04, 1e-8: 5.7803441847037588e-08,
                1e-16: 8.340348235006333e-16, 1e-30: 1.1549974486384542e-29}
        for p, want in gold.items():
            assert G.pdf_at_quantile(p) == pytest.approx(want, rel=1e-9)

    def test_ratio_monotone_toward_one(self):
        ps = [1e-4, 1e-8, 1e-16, 1e-30]
        ratios = [G.pdf_at_quantile(p) / (p * math.sqrt(-2 * math.log(p))) for p in ps]
        assert all(r <= 1.0 for r in ratios)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_finite_at_extreme(self):
        v = G.pdf_at_quantile(1e-300)
        assert 0.0 < v < math.inf


# Log grid over [1e-300, 0.5], dense on [1e-13, 1e-11], and mirrored points
# above 0.5 (1 - p is exact there).
ORACLE_P = np.concatenate([
    np.geomspace(1e-300, 0.5, 300), np.geomspace(1e-13, 1e-11, 100),
    1.0 - np.geomspace(2.0 ** -53, 0.49, 40), [0.51, 0.9, 0.99, 1.0 - 1e-10]])


@pytest.fixture(scope="module")
def oracle_roots():
    """50-digit roots of ncdf(x) = p from a bracketing solver on log ncdf."""
    with mpmath.workdps(50):
        roots = []
        for p in ORACLE_P:
            mp = mpmath.mpf(float(p))
            log_q = mpmath.log(min(mp, 1 - mp))
            x = mpmath.findroot(lambda t: mpmath.log(mpmath.ncdf(t)) - log_q,
                                (mpmath.mpf(-40), mpmath.mpf(0)), solver="illinois")
            roots.append(x if mp <= 0.5 else -x)
    return roots


class TestAgainstMpmathRoots:
    def test_quantile(self, oracle_roots):
        for p, x in zip(ORACLE_P, oracle_roots):
            # at p = 0.5 the root is 0 and the solver leaves ~1e-52
            assert abs(G.quantile(p) - x) <= 1e-15 * abs(x) + 1e-40, p

    def test_pdf_at_quantile(self, oracle_roots):
        got = G.pdf_at_quantile(ORACLE_P)
        for p, x, v in zip(ORACLE_P, oracle_roots, got):
            want = mpmath.npdf(x)
            assert abs(v - want) <= 1e-14 * want, p


class TestQuadratureRule:
    def test_invariants(self):
        assert abs(RULE.weights.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(RULE.nodes) > 0)
        assert RULE.weights @ np.ones_like(RULE.nodes) == pytest.approx(1.0, abs=1e-12)
        assert RULE.weights @ RULE.nodes == pytest.approx(0.0, abs=1e-10)
        assert RULE.weights @ (RULE.nodes ** 2 - 1.0) == pytest.approx(0.0, abs=1e-10)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            G.hermite_rule(1)

    def test_counts_are_integers(self):
        # 8.0 and 4.0 raised a TypeError inside numpy; True ran as 1.
        for order in (True, 8.0, 2.5, -3):
            with pytest.raises(ValueError, match="order must be >= 2"):
                G.hermite_rule(order)
        for panels, order in ((4.0, 8), (True, 8), (0, 8), (4, 8.0), (4, True), (4, 0)):
            with pytest.raises(ValueError, match="must be an integer >= 1"):
                G.legendre_gaussian_rule(panels, order)
        for got, want in ((G.hermite_rule(np.int64(8)), G.hermite_rule(8)),
                          (G.legendre_gaussian_rule(np.int64(4), np.int64(8)),
                           G.legendre_gaussian_rule(4, 8))):
            assert np.array_equal(got.nodes, want.nodes)
            assert np.array_equal(got.weights, want.weights)


class TestOuApply:
    def test_linear_contraction(self):
        # smoothing a linear function contracts it by e^{-t}
        assert G.ou_apply(lambda y: y, math.log(2.0), 1.0, RULE) == pytest.approx(0.5, abs=1e-12)

    def test_constant_invariant(self):
        for t in (0.0, 0.7, 3.0):
            val = G.ou_apply(lambda y: 3.5 * np.ones_like(np.asarray(y)), t, 0.3, RULE)
            assert val == pytest.approx(3.5, abs=1e-12)

    def test_square_closed_form(self):
        # E[(y e^{-t} + Z s)^2] = e^{-2t} y^2 + (1 - e^{-2t})
        got = G.ou_apply(lambda y: y * y, 1.0, 0.0, RULE)
        assert got == pytest.approx(1.0 - math.exp(-2.0), abs=1e-12)

    def test_zero_time_identity(self):
        for deg in range(7):
            val = G.ou_apply(lambda y, d=deg: y ** d, 0.0, 1.3, RULE)
            assert val == pytest.approx(1.3 ** deg, abs=1e-12)

    def test_long_time_mean(self):
        got = G.ou_apply(lambda y: y ** 2, 30.0, 2.0, RULE)
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_semigroup(self):
        f = lambda y: y ** 3
        for y0 in (-1.0, 0.0, 1.0):
            once = G.ou_apply(f, 0.9, y0, RULE)
            inner = lambda y: np.asarray([G.ou_apply(f, 0.4, float(v), RULE)
                                          for v in np.atleast_1d(y)]).reshape(np.shape(y))
            twice = G.ou_apply(inner, 0.5, y0, RULE)
            assert twice == pytest.approx(once, abs=1e-8)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            G.ou_apply(lambda y: y, -0.1, 0.0, RULE)


class TestCommutation:
    def test_cubic(self):
        worst = G.check_commutation(lambda y: y ** 3, lambda y: 3 * y ** 2,
                                    0.5, RULE, (-2.0, 0.0, 2.0))
        assert worst <= 1e-7

    def test_linear(self):
        worst = G.check_commutation(lambda y: y, lambda y: np.ones_like(np.asarray(y)),
                                    0.8, RULE, (-1.0, 0.5))
        assert worst <= 1e-10

    def test_constant(self):
        worst = G.check_commutation(lambda y: 2.0 * np.ones_like(np.asarray(y)),
                                    lambda y: np.zeros_like(np.asarray(y)),
                                    1.1, RULE, (-1.0, 0.0, 1.0))
        assert worst <= 1e-12


class TestHypercontractivity:
    def test_constant_saturates(self):
        rep = G.check_hypercontractivity(lambda y: np.ones_like(np.asarray(y)), 0.7, RULE)
        assert rep.holds
        assert rep.lhs == pytest.approx(rep.rhs, abs=1e-12)

    def test_identity_time_zero(self):
        rep = G.check_hypercontractivity(lambda y: np.asarray(y), 0.0, RULE)
        assert rep.holds
        # q*(0) = 2 so both sides are the L2 norm
        assert rep.lhs == pytest.approx(rep.rhs, abs=1e-10)

    def test_log_linear_closed_form(self):
        # e^{y/2} is an extremal point: both sides equal e^{a^2 (1+e^{-2t})/2}
        # with a = 1/2 (Gaussian moment generating function); quadrature
        # reproduces the common value, so the bound holds with ~zero slack.
        rep = G.check_hypercontractivity(lambda y: np.exp(0.5 * np.asarray(y)), 1.0, RULE)
        want = math.exp(0.25 * (1.0 + math.exp(-2.0)) / 2.0)
        assert rep.holds
        assert rep.lhs == pytest.approx(want, rel=1e-10)
        assert rep.rhs == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("name", sorted(G.HYPERCONTRACTIVITY_REGISTRY))
    def test_registry(self, name, t):
        # composite panels resolve the clipped functions' kinks; plain
        # Gauss-Hermite stalls there and cannot certify the ~1e-4 slack
        rule = G.legendre_gaussian_rule(panels=256, order=6)
        rep = G.check_hypercontractivity(G.HYPERCONTRACTIVITY_REGISTRY[name], t, rule)
        assert rep.holds, f"{name} at t={t}: lhs={rep.lhs} rhs={rep.rhs}"

    def test_clipped_exp_true_slack_oracle(self):
        # independent adaptive-quadrature oracle for the hardest case
        # (t=2, cap=2 exp(y/2)): true slack ~ +9.4e-5, reproduced to ~3e-6
        from scipy.integrate import quad as sciquad
        t, cap, a = 2.0, 2.0, 0.5
        q_star = 1.0 + math.exp(-2.0 * t)
        dens = lambda y: math.exp(-0.5 * y * y) / math.sqrt(2 * math.pi)
        f = lambda y: min(math.exp(a * y), cap)
        decay, spread = math.exp(-t), math.sqrt(1 - math.exp(-2 * t))
        smooth = lambda y: sciquad(lambda z: f(y * decay + z * spread) * dens(z),
                                   -14, 14, limit=300)[0]
        lhs = math.sqrt(sciquad(lambda y: smooth(y) ** 2 * dens(y), -14, 14,
                                limit=300)[0])
        rhs = sciquad(lambda y: f(y) ** q_star * dens(y), -14, 14,
                      limit=300)[0] ** (1 / q_star)
        rule = G.legendre_gaussian_rule(panels=256, order=6)
        rep = G.check_hypercontractivity(
            G.HYPERCONTRACTIVITY_REGISTRY["clipped-exp-half"], t, rule)
        assert rep.rhs - rep.lhs == pytest.approx(rhs - lhs, abs=1e-5)
        assert rhs - lhs > 0


class TestVarianceHeatIdentity:
    def test_linear(self):
        rep = G.variance_heat_identity(lambda y: np.asarray(y),
                                       lambda y: np.ones_like(np.asarray(y)), RULE)
        assert rep.var == pytest.approx(1.0, abs=1e-12)
        assert rep.integral_side == pytest.approx(1.0, abs=1e-10)

    def test_constant(self):
        rep = G.variance_heat_identity(lambda y: 4.0 * np.ones_like(np.asarray(y)),
                                       lambda y: np.zeros_like(np.asarray(y)), RULE)
        assert rep.var == pytest.approx(0.0, abs=1e-12)
        assert rep.discrepancy <= 1e-12

    def test_square(self):
        rep = G.variance_heat_identity(lambda y: np.asarray(y) ** 2,
                                       lambda y: 2.0 * np.asarray(y), RULE)
        assert rep.var == pytest.approx(2.0, abs=1e-10)
        assert rep.discrepancy <= 1e-6
