import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from fppvar import gaussian as G
from fppvar import poincare as P
from fppvar.edge_distributions import _uniforms, beta_family, exponential, uniform_family
from fppvar.phi import phi

RULE = G.hermite_rule(64)


def rule_for(tf):
    return G.hermite_rule(64 if tf.n_cont <= 2 else 24)


class TestRegistry:
    def test_size_and_mixed_cases(self):
        assert len(P.REGISTRY) >= 10
        assert any(tf.n_bits > 0 and tf.n_cont > 0 for tf in P.REGISTRY.values())

    @pytest.mark.parametrize("name", sorted(P.REGISTRY))
    def test_partials_match_finite_differences(self, name):
        tf = P.REGISTRY[name]
        rng = np.random.default_rng(5150)
        x = rng.integers(0, 2, size=(20, tf.n_bits)).astype(float)
        y = rng.standard_normal((20, tf.n_cont))
        h = 1e-6
        for i, dfun in enumerate(tf.partials):
            yp = y.copy()
            yp[:, i] += h
            ym = y.copy()
            ym[:, i] -= h
            fd = (np.asarray(tf.fn(x, yp), dtype=float)
                  - np.asarray(tf.fn(x, ym), dtype=float)) / (2 * h)
            analytic = np.broadcast_to(np.asarray(dfun(x, y), dtype=float), fd.shape)
            assert np.max(np.abs(fd - analytic)) <= 1e-6, name

    @pytest.mark.parametrize("name", sorted(P.REGISTRY))
    def test_evaluator_finite(self, name):
        tf = P.REGISTRY[name]
        rng = np.random.default_rng(99)
        x = rng.integers(0, 2, size=(50, tf.n_bits)).astype(float)
        y = rng.uniform(-12, 12, size=(50, tf.n_cont))
        assert np.all(np.isfinite(np.asarray(tf.fn(x, y), dtype=float)))


class TestDiscreteGradient:
    def test_single_bit(self):
        assert P.discrete_gradient_norm(P.REGISTRY["bit-single"], 0) == pytest.approx(0.25)

    def test_function_without_bit_dependence(self):
        assert P.discrete_gradient_norm(P.REGISTRY["bit-plus-gauss"], 0) == pytest.approx(0.25)
        # purely continuous coordinate: no discrete gradient at all
        tf = P.REGISTRY["linear-1d"]
        with pytest.raises(ValueError):
            P.discrete_gradient_norm(tf, 0)

    def test_bit_times_gauss(self):
        # oracle: exhaustive cube x quadrature gives E[y^2]/4 = 1/4
        assert P.discrete_gradient_norm(P.REGISTRY["bit-times-gauss"], 0) == pytest.approx(
            0.25, abs=1e-12)


class TestModifiedPoincare:
    def test_exactly_one_mode(self):
        tf = P.REGISTRY["linear-1d"]
        with pytest.raises(ValueError):
            P.verify_modified_poincare(tf)
        with pytest.raises(ValueError):
            P.verify_modified_poincare(tf, rule=RULE, mc={"samples": 2000, "seed": 0})

    def test_linear_is_tight(self):
        rep = P.verify_modified_poincare(P.REGISTRY["linear-1d"], rule=RULE)
        assert type(rep.discrete_term) is float  # the JSON report prints 0.0, not 0
        assert rep.lhs_variance == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs_total == pytest.approx(1.0, abs=1e-9)
        assert abs(rep.margin) <= 1e-6

    def test_quadratic_values(self):
        rep = P.verify_modified_poincare(P.REGISTRY["quadratic-1d"], rule=RULE)
        assert rep.lhs_variance == pytest.approx(2.0, abs=1e-10)
        # analytic rhs = 4*phi(sqrt(2/pi)); the L1 norm of |2y| converges
        # slowly under Gauss-Hermite (kink at 0), hence the loose tolerance
        want = 4.0 * phi(math.sqrt(2.0 / math.pi))
        assert rep.rhs_total == pytest.approx(want, rel=0.01)
        assert rep.margin > 0

    def test_pure_bit_function(self):
        rep = P.verify_modified_poincare(P.REGISTRY["bit-single"], rule=RULE)
        assert rep.lhs_variance == pytest.approx(0.25, abs=1e-12)
        assert rep.discrete_term == pytest.approx(0.25, abs=1e-12)
        assert sum(t.contribution for t in rep.continuous_terms) == 0.0

    @pytest.mark.parametrize("name", sorted(P.REGISTRY))
    def test_margin_nonnegative_quadrature(self, name):
        tf = P.REGISTRY[name]
        rep = P.verify_modified_poincare(tf, rule=rule_for(tf))
        assert rep.passed, f"{name}: margin={rep.margin}"
        assert rep.margin >= -1e-6 * (1.0 + rep.rhs_total)

    @pytest.mark.parametrize("name", sorted(P.REGISTRY))
    def test_report_invariants(self, name):
        tf = P.REGISTRY[name]
        rep = P.verify_modified_poincare(tf, rule=rule_for(tf))
        for term in rep.continuous_terms:
            assert 0.0 <= term.ratio <= 1.0 + 1e-9
        weaker = rep.discrete_term + sum(t.l2sq for t in rep.continuous_terms)
        assert rep.rhs_total <= weaker + 1e-12

    def test_mc_mode_margin(self):
        rep = P.verify_modified_poincare(P.REGISTRY["product-2d"],
                                         mc={"samples": 50_000, "seed": 3})
        assert rep.method == "monte-carlo"
        assert rep.margin >= -rep.tolerance

    def test_mc_error_bar_of_two_point_law(self):
        # oracle: the spread of the sample variance of Bernoulli(1/2) over seeds
        tf = P.REGISTRY["bit-single"]
        reps = [P.verify_modified_poincare(tf, mc={"samples": 2000, "seed": s})
                for s in range(400)]
        spread = float(np.std([r.lhs_variance for r in reps], ddof=1))
        median_se = float(np.median([r.error_estimate for r in reps]))
        assert spread / 2 <= median_se <= 2 * spread

    def test_mc_two_point_law_passes(self):
        tf = P.REGISTRY["bit-single"]
        for seed in range(64):
            assert P.verify_modified_poincare(tf, mc={"samples": 20_000, "seed": seed}).passed, seed

    def test_mc_sample_floor(self):
        with pytest.raises(ValueError):
            P.verify_modified_poincare(P.REGISTRY["linear-1d"], mc={"samples": 100, "seed": 0})

    @pytest.mark.parametrize("name", ["quadratic-1d", "bit-times-gauss", "sum-2d"])
    def test_quad_mc_cross_check(self, name):
        tf = P.REGISTRY[name]
        quad_rep = P.verify_modified_poincare(tf, rule=rule_for(tf))
        mc_rep = P.verify_modified_poincare(tf, mc={"samples": 200_000, "seed": 17})
        se = max(mc_rep.error_estimate, 1e-9)
        assert abs(quad_rep.lhs_variance - mc_rep.lhs_variance) <= 3 * se
        assert abs(quad_rep.rhs_total - mc_rep.rhs_total) <= 3 * se


class TestVarianceSplit:
    def test_independent_sum(self):
        rep = P.verify_variance_split(P.REGISTRY["bit-plus-gauss"], RULE)
        assert rep.lhs == pytest.approx(1.25, abs=1e-12)
        assert rep.discrepancy <= 1e-8

    def test_product(self):
        # oracle: exhaustive cube x quadrature; Var = 1/2 splits as 1/4 + ...
        rep = P.verify_variance_split(P.REGISTRY["bit-times-gauss"], RULE)
        assert rep.lhs == pytest.approx(0.5, abs=1e-12)
        assert rep.discrepancy <= 1e-8

    def test_constant(self):
        tf = P.TestFunction("const", 1, 1,
                            lambda x, y: np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1])),
                            (lambda x, y: np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1])),))
        rep = P.verify_variance_split(tf, RULE)
        assert rep.lhs == pytest.approx(0.0, abs=1e-14)
        assert rep.discrepancy <= 1e-8


class TestTensorisation:
    def test_parity_strict(self):
        # exhaustive oracle over 4 points: Var = 1/4, gradient sum = 1/2
        rep = P.verify_tensorisation(
            lambda x: x[..., 0] + x[..., 1] - 2 * x[..., 0] * x[..., 1], 2)
        assert rep.variance == pytest.approx(0.25, abs=1e-12)
        assert rep.gradient_sum == pytest.approx(0.5, abs=1e-12)
        assert rep.holds

    def test_single_coordinate_equality(self):
        rep = P.verify_tensorisation(lambda x: x[..., 0], 1)
        assert rep.variance == pytest.approx(rep.gradient_sum, abs=1e-12)

    def test_constant(self):
        rep = P.verify_tensorisation(lambda x: np.zeros(x.shape[:-1]), 3)
        assert rep.variance == 0.0
        assert rep.holds

    def test_size_guard(self):
        with pytest.raises(ValueError):
            P.verify_tensorisation(lambda x: x[..., 0], 21)


class TestCk:
    def test_k2(self):
        assert P.c_k(2) == pytest.approx(2 * math.sqrt(2) / math.pi, abs=1e-12)

    def test_k3(self):
        assert P.c_k(3) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    @pytest.mark.parametrize("k", [*range(2, 11), 25, 60])
    def test_both_display_forms_agree(self, k):
        # independent quadrature route for sqrt(k) * int |cos| sin^(k-2) / int sin^(k-2)
        num = quad(lambda t: abs(math.cos(t)) * math.sin(t) ** (k - 2), 0, math.pi,
                   limit=200)[0]
        den = quad(lambda t: math.sin(t) ** (k - 2), 0, math.pi, limit=200)[0]
        assert P.c_k(k) == pytest.approx(math.sqrt(k) * num / den, abs=1e-10)

    def test_below_one(self):
        assert all(P.c_k(k) < 1.0 for k in range(2, 30))

    def test_domain(self):
        with pytest.raises(ValueError):
            P.c_k(1)


class TestChi2Inequality:
    def test_linear_exponential_case(self):
        # nu = Exp(1); lhs = 1, rhs = 2*phi(c(2)*sqrt(pi)/2) ~ 1.693
        rep = P.verify_chi2_inequality(lambda y: y, lambda y: np.ones_like(y),
                                       k=2, alpha=1.0, samples=200_000, seed=7)
        assert rep.lhs_variance == pytest.approx(1.0, rel=0.05)
        assert rep.rhs_total == pytest.approx(1.6930, rel=0.02)
        assert rep.margin > 0
        assert rep.passed

    def test_constant(self):
        rep = P.verify_chi2_inequality(lambda y: np.ones_like(y),
                                       lambda y: np.zeros_like(y),
                                       k=2, alpha=1.0, samples=2000, seed=1)
        assert rep.lhs_variance == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs_total == pytest.approx(0.0, abs=1e-12)
        assert rep.passed

    def test_sqrt_case(self):
        rep = P.verify_chi2_inequality(np.sqrt, lambda y: 0.5 / np.sqrt(y),
                                       k=2, alpha=1.0, samples=200_000, seed=7)
        assert rep.passed
        assert rep.margin > 0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            P.verify_chi2_inequality(lambda y: y, lambda y: np.ones_like(y),
                                     k=2, alpha=0.0, samples=2000, seed=0)


class TestVarianceAndSe:
    def test_against_exact_rationals(self):
        # s^2 and the SE from the exact central moments of the doubles; m2
        # and m4 enter through the SE.  Every fourth array is a symmetric
        # two-point law, where the two SE terms nearly cancel.
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 300))
            vals = [rng.standard_normal(n), 3.0 + rng.exponential(2.0, n),
                    rng.uniform(-5.0, 5.0, n), rng.choice([-1.0, 1.0], n)][seed % 4]
            s2, se = P._variance_and_se(vals)
            xs = [Fraction(v) for v in vals.tolist()]
            mean = sum(xs) / n
            sq = [(x - mean) ** 2 for x in xs]
            m2 = sum(sq) / n
            m4 = sum(q * q for q in sq) / n
            want_se = math.sqrt(float(max(m4 / n - m2 * m2 * (n - 3) / (n * (n - 1)), 0)))
            assert s2 == pytest.approx(float(sum(sq) / (n - 1)), rel=1e-13), seed
            assert se == pytest.approx(want_se, rel=1e-13), seed

    def test_variance_is_numpys(self):
        vals = np.random.default_rng(9).standard_normal(20_000)
        assert P._variance_and_se(vals)[0] == float(np.var(vals, ddof=1))


class TestChangeOfVariables:
    def test_uniform_linear(self):
        rep = P.verify_change_of_variables(lambda y: y, lambda y: np.ones_like(y),
                                           uniform_family(), samples=200_000, seed=11)
        assert rep.lhs_variance == pytest.approx(1.0 / 12.0, rel=0.05)
        assert rep.rhs_total == pytest.approx(0.17398, rel=0.03)
        assert rep.margin > 0

    def test_exponential_linear(self):
        rep = P.verify_change_of_variables(lambda y: y, lambda y: np.ones_like(y),
                                           exponential(), samples=200_000, seed=11)
        assert rep.lhs_variance == pytest.approx(1.0, rel=0.05)
        assert rep.margin > 0

    def test_constant(self):
        rep = P.verify_change_of_variables(lambda y: np.ones_like(y),
                                           lambda y: np.zeros_like(y),
                                           uniform_family(), samples=2000, seed=0)
        assert rep.lhs_variance == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs_total == pytest.approx(0.0, abs=1e-12)
        assert rep.passed

    def test_draw_rounded_onto_infinite_density_end(self):
        # Seed 5002 draws a level above 1 - 6.7e-9, whose beta(0.5, 0.5)
        # quantile rounds to the support end 1.0, where the density is
        # infinite; psi's limit there is 0.
        dist = beta_family(0.5, 0.5)
        assert np.any(dist._quantile(_uniforms(5002, 20_000)) == 1.0)
        rep = P.verify_change_of_variables(np.sin, np.cos, dist, 20_000, 5002)
        assert rep.passed
