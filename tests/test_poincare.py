import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from fppvar import gaussian as G
from fppvar import poincare as P
from fppvar.cli import _json
from fppvar.edge_distributions import (_uniforms, beta_family, exponential,
                                       parse_distribution, uniform_family)
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

    def test_bit_index_rule(self):
        # True ran as bit 1, and 1.0 raised a TypeError from inside.
        tf = P.TestFunction("two-bits", 2, 1, lambda x, y: x[..., 0] + 2.0 * x[..., 1] * y[..., 0],
                            (lambda x, y: 2.0 * x[..., 1],))
        for q in (True, 1.0, -1, 2):
            with pytest.raises(ValueError, match="bit index out of range"):
                P.discrete_gradient_norm(tf, q)
        assert P.discrete_gradient_norm(tf, np.int64(1)) == P.discrete_gradient_norm(tf, 1)

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
        assert rep.lhs_variance == pytest.approx(0.25, abs=1e-12)
        assert rep.discrete_term == pytest.approx(0.5, abs=1e-12)
        assert rep.passed

    def test_single_coordinate_equality(self):
        rep = P.verify_tensorisation(lambda x: x[..., 0], 1)
        assert rep.lhs_variance == pytest.approx(rep.discrete_term, abs=1e-12)

    def test_constant(self):
        rep = P.verify_tensorisation(lambda x: np.zeros(x.shape[:-1]), 3)
        assert rep.lhs_variance == 0.0
        assert rep.passed

    def test_one_builder(self):
        # the module's pass rule, exact: no continuous terms, no error, floor 1e-12
        rep = P.verify_tensorisation(lambda x: x @ np.arange(1.0, 5.0), 4)
        TestOneReportBuilder.check_rule(rep)
        assert isinstance(rep, P.InequalityReport)
        assert (rep.method, rep.continuous_terms, rep.error_estimate) == ("exhaustive", (), 0.0)
        assert rep.tolerance == 1e-12 * (1 + rep.rhs_total)
        # Var of sum_q c_q x_q is sum_q c_q^2 / 4 = 7.5, the gradient sum too
        assert rep.lhs_variance == rep.rhs_total == 7.5

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

    # SHA-256 of the report JSON, recorded with each law built as a
    # scipy.stats frozen object.
    @pytest.mark.parametrize("spec, digest", [
        ("exp", "18ddb87cfa8c1223823be9f396fa55262dd06175bb5689835670d4a9b3f265a4"),
        ("gamma", "d1c139f9d450d9eab644c0c405ce7185a84312d726b8a55388893cbe43443e7d"),
        ("beta", "802f31c89b20cf89563587fbbca4878b21c9d3dbddee97ac85b6860b9a0e9c40"),
        ("uniform", "0743f04bbe70393343b06b53cdf3ea7e04c41277dd1dcafa0e5a516666bb276b"),
        ("chi2", "11332358727851e0d2955b875c99f9da1b04a366eb114f490fbbed65309af952"),
        ("halfnormal", "c199b2d6f00d7cf365dc0fe9c948f3fedcc73d94b9dc1e5db2cad0a6bb01edf4")])
    def test_report_golden(self, spec, digest):
        rep = P.verify_change_of_variables(np.sin, np.cos, parse_distribution(spec), 5000, 2)
        assert hashlib.sha256(_json(rep).encode()).hexdigest() == digest


class TestOneReportBuilder:
    """Every report kind follows the pass rule of the poincare docstring."""

    @staticmethod
    def check_rule(rep):
        assert rep.rhs_total == rep.discrete_term + sum(t.contribution
                                                        for t in rep.continuous_terms)
        assert rep.margin == rep.rhs_total - rep.lhs_variance
        assert rep.passed == (rep.margin >= -rep.tolerance)

    @pytest.mark.parametrize("name", sorted(P.REGISTRY))
    def test_quadrature(self, name):
        tf = P.REGISTRY[name]
        rep = P.verify_modified_poincare(tf, rule=rule_for(tf))
        self.check_rule(rep)
        assert rep.method == "quadrature"
        assert rep.error_estimate == 0.0
        assert rep.tolerance == 1e-6 * (1 + rep.rhs_total)

    @pytest.mark.parametrize("name", sorted(P.REGISTRY))
    def test_monte_carlo(self, name):
        rep = P.verify_modified_poincare(P.REGISTRY[name], mc={"samples": 2000, "seed": 4})
        self.check_rule(rep)
        assert rep.method == "monte-carlo"
        assert rep.tolerance == 3 * rep.error_estimate

    @pytest.mark.parametrize("check", [
        lambda: P.verify_chi2_inequality(np.sqrt, lambda y: 0.5 / np.sqrt(y), k=3,
                                         alpha=0.5, samples=5000, seed=2),
        lambda: P.verify_change_of_variables(np.sin, np.cos, beta_family(2.0, 3.0), 5000, 2),
    ], ids=["chi2", "change-of-variables"])
    def test_corollaries(self, check):
        rep = check()
        self.check_rule(rep)
        assert rep.method == "monte-carlo"
        assert rep.discrete_term == 0.0
        assert rep.tolerance == 3 * rep.error_estimate

    def test_one_sample_floor(self):
        entry_points = {
            "modified-poincare": lambda n, seed=0: P.verify_modified_poincare(
                P.REGISTRY["bit-times-gauss"], mc={"samples": n, "seed": seed}),
            "chi2": lambda n, seed=0: P.verify_chi2_inequality(
                lambda y: y, np.ones_like, k=2, alpha=1.0, samples=n, seed=seed),
            "change-of-variables": lambda n, seed=0: P.verify_change_of_variables(
                lambda y: y, np.ones_like, exponential(), n, seed),
        }
        messages = set()
        for name, run in entry_points.items():
            # A float count is refused, not truncated (2000.9 ran as 2000).
            for n in (-5, 0, P.MIN_MC_SAMPLES - 1, True, 1500.5, 2000.0):
                with pytest.raises(ValueError) as info:
                    run(n)
                messages.add(str(info.value))
            # None drew fresh entropy on every call, True ran as 1, and so did
            # 1.5 under mc=.
            for seed in (None, 1.5, True, -1):
                with pytest.raises(ValueError, match="^seed must be a nonnegative integer$"):
                    run(P.MIN_MC_SAMPLES, seed)
            assert isinstance(run(P.MIN_MC_SAMPLES), P.InequalityReport), name
            assert run(P.MIN_MC_SAMPLES, np.int64(3)) == run(P.MIN_MC_SAMPLES, 3), name
        assert messages == {f"Monte Carlo checks need at least {P.MIN_MC_SAMPLES} samples"}

    def test_tensor_grid_cap(self):
        # A 2-node rule keeps the uncapped grid small (2^7 nodes); the cap
        # must refuse it before any grid is built.
        n = P.MAX_QUAD_CONT + 1
        tf = P.TestFunction("sum-7d", 1, n, lambda x, y: x[..., 0] + y.sum(axis=-1),
                            (lambda x, y: 1.0,) * n)
        rule = G.hermite_rule(2)
        for check in (lambda: P.verify_modified_poincare(tf, rule=rule),
                      lambda: P.verify_variance_split(tf, rule),
                      lambda: P.discrete_gradient_norm(tf, 0, rule)):
            with pytest.raises(ValueError, match="n_cont <= 6"):
                check()


def _digest(items) -> str:
    return hashlib.sha256("\n".join(map(repr, items)).encode()).hexdigest()


class TestReportGoldens:
    """SHA-256 of the reports' reprs, recorded before tensorisation and the
    Monte Carlo partials moved onto the shared builder and evaluator."""

    def test_quadrature(self):
        reps = [P.verify_modified_poincare(P.REGISTRY[k], rule=rule_for(P.REGISTRY[k]))
                for k in sorted(P.REGISTRY)]
        assert _digest(reps) == (
            "d3d0b7aff33b9715bb70012fef8fff8cb9e0278a9be0d0fe11fc25e5c74d6bd1")

    @pytest.mark.parametrize("seed, digest", [
        (0, "a007ff715844539eb8bcb6a548487e52be885a14f73b0fbdc13acc6fa134a2b0"),
        (1, "5dddb1df8f3731c1b55bba161e29a4ff879aca2a549033f5caa99390d83522af"),
        (7, "35f252b8f1065d0c2a7803c5699f8cf47ea06325853a6b63f33c9cf9c9612dee")])
    def test_monte_carlo(self, seed, digest):
        reps = [P.verify_modified_poincare(P.REGISTRY[k], mc={"samples": 5000, "seed": seed})
                for k in sorted(P.REGISTRY)]
        assert _digest(reps) == digest

    def test_discrete_gradient_norms(self):
        norms = [P.discrete_gradient_norm(tf, q) for _, tf in sorted(P.REGISTRY.items())
                 for q in range(tf.n_bits)]
        assert _digest(norms) == (
            "fcda74223f20188ae7096f5b299b847511427d7247c7c25345e445afbed7df80")


# A 3-coordinate function with 2 bits: the grid fill beyond two axes.
MIXED_3D = P.TestFunction(
    "mixed-3d", 2, 3,
    lambda x, y: ((x[..., 0] - 0.5) * y[..., 0] * y[..., 2] + x[..., 1] * np.sin(y[..., 1])
                  + y[..., 2] ** 2),
    (lambda x, y: (x[..., 0] - 0.5) * y[..., 2],
     lambda x, y: x[..., 1] * np.cos(y[..., 1]),
     lambda x, y: (x[..., 0] - 0.5) * y[..., 0] + 2.0 * y[..., 2]))


class TestTensorGrid:
    """The grid is filled by broadcasting and each mean reduces a @ weights
    without np.mean's wrapper.  The digests were recorded with the
    meshgrid-and-stack grid and np.mean reductions that this replaced."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_grid_is_the_tensor_product(self, k):
        rule = G.hermite_rule(5)
        tf = P.TestFunction(f"sum-{k}d", 1, k, lambda x, y: y.sum(axis=-1), (lambda x, y: 1.0,) * k)
        x, y, weights = P._quad_points(tf, rule)
        # Independent construction: one row per index tuple, in C order.
        idx = np.array(np.unravel_index(np.arange(5 ** k), (5,) * k)).T
        assert y.shape == (1, 5 ** k, k) and y.flags.c_contiguous
        assert np.array_equal(y[0], rule.nodes[idx])
        assert np.array_equal(weights, np.prod(rule.weights[idx], axis=1))
        assert np.array_equal(x, np.array([[[0.0]], [[1.0]]]))

    @pytest.mark.parametrize("rule, digest", [
        (G.legendre_gaussian_rule(64, 8),
         "7a2ac0de0a17309f314ed745e0da91be9c51824de51653193eaa5352d5500660"),
        (G.hermite_rule(8), "f57ad97c1513385a619bcd598b0167cdc104a1af4a906d96b83b1ca806c24ea6")])
    def test_registry_on_other_rules(self, rule, digest):
        reps = [P.verify_modified_poincare(P.REGISTRY[k], rule=rule) for k in sorted(P.REGISTRY)]
        assert _digest(reps) == digest

    def test_three_coordinates(self):
        rule = G.hermite_rule(8)
        rep = P.verify_modified_poincare(MIXED_3D, rule=rule)
        split = P.verify_variance_split(MIXED_3D, rule)
        norms = [P.discrete_gradient_norm(MIXED_3D, q, rule) for q in range(2)]
        assert _digest([rep, split] + norms) == (
            "b47e2e98f48eff64a6214f0ba927619a0fb1e96d270ad42c92f1d33afc1f2f65")
        # Closed forms: bit 0 moves f by y0*y2, bit 1 by sin(y1).
        assert norms[0] == pytest.approx(0.25, rel=1e-12)
        assert norms[1] == pytest.approx((1.0 - math.exp(-2.0)) / 8.0, rel=1e-3)
        assert split.discrepancy <= 1e-12
        assert rep.passed and len(rep.continuous_terms) == 3


class TestCounts:
    """n_bits and n_cont follow the package's count rule: an integer, not a bool."""

    @pytest.mark.parametrize("n_bits, n_cont", [
        (True, 1), (1.0, 1), (-1, 1), (0, True), (0, 1.0), (0, 0)])
    def test_test_function_refuses(self, n_bits, n_cont):
        with pytest.raises(ValueError, match="must be an integer >= "):
            P.TestFunction("bad", n_bits, n_cont, lambda x, y: y[..., 0], (lambda x, y: 1.0,))

    def test_numpy_integers(self):
        tf = P.REGISTRY["mixed-bit-quadratic"]
        same = P.TestFunction(tf.name, np.int64(1), np.int64(2), tf.fn, tf.partials)
        assert type(same.n_bits) is int and type(same.n_cont) is int
        assert P.verify_modified_poincare(same, rule=RULE) == P.verify_modified_poincare(tf, rule=RULE)

    def test_tensorisation_bits(self):
        def g(x):
            return x[:, 0]
        for n_bits in (True, 1.0, -1):
            with pytest.raises(ValueError, match="n_bits must be an integer >= 0"):
                P.verify_tensorisation(g, n_bits)
        assert P.verify_tensorisation(g, np.int64(2)) == P.verify_tensorisation(g, 2)
