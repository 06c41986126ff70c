import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from fppvar import edge_distributions as ed

FAMILIES = [ed.exponential(), ed.gamma_family(2.0), ed.beta_family(2.0, 3.0),
            ed.uniform_family(), ed.chi2_family(2.0, 0.5), ed.half_normal()]


class TestFamilies:
    @pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: d.name)
    def test_cdf_quantile_round_trip(self, dist):
        ps = np.concatenate([np.geomspace(1e-12, 0.5, 60),
                             1.0 - np.geomspace(1e-12, 0.4, 60)])
        back = dist.cdf(dist.ppf(ps))
        assert np.max(np.abs(back - ps)) <= 1e-10

    @pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: d.name)
    def test_density_positive_inside_support(self, dist):
        qs = np.linspace(0.001, 0.999, 41)
        ys = dist.ppf(qs)
        assert np.all(dist.pdf(ys) > 0)

    @pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: d.name)
    def test_sampler_ks(self, dist):
        s = ed.sample(dist, 2024, 10_000)
        assert kstest(s, dist.cdf).statistic <= 0.02

    def test_equality_by_law(self):
        assert ed.exponential() == ed.exponential()
        assert ed.exponential(1.0) != ed.exponential(2.0)

    def test_sampler_deterministic(self):
        d = ed.exponential()
        a = ed.sample(d, 7, 3)
        b = ed.sample(d, 7, 3)
        assert np.array_equal(a, b)

    def test_sampler_moment(self):
        d = ed.gamma_family(2.0)
        s = ed.sample(d, 11, 10_000)
        se = d.std() / math.sqrt(s.size)
        assert abs(s.mean() - 2.0) <= 3 * se

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            ed.sample(ed.exponential(), 0, 0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            ed.uniform_family(1.0, 1.0)
        with pytest.raises(ValueError):
            ed.exponential(0.0)
        with pytest.raises(ValueError):
            ed.uniform_family(-1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, bad):
        # With an infinite rate scipy's _ppf times a zero scale would sample
        # all-zero weights instead of failing.
        for make in (lambda: ed.exponential(bad), lambda: ed.gamma_family(bad),
                     lambda: ed.gamma_family(2.0, bad), lambda: ed.beta_family(bad, 1.0),
                     lambda: ed.beta_family(1.0, bad), lambda: ed.uniform_family(0.0, bad),
                     lambda: ed.uniform_family(bad, 1.0), lambda: ed.chi2_family(bad),
                     lambda: ed.chi2_family(2.0, bad)):
            with pytest.raises(ValueError):
                make()
        with pytest.raises(ValueError):
            ed.parse_distribution(f"exp:rate={bad}")


# Every family at two parameter sets (halfnormal has none), with non-unit
# rates and scales and the U-shaped beta(0.5, 0.5).
KERNEL_LAWS = [ed.exponential(), ed.exponential(1.23456789),
               ed.gamma_family(2.0), ed.gamma_family(0.7, 3.3),
               ed.beta_family(2.0, 3.0), ed.beta_family(0.5, 0.5),
               ed.uniform_family(), ed.uniform_family(0.5, 2.75),
               ed.chi2_family(2.0, 0.5), ed.chi2_family(3.0, 1.7),
               ed.half_normal()]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


POSITIVE = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def laws(draw):
    family = draw(st.sampled_from(["exp", "gamma", "beta", "uniform", "chi2", "halfnormal"]))
    if family == "exp":
        return ed.exponential(draw(POSITIVE))
    if family == "gamma":
        return ed.gamma_family(draw(POSITIVE), draw(POSITIVE))
    if family == "beta":
        return ed.beta_family(draw(POSITIVE), draw(POSITIVE))
    if family == "chi2":
        return ed.chi2_family(draw(POSITIVE), draw(POSITIVE))
    if family == "uniform":
        lo = draw(st.floats(min_value=0.0, max_value=1e6))
        hi = draw(st.floats(min_value=lo, max_value=2e6, exclude_min=True))
        return ed.uniform_family(lo, hi)
    return ed.half_normal()


class TestQuantileKernels:
    """The direct quantile against scipy's ``rv_frozen.ppf`` as the oracle."""

    @pytest.mark.parametrize("dist", KERNEL_LAWS, ids=lambda d: d.name)
    def test_sample_matches_frozen_ppf(self, dist):
        for seed in (0, 1, 2024):
            u = np.random.default_rng(seed).random(20_000)
            np.clip(u, 2.220446049250313e-16, None, out=u)
            assert same_bits(ed.sample(dist, seed, 20_000), dist.dist.ppf(u))

    @pytest.mark.parametrize("dist", KERNEL_LAWS, ids=lambda d: d.name)
    def test_ppf_matches_frozen_ppf(self, dist):
        ps = np.array([2.220446049250313e-16, 0.5, 1.0 - 2.0 ** -53, 0.0, 1.0])
        assert same_bits(dist.ppf(ps), dist.dist.ppf(ps))
        for p in ps:
            assert same_bits(dist.ppf(p), dist.dist.ppf(p))
        assert np.ndim(dist.ppf(0.25)) == 0

    @pytest.mark.parametrize("dist", KERNEL_LAWS, ids=lambda d: d.name)
    def test_out_of_range_is_nan(self, dist):
        bad = np.array([-1e-300, -0.5, 1.0 + 2.0 ** -52, 2.0, math.nan, -math.inf, math.inf])
        assert np.all(np.isnan(dist.ppf(bad)))
        assert np.all(np.isnan(dist.dist.ppf(bad)))

    @settings(max_examples=200, deadline=None)
    @given(laws(), st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_random_laws_match_frozen_ppf(self, dist, seed):
        u = np.random.default_rng(seed).random(64)
        np.clip(u, 2.220446049250313e-16, None, out=u)
        assert same_bits(ed.sample(dist, seed, 64), dist.dist.ppf(u))
        ps = np.concatenate([[0.0, 2.220446049250313e-16, 0.5, 1.0 - 2.0 ** -53, 1.0], u])
        assert same_bits(dist.ppf(ps), dist.dist.ppf(ps))

    @pytest.mark.parametrize("dist", KERNEL_LAWS, ids=lambda d: d.name)
    def test_pickled_law_samples_identically(self, dist):
        back = pickle.loads(pickle.dumps(dist))
        assert back == dist
        assert same_bits(ed.sample(back, 9, 5_000), ed.sample(dist, 9, 5_000))


class TestParser:
    def test_specs(self):
        assert ed.parse_distribution("exp:rate=2").name == "exp:rate=2"
        assert ed.parse_distribution("gamma:shape=3").name == "gamma:shape=3,rate=1"
        assert ed.parse_distribution("beta:a=2,b=3").name == "beta:a=2,b=3"
        assert ed.parse_distribution("uniform:lo=0,hi=2").name == "uniform:lo=0,hi=2"
        assert ed.parse_distribution("chi2:k=2,alpha=0.5").name == "chi2:k=2,alpha=0.5"
        assert ed.parse_distribution("halfnormal").name == "halfnormal"

    def test_bad_specs(self):
        for bad in ("nope", "exp:speed=1", "gamma:shape"):
            with pytest.raises(ValueError):
                ed.parse_distribution(bad)

    def test_names_round_trip(self):
        for dist in FAMILIES:
            assert ed.parse_distribution(dist.name).name == dist.name

    def test_exact_names(self):
        assert ed.exponential(1.23456789).name == "exp:rate=1.23456789"
        assert ed.gamma_family(2.0, 1.0).name == "gamma:shape=2,rate=1"
        assert ed.exponential(1.0).name == "exp:rate=1"
        assert ed.beta_family(0.1, 1e-7).name == "beta:a=0.1,b=1e-07"
        assert ed.uniform_family(0.0, 1 / 3).name == "uniform:lo=0,hi=0.3333333333333333"

    @settings(max_examples=200, deadline=None)
    @given(laws())
    def test_parse_of_name_reproduces_law(self, dist):
        back = ed.parse_distribution(dist.name)
        assert back.name == dist.name
        assert back == dist and hash(back) == hash(dist)
        ps = np.concatenate([[0.0, 2.220446049250313e-16, 0.5, 1.0 - 2.0 ** -53, 1.0],
                             np.random.default_rng(0).random(64)])
        assert same_bits(back.ppf(ps), dist.ppf(ps))


class TestPsi:
    def test_uniform_midpoint(self):
        assert ed.psi(ed.uniform_family(), 0.5) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), abs=1e-14)

    def test_exponential_tail_asymptotic(self):
        # psi(y) ~ sqrt(2y) for the exponential; mpmath golden 0.9668215942
        d = ed.exponential()
        assert ed.psi(d, 30.0) / math.sqrt(60.0) == pytest.approx(0.9668215942, abs=1e-8)
        assert 0.9 <= ed.psi(d, 30.0) / math.sqrt(60.0) <= 1.1

    def test_exponential_ratio_monotone(self):
        d = ed.exponential()
        ratios = [ed.psi(d, float(y)) / math.sqrt(2.0 * y) for y in (10, 20, 40)]
        assert all(b > a - 0.05 for a, b in zip(ratios, ratios[1:]))
        assert all(r <= 1.0 for r in ratios)

    def test_half_normal_deep_tail(self):
        # frozen from an mpmath composition through the log-space cdf
        assert ed.psi(ed.half_normal(), 10.0) == pytest.approx(0.9932443447769326, rel=1e-9)

    @pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: d.name)
    def test_positive_on_support(self, dist):
        qs = np.linspace(0.001, 0.999, 101)
        vals = ed.psi(dist, dist.ppf(qs))
        assert np.all(vals > 0)
        assert np.all(np.isfinite(vals))

    def test_outside_support_rejected(self):
        with pytest.raises(ValueError):
            ed.psi(ed.uniform_family(), 1.5)
        with pytest.raises(ValueError):
            ed.psi(ed.exponential(), 0.0)


class TestNearGamma:
    def test_sufficient_pass_families(self):
        for dist in (ed.exponential(), ed.gamma_family(2.0),
                     ed.beta_family(2.0, 3.0), ed.uniform_family()):
            rep = ed.check_near_gamma_sufficient(dist)
            assert rep.sufficient_alpha_ok, dist.name
            assert rep.sufficient_beta_or_tail_ok, dist.name
            assert rep.verdict == "sufficient-conditions-pass"

    def test_exponential_tail_ratio_is_one(self):
        rep = ed.check_near_gamma_sufficient(ed.exponential())
        lo, hi = rep.tail_constants
        assert lo == pytest.approx(1.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)

    def test_half_normal_fails_tail_only(self):
        rep = ed.check_near_gamma_sufficient(ed.half_normal())
        assert rep.sufficient_alpha_ok
        assert not rep.sufficient_beta_or_tail_ok
        assert rep.verdict == "fail"

    def test_direct_uniform(self):
        rep = ed.check_near_gamma_direct(ed.uniform_family(), 50_000)
        assert rep.direct_pass
        assert 0.7 <= rep.direct_epsilon_hat <= 1.3

    def test_direct_exponential(self):
        rep = ed.check_near_gamma_direct(ed.exponential(), 50_000)
        assert rep.direct_pass

    def test_direct_half_normal(self):
        rep = ed.check_near_gamma_direct(ed.half_normal(), 50_000)
        assert rep.direct_pass

    def test_direct_grid_validation(self):
        with pytest.raises(ValueError):
            ed.check_near_gamma_direct(ed.exponential(), 50)

    def test_classify_merges(self):
        rep = ed.classify(ed.half_normal(), 20_000)
        assert rep.verdict == "direct-evidence-only"
        rep = ed.classify(ed.gamma_family(2.0), 20_000)
        assert rep.verdict == "sufficient-conditions-pass"

    def test_sufficient_pass_implies_direct_pass(self):
        for dist in (ed.exponential(), ed.gamma_family(2.0),
                     ed.beta_family(2.0, 3.0), ed.uniform_family()):
            rep = ed.classify(dist, 20_000)
            if rep.verdict == "sufficient-conditions-pass":
                assert rep.direct_pass, dist.name
