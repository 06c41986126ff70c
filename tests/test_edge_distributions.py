import functools
import math
import pickle
import warnings

import mpmath as M
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

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
        assert stats.kstest(s, dist.cdf).statistic <= 0.02

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

    def test_largest_draw_is_finite(self, monkeypatch):
        # At u = 1 - 2^-53 scipy's halfnormal ndtri((1 + u) / 2) is inf; draws
        # stop at 1 - 2^-52, and at 2^-52 below.
        for top in (1.0 - 2.0 ** -53, 0.0):
            fake = type("Rng", (), {"random": lambda self, n, top=top: np.full(n, top)})
            monkeypatch.setattr(np.random, "default_rng", lambda seed: fake())
            u = ed._uniforms(0, 4)
            assert np.all((u >= 2.0 ** -52) & (u <= 1.0 - 2.0 ** -52))
            for dist in KERNEL_LAWS:
                assert np.all(np.isfinite(ed.sample(dist, 0, 4))), dist.name

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


class _TailHalfNormal(type(stats.halfnorm)):
    """scipy's half-normal law with the package's two-branch quantile, whose
    accuracy the mpmath test checks; every other method is scipy's."""

    def _ppf(self, p):
        return ed._half_normal_ppf(p)


# Each family as the scipy.stats frozen law of the constructor's parameters.
_SCIPY_LAWS = {"exp": lambda rate: stats.expon(scale=1.0 / rate),
               "gamma": lambda shape, rate: stats.gamma(a=shape, scale=1.0 / rate),
               "beta": lambda a, b: stats.beta(a, b),
               "uniform": lambda lo, hi: stats.uniform(loc=lo, scale=hi - lo),
               "chi2": lambda k, alpha: stats.gamma(a=k / 2.0, scale=1.0 / alpha),
               "halfnormal": lambda: _TailHalfNormal(a=0.0, name="halfnorm")()}


def frozen(dist):
    """The independent oracle: scipy.stats' frozen law with the parameters
    that the law's name spells, which read back as the constructor's."""
    family, _, args = dist.name.partition(":")
    params = dict(pair.split("=") for pair in args.split(",")) if args else {}
    return _SCIPY_LAWS[family](**{key: float(val) for key, val in params.items()})


def agrees(ours, oracle, *args) -> None:
    """ours(*args) has the bits of oracle(*args), and warns or raises exactly
    where the oracle does (scipy's own kernels overflow for some extreme
    shapes inside the support)."""
    with warnings.catch_warnings(record=True) as want_warned:
        warnings.simplefilter("always")
        try:
            want = oracle(*args)
        except ArithmeticError as err:
            with pytest.raises(type(err)):
                ours(*args)
            return
    with warnings.catch_warnings(record=True) as got_warned:
        warnings.simplefilter("always")
        got = ours(*args)
    assert [w.category for w in got_warned] == [w.category for w in want_warned]
    assert same_bits(got, want), (got, want)


# Quantile levels at which two laws must agree bit for bit.
LEVELS = np.concatenate([[0.0, 2.220446049250313e-16, 0.5, 1.0 - 2.0 ** -53, 1.0],
                         np.random.default_rng(0).random(64)])


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


def half_normal_rel_error(p: float, y: float) -> float:
    """Relative error of y as the half-normal p-quantile, from the residual
    of the closed-form cdf at 25 digits over the density at y: erf below
    1/2, erfc above, where 1 - p is exact."""
    with M.workdps(25):
        x = M.mpf(y) / M.sqrt(2)
        residual = M.erf(x) - p if p <= 0.5 else (1 - M.mpf(p)) - M.erfc(x)
        return float(abs(residual / (M.sqrt(2 / M.pi) * M.exp(-x * x) * M.mpf(y))))


class TestQuantileKernels:
    """The direct quantile against scipy's ``rv_frozen.ppf`` as the oracle.
    halfnormal's oracle runs the package's own quantile kernel, so there it
    only checks the wiring, and mpmath is the oracle."""

    def test_half_normal_against_mpmath(self):
        # Tail levels, and every 20th draw of three seeds.  Measured: at most
        # 5.9e-16 here and 9.1e-16 over all 60 000 draws; scipy's
        # ndtri((1 + p) / 2) is off by 8.9e-5 at p = 1e-12 and 2.1e-6 at
        # 1 - 1e-12.
        dist = ed.half_normal()
        levels = [1e-300, 2.0 ** -52, 1e-12, 1e-6, 0.3, 0.5, 0.7, 1 - 1e-6, 1 - 1e-12,
                  1 - 2.0 ** -52, 1 - 2.0 ** -53]
        pairs = [(p, float(dist.ppf(p))) for p in levels]
        for seed in (0, 1, 2024):
            u = np.random.default_rng(seed).random(20_000)
            np.clip(u, 2.0 ** -52, 1.0 - 2.0 ** -52, out=u)
            pairs += zip(u[::20].tolist(), ed.sample(dist, seed, 20_000)[::20].tolist())
        worst = max(half_normal_rel_error(p, y) for p, y in pairs)
        assert worst < 1.5e-15, worst
        assert same_bits(dist.ppf([0.0, 1.0]), [0.0, math.inf])

    @pytest.mark.parametrize("dist", KERNEL_LAWS, ids=lambda d: d.name)
    def test_sample_matches_frozen_ppf(self, dist):
        for seed in (0, 1, 2024):
            u = np.random.default_rng(seed).random(20_000)
            np.clip(u, 2.0 ** -52, 1.0 - 2.0 ** -52, out=u)
            assert same_bits(ed.sample(dist, seed, 20_000), frozen(dist).ppf(u))

    @pytest.mark.parametrize("dist", KERNEL_LAWS, ids=lambda d: d.name)
    def test_ppf_matches_frozen_ppf(self, dist):
        ps = np.array([2.220446049250313e-16, 0.5, 1.0 - 2.0 ** -53, 0.0, 1.0])
        assert same_bits(dist.ppf(ps), frozen(dist).ppf(ps))
        for p in ps:
            assert same_bits(dist.ppf(p), frozen(dist).ppf(p))
        assert np.ndim(dist.ppf(0.25)) == 0

    @pytest.mark.parametrize("dist", KERNEL_LAWS, ids=lambda d: d.name)
    def test_out_of_range_is_nan(self, dist):
        bad = np.array([-1e-300, -0.5, 1.0 + 2.0 ** -52, 2.0, math.nan, -math.inf, math.inf])
        assert np.all(np.isnan(dist.ppf(bad)))
        assert np.all(np.isnan(frozen(dist).ppf(bad)))

    @settings(max_examples=200, deadline=None)
    @given(laws(), st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_random_laws_match_frozen_ppf(self, dist, seed):
        u = np.random.default_rng(seed).random(64)
        np.clip(u, 2.220446049250313e-16, None, out=u)
        assert same_bits(ed.sample(dist, seed, 64), frozen(dist).ppf(u))
        ps = np.concatenate([[0.0, 2.220446049250313e-16, 0.5, 1.0 - 2.0 ** -53, 1.0], u])
        assert same_bits(dist.ppf(ps), frozen(dist).ppf(ps))

    @pytest.mark.parametrize("dist", KERNEL_LAWS, ids=lambda d: d.name)
    def test_pickled_law_samples_identically(self, dist):
        back = pickle.loads(pickle.dumps(dist))
        assert back == dist
        assert same_bits(ed.sample(back, 9, 5_000), ed.sample(dist, 9, 5_000))

    @pytest.mark.parametrize("dist", KERNEL_LAWS, ids=lambda d: d.name)
    def test_pickle_is_the_name(self, dist):
        # A law pickles as its spec, so each sweep pool task stays small.
        assert len(pickle.dumps(dist)) < 256


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

    @pytest.mark.parametrize("spec", ["gamma:shape=2,shape=3", "beta:a=2,b=3,a=2",
                                      "exp:rate=1, rate=1"])
    def test_repeated_key_refused(self, spec):
        # Once the last value won: gamma:shape=2,shape=3 built shape 3.
        key = spec.split(":")[1].split(",")[0].split("=")[0]
        with pytest.raises(ValueError, match=f"repeated distribution parameter '{key}'"):
            ed.parse_distribution(spec)

    def test_names_round_trip(self):
        for dist in FAMILIES:
            assert ed.parse_distribution(dist.name).name == dist.name

    @pytest.mark.parametrize("family", sorted(ed._FAMILIES))
    def test_bare_family_is_the_constructor_defaults(self, family):
        parsed, built = ed.parse_distribution(family), ed._FAMILIES[family]()
        assert parsed.name == built.name
        assert parsed == built
        assert same_bits(parsed.ppf(LEVELS), built.ppf(LEVELS))

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
        assert same_bits(back.ppf(LEVELS), dist.ppf(LEVELS))


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


# The laws of the psi oracle tests: the six defaults, the U-shaped beta and
# a gamma below shape 1 with a non-unit rate.
ORACLE_SPECS = ["exp:rate=1", "gamma:shape=2", "beta:a=2,b=3", "uniform", "chi2", "halfnormal",
                "beta:a=0.5,b=0.5", "gamma:shape=0.7,rate=3.3"]
ORACLE_LEVELS = [1e-12, 1e-6, 0.3, 0.5, 0.7, 1 - 1e-6, 1 - 1e-12]
BULK = (0.3, 0.5, 0.7)


def _closed_forms(dist):
    """(cdf, sf, pdf, d log pdf / dy) of the law from its closed form, as
    mpmath functions; the parameters are the doubles scipy's law holds."""
    family = dist.name.partition(":")[0]
    if family in ("exp", "gamma", "chi2"):
        k = M.mpf(frozen(dist).kwds.get("a", 1.0))
        scale = M.mpf(frozen(dist).kwds["scale"])
        return (lambda y: M.gammainc(k, 0, y / scale, regularized=True),
                lambda y: M.gammainc(k, y / scale, M.inf, regularized=True),
                lambda y: (y / scale) ** (k - 1) * M.exp(-y / scale) / (M.gamma(k) * scale),
                lambda y: (k - 1) / y - 1 / scale)
    if family == "beta":
        a, b = (M.mpf(v) for v in frozen(dist).args)
        return (lambda y: M.betainc(a, b, 0, y, regularized=True),
                lambda y: M.betainc(a, b, y, 1, regularized=True),
                lambda y: y ** (a - 1) * (1 - y) ** (b - 1) / M.beta(a, b),
                lambda y: (a - 1) / y - (b - 1) / (1 - y))
    if family == "uniform":  # on (0, 1)
        return (lambda y: y, lambda y: 1 - y, lambda y: M.mpf(1), lambda y: M.mpf(0))
    return (lambda y: M.erf(y / M.sqrt(2)), lambda y: M.erfc(y / M.sqrt(2)),
            lambda y: M.sqrt(2 / M.pi) * M.exp(-y * y / 2), lambda y: -y)


def _root(side, dens, q, lo, hi):
    """x in (lo, hi) with side(x) = q, for a monotone side with derivative
    dens: 40 bisections on a log scale (to better than 1e-9 relative),
    then Newton steps on log side."""
    lq = M.log(q)
    grows = side(hi) > side(lo)
    for _ in range(40):
        mid = M.sqrt(lo * hi)
        if (side(mid) < q) == grows:
            lo = mid
        else:
            hi = mid
    x = M.sqrt(lo * hi)
    for _ in range(8):
        x -= (M.log(side(x)) - lq) * side(x) / dens(x)
    # Far below double precision; near y = 1, 50 digits hold 1 - y to
    # 50 + log10(1 - y) digits only.
    assert abs(M.log(side(x)) - lq) < M.mpf(10) ** -20
    return x


def _gaussian_pdf_at(q):
    """The standard Gaussian density at its q-quantile, q <= 1/2."""
    x = _root(lambda t: M.ncdf(-t), lambda t: -M.npdf(t), q, M.mpf(10) ** -30, M.mpf(40))
    return M.npdf(x)


@functools.cache
def _oracle(spec: str, p: float) -> tuple[float, float, float]:
    """(y, psi at the exact level, |y h'(y) / h(y)|) at 50 digits, where y
    is the double nearest the exact p-quantile of the closed-form cdf."""
    dist = ed.parse_distribution(spec)
    with M.workdps(50):
        cdf, sf, pdf, dlog = _closed_forms(dist)
        mp_p = M.mpf(p)
        if p <= 0.5:
            exact = _root(cdf, pdf, mp_p, M.mpf(10) ** -300, M.mpf(min(dist.hi, 1e3)))
        elif math.isfinite(dist.hi):  # solve for the distance to the upper end
            exact = dist.hi - _root(lambda z: sf(dist.hi - z), lambda z: pdf(dist.hi - z),
                                    1 - mp_p, M.mpf(10) ** -300, M.mpf(dist.hi - dist.lo))
        else:
            exact = _root(sf, lambda y: -pdf(y), 1 - mp_p, M.mpf(10) ** -3, M.mpf(1e3))
        at_level = _gaussian_pdf_at(min(mp_p, 1 - mp_p)) / pdf(exact)
        return float(exact), float(at_level), float(abs(exact * dlog(exact)))


def _psi_oracle(spec: str, y: float):
    """psi at the double y at 50 digits; None when y is not inside the support."""
    dist = ed.parse_distribution(spec)
    if not dist.lo < y < dist.hi:
        return None
    with M.workdps(50):
        cdf, sf, pdf, _ = _closed_forms(dist)
        ym = M.mpf(y)
        return float(_gaussian_pdf_at(min(cdf(ym), sf(ym))) / pdf(ym))


class TestPsiOracle:
    """psi and the known-level helper against 50-digit mpmath references
    built from each law's closed-form cdf and density."""

    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_psi_at_y(self, spec):
        # At each level's quantile y, and at a point 2^-30 of the way from y
        # to the median, whose cdf is not within rounding of a double level.
        # Measured: at most 4.3e-15 relative, tails included.
        dist = ed.parse_distribution(spec)
        median = _oracle(spec, 0.5)[0]
        for p in ORACLE_LEVELS:
            y = _oracle(spec, p)[0]
            for point in (y, y + (median - y) * 2.0 ** -30):
                want = _psi_oracle(spec, point)
                if want is None:
                    with pytest.raises(ValueError):
                        ed.psi(dist, point)
                else:
                    assert ed.psi(dist, point) == pytest.approx(want, rel=1e-12), (p, point)

    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_psi_at_level(self, spec):
        # y holds the exact quantile only to half an ulp, which moves h(y) by
        # up to |y h'/h| 2^-53 relative: in the tails that bounds the error,
        # 4.5e-5 for beta(0.5, 0.5) at 1 - 1e-6, where 1 - y is 2.5e-12
        # (measured 8.4e-6); elsewhere measured at most 1e-13.  Where y rounds
        # onto an end of the support (beta(0.5, 0.5) at 1 - 1e-12), the
        # density there is infinite and the value is psi's limit, 0.
        dist = ed.parse_distribution(spec)
        for p in ORACLE_LEVELS:
            y, want, cond = _oracle(spec, p)
            got = ed._psi_at_level(dist, np.array([p]), np.array([y]))[0]
            if not dist.lo < y < dist.hi:
                assert got == 0.0 and want == pytest.approx(0.0, abs=1e-20), p
                continue
            bound = 1e-12 + (0.0 if p in BULK else cond * 2.0 ** -52)
            assert got == pytest.approx(want, rel=bound), p

    def test_rejects_levels_and_points_outside(self):
        dist = ed.beta_family(2.0, 3.0)
        for p, y in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)):
            with pytest.raises(ValueError):
                ed._psi_at_level(dist, np.array([p]), np.array([y]))


def _tail_grids(dist):
    """The base and refined grids of ``ed._tail_ratio_ok``."""
    start = float(dist.ppf(0.9))
    end = max(40.0 * dist.std(), 2.0 * start)
    return np.linspace(start, end, 120), np.linspace(start, 2.0 * end, 240)


class TestClosedForms:
    """Each law's closed forms against the scipy.stats frozen law of its
    parameters, bit for bit, with the same warnings and errors.  The one
    exception is the density at +inf: scipy's gamma density is NaN there,
    with a warning, where ours is the limit (``TestDensityLimits``)."""

    @staticmethod
    def check(dist):
        law = frozen(dist)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            levels = law.ppf(ORACLE_LEVELS)
        ends = [dist.lo, np.nextafter(dist.lo, -math.inf), dist.lo - 1.0, -math.inf,
                dist.hi, np.nextafter(dist.hi, math.inf), dist.hi + 1.0, math.inf, math.nan]
        points = np.concatenate([levels, ends])
        for method in ("pdf", "logpdf", "cdf", "sf", "logsf"):
            at = points[~np.isposinf(points)] if method in ("pdf", "logpdf") else points
            agrees(getattr(dist, method), getattr(law, method), at)
            for y in at:
                agrees(getattr(dist, method), getattr(law, method), y)
        for grid in _tail_grids(dist):
            agrees(dist.logsf, law.logsf, grid)
        assert same_bits(dist.std(), law.std())

    @pytest.mark.parametrize("dist", KERNEL_LAWS, ids=lambda d: d.name)
    def test_kernel_laws(self, dist):
        self.check(dist)

    @settings(max_examples=100, deadline=None)
    @given(laws())
    def test_random_laws(self, dist):
        self.check(dist)

    def test_infinite_density_ends(self):
        dist = ed.beta_family(0.5, 0.5)
        assert same_bits(dist.pdf([0.0, 1.0]), [math.inf, math.inf])
        assert same_bits(dist.logpdf([0.0, 1.0]), [math.inf, math.inf])


class TestDensityLimits:
    """The density far out in an unbounded support, with RuntimeWarnings as
    errors: 50-digit mpmath at y = 1e300, and the limits at +inf."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("spec", ["exp", "exp:rate=1.23456789", "gamma:shape=3",
                                      "gamma:shape=0.7,rate=3.3", "chi2:k=3",
                                      "halfnormal"])
    def test_far_tail_and_infinity(self, spec):
        dist = ed.parse_distribution(spec)
        with M.workdps(50):
            want = _closed_forms(dist)[2](M.mpf(1e300))
            want_pdf, want_log = float(want), float(M.log(want))
        assert same_bits(dist.pdf(1e300), want_pdf)
        assert dist.logpdf(1e300) == pytest.approx(want_log, rel=1e-15)
        assert same_bits(dist.pdf([math.inf, 1e300]), [0.0, want_pdf])
        assert same_bits(dist.logpdf(math.inf), -math.inf)
        assert same_bits(dist.logpdf([1.0, math.inf])[1], -math.inf)


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
