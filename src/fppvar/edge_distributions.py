"""Edge-time distribution families and the nearly-gamma classifier.

An :class:`EdgeDistribution` is a continuous law on the nonnegative half-line
with positive density on an open interval.  The quantile-coupling factor

    psi(y) = pdf_at_quantile(H(y)) / h(y)

converts Gaussian gradient norms into gradient norms under the law, and the
"nearly gamma" class is exactly the class where psi is O(sqrt(y)) with
polynomially small sub-level mass.  Membership is checked two ways: a
sufficient-condition route (power behaviour of the density at the support
endpoints, integral tail-ratio for unbounded support) and a direct-evidence
route (fitted constants on a quantile grid).  Both are numerical evidence,
not proof; the asymptotic conditions themselves are not decidable by finite
computation.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy import special
# The beta density kernel of scipy's own beta law, checked on scipy 1.17.1.
from scipy.special._ufuncs import _beta_pdf

from . import gaussian
from ._counts import _at_least

# Theta-style checks accept a spread of at most BAND^2 between the smallest
# and largest observed ratio, and require the window endpoints to move by
# less than DRIFT under grid refinement toward the limit.
BAND = 5.0
DRIFT = 0.8


class _Standard(NamedTuple):
    """A family's law at loc 0 and scale 1, on the support [0, end]: closed
    forms of its quantile, density, log-density, cdf, sf and log-sf, each
    taking an array inside the support, and its variance.  Each form is the
    expression scipy 1.17.1's continuous distributions evaluate for the
    family, so the values have the same bits as theirs."""
    end: float
    var: float
    ppf: Callable
    pdf: Callable
    logpdf: Callable
    cdf: Callable
    sf: Callable
    logsf: Callable


def _law(end, var, ppf, pdf, logpdf, cdf, sf, logsf=None) -> _Standard:
    """The standard law; without ``logsf``, scipy's generic one: log(sf)
    above the median and log1p(-cdf) at and below it, where each keeps its
    digits."""
    if logsf is None:
        median = ppf(0.5)

        def logsf(x):
            above = x > median
            out = np.empty_like(x)
            with np.errstate(divide="ignore"):
                out[above] = np.log(sf(x[above]))
                out[~above] = np.log1p(-cdf(x[~above]))
            return out
    return _Standard(end, var, ppf, pdf, logpdf, cdf, sf, logsf)


@dataclass(frozen=True)
class EdgeDistribution:
    """A continuous edge-time law with density, cdf, quantile and sampler.

    ``left_exponent`` is the analytic power alpha with h(x) ~ (x - lo)^alpha
    near the lower endpoint; ``right_exponent`` is the mirrored beta at the
    upper endpoint, and None exactly when the support is unbounded.

    The law is ``law``, a standard law in closed form, moved to ``lo`` and
    stretched by ``scale``.  Each method maps y to x = (y - lo) / scale and
    evaluates the closed form where x is inside the standard support (closed
    for the density, open for the cdf and sf), with the limit values
    outside, at +inf for the density too, and NaN at NaN.  A law pickles as
    its name, which :func:`parse_distribution` reads back as the same law.
    """
    name: str
    lo: float
    hi: float
    left_exponent: float
    right_exponent: Optional[float]
    scale: float = field(repr=False, compare=False)
    law: _Standard = field(repr=False, compare=False)

    def __reduce__(self):
        return parse_distribution, (self.name,)

    def _on_support(self, y, low: float, high: float, kernel: Callable, closed: bool = False):
        """kernel at x = (y - lo) / scale inside the standard support, low
        outside it at or below its lower end, high outside it at or above its
        upper end and at +inf, and NaN at NaN."""
        x = (np.asarray(y, dtype=float) - self.lo) / self.scale
        out = np.where(x <= 0.0, low, high)
        out[np.isnan(x)] = math.nan
        keep = ((x >= 0.0) & (x <= self.law.end) & (x < math.inf) if closed
                else (x > 0.0) & (x < self.law.end))
        out[keep] = kernel(x[keep])
        return out[()]

    def pdf(self, y):
        return self._on_support(y, 0.0, 0.0, lambda x: self.law.pdf(x) / self.scale, True)

    def logpdf(self, y):
        return self._on_support(y, -math.inf, -math.inf,
                                lambda x: self.law.logpdf(x) - np.log(self.scale), True)

    def cdf(self, y):
        return self._on_support(y, 0.0, 1.0, self.law.cdf)

    def sf(self, y):
        return self._on_support(y, 1.0, 0.0, self.law.sf)

    def logsf(self, y):
        return self._on_support(y, 0.0, -math.inf, self.law.logsf)

    def _quantile(self, p: np.ndarray) -> np.ndarray:
        """The quantile at p in [0, 1], unchecked."""
        return self.law.ppf(p) * self.scale + self.lo

    def ppf(self, p):
        """The quantile function; NaN outside [0, 1], as scipy's ``ppf``."""
        p = np.asarray(p, dtype=float)
        return self._quantile(np.where((p >= 0.0) & (p <= 1.0), p, np.nan))[()]

    def std(self) -> float:
        return math.sqrt(self.law.var * self.scale * self.scale)


def _num(x: float) -> str:
    """x in ``:g`` form where that reads back as x, else as its repr."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def _name(family: str, **params: float) -> str:
    """``family:key=value,...`` with the constructor's parameters in its
    signature order: the spec that :func:`parse_distribution` reads back as
    the same law."""
    args = ",".join(f"{key}={_num(val)}" for key, val in params.items())
    return f"{family}:{args}" if args else family


def _positive(**params: float) -> None:
    if not all(0 < val < math.inf for val in params.values()):
        raise ValueError(f"{' and '.join(params)} must be positive and finite")


_EXP = _law(math.inf, 1.0, lambda q: -special.log1p(-q), lambda x: np.exp(-x), np.negative,
            lambda x: -special.expm1(-x), lambda x: np.exp(-x), np.negative)
_UNIFORM = _law(1.0, 1.0 / 12, lambda q: q, np.ones_like, np.zeros_like, lambda x: x,
                lambda x: 1.0 - x)


def _gamma(a: float) -> _Standard:
    def logpdf(x):
        return special.xlogy(a - 1.0, x) - x - special.gammaln(a)
    return _law(math.inf, a, partial(special.gammaincinv, a), lambda x: np.exp(logpdf(x)),
                logpdf, partial(special.gammainc, a), partial(special.gammaincc, a))


def _beta(a: float, b: float) -> _Standard:
    def pdf(x):
        with np.errstate(over="ignore"):
            return _beta_pdf(x, a, b)
    s = a + b
    return _law(1.0, a * b / (s * s * (s + 1)), partial(special.betaincinv, a, b), pdf,
                lambda x: special.xlog1py(b - 1.0, -x) + special.xlogy(a - 1.0, x)
                - special.betaln(a, b),
                partial(special.betainc, a, b), partial(special.betaincc, a, b))


def _half_normal_ppf(p):
    """The half-normal quantile, accurate in both tails.

    scipy's ndtri((1 + p) / 2) rounds 1 + p, so its relative error grows
    like 1e-16 / p as p falls to 0 and like 1e-16 / (1 - p) as p rises to 1.
    sqrt(2) erfinv(p) keeps full accuracy for p <= 1/2, and above 1/2 the
    difference 1 - p is exact, so -ndtri((1 - p) / 2) does too."""
    # Both branches run on every level; clamping keeps the unused one in its
    # cheap range.
    return np.where(p <= 0.5, math.sqrt(2.0) * special.erfinv(np.minimum(p, 0.5)),
                    -special.ndtri((1.0 - np.maximum(p, 0.5)) / 2.0))


_HALF_NORMAL = _law(math.inf, 1 - 2.0 / np.pi, _half_normal_ppf,
                    # x * x overflows to inf far out, where both kernels reach their limits.
                    np.errstate(over="ignore")(
                        lambda x: np.sqrt(2.0 / np.pi) * np.exp(-x * x / 2.0)),
                    np.errstate(over="ignore")(
                        lambda x: 0.5 * np.log(2.0 / np.pi) - x * x / 2.0),
                    lambda x: special.erf(x / np.sqrt(2)), lambda x: 2 * special.ndtr(-x))


def exponential(rate: float = 1.0) -> EdgeDistribution:
    _positive(rate=rate)
    return EdgeDistribution(_name("exp", rate=rate), lo=0.0, hi=math.inf,
                            left_exponent=0.0, right_exponent=None,
                            scale=1.0 / rate, law=_EXP)


def gamma_family(shape: float = 2.0, rate: float = 1.0) -> EdgeDistribution:
    _positive(shape=shape, rate=rate)
    return EdgeDistribution(_name("gamma", shape=shape, rate=rate), lo=0.0, hi=math.inf,
                            left_exponent=shape - 1.0, right_exponent=None,
                            scale=1.0 / rate, law=_gamma(shape))


def beta_family(a: float = 2.0, b: float = 3.0) -> EdgeDistribution:
    _positive(a=a, b=b)
    return EdgeDistribution(_name("beta", a=a, b=b), lo=0.0, hi=1.0,
                            left_exponent=a - 1.0, right_exponent=b - 1.0,
                            scale=1.0, law=_beta(a, b))


def uniform_family(lo: float = 0.0, hi: float = 1.0) -> EdgeDistribution:
    if not (0.0 <= lo < hi < math.inf):
        raise ValueError("uniform support needs 0 <= lo < hi < inf")
    return EdgeDistribution(_name("uniform", lo=lo, hi=hi), lo=lo, hi=hi,
                            left_exponent=0.0, right_exponent=0.0,
                            scale=hi - lo, law=_UNIFORM)


def chi2_family(k: float = 2.0, alpha: float = 0.5) -> EdgeDistribution:
    """Density proportional to e^{-alpha t} t^{k/2 - 1} on t > 0."""
    _positive(k=k, alpha=alpha)
    return EdgeDistribution(_name("chi2", k=k, alpha=alpha), lo=0.0, hi=math.inf,
                            left_exponent=k / 2.0 - 1.0, right_exponent=None,
                            scale=1.0 / alpha, law=_gamma(k / 2.0))


def half_normal() -> EdgeDistribution:
    return EdgeDistribution(_name("halfnormal"), lo=0.0, hi=math.inf,
                            left_exponent=0.0, right_exponent=None,
                            scale=1.0, law=_HALF_NORMAL)


# Each constructor is its family's spec: its parameters are the keys a spec
# may give, and its defaults fill in the keys a spec omits.
_FAMILIES = {"exp": exponential, "gamma": gamma_family, "beta": beta_family,
             "uniform": uniform_family, "chi2": chi2_family, "halfnormal": half_normal}


def parse_distribution(spec: str) -> EdgeDistribution:
    """Build a distribution from a spec string like ``gamma:shape=2,rate=1``."""
    name, _, argstr = spec.strip().partition(":")
    if name not in _FAMILIES:
        raise ValueError(f"unknown distribution family {name!r}")
    ctor = _FAMILIES[name]
    keys = inspect.signature(ctor).parameters
    kwargs = {}
    if argstr:
        for pair in argstr.split(","):
            key, eq, val = pair.partition("=")
            key = key.strip()
            if not eq or key not in keys:
                raise ValueError(f"bad distribution parameter {pair!r} for {name!r}")
            if key in kwargs:
                raise ValueError(f"repeated distribution parameter {key!r} in {spec!r}")
            kwargs[key] = float(val)
    return ctor(**kwargs)


def _check_inside(dist: EdgeDistribution, y: np.ndarray) -> None:
    if not np.all((y > dist.lo) & (y < dist.hi)):
        raise ValueError("y must lie strictly inside the support")


def _psi_at_level(dist: EdgeDistribution, p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """psi at y = Q(p), from the level p that produced y.

    The caller knows p, so neither cdf nor sf is evaluated; the value is as
    accurate as the quantile that gave y.  Where y rounded onto an end of the
    support at which the density is infinite, the value is psi's limit
    there, 0.  Callers that need y strictly inside the support check it.
    A density too large for a float (beta with a < 1 at subnormal y, say)
    raises ValueError.
    """
    try:
        dens = np.asarray(dist.pdf(y), dtype=float)
    except OverflowError as exc:
        raise ValueError("the density overflows at y") from exc
    if not np.all(dens > 0.0):
        raise ValueError("the density must be positive at y")
    return gaussian.pdf_at_quantile(p) / dens


def psi(dist: EdgeDistribution, y):
    """Quantile-coupling factor pdf_at_quantile(H(y)) / h(y) on the open support.

    The small side of (H, 1-H) feeds the tail-stable composition so the value
    stays accurate when y sits deep in either tail.  ``cdf`` is evaluated at
    every point and ``sf`` only where ``cdf > 0.5``, the side that is kept.
    Callers that drew y = Q(p) themselves use :func:`_psi_at_level` with the
    level they know instead, which needs neither.
    """
    arr = np.asarray(y, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    _check_inside(dist, arr)
    small = np.array(dist.cdf(arr), dtype=float)
    upper = small > 0.5
    small[upper] = dist.sf(arr[upper])
    if np.any(small <= 0.0):
        raise ValueError("cdf underflow: y is too deep in the tail to resolve")
    out = _psi_at_level(dist, small, arr)
    return float(out[0]) if scalar else out


# The levels a draw can take: u == 0 occurs with probability 2^-53 and would
# land on the support endpoint, and so would u == 1 - 2^-53 for a quantile
# that rounds 1 + u to 2 (scipy's halfnormal ndtri((1 + u) / 2)).
_U_LO = 2.0 ** -52
_U_HI = 1.0 - 2.0 ** -52
_SEED_RULE = "seed must be a nonnegative integer"


def _rng(seed) -> np.random.Generator:
    """The one place a seed becomes a generator: a SeedSequence, or an integer >= 0."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = _at_least(seed, 0, _SEED_RULE)
    return np.random.default_rng(seed)


def _uniforms(seed, n: int) -> np.ndarray:
    """The n levels in [2^-52, 1 - 2^-52] that :func:`sample` maps through
    the quantile; a pure function of (seed, n)."""
    u = _rng(seed).random(n)
    np.clip(u, _U_LO, _U_HI, out=u)
    return u


def sample(dist: EdgeDistribution, seed, n: int) -> np.ndarray:
    """n inverse-cdf draws; ``seed`` a SeedSequence or an integer >= 0, ``n`` an integer >= 1."""
    n = _at_least(n, 1, "n must be an integer >= 1")
    return dist._quantile(_uniforms(seed, n))


@dataclass
class NearGammaReport:
    distribution: str
    direct_A_hat: Optional[float] = None
    direct_epsilon_hat: Optional[float] = None
    direct_pass: Optional[bool] = None
    sufficient_alpha_ok: Optional[bool] = None
    sufficient_beta_or_tail_ok: Optional[bool] = None
    tail_constants: Optional[tuple[float, float]] = None
    verdict: str = ""


def _window(vals: np.ndarray) -> tuple[float, float]:
    vals = vals[np.isfinite(vals)]
    if vals.size == 0 or np.any(vals <= 0.0):
        return 0.0, math.inf
    return float(vals.min()), float(vals.max())


def _stable_ratio(fn, base: np.ndarray, refined: np.ndarray) -> tuple[bool, float, float]:
    """True when fn stays within a factor BAND^2 on the base grid and its
    window endpoints move by less than DRIFT under refinement."""
    lo1, hi1 = _window(np.asarray(fn(base), dtype=float))
    lo2, hi2 = _window(np.asarray(fn(refined), dtype=float))
    if lo1 <= 0.0 or not math.isfinite(hi1):
        return False, lo1, hi1
    spread_ok = hi1 / lo1 <= BAND * BAND
    drift_ok = (lo2 >= DRIFT * lo1) and (hi2 <= hi1 / DRIFT) and lo2 > 0.0
    return spread_ok and drift_ok, lo1, hi1


def _endpoint_power_ok(dist: EdgeDistribution, endpoint: float, exponent: float,
                       anchor: float) -> bool:
    """Check h(x) / |x - endpoint|^exponent stabilizes approaching the endpoint."""
    span = abs(anchor - endpoint)
    sign = 1.0 if anchor > endpoint else -1.0

    def ratio(offsets):
        x = endpoint + sign * offsets
        return dist.pdf(x) / offsets ** exponent

    base = span * np.logspace(-1, -6, 60)
    refined = span * np.logspace(-1, -9, 90)
    ok, _, _ = _stable_ratio(ratio, base, refined)
    return ok


def _tail_ratio_ok(dist: EdgeDistribution) -> tuple[bool, float, float]:
    """Check sf(t)/pdf(t) is bounded between positive constants in the far tail."""
    start = float(dist.ppf(0.9))
    end = max(40.0 * dist.std(), 2.0 * start)

    def ratio(ts):
        return np.exp(dist.logsf(ts) - dist.logpdf(ts))

    base = np.linspace(start, end, 120)
    refined = np.linspace(start, 2.0 * end, 240)
    ok, lo, hi = _stable_ratio(ratio, base, refined)
    return ok, lo, hi


def check_near_gamma_sufficient(dist: EdgeDistribution) -> NearGammaReport:
    """Sufficient-condition route: density power at the lower endpoint, plus
    either a mirrored power at a finite upper endpoint or a bounded
    tail-mass/density ratio for unbounded support (``right_exponent`` None)."""
    alpha_ok = _endpoint_power_ok(dist, dist.lo, dist.left_exponent, float(dist.ppf(0.25)))
    if dist.right_exponent is None:
        other_ok, lo, hi = _tail_ratio_ok(dist)
        tail = (lo, hi)
    else:
        other_ok = _endpoint_power_ok(dist, dist.hi, dist.right_exponent, float(dist.ppf(0.75)))
        tail = None
    both = alpha_ok and other_ok
    return NearGammaReport(distribution=dist.name, sufficient_alpha_ok=alpha_ok,
                           sufficient_beta_or_tail_ok=other_ok, tail_constants=tail,
                           verdict="sufficient-conditions-pass" if both else "fail")


def _direct_grid(dist: EdgeDistribution, m: int) -> tuple[float, np.ndarray]:
    """The sup of psi(y)/sqrt(y) on the m-point equal-mass quantile grid, and psi there."""
    p = (np.arange(m) + 0.5) / m
    ys = dist._quantile(p)
    _check_inside(dist, ys)
    psis = _psi_at_level(dist, p, ys)
    return float(np.max(psis / np.sqrt(ys))), psis


def _small_ball_slope(psis: np.ndarray) -> tuple[float, int]:
    """The fitted log-log slope of the sub-level mass of psi over thresholds in
    [1e-4, 1e-1], and how many thresholds have mass below them."""
    a_grid = np.geomspace(1e-4, 1e-1, 13)
    frac = np.count_nonzero(a_grid[:, None] >= psis, axis=1) / psis.size
    keep = frac > 0.0
    if keep.sum() >= 4:
        slope = float(np.polyfit(np.log(a_grid[keep]), np.log(frac[keep]), 1)[0])
    else:
        slope = math.nan
    return slope, int(keep.sum())


def check_near_gamma_direct(dist: EdgeDistribution,
                            quantile_grid_size: int = 50_000) -> NearGammaReport:
    """Direct-evidence route on an equal-mass quantile grid.

    ``A_hat`` is the observed sup of psi(y)/sqrt(y); it must be stable under
    doubling the grid.  ``epsilon_hat`` is the fitted small-ball exponent of
    the sub-level mass over thresholds in [1e-4, 1e-1]; when psi never drops
    below the threshold range the sub-level condition holds vacuously.
    """
    m = _at_least(quantile_grid_size, 100, "quantile grid size must be an integer >= 100")
    a1, _ = _direct_grid(dist, m)
    a2, psis = _direct_grid(dist, 2 * m)
    slope, resolved = _small_ball_slope(psis)

    stable = math.isfinite(a1) and math.isfinite(a2) and abs(a2 - a1) < 0.10 * a1
    if resolved == 0:
        small_ball_ok = True  # no mass below 1e-1 at all
        slope = math.inf
    else:
        small_ball_ok = math.isfinite(slope) and slope > 0.05

    rep = NearGammaReport(distribution=dist.name, direct_A_hat=a2,
                          direct_epsilon_hat=slope,
                          direct_pass=stable and small_ball_ok)
    rep.verdict = "direct-evidence-only" if rep.direct_pass else "fail"
    return rep


def classify(dist: EdgeDistribution, quantile_grid_size: int = 50_000) -> NearGammaReport:
    """Run both routes and merge into a single report.

    The verdict is numerical evidence: "sufficient-conditions-pass" when the
    sufficient route succeeds, "direct-evidence-only" when only the fitted
    constants support membership, "fail" otherwise.
    """
    suff = check_near_gamma_sufficient(dist)
    direct = check_near_gamma_direct(dist, quantile_grid_size)
    passed = suff.verdict == "sufficient-conditions-pass"
    return replace(direct, sufficient_alpha_ok=suff.sufficient_alpha_ok,
                   sufficient_beta_or_tail_ok=suff.sufficient_beta_or_tail_ok,
                   tail_constants=suff.tail_constants,
                   verdict=suff.verdict if passed else direct.verdict)
