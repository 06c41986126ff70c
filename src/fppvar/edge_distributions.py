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

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy import stats

from . import gaussian

# Theta-style checks accept a spread of at most BAND^2 between the smallest
# and largest observed ratio, and require the window endpoints to move by
# less than DRIFT under grid refinement toward the limit.
BAND = 5.0
DRIFT = 0.8


@dataclass(frozen=True)
class EdgeDistribution:
    """A continuous edge-time law with density, cdf, quantile and sampler.

    ``left_exponent`` is the analytic power alpha with h(x) ~ (x - lo)^alpha
    near the lower endpoint; ``right_exponent`` the mirrored beta for finite
    upper endpoints (None when unknown or when the support is unbounded).

    The quantile calls the family's own ``_ppf`` with the frozen law's
    parsed shapes, scale and loc, as ``dist.ppf`` does, without that
    method's generic argument broadcasting, which costs more than the
    kernel on the arrays a sweep replicate draws.
    """
    name: str
    lo: float
    hi: float
    left_exponent: Optional[float]
    right_exponent: Optional[float]
    dist: stats.distributions.rv_frozen = field(repr=False, compare=False)

    def pdf(self, y):
        return self.dist.pdf(y)

    def logpdf(self, y):
        return self.dist.logpdf(y)

    def cdf(self, y):
        return self.dist.cdf(y)

    def sf(self, y):
        return self.dist.sf(y)

    def logsf(self, y):
        return self.dist.logsf(y)

    def _quantile(self, p: np.ndarray) -> np.ndarray:
        """The quantile at p in [0, 1], unchecked."""
        law = self.dist.dist
        shapes, loc, scale = law._parse_args(*self.dist.args, **self.dist.kwds)
        return law._ppf(p, *shapes) * scale + loc

    def ppf(self, p):
        """The quantile function; NaN outside [0, 1], as ``dist.ppf``."""
        p = np.asarray(p, dtype=float)
        return self._quantile(np.where((p >= 0.0) & (p <= 1.0), p, np.nan))[()]

    def mean(self) -> float:
        return float(self.dist.mean())

    def std(self) -> float:
        return float(self.dist.std())


def _num(x: float) -> str:
    """x in ``:g`` form where that reads back as x, else as its repr."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def exponential(rate: float = 1.0) -> EdgeDistribution:
    if not 0 < rate < math.inf:
        raise ValueError("rate must be positive and finite")
    return EdgeDistribution(name=f"exp:rate={_num(rate)}", lo=0.0, hi=math.inf,
                            left_exponent=0.0, right_exponent=None,
                            dist=stats.expon(scale=1.0 / rate))


def gamma_family(shape: float, rate: float = 1.0) -> EdgeDistribution:
    if not (0 < shape < math.inf and 0 < rate < math.inf):
        raise ValueError("shape and rate must be positive and finite")
    return EdgeDistribution(name=f"gamma:shape={_num(shape)},rate={_num(rate)}",
                            lo=0.0, hi=math.inf,
                            left_exponent=shape - 1.0, right_exponent=None,
                            dist=stats.gamma(a=shape, scale=1.0 / rate))


def beta_family(a: float, b: float) -> EdgeDistribution:
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValueError("beta parameters must be positive and finite")
    return EdgeDistribution(name=f"beta:a={_num(a)},b={_num(b)}", lo=0.0, hi=1.0,
                            left_exponent=a - 1.0, right_exponent=b - 1.0,
                            dist=stats.beta(a, b))


def uniform_family(lo: float = 0.0, hi: float = 1.0) -> EdgeDistribution:
    if not (0.0 <= lo < hi < math.inf):
        raise ValueError("uniform support needs 0 <= lo < hi < inf")
    return EdgeDistribution(name=f"uniform:lo={_num(lo)},hi={_num(hi)}", lo=lo, hi=hi,
                            left_exponent=0.0, right_exponent=0.0,
                            dist=stats.uniform(loc=lo, scale=hi - lo))


def chi2_family(k: float = 2.0, alpha: float = 0.5) -> EdgeDistribution:
    """Density proportional to e^{-alpha t} t^{k/2 - 1} on t > 0."""
    if not (0 < k < math.inf and 0 < alpha < math.inf):
        raise ValueError("k and alpha must be positive and finite")
    return EdgeDistribution(name=f"chi2:k={_num(k)},alpha={_num(alpha)}",
                            lo=0.0, hi=math.inf,
                            left_exponent=k / 2.0 - 1.0, right_exponent=None,
                            dist=stats.gamma(a=k / 2.0, scale=1.0 / alpha))


def half_normal() -> EdgeDistribution:
    return EdgeDistribution(name="halfnormal", lo=0.0, hi=math.inf,
                            left_exponent=0.0, right_exponent=None,
                            dist=stats.halfnorm())


_FAMILIES = {
    "exp": (exponential, {"rate": 1.0}),
    "gamma": (gamma_family, {"shape": 2.0, "rate": 1.0}),
    "beta": (beta_family, {"a": 2.0, "b": 3.0}),
    "uniform": (uniform_family, {"lo": 0.0, "hi": 1.0}),
    "chi2": (chi2_family, {"k": 2.0, "alpha": 0.5}),
    "halfnormal": (half_normal, {}),
}


def parse_distribution(spec: str) -> EdgeDistribution:
    """Build a distribution from a spec string like ``gamma:shape=2,rate=1``."""
    name, _, argstr = spec.strip().partition(":")
    if name not in _FAMILIES:
        raise ValueError(f"unknown distribution family {name!r}")
    ctor, defaults = _FAMILIES[name]
    kwargs = dict(defaults)
    if argstr:
        for pair in argstr.split(","):
            key, eq, val = pair.partition("=")
            key = key.strip()
            if not eq or key not in defaults:
                raise ValueError(f"bad distribution parameter {pair!r} for {name!r}")
            kwargs[key] = float(val)
    return ctor(**kwargs)


def _check_inside(dist: EdgeDistribution, y: np.ndarray) -> None:
    if np.any(y <= dist.lo) or np.any(y >= dist.hi):
        raise ValueError("y must lie strictly inside the support")


def _psi_at_level(dist: EdgeDistribution, p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """psi at y = Q(p), from the level p that produced y.

    The caller knows p, so neither cdf nor sf is evaluated; the value is as
    accurate as the quantile that gave y.  Where y rounded onto an end of the
    support at which the density is infinite, the value is psi's limit
    there, 0.  Callers that need y strictly inside the support check it.
    """
    dens = np.asarray(dist.pdf(y), dtype=float)
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
# that rounds 1 + u to 2 (halfnormal's ndtri((1 + u) / 2)).
_U_LO = 2.0 ** -52
_U_HI = 1.0 - 2.0 ** -52


def _uniforms(seed, n: int) -> np.ndarray:
    """The n levels in [2^-52, 1 - 2^-52] that :func:`sample` maps through
    the quantile; a pure function of (seed, n)."""
    u = np.random.default_rng(seed).random(n)
    np.clip(u, _U_LO, _U_HI, out=u)
    return u


def sample(dist: EdgeDistribution, seed, n: int) -> np.ndarray:
    """Deterministic inverse-cdf sampling; ``seed`` may be an int or SeedSequence."""
    if n < 1:
        raise ValueError("n must be >= 1")
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
    tail-mass/density ratio for unbounded support."""
    rep = NearGammaReport(distribution=dist.name)
    finite_hi = math.isfinite(dist.hi)
    if dist.left_exponent is None or (finite_hi and dist.right_exponent is None):
        rep.verdict = "not-checkable-by-sufficient-conditions"
        return rep

    anchor = float(dist.ppf(0.25))
    rep.sufficient_alpha_ok = _endpoint_power_ok(dist, dist.lo, dist.left_exponent, anchor)
    if finite_hi:
        anchor_hi = float(dist.ppf(0.75))
        rep.sufficient_beta_or_tail_ok = _endpoint_power_ok(
            dist, dist.hi, dist.right_exponent, anchor_hi)
    else:
        ok, lo, hi = _tail_ratio_ok(dist)
        rep.sufficient_beta_or_tail_ok = ok
        rep.tail_constants = (lo, hi)

    both = rep.sufficient_alpha_ok and rep.sufficient_beta_or_tail_ok
    rep.verdict = "sufficient-conditions-pass" if both else "fail"
    return rep


def _direct_stats(dist: EdgeDistribution, m: int) -> tuple[float, float, int]:
    p = (np.arange(m) + 0.5) / m
    ys = dist._quantile(p)
    _check_inside(dist, ys)
    psis = _psi_at_level(dist, p, ys)
    a_hat = float(np.max(psis / np.sqrt(ys)))

    a_grid = np.geomspace(1e-4, 1e-1, 13)
    frac = np.array([np.mean(psis <= a) for a in a_grid])
    keep = frac > 0.0
    if keep.sum() >= 4:
        slope = float(np.polyfit(np.log(a_grid[keep]), np.log(frac[keep]), 1)[0])
    else:
        slope = math.nan
    return a_hat, slope, int(keep.sum())


def check_near_gamma_direct(dist: EdgeDistribution,
                            quantile_grid_size: int = 50_000) -> NearGammaReport:
    """Direct-evidence route on an equal-mass quantile grid.

    ``A_hat`` is the observed sup of psi(y)/sqrt(y); it must be stable under
    doubling the grid.  ``epsilon_hat`` is the fitted small-ball exponent of
    the sub-level mass over thresholds in [1e-4, 1e-1]; when psi never drops
    below the threshold range the sub-level condition holds vacuously.
    """
    if quantile_grid_size < 100:
        raise ValueError("quantile grid must have at least 100 points")
    m = int(quantile_grid_size)
    a1, _, _ = _direct_stats(dist, m)
    a2, slope, resolved = _direct_stats(dist, 2 * m)

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
