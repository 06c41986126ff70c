"""Standard-Gaussian primitives and the Ornstein-Uhlenbeck smoothing operator.

Everything downstream (the change-of-variables map, the inequality checks,
the tail classifier) composes these functions, so the tail behaviour is the
whole point.  ``quantile`` is scipy's ``ndtri``, and ``pdf_at_quantile``
divides the small-side probability by the Mills ratio written with
``erfcx``; both hold full double precision for probabilities down to
1e-300 (measured against 50-digit mpmath roots of cdf(x) = p).

All scalar functions also accept ndarrays and broadcast elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import erfc, erfcx, ndtri

from ._counts import _at_least

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
SQRT_HALF_PI = math.sqrt(0.5 * math.pi)

LEGENDRE_HALF_WIDTH = 13.0  # Gaussian mass beyond is below 1e-37
COMMUTATION_STEP = 1e-5  # finite-difference step, relative to max(1, |y|)
HYPERCONTRACTIVITY_TOL = 1e-8
HEAT_T_MAX = 20.0  # truncation time of the heat-identity integral
HEAT_PANELS = 40
HEAT_PANEL_ORDER = 16


def _validate_finite(x: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")


def _as_float_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _ret(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def pdf(x):
    """Density of the standard Gaussian."""
    arr, scalar = _as_float_array(x)
    _validate_finite(arr, "x")
    return _ret(INV_SQRT_2PI * np.exp(-0.5 * arr * arr), scalar)


def cdf(x):
    """Distribution function, via the complementary error function.

    The tail is computed without cancellation: relative accuracy of
    ``1 - cdf(x)`` is that of ``erfc`` itself (a few ulp) for x <= 8.
    """
    arr, scalar = _as_float_array(x)
    _validate_finite(arr, "x")
    return _ret(0.5 * erfc(-arr / SQRT2), scalar)


def sf(x):
    """Upper-tail probability ``1 - cdf(x)``, tail-accurate."""
    arr, scalar = _as_float_array(x)
    _validate_finite(arr, "x")
    return _ret(0.5 * erfc(arr / SQRT2), scalar)


def quantile(p):
    """Inverse of ``cdf`` on (0, 1): scipy's ``ndtri``.

    Within 3e-16 relative of a 50-digit root of cdf(x) = p on
    [1e-300, 0.5] and its mirror (tested against mpmath).
    """
    arr, scalar = _as_float_array(p)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("p must lie strictly inside (0, 1)")
    return _ret(ndtri(arr), scalar)


def pdf_at_quantile(p):
    """The composition pdf(quantile(p)); symmetric under p <-> 1-p.

    With q = min(p, 1-p) and x = ndtri(q) <= 0, the Mills-ratio identity
    pdf(x) = cdf(x) / R(x), R(x) = sqrt(pi/2) * erfcx(-x/sqrt(2)), gives
    q / R(x) with no branch and nothing that under- or overflows.  Within
    6e-16 relative of pdf at a 50-digit root of cdf(x) = p on [1e-300, 0.5]
    and its mirror (tested against mpmath).  Near 0 the value behaves like
    p * sqrt(-2 log p).
    """
    arr, scalar = _as_float_array(p)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("p must lie strictly inside (0, 1)")
    q = np.minimum(arr, 1.0 - arr)
    return _ret(q / (SQRT_HALF_PI * erfcx(-ndtri(q) / SQRT2)), scalar)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights integrating against the standard Gaussian measure.

    Probabilist normalization: weights sum to 1 and sum(w * f(nodes))
    approximates the Gaussian expectation of f.
    """
    nodes: np.ndarray
    weights: np.ndarray


def hermite_rule(order: int = 64) -> QuadratureRule:
    """Gauss-Hermite rule rescaled to the standard Gaussian weight."""
    x, w = np.polynomial.hermite.hermgauss(_at_least(order, 2, "order must be >= 2"))
    return QuadratureRule(nodes=x * SQRT2, weights=w / math.sqrt(math.pi))


def _legendre_panels(lo: float, hi: float, panels: int,
                     order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of composite Gauss-Legendre on [lo, hi] with equal
    panels, ordered panel by panel."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    return (mid[:, None] + half[:, None] * gl_x).ravel(), (half[:, None] * gl_w).ravel()


def legendre_gaussian_rule(panels: int = 512, order: int = 8) -> QuadratureRule:
    """Composite Gauss-Legendre rule against the Gaussian weight.

    Unlike Gauss-Hermite, composite panels keep converging on merely
    piecewise-smooth integrands (clipped functions, absolute values); only
    the panel containing a kink contributes error.  Mass beyond
    +-``LEGENDRE_HALF_WIDTH`` is dropped.
    """
    panels = _at_least(panels, 1, "panels must be an integer >= 1")
    order = _at_least(order, 1, "order must be an integer >= 1")
    nodes, weights = _legendre_panels(-LEGENDRE_HALF_WIDTH, LEGENDRE_HALF_WIDTH, panels, order)
    return QuadratureRule(nodes=nodes,
                          weights=weights * (INV_SQRT_2PI * np.exp(-0.5 * nodes ** 2)))


def ou_apply(f: Callable, t: float, y, rule: QuadratureRule):
    """Ornstein-Uhlenbeck smoothing of f at time t, evaluated at y.

    Implements the explicit kernel  E[f(y e^{-t} + Z sqrt(1-e^{-2t}))]  with
    Z standard Gaussian, by the supplied rule, at every point of an array y
    at once.  t=0 returns f(y) exactly.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    arr, scalar = _as_float_array(y)
    if t == 0.0:
        return _ret(np.asarray(f(arr), dtype=float), scalar)
    decay = math.exp(-t)
    spread = math.sqrt(-math.expm1(-2.0 * t))
    args = arr[..., None] * decay + rule.nodes * spread
    return _ret(np.asarray(f(args), dtype=float) @ rule.weights, scalar)


def check_commutation(f: Callable, fprime: Callable, t: float,
                      rule: QuadratureRule, grid: Sequence[float]) -> float:
    """Max discrepancy between d/dy of the smoothed f and e^{-t} * smoothed f'.

    The derivative side is a central finite difference with step
    ``COMMUTATION_STEP * max(1, |y|)``; the other side is exact smoothing of the
    supplied analytic derivative.
    """
    ys = np.asarray(grid, dtype=float)
    if ys.size == 0:
        return 0.0
    h = COMMUTATION_STEP * np.maximum(1.0, np.abs(ys))
    fd = (ou_apply(f, t, ys + h, rule) - ou_apply(f, t, ys - h, rule)) / (2.0 * h)
    rhs = math.exp(-t) * ou_apply(fprime, t, ys, rule)
    return float(np.max(np.abs(fd - rhs)))


@dataclass(frozen=True)
class HypercontractivityReport:
    lhs: float
    rhs: float
    holds: bool


def check_hypercontractivity(f: Callable, t: float,
                             rule: QuadratureRule) -> HypercontractivityReport:
    """Check ||P_t f||_2 <= ||f||_{q*} with q*(t) = 1 + e^{-2t}.

    Constants and log-linear functions saturate the bound, so ``holds``
    carries an additive tolerance.
    """
    smoothed = ou_apply(f, t, rule.nodes, rule)  # rejects t < 0
    q_star = 1.0 + math.exp(-2.0 * t)
    lhs = math.sqrt(float(np.dot(rule.weights, smoothed ** 2)))
    vals = np.abs(np.asarray(f(rule.nodes), dtype=float))
    rhs = float(np.dot(rule.weights, vals ** q_star)) ** (1.0 / q_star)
    return HypercontractivityReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs + HYPERCONTRACTIVITY_TOL)


@dataclass(frozen=True)
class VarianceHeatReport:
    var: float
    integral_side: float
    discrepancy: float


def variance_heat_identity(f: Callable, fprime: Callable,
                           rule: QuadratureRule) -> VarianceHeatReport:
    """Check Var(f) = 2 * int_0^inf E[(d/dy P_t f)^2] dt  (one dimension).

    The time integral is truncated at ``HEAT_T_MAX`` with composite
    Gauss-Legendre panels; the remainder is bounded by
    2 e^{-2 HEAT_T_MAX} ||f'||_2^2 (the integrand decays like e^{-2t}) and
    added to the integral side.
    """
    vals = np.asarray(f(rule.nodes), dtype=float)
    mean = float(np.dot(rule.weights, vals))
    var = float(np.dot(rule.weights, vals ** 2)) - mean * mean

    total = 0.0
    for tt, wt in zip(*_legendre_panels(0.0, HEAT_T_MAX, HEAT_PANELS, HEAT_PANEL_ORDER)):
        smoothed_prime = ou_apply(fprime, tt, rule.nodes, rule)
        second_moment = float(np.dot(rule.weights, smoothed_prime ** 2))
        total += wt * math.exp(-2.0 * tt) * second_moment
    integral = 2.0 * total

    fp = np.asarray(fprime(rule.nodes), dtype=float)
    l2sq_prime = float(np.dot(rule.weights, fp ** 2))
    tail = 2.0 * math.exp(-2.0 * HEAT_T_MAX) * l2sq_prime

    side = integral + tail
    return VarianceHeatReport(var=var, integral_side=side, discrepancy=abs(var - side))


def _clip(f: Callable, hi: float) -> Callable:
    return lambda y: np.minimum(f(y), hi)


#: 1-d functions the hypercontractivity check is exercised against.
HYPERCONTRACTIVITY_REGISTRY: dict[str, Callable] = {
    "const-one": lambda y: np.ones_like(np.asarray(y, dtype=float)),
    "identity": lambda y: np.asarray(y, dtype=float),
    "square": lambda y: y * y,
    "cube": lambda y: y ** 3,
    "quartic": lambda y: y ** 4,
    "hermite-2": lambda y: y * y - 1.0,
    "hermite-3": lambda y: y ** 3 - 3.0 * y,
    "abs": lambda y: np.abs(y),
    "clipped-exp-half": _clip(lambda y: np.exp(y / 2.0), 2.0),
    "clipped-exp": _clip(lambda y: np.exp(y), 4.0),
}
