"""Variance-bound verification on the half-discrete space {0,1}^S x R^n.

The central check: for f with square-integrable partials under the uniform
cube measure tensored with the standard Gaussian,

    Var(f) <= sum_q ||grad_q f||_2^2
              + sum_i ||df/dy_i||_2^2 * phi(||df/dy_i||_1 / ||df/dy_i||_2),

where grad_q is the discrete centering in bit q.  The phi factor is at most 1
(Cauchy-Schwarz puts the norm ratio in [0,1]), so the bound never exceeds the
plain Poincare bound; it gains a log factor when the gradient mass is spread.
Two corollaries with explicit constants are verified as well: the gamma-type
bound with the c(k)-weighted ratio, and the unidimensional change of
variables through the quantile coupling.

Every inequality check returns an :class:`InequalityReport`, all from one
builder, whose margin = rhs_total - lhs_variance is the audit trail: the
inequalities are theorems, so a margin below -tolerance signals an
implementation bug, never new mathematics.  The one pass rule, with
rhs_total the discrete term plus the continuous contributions:

    error_estimate = hypot(SE of lhs_variance, SE of rhs_total),
    tolerance = 3 * error_estimate + floor * (1 + rhs_total),
    passed = margin >= -tolerance.

Quadrature reports evaluate f and its partials, each through ``_values``, on
the cube x tensor Gauss-Hermite grid (n_cont <= ``MAX_QUAD_CONT``): no
sampling error, floor 1e-6.  ``_quad_points`` builds that grid once per call:
one (N,)*k + (k,) array, coordinate i filled by broadcasting the rule's nodes
along axis i, viewed as (1, N^k, k) beside the cube's (2^bits, 1, bits); the
weights are the outer product of the rule's.  Each moment is reduced on its
own, as (A @ weights).sum() / 2^bits, which is np.mean's reduction and
division without its wrapper.  Stacking the moments into one matrix product
changes the last bits of the reports, because numpy's matrix-vector and
batched products sum in another order.  Monte Carlo reports evaluate them the same way
at ``MIN_MC_SAMPLES`` or more sampled points: floor 0, the standard error of
the sample variance and delta-method errors of the phi-weighted terms.  The
tensorisation check Var(g) <= sum_q ||grad_q g||^2 enumerates the cube for a
g of bits alone: no continuous terms, no error, floor 1e-12.  phi and its
derivative come from their closed forms in :mod:`fppvar.phi`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional

import numpy as np
from scipy import special

from . import gaussian
from ._counts import _at_least
from .cube_averaging import cube, flip
from .edge_distributions import EdgeDistribution, _psi_at_level, _rng, _uniforms
from .gaussian import QuadratureRule
from .phi import phi, phi_derivative

MIN_MC_SAMPLES = 1000
_MC_FLOOR = f"Monte Carlo checks need at least {MIN_MC_SAMPLES} samples"
MAX_QUAD_CONT = 6


@dataclass(frozen=True)
class TestFunction:
    """A function on {0,1}^n_bits x R^n_cont with analytic partials.

    ``fn`` and each partial receive arrays whose last axis indexes bits
    (respectively coordinates) and return a value that broadcasts to the
    leading shape.
    """
    name: str
    n_bits: int
    n_cont: int
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    partials: tuple[Callable[[np.ndarray, np.ndarray], np.ndarray], ...]

    def __post_init__(self):
        # Frozen, so the checked counts are stored as plain ints through object.
        for name, floor in (("n_bits", 0), ("n_cont", 1)):
            count = _at_least(getattr(self, name), floor, f"{name} must be an integer >= {floor}")
            object.__setattr__(self, name, count)
        if len(self.partials) != self.n_cont:
            raise ValueError("need one partial per continuous coordinate")


@dataclass(frozen=True)
class ContinuousTerm:
    index: int
    l1: float
    l2sq: float
    ratio: float
    phi_of_ratio: float
    contribution: float


@dataclass(frozen=True)
class InequalityReport:
    lhs_variance: float
    discrete_term: float
    continuous_terms: tuple[ContinuousTerm, ...]
    rhs_total: float
    margin: float
    method: str
    error_estimate: float
    tolerance: float
    passed: bool


def _quad_points(tf: TestFunction, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cube x tensor-grid points and the grid weights.

    x (cube vertices, 1, bits) and y (1, grid nodes, coordinates) broadcast
    to one value per (vertex, node); the quadrature mean of such an array A
    is :func:`_quad_mean`, uniform over the cube.  Coordinate i of the
    (N,)*k grid is rule.nodes along axis i, filled by broadcasting.
    """
    k = tf.n_cont
    if k > MAX_QUAD_CONT:
        raise ValueError(f"tensor quadrature supports n_cont <= {MAX_QUAD_CONT}")
    n = rule.nodes.size
    nodes = np.empty((n,) * k + (k,))
    for i in range(k):
        nodes[..., i] = rule.nodes.reshape((n,) + (1,) * (k - 1 - i))
    weights = reduce(np.multiply.outer, [rule.weights] * k).ravel()
    return cube(tf.n_bits)[:, None, :], nodes.reshape(1, n ** k, k), weights


def _quad_mean(a: np.ndarray, weights: np.ndarray) -> float:
    """The quadrature mean of a (vertices, nodes) array: np.mean's reduction
    and division of a @ weights, without its wrapper."""
    return float((a @ weights).sum() / a.shape[0])


def _values(fn: Callable, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """fn at the points (x, y), broadcast to one value per point."""
    shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    return np.broadcast_to(np.asarray(fn(x, y), dtype=float), shape)


def _discrete_gradient_sum(tf: TestFunction, x: np.ndarray, y: np.ndarray,
                           vals: np.ndarray) -> np.ndarray:
    """The sum over bits q of ((f(x) - f(x with bit q flipped)) / 2)^2, at every point."""
    total = np.zeros(vals.shape)
    for q in range(tf.n_bits):
        flipped = x.copy()
        flipped[..., q] = 1.0 - flipped[..., q]
        total += (0.5 * (vals - _values(tf.fn, flipped, y))) ** 2
    return total


def _term_from_norms(index: int, l1: float, l2sq: float,
                     ratio_scale: float = 1.0, prefactor: float = 1.0) -> ContinuousTerm:
    if l2sq <= 0.0:
        return ContinuousTerm(index=index, l1=l1, l2sq=l2sq, ratio=0.0,
                              phi_of_ratio=0.0, contribution=0.0)
    ratio = min(ratio_scale * l1 / math.sqrt(l2sq), 1.0)
    ph = phi(ratio)
    return ContinuousTerm(index=index, l1=l1, l2sq=l2sq, ratio=ratio,
                          phi_of_ratio=ph, contribution=prefactor * l2sq * ph)


def discrete_gradient_norm(tf: TestFunction, q: int,
                           rule: Optional[QuadratureRule] = None) -> float:
    """Squared L2 norm of the discrete gradient in bit q.

    The gradient is (f(x) - f(x with bit q flipped)) / 2, averaged over the
    cube and the Gaussian coordinates.
    """
    if _at_least(q, 0, "bit index out of range") >= tf.n_bits:
        raise ValueError("bit index out of range")
    x, y, weights = _quad_points(tf, rule or gaussian.hermite_rule())
    grad = 0.5 * flip(_values(tf.fn, x, y), q)
    return _quad_mean(grad ** 2, weights)


def _report(lhs: float, lhs_se: float, discrete: float, rhs_var: float,
            terms: list[ContinuousTerm], method: str, floor: float) -> InequalityReport:
    """The one report builder, with the pass rule of the module docstring."""
    rhs = discrete + sum(t.contribution for t in terms)
    margin = rhs - lhs
    error = math.hypot(lhs_se, math.sqrt(rhs_var))
    tol = 3.0 * error + floor * (1.0 + rhs)
    return InequalityReport(lhs_variance=lhs, discrete_term=discrete,
                            continuous_terms=tuple(terms), rhs_total=rhs,
                            margin=margin, method=method, error_estimate=error,
                            tolerance=tol, passed=margin >= -tol)


def _quad_report(tf: TestFunction, rule: QuadratureRule) -> InequalityReport:
    x, y, weights = _quad_points(tf, rule)

    def mean(a: np.ndarray) -> float:
        return _quad_mean(a, weights)

    vals = _values(tf.fn, x, y)
    first = mean(vals)
    discrete = sum((mean((0.5 * flip(vals, q)) ** 2) for q in range(tf.n_bits)), 0.0)

    terms = []
    for i, dfun in enumerate(tf.partials):
        dvals = _values(dfun, x, y)
        terms.append(_term_from_norms(i, mean(np.abs(dvals)), mean(dvals ** 2)))
    return _report(mean(vals ** 2) - first * first, 0.0, discrete, 0.0, terms,
                   "quadrature", 1e-6)


def _variance_and_se(vals: np.ndarray) -> tuple[float, float]:
    """Sample variance s^2 and its standard error.

    Var(s^2) = mu4/n - sigma^4 (n-3) / (n(n-1)), with the plug-in central
    moments m2 and m4 (divided by n) for mu4 and sigma^2.  The first term
    alone is 0 for a symmetric two-point law, whose s^2 still varies.
    """
    n = vals.size
    # ** 2 is numpy's square; ** 4 would call pow per element.
    sq = (vals - vals.mean()) ** 2
    m2 = float(np.mean(sq))
    m4 = float(np.mean(sq * sq))
    se = math.sqrt(max(m4 / n - m2 * m2 * (n - 3) / (n * (n - 1)), 0.0))
    return float(np.sum(sq)) / (n - 1), se


def _term_se(dvals: np.ndarray, term: ContinuousTerm, ratio_scale: float,
             prefactor: float) -> float:
    """Delta-method standard error of one phi-weighted contribution."""
    if term.l2sq <= 0.0:
        return 0.0
    n = dvals.size
    cov = np.cov(np.stack([np.abs(dvals), dvals ** 2])) / n
    r = term.ratio
    # The ratio is clipped at 1, where it no longer moves with the l1 norm.
    slope = phi_derivative(r) if r < 1.0 else 0.0
    grad = np.array([ratio_scale * math.sqrt(term.l2sq) * slope,
                     term.phi_of_ratio - 0.5 * r * slope])
    var = float(grad @ cov @ grad)
    return prefactor * math.sqrt(max(var, 0.0))


def _mc_inequality(samples: int, vals, partials: list, discrete, ratio_scale: float,
                   prefactor: float) -> InequalityReport:
    """Monte Carlo report from raw outputs at ``samples`` points: f's values,
    the continuous partials and the summed squared discrete gradients (a
    scalar 0.0 for none), each broadcast to one value per sample."""

    def per_sample(a) -> np.ndarray:
        return np.broadcast_to(np.asarray(a, dtype=float), (samples,))

    lhs, lhs_se = _variance_and_se(per_sample(vals))
    discrete_samples = per_sample(discrete)
    rhs_var = (float(np.std(discrete_samples, ddof=1)) / math.sqrt(samples)) ** 2

    terms = []
    for i, dvals in enumerate(map(per_sample, partials)):
        term = _term_from_norms(i, float(np.mean(np.abs(dvals))), float(np.mean(dvals ** 2)),
                                ratio_scale, prefactor)
        terms.append(term)
        rhs_var += _term_se(dvals, term, ratio_scale, prefactor) ** 2
    return _report(lhs, lhs_se, float(np.mean(discrete_samples)), rhs_var, terms,
                   "monte-carlo", 0.0)


def _mc_report(tf: TestFunction, samples: int, seed) -> InequalityReport:
    samples = _at_least(samples, MIN_MC_SAMPLES, _MC_FLOOR)
    rng = _rng(seed)
    x = rng.integers(0, 2, size=(samples, tf.n_bits)).astype(float)
    y = rng.standard_normal((samples, tf.n_cont))
    vals = _values(tf.fn, x, y)
    return _mc_inequality(samples, vals, [_values(dfun, x, y) for dfun in tf.partials],
                          _discrete_gradient_sum(tf, x, y, vals), 1.0, 1.0)


def verify_modified_poincare(tf: TestFunction, rule: Optional[QuadratureRule] = None,
                             mc: Optional[dict] = None) -> InequalityReport:
    """Verify the phi-weighted variance bound for one test function.

    Exactly one of ``rule`` (tensor quadrature, n_cont <= 6) or ``mc`` (dict with integer
    ``samples`` >= MIN_MC_SAMPLES and ``seed`` >= 0 or a SeedSequence, default 0) is given.
    """
    if (rule is None) == (mc is None):
        raise ValueError("pass exactly one of rule= or mc=")
    if rule is not None:
        return _quad_report(tf, rule)
    return _mc_report(tf, mc["samples"], mc.get("seed", 0))


@dataclass(frozen=True)
class VarianceSplitReport:
    lhs: float
    rhs: float
    discrepancy: float


def verify_variance_split(tf: TestFunction, rule: QuadratureRule) -> VarianceSplitReport:
    """Check Var(f) = E[Var over the cube] + Var[cube average] exactly."""
    x, y, weights = _quad_points(tf, rule)
    vals = _values(tf.fn, x, y)

    col_mean = vals.mean(axis=0)
    col_var = (vals ** 2).mean(axis=0) - col_mean ** 2
    mean = float(col_mean @ weights)
    within = float(col_var @ weights)
    between = float((col_mean ** 2) @ weights) - mean ** 2
    total = _quad_mean(vals ** 2, weights) - mean * mean
    rhs = within + between
    return VarianceSplitReport(lhs=total, rhs=rhs, discrepancy=abs(total - rhs))


def verify_tensorisation(g: Callable[[np.ndarray], np.ndarray],
                         n_bits: int) -> InequalityReport:
    """Exhaustively check Var(g) <= sum_q ||grad_q g||^2 on the cube."""
    n_bits = _at_least(n_bits, 0, "n_bits must be an integer >= 0")
    if n_bits > 20:
        raise ValueError("exhaustive enumeration is limited to 20 bits")
    vals = np.asarray(g(cube(n_bits)), dtype=float)
    var = float(np.mean(vals ** 2) - np.mean(vals) ** 2)
    total = sum((float(np.mean((0.5 * flip(vals, q)) ** 2)) for q in range(n_bits)), 0.0)
    return _report(var, 0.0, total, 0.0, [], "exhaustive", 1e-12)


def c_k(k: int) -> float:
    """The ratio constant 2*sqrt(k) / ((k-1) * int_0^pi sin^(k-2)); in (0, 1).

    The integral is the Beta function B(1/2, (k-1)/2).
    """
    k = _at_least(k, 2, "k must be an integer >= 2")
    return 2.0 * math.sqrt(k) / ((k - 1) * float(special.beta(0.5, 0.5 * (k - 1))))


def verify_chi2_inequality(g: Callable, gprime: Callable, k: int, alpha: float,
                           samples: int, seed: int) -> InequalityReport:
    """Monte Carlo check of the gamma-type variance bound in one dimension.

    Under the law with density proportional to e^{-alpha t} t^{k/2-1}:
    Var(g) <= (2/alpha) * ||D||_2^2 * phi(c(k) ||D||_1/||D||_2) with
    D(y) = g'(y) sqrt(y); ``samples`` and ``seed`` as in verify_modified_poincare.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    samples = _at_least(samples, MIN_MC_SAMPLES, _MC_FLOOR)
    ck = c_k(k)
    y = _rng(seed).gamma(shape=k / 2.0, scale=1.0 / alpha, size=samples)
    return _mc_inequality(samples, g(y), [np.asarray(gprime(y), dtype=float) * np.sqrt(y)],
                          0.0, ck, 2.0 / alpha)


def verify_change_of_variables(f: Callable, fprime: Callable,
                               dist: EdgeDistribution,
                               samples: int, seed: int) -> InequalityReport:
    """Monte Carlo check of the quantile-coupling variance bound.

    Under the edge law: Var(f) <= 2 * ||D||_2^2 * phi(||D||_1/||D||_2) with
    D(y) = psi(y) f'(y); ``samples`` and ``seed`` as in verify_modified_poincare.
    """
    samples = _at_least(samples, MIN_MC_SAMPLES, _MC_FLOOR)
    # The draws of sample(dist, seed, samples), with their levels kept for psi.
    u = _uniforms(seed, samples)
    y = dist._quantile(u)
    return _mc_inequality(samples, f(y),
                          [_psi_at_level(dist, u, y) * np.asarray(fprime(y), dtype=float)],
                          0.0, 1.0, 2.0)


REGISTRY: dict[str, TestFunction] = {}


def _register(tf: TestFunction) -> None:
    REGISTRY[tf.name] = tf


_register(TestFunction("linear-1d", 0, 1,
                       lambda x, y: y[..., 0],
                       (lambda x, y: 1.0,)))
_register(TestFunction("quadratic-1d", 0, 1,
                       lambda x, y: y[..., 0] ** 2,
                       (lambda x, y: 2.0 * y[..., 0],)))
_register(TestFunction("cubic-1d", 0, 1,
                       lambda x, y: y[..., 0] ** 3,
                       (lambda x, y: 3.0 * y[..., 0] ** 2,)))
_register(TestFunction("sin-1d", 0, 1,
                       lambda x, y: np.sin(y[..., 0]),
                       (lambda x, y: np.cos(y[..., 0]),)))
_register(TestFunction("exp-half-1d", 0, 1,
                       lambda x, y: np.exp(0.5 * y[..., 0]),
                       (lambda x, y: 0.5 * np.exp(0.5 * y[..., 0]),)))
_register(TestFunction("sum-2d", 0, 2,
                       lambda x, y: y[..., 0] + y[..., 1],
                       (lambda x, y: 1.0,
                        lambda x, y: 1.0)))
_register(TestFunction("product-2d", 0, 2,
                       lambda x, y: y[..., 0] * y[..., 1],
                       (lambda x, y: y[..., 1],
                        lambda x, y: y[..., 0])))
_register(TestFunction("bit-single", 1, 1,
                       lambda x, y: x[..., 0],
                       (lambda x, y: 0.0,)))
_register(TestFunction("bit-times-gauss", 1, 1,
                       lambda x, y: x[..., 0] * y[..., 0],
                       (lambda x, y: x[..., 0],)))
_register(TestFunction("bit-plus-gauss", 1, 1,
                       lambda x, y: x[..., 0] + y[..., 0],
                       (lambda x, y: 1.0,)))
_register(TestFunction("parity-2bit", 2, 1,
                       lambda x, y: x[..., 0] + x[..., 1] - 2.0 * x[..., 0] * x[..., 1],
                       (lambda x, y: 0.0,)))
_register(TestFunction("mixed-bit-quadratic", 1, 2,
                       lambda x, y: (x[..., 0] - 0.5) * (y[..., 0] ** 2 - 1.0) + y[..., 1],
                       (lambda x, y: 2.0 * y[..., 0] * (x[..., 0] - 0.5),
                        lambda x, y: 1.0)))
