"""Variance-scaling Monte Carlo experiments for lattice passage times.

Estimates Var(f_v) for v = n*e1 over a sweep of n and reports the derived
columns var/n and var*log(n)/n.  The prediction under test is sublinearity:
var/n should fall as n grows while var*log(n)/n stays of one order.

Reproducibility contract: replicate r of row n draws its weight field from
``SeedSequence((master_seed, n, r))``, and aggregation runs over the replicate
values ordered by index, so serial and multi-worker runs produce identical
bytes in the CSV.

Pruned replicate.  For most gamma, chi2 and beta laws, scipy's quantile
costs several solves of the box per field, yet only about 1 % of the edges
can lie on a near-optimal path.  Such a row draws the same levels u as
``sample`` and computes exact quantiles Q(u) only where they can matter:

1. L_e = tab[floor(u_e K)] with tab[k] = Q(k/K), K = TABLE_SIZE a power of
   two (so the floor is exact) and tab[0] = lo; L_e <= Q(u_e) by
   monotonicity alone.
2. Solve under L from the source with predecessors, take exact weights on
   that tree path, and set T_ub = (1 + fpp.MARGIN) * their sum, so T_ub >= T.
3. Prune with ``fpp._prune`` against T_ub.  Its search from the target
   runs under L reweighted by the step-2 labels d_s (reduced costs), so it
   labels only the ellipse d_s + d_t <= T_ub, with d_t the distances from
   the target under L: 1-3 % of the box, where the ball d_t <= T_ub is
   half of it at n=16 and 72 % at n=64.
4. Take exact weights on the kept edges, ``inf`` on the rest, and solve
   once more with ``limit=T_ub``; its label at the target is the value.

The value is bit-identical to the full field's by the two facts in the
``fpp`` module docstring: L bounds the exact weights from below, and T_ub
is (1 + MARGIN) times a float sum of exact weights along a path.  Exact
weights are checked finite and at least L (so nonnegative), as
``WeightField`` checks a full field.

Bounded plain replicate.  A row on the plain path draws the full field with
``sample`` and validates it as ``WeightField`` does, then solves it as every
point-to-point query in ``fpp`` does (``fpp._bounded_solve``): first the
strip [0, n] x [-fpp.SUB_PAD, fpp.SUB_PAD]^(d-1), whose label X at the
target is at least T; then the box with a limit of X plus a tie margin.  The
capped label at the target is the full solve's, bit for bit (fact 1 in the
``fpp`` module docstring).  The capped solve labels only the vertices within
the limit of the source: in d=2 about a fifth of the box at n=8, half at
n=16 and three quarters at n >= 32; in d=3 a few percent.

A process sets a row up (``_init_worker``) on the first chunk of 64
replicates it runs (``_run_chunk``), alone or in a pool, so a set-up error
is that chunk's error.  The row takes the pruned path when the set-up finds
a valid table and the quantile time per field exceeds BREAK_EVEN solve
times, both timed there; which path runs never changes a byte of the output.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import time
from dataclasses import dataclass

import numpy as np

from . import fpp
from .edge_distributions import _U_HI, EdgeDistribution, _uniforms, sample

CSV_HEADER = "n,samples,mean,var,se_var,mean_over_n,var_over_n,var_logn_over_n,seed"


def box_for_target(d: int, n: int) -> fpp.GridSpec:
    """Finite box for the passage time from the origin to n*e1.

    Padding max(ceil(n/2), 16) on every side; geodesic wandering at these
    scales stays well inside (checked by the padding-doubling test).
    """
    pad = max(math.ceil(n / 2), 16)
    lo = (-pad,) * d
    hi = (n + pad,) + (pad,) * (d - 1)
    return fpp.GridSpec(lo=lo, hi=hi)


@dataclass(frozen=True)
class VarianceEstimate:
    n: int
    samples: int
    mean: float
    var: float
    se_var: float
    mean_over_n: float
    seed: int
    jackknife_se: float
    jackknife_ok: bool


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[VarianceEstimate, ...]

    def __post_init__(self):
        ns = [r.n for r in self.rows]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("rows must be strictly increasing in n")

    def var_logn_over_n(self) -> np.ndarray:
        return np.array([r.var * math.log(r.n) / r.n for r in self.rows])

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([
                str(r.n), str(r.samples), repr(r.mean), repr(r.var),
                repr(r.se_var), repr(r.mean_over_n), repr(r.var / r.n),
                repr(r.var * math.log(r.n) / r.n), str(r.seed),
            ]))
        return "\n".join(lines) + "\n"


# Levels of the lower-bound quantile table: a power of two, so floor(u * K)
# is exact.
TABLE_SIZE = 4096
# The pruned replicate pays when the quantiles of a field cost more than this
# many solves of the box.  Measured break-even against the bounded plain
# replicate, with the goal-directed target solve of ``fpp._prune``: about
# 0.65 at n=64 and between 0.8 and 1.2 at n=16 (BENCH_20.json; 0.9-1.3 and
# 1.2-1.3 before it, BENCH_16.json).  The quantile-to-solve ratio of one law
# reads up to 0.6 apart from row to row on a busy host, and the margin over
# the n=16 crossing keeps such a law from flipping to the pruned path where
# it runs slower.
BREAK_EVEN = 1.5

# Per-process context of the row being run: emptied before a row's first
# chunk, and filled by ``_init_worker`` in each process that runs a chunk.
_CTX: dict = {}


def _pruned_pays(draw_s: float, solve_s: float, edges: int) -> bool:
    """Whether a row takes the pruned path, from the seconds per quantile
    and per solve of its box with ``edges`` edges."""
    return draw_s * edges > BREAK_EVEN * solve_s


def _lower_table(dist: EdgeDistribution) -> tuple[np.ndarray | None, float]:
    """(tab, seconds per quantile): tab[k] = Q(k / K), with tab[0] = dist.lo.

    tab is None unless it is nonnegative and non-decreasing, and Q at the
    largest level a draw can take is finite and at least tab[-1], so that
    every weight of the row is finite; otherwise the plain path runs and
    validates each field.  The seconds are the fastest of 8 blocks, which
    keeps a busy host from faking a slow quantile.
    """
    blocks, draw_s = [], math.inf
    for levels in np.split(np.arange(TABLE_SIZE) / TABLE_SIZE, 8):
        start = time.perf_counter()
        blocks.append(dist._quantile(levels))
        draw_s = min(draw_s, (time.perf_counter() - start) / levels.size)
    tab = np.concatenate(blocks)
    tab[0] = dist.lo
    top = dist._quantile(np.array([_U_HI]))[0]
    ok = tab[0] >= 0.0 and np.all(np.diff(tab) >= 0.0) and tab[-1] <= top < math.inf
    return (tab if ok else None), draw_s


def _init_worker(dist: EdgeDistribution, d: int, n: int, seed: int) -> None:
    """Set up the row in this process; ``_CTX`` is filled only on success."""
    grid = box_for_target(d, n)
    src = grid.vertex_index((0,) * d)
    tab, draw_s = _lower_table(dist)
    if tab is not None:
        # Time the box on a field drawn from the table; fastest of three solves.
        probe = tab[np.random.default_rng(0).integers(TABLE_SIZE, size=grid.edge_count)]
        solve_s = math.inf
        for _ in range(3):
            start = time.perf_counter()
            fpp._solve(grid, probe, src)
            solve_s = min(solve_s, time.perf_counter() - start)
        if not _pruned_pays(draw_s, solve_s, grid.edge_count):
            tab = None
    _CTX.update(dist=dist, grid=grid, n=n, seed=seed, src_index=src, tab=tab,
                dst=grid.vertex_index((n,) + (0,) * (d - 1)))


def _exact(dist: EdgeDistribution, u: np.ndarray, lower: np.ndarray,
           edges: np.ndarray) -> np.ndarray:
    """Exact weights of the given edges, checked finite and >= their lower
    bounds (so nonnegative), as WeightField checks a full field."""
    q = dist._quantile(u[edges])
    if not (np.isfinite(q).all() and np.all(q >= lower[edges])):
        raise ValueError("weights must be finite and nonnegative")
    return q


def _pruned_value(ss) -> float:
    """The replicate value with exact quantiles only on the edges that can
    lie on a geodesic; equal to the plain value (module docstring)."""
    grid, dist, tab = _CTX["grid"], _CTX["dist"], _CTX["tab"]
    src, dst = _CTX["src_index"], _CTX["dst"]
    u = _uniforms(ss, grid.edge_count)
    lower = tab[(u * TABLE_SIZE).astype(np.intp)]
    d0, pred = fpp._solve(grid, lower, src, return_predecessors=True)
    chain = fpp._tree_path(grid, pred, src, dst)
    path = grid._edges_between(chain[:-1], chain[1:])
    t_ub = float(_exact(dist, u, lower, path).sum()) * (1.0 + fpp.MARGIN)
    weights = fpp._prune(grid, d0, dst, lower, t_ub)
    keep = np.flatnonzero(weights != np.inf)
    weights[keep] = _exact(dist, u, lower, keep)
    return float(fpp._solve(grid, weights, src, limit=t_ub)[dst])


def _plain_value(ss) -> float:
    """The replicate value from the full field, by the bounded solve of
    ``fpp`` (module docstring)."""
    grid, dst = _CTX["grid"], _CTX["dst"]
    weights = fpp.WeightField(grid=grid, weights=sample(_CTX["dist"], ss, grid.edge_count)).weights
    return float(fpp._bounded_solve(grid, weights, _CTX["src_index"], dst)[dst])


def _replicate_value(r: int) -> float:
    ss = np.random.SeedSequence((_CTX["seed"], _CTX["n"], r))
    return _pruned_value(ss) if _CTX["tab"] is not None else _plain_value(ss)


def _run_chunk(task) -> list[float]:
    """Replicate values of one chunk, ``task`` = ((dist, d, n, seed),
    indices); a process's first chunk of a row sets the row up."""
    row, indices = task
    if not _CTX:
        _init_worker(*row)
    return [_replicate_value(r) for r in indices]


def _replicate_values(dist: EdgeDistribution, d: int, n: int, samples: int,
                      seed: int, workers: int) -> np.ndarray:
    tasks = [((dist, d, n, seed), range(a, min(a + 64, samples))) for a in range(0, samples, 64)]
    _CTX.clear()
    if workers <= 1:
        parts = list(map(_run_chunk, tasks))
    else:
        with mp.Pool(min(workers, len(tasks))) as pool:
            parts = pool.map(_run_chunk, tasks)
    return np.concatenate([np.asarray(p) for p in parts])


def _jackknife_se_of_var(vals: np.ndarray) -> float:
    n = vals.size
    xbar = vals.mean()
    dev2 = (vals - xbar) ** 2
    s2 = dev2.sum()
    loo = (s2 - dev2 * n / (n - 1)) / (n - 2)
    return float(math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))


def estimate_variance(dist: EdgeDistribution, d: int, n: int, samples: int,
                      seed: int, workers: int = 1) -> VarianceEstimate:
    """Unbiased variance of the passage time to n*e1 over seeded replicates.

    Deterministic in all arguments and independent of ``workers``.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    if n < 2:
        raise ValueError("n must be >= 2")
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if not (dist.std() > 0.0):
        raise ValueError("degenerate edge distribution")
    if workers < 1:
        raise ValueError("workers must be >= 1")

    vals = _replicate_values(dist, d, n, samples, seed, workers)
    mean = float(np.mean(vals))
    var = float(np.var(vals, ddof=1))
    se_var = var * math.sqrt(2.0 / (samples - 1))
    jk = _jackknife_se_of_var(vals)
    return VarianceEstimate(n=n, samples=samples, mean=mean, var=var,
                            se_var=se_var, mean_over_n=mean / n, seed=seed,
                            jackknife_se=jk,
                            jackknife_ok=abs(jk - se_var) <= 0.5 * se_var)


def sweep(dist: EdgeDistribution, d: int, n_list, samples: int, seed: int,
          workers: int = 1) -> SweepResult:
    """Variance estimates for each n in an increasing list of distances."""
    ns = list(n_list)
    if not ns:
        raise ValueError("n_list must not be empty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly increasing")
    rows = tuple(estimate_variance(dist, d, n, samples, seed, workers) for n in ns)
    return SweepResult(rows=rows)


@dataclass(frozen=True)
class ScalingFit:
    ratio_bound: float
    slope_loglog: float
    slope_se: float


def fit_scaling(result: SweepResult) -> ScalingFit:
    """Summary statistics of a sweep: log-log slope and the var*log(n)/n spread."""
    if len(result.rows) < 3:
        raise ValueError("need at least 3 rows to fit")
    ratios = result.var_logn_over_n()
    ratio_bound = float(ratios.max() / ratios.min())
    x = np.log([r.n for r in result.rows])
    y = np.log([r.var for r in result.rows])
    coef, cov = np.polyfit(x, y, 1, cov=True)
    return ScalingFit(ratio_bound=ratio_bound, slope_loglog=float(coef[0]),
                      slope_se=float(math.sqrt(cov[0, 0])))
