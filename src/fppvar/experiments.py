"""Variance-scaling Monte Carlo experiments for lattice passage times.

Estimates Var(f_v) for v = n*e1 over a sweep of n and reports the derived
columns var/n and var*log(n)/n.  The prediction under test is sublinearity:
var/n should fall as n grows while var*log(n)/n stays of one order.

Reproducibility contract: replicate r of row n has the field Q(u) on both
paths, with Q the law's quantile and u = ``_Row.levels(r)`` the levels from
``SeedSequence((master_seed, n, r))``; aggregation runs over the values in
replicate order, so serial and multi-worker runs give identical CSV bytes.

Pruned replicate.  For most gamma, chi2 and beta laws, scipy's quantile
costs several solves of the box per field, yet only about 1 % of the edges
can lie on a near-optimal path.  Such a row computes the exact quantiles
Q(u) of the levels only where they can matter:

1. L_e = tab[floor(u_e K)] with tab[k] = Q(k/K), K = TABLE_SIZE a power of
   two (so the floor is exact); L_e <= Q(u_e) by monotonicity alone.
2. Solve under L from the source with predecessors, take exact weights on
   that tree path, and set T_ub to their left fold from the source, which
   is at least T (fact 1 in the ``fpp`` module docstring).
3. Prune with ``fpp._prune`` against T_ub.  Its search from the target
   runs under L reweighted by the step-2 labels d_s (reduced costs), so it
   labels only the ellipse d_s + d_t <= T_ub, with d_t the distances from
   the target under L: 1-3 % of the box, where the ball d_t <= T_ub is
   half of it at n=16 and 72 % at n=64.
4. If the kept edges are exactly the step-2 path's, the value is T_ub: by
   fact 2 it is the least left fold from the source over kept paths, and
   the one kept path is that path, whose fold is T_ub bit for bit.  Else
   take exact weights on the kept edges, ``inf`` on the rest, and solve
   once more with ``limit=T_ub``; its label at the target is the value.
   For gamma:shape=2 about 96 % of the replicates stop at the path at
   n=16, 83 % at n=32 and half at n=64.

The value is bit-identical to the full field's by facts 1 and 2 in the
``fpp`` module docstring: L bounds the exact weights from below, and T_ub
is a fold of exact weights along a path from the source.  Exact weights
are checked finite and at least L (so nonnegative) by ``fpp._checked``, the
rule ``WeightField`` applies to a full field.

Bounded plain replicate.  A row on the plain path takes the full field Q(u),
checks it by the same ``fpp._checked``, then solves it as every
point-to-point query in ``fpp`` does (``fpp._bounded_solve``): first the
strip [0, n] x [-fpp.SUB_PAD, fpp.SUB_PAD]^(d-1), whose label X at the
target is at least T; then the box with a limit of X plus a tie margin.  The
capped label at the target is the full solve's, bit for bit (fact 1 in the
``fpp`` module docstring).  The capped solve labels only the vertices within
the limit of the source: in d=2 about a fifth of the box at n=8, half at
n=16 and three quarters at n >= 32; in d=3 a few percent.

A sweep splits every row into chunks of 64 replicates and runs them all,
serially or in one pool of at most as many processes as chunks, rows in
decreasing n: a replicate costs more the larger the box, so the chunks that
finish last are the cheapest, and a process idles at the end for at most
about one of them.  The values are regrouped by row in replicate order.
A process sets a row up (``_row``, one ``_Row`` kept until the next row
replaces it) on the first chunk of that row it runs (``_run_chunk``), so a
set-up error is that chunk's error.  ``pool.map`` hands the chunks out in
order, so each process meets the rows in decreasing n and sets each up at
most once.  The row takes the pruned path when the set-up finds a valid
table and the quantile time per field exceeds BREAK_EVEN solve times, both
timed there; which path runs never changes a byte of the output.
The sweep's own process loads the graph solver (``fpp._solver``) before it
times anything or forks a pool, so forked workers inherit it and no set-up
timing includes its import.
"""

from __future__ import annotations

import functools
import math
import multiprocessing as mp
import time
from dataclasses import dataclass

import numpy as np

from . import fpp
from ._counts import _at_least
from .edge_distributions import _SEED_RULE, _U_HI, EdgeDistribution, _rng, _uniforms

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


def _pruned_pays(draw_s: float, solve_s: float, edges: int) -> bool:
    """Whether a row takes the pruned path, from the seconds per quantile
    and per solve of its box with ``edges`` edges."""
    return draw_s * edges > BREAK_EVEN * solve_s


def _lower_table(dist: EdgeDistribution) -> tuple[np.ndarray | None, float]:
    """(tab, seconds per quantile): tab[k] = Q(k / K), so tab[0] = Q(0),
    the lower end of the support for every law of the package.

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
    top = dist._quantile(np.array([_U_HI]))[0]
    ok = tab[0] >= 0.0 and np.all(np.diff(tab) >= 0.0) and tab[-1] <= top < math.inf
    return (tab if ok else None), draw_s


@functools.lru_cache(maxsize=1)
def _row(dist: EdgeDistribution, d: int, n: int, seed: int) -> _Row:
    """The row set up in this process, timed here to choose its path; kept
    until the next row replaces it or ``_replicate_values`` clears it."""
    grid = box_for_target(d, n)
    src = grid.vertex_index((0,) * d)
    tab, draw_s = _lower_table(dist)
    if tab is not None:
        # Time the box on a field drawn from the table; fastest of three solves.
        probe = tab[_rng(0).integers(TABLE_SIZE, size=grid.edge_count)]
        solve_s = math.inf
        for _ in range(3):
            start = time.perf_counter()
            fpp._solve(grid, probe, src)
            solve_s = min(solve_s, time.perf_counter() - start)
        if not _pruned_pays(draw_s, solve_s, grid.edge_count):
            tab = None
    return _Row(dist=dist, grid=grid, n=n, seed=seed, src=src,
                dst=grid.vertex_index((n,) + (0,) * (d - 1)), tab=tab)


@dataclass(frozen=True)
class _Row:
    """One sweep row as a process runs it, from the origin ``src`` to n*e1
    ``dst``; replicate r is ``solve(levels(r))``, plain when ``tab`` is None."""
    dist: EdgeDistribution
    grid: fpp.GridSpec
    n: int
    seed: int
    src: int
    dst: int
    tab: np.ndarray | None

    def levels(self, r: int) -> np.ndarray:
        """The levels u of replicate r: its field is Q(u) on both paths."""
        return _uniforms(np.random.SeedSequence((self.seed, self.n, r)), self.grid.edge_count)

    def solve(self, u: np.ndarray) -> float:
        """The passage time of the field Q(u), equal on both paths to the full
        field's (module docstring)."""
        grid, src, dst, quantile = self.grid, self.src, self.dst, self.dist._quantile
        if self.tab is None:
            return float(fpp._bounded_solve(grid, fpp._checked(quantile(u)), src, dst)[dst])
        lower = self.tab[(u * TABLE_SIZE).astype(np.intp)]
        d0, pred = fpp._solve(grid, lower, src, return_predecessors=True)
        path = fpp._tree_path(grid, pred, src, dst)[1]
        t_ub = float(np.add.accumulate(fpp._checked(quantile(u[path]), lower[path]))[-1])
        weights = fpp._prune(grid, d0, dst, lower, t_ub)
        keep = np.flatnonzero(weights != np.inf)
        if np.array_equal(keep, np.sort(path)):
            return t_ub
        weights[keep] = fpp._checked(quantile(u[keep]), lower[keep])
        return float(fpp._solve(grid, weights, src, limit=t_ub)[dst])


def _run_chunk(task) -> list[float]:
    """Replicate values of one chunk, ``task`` = ((dist, d, n, seed),
    indices); a process's first chunk of a row sets the row up."""
    row = _row(*task[0])
    return [row.solve(row.levels(r)) for r in task[1]]


def _replicate_values(dist: EdgeDistribution, d: int, ns: list[int], samples: int,
                      seed: int, workers: int) -> list[np.ndarray]:
    """The replicate values of each row n in ``ns``, in replicate order.  The
    chunks of every row run in one pool, rows in decreasing n (module
    docstring)."""
    tasks = [((dist, d, n, seed), range(a, min(a + 64, samples)))
             for n in sorted(ns, reverse=True) for a in range(0, samples, 64)]
    _row.cache_clear()
    # Forked workers inherit the solver, and no set-up timing includes its import.
    fpp._solver()
    if workers <= 1:
        parts = map(_run_chunk, tasks)
    else:
        with mp.Pool(min(workers, len(tasks))) as pool:
            parts = pool.map(_run_chunk, tasks, chunksize=1)
    # Each chunk's values become an array at once: a serial sweep then holds
    # 8 bytes a value, not a Python float.
    rows = {n: [] for n in ns}
    for (row, _), part in zip(tasks, parts):
        rows[row[2]].append(np.asarray(part))
    return [np.concatenate(rows[n]) for n in ns]


def _jackknife_se_of_var(vals: np.ndarray) -> float:
    n = vals.size
    xbar = vals.mean()
    dev2 = (vals - xbar) ** 2
    s2 = dev2.sum()
    loo = (s2 - dev2 * n / (n - 1)) / (n - 2)
    return float(math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))


def _estimate(n: int, seed: int, vals: np.ndarray) -> VarianceEstimate:
    """The statistics of one row's replicate values."""
    samples = vals.size
    mean = float(np.mean(vals))
    var = float(np.var(vals, ddof=1))
    se_var = var * math.sqrt(2.0 / (samples - 1))
    jk = _jackknife_se_of_var(vals)
    return VarianceEstimate(n=n, samples=samples, mean=mean, var=var,
                            se_var=se_var, mean_over_n=mean / n, seed=seed,
                            jackknife_se=jk,
                            jackknife_ok=abs(jk - se_var) <= 0.5 * se_var)


def estimate_variance(dist: EdgeDistribution, d: int, n: int, samples: int,
                      seed: int, workers: int = 1) -> VarianceEstimate:
    """Unbiased variance of the passage time to n*e1 over seeded replicates.

    Deterministic in all arguments and independent of ``workers``.
    """
    return sweep(dist, d, [n], samples, seed, workers).rows[0]


def sweep(dist: EdgeDistribution, d: int, n_list, samples: int, seed: int,
          workers: int = 1) -> SweepResult:
    """Variance estimates for each n in an increasing list of distances.  Every n >= 2,
    samples >= 100, d >= 2, workers >= 1 and seed >= 0 is an integer, checked first."""
    ns = [_at_least(n, 2, "each n must be an integer >= 2") for n in n_list]
    if not ns:
        raise ValueError("n_list must not be empty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly increasing")
    samples = _at_least(samples, 100, "samples must be an integer >= 100")
    d = _at_least(d, 2, "dimension must be an integer >= 2")
    workers = _at_least(workers, 1, "workers must be an integer >= 1")
    seed = _at_least(seed, 0, _SEED_RULE)
    if not (dist.std() > 0.0):
        raise ValueError("degenerate edge distribution")
    values = _replicate_values(dist, d, ns, samples, seed, workers)
    return SweepResult(rows=tuple(_estimate(n, seed, v) for n, v in zip(ns, values)))


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
