"""Variance-scaling Monte Carlo experiments for lattice passage times.

Estimates Var(f_v) for v = n*e1 over a sweep of n and reports the derived
columns var/n and var*log(n)/n.  The prediction under test is sublinearity:
var/n should fall as n grows while var*log(n)/n stays of one order.

Reproducibility contract: replicate r of row n draws its weight field from
``SeedSequence((master_seed, n, r))``, and aggregation runs over the replicate
values ordered by index, so serial and multi-worker runs produce identical
bytes in the CSV.
"""

from __future__ import annotations

import math
import multiprocessing as mp
from dataclasses import dataclass

import numpy as np

from . import fpp
from .edge_distributions import EdgeDistribution, sample

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

    def var_over_n(self) -> np.ndarray:
        return np.array([r.var / r.n for r in self.rows])

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


# Per-process context for replicate evaluation; set by the pool initializer
# (inherited state must not leak between configurations, hence keyed setup).
_CTX: dict = {}


def _init_worker(dist: EdgeDistribution, d: int, n: int, seed: int) -> None:
    # The law itself, not its name: names round parameters to 6 digits.
    grid = box_for_target(d, n)
    _CTX.update(dist=dist, grid=grid, n=n, seed=seed,
                src=grid.vertex_index((0,) * d),
                dst=grid.vertex_index((n,) + (0,) * (d - 1)),
                template=grid._csr_template)
    # touch caches once so replicas don't rebuild them
    _ = grid.edge_count


def _replicate_value(r: int) -> float:
    grid = _CTX["grid"]
    ss = np.random.SeedSequence((_CTX["seed"], _CTX["n"], r))
    weights = sample(_CTX["dist"], ss, grid.edge_count)
    field = fpp.WeightField(grid=grid, weights=weights)
    return float(fpp.distances_from(field, grid.vertex_coords(_CTX["src"]))[_CTX["dst"]])


def _run_chunk(indices) -> list[float]:
    return [_replicate_value(r) for r in indices]


def _replicate_values(dist: EdgeDistribution, d: int, n: int, samples: int,
                      seed: int, workers: int) -> np.ndarray:
    chunks = [range(a, min(a + 64, samples)) for a in range(0, samples, 64)]
    if workers <= 1:
        _init_worker(dist, d, n, seed)
        parts = [_run_chunk(c) for c in chunks]
    else:
        with mp.Pool(workers, initializer=_init_worker,
                     initargs=(dist, d, n, seed)) as pool:
            parts = pool.map(_run_chunk, chunks)
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
