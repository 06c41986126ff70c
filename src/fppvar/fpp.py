"""Finite-box first passage percolation: lattice, weight fields, exact paths.

Vertices live in an axis-aligned integer box with inclusive bounds and are
indexed row-major over (coord - lo).  Edges are the positive-direction bonds,
grouped by axis: edge (v, axis) exists when v + e_axis stays in the box, and
its index is the axis offset plus the row-major index of v over the box with
that axis shortened by one.  This indexing is part of the reproducibility
contract: a weight field is a pure function of (distribution spec, seed).

Distances are csgraph Dijkstra labels (:func:`distances_from`), solved as a
directed graph over a symmetric adjacency template that holds each edge in
both directions, so csgraph builds no transpose per solve.  The geodesic is
the path to the target in csgraph's predecessor tree from the same solve
(:func:`_tree_edges`).  For continuous weights it is the unique geodesic
almost surely.  On exact ties it is whichever optimal path the tree holds,
which is deterministic for a given field and scipy version.
Derivative-sensitive operations additionally *detect* near-ties between
distinct geodesics and refuse, signalling the caller to redraw the field.

Two facts carry every bounded solve in the package.

1. *Labels.*  A csgraph label is the minimum, over paths, of the left-fold
   float sum of the path's weights: Dijkstra settles labels in order, and
   float addition of nonnegative numbers is monotone.  So a label never
   decreases when one weight grows.  A solve with ``limit=L`` returns the
   same bits at every vertex whose label is at most L, and ``inf`` at the
   rest: no prefix of a path folds to more than the whole path.
2. *Pruning* (:func:`_prune`).  Let d_s and d_t be labels from s and from
   t under weights lo, each at most the weight w of its edge (solves with
   ``limit=B`` will do), and keep edge (a, b) when min(d_s[a] + d_t[b], d_s[b] + d_t[a]) + lo_e <= B.  Let T
   be the label at t from s under w.  If B >= (1 + 2 V eps) T, the label
   at t from s under w on the kept edges alone (``inf`` elsewhere,
   ``limit=B``) is T, bit for bit.  Why: monotone rounding gives
   d_s[a] <= the fold of w along the prefix to a of a float-optimal path
   P*, and likewise for d_t along its reversed suffix.  A fold of V
   nonnegative terms is within a factor (1 + V eps) of their exact sum
   (V vertices, eps = 2^-53; sums in the subnormal range are exact), so
   every edge of P* has a keep sum within (1 + 2 V eps) of T.  P* survives,
   and the minimum fold over the kept paths is T itself.  MARGIN = 1e-9
   dwarfs these ~1e-12, so B = (1 + MARGIN) X will do when X is at least T,
   or is any float sum of w along a path from s to t.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .edge_distributions import EdgeDistribution, parse_distribution, sample

TIE_TOL = 1e-12
# Relative margin of a bounded solve's limit over the label it must keep
# (module docstring, fact 2).
MARGIN = 1e-9


class GeodesicTieError(RuntimeError):
    """Two distinct optimal paths within tolerance; re-sample the field."""


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned box in Z^d with inclusive integer bounds."""
    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or len(self.lo) < 2:
            raise ValueError("need matching lo/hi bounds in dimension >= 2")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError("each axis needs at least two vertices")

    @property
    def d(self) -> int:
        return len(self.lo)

    @cached_property
    def extents(self) -> tuple[int, ...]:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @cached_property
    def vertex_count(self) -> int:
        return int(np.prod(self.extents))

    @cached_property
    def _index(self) -> np.ndarray:
        """Row-major vertex index of every box offset, shaped like the box."""
        return np.arange(self.vertex_count, dtype=np.int64).reshape(self.extents)

    @cached_property
    def edge_count(self) -> int:
        return sum(self.vertex_count // e * (e - 1) for e in self.extents)

    def contains(self, v: Sequence[int]) -> bool:
        return all(l <= c <= h for c, l, h in zip(v, self.lo, self.hi))

    def vertex_index(self, v: Sequence[int]) -> int:
        if not self.contains(v):
            raise ValueError(f"vertex {tuple(v)} outside the box")
        return self._index.item(tuple(c - l for c, l in zip(v, self.lo)))

    def vertex_coords(self, idx: int) -> tuple[int, ...]:
        return tuple(l + int(c) for l, c in zip(self.lo, np.unravel_index(idx, self.extents)))

    @cached_property
    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Tail and head vertex indices per edge, in edge-index order: per
        axis, the index array without its last (tails) or first (heads)
        layer along that axis, raveled row-major."""
        axes = range(self.d)
        return (np.concatenate([np.delete(self._index, -1, a).ravel() for a in axes]),
                np.concatenate([np.delete(self._index, 0, a).ravel() for a in axes]))

    @property
    def edge_tails(self) -> np.ndarray:
        return self._edge_arrays[0]

    @property
    def edge_heads(self) -> np.ndarray:
        return self._edge_arrays[1]

    def _edges_between(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Indices of the edges joining the adjacent vertices a[i] and b[i]."""
        indptr, indices, perm = self._csr_template
        # A row holds at most 2d neighbours: look at that many slots from the
        # row start, clipped to the row's last slot.
        slots = np.minimum(indptr[a][:, None] + np.arange(2 * self.d),
                           indptr[a + 1][:, None] - 1)
        hit = indices[slots] == b[:, None]
        if not hit.any(axis=1).all():
            raise ValueError("vertices are not adjacent")
        return perm[slots[np.arange(len(slots)), hit.argmax(axis=1)]]

    def edge_index(self, v: Sequence[int], axis: int) -> int:
        """Index of the positive-direction edge leaving v along axis."""
        if not (0 <= axis < self.d):
            raise ValueError("axis out of range")
        if not self.contains(v) or v[axis] + 1 > self.hi[axis]:
            raise ValueError("edge endpoint outside the box")
        head = list(v)
        head[axis] += 1
        a, b = self.vertex_index(v), self.vertex_index(head)
        return int(self._edges_between(np.array([a]), np.array([b]))[0])

    def edge_endpoints(self, e: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        tails, heads = self._edge_arrays
        return self.vertex_coords(int(tails[e])), self.vertex_coords(int(heads[e]))

    # Unused by the package: kept only for the benchmark's set-up (see ROADMAP).
    @cached_property
    def _adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        tails, heads = self._edge_arrays
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for e in range(self.edge_count):
            t, h = int(tails[e]), int(heads[e])
            adj[t].append((h, e))
            adj[h].append((t, e))
        return tuple(tuple(x) for x in adj)

    @cached_property
    def _csr_template(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, perm) of the symmetric adjacency, rows sorted:
        each edge fills one data slot per direction, and perm maps data slots
        to edge indices.  csgraph solves it as a directed graph, which needs
        no transpose per solve."""
        tails, heads = self._edge_arrays
        rows = np.concatenate([tails, heads])
        cols = np.concatenate([heads, tails])
        slots = np.lexsort((cols, rows))
        indptr = np.zeros(self.vertex_count + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=self.vertex_count), out=indptr[1:])
        return indptr, cols[slots].astype(np.int32), slots % self.edge_count

    @cached_property
    def _csr_matrix(self) -> csr_matrix:
        """The template as a matrix whose data :func:`_solve` refills per
        solve, so the constructor's checks run once per grid."""
        indptr, indices, _ = self._csr_template
        return csr_matrix((np.zeros(indices.size), indices, indptr),
                          shape=(self.vertex_count, self.vertex_count))


# A seed as provenance records it: an int, or a SeedSequence's
# (entropy, spawn_key), from which SeedSequence(entropy, spawn_key=spawn_key)
# rebuilds it.
SeedTag = Union[int, tuple[Union[int, tuple[int, ...]], tuple[int, ...]]]
_DEFAULT_POOL_SIZE = np.random.SeedSequence(0).pool_size


@dataclass
class WeightField:
    """Edge weights on a grid, with sampling provenance when drawn from a law."""
    grid: GridSpec
    weights: np.ndarray
    provenance: Optional[tuple[str, SeedTag]] = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.grid.edge_count,):
            raise ValueError("weight array length must equal the edge count")
        # min() is NaN when any weight is, and fails the comparison.
        if not (self.weights.min() >= 0.0 and np.isfinite(self.weights.max())):
            raise ValueError("weights must be finite and nonnegative")
        # Read-only after validation; a view, so the caller's array stays writable.
        self.weights = self.weights.view()
        self.weights.flags.writeable = False


def field_from_distribution(grid: GridSpec, dist: EdgeDistribution | str,
                            seed) -> WeightField:
    """Sample one weight configuration; reproducible from (spec, seed).

    ``seed`` is an int or a SeedSequence with the default pool size, the
    seeds that provenance can record in full.
    """
    tag = _seed_tag(seed)
    if isinstance(dist, str):
        dist = parse_distribution(dist)
    return WeightField(grid=grid, weights=sample(dist, seed, grid.edge_count),
                       provenance=(dist.name, tag))


def _seed_tag(seed) -> SeedTag:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    if isinstance(seed, np.random.SeedSequence) and seed.pool_size == _DEFAULT_POOL_SIZE:
        ent = seed.entropy
        ent = int(ent) if isinstance(ent, (int, np.integer)) else tuple(int(x) for x in ent)
        return ent, tuple(int(k) for k in seed.spawn_key)
    raise TypeError("seed must be an int or a SeedSequence with the default pool size")


@dataclass(frozen=True)
class PassageResult:
    distance: float
    geodesic_edges: tuple[int, ...]
    source: tuple[int, ...]
    target: tuple[int, ...]


def _solve(grid: GridSpec, weights: np.ndarray, source: int, **options):
    """csgraph Dijkstra from vertex index ``source`` under edge ``weights``
    (unchecked; ``inf`` is an absent edge), with csgraph's ``limit`` and
    ``return_predecessors`` passed through.  Every solve in the package runs
    here, on the grid's one matrix, so solves must not interleave.

    A label is the minimum over paths of the left-fold float sum of their
    weights, so it never decreases when a weight grows, and ``limit=L``
    leaves every label at most L bit-identical and sets the rest to ``inf``
    (module docstring, fact 1)."""
    mat = grid._csr_matrix
    # perm is in range; mode="raise" would gather through a buffer copy.
    np.take(weights, grid._csr_template[2], out=mat.data, mode="wrap")
    return _csgraph_dijkstra(mat, directed=True, indices=source, **options)


def _prune(grid: GridSpec, d_src: np.ndarray, d_dst: np.ndarray,
           weights: np.ndarray, bound: float) -> np.ndarray:
    """A copy of ``weights`` with ``inf`` off the edges kept by the keep test
    of fact 2 (module docstring) against ``bound``."""
    tails, heads = grid._edge_arrays
    through = np.minimum(d_src[tails] + d_dst[heads], d_src[heads] + d_dst[tails]) + weights
    return np.where(through <= bound, weights, np.inf)


def _tree_edges(grid: GridSpec, pred: np.ndarray, source: int, target: int) -> np.ndarray:
    """Edges of csgraph's predecessor tree path, from target back to source.

    This is the geodesic of every passage query (module docstring), and the
    bound path of the pruned sweep replicate."""
    chain = [target]
    for _ in range(grid.vertex_count):
        if chain[-1] == source:
            break
        chain.append(int(pred[chain[-1]]))
    else:
        raise RuntimeError("predecessor walk did not reach the source")
    chain = np.array(chain)
    return grid._edges_between(chain[:-1], chain[1:])


def distances_from(field: WeightField, u: Sequence[int]) -> np.ndarray:
    """All shortest-path distances (csgraph labels) from u."""
    return _solve(field.grid, field.weights, field.grid.vertex_index(u))


def _passage(field: WeightField, u: Sequence[int],
             v: Sequence[int]) -> tuple[PassageResult, np.ndarray]:
    """The passage result from u to v and the labels from u it was read from."""
    grid = field.grid
    ui = grid.vertex_index(u)
    vi = grid.vertex_index(v)
    ds, pred = _solve(grid, field.weights, ui, return_predecessors=True)
    edges = _tree_edges(grid, pred, ui, vi)[::-1]
    distance = float(ds[vi])
    if abs(float(field.weights[edges].sum()) - distance) > 1e-9:
        raise RuntimeError("geodesic weight sum disagrees with the label")
    return PassageResult(distance=distance, geodesic_edges=tuple(edges.tolist()),
                         source=tuple(u), target=tuple(v)), ds


def passage_time(field: WeightField, u: Sequence[int], v: Sequence[int]) -> PassageResult:
    """Exact passage time and geodesic between two vertices of the box."""
    return _passage(field, u, v)[0]


def _assert_unique_geodesic(field: WeightField, res: PassageResult,
                            ds: np.ndarray) -> None:
    """Refuse when an off-geodesic edge lies on a path within tolerance of
    optimal; ``ds`` are the labels from the source."""
    grid = field.grid
    tol = TIE_TOL * max(1.0, res.distance)
    # A path through an edge folds to at least its label from the target, so
    # an edge past this limit (fact 1) has slack above tol either way.
    dt = _solve(grid, field.weights, grid.vertex_index(res.target),
                limit=(res.distance + tol) * (1.0 + MARGIN))
    tails, heads = grid._edge_arrays
    through = np.minimum(ds[tails] + field.weights + dt[heads],
                         ds[heads] + field.weights + dt[tails])
    slack = through - res.distance
    off_path = np.ones(grid.edge_count, dtype=bool)
    off_path[list(res.geodesic_edges)] = False
    if np.any(slack[off_path] <= tol):
        raise GeodesicTieError("a second optimal path exists within tolerance")


def edge_derivative(field: WeightField, v: Sequence[int], e: int) -> int:
    """1 if edge e lies on the unique geodesic from the origin to v, else 0.

    Raises :class:`GeodesicTieError` when geodesic uniqueness cannot be
    certified (e.g. degenerate equal-weight fields).
    """
    grid = field.grid
    if not (0 <= e < grid.edge_count):
        raise ValueError("edge index out of range")
    origin = tuple(0 for _ in range(grid.d))
    res, ds = _passage(field, origin, v)
    _assert_unique_geodesic(field, res, ds)
    return 1 if e in res.geodesic_edges else 0


@dataclass(frozen=True)
class ResponseCurve:
    ys: np.ndarray
    distances: np.ndarray
    intercept: float
    plateau: float
    breakpoint: float
    max_abs_deviation: float


def single_edge_response(field: WeightField, v: Sequence[int], e: int,
                         y_grid: Sequence[float]) -> ResponseCurve:
    """Passage time from the origin to v as a function of one edge weight.

    The exact curve is min(g(0) + y, C): linear with unit slope until the
    edge leaves every geodesic, then flat.  The fit residual is the check;
    the breakpoint estimate is C - g(0).
    """
    grid = field.grid
    ys = np.asarray(y_grid, dtype=float)
    if ys.ndim != 1 or ys.size < 2 or np.any(np.diff(ys) <= 0):
        raise ValueError("y_grid must be strictly increasing")
    if not np.all(np.isfinite(ys)):
        raise ValueError("y_grid must be finite")
    if ys[0] != 0.0:
        raise ValueError("y_grid must start at 0")
    if not (0 <= e < grid.edge_count):
        raise ValueError("edge index out of range")
    origin = grid.vertex_index((0,) * grid.d)
    vi = grid.vertex_index(v)
    # Every y is finite and nonnegative (checked above), so each modified
    # copy of the validated weights is itself a valid field.  Labels only
    # rise with y (fact 1): every label below is at most the top one, and
    # the curve is flat from the first point that reaches it.
    weights = field.weights.copy()
    weights[e] = ys[-1]
    top = _solve(grid, weights, origin)[vi]
    bound = top * (1.0 + MARGIN)
    weights[e] = 0.0
    d0 = _solve(grid, weights, origin, limit=bound)
    out = np.full_like(ys, top)
    out[0] = d0[vi]
    if out[0] < top and ys.size > 2:
        # The y = 0 weights bound every y's from below (fact 2).
        pruned = _prune(grid, d0, _solve(grid, weights, vi, limit=bound), weights, bound)
        for j in range(1, ys.size - 1):
            pruned[e] = ys[j]
            out[j] = _solve(grid, pruned, origin, limit=bound)[vi]
            if out[j] == top:
                break
    intercept = float(out[0])
    plateau = float(out[-1])
    fitted = np.minimum(intercept + ys, plateau)
    dev = float(np.max(np.abs(out - fitted)))
    return ResponseCurve(ys=ys, distances=out, intercept=intercept,
                         plateau=plateau, breakpoint=plateau - intercept,
                         max_abs_deviation=dev)


def averaged_passage_time(a, field: WeightField, v: Sequence[int], m: int) -> float:
    """Passage time between the randomly shifted endpoints z(a) and v + z(a)."""
    from .cube_averaging import random_vertex

    grid = field.grid
    mat = np.asarray(a)
    if mat.ndim != 2 or mat.shape != (grid.d, m * m):
        raise ValueError(f"bit matrix must have shape ({grid.d}, {m * m})")
    z = random_vertex(mat, grid.d)
    shifted = tuple(c + zc for c, zc in zip(v, z))
    if not grid.contains(z) or not grid.contains(shifted):
        raise ValueError("box too small for the shifted endpoints")
    return float(distances_from(field, z)[grid.vertex_index(shifted)])
