"""Finite-box first passage percolation: lattice, weight fields, exact paths.

Vertices live in an axis-aligned integer box with inclusive bounds and are
indexed row-major over (coord - lo).  Edges are the positive-direction bonds,
grouped by axis: edge (v, axis) exists when v + e_axis stays in the box, and
its index is the axis offset plus the row-major index of v over the box with
that axis shortened by one.  This indexing is part of the reproducibility
contract: a weight field is a pure function of (distribution spec, seed).

Distances are csgraph Dijkstra labels (:func:`distances_from`).  A geodesic
is read back from them: from the target, the walk steps over the tight edge
(far label + weight == near label, exact because csgraph adds the same
floats) of smallest index whose far label is strictly smaller, so exact ties
resolve to the smaller edge index (a measure-zero event for continuous
weights).  Where zero or absorbed weights leave no such edge, it follows
csgraph's predecessor tree.  Derivative-sensitive operations additionally
*detect* near-ties between distinct geodesics and refuse, signalling the
caller to redraw the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .edge_distributions import EdgeDistribution, parse_distribution, sample

TIE_TOL = 1e-12


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

    @property
    def extents(self) -> tuple[int, ...]:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def vertex_count(self) -> int:
        return int(np.prod(self.extents))

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        strides = [1] * self.d
        for i in range(self.d - 2, -1, -1):
            strides[i] = strides[i + 1] * self.extents[i + 1]
        return tuple(strides)

    @cached_property
    def _axis_offsets(self) -> tuple[int, ...]:
        offsets = []
        acc = 0
        for a in range(self.d):
            offsets.append(acc)
            ext = list(self.extents)
            ext[a] -= 1
            acc += int(np.prod(ext))
        return tuple(offsets)

    @property
    def edge_count(self) -> int:
        total = 0
        for a in range(self.d):
            ext = list(self.extents)
            ext[a] -= 1
            total += int(np.prod(ext))
        return total

    def contains(self, v: Sequence[int]) -> bool:
        return all(l <= c <= h for c, l, h in zip(v, self.lo, self.hi))

    def vertex_index(self, v: Sequence[int]) -> int:
        if not self.contains(v):
            raise ValueError(f"vertex {tuple(v)} outside the box")
        return sum((c - l) * s for c, l, s in zip(v, self.lo, self._strides))

    def vertex_coords(self, idx: int) -> tuple[int, ...]:
        coords = []
        for l, s in zip(self.lo, self._strides):
            coords.append(l + idx // s)
            idx %= s
        return tuple(coords)

    @cached_property
    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Tail and head vertex indices per edge, in edge-index order."""
        tails = np.empty(self.edge_count, dtype=np.int64)
        heads = np.empty(self.edge_count, dtype=np.int64)
        grids = np.meshgrid(*[np.arange(e) for e in self.extents], indexing="ij")
        flat = np.stack([g.ravel() for g in grids], axis=-1)  # offsets, row-major
        strides = np.array(self._strides)
        vidx = flat @ strides
        for a in range(self.d):
            mask = flat[:, a] < self.extents[a] - 1
            t = vidx[mask]
            off = self._axis_offsets[a]
            tails[off:off + t.size] = t
            heads[off:off + t.size] = t + strides[a]
        return tails, heads

    @property
    def edge_tails(self) -> np.ndarray:
        return self._edge_arrays[0]

    @property
    def edge_heads(self) -> np.ndarray:
        return self._edge_arrays[1]

    def edge_index(self, v: Sequence[int], axis: int) -> int:
        """Index of the positive-direction edge leaving v along axis."""
        if not (0 <= axis < self.d):
            raise ValueError("axis out of range")
        if not self.contains(v) or v[axis] + 1 > self.hi[axis]:
            raise ValueError("edge endpoint outside the box")
        ext = list(self.extents)
        ext[axis] -= 1
        idx = 0
        for c, l, e in zip(v, self.lo, ext):
            idx = idx * e + (c - l)
        return self._axis_offsets[axis] + idx

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
        """(indptr, indices, perm): perm maps csr data slots to edge indices."""
        tails, heads = self._edge_arrays
        coo = csr_matrix(
            (np.arange(self.edge_count, dtype=float) + 1.0, (tails, heads)),
            shape=(self.vertex_count, self.vertex_count))
        perm = coo.data.astype(np.int64) - 1
        return coo.indptr, coo.indices, perm


@dataclass
class WeightField:
    """Edge weights on a grid, with sampling provenance when drawn from a law."""
    grid: GridSpec
    weights: np.ndarray
    provenance: Optional[tuple[str, int]] = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.grid.edge_count,):
            raise ValueError("weight array length must equal the edge count")
        if np.any(self.weights < 0) or not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite and nonnegative")


def field_from_distribution(grid: GridSpec, dist: EdgeDistribution | str,
                            seed) -> WeightField:
    """Sample one weight configuration; reproducible from (spec, seed)."""
    if isinstance(dist, str):
        dist = parse_distribution(dist)
    weights = sample(dist, seed, grid.edge_count)
    tag = seed if isinstance(seed, int) else -1
    return WeightField(grid=grid, weights=weights, provenance=(dist.name, tag))


@dataclass(frozen=True)
class PassageResult:
    distance: float
    geodesic_edges: tuple[int, ...]
    source: tuple[int, ...]
    target: tuple[int, ...]


def _csr(field: WeightField) -> csr_matrix:
    grid = field.grid
    indptr, indices, perm = grid._csr_template
    return csr_matrix((field.weights[perm], indices, indptr),
                      shape=(grid.vertex_count, grid.vertex_count))


def distances_from(field: WeightField, u: Sequence[int]) -> np.ndarray:
    """All shortest-path distances (csgraph labels) from u."""
    return _csgraph_dijkstra(_csr(field), directed=False,
                             indices=field.grid.vertex_index(u))


def _passage(field: WeightField, u: Sequence[int],
             v: Sequence[int]) -> tuple[PassageResult, np.ndarray]:
    """The passage result from u to v and the labels from u it was read from."""
    grid = field.grid
    ui = grid.vertex_index(u)
    vi = grid.vertex_index(v)
    ds = distances_from(field, u)
    tails, heads = grid._edge_arrays
    w = field.weights
    # into[x]: smallest-index tight edge from a strictly lower label into x.
    missing = grid.edge_count
    into = np.full(grid.vertex_count, missing, dtype=np.int64)
    for near, far in ((heads, tails), (tails, heads)):
        tight = np.flatnonzero((ds[far] + w == ds[near]) & (ds[far] < ds[near]))
        np.minimum.at(into, near[tight], tight)
    # Labels never increase along the walk and the fallback steps follow a
    # tree, so the walk cannot cycle.
    pred = None
    edges = []
    cur = vi
    while cur != ui:
        e = int(into[cur])
        if e == missing:  # zero or absorbed weights: follow csgraph's tree
            if pred is None:
                pred = _csgraph_dijkstra(_csr(field), directed=False, indices=ui,
                                         return_predecessors=True)[1]
            p = int(pred[cur])
            e = grid.edge_index(grid.vertex_coords(min(p, cur)),
                                grid._strides.index(abs(p - cur)))
        edges.append(e)
        cur = int(tails[e] + heads[e]) - cur
    distance = float(ds[vi])
    if abs(float(w[edges].sum()) - distance) > 1e-9:
        raise RuntimeError("geodesic weight sum disagrees with the label")
    return PassageResult(distance=distance, geodesic_edges=tuple(reversed(edges)),
                         source=tuple(u), target=tuple(v)), ds


def passage_time(field: WeightField, u: Sequence[int], v: Sequence[int]) -> PassageResult:
    """Exact passage time and geodesic between two vertices of the box."""
    return _passage(field, u, v)[0]


def _assert_unique_geodesic(field: WeightField, res: PassageResult,
                            ds: np.ndarray) -> None:
    """Refuse when an off-geodesic edge lies on a path within tolerance of
    optimal; ``ds`` are the labels from the source."""
    grid = field.grid
    dt = distances_from(field, res.target)
    tails, heads = grid._edge_arrays
    through = np.minimum(ds[tails] + field.weights + dt[heads],
                         ds[heads] + field.weights + dt[tails])
    slack = through - res.distance
    off_path = np.ones(grid.edge_count, dtype=bool)
    off_path[list(res.geodesic_edges)] = False
    tol = TIE_TOL * max(1.0, res.distance)
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
    origin = tuple(0 for _ in range(grid.d))
    vi = grid.vertex_index(v)
    work = WeightField(grid=grid, weights=field.weights.copy())
    out = np.empty_like(ys)
    for j, y in enumerate(ys):
        work.weights[e] = y
        out[j] = distances_from(work, origin)[vi]
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
