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
(:func:`_tree_path`).  For continuous weights it is the unique geodesic
almost surely.  On exact ties it is whichever optimal path the tree holds,
which is deterministic for a given field and scipy version.
Derivative-sensitive operations additionally *detect* near-ties between
distinct geodesics (fact 3) and refuse, signalling a redraw of the field.

Two facts carry every bounded solve in the package, and a third the tie check.

1. *Labels.*  A csgraph label is the minimum, over paths, of the left-fold
   float sum of the path's weights: Dijkstra settles labels in order, and
   float addition of nonnegative numbers is monotone.  So a label never
   decreases when one weight grows.  A solve with ``limit=L`` returns the
   same bits at every vertex whose label is at most L, and ``inf`` at the
   rest: no prefix of a path folds to more than the whole path.  Every
   point-to-point query rests on this (:func:`_bounded_solve`): the label X
   at t of a sub-box around s and t is a minimum fold over paths of the box
   too, so X >= T, and the box solve capped at any L >= X has T's bits at t.
   The capped predecessor tree is csgraph's full tree at every labelled
   vertex, exact ties included (checked on tie-heavy fields in the tests),
   so the geodesic read from it is the full solve's.
2. *Pruning* (:func:`_prune`).  Let weights lo be each at most the
   weight w of its edge, d_s labels from s under lo (a solve with
   ``limit=B`` will do), T the label at t from s under w, and B >= T.  An
   edge (a, b) can lie on a path of lo-length at most B only inside the
   ellipse min(d_s[a] + d_t[b], d_s[b] + d_t[a]) + lo_e <= B, with d_t the
   distances from t under lo.  If the kept edges include those of a
   float-optimal path P* from s to t, the label at t from s under w on the
   kept edges alone (``inf`` elsewhere, ``limit=B``) is T, bit for bit: it
   is the minimum fold over kept paths, at most T through P* and at least T
   because kept paths are paths of the box.  B = (1 + MARGIN) X is at least
   T when X is, or when X is any float sum of w along a path of k edges from
   s to t: that sum and the path's fold each lie within a factor
   (1 + k eps) of its exact sum (eps = 2^-53; sums in the subnormal range
   are exact), and MARGIN = 1e-9 dwarfs 2 k eps, about 1e-13 here.
   *Goal-directed search.*  :func:`_prune` finds d_t only inside the
   ellipse, by a search from t under the reduced costs r(x->y) =
   fl(fl(lo_e + d_s[y]) - d_s[x]) of each arc: Johnson's reweighting by the
   potential d_s, as in A* and ALT.  Exactly, r sums along a walk from t to
   v to the walk's lo-length plus d_s[v] - d_s[t], so the search's labels
   are rho = d_t + d_s - d_s[t], and the ellipse is rho <= B - d_s[t].
   The search stops at lam = fl(B - d_s[t]) + sigma, sigma = 8 V eps B
   over V vertices, and keeps edge e when fl(rho[x] + r(x->y)) <= lam for
   one of its two arcs.  What it labels lies within a few V eps B of the
   ellipse.
   *r >= 0 exactly.*  Dijkstra relaxes the arcs from every labelled y to
   its neighbours x not yet settled (a settled x has d_s[x] <= d_s[y]), so
   a labelled x has d_s[x] <= fl(d_s[y] + lo_e), or d_s[x] <= limit <
   fl(d_s[y] + lo_e): capped solves included.  The float difference of two
   ordered nonnegative numbers is nonnegative.  An arc with an unlabelled
   end (d_s = inf) costs inf, never NaN.
   *Every edge of P* is kept* when B >= T and V eps <= 0.01, with no
   further bound on V.  Let t = p_k, ..., p_0 = s walk P* backwards, k < V,
   and W be the exact sum of w along P*.  (a) Monotone rounding gives
   d_s[p_j] <= the fold of w along P* to p_j, which is at most T <= B (so
   p_j is labelled under a cap of B) and at most 1.02 W.
   (b) With a = fl(lo_i + d_s[p_(i-1)]), r_i = fl(a - d_s[p_i]) <=
   lo_i + d_s[p_(i-1)] - d_s[p_i] + 2.01 eps (lo_i + d_s[p_(i-1)]), and
   the sum telescopes (d_s[s] = 0): sum r_i <= W - d_s[t] + 2.1 V eps W.
   (c) The fold F of r_k, ..., r_1 exceeds their sum by at most a factor
   1 + 1.02 k eps: F <= W - d_s[t] + 3.2 V eps W.  (d) One rounding in
   sigma and two in lam: lam >= B - d_s[t] + 7 V eps B, and B >= T >=
   (1 - 1.02 V eps) W, so lam >= W - d_s[t] + 5.7 V eps W >= F.  Every
   prefix fold of r along the walk is at most F <= lam, so the search
   labels each p_i at most its prefix fold (fact 1), and
   fl(rho[p_i] + r_i) is at most the next prefix fold: edge i is kept.
3. *Reduced costs* (:func:`edge_derivative`).  Edge e entering b from a
   has reduced cost d_s[a] + w_e - d_s[b].  Exactly, these are nonnegative
   and sum along a walk from s to t to its excess over T.  So a walk from s
   to t through an edge off the geodesic g comes within tol of T iff an
   edge off g entering a vertex of g costs at most tol: the walk's last
   edge off g enters g; conversely, the tree path to a, then e, then g from
   b has excess e's reduced cost.  In float fl(d_s[a] + w_e) >= d_s[b]
   exactly (fact 1), so no computed reduced cost is negative.
   *Capped labels.*  The tie check reads the labels of the capped solve,
   whose limit L = X + 2 TIE_TOL max(1, X) in float.  Every vertex b of g
   has d_s[b] <= T <= X, and tol = TIE_TOL max(1, T) is at most the float
   TIE_TOL max(1, X); rounding the sum costs at most half an ulp of L,
   about 1e-16 L against tol >= 1e-12 L.  So L - d_s[b] > 1.9 tol.  An
   edge whose tail a lies past the limit (label ``inf`` here) has, in the
   full solve, fl(d_s[a] + w_e) >= d_s[a] > L, and by monotone rounding a
   computed reduced cost above tol: no tie, in either solve.  At every
   other edge the two solves share d_s[a] bit for bit (fact 1), so the
   verdicts and their messages do not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .cube_averaging import random_vertex
from .edge_distributions import EdgeDistribution, parse_distribution, sample

TIE_TOL = 1e-12
# Relative margin of a bounded solve's limit over its label (module docstring, fact 2).
MARGIN = 1e-9
# Half-width of a point-to-point query's sub-box around the span of its two
# endpoints, on every axis but the one along which they lie farthest apart.
SUB_PAD = 4
# A grid's memo of query sub-boxes starts over once it holds this many
# (s, t) pairs, a few hundred bytes each, or its sub-grids hold more edges
# than this many copies of the grid, about 56 bytes per edge.
_MEMO_PAIRS = 4096
_MEMO_BOXES = 4


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
        return self._edge_blocks[-1][1]

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

    @cached_property
    def _edge_blocks(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """Per axis, the (start, stop) of its edges in edge-index order and
        their shape: the box shortened by one along the axis, row-major."""
        blocks, start = [], 0
        for k, e in enumerate(self.extents):
            stop = start + self.vertex_count // e * (e - 1)
            blocks.append((start, stop, self.extents[:k] + (e - 1,) + self.extents[k + 1:]))
            start = stop
        return tuple(blocks)

    @property
    def edge_tails(self) -> np.ndarray:
        return self._edge_arrays[0]

    @property
    def edge_heads(self) -> np.ndarray:
        return self._edge_arrays[1]

    def _row_slots(self, a: np.ndarray) -> np.ndarray:
        """Template data slots of the rows a[i], 2d each; past a row's end, its last."""
        indptr = self._csr_template[0]
        return np.minimum(indptr[a][:, None] + np.arange(2 * self.d), indptr[a + 1][:, None] - 1)

    def _edges_between(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Indices of the edges joining the adjacent vertices a[i] and b[i]."""
        _, indices, perm = self._csr_template
        slots = self._row_slots(a)
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
    def _slot_rows(self) -> np.ndarray:
        """The template row of each data slot (the tail of its arc), as int32."""
        indptr = self._csr_template[0]
        return np.repeat(np.arange(self.vertex_count, dtype=np.int32), np.diff(indptr))

    @cached_property
    def _sub_memo(self) -> tuple[dict, dict]:
        """The memo of :func:`_sub_box` on this grid: sub-grids by extents,
        and entries by (s, t) vertex index pair."""
        return {}, {}

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


def _solve(grid: GridSpec, weights: np.ndarray, source: int,
           potential: Optional[np.ndarray] = None, **options):
    """csgraph Dijkstra from vertex index ``source`` under edge ``weights``
    (unchecked; ``inf`` is an absent edge), with csgraph's ``limit`` and
    ``return_predecessors`` passed through.  Every solve in the package runs
    here, on the grid's one matrix, so solves must not interleave.  Labels
    are minimum left folds, and ``limit`` keeps their bits (fact 1).  Given
    a ``potential`` p, labels under ``weights``, the arc x->y of edge e
    costs fl(fl(w_e + p[y]) - p[x]) instead, ``inf`` when p[x] or p[y] is,
    and these reduced costs stay in the matrix's data (fact 2)."""
    mat = grid._csr_matrix
    _, indices, perm = grid._csr_template
    # perm is in range; mode="raise" would gather through a buffer copy.
    np.take(weights, perm, out=mat.data, mode="wrap")
    if potential is not None:
        # -inf at an unlabelled tail makes inf - -inf = inf, never NaN.
        mat.data += np.take(potential, indices)
        mat.data -= np.take(np.where(potential == np.inf, -np.inf, potential), grid._slot_rows)
    return _csgraph_dijkstra(mat, directed=True, indices=source, **options)


def _sub_box(grid: GridSpec, s: int, t: int) -> tuple[GridSpec, tuple, int, int]:
    """The sub-box of the query from vertex index s to t (s != t): its grid,
    its edge picks (read by :func:`_sub_weights`), and the sub-grid indices
    of s and t.  The sub-box spans s and t, widened by SUB_PAD on every axis
    but the first along which they lie farthest apart, and clipped to the
    box; for 0 and n*e1 it is the strip [0, n] x [-SUB_PAD, SUB_PAD]^(d-1).
    One sub-grid serves every sub-box of a shape, and the grid itself a
    sub-box that is the whole box.  Sub-grid edge order is the box's
    restricted to the sub-box, so each axis's sub-box edges are one basic
    slice of that axis's edge block."""
    shapes, pairs = grid._sub_memo
    hit = pairs.get((s, t))
    if hit is not None:
        return hit
    # Offsets of s and t from the box's lower corner.
    a = [int(c) for c in np.unravel_index(s, grid.extents)]
    b = [int(c) for c in np.unravel_index(t, grid.extents)]
    gaps = [abs(x - y) for x, y in zip(a, b)]
    span = gaps.index(max(gaps))
    pad = [0 if k == span else SUB_PAD for k in range(grid.d)]
    lo = [max(min(x, y) - p, 0) for x, y, p in zip(a, b, pad)]
    hi = [min(max(x, y) + p, e - 1) for x, y, p, e in zip(a, b, pad, grid.extents)]
    extents = tuple(h - l + 1 for l, h in zip(lo, hi))
    if (len(pairs) == _MEMO_PAIRS
            or sum(g.edge_count for g in shapes.values()) > _MEMO_BOXES * grid.edge_count):
        shapes.clear()
        pairs.clear()
    sub = grid if extents == grid.extents else shapes.get(extents)
    if sub is None:
        sub = shapes[extents] = GridSpec(lo=(0,) * grid.d, hi=tuple(e - 1 for e in extents))
        sub._csr_matrix  # filled here, not in the first solve
    picks = tuple((start, stop, shape,
                   tuple(slice(l, h + (j != k)) for j, (l, h) in enumerate(zip(lo, hi))))
                  for k, (start, stop, shape) in enumerate(grid._edge_blocks))
    pairs[s, t] = hit = (sub, picks, sub._index.item(tuple(x - l for x, l in zip(a, lo))),
                         sub._index.item(tuple(y - l for y, l in zip(b, lo))))
    return hit


def _sub_weights(weights: np.ndarray, picks: tuple) -> np.ndarray:
    """The weights of a sub-box's edges, in sub-grid edge order, from the
    edge picks of :func:`_sub_box`."""
    return np.concatenate([weights[start:stop].reshape(shape)[region]
                           for start, stop, shape, region in picks], axis=None)


def _bounded_solve(grid: GridSpec, weights: np.ndarray, s: int, t: int, **options):
    """The solve from vertex index s that every query from s to t reads:
    the box under ``weights`` with ``limit`` the label X at t of the sub-box
    (:func:`_sub_box`), plus fact 3's tie margin; X = 0 when s == t.  Its
    label at t is the full solve's, bit for bit (module docstring, fact 1).
    When the sub-box is the whole box, its one solve is the full solve,
    without a limit.  ``options`` pass through to :func:`_solve`."""
    cap = 0.0
    if s != t:
        sub, picks, a, b = _sub_box(grid, s, t)
        if sub is grid:
            return _solve(grid, weights, s, **options)
        cap = _solve(sub, _sub_weights(weights, picks), a)[b]
    return _solve(grid, weights, s, limit=cap + 2.0 * TIE_TOL * max(1.0, cap), **options)


def _prune(grid: GridSpec, d_src: np.ndarray, target: int,
           weights: np.ndarray, bound: float) -> np.ndarray:
    """A copy of ``weights`` with ``inf`` off the edges kept by the
    goal-directed search of fact 2 (module docstring) against ``bound``.
    ``d_src`` are labels from the source under ``weights``, capped at
    ``bound`` or not.  The search from vertex index ``target`` runs here,
    under the reduced costs by ``d_src``, and labels only the ellipse
    d_s + d_t <= bound: 1-3 % of the box in the sweeps.  The keep test
    reads the reduced costs that the solve left in the matrix, at the arcs
    out of labelled vertices alone."""
    lam = (bound - d_src[target]) + 8.0 * grid.vertex_count * 2.0 ** -53 * bound
    rho = _solve(grid, weights, target, potential=d_src, limit=lam)
    at = np.flatnonzero(rho <= lam)
    slots = grid._row_slots(at)
    keep = grid._csr_template[2][slots[rho[at, None] + grid._csr_matrix.data[slots] <= lam]]
    out = np.full_like(weights, np.inf)
    out[keep] = weights[keep]
    return out


def _tree_path(grid: GridSpec, pred: np.ndarray, source: int, target: int) -> np.ndarray:
    """Vertices of csgraph's predecessor tree path, from target back to source:
    the geodesic of every passage query and the pruned replicate's bound path."""
    chain = [target]
    for _ in range(grid.vertex_count):
        if chain[-1] == source:
            return np.array(chain)
        chain.append(int(pred[chain[-1]]))
    raise RuntimeError("predecessor walk did not reach the source")


def distances_from(field: WeightField, u: Sequence[int]) -> np.ndarray:
    """All shortest-path distances (csgraph labels) from u: the one full
    solve of the package."""
    return _solve(field.grid, field.weights, field.grid.vertex_index(u))


def _passage(field: WeightField, u: Sequence[int],
             v: Sequence[int]) -> tuple[PassageResult, np.ndarray, np.ndarray]:
    """The passage result from u to v, the labels from u and the geodesic's
    vertices from u.  The labels are capped (:func:`_bounded_solve`) and
    ``inf`` past the cap, unless the query's sub-box is the whole box.
    Dijkstra sets a label to its tree parent's plus the edge weight, so the
    label at v must be the left fold of the path's weights."""
    grid = field.grid
    ui, vi = grid.vertex_index(u), grid.vertex_index(v)
    ds, pred = _bounded_solve(grid, field.weights, ui, vi, return_predecessors=True)
    chain = _tree_path(grid, pred, ui, vi)[::-1]
    edges = grid._edges_between(chain[:-1], chain[1:])
    fold = np.add.accumulate(field.weights[edges])
    if (fold[-1] if edges.size else 0.0) != ds[vi]:
        raise RuntimeError("geodesic weight fold disagrees with the label")
    return PassageResult(distance=float(ds[vi]), geodesic_edges=tuple(edges.tolist()),
                         source=tuple(u), target=tuple(v)), ds, chain


def passage_time(field: WeightField, u: Sequence[int], v: Sequence[int]) -> PassageResult:
    """Exact passage time and geodesic between two vertices of the box."""
    return _passage(field, u, v)[0]


def edge_derivative(field: WeightField, v: Sequence[int], e: int) -> int:
    """1 if edge e lies on the unique geodesic from the origin to v, else 0.

    The passage solve's capped labels also certify uniqueness (module
    docstring, fact 3).
    Raises :class:`GeodesicTieError`, naming the edge, when an edge off the
    geodesic enters it with reduced cost at most tol = TIE_TOL * max(1, T).
    """
    grid = field.grid
    if not (0 <= e < grid.edge_count):
        raise ValueError("edge index out of range")
    res, ds, at = _passage(field, (0,) * grid.d, v)
    tol = TIE_TOL * max(1.0, res.distance)
    _, indices, perm = grid._csr_template
    slots = grid._row_slots(at)
    edges = perm[slots]
    reduced = (ds[indices[slots]] + field.weights[edges]) - ds[at][:, None]
    # Vertex at[i] of the geodesic meets its edges i - 1 and i, if they exist.
    pad = np.concatenate(([-1], res.geodesic_edges, [-1]))
    near = np.argwhere((reduced <= tol) & (edges != pad[:-1, None]) & (edges != pad[1:, None]))
    if near.size:
        i, j = near[0]
        raise GeodesicTieError(f"edge {edges[i, j]} enters the geodesic at "
                               f"{grid.vertex_coords(at[i])} with reduced cost "
                               f"{reduced[i, j]:.3e} <= tol {tol:.3e}")
    return int(e in res.geodesic_edges)


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
    top = _bounded_solve(grid, weights, origin, vi)[vi]
    bound = top * (1.0 + MARGIN)
    weights[e] = 0.0
    d0 = _solve(grid, weights, origin, limit=bound)
    out = np.full_like(ys, top)
    out[0] = d0[vi]
    if out[0] < top and ys.size > 2:
        # The y = 0 weights bound every y's from below (fact 2).
        pruned = _prune(grid, d0, vi, weights, bound)
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
    grid = field.grid
    mat = np.asarray(a)
    if mat.ndim != 2 or mat.shape != (grid.d, m * m):
        raise ValueError(f"bit matrix must have shape ({grid.d}, {m * m})")
    z = random_vertex(mat, grid.d)
    shifted = tuple(c + zc for c, zc in zip(v, z))
    if not grid.contains(z) or not grid.contains(shifted):
        raise ValueError("box too small for the shifted endpoints")
    zi, si = grid.vertex_index(z), grid.vertex_index(shifted)
    return float(_bounded_solve(grid, field.weights, zi, si)[si])
