import collections
import hashlib
import heapq
import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from fppvar import fpp
from fppvar.cube_averaging import random_vertex
from fppvar.edge_distributions import exponential, parse_distribution, sample
from fppvar.experiments import box_for_target


def row_major(v, lo, extents) -> int:
    """Row-major index of v over the box with lower corner lo and these extents."""
    idx = 0
    for c, l, e in zip(v, lo, extents):
        idx = idx * e + (c - l)
    return idx


def adjacency(grid: fpp.GridSpec) -> list[list[tuple[int, int]]]:
    """(neighbour, edge) pairs per vertex, built from the edge endpoint arrays."""
    adj = [[] for _ in range(grid.vertex_count)]
    for e, (t, h) in enumerate(zip(grid.edge_tails.tolist(), grid.edge_heads.tolist())):
        adj[t].append((h, e))
        adj[h].append((t, e))
    return adj


def enumerate_simple_paths(grid: fpp.GridSpec, src, dst):
    """All simple paths src -> dst as edge-index tuples (DFS oracle)."""
    si, di = grid.vertex_index(src), grid.vertex_index(dst)
    adj = adjacency(grid)
    paths = []
    stack = [(si, [], {si})]
    while stack:
        v, edges, seen = stack.pop()
        if v == di:
            paths.append(tuple(edges))
            continue
        for w, e in adj[v]:
            if w not in seen:
                stack.append((w, edges + [e], seen | {w}))
    return paths


def bellman_ford(grid: fpp.GridSpec, weights, src) -> list[float]:
    """Distances from src by relaxing every edge both ways until nothing changes."""
    dist = [math.inf] * grid.vertex_count
    dist[grid.vertex_index(src)] = 0.0
    edges = list(zip(grid.edge_tails.tolist(), grid.edge_heads.tolist(), weights.tolist()))
    changed = True
    while changed:
        changed = False
        for t, h, w in edges:
            if dist[t] + w < dist[h]:
                dist[h] = dist[t] + w
                changed = True
            if dist[h] + w < dist[t]:
                dist[t] = dist[h] + w
                changed = True
    return dist


def oracle_labels(grid: fpp.GridSpec, weights: np.ndarray, src: int) -> np.ndarray:
    """Labels from vertex index src by csgraph's undirected solve of an
    upper-triangular matrix built here (each edge once, tail to head)."""
    shape = (grid.vertex_count, grid.vertex_count)
    upper = csr_matrix((weights, (grid.edge_tails, grid.edge_heads)), shape=shape)
    return dijkstra(upper, directed=False, indices=src)


def tie_heavy(rng, edges: int) -> np.ndarray:
    """Weights in {0, 1, 2} * c: many equal-length paths, and zero weights."""
    return rng.integers(0, 3, edges) * float(rng.choice([1.0, 0.1, 0.3, 1e-3, 7.0]))


def jittered_tie_cases(seed: int, count: int):
    """(field, target, edge) on the 7x5 box: tie-heavy weights plus a jitter
    of a few TIE_TOL, which puts slacks on both sides of the tolerance; every
    other edge is drawn from the geodesic."""
    rng = np.random.default_rng(seed)
    g = fpp.GridSpec(lo=(-1, -1), hi=(5, 3))
    for case in range(count):
        w = tie_heavy(rng, g.edge_count)
        w += rng.integers(0, 4, g.edge_count) * float(
            rng.choice([0.0, 0.5, 1.0, 2.0, 1e3, 1e9])) * fpp.TIE_TOL
        field = fpp.WeightField(grid=g, weights=w)
        v = (int(rng.integers(0, 6)), int(rng.integers(-1, 4)))
        path = fpp.passage_time(field, (0, 0), v).geodesic_edges
        if case % 2 and path:
            e = int(rng.choice(path))
        else:
            e = int(rng.integers(g.edge_count))
        yield field, v, e


def derivative_verdict(field, v, e):
    try:
        return fpp.edge_derivative(field, v, e)
    except fpp.GeodesicTieError:
        return "tie"


def tie_rule(grid: fpp.GridSpec, w: np.ndarray, ds: np.ndarray, path, t: float, e: int):
    """The documented tie rule (module docstring, fact 3) on labels ds from
    the origin, for the geodesic ``path`` of passage time t: "tie" when an
    edge off the path enters one of its vertices b from a with
    (ds[a] + w) - ds[b] <= tol, else whether e lies on the path."""
    tol = fpp.TIE_TOL * max(1.0, t)
    on = {grid.vertex_index((0,) * grid.d)}
    for k in path:
        on |= {int(grid.edge_tails[k]), int(grid.edge_heads[k])}
    for k, (a0, b0) in enumerate(zip(grid.edge_tails.tolist(), grid.edge_heads.tolist())):
        if k not in path and any(b in on and (ds[a] + w[k]) - ds[b] <= tol
                                 for a, b in ((a0, b0), (b0, a0))):
            return "tie"
    return int(e in path)


def exact_labels(grid: fpp.GridSpec, weights: np.ndarray, src: int) -> list[Fraction]:
    """Exact distances from vertex index src: Dijkstra over Fractions, which
    hold every double weight exactly."""
    adj = adjacency(grid)
    exact = [Fraction(x) for x in weights.tolist()]
    dist: list = [None] * grid.vertex_count
    heap = [(Fraction(0), src)]
    while heap:
        d, a = heapq.heappop(heap)
        if dist[a] is None:
            dist[a] = d
            for b, e in adj[a]:
                heapq.heappush(heap, (d + exact[e], b))
    return dist


def counting_solves(monkeypatch) -> list:
    """Patch fpp._solve to record each call's grid and options; return the record."""
    calls = []
    solve = fpp._solve
    monkeypatch.setattr(fpp, "_solve",
                        lambda grid, *a, **k: calls.append((grid, k)) or solve(grid, *a, **k))
    return calls


def assert_bounded_query(calls, grid, **options):
    """The calls are one bounded query on ``grid``: an unlimited solve of a
    smaller grid (the sub-box), then one solve of ``grid`` with a finite
    limit and ``options``."""
    assert len(calls) == 2, calls
    (sub, sub_options), (box, box_options) = calls
    assert sub is not grid and sub.vertex_count < grid.vertex_count and sub_options == {}
    assert box is grid and np.isfinite(box_options.pop("limit")) and box_options == options


class TestGridSpec:
    def test_counts(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(2, 2))
        assert g.vertex_count == 9
        assert g.edge_count == 12  # 2 * 3 * 2

    def test_edge_count_formula(self):
        g = fpp.GridSpec(lo=(-1, 0, 2), hi=(2, 3, 4))
        ext = g.extents
        want = sum(int(np.prod([e - (i == a) for i, e in enumerate(ext)]))
                   for a in range(3))
        assert g.edge_count == want

    def test_interior_degree(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(4, 4))
        counts = [len(adj) for adj in adjacency(g)]
        interior = g.vertex_index((2, 2))
        assert counts[interior] == 4
        assert counts[g.vertex_index((0, 0))] == 2

    def test_vertex_round_trip(self):
        g = fpp.GridSpec(lo=(-2, 3), hi=(1, 7))
        for idx in range(g.vertex_count):
            assert g.vertex_index(g.vertex_coords(idx)) == idx

    def test_edge_index_round_trip(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(3, 2))
        seen = set()
        for e in range(g.edge_count):
            a, b = g.edge_endpoints(e)
            axis = next(i for i in range(2) if b[i] != a[i])
            assert g.edge_index(a, axis) == e
            seen.add(e)
        assert len(seen) == g.edge_count

    def test_edge_order_oracle(self):
        # The documented order: axis by axis, v row-major over the box
        # shortened by one along that axis, edge (v, v + e_axis).
        rng = np.random.default_rng(11)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            lo = tuple(int(c) for c in rng.integers(-5, 0, d))
            hi = tuple(l + int(rng.integers(1, 4)) for l in lo)
            g = fpp.GridSpec(lo=lo, hi=hi)
            want = []
            for axis in range(d):
                ranges = [range(l, h + (a != axis)) for a, (l, h) in enumerate(zip(lo, hi))]
                for v in itertools.product(*ranges):
                    head = list(v)
                    head[axis] += 1
                    assert g.edge_index(v, axis) == len(want)
                    want.append((row_major(v, lo, g.extents), row_major(head, lo, g.extents)))
            assert list(zip(g.edge_tails.tolist(), g.edge_heads.tolist())) == want
            every = np.arange(g.edge_count)
            assert np.array_equal(g._edges_between(g.edge_tails, g.edge_heads), every)
            assert np.array_equal(g._edges_between(g.edge_heads, g.edge_tails), every)

    def test_edges_between_rejects_non_adjacent(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(2, 2))
        with pytest.raises(ValueError):
            g._edges_between(np.array([0, 0]), np.array([1, 4]))

    def test_out_of_box(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(2, 2))
        with pytest.raises(ValueError):
            g.vertex_index((3, 0))

    def test_validation(self):
        with pytest.raises(ValueError):
            fpp.GridSpec(lo=(0,), hi=(2,))
        with pytest.raises(ValueError):
            fpp.GridSpec(lo=(0, 0), hi=(0, 2))


class TestWeightField:
    def test_length_check(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(2, 2))
        with pytest.raises(ValueError):
            fpp.WeightField(grid=g, weights=np.ones(5))

    def test_negative_rejected(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(2, 2))
        w = np.ones(g.edge_count)
        w[3] = -1.0
        with pytest.raises(ValueError):
            fpp.WeightField(grid=g, weights=w)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
    def test_bad_weight_rejected_anywhere(self, bad):
        g = fpp.GridSpec(lo=(0, 0), hi=(3, 3))
        for pos in (0, g.edge_count // 2, g.edge_count - 1):
            w = np.ones(g.edge_count)
            w[pos] = bad
            with pytest.raises(ValueError):
                fpp.WeightField(grid=g, weights=w)

    def test_negative_zero_accepted(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(3, 3))
        for pos in (0, g.edge_count // 2, g.edge_count - 1):
            w = np.ones(g.edge_count)
            w[pos] = -0.0
            fpp.WeightField(grid=g, weights=w)
        fpp.WeightField(grid=g, weights=np.full(g.edge_count, -0.0))

    @pytest.mark.parametrize("lo, hi, digest", [
        ((0, -3), (9, 4), "7e38c22d112bbf545f655b984f0c8d47b66efb8e720ff6e6340e873376b43de6"),
        ((-2, 0, -1), (3, 4, 2),
         "e3b43995b7f3eef98b2b7a5b4473718956f3b14fb97cae16a122b758709f8eff"),
    ], ids=["d2", "d3"])
    def test_weight_bytes_golden(self, lo, hi, digest):
        # A weight field is a pure function of (spec, seed): these bytes must
        # not move when the sampler or the box indexing is rewritten.
        field = fpp.field_from_distribution(fpp.GridSpec(lo=lo, hi=hi), "exp:rate=1", 11)
        assert hashlib.sha256(field.weights.tobytes()).hexdigest() == digest

    def test_weights_read_only_after_validation(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(3, 3))
        mine = np.ones(g.edge_count)
        field = fpp.WeightField(grid=g, weights=mine)
        with pytest.raises(ValueError, match="read-only"):
            field.weights[0] = 1.0
        mine[0] = 2.0  # the caller's own array stays writable

    def test_sampling_reproducible(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(3, 3))
        f1 = fpp.field_from_distribution(g, "exp:rate=1", 42)
        f2 = fpp.field_from_distribution(g, exponential(), 42)
        assert np.array_equal(f1.weights, f2.weights)
        assert np.all(f1.weights > 0)
        assert f1.provenance == ("exp:rate=1", 42)

    def test_seed_sequence_provenance_rebuilds_the_field(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(3, 3))
        for seed in (np.random.SeedSequence(7), np.random.SeedSequence((1, 8, 3)),
                     np.random.SeedSequence((1, 8)).spawn(3)[2]):
            field = fpp.field_from_distribution(g, "gamma:shape=2", seed)
            name, (entropy, spawn_key) = field.provenance
            assert name == "gamma:shape=2,rate=1"
            assert spawn_key == tuple(seed.spawn_key)
            again = np.random.SeedSequence(entropy, spawn_key=spawn_key)
            assert np.array_equal(sample(parse_distribution(name), again, g.edge_count),
                                  field.weights)
        assert fpp.field_from_distribution(g, "exp:rate=1", np.uint32(5)).provenance == (
            "exp:rate=1", 5)

    @pytest.mark.parametrize("seed", [None, np.random.default_rng(1),
                                      np.random.SeedSequence(1, pool_size=8)],
                             ids=["none", "generator", "pool-size"])
    def test_unrecordable_seed_rejected(self, seed):
        g = fpp.GridSpec(lo=(0, 0), hi=(3, 3))
        with pytest.raises(TypeError, match="seed"):
            fpp.field_from_distribution(g, "exp:rate=1", seed)


class TestPassageTime:
    def test_unit_weights_l1(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(4, 4))
        f = fpp.WeightField(grid=g, weights=np.ones(g.edge_count))
        res = fpp.passage_time(f, (0, 0), (3, 0))
        assert res.distance == pytest.approx(3.0)
        assert len(res.geodesic_edges) == 3

    def test_same_vertex(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(2, 2))
        f = fpp.WeightField(grid=g, weights=np.ones(g.edge_count))
        res = fpp.passage_time(f, (1, 1), (1, 1))
        assert res.distance == 0.0
        assert res.geodesic_edges == ()

    def test_brute_force_oracle_3x3(self):
        grid = fpp.GridSpec(lo=(0, 0), hi=(2, 2))
        paths = enumerate_simple_paths(grid, (0, 0), (2, 2))
        assert len(paths) > 10
        for seed in range(100):
            field = fpp.field_from_distribution(grid, "exp:rate=1", seed)
            res = fpp.passage_time(field, (0, 0), (2, 2))
            brute = min(sum(field.weights[e] for e in p) for p in paths)
            assert abs(res.distance - brute) <= 1e-12

    def test_geodesic_weight_sum(self):
        g = fpp.GridSpec(lo=(-2, -2), hi=(6, 6))
        for seed in (0, 1, 2):
            field = fpp.field_from_distribution(g, "gamma:shape=2", seed)
            res = fpp.passage_time(field, (-1, -1), (5, 4))
            assert sum(field.weights[e] for e in res.geodesic_edges) == pytest.approx(
                res.distance, abs=1e-9)

    @pytest.mark.parametrize("law, seeds", [("exp:rate=1e-6", range(20)),
                                             ("uniform:lo=0,hi=1e5", range(5)),
                                             ("exp:rate=1e6", range(5))])
    def test_large_and_small_scale_laws(self, law, seeds):
        # The label is the left fold of the tree path's weights from 0, bit
        # for bit, at any scale; an absolute tolerance on a pairwise sum
        # refused most n=64 fields of exp:rate=1e-6.
        g = box_for_target(2, 64)
        for seed in seeds:
            field = fpp.field_from_distribution(g, law, seed)
            res = fpp.passage_time(field, (0, 0), (64, 0))
            fold = 0.0
            for e in res.geodesic_edges:
                fold += float(field.weights[e])
            assert res.distance == fold == oracle_labels(g, field.weights, g.vertex_index((0, 0)))[
                g.vertex_index((64, 0))]

    def test_one_solve(self, monkeypatch):
        # One bounded query: the sub-box, then the box capped at its label.
        g = fpp.GridSpec(lo=(-2, -2), hi=(6, 6))
        field = fpp.field_from_distribution(g, "exp:rate=1", 3)
        calls = counting_solves(monkeypatch)
        fpp.passage_time(field, (0, 0), (5, 4))
        assert_bounded_query(calls, g, return_predecessors=True)

    def test_geodesic_is_connected_path(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(5, 5))
        field = fpp.field_from_distribution(g, "exp:rate=1", 9)
        res = fpp.passage_time(field, (0, 0), (5, 5))
        cur = g.vertex_index((0, 0))
        for e in res.geodesic_edges:
            a, b = g.edge_endpoints(e)
            ai, bi = g.vertex_index(a), g.vertex_index(b)
            assert cur in (ai, bi)
            cur = bi if cur == ai else ai
        assert cur == g.vertex_index((5, 5))

    def test_triangle_inequality(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(6, 6))
        field = fpp.field_from_distribution(g, "exp:rate=1", 31)
        rng = np.random.default_rng(4)
        for _ in range(25):
            u, v, w = (tuple(rng.integers(0, 7, 2)) for _ in range(3))
            duw = fpp.passage_time(field, u, w).distance
            duv = fpp.passage_time(field, u, v).distance
            dvw = fpp.passage_time(field, v, w).distance
            assert duw <= duv + dvw + 1e-9

    def test_bellman_ford_oracle(self):
        g = fpp.GridSpec(lo=(-2, -2), hi=(8, 5))
        for seed in range(25):
            field = fpp.field_from_distribution(g, "exp:rate=1", seed)
            want = bellman_ford(g, field.weights, (-1, 0))
            assert fpp.distances_from(field, (-1, 0)).tolist() == want
            got = fpp.passage_time(field, (-1, 0), (7, 3)).distance
            assert got == want[g.vertex_index((7, 3))]

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_undirected_upper_triangular_oracle(self, n):
        # csgraph's undirected solve of the upper-triangular matrix (each edge
        # once, tail to head) is the reference: labels must match bit for bit
        # at every vertex, and so must the predecessor tree every geodesic is
        # read from.
        g = box_for_target(2, n)
        rng = np.random.default_rng(n)
        fields = [sample(parse_distribution(spec), seed, g.edge_count)
                  for spec in ("exp:rate=1", "gamma:shape=2", "beta:a=0.5,b=0.5")
                  for seed in range(3)]
        fields.append(np.ones(g.edge_count))
        fields += [rng.integers(0, 3, g.edge_count).astype(float) for _ in range(3)]
        shape = (g.vertex_count, g.vertex_count)
        for w in fields:
            upper = csr_matrix((w, (g.edge_tails, g.edge_heads)), shape=shape)
            field = fpp.WeightField(grid=g, weights=w)
            for src in ((0, 0), g.vertex_coords(int(rng.integers(g.vertex_count)))):
                want, want_pred = dijkstra(upper, directed=False, indices=g.vertex_index(src),
                                           return_predecessors=True)
                assert fpp.distances_from(field, src).tobytes() == want.tobytes()
                pred = fpp._solve(g, field.weights, g.vertex_index(src),
                                  return_predecessors=True)[1]
                assert np.array_equal(pred, want_pred)

    def test_geodesic_is_predecessor_tree_path(self):
        # On exact ties the geodesic is the path that csgraph's predecessor
        # tree holds.  The reference tree is csgraph's undirected solve of an
        # upper-triangular matrix built here (each edge once, tail to head);
        # its path is walked back from the target and compared in source to
        # target order.
        rng = np.random.default_rng(11)
        grid2 = fpp.GridSpec(lo=(0, 0), hi=(4, 4))
        fields = [np.ones(grid2.edge_count), np.zeros(grid2.edge_count)]
        fields += [rng.integers(0, 3, grid2.edge_count).astype(float) for _ in range(20)]
        pairs = [((0, 0), (4, 4)), ((4, 0), (0, 4)), ((2, 1), (0, 3)), ((3, 3), (3, 3))]
        grid3 = fpp.GridSpec(lo=(0, 0, 0), hi=(1, 2, 1))
        cases = [(grid2, pairs, fields),
                 (grid3, [((0, 0, 0), (1, 2, 1))], [np.zeros(grid3.edge_count)])]
        for grid, pairs, fields in cases:
            adj = adjacency(grid)
            shape = (grid.vertex_count, grid.vertex_count)
            for w in fields:
                upper = csr_matrix((w, (grid.edge_tails, grid.edge_heads)), shape=shape)
                field = fpp.WeightField(grid=grid, weights=w)
                for src, dst in pairs:
                    si, cur = grid.vertex_index(src), grid.vertex_index(dst)
                    pred = dijkstra(upper, directed=False, indices=si,
                                    return_predecessors=True)[1]
                    back = []
                    while cur != si:
                        nxt = int(pred[cur])
                        back.append(next(e for x, e in adj[cur] if x == nxt))
                        cur = nxt
                    res = fpp.passage_time(field, src, dst)
                    assert res.geodesic_edges == tuple(reversed(back)), (w, src, dst)

    def test_zero_weights_brute_force_3x3(self):
        grid = fpp.GridSpec(lo=(0, 0), hi=(2, 2))
        rng = np.random.default_rng(5)
        fields = [np.zeros(grid.edge_count)]
        fields += [rng.integers(0, 3, grid.edge_count).astype(float) for _ in range(50)]
        cases = [(grid, (0, 0), (2, 2), fields)]
        # All zero in d=3: every path is optimal.
        grid3 = fpp.GridSpec(lo=(0, 0, 0), hi=(1, 2, 1))
        cases.append((grid3, (0, 0, 0), (1, 2, 1), [np.zeros(grid3.edge_count)]))
        for grid, src, dst, fields in cases:
            paths = enumerate_simple_paths(grid, src, dst)
            for w in fields:
                field = fpp.WeightField(grid=grid, weights=w)
                res = fpp.passage_time(field, src, dst)
                assert res.distance == min(sum(w[e] for e in p) for p in paths)
                cur = grid.vertex_index(src)
                for e in res.geodesic_edges:
                    t, h = int(grid.edge_tails[e]), int(grid.edge_heads[e])
                    assert cur in (t, h)
                    cur = h if cur == t else t
                assert cur == grid.vertex_index(dst)
                assert sum(w[e] for e in res.geodesic_edges) == res.distance

    def test_tree_walk(self):
        grid = fpp.GridSpec(lo=(0, 0, 0), hi=(3, 2, 2))
        w = sample(exponential(), 4, grid.edge_count)
        src, dst = 0, grid.vertex_count - 1
        ds, pred = fpp._solve(grid, w, src, return_predecessors=True)
        chain = fpp._tree_path(grid, pred, src, dst)
        assert chain[0] == dst and chain[-1] == src
        edges = grid._edges_between(chain[:-1], chain[1:])
        cur = dst
        for e in edges.tolist():
            t, h = int(grid.edge_tails[e]), int(grid.edge_heads[e])
            assert cur in (t, h)
            cur = h if cur == t else t
        assert cur == src
        assert w[edges].sum() == pytest.approx(ds[dst], rel=1e-12)
        # A predecessor cycle that never reaches the source is an error.
        pred[dst], pred[dst - 1] = dst - 1, dst
        with pytest.raises(RuntimeError, match="did not reach the source"):
            fpp._tree_path(grid, pred, src, dst)

    def test_out_of_box_rejected(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(2, 2))
        f = fpp.WeightField(grid=g, weights=np.ones(g.edge_count))
        with pytest.raises(ValueError):
            fpp.passage_time(f, (0, 0), (5, 5))


class TestEdgeDerivative:
    def test_on_and_off_path(self):
        g = fpp.GridSpec(lo=(-2, -2), hi=(8, 6))
        field = fpp.field_from_distribution(g, "exp:rate=1", 5)
        v = (5, 2)
        res = fpp.passage_time(field, (0, 0), v)
        e_on = res.geodesic_edges[len(res.geodesic_edges) // 2]
        e_off = next(e for e in range(g.edge_count) if e not in res.geodesic_edges)
        assert fpp.edge_derivative(field, v, e_on) == 1
        assert fpp.edge_derivative(field, v, e_off) == 0

    def test_finite_difference_trials(self):
        # criterion-level check: indicator equals the FD increment at delta=1e-9
        # Field seeds are bounded, so an edge_derivative that refuses every
        # field fails here instead of looping forever.
        agree = 0
        trials = 0
        rng = np.random.default_rng(1234)
        g = fpp.GridSpec(lo=(-3, -3), hi=(8, 6))
        v = (5, 2)
        for attempt_seed in range(1, 1001):
            if trials == 100:
                break
            field = fpp.field_from_distribution(g, "exp:rate=1", attempt_seed)
            e = int(rng.integers(0, g.edge_count))
            try:
                ind = fpp.edge_derivative(field, v, e)
            except fpp.GeodesicTieError:
                continue
            trials += 1
            base = fpp.passage_time(field, (0, 0), v).distance
            delta = 1e-9
            bumped = field.weights.copy()
            bumped[e] += delta
            after = fpp.passage_time(fpp.WeightField(grid=g, weights=bumped),
                                     (0, 0), v).distance
            if abs((after - base) - delta * ind) <= 1e-12:
                agree += 1
        assert trials == 100
        assert agree >= 99

    def test_tie_verdicts_match_two_unlimited_solves(self):
        # The reference: the documented tie rule (module docstring, fact 3)
        # on labels from an unlimited solve of a matrix built here.  Refuse
        # when an edge off the geodesic enters one of its vertices b from a
        # with (ds[a] + w) - ds[b] <= tol.  This rule differs from the
        # two-sided slack rule on labels from both ends only where rounding
        # decides (see the exact-arithmetic test below).
        verdicts = collections.Counter()
        for case, (field, v, e) in enumerate(jittered_tie_cases(31, 300)):
            g, w = field.grid, field.weights
            res = fpp.passage_time(field, (0, 0), v)
            ds = oracle_labels(g, w, g.vertex_index((0, 0)))
            want = tie_rule(g, w, ds, res.geodesic_edges, res.distance, e)
            assert derivative_verdict(field, v, e) == want, case
            verdicts[want] += 1
        assert min(verdicts[k] for k in (0, 1, "tie")) >= 10, verdicts

    def test_tie_verdicts_match_exact_arithmetic(self):
        # The two-sided slack rule in exact arithmetic: labels from both ends
        # over Fractions, and a refusal when an edge off the geodesic lies on
        # a walk within tol of T.  Rounding decides the cases whose slack is
        # within 1e-3 tol of tol; they are counted, not compared (8 of 300).
        verdicts = collections.Counter()
        in_band = 0
        for case, (field, v, e) in enumerate(jittered_tie_cases(37, 300)):
            g, w = field.grid, field.weights
            res = fpp.passage_time(field, (0, 0), v)
            ds = exact_labels(g, w, g.vertex_index((0, 0)))
            dt = exact_labels(g, w, g.vertex_index(v))
            t_exact = ds[g.vertex_index(v)]
            slack = min(min(ds[t] + Fraction(w[k]) + dt[h], ds[h] + Fraction(w[k]) + dt[t])
                        for k, (t, h) in enumerate(zip(g.edge_tails.tolist(),
                                                       g.edge_heads.tolist()))
                        if k not in res.geodesic_edges) - t_exact
            tol = Fraction(fpp.TIE_TOL * max(1.0, res.distance))
            if abs(slack - tol) <= tol / 1000:
                in_band += 1
                continue
            want = "tie" if slack <= tol else int(e in res.geodesic_edges)
            assert derivative_verdict(field, v, e) == want, case
            verdicts[want] += 1
        assert in_band <= 15, in_band
        assert min(verdicts[k] for k in (0, 1, "tie")) >= 10, verdicts

    def test_tie_error_names_the_entering_edge(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(4, 4))
        w = np.ones(g.edge_count)
        field = fpp.WeightField(grid=g, weights=w)
        res = fpp.passage_time(field, (0, 0), (3, 3))
        with pytest.raises(fpp.GeodesicTieError) as info:
            fpp.edge_derivative(field, (3, 3), 0)
        m = re.fullmatch(r"edge (\d+) enters the geodesic at \((\d+), (\d+)\) with "
                         r"reduced cost (\S+) <= tol (\S+)", str(info.value))
        assert m, str(info.value)
        k, b = int(m[1]), (int(m[2]), int(m[3]))
        assert k not in res.geodesic_edges and b in g.edge_endpoints(k)
        on = {p for j in res.geodesic_edges for p in g.edge_endpoints(j)}
        assert b in on
        a = next(p for p in g.edge_endpoints(k) if p != b)
        ds = oracle_labels(g, w, g.vertex_index((0, 0)))
        reduced = (ds[g.vertex_index(a)] + w[k]) - ds[g.vertex_index(b)]
        assert float(m[4]) == pytest.approx(reduced, rel=1e-3) and reduced <= fpp.TIE_TOL * 6
        assert float(m[5]) == pytest.approx(fpp.TIE_TOL * res.distance, rel=1e-3)

    def test_one_solve(self, monkeypatch):
        # The tie check reads the passage solve's labels: one bounded query
        # per call, whether the verdict is 0, 1 or a refusal.
        g = fpp.GridSpec(lo=(-2, -2), hi=(8, 6))
        field = fpp.field_from_distribution(g, "exp:rate=1", 5)
        on = fpp.passage_time(field, (0, 0), (5, 2)).geodesic_edges[1]
        flat = fpp.WeightField(grid=g, weights=np.ones(g.edge_count))
        calls = counting_solves(monkeypatch)
        for f, e, want in ((field, on, 1), (field, g.edge_index((-2, -2), 0), 0), (flat, 0, "tie")):
            calls.clear()
            assert derivative_verdict(f, (5, 2), e) == want
            assert_bounded_query(calls, g, return_predecessors=True)

    def test_unit_weights_refused(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(4, 4))
        f = fpp.WeightField(grid=g, weights=np.ones(g.edge_count))
        with pytest.raises(fpp.GeodesicTieError):
            fpp.edge_derivative(f, (3, 3), 0)

    def test_edge_range(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(3, 3))
        field = fpp.field_from_distribution(g, "exp:rate=1", 1)
        with pytest.raises(ValueError):
            fpp.edge_derivative(field, (2, 2), g.edge_count + 5)


class TestSingleEdgeResponse:
    def test_piecewise_fit_on_seeded_fields(self):
        g = fpp.GridSpec(lo=(-1, -1), hi=(8, 8))
        grid_y = np.linspace(0.0, 30.0, 61)
        rng = np.random.default_rng(7)
        for seed in range(20):
            field = fpp.field_from_distribution(g, "exp:rate=1", seed)
            e = int(rng.integers(0, g.edge_count))
            curve = fpp.single_edge_response(field, (6, 3), e, grid_y)
            assert curve.max_abs_deviation <= 1e-9
            steps = np.diff(curve.distances)
            assert np.all(steps >= -1e-12)
            assert np.all(steps <= np.diff(curve.ys) + 1e-12)
            assert curve.breakpoint == pytest.approx(curve.plateau - curve.intercept)

    def test_irrelevant_edge_flat(self):
        g = fpp.GridSpec(lo=(-4, -4), hi=(6, 6))
        field = fpp.field_from_distribution(g, "exp:rate=1", 3)
        # far-corner edge, target near the origin
        e = g.edge_index((-4, -4), 0)
        curve = fpp.single_edge_response(field, (1, 0), e, np.linspace(0.0, 10.0, 21))
        assert curve.breakpoint == pytest.approx(0.0, abs=1e-12)
        assert np.all(curve.distances == curve.distances[0])

    def test_matches_separately_built_fields(self):
        g = fpp.GridSpec(lo=(-2, -2), hi=(6, 6))
        field = fpp.field_from_distribution(g, "exp:rate=1", 5)
        e = g.edge_index((2, 0), 0)
        ys = np.array([0.0, 0.25, 1.0, 3.0, 12.0])
        curve = fpp.single_edge_response(field, (4, 1), e, ys)
        for y, got in zip(ys, curve.distances):
            w = field.weights.copy()
            w[e] = y
            want = fpp.distances_from(fpp.WeightField(grid=g, weights=w), (0, 0))
            assert got == want[g.vertex_index((4, 1))]
        again = fpp.field_from_distribution(g, "exp:rate=1", 5)
        assert np.array_equal(field.weights, again.weights)

    def test_grid_validation(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(3, 3))
        field = fpp.field_from_distribution(g, "exp:rate=1", 1)
        with pytest.raises(ValueError):
            fpp.single_edge_response(field, (2, 2), 0, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            fpp.single_edge_response(field, (2, 2), 0, np.array([0.0, 0.0, 1.0]))
        for bad in ([0.0, np.nan, 2.0], [0.0, 1.0, np.inf]):
            with pytest.raises(ValueError, match="finite"):
                fpp.single_edge_response(field, (2, 2), 0, np.array(bad))


class TestBoundedSolve:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), width=st.integers(2, 7),
           height=st.integers(2, 6), kind=st.sampled_from(["exp", "ties", "holes"]),
           at_label=st.booleans(), frac=st.floats(0.0, 1.2))
    def test_limit_keeps_labels_at_most_L(self, seed, width, height, kind, at_label, frac):
        g = fpp.GridSpec(lo=(0, 0), hi=(width - 1, height - 1))
        rng = np.random.default_rng(seed)
        w = tie_heavy(rng, g.edge_count) if kind == "ties" else rng.exponential(size=g.edge_count)
        if kind == "holes":  # inf is an absent edge, as on a pruned field
            w[rng.random(g.edge_count) < 0.3] = np.inf
        src = int(rng.integers(g.vertex_count))
        full = oracle_labels(g, w, src)
        finite = full[np.isfinite(full)]
        # Half the time L is a label itself, so the boundary case label == L shows.
        limit = float(rng.choice(finite)) if at_label else frac * float(finite.max())
        got = fpp._solve(g, w, src, limit=limit)
        kept = full <= limit
        assert got[kept].tobytes() == full[kept].tobytes()
        assert np.all(got[~kept] == np.inf)


class TestResponseOracle:
    def test_matches_independent_solves(self):
        # Every point against a csgraph solve of a matrix built here: bit for
        # bit, on exponential, gamma and tie-heavy fields, on edges on and off
        # the geodesic, and on grids that stop before or after the breakpoint.
        rng = np.random.default_rng(10)
        laws = [parse_distribution(s) for s in ("exp:rate=1", "gamma:shape=2", "uniform")]
        seen = collections.Counter()
        for case in range(240):
            n = int(rng.integers(2, 7))
            if case % 8 == 0:
                g = fpp.GridSpec(lo=(-1, -1, -1), hi=(n + 1, 1, 1))
            else:
                g = fpp.GridSpec(lo=(-2, -2), hi=(n + 2, 2))
            if case % 3 == 0:
                w = tie_heavy(rng, g.edge_count)
                seen["tie-heavy"] += 1
            else:
                w = sample(laws[case % 3], case, g.edge_count)
            field = fpp.WeightField(grid=g, weights=w)
            origin = g.vertex_index((0,) * g.d)
            v = (n, int(rng.integers(-1, 2))) + (0,) * (g.d - 2)
            vi = g.vertex_index(v)
            geodesic = fpp.passage_time(field, (0,) * g.d, v).geodesic_edges
            if case % 2:
                e = int(rng.choice(geodesic))
            else:
                e = int(rng.integers(g.edge_count))
            ys = np.linspace(0.0, float(rng.choice([0.01, 0.3, 2.0, 30.0])),
                             int(rng.choice([2, 3, 11, 61])))
            curve = fpp.single_edge_response(field, v, e, ys)
            want = []
            for y in list(ys) + [1e9]:
                wy = w.copy()
                wy[e] = y
                want.append(oracle_labels(g, wy, origin)[vi])
            plateau = want.pop()
            assert curve.distances.tobytes() == np.array(want).tobytes()
            seen["flat"] += want[-1] == want[0]
            seen["below breakpoint"] += want[-1] < plateau
            seen["plateau inside"] += want[0] < want[-2] == want[-1]
            seen["two points"] += ys.size == 2
        assert min(seen[k] for k in ("tie-heavy", "flat", "below breakpoint",
                                     "plateau inside", "two points")) >= 10, seen

    def test_points_just_below_the_breakpoint(self):
        # Labels a few ulps under the plateau must not be taken for it.
        g = fpp.GridSpec(lo=(-2, -2), hi=(7, 3))
        origin, vi = g.vertex_index((0, 0)), g.vertex_index((5, 1))
        for seed in range(20):
            field = fpp.field_from_distribution(g, "exp:rate=1", seed)
            e = fpp.passage_time(field, (0, 0), (5, 1)).geodesic_edges[seed % 4]
            w = field.weights.copy()
            w[e] = 0.0
            b = oracle_labels(g, np.where(np.arange(g.edge_count) == e, 1e9, w), origin)[vi] - (
                oracle_labels(g, w, origin)[vi])
            ys = np.array([0.0, b / 2, b * (1 - 1e-12), b * (1 - 1e-15), b, 2 * b])
            want = []
            for y in ys:
                w[e] = y
                want.append(oracle_labels(g, w, origin)[vi])
            got = fpp.single_edge_response(field, (5, 1), e, ys).distances
            assert got.tobytes() == np.array(want).tobytes()

    def test_solve_count(self, monkeypatch):
        # The top point is one bounded query (a sub-box solve, then the box
        # capped at its label).  A flat curve takes one more solve; a rising
        # one stops at the plateau, and every solve of the box carries a limit.
        g = fpp.GridSpec(lo=(-4, -4), hi=(8, 6))
        field = fpp.field_from_distribution(g, "exp:rate=1", 3)
        calls = counting_solves(monkeypatch)
        ys = np.linspace(0.0, 30.0, 61)
        fpp.single_edge_response(field, (5, 0), g.edge_index((-4, -4), 0), ys)
        assert_bounded_query(calls[:2], g)
        assert len(calls) == 3 and calls[2][0] is g and "limit" in calls[2][1]
        e = fpp.passage_time(field, (0, 0), (5, 0)).geodesic_edges[2]
        calls.clear()
        curve = fpp.single_edge_response(field, (5, 0), e, ys)
        assert curve.breakpoint > 0
        assert 4 < len(calls) < 62
        assert_bounded_query(calls[:2], g)
        assert all(grid is g and "limit" in options for grid, options in calls[2:])


class TestAveragedPassageTime:
    def test_zero_shift(self):
        g = fpp.GridSpec(lo=(-8, -8), hi=(16, 8))
        field = fpp.field_from_distribution(g, "exp:rate=1", 3)
        a = np.zeros((2, 4), dtype=int)
        assert fpp.averaged_passage_time(a, field, (8, 0), 2) == pytest.approx(
            fpp.passage_time(field, (0, 0), (8, 0)).distance)

    def test_full_shift(self):
        g = fpp.GridSpec(lo=(-8, -8), hi=(16, 8))
        field = fpp.field_from_distribution(g, "exp:rate=1", 3)
        a = np.ones((2, 4), dtype=int)
        want = fpp.passage_time(field, (2, 2), (10, 2)).distance
        assert fpp.averaged_passage_time(a, field, (8, 0), 2) == pytest.approx(want)

    def test_shift_bound_per_sample(self):
        # |f_tilde - f_v| <= d(0, z) + d(v, v+z), checked sample by sample
        g = fpp.GridSpec(lo=(-8, -8), hi=(16, 8))
        v = (8, 0)
        rng = np.random.default_rng(12)
        for seed in range(10):
            field = fpp.field_from_distribution(g, "exp:rate=1", seed)
            base = fpp.passage_time(field, (0, 0), v).distance
            a = rng.integers(0, 2, size=(2, 9))
            z = random_vertex(a, 2)
            tilde = fpp.averaged_passage_time(a, field, v, 3)
            bound = (fpp.passage_time(field, (0, 0), z).distance
                     + fpp.passage_time(field, v, tuple(c + zc for c, zc in zip(v, z))).distance)
            assert abs(tilde - base) <= bound + 1e-9

    def test_box_overflow(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(4, 4))
        field = fpp.field_from_distribution(g, "exp:rate=1", 0)
        a = np.ones((2, 16), dtype=int)  # shift (4,4); v+z leaves the box
        with pytest.raises(ValueError):
            fpp.averaged_passage_time(a, field, (4, 0), 4)

    def test_shape_mismatch(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(4, 4))
        field = fpp.field_from_distribution(g, "exp:rate=1", 0)
        with pytest.raises(ValueError):
            fpp.averaged_passage_time(np.zeros((2, 5), dtype=int), field, (2, 0), 2)

    def test_rejects_non_bits(self):
        # 0.7 once truncated to 0, giving the unshifted passage time
        g = fpp.GridSpec(lo=(-8, -8), hi=(16, 8))
        field = fpp.field_from_distribution(g, "exp:rate=1", 3)
        with pytest.raises(ValueError, match="0 or 1"):
            fpp.averaged_passage_time(np.full((2, 9), 0.7), field, (8, 0), 3)
        ones = np.ones((2, 4))
        assert (fpp.averaged_passage_time(ones, field, (8, 0), 2)
                == fpp.averaged_passage_time(ones.astype(int), field, (8, 0), 2))


def oracle_tree(grid: fpp.GridSpec, weights: np.ndarray, src: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels and predecessors from vertex index src by the solve of
    :func:`oracle_labels`."""
    shape = (grid.vertex_count, grid.vertex_count)
    upper = csr_matrix((weights, (grid.edge_tails, grid.edge_heads)), shape=shape)
    return dijkstra(upper, directed=False, indices=src, return_predecessors=True)


def tree_edges(grid: fpp.GridSpec, pred: np.ndarray, src: int, dst: int) -> tuple[int, ...]:
    """Edges of the predecessor tree path from src to dst, in path order."""
    adj = adjacency(grid)
    back, cur = [], dst
    while cur != src:
        nxt = int(pred[cur])
        back.append(next(e for x, e in adj[cur] if x == nxt))
        cur = nxt
    return tuple(reversed(back))


def sub_box_bounds(grid: fpp.GridSpec, s, t) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bounds of the sub-box of the query from s to t, by its rule: the span
    of s and t, widened by SUB_PAD on every axis but the first one of largest
    gap, and clipped to the box."""
    gaps = [abs(a - b) for a, b in zip(s, t)]
    wide = [0 if k == gaps.index(max(gaps)) else fpp.SUB_PAD for k in range(grid.d)]
    lo = tuple(max(min(a, b) - p, l) for a, b, p, l in zip(s, t, wide, grid.lo))
    hi = tuple(min(max(a, b) + p, h) for a, b, p, h in zip(s, t, wide, grid.hi))
    return lo, hi


def sub_box_edges(grid: fpp.GridSpec, lo, hi) -> tuple[fpp.GridSpec, list[int]]:
    """The sub-box [lo, hi] as a grid of its own, and the box index of each of
    its edges, in its edge order, through the public edge lookups alone."""
    sub = fpp.GridSpec(lo=tuple(lo), hi=tuple(hi))
    out = []
    for e in range(sub.edge_count):
        tail, head = sub.edge_endpoints(e)
        out.append(grid.edge_index(tail, [h - c for c, h in zip(tail, head)].index(1)))
    return sub, out


def query_pairs(rng, grid: fpp.GridSpec, count: int) -> list:
    """(s, t) pairs: random ones, opposite and nearby box corners (clipped
    sub-boxes), s == t, and adjacent vertices."""
    lo, hi = np.array(grid.lo), np.array(grid.hi)
    pairs = [(tuple(rng.integers(lo, hi + 1).tolist()), tuple(rng.integers(lo, hi + 1).tolist()))
             for _ in range(count)]
    pairs += [(grid.lo, grid.hi), (grid.hi, tuple((lo + 1).tolist())),
              (grid.lo, tuple((lo + np.array([2] + [1] * (grid.d - 1))).tolist()))]
    s = tuple(rng.integers(lo, hi).tolist())
    pairs += [(s, s), (s, tuple(c + (k == grid.d - 1) for k, c in enumerate(s)))]
    return pairs


class TestBoundedQuery:
    """The bounded point-to-point solve against full solves of a matrix built
    here (:func:`oracle_tree`), bit for bit."""

    GRIDS = [fpp.GridSpec(lo=(-3, -2), hi=(9, 6)), box_for_target(2, 8),
             fpp.GridSpec(lo=(-2, -2, -2), hi=(6, 3, 3))]

    @pytest.mark.parametrize("grid", GRIDS, ids=["d2", "d2-box", "d3"])
    def test_labels_and_geodesic_match_full_solve(self, grid):
        rng = np.random.default_rng(grid.vertex_count)
        seen = collections.Counter()
        for case in range(24):
            if case % 3 == 2:
                w = tie_heavy(rng, grid.edge_count)
            else:
                w = sample(parse_distribution(("exp:rate=1", "gamma:shape=2")[case % 3]),
                           case, grid.edge_count)
            field = fpp.WeightField(grid=grid, weights=w)
            for s, t in query_pairs(rng, grid, 4):
                si, ti = grid.vertex_index(s), grid.vertex_index(t)
                full, pred = oracle_tree(grid, w, si)
                labels, got_pred = fpp._bounded_solve(grid, w, si, ti, return_predecessors=True)
                kept = np.isfinite(labels)
                assert labels[kept].tobytes() == full[kept].tobytes()
                assert np.all(kept[full <= full[ti]]) and np.all(got_pred[~kept] < 0)
                assert np.array_equal(got_pred[kept], pred[kept])
                res = fpp.passage_time(field, s, t)
                assert res.distance.hex() == full[ti].hex()
                assert res.geodesic_edges == tree_edges(grid, pred, si, ti)
                lo, hi = sub_box_bounds(grid, s, t)
                seen["at the box edge"] += (0 in np.subtract(lo, grid.lo)
                                            or 0 in np.subtract(grid.hi, hi))
                seen["same"] += s == t
                seen["adjacent"] += sum(abs(a - b) for a, b in zip(s, t)) == 1
        assert min(seen[k] for k in ("at the box edge", "same", "adjacent")) >= 20, seen

    @pytest.mark.parametrize("grid", [fpp.GridSpec(lo=(0, 0), hi=(9, 6)),
                                      fpp.GridSpec(lo=(0, 0, 0), hi=(5, 3, 4))],
                             ids=["d2", "d3"])
    def test_whole_box_query_is_one_full_solve(self, monkeypatch, grid):
        # From the origin to the far corner the sub-box is the whole box:
        # one unlimited solve, whose labels, predecessors, geodesic and tie
        # verdicts are the full solve's.
        rng = np.random.default_rng(grid.d)
        si, ti = grid.vertex_index(grid.lo), grid.vertex_index(grid.hi)
        calls = counting_solves(monkeypatch)
        seen = collections.Counter()
        for case in range(40):
            w = tie_heavy(rng, grid.edge_count) if case % 4 == 3 else (
                sample(exponential(), case, grid.edge_count))
            field = fpp.WeightField(grid=grid, weights=w)
            full, pred = oracle_tree(grid, w, si)
            path = tree_edges(grid, pred, si, ti)
            labels, got_pred = fpp._bounded_solve(grid, w, si, ti, return_predecessors=True)
            assert labels.tobytes() == full.tobytes() and np.array_equal(got_pred, pred)
            calls.clear()
            res = fpp.passage_time(field, grid.lo, grid.hi)
            assert calls == [(grid, {"return_predecessors": True})]
            assert res.distance.hex() == full[ti].hex() and res.geodesic_edges == path
            e = path[case % len(path)] if case % 2 else int(rng.integers(grid.edge_count))
            want = tie_rule(grid, w, full, path, full[ti], e)
            calls.clear()
            assert derivative_verdict(field, grid.hi, e) == want, case
            assert calls == [(grid, {"return_predecessors": True})]
            seen[want] += 1
        assert min(seen[k] for k in (0, 1, "tie")) >= 5, seen

    def test_geodesic_leaving_the_sub_box(self):
        # Sub-box edges cost 10 more than the field around them, so the
        # geodesic leaves the sub-box and its label X exceeds T.
        grid = fpp.GridSpec(lo=(-6, -6), hi=(14, 6))
        s, t = (0, 0), (8, 1)
        lo, hi = sub_box_bounds(grid, s, t)
        sub, edges = sub_box_edges(grid, lo, hi)
        for seed in range(10):
            w = np.random.default_rng(seed).uniform(0.5, 1.5, grid.edge_count)
            w[edges] += 10.0
            si, ti = grid.vertex_index(s), grid.vertex_index(t)
            full, pred = oracle_tree(grid, w, si)
            cap = oracle_labels(sub, w[edges], sub.vertex_index(s))[sub.vertex_index(t)]
            assert cap > full[ti]
            res = fpp.passage_time(fpp.WeightField(grid=grid, weights=w), s, t)
            assert res.distance.hex() == full[ti].hex()
            assert res.geodesic_edges == tree_edges(grid, pred, si, ti)
            assert not all(sub.contains(p) for e in res.geodesic_edges
                           for p in grid.edge_endpoints(e))

    @pytest.mark.parametrize("grid", GRIDS, ids=["d2", "d2-box", "d3"])
    def test_predecessor_trees_on_exact_ties(self, grid):
        # 200 integer-weight fields per grid, with zero weights and many
        # equal-length paths: the capped tree is the full tree at every
        # labelled vertex (ROADMAP item 1).
        rng = np.random.default_rng(7 + grid.d)
        labelled = 0
        for case in range(200):
            w = rng.integers(0, 3, grid.edge_count).astype(float) if case % 4 else (
                np.ones(grid.edge_count))
            s, t = query_pairs(rng, grid, 1)[int(rng.integers(6))]
            si, ti = grid.vertex_index(s), grid.vertex_index(t)
            full, pred = oracle_tree(grid, w, si)
            labels, got = fpp._bounded_solve(grid, w, si, ti, return_predecessors=True)
            kept = np.isfinite(labels)
            assert np.array_equal(got[kept], pred[kept]), case
            labelled += int(kept.sum())
        assert labelled > 20 * grid.vertex_count

    def test_tie_entering_at_the_target_past_the_label(self):
        # An edge off the geodesic enters it at the target v from a tail
        # whose label lies within tol above T.  Where T is the sub-box label
        # X, a limit of X alone leaves that tail unlabelled; the verdicts
        # must still be those of the tie rule on full labels (fact 3).
        g = fpp.GridSpec(lo=(-3, -3), hi=(9, 5))
        v = (6, 1)
        src, vi = g.vertex_index((0, 0)), g.vertex_index(v)
        lo, hi = sub_box_bounds(g, (0, 0), v)
        sub, sub_edges = sub_box_edges(g, lo, hi)
        adj = adjacency(g)
        seen = collections.Counter()
        for seed in range(30):
            w = sample(exponential(), seed, g.edge_count)
            ds, pred = oracle_tree(g, w, src)
            path = tree_edges(g, pred, src, vi)
            on = {src} | {p for k in path for p in (int(g.edge_tails[k]), int(g.edge_heads[k]))}
            for a, e in adj[vi]:
                if a in on:
                    continue
                c, f = min(((c, f) for c, f in adj[a] if c != vi), key=lambda cf: ds[cf[0]])
                t_ = ds[vi]
                tol = fpp.TIE_TOL * max(1.0, t_)
                # Lowering f brings a to just above T, and nothing below T.
                if not ds[c] < t_ < t_ + tol < ds[a]:
                    continue
                for above, w_e in ((1 / 3, 1 / 2), (1 / 2, 3 / 4)):
                    w2 = w.copy()
                    w2[e] = w_e * tol
                    w2[f] = (t_ + above * tol) - ds[c]
                    d2 = oracle_labels(g, w2, src)
                    assert d2[vi] == t_ and t_ < d2[a] <= t_ + tol
                    reduced = (d2[a] + w2[e]) - d2[vi]
                    field = fpp.WeightField(grid=g, weights=w2)
                    for k in (e, path[len(path) // 2]):
                        want = "tie" if reduced <= tol else int(k in path)
                        assert derivative_verdict(field, v, k) == want, (seed, a, k)
                        seen[want] += 1
                    cap = oracle_labels(sub, w2[sub_edges], sub.vertex_index((0, 0)))[
                        sub.vertex_index(v)]
                    seen["tail past X"] += bool(d2[a] > cap)
        assert min(seen[k] for k in ("tie", 0, 1)) >= 10 and seen["tail past X"] >= 10, seen

    def test_sub_box_edges_are_the_box_edges(self):
        # Every entry against the sub-box rule and the public edge lookups:
        # the edge picks gather each sub edge's box index from an array of
        # edge indices.
        for grid in (self.GRIDS[0], self.GRIDS[2], box_for_target(2, 16)):
            rng = np.random.default_rng(grid.edge_count)
            ids = np.arange(grid.edge_count, dtype=float)
            for s, t in query_pairs(rng, grid, 12):
                if s == t:
                    continue
                sub, picks, a, b = fpp._sub_box(grid, grid.vertex_index(s), grid.vertex_index(t))
                lo, hi = sub_box_bounds(grid, s, t)
                want_sub, want = sub_box_edges(grid, lo, hi)
                assert sub.extents == want_sub.extents
                assert fpp._sub_weights(ids, picks).tolist() == want
                assert (a, b) == (want_sub.vertex_index(s), want_sub.vertex_index(t))
        # 0 to n*e1: the strip [0, n] x [-SUB_PAD, SUB_PAD].
        box = box_for_target(2, 16)
        sub = fpp._sub_box(box, box.vertex_index((0, 0)), box.vertex_index((16, 0)))[0]
        assert sub.extents == (17, 2 * fpp.SUB_PAD + 1)

    def test_grids_do_not_share_entries(self):
        # Three grids where one (s, t) index pair names other vertices, and
        # a fourth equal to the first: each answers from its own memo.
        grids = [fpp.GridSpec(lo=(0, 0), hi=(12, 8)), fpp.GridSpec(lo=(-6, -4), hi=(6, 4)),
                 fpp.GridSpec(lo=(0, 0), hi=(8, 12)), fpp.GridSpec(lo=(0, 0), hi=(12, 8))]
        si, ti = 3, 80
        for grid in grids:
            w = sample(exponential(), 1, grid.edge_count)
            _, picks, _, _ = fpp._sub_box(grid, si, ti)
            s, t = grid.vertex_coords(si), grid.vertex_coords(ti)
            want = sub_box_edges(grid, *sub_box_bounds(grid, s, t))[1]
            assert fpp._sub_weights(np.arange(grid.edge_count, dtype=float), picks).tolist() == want
            got = fpp.passage_time(fpp.WeightField(grid=grid, weights=w), s, t).distance
            assert got.hex() == oracle_labels(grid, w, si)[ti].hex()
        memos = [grid._sub_memo for grid in grids]
        assert len({id(m) for m in memos}) == 4 and all(list(m[1]) == [(si, ti)] for m in memos)
        assert len({id(m[1][si, ti]) for m in memos}) == 4

    @pytest.mark.parametrize("limit", ["pairs", "boxes"])
    def test_memo_starts_over(self, monkeypatch, limit):
        # Past _MEMO_PAIRS pairs, or sub-grids holding more edges than
        # _MEMO_BOXES grids, the memo is cleared; the answers do not change.
        monkeypatch.setattr(fpp, "_MEMO_PAIRS", 5 if limit == "pairs" else 10 ** 6)
        monkeypatch.setattr(fpp, "_MEMO_BOXES", 1 if limit == "boxes" else 10 ** 6)
        grid = fpp.GridSpec(lo=(-3, -2), hi=(9, 6))
        w = sample(exponential(), 2, grid.edge_count)
        field = fpp.WeightField(grid=grid, weights=w)
        full = oracle_labels(grid, w, grid.vertex_index((0, 0)))
        for ti in range(grid.vertex_count):
            t = grid.vertex_coords(ti)
            assert fpp.passage_time(field, (0, 0), t).distance.hex() == full[ti].hex()
            shapes, pairs = grid._sub_memo
            assert len(pairs) <= 5 or limit == "boxes"
            assert sum(g.edge_count for g in shapes.values()) <= 2 * grid.edge_count or (
                limit == "pairs")
            assert len(shapes) <= len(pairs)


class TestPrune:
    """The pruning of fact 2 against full solves of matrices built here
    (:func:`oracle_labels`, :func:`oracle_tree`): it keeps every edge of the
    oracle geodesic, so the pruned label at t is T bit for bit, and neither
    keeps nor labels anything outside the exact ellipse d_s + d_t <= B."""

    GRIDS = [fpp.GridSpec(lo=(-3, -3), hi=(10, 4)), fpp.GridSpec(lo=(-2, -2, -2), hi=(5, 2, 2))]
    LAWS = [parse_distribution(s) for s in ("gamma:shape=2", "beta:a=2,b=3", "exp:rate=1")]

    @staticmethod
    def case(rng, grid, kind, case):
        """(lo, w, s, t, B): lower bounds lo <= w, endpoints s != t,
        and a bound B >= T, the label at t under w.
        table: a continuous law's weights and their floor on a quantile
        table of 8 levels with tab[0] = 0, so an eighth of lo is 0.
        ties and response: exponential weights in even cases, tie-heavy ones
        in odd cases, where ties also sets a third of lo to 0.
        response: lo is w with one edge at 0, and B is (1 + MARGIN) times the
        label with that edge at 1e9, as single_edge_response bounds it."""
        s, t = rng.choice(grid.vertex_count, 2, replace=False)
        if kind == "table":
            law = TestPrune.LAWS[case % 3]
            u = rng.random(grid.edge_count)
            w = law._quantile(u)
            tab = law._quantile(np.arange(8) / 8.0)
            tab[0] = 0.0
            lo = tab[np.floor(u * 8).astype(int)]
        else:
            w = tie_heavy(rng, grid.edge_count) if case % 2 else rng.exponential(
                size=grid.edge_count)
            lo = w.copy()
            if kind == "ties" and case % 2:
                lo[rng.random(grid.edge_count) < 1 / 3] = 0.0
        if kind == "response":
            e = int(rng.integers(grid.edge_count))
            lo[e] = 0.0
            w = lo.copy()
            w[e] = rng.choice([0.3, 2.0, 1e9])
            top = np.where(np.arange(grid.edge_count) == e, 1e9, lo)
            return lo, w, s, t, oracle_labels(grid, top, s)[t] * (1 + fpp.MARGIN)
        label = oracle_labels(grid, w, s)[t]
        # Half the cases at B = T, all that fact 2 asks; the rest as the
        # pruned replicate bounds it: (1 + MARGIN) times the float sum of w
        # along the tree path under lo.
        if case % 4 < 2:
            return lo, w, s, t, label
        path = tree_edges(grid, oracle_tree(grid, lo, s)[1], s, t)
        return lo, w, s, t, float(w[list(path)].sum()) * (1 + fpp.MARGIN)

    @pytest.mark.parametrize("kind", ["table", "ties", "response"])
    @pytest.mark.parametrize("grid", GRIDS, ids=["d2", "d3"])
    def test_keeps_the_geodesic_inside_the_ellipse(self, monkeypatch, grid, kind):
        rng = np.random.default_rng(sum(map(ord, kind)) + grid.d)
        seen = collections.Counter()
        labels = []
        solve = fpp._solve
        monkeypatch.setattr(fpp, "_solve", lambda *a, **k: labels.append(solve(*a, **k))
                            or labels[-1])
        for case in range(60):
            lo, w, s, t, bound = self.case(rng, grid, kind, case)
            ds, dt = oracle_labels(grid, lo, s), oracle_labels(grid, lo, t)
            # A solve capped at B has the full labels up to B and inf past
            # it; the response passes such labels.
            capped = kind == "response" or case % 3 > 0
            d_src = np.where(ds <= bound, ds, np.inf) if capped else ds
            labels.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pruned = fpp._prune(grid, d_src, t, lo, bound)
            assert len(labels) == 1
            kept = np.flatnonzero(pruned != np.inf)
            assert pruned[kept].tobytes() == lo[kept].tobytes()
            assert np.all(pruned[np.setdiff1d(np.arange(grid.edge_count), kept)] == np.inf)
            full, pred = oracle_tree(grid, w, s)
            assert set(tree_edges(grid, pred, s, t)) <= set(kept.tolist())
            on_kept = np.where(pruned != np.inf, w, np.inf)
            assert oracle_labels(grid, on_kept, s)[t].hex() == full[t].hex()
            ellipse = bound * (1 + 1e-9)
            a, b = grid.edge_tails[kept], grid.edge_heads[kept]
            assert np.all(np.minimum(ds[a] + dt[b], ds[b] + dt[a]) + lo[kept] <= ellipse)
            searched = np.isfinite(labels[0])
            assert np.all(ds[searched] + dt[searched] <= ellipse)
            seen["capped"] += bool(np.isinf(d_src).any())
            seen["zero lo"] += bool(np.any(lo[kept] == 0.0))
            seen["ball wider"] += bool(np.any((dt <= bound) & (ds + dt > ellipse)))
        assert min(seen[k] for k in ("capped", "zero lo", "ball wider")) >= 10, seen


class TestBoxBias:
    def test_padding_doubling(self):
        # doubling the padding changes d(0, 16 e1) in at most 1% of 200 trials
        from fppvar.experiments import box_for_target
        n = 16
        g1 = box_for_target(2, n)
        pad2 = 2 * max(math.ceil(n / 2), 16)
        g2 = fpp.GridSpec(lo=(-pad2, -pad2), hi=(n + pad2, pad2))
        # restrict the big-box field to the small box pattern is not
        # meaningful; instead rerun the small field embedded in the big box,
        # whose edge e of the small box is big-box edge embed[e]
        embed = []
        for e in range(g1.edge_count):
            a, b = g1.edge_endpoints(e)
            axis = 0 if a[0] != b[0] else 1
            embed.append(g2.edge_index(a, axis))
        changed = 0
        dist = parse_distribution("exp:rate=1")
        for seed in range(200):
            f1 = fpp.field_from_distribution(g1, dist, seed)
            f2 = fpp.field_from_distribution(g2, dist, seed + 10_000)
            d1 = fpp.distances_from(f1, (0, 0))[g1.vertex_index((n, 0))]
            w2 = f2.weights.copy()
            w2[embed] = f1.weights
            emb = fpp.WeightField(grid=g2, weights=w2)
            d2 = fpp.distances_from(emb, (0, 0))[g2.vertex_index((n, 0))]
            if abs(d1 - d2) > 1e-9:
                changed += 1
        assert changed <= 2
