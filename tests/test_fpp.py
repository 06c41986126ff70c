import collections
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from fppvar import fpp
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
        edges = fpp._tree_edges(grid, pred, src, dst)
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
            fpp._tree_edges(grid, pred, src, dst)

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
        agree = 0
        trials = 0
        attempt_seed = 0
        rng = np.random.default_rng(1234)
        g = fpp.GridSpec(lo=(-3, -3), hi=(8, 6))
        v = (5, 2)
        while trials < 100:
            attempt_seed += 1
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
        assert agree >= 99

    def test_tie_verdicts_match_two_unlimited_solves(self):
        # The reference tie check: labels from both ends by two unlimited
        # solves of a matrix built here, and the same slack rule.  Jitter of
        # a few TIE_TOL puts slacks on both sides of the tolerance.
        rng = np.random.default_rng(31)
        g = fpp.GridSpec(lo=(-1, -1), hi=(5, 3))
        tails, heads = g.edge_tails, g.edge_heads
        verdicts = collections.Counter()
        for case in range(300):
            w = tie_heavy(rng, g.edge_count)
            w += rng.integers(0, 4, g.edge_count) * float(
                rng.choice([0.0, 0.5, 1.0, 2.0, 1e3, 1e9])) * fpp.TIE_TOL
            field = fpp.WeightField(grid=g, weights=w)
            v = (int(rng.integers(0, 6)), int(rng.integers(-1, 4)))
            res = fpp.passage_time(field, (0, 0), v)
            if case % 2 and res.geodesic_edges:
                e = int(rng.choice(res.geodesic_edges))
            else:
                e = int(rng.integers(g.edge_count))
            ds = oracle_labels(g, w, g.vertex_index((0, 0)))
            dt = oracle_labels(g, w, g.vertex_index(v))
            slack = np.minimum(ds[tails] + w + dt[heads], ds[heads] + w + dt[tails]) - res.distance
            off = np.ones(g.edge_count, dtype=bool)
            off[list(res.geodesic_edges)] = False
            tie = np.any(slack[off] <= fpp.TIE_TOL * max(1.0, res.distance))
            want = "tie" if tie else int(e in res.geodesic_edges)
            try:
                got = fpp.edge_derivative(field, v, e)
            except fpp.GeodesicTieError:
                got = "tie"
            assert got == want, case
            verdicts[want] += 1
        assert min(verdicts[k] for k in (0, 1, "tie")) >= 10, verdicts

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
        # A flat curve takes two solves; a rising one stops at the plateau,
        # and every solve after the first carries a limit.
        g = fpp.GridSpec(lo=(-4, -4), hi=(8, 6))
        field = fpp.field_from_distribution(g, "exp:rate=1", 3)
        limits = []
        solve = fpp._solve
        monkeypatch.setattr(fpp, "_solve",
                            lambda *a, **k: limits.append(k.get("limit")) or solve(*a, **k))
        ys = np.linspace(0.0, 30.0, 61)
        fpp.single_edge_response(field, (5, 0), g.edge_index((-4, -4), 0), ys)
        assert len(limits) == 2
        e = fpp.passage_time(field, (0, 0), (5, 0)).geodesic_edges[2]
        limits.clear()
        curve = fpp.single_edge_response(field, (5, 0), e, ys)
        assert curve.breakpoint > 0
        assert 3 < len(limits) < 61
        assert limits[0] is None and None not in limits[1:]


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
            from fppvar.cube_averaging import random_vertex
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
