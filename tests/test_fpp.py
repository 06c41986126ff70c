import math

import numpy as np
import pytest

from fppvar import fpp
from fppvar.edge_distributions import exponential, parse_distribution


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

    def test_sampling_reproducible(self):
        g = fpp.GridSpec(lo=(0, 0), hi=(3, 3))
        f1 = fpp.field_from_distribution(g, "exp:rate=1", 42)
        f2 = fpp.field_from_distribution(g, exponential(), 42)
        assert np.array_equal(f1.weights, f2.weights)
        assert np.all(f1.weights > 0)
        assert f1.provenance == ("exp:rate=1", 42)


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

    def test_unit_weights_smallest_index_geodesic(self):
        # 3x3 box: edges 0-5 run along axis 0 (index 3x + y), 6-11 along
        # axis 1 (6 + 2x + y).  Walking back from (2, 2), the smaller of the
        # two tight edges wins each time: 5 from (1, 2), then 2 from (0, 2),
        # then 7 and 6 down the y axis.  From (2, 0) to (0, 2) the smaller
        # edges are crossed from head to tail: back from (0, 2) the walk takes
        # 2 (not 7), 5 (not 9), then 11 and 10.
        g = fpp.GridSpec(lo=(0, 0), hi=(2, 2))
        f = fpp.WeightField(grid=g, weights=np.ones(g.edge_count))
        res = fpp.passage_time(f, (0, 0), (2, 2))
        assert res.distance == 4.0
        assert res.geodesic_edges == (6, 7, 2, 5)
        assert fpp.passage_time(f, (2, 0), (0, 2)).geodesic_edges == (10, 11, 5, 2)

    def test_zero_weights_brute_force_3x3(self):
        grid = fpp.GridSpec(lo=(0, 0), hi=(2, 2))
        paths = enumerate_simple_paths(grid, (0, 0), (2, 2))
        rng = np.random.default_rng(5)
        fields = [np.zeros(grid.edge_count)]
        fields += [rng.integers(0, 3, grid.edge_count).astype(float) for _ in range(50)]
        for w in fields:
            field = fpp.WeightField(grid=grid, weights=w)
            res = fpp.passage_time(field, (0, 0), (2, 2))
            assert res.distance == min(sum(w[e] for e in p) for p in paths)
            cur = grid.vertex_index((0, 0))
            for e in res.geodesic_edges:
                t, h = int(grid.edge_tails[e]), int(grid.edge_heads[e])
                assert cur in (t, h)
                cur = h if cur == t else t
            assert cur == grid.vertex_index((2, 2))
            assert sum(w[e] for e in res.geodesic_edges) == res.distance

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
        changed = 0
        dist = parse_distribution("exp:rate=1")
        for seed in range(200):
            f1 = fpp.field_from_distribution(g1, dist, seed)
            f2 = fpp.field_from_distribution(g2, dist, seed + 10_000)
            d1 = fpp.distances_from(f1, (0, 0))[g1.vertex_index((n, 0))]
            # restrict the big-box field to the small box pattern is not
            # meaningful; instead rerun the small field embedded in the big box
            w2 = f2.weights.copy()
            for e in range(g1.edge_count):
                a, b = g1.edge_endpoints(e)
                axis = 0 if a[0] != b[0] else 1
                w2[g2.edge_index(a, axis)] = f1.weights[e]
            emb = fpp.WeightField(grid=g2, weights=w2)
            d2 = fpp.distances_from(emb, (0, 0))[g2.vertex_index((n, 0))]
            if abs(d1 - d2) > 1e-9:
                changed += 1
        assert changed <= 2
