import hashlib
import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fppvar import cube_averaging as ca
from fppvar.cli import dispatch


class TestRank:
    def test_endpoints(self):
        assert ca.rank([0, 0, 0, 0]) == 1
        assert ca.rank([1, 1, 1, 1]) == 16

    def test_bijection_small(self):
        for n in (4, 9):
            ranks = sorted(ca.rank([(i >> j) & 1 for j in range(n)])
                           for i in range(1 << n))
            assert ranks == list(range(1, (1 << n) + 1))

    def test_flip_shift_bound_m2(self):
        bound = 2 * comb(4, 2)
        for mask in range(16):
            bits = [(mask >> j) & 1 for j in range(4)]
            r0 = ca.rank(bits)
            for q in range(4):
                bits[q] ^= 1
                assert abs(ca.rank(bits) - r0) <= bound
                bits[q] ^= 1

    def test_flip_shift_bound_m3(self):
        bound = ca.max_flip_rank_shift(3)
        for mask in range(512):
            bits = [(mask >> j) & 1 for j in range(9)]
            r0 = ca.rank(bits)
            for q in range(9):
                bits[q] ^= 1
                assert abs(ca.rank(bits) - r0) <= bound
                bits[q] ^= 1

    def test_round_trip_up_to_m8(self):
        rng = random.Random(0)
        for m in range(2, 9):
            n = m * m
            for _ in range(60):
                bits = [rng.randint(0, 1) for _ in range(n)]
                assert ca.unrank(ca.rank(bits), n) == bits

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, bits):
        assert ca.unrank(ca.rank(bits), len(bits)) == bits

    def test_length_validation(self):
        with pytest.raises(ValueError):
            ca.g_m([0, 1, 0], 2)
        with pytest.raises(ValueError):
            ca.rank([0, 2, 0])
        with pytest.raises(ValueError):
            ca.unrank(17, 4)

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError, match="0 or 1"):
            ca.rank([0.9, 1, 0, 0])
        assert ca.rank([True, False, 0.0, 1.0]) == ca.rank([1, 0, 0, 1])


class TestAveragingFunction:
    def test_m2_values(self):
        assert ca.g_m([0, 0, 0, 0], 2) == 0
        assert ca.g_m([1, 1, 1, 1], 2) == 2

    def test_m1_degenerate(self):
        assert ca.g_m([0], 1) == 0
        assert ca.g_m([1], 1) == 1

    def test_range(self):
        for m in (2, 3):
            vals = {ca.g_m([(i >> j) & 1 for j in range(m * m)], m)
                    for i in range(1 << (m * m))}
            assert vals <= set(range(m + 1))
            assert max(vals) == m
            assert min(vals) == 0

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_exhaustive_properties(self, m):
        rep = ca.verify_averaging_properties(m)
        assert rep.gradient_ok
        assert rep.level_bound_ok
        assert rep.max_level_prob <= 2.0 * rep.c1_value / m

    def test_m2_level_profile(self):
        rep = ca.verify_averaging_properties(2)
        # weight staircase: masses 5/16, 6/16, 5/16
        assert rep.max_level_prob == pytest.approx(6.0 / 16.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_exhaustive_matches_per_string_loop(self, m):
        # One g_m evaluation per string, counting cut points by hand, then
        # the flips by index.
        n, total = m * m, 1 << (m * m)
        bounds = ca.weight_boundaries(m)
        values = np.array([sum(1 for b in bounds if b <= bin(mask).count("1"))
                           for mask in range(total)])
        ids = np.arange(total)
        gradient_ok = all(np.all(np.abs(values - values[ids ^ (1 << q)]) <= 1)
                          for q in range(n))
        rep = ca.verify_averaging_properties(m)
        assert rep.gradient_ok == gradient_ok
        assert rep.max_level_prob == float(np.bincount(values).max()) / total

    def test_levels_match_boundary_count(self):
        want = [sum(1 for b in ca.weight_boundaries(4) if b <= w) for w in range(17)]
        assert ca._levels(4).tolist() == want
        # g_m at one string of each weight reads the same table
        assert [ca.g_m([1] * w + [0] * (16 - w), 4) for w in range(17)] == want
        assert type(ca.g_m([1] * 9 + [0] * 7, 4)) is int

    def test_levels_read_only(self):
        levels = ca._levels(3)
        with pytest.raises(ValueError):
            levels[0] = 1
        assert ca._levels(3) is levels and levels[0] == 0

    def test_m_checked_first(self):
        for call in (lambda: ca.g_m([], -1), lambda: ca.g_m([0.5], 0),
                     lambda: ca.verify_averaging_properties(0),
                     lambda: ca.level_probabilities(-2),
                     lambda: ca.random_vertex(np.zeros((2, 0)), 2)):
            with pytest.raises(ValueError, match="m must be >= 1"):
                call()

    def test_rejects_non_bits(self):
        for not_bits in ([0.5, 1.9, 1, 1], [0, 1, -1, 0], [0, 1, float("nan"), 0]):
            with pytest.raises(ValueError, match="0 or 1"):
                ca.g_m(not_bits, 2)
        for not_a_vector in ("0111", np.ones((2, 2))):
            with pytest.raises(ValueError, match="length 4"):
                ca.g_m(not_a_vector, 2)
        for bits in ([0, 1, 1, 1], [False, True, True, True], [0.0, 1.0, 1.0, 1.0],
                     np.array([0, 1, 1, 1], dtype=np.uint8)):
            assert ca.g_m(bits, 2) == 2

    def test_reports_golden(self):
        # SHA-256 of the reports' reprs, recorded when the check enumerated
        # all 2^(m^2) strings.
        reps = "\n".join(repr(ca.verify_averaging_properties(m)) for m in range(1, 5))
        assert hashlib.sha256(reps.encode()).hexdigest() == (
            "a18f9c7a6efb4b848bc195a7adca351900d24f7020c7dc362baba4098fc7be1f")

    @pytest.mark.parametrize("m", range(5, 33))
    def test_matches_binomial_oracle_up_to_m32(self, m):
        # independent route: the levels by hand from the cut points, each
        # weight class's mass by its binomial count
        n = m * m
        levels = [sum(1 for b in ca.weight_boundaries(m) if b <= w) for w in range(n + 1)]
        counts = [0] * (m + 1)
        for w, level in enumerate(levels):
            counts[level] += comb(n, w)
        top = max(counts) / (1 << n)
        rep = ca.verify_averaging_properties(m)
        assert rep.gradient_ok is all(abs(b - a) <= 1 for a, b in zip(levels, levels[1:]))
        assert rep.max_level_prob == top
        assert rep.c1_value == ca.c1_constant(m)
        assert rep.level_bound_ok is (top <= 2.0 * rep.c1_value / m)
        assert rep.gradient_ok and rep.level_bound_ok

    def test_refuses_m33(self, capsys):
        with pytest.raises(ValueError, match="m <= 32"):
            ca.verify_averaging_properties(33)
        assert dispatch(["averaging", "--m", "33", "--verify"]) == 2
        assert capsys.readouterr() == ("", "error: the averaging check is limited to m <= 32\n")

    def test_g_m_checks_length_before_the_table(self, monkeypatch):
        # Building the table for m = 10 000 would take hours.
        def no_table(m):
            raise AssertionError("the table was built")
        monkeypatch.setattr(ca, "_levels", no_table)
        with pytest.raises(ValueError, match="length 100000000"):
            ca.g_m([0], 10_000)

    def test_nondecreasing_along_rank_order(self):
        n = 9
        by_rank = sorted(((ca.rank([(i >> j) & 1 for j in range(n)]),
                           ca.g_m([(i >> j) & 1 for j in range(n)], 3))
                          for i in range(1 << n)))
        vals = [v for _, v in by_rank]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("m", [5, 6, 8, 12, 16, 32])
    def test_large_m_exact_binomial_counts(self, m):
        # independent route: group strings by weight, count with binomials
        levels = ca._levels(m)
        assert np.abs(np.diff(levels)).max() <= 1
        probs = ca.level_probabilities(m)
        assert max(probs) <= 2.0 * ca.c1_constant(m) / m
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        assert levels[0] == 0
        assert levels[m * m] == m

    def test_flip_gradient_spot_checks_large_m(self):
        rng = random.Random(8)
        for m in (5, 6, 7, 8):
            n = m * m
            for _ in range(30):
                bits = [rng.randint(0, 1) for _ in range(n)]
                v0 = ca.g_m(bits, m)
                q = rng.randrange(n)
                bits[q] ^= 1
                assert abs(ca.g_m(bits, m) - v0) <= 1


class TestCubeAndFlip:
    @pytest.mark.parametrize("n", [0, 1, 3, 6])
    def test_rows_are_bit_lists(self, n):
        rows = ca.cube(n)
        assert rows.shape == (1 << n, n)
        assert rows.tolist() == [[(i >> q) & 1 for q in range(n)] for i in range(1 << n)]

    def test_flip_matches_reevaluation(self):
        n = 5
        w = np.arange(1.0, n + 1)

        def f(x):  # exact in floats, one column per output
            s = x @ w
            return np.stack([s, s * s, x[:, 0] * x[:, -1] - x[:, 2]], axis=1)

        x = ca.cube(n)
        vals = f(x)
        for q in range(n):
            flipped = x.copy()
            flipped[:, q] = 1.0 - flipped[:, q]
            assert np.array_equal(ca.flip(vals, q), vals - f(flipped))


class TestRandomVertex:
    def test_zero_matrix(self):
        assert ca.random_vertex(np.zeros((2, 4), dtype=int), 2) == (0, 0)

    def test_ones_matrix(self):
        assert ca.random_vertex(np.ones((2, 4), dtype=int), 2) == (2, 2)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ca.random_vertex(np.zeros((3, 4), dtype=int), 2)
        with pytest.raises(ValueError):
            ca.random_vertex(np.zeros((2, 5), dtype=int), 2)

    def test_entry_validation(self):
        with pytest.raises(ValueError, match="0 or 1"):
            ca.random_vertex(np.array([[0, 1, 2, 0], [0, 0, 0, 0]]), 2)

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError, match="0 or 1"):
            ca.random_vertex(np.full((2, 9), 0.7), 2)
        with pytest.raises(ValueError, match="0 or 1"):
            ca.random_vertex(np.array([[0, 1, 1, 0], [0, 0, 0.5, 0]]), 2)
        mat = np.array([[0, 1, 1, 1], [1, 1, 1, 1]])
        for same in (mat.astype(bool), mat.astype(float), mat.tolist()):
            assert ca.random_vertex(same, 2) == (2, 2)

    @staticmethod
    def _per_row(mat, m):
        # reference: the cut points at or below each row's weight, by hand
        return tuple(sum(1 for b in ca.weight_boundaries(m) if b <= sum(row))
                     for row in mat.tolist())

    def test_matches_per_row_all_m2_matrices(self):
        for mat in ca.cube(8).astype(int).reshape(-1, 2, 4):
            assert ca.random_vertex(mat, 2) == self._per_row(mat, 2)

    def test_matches_per_row_seeded_m3(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            d = int(rng.integers(2, 4))
            mat = rng.integers(0, 2, size=(d, 9))
            assert ca.random_vertex(mat, d) == self._per_row(mat, 3)

    def test_point_probability_bound(self):
        # product of level bounds + 3 binomial standard errors (MC oracle)
        m, d, trials = 3, 2, 100_000
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2, size=(trials, d, m * m))
        # levels by hand: the cut points at or below each row's weight
        vals = (bits.sum(axis=2)[..., None] >= np.array(ca.weight_boundaries(m))).sum(axis=2)
        codes = vals[:, 0] * (m + 1) + vals[:, 1]
        top = np.bincount(codes).max() / trials
        bound = (2.0 * ca.c1_constant(m) / m) ** 2
        se = np.sqrt(top * (1 - top) / trials)
        assert top <= bound + 3 * se
