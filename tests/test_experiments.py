import dataclasses
import functools
import math
import multiprocessing as mp
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from fppvar import experiments as ex
from fppvar import fpp
from fppvar.edge_distributions import (_FAMILIES, _U_HI, _uniforms, beta_family, chi2_family,
                                       exponential, gamma_family, half_normal, parse_distribution,
                                       sample)

DIST = exponential()
PRUNED_LAWS = ["gamma:shape=2", "gamma:shape=0.7,rate=3.3", "beta:a=2,b=3",
               "beta:a=0.5,b=0.5", "chi2:k=3,alpha=0.5"]


class TestBox:
    def test_padding_rule(self):
        g = ex.box_for_target(2, 8)
        assert g.lo == (-16, -16)
        assert g.hi == (24, 16)
        g = ex.box_for_target(2, 64)
        assert g.lo == (-32, -32)
        assert g.hi == (96, 32)

    def test_higher_dimension(self):
        g = ex.box_for_target(3, 8)
        assert g.d == 3
        assert g.hi == (24, 16, 16)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_padding_doubling(self, n):
        # 200 acceptance-sweep fields per n, each embedded in a box with twice
        # the padding: its own weights on its own edges, the new edges drawn
        # from another seed.  The passage time must keep its bits.
        seed = 20260810
        box = ex.box_for_target(2, n)
        pad = 2 * max(math.ceil(n / 2), 16)
        big = fpp.GridSpec(lo=(-pad, -pad), hi=(n + pad, pad))
        embed = []
        for e in range(box.edge_count):
            tail, head = box.edge_endpoints(e)
            embed.append(big.edge_index(tail, 0 if tail[1] == head[1] else 1))
        changed = []
        for r in range(200):
            w = sample(DIST, np.random.SeedSequence((seed, n, r)), box.edge_count)
            wide = sample(DIST, np.random.SeedSequence((seed + 1, n, r)), big.edge_count)
            wide[embed] = w
            t = fpp.distances_from(fpp.WeightField(grid=box, weights=w), (0, 0))[
                box.vertex_index((n, 0))]
            t_big = fpp.distances_from(fpp.WeightField(grid=big, weights=wide), (0, 0))[
                big.vertex_index((n, 0))]
            if t.hex() != t_big.hex():
                changed.append((r, float(t), float(t_big)))
        assert changed == []


class TestEstimateVariance:
    def test_deterministic(self):
        a = ex.estimate_variance(DIST, 2, 8, 200, seed=5)
        b = ex.estimate_variance(DIST, 2, 8, 200, seed=5)
        assert a == b

    def test_workers_do_not_change_result(self):
        a = ex.estimate_variance(DIST, 2, 8, 200, seed=5, workers=1)
        b = ex.estimate_variance(DIST, 2, 8, 200, seed=5, workers=3)
        assert a == b

    def test_pilot_band(self):
        # regression guard frozen from a pilot run (mean/n ~ 0.57 at n=8)
        est = ex.estimate_variance(DIST, 2, 8, 500, seed=99)
        assert 0.3 <= est.mean_over_n <= 0.7

    def test_fields_and_moments_sane(self):
        est = ex.estimate_variance(DIST, 2, 8, 300, seed=1)
        assert est.var > 0
        assert est.se_var > 0
        assert est.se_var == pytest.approx(est.var * math.sqrt(2.0 / 299.0))
        assert est.jackknife_ok

    def test_row_set_up_once_per_call(self, monkeypatch):
        # A serial row is set up once, not once per chunk of 64, and no
        # row carries over: two identical calls set their rows up twice.
        timings = []
        pays = ex._pruned_pays
        monkeypatch.setattr(ex, "_pruned_pays", lambda *t: timings.append(t) or pays(*t))
        rows = [ex.estimate_variance(DIST, 2, 8, 200, seed=5) for _ in range(2)]
        assert len(timings) == 2 and rows[0] == rows[1]

    def test_one_pool_per_sweep(self, monkeypatch):
        # A sweep opens one pool for every chunk of 64 of every row, of no
        # more processes than those chunks: 3 rows of 2 chunks on 8 workers
        # give one pool of 6.  A single row gets at most its own chunks.
        sizes = []
        pool = ex.mp.Pool
        monkeypatch.setattr(ex, "mp", SimpleNamespace(
            Pool=lambda processes: sizes.append(processes) or pool(processes)))
        swept = ex.sweep(DIST, 2, [4, 6, 8], 100, 1, workers=8)
        assert sizes == [6]
        rows = [ex.estimate_variance(DIST, 2, 4, samples, 1, workers)
                for samples, workers in ((100, 8), (300, 2), (200, 3))]
        assert sizes == [6, 2, 2, 3]
        assert swept.rows[0] == rows[0]
        assert swept == ex.sweep(DIST, 2, [4, 6, 8], 100, 1, workers=1)

    def test_largest_rows_first(self, monkeypatch):
        # The pool meets the chunks of the largest row first, each row's in
        # replicate order, so a process sets each row up at most once; a
        # serial sweep sets each row up once.
        tasks = []

        class Pool:
            def __init__(self, processes):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=None):
                tasks.extend(items)
                return list(map(fn, items))

        tables = []
        lower_table = ex._lower_table
        monkeypatch.setattr(ex, "_lower_table", lambda dist: tables.append(dist) or lower_table(dist))
        serial = ex.sweep(DIST, 2, [4, 6, 8], 150, 1, workers=1)
        assert len(tables) == 3
        monkeypatch.setattr(ex, "mp", SimpleNamespace(Pool=Pool))
        assert ex.sweep(DIST, 2, [4, 6, 8], 150, 1, workers=2) == serial
        ns = [row[2] for row, _ in tasks]
        assert ns == sorted(ns, reverse=True) and sorted(set(ns)) == [4, 6, 8]
        for n in (4, 6, 8):
            assert [r for row, chunk in tasks if row[2] == n for r in chunk] == list(range(150))
        assert len(tables) == 6

    def test_sweep_checks_every_row_before_any_runs(self, monkeypatch):
        def no_run(*args):
            raise AssertionError("a row ran")

        monkeypatch.setattr(ex, "_replicate_values", no_run)
        monkeypatch.setattr(ex, "estimate_variance", no_run)
        for ns, samples, workers in (([1, 8], 200, 1), ([8, 16], 50, 1), ([8, 16], 200, 0)):
            with pytest.raises(ValueError):
                ex.sweep(DIST, 2, ns, samples, 0, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bad, message", [
        ({"seed": -1}, "seed must be a nonnegative integer"),
        ({"seed": 1.5}, "seed must be a nonnegative integer"),
        ({"seed": True}, "seed must be a nonnegative integer"),
        ({"n_list": [4, 8.5]}, "each n must be an integer >= 2"),
        ({"n_list": [4.0, 8]}, "each n must be an integer >= 2"),
        ({"n_list": [True, 4]}, "each n must be an integer >= 2"),
        ({"samples": 150.5}, "samples must be an integer >= 100"),
        ({"samples": True}, "samples must be an integer >= 100"),
        ({"d": 2.5}, "dimension must be an integer >= 2"),
        ({"d": True}, "dimension must be an integer >= 2"),
        ({"workers": 1.5}, "workers must be an integer >= 1"),
        ({"workers": True}, "workers must be an integer >= 1"),
    ], ids=["-1", "1.5", "True", "n-8.5", "n-4.0", "n-True", "samples-150.5",
            "samples-True", "d-2.5", "d-True", "workers-1.5", "workers-True"])
    def test_bad_seed_refused_before_any_row_set_up(self, monkeypatch, bad, message, workers):
        # Each is refused before any row is set up, at any worker count.
        # numpy's SeedSequence refuses seed -1 and 1.5 only in the first
        # replicate, after the set-up, and takes True as 1, which the CSV
        # would record as True; a float n, samples, d or workers would set
        # rows up or fail inside, and workers=True would run as 1.  The
        # bad workers cases replace the workers parameter.
        def no_set_up(dist):
            raise AssertionError("a row was set up")

        monkeypatch.setattr(ex, "_lower_table", no_set_up)
        args = {"d": 2, "n_list": [4], "samples": 100, "seed": 1, "workers": workers, **bad}
        with pytest.raises(ValueError, match=message):
            ex.sweep(DIST, **args)

    def test_solver_loads_before_the_pool_forks(self):
        # Forked workers inherit the graph solver, and no worker's set-up
        # timing includes its import.  A fresh interpreter: this one has
        # loaded the solver already.
        code = textwrap.dedent("""
            import multiprocessing as mp
            import sys
            from types import SimpleNamespace
            from fppvar import experiments as ex
            from fppvar.edge_distributions import exponential

            mp.set_start_method("fork")
            seen = ["scipy.sparse.csgraph" in sys.modules]
            pool = ex.mp.Pool
            ex.mp = SimpleNamespace(Pool=lambda processes: seen.append(
                "scipy.sparse.csgraph" in sys.modules) or pool(processes))
            ex.estimate_variance(exponential(), 2, 4, 128, 1, workers=2)
            print(seen)
        """)
        src = str(pathlib.Path(ex.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[False, True]\n"

    def test_validation(self):
        with pytest.raises(ValueError):
            ex.estimate_variance(DIST, 2, 8, 50, seed=0)
        with pytest.raises(ValueError):
            ex.estimate_variance(DIST, 2, 1, 200, seed=0)
        with pytest.raises(ValueError):
            ex.estimate_variance(DIST, 1, 8, 200, seed=0)
        with pytest.raises(ValueError):
            ex.estimate_variance(DIST, 2, 8, 200, seed=0, workers=0)


class TestSweep:
    def test_rows_and_csv(self):
        res = ex.sweep(DIST, 2, [8, 16], 150, seed=3)
        csv = res.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == ex.CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "8"
        assert first[1] == "150"
        assert first[-1] == "3"
        # derived columns consistent with the row values
        row = res.rows[0]
        assert float(first[6]) == pytest.approx(row.var / row.n)
        assert float(first[7]) == pytest.approx(row.var * math.log(row.n) / row.n)

    def test_duplicate_n_rejected(self):
        with pytest.raises(ValueError):
            ex.sweep(DIST, 2, [8, 8, 16], 150, seed=0)
        with pytest.raises(ValueError):
            ex.sweep(DIST, 2, [16, 8], 150, seed=0)
        with pytest.raises(ValueError):
            ex.sweep(DIST, 2, [], 150, seed=0)
        with pytest.raises(ValueError):
            ex.sweep(DIST, 2, [8, 16], 150, seed=0, workers=-3)

    def test_csv_identical_across_workers(self):
        a = ex.sweep(DIST, 2, [8, 16], 150, seed=3, workers=1).to_csv()
        b = ex.sweep(DIST, 2, [8, 16], 150, seed=3, workers=4).to_csv()
        assert a == b

    @pytest.mark.parametrize("workers", [1, 2])
    def test_samples_the_exact_law(self, workers):
        # the name rounds the rate to 1.23457; replicates must use the law itself
        # and each row's values come back in replicate order.
        dist = exponential(1.23456789)
        ns, samples, seed = [3, 4], 100, 11
        want = []
        for n in ns:
            grid = ex.box_for_target(2, n)
            want.append([])
            for r in range(samples):
                w = sample(dist, np.random.SeedSequence((seed, n, r)), grid.edge_count)
                field = fpp.WeightField(grid=grid, weights=w)
                want[-1].append(fpp.distances_from(field, (0, 0))[grid.vertex_index((n, 0))])
        got = ex._replicate_values(dist, 2, ns, samples, seed, workers)
        assert len(got) == 2 and all(np.array_equal(g, np.array(v)) for g, v in zip(got, want))

    def test_subadditivity_of_means(self):
        # mean/n is nonincreasing along doubling n, up to Monte Carlo noise
        res = ex.sweep(DIST, 2, [8, 16], 400, seed=21)
        a, b = res.rows
        se = math.hypot(math.sqrt(a.var / a.samples) / a.n,
                        math.sqrt(b.var / b.samples) / b.n)
        assert b.mean_over_n <= a.mean_over_n + 3 * se


class TestFitScaling:
    def _fake(self, ns, variances):
        rows = tuple(ex.VarianceEstimate(n=n, samples=100, mean=float(n), var=v,
                                         se_var=0.1, mean_over_n=1.0, seed=0,
                                         jackknife_se=0.1, jackknife_ok=True)
                     for n, v in zip(ns, variances))
        return ex.SweepResult(rows=rows)

    def test_linear_slope(self):
        res = self._fake([8, 16, 32, 64], [8.0, 16.0, 32.0, 64.0])
        fit = ex.fit_scaling(res)
        assert fit.slope_loglog == pytest.approx(1.0, abs=1e-12)

    def test_exact_sublinear_model(self):
        ns = [8, 16, 32, 64]
        res = self._fake(ns, [n / math.log(n) for n in ns])
        fit = ex.fit_scaling(res)
        assert fit.ratio_bound == pytest.approx(1.0, abs=1e-12)

    def test_needs_three_rows(self):
        with pytest.raises(ValueError):
            ex.fit_scaling(self._fake([8, 16], [1.0, 2.0]))

    def test_real_sweep_sublinear(self):
        res = ex.sweep(DIST, 2, [8, 16, 32], 400, seed=77)
        fit = ex.fit_scaling(res)
        assert fit.slope_loglog < 1.0


class TestPoolInitializerFailure:
    def test_raises_like_one_worker(self):
        # mp.Pool replaces a worker whose initializer raises, for good, so a
        # pool sweep once hung here.  The child process has a deadline, which
        # turns a hang into a failure instead of a stuck suite.  A row set-up
        # that fails, in a one-row call and at the second row of a sweep.
        code = textwrap.dedent("""
            import multiprocessing as mp
            from fppvar import experiments as ex
            from fppvar.edge_distributions import exponential

            def no_table(dist):
                raise ValueError("no quantile table")

            def no_box_at_16(d, n, box=ex.box_for_target):
                if n == 16:
                    raise ValueError("no box at n=16")
                return box(d, n)

            mp.set_start_method("fork")
            runs = [("_lower_table", no_table,
                     lambda w: ex.estimate_variance(exponential(), 2, 8, 200, 1, workers=w)),
                    ("box_for_target", no_box_at_16,
                     lambda w: ex.sweep(exponential(), 2, [8, 16], 200, 1, workers=w))]
            for name, fail, run in runs:
                saved = getattr(ex, name)
                setattr(ex, name, fail)
                for workers in (1, 2):
                    try:
                        run(workers)
                    except ValueError as exc:
                        print(workers, repr(exc))
                setattr(ex, name, saved)
        """)
        src = str(pathlib.Path(ex.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=env,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("a failing row set-up hung the sweep")
        assert proc.returncode == 0, err
        assert out.splitlines() == [f"{w} ValueError('{msg}')" for msg in (
            "no quantile table", "no box at n=16") for w in (1, 2)]


@pytest.fixture
def force_pruned(monkeypatch):
    monkeypatch.setattr(ex, "_pruned_pays", lambda *timings: True)


@pytest.fixture
def force_plain(monkeypatch):
    monkeypatch.setattr(ex, "_pruned_pays", lambda *timings: False)


@functools.cache
def _box(d, n):
    return ex.box_for_target(d, n)


def _set_up(dist, d, n, seed):
    """The row, set up afresh in this process under the current path choice."""
    ex._row.cache_clear()
    return ex._row(dist, d, n, seed)


class _Law(SimpleNamespace):
    """A stub law, hashable as the row set-up's cache needs."""
    __hash__ = object.__hash__


def _replicate_ok(path, dist, d, n, seed, r) -> bool:
    """Whether replicate r takes ``path`` ("pruned" or "plain") and its value
    equals, bit for bit, the label of the full field that ``sample`` draws
    for it; on the pruned path, also whether every table lower bound sits at
    or below its edge's weight.  The row is the one set up in this process."""
    row = ex._row(dist, d, n, seed)
    tab = row.tab
    grid = _box(d, n)
    field = fpp.WeightField(grid=grid, weights=sample(
        dist, np.random.SeedSequence((seed, n, r)), grid.edge_count))
    want = float(fpp.distances_from(field, (0,) * d)[grid.vertex_index((n,) + (0,) * (d - 1))])
    if path == "plain":
        took = tab is None
    else:
        u = _uniforms(np.random.SeedSequence((seed, n, r)), grid.edge_count)
        took = (tab is not None
                and bool(np.all(tab[np.floor(u * ex.TABLE_SIZE).astype(int)] <= field.weights)))
    return took and row.solve(row.levels(r)).hex() == want.hex()


def check_replicates(path, dist, d, n, seed, replicates, workers=1):
    """Check replicates 0..replicates-1 on ``path``, in ``workers`` processes
    when more than one (the full-field draws and solves dominate the cost);
    they are forked, so they inherit a patched path choice."""
    args = [(path, dist, d, n, seed, r) for r in range(replicates)]
    ex._row.cache_clear()
    if workers == 1:
        ok = [_replicate_ok(*a) for a in args]
    else:
        with mp.get_context("fork").Pool(workers, ex._row, (dist, d, n, seed)) as pool:
            ok = pool.starmap(_replicate_ok, args, chunksize=16)
    assert [r for r in range(replicates) if not ok[r]] == []


def _strip_edges(grid, n):
    """Box index of each edge of the strip [0, n] x [-SUB_PAD, SUB_PAD]^(d-1),
    in strip edge order, through the public edge lookups alone."""
    d = grid.d
    strip = fpp.GridSpec(lo=(0,) + (-fpp.SUB_PAD,) * (d - 1), hi=(n,) + (fpp.SUB_PAD,) * (d - 1))
    out = []
    for e in range(strip.edge_count):
        tail, head = strip.edge_endpoints(e)
        out.append(grid.edge_index(tail, [h - t for t, h in zip(tail, head)].index(1)))
    return strip, np.array(out)


class TestPlainReplicate:
    # 4000 d=2 replicates, 80 in d=3, where the full-box oracle costs ~20 ms.
    @pytest.mark.parametrize("d, n, replicates", [
        (2, 2, 1000), (2, 3, 1000), (2, 8, 1000), (2, 16, 600), (2, 32, 400),
        (3, 2, 40), (3, 4, 40)])
    def test_matches_full_field(self, force_plain, d, n, replicates):
        check_replicates("plain", DIST, d, n, 1, replicates, workers=2)

    @pytest.mark.parametrize("spec", ["uniform", "halfnormal", "gamma:shape=2"])
    def test_matches_full_field_other_laws(self, force_plain, spec):
        check_replicates("plain", parse_distribution(spec), 2, 8, 3, 100)

    @pytest.mark.parametrize("d, n", [(2, 2), (2, 8), (3, 4)])
    def test_strip_edges_are_the_box_edges(self, force_plain, d, n):
        # A plain row's first replicate leaves the strip in the box's query memo.
        row = _set_up(DIST, d, n, 0)
        row.solve(row.levels(0))
        strip, edges = _strip_edges(_box(d, n), n)
        grid = row.grid
        shapes, pairs = grid._sub_memo
        assert list(pairs) == [(row.src, row.dst)]
        got, picks, got_src, got_dst = pairs[row.src, row.dst]
        assert got.extents == strip.extents and list(shapes.values()) == [got]
        assert np.array_equal(fpp._sub_weights(np.arange(grid.edge_count, dtype=float), picks),
                              edges)
        assert got_src == strip.vertex_index((0,) * d)
        assert got_dst == strip.vertex_index((n,) + (0,) * (d - 1))

    def test_geodesic_off_the_strip(self, force_plain):
        # Strip edges cost about 11.5 against 0.36-1.2 for the field around
        # them, so the geodesic leaves the strip and the strip's label X
        # exceeds T.
        n = 8
        grid = _box(2, n)
        strip, edges = _strip_edges(grid, n)
        u = np.random.default_rng(5).uniform(0.3, 0.7, grid.edge_count)
        u[edges] = 1.0 - 1e-5
        weights = DIST._quantile(u)
        row = _set_up(DIST, 2, n, 0)
        want = float(fpp.distances_from(fpp.WeightField(grid=grid, weights=weights),
                                        (0, 0))[grid.vertex_index((n, 0))])
        cap = fpp.distances_from(fpp.WeightField(grid=strip, weights=weights[edges]),
                                 (0, 0))[strip.vertex_index((n, 0))]
        assert cap > want
        assert row.solve(u).hex() == want.hex()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_weights_fail_loudly(self, force_plain, bad):
        # A law whose quantile is the identity hands ``solve`` its weights.
        row = dataclasses.replace(_set_up(DIST, 2, 4, 0), dist=_Law(_quantile=lambda u: u))
        weights = np.ones(row.grid.edge_count)
        weights[-1] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            row.solve(weights)


class TestPrunedReplicate:
    # 2004 replicates with the d=3 box; the cheaper the full-field draw, the
    # more of them.
    @pytest.mark.parametrize("spec, n, replicates", [
        *[(spec, 8, count) for spec, count in zip(PRUNED_LAWS, (400, 200, 200, 850, 200))],
        *[(spec, 32, 30) for spec in PRUNED_LAWS]])
    def test_matches_full_field(self, force_pruned, spec, n, replicates):
        check_replicates("pruned", parse_distribution(spec), 2, n, 1, replicates, workers=2)

    def test_matches_full_field_d3(self, force_pruned):
        check_replicates("pruned", parse_distribution("gamma:shape=2"), 3, 4, 2, 4, workers=2)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(
        st.builds(gamma_family, st.floats(0.2, 20.0), st.floats(0.1, 10.0)),
        st.builds(beta_family, st.floats(0.2, 10.0), st.floats(0.2, 10.0)),
        st.builds(chi2_family, st.floats(0.4, 20.0), st.floats(0.1, 5.0))),
        st.integers(0, 2**32 - 1))
    def test_matches_full_field_drawn_laws(self, dist, seed):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ex, "_pruned_pays", lambda *timings: True)
            check_replicates("pruned", dist, 2, 2, seed, 1)

    # Every family's defaults, and a support that starts above 0.
    @pytest.mark.parametrize("spec", PRUNED_LAWS + ["exp:rate=1", "uniform", "uniform:lo=0.5,hi=2"]
                             + sorted(set(_FAMILIES) - {"uniform"}))
    def test_table_is_the_quantile_at_its_levels(self, spec):
        dist = parse_distribution(spec)
        tab, draw_s = ex._lower_table(dist)
        assert draw_s > 0
        # tab[0] = Q(0) is the lower end of the support, bit for bit.
        assert tab[:1].tobytes() == np.array([dist.lo]).tobytes()
        assert np.array_equal(tab, dist.ppf(np.arange(ex.TABLE_SIZE) / ex.TABLE_SIZE))
        assert np.all(np.diff(tab) >= 0)

    def test_infinite_top_quantile_keeps_the_plain_path(self, force_pruned):
        # A law whose quantile is inf at the largest level a draw can take.
        dist = _Law(_quantile=lambda p: np.where(p < _U_HI, p, np.inf))
        assert ex._lower_table(dist)[0] is None
        assert _set_up(dist, 2, 4, 0).tab is None

    def test_half_normal_top_quantile_is_finite(self, force_pruned):
        # Draws stop at 1 - 2^-52: at 1 - 2^-53, (1 + u) / 2 rounds to 1 in
        # scipy's halfnormal ndtri((1 + u) / 2), which is inf.
        assert ex._lower_table(half_normal())[0] is not None
        check_replicates("pruned", half_normal(), 2, 4, 0, 4)

    def test_top_level_draws_give_finite_replicates(self, monkeypatch):
        # Levels are clipped to 1 - 2^-52, where the table's validity check
        # reads the quantile: at 1 - 2^-53 the halfnormal quantile is inf.
        fake = SimpleNamespace(random=lambda n: np.full(n, 1.0 - 2.0 ** -53))
        values = []
        for pays in (False, True):
            monkeypatch.setattr(ex, "_pruned_pays", lambda *timings, pays=pays: pays)
            row = _set_up(half_normal(), 2, 4, 0)
            with monkeypatch.context() as patch:
                patch.setattr(np.random, "default_rng", lambda seed: fake)
                values.append(row.solve(row.levels(0)))
        assert values[0] == values[1] == 4 * half_normal()._quantile(np.array([_U_HI]))[0]

    def test_bound_folds_from_the_source(self):
        # The straight path from s to t = 3 e1 has the weights 2^-53, 2^-53
        # and 1 from s, and every other edge costs 10.  Folded from s they
        # give fl(2^-52 + 1) = 1 + 2^-52 = T; folded from t, 1.0 < T, which
        # would cap the last solve below T.  The table is the quantile at
        # every level drawn, so the lower bounds are the weights and their
        # tree path is the straight path.
        grid = fpp.GridSpec(lo=(0, -1), hi=(3, 1))
        tab = np.full(ex.TABLE_SIZE, 10.0)
        tab[:2] = 2.0 ** -53, 1.0
        level = np.full(grid.edge_count, 2)
        level[[grid.edge_index((x, 0), 0) for x in range(3)]] = 0, 0, 1
        law = SimpleNamespace(_quantile=lambda p: tab[(p * ex.TABLE_SIZE).astype(int)])
        s, t = grid.vertex_index((0, 0)), grid.vertex_index((3, 0))
        row = ex._Row(dist=law, grid=grid, n=3, seed=0, src=s, dst=t, tab=tab)
        upper = csr_matrix((tab[level], (grid.edge_tails, grid.edge_heads)),
                           shape=(grid.vertex_count,) * 2)
        want = dijkstra(upper, directed=False, indices=s)[t]
        assert want == 1.0 + 2.0 ** -52
        assert row.solve(level / ex.TABLE_SIZE).hex() == want.hex()

    def test_stops_at_the_bound_path(self, force_pruned, monkeypatch):
        # A replicate whose kept edges are its bound path returns the path's
        # fold after two solves; the others solve a third time.  Both occur,
        # and every value is the full field's.
        dist, n, seed, replicates = parse_distribution("gamma:shape=2"), 32, 1, 200
        row = _set_up(dist, 2, n, seed)
        solves = []
        solve = fpp._solve
        monkeypatch.setattr(fpp, "_solve", lambda *a, **k: solves.append(1) or solve(*a, **k))
        counts = []
        for r in range(replicates):
            before = len(solves)
            row.solve(row.levels(r))
            counts.append(len(solves) - before)
        monkeypatch.setattr(fpp, "_solve", solve)
        assert set(counts) == {2, 3}
        check_replicates("pruned", dist, 2, n, seed, replicates, workers=2)

    def test_bad_exact_weights_fail_loudly(self):
        # Levels 0 and 1 have the lower bound 1, level 2 the bound 10, and
        # the exact weights (a, b, 10).  The straight path from s to t = 3 e1
        # takes level 0 and the detour through y = 1 level 1.  The straight
        # path is the bound path; with a = 2 it folds to 6, so the detour,
        # 5 long under the bounds, is kept too.  A bad a fails the bound
        # path's check, a bad b the kept edges'; 0.5 is below its bound.
        grid = fpp.GridSpec(lo=(0, -1), hi=(3, 1))
        tab = np.full(ex.TABLE_SIZE, 10.0)
        tab[:2] = 1.0
        level = np.full(grid.edge_count, 2)
        level[[grid.edge_index((x, 0), 0) for x in range(3)]] = 0
        level[[grid.edge_index((x, 1), 0) for x in range(3)]] = 1
        level[[grid.edge_index((x, 0), 1) for x in (0, 3)]] = 1
        s, t = grid.vertex_index((0, 0)), grid.vertex_index((3, 0))
        bads = (np.nan, np.inf, -1.0, 0.5)
        for exact in [*([bad, 2.0, 10.0] for bad in bads), *([2.0, bad, 10.0] for bad in bads)]:
            law = _Law(_quantile=lambda p, q=np.array(exact): q[(p * ex.TABLE_SIZE).astype(int)])
            row = ex._Row(dist=law, grid=grid, n=3, seed=0, src=s, dst=t, tab=tab)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                row.solve(level / ex.TABLE_SIZE)

    def test_path_choice_is_a_function_of_the_timings(self, monkeypatch):
        edges = 1000
        solve_s = 1e-3
        at = ex.BREAK_EVEN * solve_s / edges
        for scale in (0.01, 1.0, 100.0):  # a busy host slows both timings
            assert ex._pruned_pays(1.01 * at * scale, solve_s * scale, edges)
            assert not ex._pruned_pays(0.99 * at * scale, solve_s * scale, edges)
        choices = []
        pays = ex._pruned_pays

        def spy(*timings):
            choices.append(pays(*timings))
            return choices[-1]

        monkeypatch.setattr(ex, "_pruned_pays", spy)
        for spec in ("exp:rate=1", "beta:a=2,b=3"):
            assert (_set_up(parse_distribution(spec), 2, 8, 1).tab is not None) == choices[-1]
        assert choices == [False, True]

    def test_rows_do_not_depend_on_the_path(self, monkeypatch):
        dist = parse_distribution("gamma:shape=2")
        rows = []
        for pays in (False, True):
            monkeypatch.setattr(ex, "_pruned_pays", lambda *timings, pays=pays: pays)
            rows.append(ex.estimate_variance(dist, 2, 8, 120, seed=4, workers=2))
        assert rows[0] == rows[1]


def _symmetry(grid):
    """The edge permutation p of the lattice symmetry that fixes the sweep
    box, its strip, the source and the target: x2 -> -x2 in d=2, the swap
    of axes 1 and 2 in d=3.  Edge e of the image u[p] of levels u is the
    image of edge p[e]."""
    blocks = [np.arange(a, b).reshape(shape) for a, b, shape in grid._edge_blocks]
    if grid.d == 2:
        return np.concatenate([np.flip(block, 1).ravel() for block in blocks])
    return np.concatenate([blocks[k].transpose(0, 2, 1).ravel() for k in (0, 2, 1)])


def _bound_path(row, u):
    """The sorted edges of the pruned replicate's bound path on levels u: the
    tree path to the target under the table's lower bounds."""
    lower = row.tab[(u * ex.TABLE_SIZE).astype(np.intp)]
    pred = fpp._solve(row.grid, lower, row.src, return_predecessors=True)[1]
    return np.sort(fpp._tree_path(row.grid, pred, row.src, row.dst)[1])


class TestSymmetry:
    """A symmetry of the box that fixes the source and the target maps each
    path between them to one with the same weights in the same order, and a
    label is the least left fold over paths (fact 1 in the ``fpp`` module
    docstring).  So ``solve`` gives the image of the levels the same bits,
    on both paths; the symmetry moves every edge index and sub-box pick."""

    @pytest.mark.parametrize("path, spec", [("plain", "exp"), ("pruned", "gamma:shape=2")])
    @pytest.mark.parametrize("d, n, replicates", [
        (2, 8, 300), (2, 16, 300), (2, 32, 200), (3, 4, 30), (3, 8, 30)])
    def test_image_keeps_the_bits(self, monkeypatch, path, spec, d, n, replicates):
        monkeypatch.setattr(ex, "_pruned_pays", lambda *timings: path == "pruned")
        row = _set_up(parse_distribution(spec), d, n, 1)
        assert (row.tab is None) == (path == "plain")
        p = _symmetry(row.grid)
        levels = [row.levels(r) for r in range(replicates)]
        assert [r for r, u in enumerate(levels) if row.solve(u[p]).hex() != row.solve(u).hex()] == []

    @pytest.mark.parametrize("spec, n, replicates", [("gamma:shape=2", 16, 200), ("exp", 32, 100)])
    def test_image_keeps_the_bits_on_tied_bounds(self, spec, n, replicates):
        # A table of 4 levels, the quantile at k / K with k rounded down to a
        # multiple of 1024, ties many lower bounds.  The bound path of the
        # image then need not be the image of the bound path, while the value
        # keeps its bits: the full field's, by fact 2.
        dist = parse_distribution(spec)
        grid = _box(2, n)
        tab = dist._quantile(np.arange(ex.TABLE_SIZE) // 1024 * 1024 / ex.TABLE_SIZE)
        row = ex._Row(dist=dist, grid=grid, n=n, seed=1, src=grid.vertex_index((0, 0)),
                      dst=grid.vertex_index((n, 0)), tab=tab)
        p = _symmetry(grid)
        moved = 0
        for r in range(replicates):
            u = row.levels(r)
            want = fpp.distances_from(fpp.WeightField(grid=grid, weights=dist._quantile(u)),
                                      (0, 0))[row.dst]
            assert row.solve(u).hex() == row.solve(u[p]).hex() == want.hex(), r
            moved += not np.array_equal(_bound_path(row, u), np.sort(p[_bound_path(row, u[p])]))
        assert moved > 0
