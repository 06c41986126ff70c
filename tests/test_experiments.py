import math

import numpy as np
import pytest

from fppvar import experiments as ex
from fppvar import fpp
from fppvar.edge_distributions import exponential, sample

DIST = exponential()


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
        dist = exponential(1.23456789)
        n, samples, seed = 4, 100, 11
        grid = ex.box_for_target(2, n)
        want = []
        for r in range(samples):
            w = sample(dist, np.random.SeedSequence((seed, n, r)), grid.edge_count)
            field = fpp.WeightField(grid=grid, weights=w)
            want.append(fpp.distances_from(field, (0, 0))[grid.vertex_index((n, 0))])
        got = ex._replicate_values(dist, 2, n, samples, seed, workers)
        assert np.array_equal(got, np.array(want))

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
