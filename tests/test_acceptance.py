"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite (including the n=64 sweep) takes about 25 s on a
2-core machine.
"""

import math
import time

import numpy as np
import pytest

from fppvar import cube_averaging as ca
from fppvar import edge_distributions as ed
from fppvar import experiments as ex
from fppvar import fpp
from fppvar import gaussian as G
from fppvar import poincare as P
from fppvar.phi import phi, phi_asymptotic

RULE = G.hermite_rule(64)

SWEEP_NS = [8, 16, 32, 64]
SWEEP_SAMPLES = 2000
SWEEP_SEED = 20260810


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def sweep_runs():
    dist = ed.exponential()
    t0 = time.time()
    serial = ex.sweep(dist, 2, SWEEP_NS, SWEEP_SAMPLES, SWEEP_SEED, workers=1)
    serial_secs = time.time() - t0
    parallel = ex.sweep(dist, 2, SWEEP_NS, SWEEP_SAMPLES, SWEEP_SEED, workers=8)
    return serial, parallel, serial_secs


def test_criterion_01_phi_endpoints_and_monotonicity():
    ok = abs(phi(0.0)) <= 1e-9 and abs(phi(1.0) - 1.0) <= 1e-9
    vals = [phi(float(u)) for u in np.linspace(0.0, 1.0, 1000)]
    mono = all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    _report(1, ok and mono,
            f"phi(0)={phi(0.0):.2e}, phi(1)-1={phi(1.0) - 1.0:.2e}, monotone={mono}")


def test_criterion_02_phi_asymptotics():
    r6 = phi(1e-6) / phi_asymptotic(1e-6)
    r12 = phi(1e-12) / phi_asymptotic(1e-12)
    ok = 0.8 <= r6 <= 1.1 and abs(r12 - 1.0) < abs(r6 - 1.0)
    _report(2, ok, f"ratio(1e-6)={r6:.6f}, ratio(1e-12)={r12:.6f}")


def test_criterion_03_gaussian_round_trip_and_tail_composition():
    grid = np.concatenate([np.geomspace(1e-300, 0.5, 150),
                           1.0 - np.geomspace(1e-16, 0.5, 80)])
    err = np.abs(G.cdf(G.quantile(grid)) - grid)
    tol = 1e-12 * np.maximum(grid, 1.0 - grid)
    round_trip_ok = bool(np.all(err <= tol))
    ps = [1e-4, 1e-8, 1e-16, 1e-30]
    ratios = [G.pdf_at_quantile(p) / (p * math.sqrt(-2 * math.log(p))) for p in ps]
    ratio_ok = all(r <= 1.0 for r in ratios) and all(
        b > a for a, b in zip(ratios, ratios[1:]))
    _report(3, round_trip_ok and ratio_ok,
            f"max err/tol={np.max(err / tol):.2e}, ratios={[f'{r:.4f}' for r in ratios]}")


def test_criterion_04_ou_identities():
    contraction = max(
        abs(G.ou_apply(lambda y: y, t, y0, RULE) - math.exp(-t) * y0)
        for t in (0.2, 1.0, 3.0) for y0 in (-2.0, 0.5, 1.0))
    commut = G.check_commutation(lambda y: y ** 3, lambda y: 3 * y ** 2,
                                 0.5, RULE, (-2.0, 0.0, 2.0))
    heat = G.variance_heat_identity(lambda y: np.asarray(y) ** 2,
                                    lambda y: 2.0 * np.asarray(y), RULE)
    kink_rule = G.legendre_gaussian_rule(panels=256, order=6)
    hyper_ok = all(
        G.check_hypercontractivity(f, t, kink_rule).holds
        for f in G.HYPERCONTRACTIVITY_REGISTRY.values()
        for t in (0.1, 0.5, 2.0))
    ok = (contraction <= 1e-10 and commut <= 1e-7
          and heat.discrepancy <= 1e-6 and hyper_ok)
    _report(4, ok, f"contraction={contraction:.2e}, commutation={commut:.2e}, "
                   f"heat discrepancy={heat.discrepancy:.2e}, "
                   f"hypercontractivity(10 fn x 3 t)={hyper_ok}")


def test_criterion_05_modified_poincare_margins():
    margins = {}
    ok = True
    for name, tf in P.REGISTRY.items():
        rule = G.hermite_rule(64 if tf.n_cont <= 2 else 24)
        rep = P.verify_modified_poincare(tf, rule=rule)
        margins[name] = rep.margin
        ok &= rep.margin >= -1e-6 * (1.0 + rep.rhs_total)
    linear = P.verify_modified_poincare(P.REGISTRY["linear-1d"], rule=RULE)
    tight = abs(linear.margin) <= 1e-6
    _report(5, ok and tight,
            f"min margin={min(margins.values()):+.3e}, |linear margin|={abs(linear.margin):.2e}")


def test_criterion_06_corollaries():
    chi2 = P.verify_chi2_inequality(lambda y: y, lambda y: np.ones_like(y),
                                    k=2, alpha=1.0, samples=1_000_000, seed=7)
    cov_u = P.verify_change_of_variables(lambda y: y, lambda y: np.ones_like(y),
                                         ed.uniform_family(), samples=1_000_000, seed=11)
    cov_e = P.verify_change_of_variables(lambda y: y, lambda y: np.ones_like(y),
                                         ed.exponential(), samples=1_000_000, seed=11)
    ineq_ok = chi2.passed and cov_u.passed and cov_e.passed
    c2_ok = abs(P.c_k(2) - 2 * math.sqrt(2) / math.pi) <= 1e-10
    from scipy.integrate import quad
    forms_ok = True
    for k in range(2, 11):
        num = quad(lambda t: abs(math.cos(t)) * math.sin(t) ** (k - 2),
                   0, math.pi, limit=200)[0]
        den = quad(lambda t: math.sin(t) ** (k - 2), 0, math.pi, limit=200)[0]
        forms_ok &= abs(P.c_k(k) - math.sqrt(k) * num / den) <= 1e-10
    _report(6, ineq_ok and c2_ok and forms_ok,
            f"margins: chi2={chi2.margin:+.4f}, uniform={cov_u.margin:+.4f}, "
            f"exp={cov_e.margin:+.4f}; c(2) exact={c2_ok}, forms agree k=2..10={forms_ok}")


def test_criterion_07_nearly_gamma_classification():
    passing = [ed.exponential(), ed.gamma_family(2.0), ed.beta_family(2.0, 3.0),
               ed.uniform_family()]
    suff_ok = all(
        ed.check_near_gamma_sufficient(d).verdict == "sufficient-conditions-pass"
        for d in passing)
    hn_suff = ed.check_near_gamma_sufficient(ed.half_normal())
    hn_direct = ed.check_near_gamma_direct(ed.half_normal(), 50_000)
    hn_ok = (hn_suff.sufficient_alpha_ok and not hn_suff.sufficient_beta_or_tail_ok
             and hn_direct.direct_pass)
    _report(7, suff_ok and hn_ok,
            f"sufficient pass (exp/gamma/beta/uniform)={suff_ok}; half-normal: "
            f"tail sufficient={hn_suff.sufficient_beta_or_tail_ok}, "
            f"direct={hn_direct.direct_pass}")


def test_criterion_08_averaging_function():
    reports = {m: ca.verify_averaging_properties(m) for m in (2, 3, 4)}
    grad_ok = all(r.gradient_ok for r in reports.values())
    level_ok = all(r.max_level_prob <= 2.0 * r.c1_value / r.m
                   for r in reports.values())
    import random
    rng = random.Random(0)
    bij_ok = True
    for m in range(2, 9):
        n = m * m
        for _ in range(40):
            bits = [rng.randint(0, 1) for _ in range(n)]
            bij_ok &= ca.unrank(ca.rank(bits), n) == bits
    _report(8, grad_ok and level_ok and bij_ok,
            f"gradient ok m=2..4={grad_ok}, level bounds={level_ok} "
            f"(max probs={[round(r.max_level_prob, 3) for r in reports.values()]}), "
            f"rank/unrank m<=8={bij_ok}")


def test_criterion_09_fpp_correctness():
    # (a) exact agreement with brute-force path enumeration on a 3x3 box
    from test_fpp import enumerate_simple_paths
    grid = fpp.GridSpec(lo=(0, 0), hi=(2, 2))
    paths = enumerate_simple_paths(grid, (0, 0), (2, 2))
    brute_ok = True
    for seed in range(100):
        field = fpp.field_from_distribution(grid, "exp:rate=1", seed)
        got = fpp.passage_time(field, (0, 0), (2, 2)).distance
        want = min(sum(field.weights[e] for e in p) for p in paths)
        brute_ok &= abs(got - want) <= 1e-12

    # (b) finite-difference agreement of the edge derivative, ties re-sampled
    # from a bounded range of field seeds
    g = fpp.GridSpec(lo=(-3, -3), hi=(8, 6))
    v = (5, 2)
    rng = np.random.default_rng(1234)
    agree = 0
    trials = 0
    for seed in range(1, 1001):
        if trials == 100:
            break
        field = fpp.field_from_distribution(g, "exp:rate=1", seed)
        e = int(rng.integers(0, g.edge_count))
        try:
            ind = fpp.edge_derivative(field, v, e)
        except fpp.GeodesicTieError:
            continue
        trials += 1
        base = fpp.passage_time(field, (0, 0), v).distance
        bumped = field.weights.copy()
        bumped[e] += 1e-9
        after = fpp.passage_time(fpp.WeightField(grid=g, weights=bumped), (0, 0), v).distance
        if abs((after - base) - 1e-9 * ind) <= 1e-12:
            agree += 1

    # (c) single-edge response curves fit min(g(0)+y, C) exactly
    g8 = fpp.GridSpec(lo=(-1, -1), hi=(8, 8))
    ys = np.linspace(0.0, 30.0, 61)
    rng2 = np.random.default_rng(7)
    max_dev = 0.0
    for s in range(20):
        field = fpp.field_from_distribution(g8, "exp:rate=1", s)
        e = int(rng2.integers(0, g8.edge_count))
        curve = fpp.single_edge_response(field, (6, 3), e, ys)
        max_dev = max(max_dev, curve.max_abs_deviation)

    ok = brute_ok and trials == 100 and agree >= 99 and max_dev <= 1e-9
    _report(9, ok, f"brute-force exact={brute_ok}, FD agreement={agree}/{trials}, "
                   f"response max deviation={max_dev:.2e}")


def test_criterion_10_scaling_experiment(sweep_runs):
    serial, _, secs = sweep_runs
    rows = serial.rows
    mono_ok = True
    for a, b in zip(rows, rows[1:]):
        delta = b.var / b.n - a.var / a.n
        tol = 2.0 * math.hypot(a.se_var / a.n, b.se_var / b.n)
        mono_ok &= delta <= tol
    fit = ex.fit_scaling(serial)
    slope_ok = fit.slope_loglog < 1.0 - 2.0 * fit.slope_se
    time_ok = secs <= 600.0
    _report(10, mono_ok and slope_ok and time_ok,
            f"var/n nonincreasing={mono_ok}, slope={fit.slope_loglog:.4f}"
            f"+-{fit.slope_se:.4f}, runtime={secs:.1f}s")


def test_criterion_11_reproducibility(sweep_runs):
    serial, parallel, _ = sweep_runs
    a = serial.to_csv().encode()
    b = parallel.to_csv().encode()
    _report(11, a == b, f"1-worker vs 8-worker CSV byte-identical={a == b} "
                        f"({len(a)} bytes)")
