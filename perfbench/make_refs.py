"""Regenerate ``refs.json``, the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_refs.py

Needs mpmath.  Records, from the fppvar found on ``PYTHONPATH``:

* per-row SHA-256 digests of the sweep CSVs at the default seed, taken from
  ``python3 -m fppvar.cli`` in a subprocess, so the in-process sweeps are
  checked against the command line's bytes.  The 2-worker gamma sweep is
  also run with 1 worker and must give the same bytes;
* the ``classify`` verdict of each family at the benchmark's grid size;
* phi(u) from the closed form 2 e^a [E2(a) - E2(2a)/2], a = -2 log u, at 40
  digits, on a fixed table of u: half log-uniform on [1e-300, 1e-1], half
  uniform on (0, 1).  phi switches to an asymptote below 1e-300.

Before writing, it checks that every Monte Carlo report the ``inequality``
workload can draw passes on every seed of ``workloads.MC_SEEDS``, and stops
if one does not.

Regenerate only when the reference itself must change, and say why.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import mpmath
import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

PHI_TABLE_SIZE = 384


def sweep_rows(argv: list[str]) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(HERE.parent / "src")
    out = subprocess.run([sys.executable, "-m", "fppvar.cli", *argv], env=env,
                         check=True, capture_output=True).stdout
    lines = out.decode().split("\n")
    return [hashlib.sha256(row.encode()).hexdigest() for row in lines[1:-1]]


def phi_reference(u: float) -> float:
    with mpmath.workdps(40):
        a = -2 * mpmath.log(mpmath.mpf(u))
        return float(2 * mpmath.exp(a) * (mpmath.expint(2, a) - mpmath.expint(2, 2 * a) / 2))


def check_mc_pool(workloads) -> None:
    from fppvar import edge_distributions, poincare

    reports = [(f"mc {f}", lambda s, tf=poincare.REGISTRY[f]: poincare.verify_modified_poincare(
        tf, mc={"samples": workloads.MC_SAMPLES, "seed": s}))
        for f in poincare.REGISTRY if f not in workloads.MC_KNOWN_BAD]
    reports += [(f"chi2 {k} {alpha}", lambda s, k=k, alpha=alpha: poincare.verify_chi2_inequality(
        workloads._identity, workloads._one, k=k, alpha=alpha, samples=workloads.MC_SAMPLES, seed=s))
        for k, alpha in workloads.CHI2_PARAMS]
    reports += [(f"cov {f}", lambda s, d=edge_distributions.parse_distribution(f):
                 poincare.verify_change_of_variables(workloads._identity, workloads._one, d,
                                                     samples=workloads.MC_SAMPLES, seed=s))
                for f in workloads.FAMILIES]
    for label, report in reports:
        bad = [s for s in workloads.MC_SEEDS if not report(s).passed]
        if bad:
            raise SystemExit(f"{label}: not passed on pooled seeds {bad}")


def main() -> None:
    import workloads

    check_mc_pool(workloads)

    rng = np.random.default_rng(20060602)
    half = PHI_TABLE_SIZE // 2
    us = np.concatenate([10.0 ** rng.uniform(-300.0, -1.0, half), rng.uniform(0.0, 1.0, half)])
    phi_table = [[float(u), phi_reference(float(u))] for u in us if 0.0 < u < 1.0]

    rows = {}
    for name, flags in workloads.SWEEPS.items():
        spec, ns, samples, workers = flags["spec"], flags["ns"], flags["samples"], flags["workers"]
        seed = workloads.DEFAULT_SEED
        rows[name] = sweep_rows(workloads.sweep_argv(spec, ns, samples, seed, workers))
        if workers > 1:
            serial = sweep_rows(workloads.sweep_argv(spec, ns, samples, seed, 1))
            if serial != rows[name]:
                raise SystemExit(f"{name}: 1-worker and {workers}-worker CSVs differ")

    from fppvar import edge_distributions
    verdicts = {f: edge_distributions.classify(edge_distributions.parse_distribution(f),
                                               workloads.CLASSIFY_GRID).verdict
                for f in workloads.FAMILIES}

    refs = {"default_seed": workloads.DEFAULT_SEED, "sweep_rows": rows, "classify": verdicts,
            "classify_grid": workloads.CLASSIFY_GRID, "phi": phi_table}
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
