"""Run workloads on several seeds and report each metric's run-to-run spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads geodesic,inequality]
                                [--trace 0] [--out FILE]

Runs ``run.py`` once per workload and seed, one after another, with
``run_seconds`` from BENCHMARK.json.  For every metric it prints the median,
the quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(Q3 - Q1) / median, next to the metric's bound, and the same spread of the
unscaled (raw) times.  ``--out`` writes the same figures, with every run's
values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / spec["command"][1]), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.splitlines()[-1])
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            if not args.trace:
                record = OUT_DIR / f"result-{workload}-seed{seed}.json"
                runs[-1]["raw"] = json.loads(record.read_text(encoding="utf-8"))["raw"]
            print(workload, seed, result["correct"], result["failed"], "/", result["attempted"],
                  " ".join(f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            summary[name] = quartiles([r["metrics"][name] for r in runs])
            bound = bounds.get(name)
            line = (f"  {workload:<16}{name:<44}median {summary[name]['median']:<12.6g}"
                    f"spread {summary[name]['spread']:.4f}")
            if name in runs[0].get("raw", {}):
                summary[name]["raw"] = quartiles([r["raw"][name] for r in runs])
                line += f"  raw spread {summary[name]['raw']['spread']:.4f}"
            print(line + (f"  bound {bound}" if bound is not None else ""), flush=True)
        report[workload] = {"summary": summary, "runs": runs}
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
