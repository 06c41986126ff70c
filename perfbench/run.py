"""fppvar benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload sweep-exp --seed 1 --seconds 15 --trace 0

Builds nothing: it imports fppvar from ``src/`` in fresh processes.  With
``--trace 0`` it sets the workload up in ``SETUP_RUNS`` fresh processes, one
of which goes on to measure the workload, and prints every end-to-end
metric; ``setup_s`` is taken from all of them.  With ``--trace 1`` it prints
the per-layer split from a traced run instead.  The last line of standard
output is one JSON object; the lines before it are a readable report.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ["sweep-exp", "sweep-gamma-2w", "geodesic", "inequality"]
SETUP_RUNS = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def spawn(args: argparse.Namespace, mode: str, deadline: float) -> list[dict]:
    """Start child.py, wait for it, and return the JSON lines it printed."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode,
           "--spawned-at", repr(time.perf_counter())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} process overran the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def write_record(args, record: dict) -> None:
    """Keep the scaled and raw values of a run for spread.py."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")


def end_to_end(args, units, deadline) -> tuple[dict, list[str]]:
    # Set-ups before and after the run see different stretches of contention.
    before = [spawn(args, "setup", deadline)[0] for _ in range(SETUP_RUNS // 2)]
    res = spawn(args, "run", deadline)[-1]
    after = [spawn(args, "setup", deadline)[0] for _ in range(SETUP_RUNS - 1 - len(before))]
    setups = before + [res] + after
    # Set-up time and its scaling factor are medians taken apart: one set-up's
    # kernel says little about the contention its imports met.
    setup_raw = statistics.median(s["setup_raw_s"] for s in setups)
    setup_factor = statistics.median(s["setup_factor"] for s in setups)
    raw = dict(res["raw"], setup_s=setup_raw)
    attempted, failed = res["attempted"], res["failed"]
    values = {
        "setup_s": setup_raw * setup_factor,
        "ops_per_s": res["ops_per_s"],
        "op_p50_ms": res["op_p50_ms"],
        "op_p90_ms": res["op_p90_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
        "pass_ratio": (attempted - failed) / attempted,
    }
    write_record(args, {"values": values, "raw": raw, "setup_factor": setup_factor,
                        "factor_median": res["factor_median"]})
    per_op = "per-replicate time of each sweep call" if args.workload.startswith("sweep") else "per call"
    samples = {
        "setup_s": f"median of {len(setups)} set-ups times median of their factors",
        "ops_per_s": f"{attempted} ops in {res['rounds']} rounds",
        "op_p50_ms": f"{res['latency_samples']} samples, {per_op}",
        "op_p90_ms": f"{res['latency_samples']} samples, "
                     f"{res['latency_samples'] // 10} beyond p90",
        "peak_rss_mb": "max of self and children",
        "pass_ratio": f"{attempted - failed} of {attempted} ops passed their check",
    }
    lines = [f"times are scaled to an uncontended core (median factor "
             f"{res['factor_median']:.3f}, set-up {setup_factor:.3f}); the raw column is as timed",
             f"{'metric':<16}{'value':>14}{'raw':>12}  {'unit':<6} samples"]
    for name, unit in units.items():
        raw_text = f"{raw[name]:>12.6g}" if name in raw else " " * 12
        lines.append(f"{name:<16}{values[name]:>14.6g}{raw_text}  {unit:<6} {samples[name]}")
    lines.append(f"{'fail_ratio':<16}{failed / attempted:>14.6g}{'':>12}  {'ratio':<6} "
                 f"{failed} of {attempted} ops failed their check")
    if res.get("digests"):
        lines.append("sweep CSV row digests (sha256): " + " ".join(d[:16] for d in res["digests"]))
    lines += [f"check failed: {note.strip()}" for note in res["notes"]]
    lines += [f"known defect, not gated: {line}" for line in res["known_defects"]]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines


def traced(args, units, deadline) -> tuple[dict, list[str]]:
    res = spawn(args, "run", deadline)[-1]
    layers = res["layers"]
    acct = res["accounting"]
    lines = [f"traced {res['rounds']} rounds twice (untraced, traced); {res['bindings']} "
             f"bindings wrapped; {res['spans']} spans written to {res['spans_file']}; "
             f"{res['workers_gathered']} pool workers gathered"]
    lines.append(f"{'layer metric':<52}{'value':>14}")
    for name, value in layers.items():
        lines.append(f"{name:<52}{value:>14.6g}")
    lines.append(f"accounting over the traced wall time {acct['wall_s']:.6f} s "
                 f"({acct['scaled_wall_s']:.6f} s scaled to an uncontended core):")
    total = acct["remainder_s"]
    for module, secs in sorted(acct["self_s_by_module"].items()):
        lines.append(f"  self {module:<24}{secs:>12.6f} s")
        total += secs
    lines.append(f"  untraced remainder{'':<12}{acct['remainder_s']:>12.6f} s")
    lines.append(f"  sum{'':<27}{total:>12.6f} s")
    lines += [f"count {k} = {v}" for k, v in res["counts"].items()]
    lines += [f"check failed: {note.strip()}" for note in res["notes"]]
    lines += [f"known defect, not gated: {line}" for line in res["known_defects"]]
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    attempted, failed = res["attempted"], res["failed"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "fppvar" / "__init__.py").is_file():
        print(f"error: no fppvar sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        result, lines = (traced if args.trace else end_to_end)(args, units, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
