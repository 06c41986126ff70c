"""One benchmark process: set up a workload, then measure it.

``run.py`` starts this script and passes the moment it did so.  The script
imports fppvar from ``src/``, sets up the workload, and prints a JSON line
with its set-up time.  With ``--mode setup`` it stops there.  Otherwise it
runs the timed phase and prints one JSON line of results.

Untraced (``--trace 0``): whole rounds run until the ops have taken
``--seconds`` of time.  Traced (``--trace 1``): a fixed number of rounds,
set by ``--seconds``, runs once untraced and once traced, so the counts
repeat exactly for a seed and the two passes give the tracing overhead.

Every time is also reported scaled to an uncontended core.  The host shares
its cores with other tenants, which slows a CPU by up to 1.6x for seconds at
a time.  A fixed numpy kernel, independent of fppvar, is timed on the CPUs
between rounds and around set-up, and every ``SAMPLE_EVERY_S`` while an op
or set-up runs.  A time is multiplied by ``KERNEL_REF_S`` over the mean of
the kernel times taken at the two ends of its round (or set-up) and during
it.  ``run.py`` scales set-up by the median factor of several set-up
processes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pathlib
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_ROUNDS = 2
# Kernel time on an idle core of the reference box (2-core 2.1 GHz Xeon VM):
# 0.66 ms for the compute part, measured idle, and 0.55 ms for the gather,
# its time under load scaled by the compute part's idle/loaded ratio.
KERNEL_REF_S = 0.00121
# Workloads that use every CPU; the others are pinned to one at a time.
ALL_CPUS = {"sweep-gamma-2w"}
# How often the kernel is also timed while an op or set-up runs.
SAMPLE_EVERY_S = 0.25


class Calibration:
    """Times a fixed numpy kernel on each CPU the workload may use.

    The kernel has a compute part (sort, ``log1p`` and a strided product on
    10^5 doubles) and a memory part (2 * 10^5 random reads from a 4 MB array,
    twice the L2 cache).  Large ops slow with the memory part; the compute part
    alone over-corrects them.

    A pinned workload moves, between rounds, to the CPU whose kernel ran
    fastest; a workload that uses every CPU is compared with their mean.
    While ``active`` is set, a SIGALRM handler also times the kernel every
    ``SAMPLE_EVERY_S``, so that a long op or set-up is scaled by the speed
    it met, not only by the speed at its two ends.  ``sampled_s`` is the
    time those samples took, to be left out of the time of whatever they
    interrupted.  The kernel is timed in CPU time of its thread: in the
    2-worker sweep the parent shares the CPUs with its own pool workers, and
    its wall time would measure their load instead of the CPUs' speed.
    """

    def __init__(self, cpus, pinned: bool):
        self.cpus = sorted(cpus)
        self.pinned = pinned
        rng = np.random.default_rng(0)
        self.data = rng.random(100_000)
        self.table = rng.random(1 << 19)
        self.index = rng.integers(0, self.table.size, 200_000)
        self.cpu = None
        self.active = False
        self.samples: list[float] = []
        self.sampled_s = 0.0

    def start_sampling(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop_sampling(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.active = False

    def _sample(self, signum, frame) -> None:
        if self.active:
            start = time.perf_counter()
            self.samples.append(self._kernel_s())
            self.sampled_s += time.perf_counter() - start

    def factor(self, before: float, after: float) -> float:
        """``KERNEL_REF_S`` over the mean kernel time at the two ends and in
        the samples taken since the last call."""
        kernels, self.samples = [before, after, *self.samples], []
        return KERNEL_REF_S / statistics.fmean(kernels)

    def _kernel_s(self) -> float:
        compute = gather = math.inf
        for _ in range(3):
            start = time.thread_time()
            np.sort(self.data)
            np.log1p(self.data).sum()
            (self.data[::7] * self.data[::7]).sum()
            mid = time.thread_time()
            self.table[self.index].sum()
            compute = min(compute, mid - start)
            gather = min(gather, time.thread_time() - mid)
        return compute + gather

    def step(self) -> tuple[float, float]:
        """Time the kernel on every CPU, then settle the workload for its
        next round.  Returns (time where the last round ran, time where the
        next round runs)."""
        times = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = self._kernel_s()
        if not self.pinned:
            os.sched_setaffinity(0, self.cpus)
            both = statistics.fmean(times.values())
            return both, both
        last = times.get(self.cpu, math.nan)
        self.cpu = min(times, key=times.get)
        os.sched_setaffinity(0, {self.cpu})
        return last, times[self.cpu]


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the sweep's pool workers.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_phase(wl, cal, rounds=None, seconds=0.0, tracer=None) -> dict:
    """Run whole rounds: ``rounds`` of them, or until the ops took ``seconds``."""
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    paused = tracer.paused if tracer else contextlib.nullcontext
    latencies, scaled, factors, notes = [], [], [], []
    attempted = failed = 0
    op_time = scaled_time = 0.0
    with span("bench.calibrate"):
        _, kernel = cal.step()
    r = 0
    while (r < rounds) if rounds is not None else (r < MIN_ROUNDS or op_time < seconds):
        round_lat = []
        round_time = 0.0
        for op in wl.round(r):
            if tracer:
                tracer.op += 1
            out = error = None
            sampled = cal.sampled_s
            cal.active = True
            start = time.perf_counter()
            try:
                with span("bench.op"):
                    out = wl.run(op)
            except Exception:  # an op that raises is a failed op; keep measuring
                error = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start - (cal.sampled_s - sampled)
            cal.active = False
            with span("bench.check"), paused():
                try:
                    bad = op.n_ops if error else wl.check(op, out, notes)
                except Exception:  # output the check cannot even read
                    bad, error = op.n_ops, traceback.format_exc(limit=3)
            if error and len(notes) < 20:
                notes.append(f"{op.kind} raised: {error}")
            failed += bad
            attempted += op.n_ops
            round_lat.append(elapsed / op.n_ops)
            round_time += elapsed
        with span("bench.calibrate"):
            after, next_kernel = cal.step()
        factor = cal.factor(kernel, after)
        kernel = next_kernel
        latencies += round_lat
        scaled += [x * factor for x in round_lat]
        factors.append(factor)
        op_time += round_time
        scaled_time += round_time * factor
        r += 1
    return {"rounds": r, "attempted": attempted, "failed": failed, "op_time_s": op_time,
            "scaled_time_s": scaled_time, "latencies": latencies, "scaled": scaled,
            "factors": factors, "notes": notes}


def _percentiles_ms(values) -> tuple[float, float]:
    ms = [x * 1e3 for x in values]
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8]


def summarize(phase: dict) -> dict:
    p50, p90 = _percentiles_ms(phase["scaled"])
    raw50, raw90 = _percentiles_ms(phase["latencies"])
    return {
        "ops_per_s": phase["attempted"] / phase["scaled_time_s"],
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "raw": {"ops_per_s": phase["attempted"] / phase["op_time_s"],
                "op_p50_ms": raw50, "op_p90_ms": raw90},
        "factor_median": statistics.median(phase["factors"]),
        "latency_samples": len(phase["scaled"]),
        "rounds": phase["rounds"],
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "notes": phase["notes"],
    }


def traced_run(wl, cal, seconds: int) -> dict:
    """Layer times are scaled by the traced pass's median calibration factor."""
    import tracer as tracing

    rounds = max(MIN_ROUNDS, math.ceil(seconds / 2 / wl.round_s))
    plain = run_phase(wl, cal, rounds=rounds)
    OUT_DIR.mkdir(exist_ok=True)
    worker_dir = pathlib.Path(tempfile.mkdtemp(prefix="workers-", dir=OUT_DIR))
    tracer = tracing.Tracer(worker_dir)
    bindings = tracer.install()
    tracer.recording = True
    start = time.perf_counter()
    try:
        traced = run_phase(wl, cal, rounds=rounds, tracer=tracer)
    finally:
        end = time.perf_counter()
        tracer.recording = False
        tracer.uninstall()
    workers = tracer.gather_workers()
    shutil.rmtree(worker_dir, ignore_errors=True)
    self_s, remainder = tracing.attribute(tracer.spans, start, end)

    spans_path = OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({"name": s[0], "start": s[1], "end": s[2], "id": s[3],
                                 "parent": s[4], "op": s[5]}) + "\n")

    factor = statistics.median(traced["factors"])
    busy: dict[str, float] = {}
    for s in tracer.spans:
        busy[s[0]] = busy.get(s[0], 0.0) + (s[2] - s[1]) * factor
    self_s = {name: secs * factor for name, secs in self_s.items()}
    counts = tracer.counts
    derivs = counts["fpp.edge_derivative.calls"]
    rate_plain = plain["attempted"] / plain["scaled_time_s"]
    rate_traced = traced["attempted"] / traced["scaled_time_s"]

    def self_of(prefix):
        return sum(v for k, v in self_s.items() if k == prefix or k.startswith(prefix + "."))

    layers = {
        "experiments.self_s": self_of("experiments"),
        "experiments.pool.starts": counts["experiments.pool.starts"],
        "experiments.pool.start_s": busy.get("experiments.pool.start", 0.0),
        "edge_distributions.sample.calls": counts["edge_distributions.sample.calls"],
        "edge_distributions.sample.busy_s": busy.get("edge_distributions.sample", 0.0),
        "edge_distributions.sample.draws": counts["edge_distributions.sample.draws"],
        "fpp.WeightField.busy_s": busy.get("fpp.WeightField", 0.0),
        "fpp.distances_from.calls": counts["fpp.distances_from.calls"],
        "fpp.distances_from.busy_s": busy.get("fpp.distances_from", 0.0),
        "fpp.distances_from.edges": counts["fpp.distances_from.edges"],
        "fpp.distances_from.weight_bytes": counts["fpp.distances_from.weight_bytes"],
        "fpp.distances_from.csr_bytes": counts["fpp.distances_from.csr_bytes"],
        "fpp.passage_time.calls": counts["fpp.passage_time.calls"],
        "fpp.passage_time.busy_s": busy.get("fpp.passage_time", 0.0),
        "fpp.passage_time.self_s": self_s.get("fpp.passage_time", 0.0),
        "fpp.edge_derivative.calls": derivs,
        "fpp.edge_derivative.busy_s": busy.get("fpp.edge_derivative", 0.0),
        "fpp.edge_derivative.self_s": self_s.get("fpp.edge_derivative", 0.0),
        "fpp.edge_derivative.tie_ratio": counts["fpp.edge_derivative.ties"] / derivs if derivs else 0.0,
        "fpp.single_edge_response.busy_s": busy.get("fpp.single_edge_response", 0.0),
        "fpp.adjacency_build_s": getattr(wl, "adjacency_build_s", 0.0),
        "phi.phi.calls": counts["phi.phi.calls"],
        "phi.phi.busy_s": busy.get("phi.phi", 0.0),
        "poincare.quad.busy_s": busy.get("poincare.quad", 0.0),
        "poincare.mc.busy_s": busy.get("poincare.mc", 0.0),
        "poincare.corollary.busy_s": (busy.get("poincare.verify_chi2_inequality", 0.0)
                                      + busy.get("poincare.verify_change_of_variables", 0.0)),
        "edge_distributions.classify.busy_s": busy.get("edge_distributions.classify", 0.0),
        "edge_distributions.psi.calls": counts["edge_distributions.psi.calls"],
        "gaussian.pdf_at_quantile.calls": counts["gaussian.pdf_at_quantile.calls"],
        "cube_averaging.random_vertex.busy_s": busy.get("cube_averaging.random_vertex", 0.0),
        "cube_averaging.verify_averaging_properties.busy_s":
            busy.get("cube_averaging.verify_averaging_properties", 0.0),
        "cli.dispatch.self_s": self_s.get("cli.dispatch", 0.0),
        "trace.overhead_ratio": 1.0 - rate_traced / rate_plain,
        "trace.remainder_ratio": remainder / (end - start),
    }
    wall = end - start
    modules: dict[str, float] = {}
    for name, secs in self_s.items():
        key = name.split(".", 1)[0]
        modules[key] = modules.get(key, 0.0) + secs
    return {
        "layers": layers,
        "counts": dict(sorted(counts.items())),
        "accounting": {"wall_s": wall, "scaled_wall_s": wall * factor,
                       "self_s_by_module": modules, "remainder_s": remainder * factor},
        "rounds": rounds,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "notes": plain["notes"] + traced["notes"],
        "bindings": len(bindings),
        "workers_gathered": workers,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.perf_counter() of the parent when it started this process")
    args = parser.parse_args(argv)

    # Set up on the fastest CPU (or on all of them).  The kernel is timed
    # there before, during and after set-up; the probe itself is not set-up.
    cal = Calibration(os.sched_getaffinity(0), pinned=args.workload not in ALL_CPUS)
    probe_start = time.perf_counter()
    _, before = cal.step()
    probe_s = time.perf_counter() - probe_start
    cal.start_sampling()
    cal.active = True

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    wl = workloads.make(args.workload, args.seed)
    setup_raw = time.perf_counter() - args.spawned_at - probe_s - cal.sampled_s
    cal.active = False
    after, _ = cal.step()
    setup = {"setup_raw_s": setup_raw, "setup_factor": cal.factor(before, after)}
    print(json.dumps(setup), flush=True)
    if args.mode == "setup":
        cal.stop_sampling()
        return 0
    if args.trace:
        result = traced_run(wl, cal, args.seconds)
    else:
        result = summarize(run_phase(wl, cal, seconds=args.seconds))
        result["peak_rss_mb"] = _peak_rss_mb()
        result["digests"] = getattr(wl, "seen", None)
    cal.stop_sampling()
    # Untimed, after the measurement: inputs the gated ops leave out.
    result["known_defects"] = wl.known_defects() if hasattr(wl, "known_defects") else []
    result.update(setup)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
