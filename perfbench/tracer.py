"""In-memory span tracer that wraps fppvar's public functions from outside.

A span is (name, start, end, id, parent, op): ``id`` and ``parent`` are
``(pid, serial)`` pairs, so spans recorded in pool workers link back to the
sweep span of the parent process that forked them.  Counts are recorded at
the same boundaries.  Nothing under ``src/`` is modified: the tracer
replaces module attributes (every binding a function has, for example
``phi`` in both ``fppvar.phi`` and ``fppvar.poincare``) and restores them
on ``uninstall``.

Pool workers are forked from the traced parent, so they inherit the
wrappers.  After each chunk of replicates a worker appends its new spans
and its cumulative counts to a file of its own; ``gather_workers`` merges
those files into the parent's record.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import json
import os
import pathlib
import time

import fppvar
from fppvar import experiments, fpp

_MODULES = [getattr(fppvar, name) for name in fppvar.__all__ if name != "__version__"]

# Private functions traced under a layer name of their own.
_PRIVATE = {
    ("poincare", "_quad_report"): "poincare.quad",
    ("poincare", "_mc_report"): "poincare.mc",
    ("experiments", "_run_chunk"): "experiments.chunk",
}


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _count_sample(counts, args, kwargs, result, exc):
    counts["edge_distributions.sample.draws"] += int(kwargs.get("n", args[2] if len(args) > 2 else 0))


def _count_distances(counts, args, kwargs, result, exc):
    # Computed from array sizes, not measured traffic.
    field = kwargs.get("field", args[0] if args else None)
    indptr, indices, _ = field.grid._csr_template
    counts["fpp.distances_from.edges"] += field.grid.edge_count
    counts["fpp.distances_from.weight_bytes"] += field.weights.nbytes
    counts["fpp.distances_from.csr_bytes"] += indptr.nbytes + indices.nbytes + field.weights.nbytes


def _count_tie(counts, args, kwargs, result, exc):
    if isinstance(exc, fpp.GeodesicTieError):
        counts["fpp.edge_derivative.ties"] += 1


_COUNT_HOOKS = {
    "edge_distributions.sample": _count_sample,
    "fpp.distances_from": _count_distances,
    "fpp.edge_derivative": _count_tie,
}


class _ModuleProxy:
    """Stands in for a module, overriding some of its attributes."""

    def __init__(self, module, **overrides):
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self, worker_dir: pathlib.Path):
        self.worker_dir = worker_dir
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self.stack: list[tuple[int, int]] = []
        self.serial = 0
        self.op = -1
        self.recording = False
        self._flushed = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _enter(self, name: str) -> tuple:
        pid = os.getpid()
        if pid != self.pid:
            # First span in a forked worker: the parent's records are not ours.
            self.pid = pid
            self.spans = []
            self.counts = collections.Counter()
            self._flushed = 0
        sid = (pid, self.serial)
        self.serial += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent, time.perf_counter()

    def _exit(self, name: str, token: tuple) -> None:
        end = time.perf_counter()
        sid, parent, start = token
        self.stack.pop()
        self.spans.append((name, start, end, sid, parent, self.op))
        self.counts[name + ".calls"] += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span of the benchmark's own code."""
        token = self._enter(name) if self.recording else None
        try:
            yield
        finally:
            if token is not None:
                self._exit(name, token)

    @contextlib.contextmanager
    def paused(self):
        """Wrapped functions record nothing inside this block."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    def wrap(self, fn, name: str, flush: bool = False):
        tracer = self
        hook = _COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            token = tracer._enter(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                tracer._exit(name, token)
                if hook is not None:
                    hook(tracer.counts, args, kwargs, result, exc)
                if flush and tracer.pid != tracer.root_pid:
                    tracer._flush_worker()

        return wrapper

    def _flush_worker(self) -> None:
        new = self.spans[self._flushed:]
        self._flushed = len(self.spans)
        line = json.dumps({"spans": new, "counts": self.counts})
        with open(self.worker_dir / f"worker-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    def _pool(self, *args, **kwargs):
        """Times the pool constructor; the span is not pushed, so workers
        forked inside it inherit the estimate_variance span as their parent."""
        if not self.recording:
            return self._mp.Pool(*args, **kwargs)
        parent = self.stack[-1] if self.stack else None
        start = time.perf_counter()
        pool = self._mp.Pool(*args, **kwargs)
        end = time.perf_counter()
        sid = (os.getpid(), self.serial)
        self.serial += 1
        self.spans.append(("experiments.pool.start", start, end, sid, parent, self.op))
        self.counts["experiments.pool.starts"] += 1
        return pool

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> list[str]:
        """Wrap every binding of every public fppvar function; return the
        list of ``module.attribute`` bindings wrapped."""
        wrappers: dict[int, object] = {}
        bound = []
        for module in _MODULES:
            mod = _short(module.__name__)
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or not obj.__module__.startswith("fppvar."):
                    continue
                name = _PRIVATE.get((_short(obj.__module__), obj.__name__))
                if name is None:
                    if obj.__name__.startswith("_"):
                        continue
                    name = f"{_short(obj.__module__)}.{obj.__name__}"
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(obj, name, flush=name == "experiments.chunk")
                self._set(module, attr, wrappers[id(obj)])
                bound.append(f"{mod}.{attr}")
        # Validation of every weight field runs in the dataclass hook.
        self._set(fpp.WeightField, "__post_init__",
                  self.wrap(fpp.WeightField.__post_init__, "fpp.WeightField"))
        self._mp = experiments.mp
        self._set(experiments, "mp", _ModuleProxy(experiments.mp, Pool=self._pool))
        bound += ["fpp.WeightField.__post_init__", "experiments.mp.Pool"]
        return bound

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def gather_workers(self) -> int:
        """Merge the spans and counts written by pool workers; return how
        many workers reported."""
        files = sorted(self.worker_dir.glob("worker-*.jsonl"))
        for path in files:
            last_counts = {}
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    self.spans.extend(
                        (s[0], s[1], s[2], tuple(s[3]), tuple(s[4]) if s[4] else None, s[5])
                        for s in rec["spans"])
                    last_counts = rec["counts"]
            self.counts.update(last_counts)
            path.unlink()
        return len(files)


def attribute(spans: list[tuple], start: float, end: float) -> tuple[dict, float]:
    """Split the window [start, end] of wall time among the spans.

    At each instant the time goes to the spans that are running and have no
    running child, shared equally when several processes run at once.  In a
    single process this is the span's duration minus the part its children
    cover.  Returns (self seconds per span name, uncovered remainder), which
    sum to ``end - start``.
    """
    events = []
    for idx, s in enumerate(spans):
        lo, hi = max(s[1], start), min(s[2], end)
        if hi > lo:
            events.append((lo, 1, idx))
            events.append((hi, 0, idx))
    events.sort()
    index = {s[3]: i for i, s in enumerate(spans)}
    parent_of = [index.get(s[4]) for s in spans]
    running_children = collections.Counter()
    active: set[int] = set()
    self_s: dict[str, float] = collections.defaultdict(float)
    covered = 0.0
    prev = start
    for t, kind, idx in events:
        dt = t - prev
        if dt > 0.0 and active:
            leaves = [i for i in active if running_children[i] == 0]
            share = dt / len(leaves)
            for i in leaves:
                self_s[spans[i][0]] += share
            covered += dt
        prev = t
        parent = parent_of[idx]
        if kind == 1:
            active.add(idx)
            if parent is not None:
                running_children[parent] += 1
        else:
            active.discard(idx)
            if parent is not None:
                running_children[parent] -= 1
    return dict(self_s), (end - start) - covered
