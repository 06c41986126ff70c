"""The four benchmark workloads: set-up, seeded ops, and an output check per op.

Every workload is a sequence of rounds.  ``round(r)`` returns the ops of
round ``r`` as a pure function of (seed, r).  ``run(op)`` is the timed call
into fppvar; ``check(op, out, notes)`` runs untimed and returns how many of
the op's ``n_ops`` failed their check.  Calls go through module attributes
at call time, so a tracer that rewraps those attributes sees them.

All checks compare against something other than the code path under test:
reference digests and verdicts recorded at the seed commit, mpmath values,
csgraph labels, or an exact identity of the returned object.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import pathlib
import time
from dataclasses import dataclass, field

import numpy as np

from fppvar import cli, cube_averaging, edge_distributions, experiments, fpp, gaussian, poincare
from fppvar import phi as phi_mod

DEFAULT_SEED = 1
SWEEP_HEADER = "n,samples,mean,var,se_var,mean_over_n,var_over_n,var_logn_over_n,seed"
FAMILIES = ["exp", "gamma", "beta", "uniform", "chi2", "halfnormal"]


@dataclass
class Op:
    kind: str
    args: dict = field(default_factory=dict)
    n_ops: int = 1


@functools.cache
def refs() -> dict:
    """Reference outputs recorded at the seed commit by make_refs.py."""
    return json.loads(pathlib.Path(__file__).with_name("refs.json").read_text(encoding="utf-8"))


def _fail(notes: list, n: int, text: str) -> int:
    if len(notes) < 20:
        notes.append(text)
    return n


# -- sweeps ------------------------------------------------------------------

def sweep_argv(spec: str, ns, samples: int, seed: int, workers: int) -> list[str]:
    return ["fpp", "sweep", "--dist", spec, "--d", "2", "--ns", ",".join(map(str, ns)),
            "--samples", str(samples), "--seed", str(seed), "--workers", str(workers)]


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.dispatch(argv)
    return code, buf.getvalue()


# Flags of the two sweep workloads besides --seed, and rough seconds per call.
# sweep-exp is the acceptance sweep at its full 2000 replicates.  The gamma
# sweep takes 500, 8 chunks of 64 or fewer, 4 per worker; its time per
# replicate is the same as at 2000 within noise, at a quarter of the call.
SWEEPS = {
    "sweep-exp": {"spec": "exp:rate=1", "ns": [8, 16, 32, 64], "samples": 2000, "workers": 1,
                  "round_s": 9.0},
    "sweep-gamma-2w": {"spec": "gamma:shape=2", "ns": [16, 32, 64], "samples": 500, "workers": 2,
                       "round_s": 5.0},
}


class Sweep:
    """One op per replicate; a round is one ``fppvar fpp sweep`` call."""

    def __init__(self, name: str, spec: str, ns, samples: int, workers: int,
                 seed: int, round_s: float):
        self.name = name
        self.ns = list(ns)
        self.samples = samples
        self.seed = seed
        self.round_s = round_s
        self.argv = sweep_argv(spec, ns, samples, seed, workers)
        self.expected = refs()["sweep_rows"][name] if seed == DEFAULT_SEED else None
        self.seen: list[str] | None = None
        # Warm-up: the smallest sweep the CLI accepts, on the first row only.
        code, _ = run_cli(sweep_argv(spec, self.ns[:1], 100, seed, workers))
        if code != 0:
            raise RuntimeError(f"warm-up sweep exited with {code}")

    def round(self, r: int) -> list[Op]:
        return [Op("sweep", n_ops=self.samples * len(self.ns))]

    def run(self, op: Op):
        return run_cli(self.argv)

    def check(self, op: Op, out, notes: list) -> int:
        code, text = out
        if code != 0:
            return _fail(notes, op.n_ops, f"sweep exited with {code}")
        lines = text.split("\n")
        if lines[0] != SWEEP_HEADER or lines[-1] != "" or len(lines) != len(self.ns) + 2:
            return _fail(notes, op.n_ops, "sweep CSV is malformed")
        rows = lines[1:-1]
        failed = 0
        for i, (n, row) in enumerate(zip(self.ns, rows)):
            cells = row.split(",")
            ok = (len(cells) == 9 and cells[0] == str(n) and cells[1] == str(self.samples)
                  and cells[8] == str(self.seed)
                  and all(math.isfinite(float(c)) for c in cells[2:8]) and float(cells[3]) > 0)
            digest = hashlib.sha256(row.encode()).hexdigest()
            if self.expected is not None:
                ok = ok and digest == self.expected[i]
            elif self.seen is not None:
                # Off the default seed there is no reference: calls must agree.
                ok = ok and digest == self.seen[i]
            if not ok:
                failed += _fail(notes, self.samples, f"sweep row n={n} mismatch: {row}")
        if self.seen is None:
            self.seen = [hashlib.sha256(r.encode()).hexdigest() for r in rows]
        return failed


# -- geodesic queries --------------------------------------------------------

# One round: 11 ops on the n=16 box, 8 on the n=64 box, one response curve.
GEODESIC_MIX = ([("passage", 16)] * 5 + [("derivative", 16)] * 3 + [("averaged", 16)] * 3
                + [("passage", 64)] * 3 + [("derivative", 64)] * 3 + [("averaged", 64)] * 2
                + [("response", 16)])
# Enough fields that the mean cost of a query varies little from seed to seed.
FIELDS_PER_BOX = 16
RESPONSE_GRID = np.linspace(0.0, 30.0, 61)
BUMP = 1e-9


class Geodesic:
    name = "geodesic"

    def __init__(self, seed: int, round_s: float):
        self.seed = seed
        self.round_s = round_s
        self.grids = {n: experiments.box_for_target(2, n) for n in (16, 64)}
        self.adjacency_build_s = 0.0
        for grid in self.grids.values():
            grid._edge_arrays
            grid._csr_template
            start = time.perf_counter()
            grid._adjacency
            self.adjacency_build_s += time.perf_counter() - start
        seeds = np.random.SeedSequence([seed, 2]).generate_state(2 * FIELDS_PER_BOX, dtype=np.uint32)
        self.fields = {
            n: [fpp.field_from_distribution(grid, "exp:rate=1", int(s))
                for s in seeds[i * FIELDS_PER_BOX:(i + 1) * FIELDS_PER_BOX]]
            for i, (n, grid) in enumerate(self.grids.items())}
        for n, fields in self.fields.items():
            fpp.passage_time(fields[0], (0, 0), (n, 0))

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 2, r])
        ops = []
        for i in rng.permutation(len(GEODESIC_MIX)):
            kind, n = GEODESIC_MIX[i]
            args = {"n": n, "field": int(rng.integers(FIELDS_PER_BOX)),
                    "v": (n, int(rng.integers(-2, 3)))}
            if kind in ("derivative", "response"):
                # Edges along the straight segment are often on the geodesic.
                x, y = int(rng.integers(0, n)), int(rng.integers(-1, 2))
                args["edge"] = self.grids[n].edge_index((x, y), 0)
            if kind == "averaged":
                args["bits"] = rng.integers(0, 2, size=(2, 9))
            ops.append(Op(kind, args))
        return ops

    def run(self, op: Op):
        a = op.args
        fld = self.fields[a["n"]][a["field"]]
        if op.kind == "passage":
            return fpp.passage_time(fld, (0, 0), a["v"])
        if op.kind == "derivative":
            try:
                return fpp.edge_derivative(fld, a["v"], a["edge"])
            except fpp.GeodesicTieError:
                return "tie"
        if op.kind == "response":
            return fpp.single_edge_response(fld, a["v"], a["edge"], RESPONSE_GRID)
        return fpp.averaged_passage_time(a["bits"], fld, a["v"], 3)

    def _label(self, fld, source, target) -> float:
        ds = fpp.distances_from(fld, source)
        return float(ds[fld.grid.vertex_index(target)])

    def check(self, op: Op, out, notes: list) -> int:
        a = op.args
        fld = self.fields[a["n"]][a["field"]]
        grid = fld.grid
        what = f"{op.kind} n={a['n']} field={a['field']} v={a['v']}"
        if op.kind == "passage":
            label = self._label(fld, (0, 0), a["v"])
            if abs(out.distance - label) > 1e-9:
                return _fail(notes, 1, f"{what}: distance {out.distance!r} != label {label!r}")
            cur, total = grid.vertex_index((0, 0)), 0.0
            tails, heads = grid.edge_tails, grid.edge_heads
            for e in out.geodesic_edges:
                if cur == tails[e]:
                    cur = int(heads[e])
                elif cur == heads[e]:
                    cur = int(tails[e])
                else:
                    return _fail(notes, 1, f"{what}: geodesic is not a connected path")
                total += fld.weights[e]
            if cur != grid.vertex_index(a["v"]) or abs(total - out.distance) > 1e-9:
                return _fail(notes, 1, f"{what}: geodesic does not end at v or sum to the distance")
            return 0
        if op.kind == "derivative":
            if out == "tie":
                return 0
            base = self._label(fld, (0, 0), a["v"])
            bumped = fld.weights.copy()
            bumped[a["edge"]] += BUMP
            after = self._label(fpp.WeightField(grid=grid, weights=bumped), (0, 0), a["v"])
            if out not in (0, 1) or abs((after - base) - BUMP * out) > 1e-12:
                return _fail(notes, 1, f"{what} edge={a['edge']}: derivative {out} disagrees "
                                       f"with the finite difference {after - base:.3e}")
            return 0
        if op.kind == "response":
            if out.max_abs_deviation > 1e-9 * (1.0 + out.plateau) or out.distances.shape != (61,):
                return _fail(notes, 1, f"{what} edge={a['edge']}: response deviation "
                                       f"{out.max_abs_deviation:.3e}")
            return 0
        z = cube_averaging.random_vertex(a["bits"], 2)
        shifted = tuple(c + zc for c, zc in zip(a["v"], z))
        label = self._label(fld, z, shifted)
        if not all(0 <= zc <= 3 for zc in z) or abs(out - label) > 1e-9:
            return _fail(notes, 1, f"{what}: averaged passage {out!r} != label {label!r} at z={z}")
        return 0


# -- inequality reports ------------------------------------------------------

MC_SAMPLES = 20_000
CLASSIFY_GRID = 4_000
PHI_POINTS = 16
CHI2_PARAMS = [(2, 1.0), (3, 0.5), (4, 2.0)]
# Monte Carlo reports (mc, chi2, cov) take their seeds from this fixed pool.
# make_refs.py checks that every report of the workload passes on every pooled
# seed at the seed commit, so a run cannot meet the 3-sigma test's rare false
# alarm (about 1 in 1500 reports of an exactly tight function) by chance.
MC_SEEDS = [int(s) for s in np.random.SeedSequence(20060602).generate_state(64)]

# Inputs on which fppvar fails at the seed commit.  The gated ops leave them
# out, so that an op that fails is news; ``known_defects`` runs them after the
# timed phase and the report says whether each still fails.
# phi misses its documented 1e-10 here by 1.28e-10 (ROADMAP item 3).
PHI_KNOWN_BAD = [1.0103810553873246e-08]
# The discrete term of bit-single has zero variance, so its Monte Carlo
# tolerance comes out as 0 and the report fails about half its seeds.
MC_KNOWN_BAD = ["bit-single"]


def _identity(y):
    return y


def _one(y):
    return np.ones_like(y)


class Inequality:
    """One op per report.  A round has the same 29 kinds of op every time:
    12 quadrature reports (all of REGISTRY), 4 Monte Carlo reports (REGISTRY
    but ``MC_KNOWN_BAD``), 2 chi2 and 2 change-of-variables corollaries,
    6 classifications, 2 phi grids (the table but ``PHI_KNOWN_BAD``) and
    1 averaging check; the seed sets their order, seeds and arguments."""

    name = "inequality"

    def __init__(self, seed: int, round_s: float):
        self.seed = seed
        self.round_s = round_s
        self.rules = {64: gaussian.hermite_rule(64), 24: gaussian.hermite_rule(24)}
        self.functions = list(poincare.REGISTRY)
        self.mc_functions = [f for f in self.functions if f not in MC_KNOWN_BAD]
        self.dists = {f: edge_distributions.parse_distribution(f) for f in FAMILIES}
        self.phi_table = [row for row in refs()["phi"] if row[0] not in PHI_KNOWN_BAD]
        self.verdicts = refs()["classify"]
        self.run(Op("quad", {"function": self.functions[0]}))

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 3, r])
        nf = len(self.mc_functions)
        ops = [Op("quad", {"function": f}) for f in self.functions]
        ops += [Op("mc", {"function": self.mc_functions[(4 * r + k) % nf]}) for k in range(4)]
        ops += [Op("chi2", {"params": CHI2_PARAMS[int(rng.integers(len(CHI2_PARAMS)))]})
                for _ in range(2)]
        ops += [Op("cov", {"family": FAMILIES[(2 * r + k) % len(FAMILIES)]}) for k in range(2)]
        ops += [Op("classify", {"family": f}) for f in FAMILIES]
        ops += [Op("phi", {"rows": rng.choice(len(self.phi_table), PHI_POINTS, replace=False)})
                for _ in range(2)]
        ops.append(Op("averaging"))
        for op in ops:
            op.args["seed"] = MC_SEEDS[int(rng.integers(len(MC_SEEDS)))]
        return [ops[i] for i in rng.permutation(len(ops))]

    def run(self, op: Op):
        a = op.args
        if op.kind == "quad":
            tf = poincare.REGISTRY[a["function"]]
            rule = self.rules[64 if tf.n_cont <= 2 else 24]
            return poincare.verify_modified_poincare(tf, rule=rule)
        if op.kind == "mc":
            tf = poincare.REGISTRY[a["function"]]
            return poincare.verify_modified_poincare(tf, mc={"samples": MC_SAMPLES, "seed": a["seed"]})
        if op.kind == "chi2":
            k, alpha = a["params"]
            return poincare.verify_chi2_inequality(_identity, _one, k=k, alpha=alpha,
                                                   samples=MC_SAMPLES, seed=a["seed"])
        if op.kind == "cov":
            return poincare.verify_change_of_variables(_identity, _one, self.dists[a["family"]],
                                                       samples=MC_SAMPLES, seed=a["seed"])
        if op.kind == "classify":
            return edge_distributions.classify(self.dists[a["family"]], CLASSIFY_GRID)
        if op.kind == "phi":
            return [phi_mod.phi(self.phi_table[i][0]) for i in a["rows"]]
        return cube_averaging.verify_averaging_properties(3)

    def check(self, op: Op, out, notes: list) -> int:
        a = op.args
        if op.kind in ("quad", "mc", "chi2", "cov"):
            if not (out.passed and math.isfinite(out.margin)):
                label = a.get("function") or a.get("family") or a.get("params")
                return _fail(notes, 1, f"{op.kind} {label} seed={a['seed']}: not passed, "
                                       f"margin {out.margin:+.3e} tolerance {out.tolerance:.3e}")
            return 0
        if op.kind == "classify":
            want = self.verdicts[a["family"]]
            if out.verdict != want:
                return _fail(notes, 1, f"classify {a['family']}: {out.verdict} != {want}")
            return 0
        if op.kind == "phi":
            for i, got in zip(a["rows"], out):
                u, want = self.phi_table[i]
                if not abs(got - want) <= 1e-10:
                    return _fail(notes, 1, f"phi({u!r}) = {got!r}, mpmath {want!r}, "
                                           f"error {abs(got - want):.2e} > 1e-10")
            return 0
        if not (out.m == 3 and out.gradient_ok and out.level_bound_ok):
            return _fail(notes, 1, f"averaging m=3 failed: {out}")
        return 0

    def known_defects(self) -> list[str]:
        """Run the inputs left out of the gated ops; one line each."""
        lines = []
        for u, want in refs()["phi"]:
            if u in PHI_KNOWN_BAD:
                err = abs(phi_mod.phi(u) - want)
                state = "still fails" if not err <= 1e-10 else "now passes"
                lines.append(f"phi({u!r}): error {err:.3e} against 1e-10, {state}")
        for name in MC_KNOWN_BAD:
            tf = poincare.REGISTRY[name]
            bad = sum(not poincare.verify_modified_poincare(
                tf, mc={"samples": MC_SAMPLES, "seed": s}).passed for s in MC_SEEDS)
            lines.append(f"Monte Carlo report of {name}: {bad} of {len(MC_SEEDS)} pooled seeds "
                         f"fail, {'still fails' if bad else 'now passes'}")
        return lines


def make(name: str, seed: int):
    """Set up one workload; ``round_s`` is the rough seconds per round at the
    seed commit, used only to size the traced run."""
    if name in SWEEPS:
        return Sweep(name, seed=seed, **SWEEPS[name])
    if name == "geodesic":
        return Geodesic(seed, round_s=0.2)
    if name == "inequality":
        return Inequality(seed, round_s=0.12)
    raise ValueError(f"unknown workload {name!r}")
