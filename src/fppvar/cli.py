"""Command line entry point.

Subcommands: phi, psi, check-neargamma, verify-poincare, averaging,
fpp run | response | sweep.  Reports are JSON, tables are CSV.  Exit codes:
0 success, 1 verification failure (an inequality margin below tolerance or a
failed property check), 2 usage or domain error.

``--config FILE`` holds ``key=value`` lines.  A key is a long option name
without dashes (``grid-size``, ``y-max``) and sets that option's default in
every subcommand that has it, required options included; flags still win.
Values are checked like flags, and an unknown or repeated key exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional

import numpy as np

from . import cube_averaging, experiments, fpp, gaussian, phi as phi_mod, poincare
from .edge_distributions import classify, parse_distribution, psi as psi_fn

MAX_SEED = 2 ** 64 - 1


class CliError(Exception):
    """Usage/domain error; maps to exit code 2."""


def _load_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, val = line.partition("=")
            if not eq:
                raise CliError(f"bad config line: {raw.strip()!r}")
            key = key.strip()
            if key in out:
                raise CliError(f"repeated config key {key!r}")
            out[key] = val.strip()
    return out


def _seed_type(text: str) -> int:
    val = int(text)
    if not (0 <= val <= MAX_SEED):
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return val


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json(obj) -> str:
    return json.dumps(dataclasses.asdict(obj), indent=2) + "\n"


def _build_parser(config: dict[str, str]) -> argparse.ArgumentParser:
    keys = set()

    def opt(p, flag, **kw):
        # argparse converts string defaults of the subcommand that runs only,
        # so a config value is converted and checked here, for every one.
        key = flag[2:]
        keys.add(key)
        if key in config:
            val = config[key]
            if "choices" in kw and val not in kw["choices"]:
                raise CliError(f"config {key}={val!r}: "
                               f"choose from {', '.join(kw['choices'])}")
            try:
                kw.update(default=kw.get("type", str)(val), required=False)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise CliError(f"config {key}={val!r}: {exc}") from exc
        p.add_argument(flag, **kw)

    def command(subs, name, handler, summary):
        p = subs.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        opt(p, "--out")
        return p

    parser = argparse.ArgumentParser(prog="fppvar")
    parser.add_argument("--config", help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = command(sub, "phi", _cmd_phi, "evaluate the variance-discount function")
    opt(p, "--u", type=float, required=True)

    p = command(sub, "psi", _cmd_psi, "evaluate the quantile-coupling factor")
    opt(p, "--dist", required=True)
    opt(p, "--y", type=float, required=True)

    p = command(sub, "check-neargamma", _cmd_check_neargamma,
                "nearly-gamma classification report")
    opt(p, "--dist", required=True)
    opt(p, "--grid-size", type=int, default=50_000)

    p = command(sub, "verify-poincare", _cmd_verify_poincare, "variance inequality report")
    opt(p, "--function", required=True, choices=sorted(poincare.REGISTRY))
    opt(p, "--mode", choices=("quad", "mc"), default="quad")
    opt(p, "--samples", type=int, default=100_000)
    opt(p, "--seed", type=_seed_type, default=0)
    opt(p, "--order", type=int, help="default 64, or 24 above 2 Gaussian coordinates")

    p = command(sub, "averaging", _cmd_averaging, "cube averaging function")
    opt(p, "--m", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--verify", action="store_true")
    group.add_argument("--eval", metavar="BITSTRING")

    fp = sub.add_parser("fpp", help="first passage percolation")
    fsub = fp.add_subparsers(dest="fpp_command", required=True)

    def field_opts(p):
        opt(p, "--d", type=int, default=2)
        opt(p, "--n", type=int, required=True)
        opt(p, "--dist", default="exp:rate=1")
        opt(p, "--seed", type=_seed_type, default=0)

    p = command(fsub, "run", _cmd_fpp_run, "one passage time with geodesic")
    field_opts(p)

    p = command(fsub, "response", _cmd_fpp_response, "single-edge response curve (CSV)")
    field_opts(p)
    opt(p, "--edge", type=int, required=True)
    opt(p, "--y-max", type=float, default=30.0)
    opt(p, "--grid-points", type=int, default=61)

    p = command(fsub, "sweep", _cmd_fpp_sweep, "variance scaling sweep (CSV)")
    opt(p, "--dist", default="exp:rate=1")
    opt(p, "--d", type=int, default=2)
    opt(p, "--ns", default="8,16,32,64")
    opt(p, "--samples", type=int, default=2000)
    opt(p, "--seed", type=_seed_type, default=0)
    opt(p, "--workers", type=int, default=1)

    unknown = sorted(set(config) - keys)
    if unknown:
        raise CliError(f"unknown config key(s): {', '.join(unknown)}")
    return parser


def _cmd_phi(ns) -> int:
    _emit(repr(phi_mod.phi(ns.u)) + "\n", ns.out)
    return 0


def _cmd_psi(ns) -> int:
    _emit(repr(psi_fn(parse_distribution(ns.dist), ns.y)) + "\n", ns.out)
    return 0


def _cmd_check_neargamma(ns) -> int:
    report = classify(parse_distribution(ns.dist), quantile_grid_size=ns.grid_size)
    _emit(_json(report), ns.out)
    return 0 if report.verdict != "fail" else 1


def _cmd_verify_poincare(ns) -> int:
    tf = poincare.REGISTRY[ns.function]
    if ns.mode == "quad":
        order = ns.order if ns.order is not None else (64 if tf.n_cont <= 2 else 24)
        report = poincare.verify_modified_poincare(tf, rule=gaussian.hermite_rule(order))
    else:
        report = poincare.verify_modified_poincare(
            tf, mc={"samples": ns.samples, "seed": ns.seed})
    _emit(_json(report), ns.out)
    return 0 if report.passed else 1


def _cmd_averaging(ns) -> int:
    if ns.verify:
        report = cube_averaging.verify_averaging_properties(ns.m)
        _emit(_json(report), ns.out)
        return 0 if (report.gradient_ok and report.level_bound_ok) else 1
    # A character other than 0 or 1 reaches g_m as -1, which it refuses.
    bits = [int(c) if c in "01" else -1 for c in ns.eval.strip()]
    _emit(f"{cube_averaging.g_m(bits, ns.m)}\n", ns.out)
    return 0


def _default_field(ns):
    if ns.n < 1:
        raise CliError("--n must be positive")
    grid = experiments.box_for_target(ns.d, ns.n)
    field = fpp.field_from_distribution(grid, ns.dist, ns.seed)
    return field, (ns.n,) + (0,) * (ns.d - 1)


def _cmd_fpp_run(ns) -> int:
    field, target = _default_field(ns)
    origin = (0,) * field.grid.d
    res = fpp.passage_time(field, origin, target)
    _emit(_json(dataclasses.replace(res, geodesic_edges=tuple(sorted(res.geodesic_edges)))),
          ns.out)
    return 0


def _cmd_fpp_response(ns) -> int:
    field, target = _default_field(ns)
    grid = np.linspace(0.0, ns.y_max, ns.grid_points)
    curve = fpp.single_edge_response(field, target, ns.edge, grid)
    lines = ["y,distance"] + [f"{y!r},{d!r}" for y, d in zip(curve.ys, curve.distances)]
    _emit("\n".join(lines) + "\n", ns.out)
    return 0


def _cmd_fpp_sweep(ns) -> int:
    try:
        n_list = [int(tok) for tok in ns.ns.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"bad --ns list: {ns.ns!r}") from exc
    dist = parse_distribution(ns.dist)
    result = experiments.sweep(dist, ns.d, n_list, ns.samples, ns.seed, workers=ns.workers)
    _emit(result.to_csv(), ns.out)
    return 0


def dispatch(argv) -> int:
    pre = argparse.ArgumentParser(prog="fppvar", add_help=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv)[0].config
        ns = _build_parser(_load_config(path) if path else {}).parse_args(argv)
        return ns.handler(ns)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
