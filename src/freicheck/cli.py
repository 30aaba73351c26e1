"""Command-line front end.

Four subcommands: ``verify`` a claimed product, ``gen`` a seeded test
instance, ``analyze`` the false-accept behaviour of a wrong instance, and
``bench`` the fingerprint check against the deterministic recompute.

All regular output is JSON on stdout with sorted keys, so identical inputs
produce byte-identical output.  Failures print a single JSON object
``{"error": {"kind": ..., "message": ...}}`` on stderr.  Exit codes: 0 for
accept/success, 1 for a verification reject, 2 for any error (including
usage errors, which argparse also exits with 2).  A reader that closes
stdout early is not an error: the exit code stays that of the outcome.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .analysis import (
    DEFAULT_BUDGET,
    InstanceSpec,
    _generate,
    analyze_instance,
)
from .bench import run_bench, write_csv
from .errors import ConfigInvalid, FreicheckError
from .matio import read_matrix, write_matrix
from .matrix import parse_ring
from .sampling import p_max, parse_dist
from .verify import VerifyConfig, verify


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _emit(payload) -> None:
    try:
        print(_dump(payload), flush=True)
    except BrokenPipeError:
        # The reader closed stdout early; the exit code still carries the
        # outcome.  Point stdout at devnull so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit_error(kind: str, message: str) -> None:
    print(_dump({"error": {"kind": kind, "message": message}}), file=sys.stderr)


def _cmd_verify(args: argparse.Namespace) -> int:
    a = read_matrix(args.a)
    b = read_matrix(args.b)
    c = read_matrix(args.c)
    dist = parse_dist(args.dist, a.ring)
    cfg = VerifyConfig(args.iterations, args.seed, dist)
    verdict = verify(a, b, c, cfg)
    if verdict.accepted:
        _emit(
            {
                "outcome": "accept",
                "iterations": cfg.iterations,
                "seed": cfg.seed,
                "dist": args.dist,
                "p_max": _frac(p_max(dist)),
                "error_bound": _frac(verdict.error_bound),
            }
        )
        return 0
    witness_path = args.witness_out or args.c + ".witness.json"
    witness = {
        "ring": str(a.ring),
        "length": len(verdict.witness),
        "witness_iteration": verdict.witness_iteration,
        "mismatch_row": verdict.mismatch_row,
        "r": [int(v) for v in verdict.witness.data],
    }
    with open(witness_path, "w", encoding="utf-8") as fh:
        fh.write(_dump(witness) + "\n")
    _emit(
        {
            "outcome": "reject",
            "iterations": cfg.iterations,
            "seed": cfg.seed,
            "dist": args.dist,
            "witness_iteration": verdict.witness_iteration,
            "mismatch_row": verdict.mismatch_row,
            "witness_path": witness_path,
        }
    )
    return 1


def _cmd_gen(args: argparse.Namespace) -> int:
    ring = parse_ring(args.ring)
    spec = InstanceSpec(args.n, ring, args.mode, args.seed, args.entry_bound)
    a, b, c, profile = _generate(spec, True)
    paths = {
        "a": f"{args.out}.A.freimat",
        "b": f"{args.out}.B.freimat",
        "c": f"{args.out}.C.freimat",
    }
    write_matrix(a, paths["a"])
    write_matrix(b, paths["b"])
    write_matrix(c, paths["c"])
    payload = {
        "n": spec.n,
        "ring": str(ring),
        "mode": spec.mode,
        "seed": spec.seed,
        "files": paths,
        "profile": {
            "y_size": profile.y_size,
            "entries": profile.differing_entries,
            "rank": profile.difference_rank,
            "differing_columns": list(profile.differing_columns),
        },
    }
    sidecar = f"{args.out}.profile.json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        fh.write(_dump(payload) + "\n")
    _emit(payload)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    a = read_matrix(args.a)
    b = read_matrix(args.b)
    c = read_matrix(args.c)
    dist = parse_dist(args.dist, a.ring)
    report = analyze_instance(
        a,
        b,
        c,
        dist,
        exact=args.exact,
        trials=args.trials,
        seed=args.seed,
        budget=args.budget,
    )
    payload = {
        "bound": _frac(report.per_iteration_bound),
        "profile": {
            "y_size": report.instance_profile.y_size,
            "entries": report.instance_profile.differing_entries,
            "mode": args.mode,
        },
    }
    if report.exact_fap is not None:
        payload["exact_fap"] = _frac(report.exact_fap)
    if report.empirical is not None:
        payload["empirical"] = {
            "rate": report.empirical.rate,
            "trials": report.empirical.trials,
            "ci99": list(report.empirical.ci99),
        }
    _emit(payload)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",")]
    except ValueError:
        raise ConfigInvalid(f"bad size list {args.sizes!r}") from None
    dist = parse_dist(args.dist, parse_ring("int64"))
    records, ratios = run_bench(
        sizes, k=args.k, repeats=args.repeats, seed=args.seed, dist=dist
    )
    if args.csv:
        write_csv(records, args.csv)
    payload = {
        "k": args.k,
        "repeats": args.repeats,
        "records": [
            {
                "n": r.n,
                "method": r.method,
                "k": r.k,
                "wall_ms": r.wall_time * 1e3,
                "scalar_ops": r.scalar_ops,
            }
            for r in records
        ],
        "doubling_ratios": ratios,
    }
    _emit(payload)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freicheck",
        description="Randomized checking of claimed matrix products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check whether C = AB")
    p_verify.add_argument("--a", required=True, help="path to A")
    p_verify.add_argument("--b", required=True, help="path to B")
    p_verify.add_argument("--c", required=True, help="path to the claimed product C")
    p_verify.add_argument("-k", "--iterations", type=int, default=20)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--dist",
        default="u01",
        help="component law: u01 | bern:<num>/<den> | usup:<v1,v2,...> | field",
    )
    p_verify.add_argument(
        "--witness-out",
        default=None,
        help="where to write the reject witness (default: <C path>.witness.json)",
    )
    p_verify.set_defaults(handler=_cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a seeded test instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--ring", default="int64", help="int64 | 'zp <p>'")
    p_gen.add_argument(
        "--mode",
        default="dense-random",
        help="equal | single-entry | single-column | rank-one | dense-random",
    )
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--entry-bound", type=int, default=256)
    p_gen.add_argument("--out", default="instance", help="output path prefix")
    p_gen.set_defaults(handler=_cmd_gen)

    p_analyze = sub.add_parser(
        "analyze", help="false-accept behaviour of an instance with C != AB"
    )
    p_analyze.add_argument("--a", required=True)
    p_analyze.add_argument("--b", required=True)
    p_analyze.add_argument("--c", required=True)
    p_analyze.add_argument("--dist", default="u01")
    p_analyze.add_argument(
        "--exact", action="store_true", help="enumerate the exact probability"
    )
    p_analyze.add_argument(
        "--trials", type=int, default=None, help="measure an empirical rate"
    )
    p_analyze.add_argument("--seed", type=int, default=0)
    p_analyze.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_analyze.add_argument(
        "--mode", default="unknown", help="instance label recorded in the profile"
    )
    p_analyze.set_defaults(handler=_cmd_analyze)

    p_bench = sub.add_parser("bench", help="time fingerprinting vs recomputation")
    p_bench.add_argument("--sizes", default="512,1024", help="comma-separated sizes")
    p_bench.add_argument("-k", type=int, default=10)
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--dist", default="u01")
    p_bench.add_argument("--csv", default=None, help="also write records to this CSV")
    p_bench.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; the parser is built on the first call only."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except FreicheckError as err:
        _emit_error(err.kind, str(err))
        return 2
    except OSError as err:
        _emit_error("IOError", str(err))
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
