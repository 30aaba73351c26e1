#!/usr/bin/env python3
"""Benchmark of the freicheck package, one workload per process.

    python3 perfbench/run.py --workload verify-large --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Inputs are generated from ``--seed`` by the benchmark's own generator.  After
set-up and one warm-up round whose results the oracle judges, whole rounds of
the workload's op list run until ``--seconds`` have passed.  In an untraced
round the op's reference kernel is timed before every op, and each op's time
is divided by the median time of that kernel in its round.  ``--trace 0``
reports the end-to-end metrics named in BENCHMARK.json: latencies as medians
of those ratios, in units of the reference (``ref``).  ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics,
including the tracing overhead.  The last line of stdout is the result; the
line before it is a full report, also written to ``.bench_out/``.
"""

from __future__ import annotations

import os

# One BLAS thread: one client in one process, steadier on a shared machine.
# Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import machine  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
MODULES = ("matio", "matrix", "sampling", "verify", "analysis", "cli")
SETUP_REPS = 7
MIN_ROUNDS = 3
P90_MIN_SAMPLES = 100
IMPORT_PROGRAM = "import sys; sys.path.insert(0, sys.argv[1]); import freicheck"


def load_program() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    try:
        import freicheck
    except ImportError as err:
        sys.exit(f"cannot import freicheck from {SRC}: {err}")
    if not Path(freicheck.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"freicheck was imported from {freicheck.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"freicheck.{m}") for m in MODULES})


def timed_setup(M, build, seed: int, workdir: Path):
    """Median of SETUP_REPS set-ups: a fresh interpreter importing the
    program, then generating the inputs and building the program's matrices."""
    times = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-s", "-c", IMPORT_PROGRAM, str(SRC)],
            check=True, capture_output=True, timeout=120,
        )
        ctx = workloads.Context(M, seed, workdir)
        ops, references = build(ctx)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), ctx, ops, references


class Runner:
    """Runs rounds of a workload's ops.

    On a shared machine the same code runs at speeds up to 1.6x apart for
    minutes at a time, which moves every raw latency, even the best of a
    run.  So an untraced round also times the op's reference kernel before
    each op, and each op's time is kept as well as a ratio to that kernel's
    median time in the round: the op's cost in units of the machine's speed
    during that round.
    """

    def __init__(self, ops, references, tracer=None, multiplies=None) -> None:
        self.ops = ops
        self.references = references
        self.tracer = tracer
        self.multiplies = multiplies
        self.attempted = 0
        self.failures: list[str] = []
        self.samples = {op.kind: [] for op in ops}
        self.ratios = {op.kind: [] for op in ops}
        self.reference_times = {name: [] for name in references}
        self.rounds: list[dict] = []

    def _judge(self, op, out) -> str | None:
        """The oracle judges an op's first result; a rerun must repeat it and
        inherits its verdict."""
        if not op.judged:
            op.judged = True
            op.first = op.summary(out)
            op.error = op.check(out)
        elif op.summary(out) != op.first:
            return "result differs from the first run of the same op"
        return op.error

    def round(self, timed: bool, traced: bool = False) -> None:
        count0 = self.multiplies() if self.multiplies else 0
        if traced:
            self.tracer.install()
        total = 0.0
        refs = {name: [] for name in self.references}
        timings = []
        try:
            for op in self.ops:
                if not traced:
                    t0 = time.perf_counter()
                    self.references[op.reference]()
                    refs[op.reference].append(time.perf_counter() - t0)
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    if traced:
                        out = self.tracer.call("op." + op.kind, op.call)
                    else:
                        out = op.call()
                    dt = time.perf_counter() - t0
                    err = self._judge(op, out)
                except Exception:  # a failing op is counted and the run goes on
                    err = traceback.format_exc(limit=3)
                    dt = None
                if err:
                    self.failures.append(f"{op.kind}: {err}")
                    continue
                total += dt
                if timed and not traced:
                    timings.append((op, dt))
        finally:
            if traced:
                self.tracer.uninstall()
        if timings:
            ref = {name: statistics.median(ts) for name, ts in refs.items() if ts}
            for name, t in ref.items():
                self.reference_times[name].append(t)
            for op, dt in timings:
                self.samples[op.kind].append(dt)
                self.ratios[op.kind].append(dt / ref[op.reference])
        if timed:
            count = self.multiplies() - count0 if self.multiplies else None
            self.rounds.append({"traced": traced, "total": total, "multiplies": count})

    def pooled(self, pred, source=None) -> list[float]:
        source = self.samples if source is None else source
        kinds = {op.kind for op in self.ops if pred(op)}
        return [t for k in kinds for t in source[k]]


def _ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _min_ms(values) -> float:
    return min(values) * 1e3 if values else 0.0  # no samples: every op failed


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def detail(runner: Runner) -> dict:
    """Figures of each op class under their own names, where they apply."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def latency(prefix, pred):
        xs = runner.pooled(pred)
        if xs:
            put(f"{prefix}_p50_ms", _ms(xs), "ms")
            if len(xs) >= P90_MIN_SAMPLES:
                put(f"{prefix}_p90_ms", statistics.quantiles(xs, n=10)[-1] * 1e3, "ms")

    latency("verify_accept", lambda op: op.group == "verify" and op.cls == "accept")
    latency("verify_reject", lambda op: op.group == "verify" and op.cls.startswith("reject"))
    latency("recompute", lambda op: op.group == "recompute")
    latency("cli_verify", lambda op: op.group == "cli-verify")
    latency("cli_gen", lambda op: op.group == "cli-gen")
    latency("analyze", lambda op: op.group == "analyze")
    for unit, name in (("vectors", "exact_vectors_per_s"), ("trials", "empirical_trials_per_s")):
        ops = [op for op in runner.ops if op.work and op.work[0] == unit]
        done = sum(op.work[1] * len(runner.samples[op.kind]) for op in ops)
        spent = sum(sum(runner.samples[op.kind]) for op in ops)
        if spent:
            put(name, done / spent, f"{unit[:-1]}/s")
    put("failed_ops_frac", len(runner.failures) / max(runner.attempted, 1), "1")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    M = load_program()
    multiplies = getattr(M.matrix, "scalar_multiplies", None)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_s, ctx, ops, references = timed_setup(
            M, workloads.WORKLOADS[args.workload], args.seed, workdir
        )
        tracer = tracing.Tracer() if args.trace else None
        runner = Runner(ops, references, tracer, multiplies)
        runner.round(timed=False)  # warm-up; the oracle judges every op here
        min_rounds = 2 * MIN_ROUNDS if args.trace else MIN_ROUNDS
        deadline = time.perf_counter() + args.seconds
        while len(runner.rounds) < min_rounds or time.perf_counter() < deadline:
            runner.round(timed=True, traced=bool(args.trace) and len(runner.rounds) % 2 == 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in runner.rounds if not r["traced"]]
    counts = {r["multiplies"] for r in runner.rounds}
    if args.trace:
        traced = [r for r in runner.rounds if r["traced"]]
        values = tracer.layer_metrics(len(traced))
        untraced_ms = _min_ms([r["total"] for r in plain])
        traced_ms = _min_ms([r["total"] for r in traced])
        values["trace.untraced_round_ms"] = untraced_ms
        values["trace.traced_round_ms"] = traced_ms
        values["trace.overhead_pct"] = (traced_ms / untraced_ms - 1) * 100 if untraced_ms else 0.0
        values["matrix.scalar_multiplies"] = runner.rounds[0]["multiplies"] or 0
        names = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "verify_accept_rel": _median(runner.pooled(lambda op: op.cls == "accept", runner.ratios)),
            "verify_reject_rel": _median(runner.pooled(lambda op: op.cls == "reject", runner.ratios)),
            "nonverify_round_rel": sum(
                _median(runner.ratios[op.kind]) for op in ops if op.cls == "other"
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        names = spec["end_to_end"]
    if set(values) != {m["name"] for m in names}:
        sys.exit(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(runner.rounds),
        "machine": machine.info(),
        "instances_sha256": ctx.digests,
        "scalar_multiplies_per_round": sorted(counts, key=str),
        "detail": detail(runner),
        "references": {
            name: {"rounds": len(ts), "min_ms": _min_ms(ts), "p50_ms": _ms(ts)}
            for name, ts in runner.reference_times.items()
        },
        "ops": {
            op.kind: {
                "n": len(runner.samples[op.kind]),
                "min_ms": _min_ms(runner.samples[op.kind]),
                "p50_ms": _ms(runner.samples[op.kind]),
                "rel_p50": _median(runner.ratios[op.kind]),
            }
            for op in ops if runner.samples[op.kind]
        },
        "oracle_tally": ctx.tally,
        "failures": runner.failures[:20],
        "absent_bindings": tracer.absent if tracer else [],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if tracer:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
