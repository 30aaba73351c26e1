"""Wall-clock and operation-count comparison of the two checking strategies.

For each size n the runner builds one correct instance (C really is AB, so
the fingerprint check never exits early and all k iterations run), then times
the deterministic recompute-and-compare against the k-iteration fingerprint
check.  The sizes are timed interleaved, repeat by repeat: each repeat times
both methods at every size in turn, so noise early in a process, such as a
slow first second, spreads over all sizes instead of inflating the first
one's median.  Both methods go through the same exact product chooser, so
with the default entry bound both use its fastest tier (float BLAS
wherever the bound allows, on the process's BLAS threads: float32 where
it is at most 2**24, as the recompute's bound n 256**2 is up to n = 256,
and float64 up to 2**53): the comparison is against the strongest exact
recompute the package has.  Wall times are the median over repeats;
scalar multiplication counts come from the exact counter, which charges
``rows * inner * cols`` per product however the iterations are batched,
so they are n^3 and 3*k*n^2 regardless of how noisy the clock is.  Consecutive doubled sizes also get a time ratio, the
empirical growth signal (ideal: 8x for the cubic method, 4x for the
quadratic one).
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass

from .analysis import _MAX_N, InstanceSpec, generate_instance
from .errors import ConfigInvalid
from .matrix import (
    INT64_MAX,
    RingSpec,
    matmul,
    mats_equal,
    reset_scalar_multiplies,
    scalar_multiplies,
)
from .sampling import DiscreteDistribution, stream_seed, uniform_binary
from .verify import Verdict, VerifyConfig, verify


@dataclass(frozen=True)
class BenchRecord:
    """One timed configuration; ``k`` is None for the deterministic method."""

    n: int
    method: str
    k: int | None
    wall_time: float
    scalar_ops: int


def _timed(runs: list, call):
    """``call()``, appending its wall time and scalar multiplies to ``runs``."""
    reset_scalar_multiplies()
    t0 = time.perf_counter()
    out = call()
    runs.append((time.perf_counter() - t0, scalar_multiplies()))
    return out


def run_bench(
    sizes,
    k: int = 10,
    repeats: int = 5,
    seed: int = 0,
    entry_bound: int = 256,
    dist: DiscreteDistribution | None = None,
) -> tuple[list[BenchRecord], dict[str, dict[str, float]]]:
    """Time both methods at each size; returns records and doubling ratios."""
    sizes = [int(n) for n in sizes]
    if not sizes or sizes != sorted(set(sizes)):
        raise ConfigInvalid("sizes must be a nonempty ascending list of distinct values")
    if any(n < 1 for n in sizes):
        raise ConfigInvalid("sizes must be positive")
    if max(sizes) > _MAX_N:
        raise ConfigInvalid(
            f"size {max(sizes)} is past the point where the cubic baseline "
            f"finishes in reasonable time; the limit is {_MAX_N}"
        )
    if k < 1:
        raise ConfigInvalid(f"need at least one iteration, got {k}")
    if repeats < 1:
        raise ConfigInvalid(f"need at least one repeat, got {repeats}")
    # Catch a hopeless setup before burning time on it: products at the
    # largest size must fit checked 64-bit accumulation.
    if max(sizes) * entry_bound * entry_bound > INT64_MAX:
        raise ConfigInvalid(
            f"entries in [-{entry_bound}, {entry_bound}] overflow 64-bit "
            f"accumulation at n = {max(sizes)}"
        )
    dist = uniform_binary() if dist is None else dist

    instances = [
        generate_instance(InstanceSpec(n, RingSpec.int64(), "equal", stream_seed(seed, i), entry_bound))
        for i, n in enumerate(sizes)
    ]
    cfgs = [VerifyConfig(k, stream_seed(seed, len(sizes) + i), dist) for i in range(len(sizes))]
    # Per size, (seconds, multiplies) of every repeat of each method.
    runs = [([], []) for _ in sizes]
    for _ in range(repeats):
        for (a, b, c), cfg, (det, frei) in zip(instances, cfgs, runs):
            ok = _timed(det, lambda: mats_equal(matmul(a, b), c))
            assert ok, "equal-mode instance failed its own recompute"
            verdict: Verdict = _timed(frei, lambda: verify(a, b, c, cfg))
            assert verdict.accepted, "correct product was rejected"

    records: list[BenchRecord] = []
    for n, (det, frei) in zip(sizes, runs):
        for method, its, timed in (("deterministic", None, det), ("freivalds", k, frei)):
            records.append(BenchRecord(n, method, its, statistics.median(t for t, _ in timed), timed[-1][1]))
    return records, doubling_ratios(records)


def doubling_ratios(records) -> dict[str, dict[str, float]]:
    """Time ratios between records whose sizes differ by exactly 2x."""
    by_key = {(r.method, r.n): r for r in records}
    out: dict[str, dict[str, float]] = {"deterministic": {}, "freivalds": {}}
    for (method, n), rec in sorted(by_key.items()):
        doubled = by_key.get((method, 2 * n))
        if doubled is not None and rec.wall_time > 0:
            out[method][f"{n}->{2 * n}"] = doubled.wall_time / rec.wall_time
    return out


def write_csv(records, path) -> None:
    """Rows of ``n,method,k,wall_ms,scalar_ops``; k is empty when not applicable."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "method", "k", "wall_ms", "scalar_ops"])
        for r in records:
            writer.writerow(
                [
                    r.n,
                    r.method,
                    "" if r.k is None else r.k,
                    f"{r.wall_time * 1e3:.3f}",
                    r.scalar_ops,
                ]
            )
