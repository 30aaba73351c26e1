"""Timings of exact products past the float64 range, written to BENCH_limb_split.json.

    python scripts/bench_limb_split.py [--parent SRC] [--repeats R] [--out FILE]

Instances are generated once, with the freicheck in this checkout's ``src``,
and saved as ``.npz`` files.  Every measurement then runs in a fresh
interpreter against one source tree: this checkout's ``src`` and, with
``--parent``, another tree's ``src`` (say, the parent commit's).  Both time
the same inputs, and a slow tree never pays to generate them.  A time is the
median of R runs after one warm-up run.

Rows:

* ``verify``: n = 1024, k = 10, an equal instance (every fingerprint runs),
  u01 law in every ring and the field law in Z_p;
* ``matmul``: n = 256, Z_p for p = 2^31 - 1 and 2^61 - 1, and int64 entries
  below 2^28 in magnitude, whose bound n * 2^56 passes 2^63;
* ``threads``: the n = 1024 float64 recompute ``a @ b`` on 1 and 2 OpenBLAS
  threads, timed alternately after 2 s of warm-up;
* ``einsum_vs_limbs``: the int64 ``einsum`` tier against the limb tier on
  products whose bound lies in (2^53, 2^63 - 1], where the chooser picks
  ``einsum``.

The last two need the limb tier, so they are measured on this checkout only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE_SRC = Path(__file__).resolve().parents[1] / "src"
P31, P61 = 2**31 - 1, 2**61 - 1
P26 = 67108859  # the largest prime below 2^26: 1024 p^2 lies in (2^53, 2^63)
VERIFY = [("int64", None), ("zp", P31), ("zp", P61)]
MATMUL = [("zp", P31, None), ("zp", P61, None), ("int64", None, 2**28 - 1)]
EINSUM_SHAPES = [(64, 1), (64, 19), (64, 4000), (1024, 1), (1024, 10), (1024, 100)]


def _median_ms(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return round(statistics.median(times) * 1e3, 3)


def _ring(fc, kind: str, p: int | None):
    return fc.matrix.RingSpec.int64() if kind == "int64" else fc.matrix.RingSpec.prime_field(p)


def _name(kind: str, p: int | None) -> str:
    return "int64" if kind == "int64" else f"zp {p}"


def generate(data: Path) -> None:
    """Save the instances every tree times, built with this checkout."""
    sys.path.insert(0, str(HERE_SRC))
    import freicheck as fc

    spec = fc.analysis.InstanceSpec
    for kind, p in VERIFY:
        a, b, c = fc.generate_instance(spec(1024, _ring(fc, kind, p), "equal", 1))
        np.savez(data / f"verify_{_name(kind, p)}.npz", a=a.data, b=b.data, c=c.data)
    for kind, p, bound in MATMUL:
        a, b, c = fc.generate_instance(spec(256, _ring(fc, kind, p), "equal", 2, bound or 256))
        np.savez(data / f"matmul_{_name(kind, p)}_{bound}.npz", a=a.data, b=b.data, c=c.data)


def measure(data: Path, repeats: int) -> dict:
    """Every row this tree supports, in this interpreter."""
    import freicheck as fc
    from freicheck import matrix

    out: dict = {"verify": {}, "matmul": {}}
    for kind, p in VERIFY:
        ring = _ring(fc, kind, p)
        arrays = np.load(data / f"verify_{_name(kind, p)}.npz")
        a, b, c = (fc.Matrix(1024, 1024, ring, arrays[k]) for k in "abc")
        laws = {"u01": fc.uniform_binary()}
        if p:
            laws["field"] = fc.field_uniform(ring)
        for law, dist in laws.items():
            cfg = fc.VerifyConfig(10, 3, dist)
            assert fc.verify(a, b, c, cfg).accepted
            key = f"{_name(kind, p)} {law}"
            out["verify"][key] = _median_ms(lambda: fc.verify(a, b, c, cfg), repeats)
    for kind, p, bound in MATMUL:
        ring = _ring(fc, kind, p)
        arrays = np.load(data / f"matmul_{_name(kind, p)}_{bound}.npz")
        a, b, c = (fc.Matrix(256, 256, ring, arrays[k]) for k in "abc")
        assert fc.mats_equal(fc.matmul(a, b), c)
        label = _name(kind, p) + (f" entries < 2^{bound.bit_length()}" if bound else "")
        out["matmul"][label] = _median_ms(lambda: fc.matmul(a, b), repeats)
    if hasattr(matrix, "_limb_dot"):
        out["threads"] = _threads(matrix, data, repeats)
        out["einsum_vs_limbs"] = _einsum_vs_limbs(matrix, repeats)
    return out


def _threads(matrix, data: Path, repeats: int) -> dict:
    calls = matrix._blas_thread_calls()
    if calls is None:
        return {"note": "numpy's OpenBLAS exports no thread-count calls"}
    get, put = calls
    arrays = np.load(data / "verify_int64.npz")
    af, bf = arrays["a"].astype(np.float64), arrays["b"].astype(np.float64)
    # OpenBLAS's worker shares a CPU with the main thread for about the
    # first second of a process; time after that window.
    end = time.perf_counter() + 2
    while time.perf_counter() < end:
        af @ bf
    before = get()
    times: dict[int, list[float]] = {1: [], 2: []}
    try:
        for _ in range(repeats):
            for t in (1, 2):
                put(t)
                t0 = time.perf_counter()
                af @ bf
                times[t].append(time.perf_counter() - t0)
    finally:
        put(before)
    return {f"{t} threads": round(statistics.median(v) * 1e3, 3) for t, v in times.items()}


def _einsum_vs_limbs(matrix, repeats: int) -> list[dict]:
    rng = np.random.default_rng(7)
    rows = []
    for ring, p in (("int64", None), (f"zp {P26}", P26)):
        for n, w in EINSUM_SHAPES:
            if p:
                x = rng.integers(0, p, size=(n, n), dtype=np.int64)
                y = rng.integers(0, p, size=(n, w), dtype=np.int64)
            else:
                mag = 2**24 if n == 64 else 2**22
                x = rng.integers(-mag, mag + 1, size=(n, n), dtype=np.int64)
                y = rng.integers(-mag, mag + 1, size=(n, w), dtype=np.int64)
            mx, my = int(np.abs(x).max()), int(np.abs(y).max())
            bound = n * mx * my
            assert matrix._FLOAT_EXACT < bound <= matrix.INT64_MAX

            def einsum():
                out = np.einsum("ik,jk->ij", x, np.ascontiguousarray(y.T))
                return out % p if p else out

            def limbs():
                return matrix._limb_dot(x, y, mx, my, p)

            assert np.array_equal(einsum(), limbs())
            rows.append(
                {
                    "ring": ring,
                    "n": n,
                    "w": w,
                    "bound_log2": round(float(np.log2(float(bound))), 2),
                    "einsum_ms": _median_ms(einsum, repeats),
                    "limbs_ms": _median_ms(limbs, repeats),
                }
            )
    return rows


def _child(src: Path, data: Path, repeats: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, __file__, "--child", str(data), "--repeats", str(repeats)]
    res = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(res.stdout)


def _machine() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _ratios(parent: dict, change: dict) -> dict:
    return {
        section: {
            key: {"parent_ms": parent[section][key], "change_ms": ms,
                  "speedup": round(parent[section][key] / ms, 1)}
            for key, ms in change[section].items()
        }
        for section in ("verify", "matmul")
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, help="src directory of the tree to compare against")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", type=Path, help="write the JSON here instead of stdout")
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(measure(args.child, args.repeats)))
        return
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp)
        generate(data)
        change = _child(HERE_SRC, data, args.repeats)
        parent = _child(args.parent.resolve(), data, args.repeats) if args.parent else None
    doc = {
        "change": "one limb-split float64 BLAS tier for Z_p and past-2^63 int64 products",
        "command": "python scripts/bench_limb_split.py --parent <parent src> "
        f"--repeats {args.repeats} --out BENCH_limb_split.json",
        "machine": _machine(),
        "repeats": args.repeats,
        "change_only": {k: change[k] for k in ("threads", "einsum_vs_limbs")},
    }
    if parent:
        doc.update(_ratios(parent, change))
    else:
        doc.update({k: change[k] for k in ("verify", "matmul")})
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
