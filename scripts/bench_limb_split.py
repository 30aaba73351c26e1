"""Timings of exact products past the float64 range, as JSON.

    python scripts/bench_limb_split.py [--parent SRC] [--repeats R] [--out FILE]

``BENCH_lean_limbs.json`` and ``BENCH_early_reject.json`` at the repo root
were written by this script with ``--parent``, ``BENCH_row_streaming.json``
and ``BENCH_wide_products.json`` by its earlier form, which kept the lower
of two runs per tree, and ``BENCH_limb_split.json`` by a form without
``wide_products``.

Instances are generated once, with the freicheck in this checkout's ``src``,
and saved as ``.npz`` files.  Every measurement then runs in a fresh
interpreter against one source tree: this checkout's ``src`` and, with
``--parent``, another tree's ``src`` (say, the parent commit's).  Both time
the same inputs, and a slow tree never pays to generate them.  A time is the
median of R runs after one warm-up run.

Without ``--parent`` one interpreter runs and its times are printed.  With
``--parent`` ``PAIRS`` (5) pairs of interpreters run, one per tree,
alternating which tree runs first.  Each row of ``verify``,
``verify_reject``, ``matmul``, ``wide_products`` and ``einsum_vs_limbs``
then reports, per tree, the median and quartiles of its five times, and the
change's speed-up as the ratio of the medians.  A row whose two quartile
ranges overlap is marked ``"unresolved"``: fresh interpreters on a shared
machine differ by tens of percent, and such a row shows no difference
either way.  Every interpreter runs BLAS on one thread
(``OPENBLAS_NUM_THREADS=1``), so the times compare with those of the
recorded files, which were taken with the products pinned to one thread.

Rows:

* ``verify``: n = 1024, k = 10, an equal instance (every fingerprint runs),
  u01 law in every ring and the field law in Z_p;
* ``verify_reject``: n = 1024, k = 10, a dense-random instance, int64 and
  Z_p for p = 2^31 - 1, u01 law: rejected by trial 0, which reads all of B
  and the rows of A and C that the verifier needs;
* ``matmul``: n = 256, Z_p for p = 2^31 - 1 and 2^61 - 1, and int64 entries
  below 2^28 in magnitude, whose bound n * 2^56 passes 2^63;
* ``wide_products``: ``matmul`` of n x n by n x w products whose bound
  lies in (2^53, 2^63 - 1], int64 and Z_p for the largest prime below 2^26,
  with the tier it picks.  The int64 x has entries up to 2^24 and y up to
  2^58 / (n 2^24), so the bound is 2^58, as for A(BR) in a verify with
  entries up to 2^24 (y is then BR).  At n = 64, w = 19 is the second trial
  block of a k = 20 verify, and w = 2047 that of a k = 2048 verify, within
  the 2^17 entries ``verify`` allows a block wider than tall; w = 4000 is
  wider than any block it makes;
* ``einsum_vs_limbs``: the same products on the int64 ``einsum`` tier and on
  the limb tier, whatever the chooser picks.  This is the table the
  chooser's ``einsum`` limits are read from;
* ``split_compare``: one int64 verify block's mask, A(BR) != CR for an n x w
  block R of u01 vectors, C = AB, at n = 8 to 362 and w = 2 to 19, with
  entries of A and B up to 2^e, e the largest (at most 24) for which the
  block's bounds stay within 2^63 - 1, so that they pass 2^53.
  ``products`` forms BR, A(BR) and CR with the product chooser and
  compares them with ``!=``; ``parts`` forms BR on float64 BLAS and
  compares the two sides as one product in two parts,
  ``matrix._parts_differ``, whatever the block's size (only on a tree that
  has it); ``plan`` is the mask as ``verify``'s plan forms it, which takes
  ``parts`` only for blocks within its size limits and is ``products`` on
  a tree without them.  Each time is the median of R batches of 20 calls,
  per call, with the minor page faults (``ru_minflt``) per call over all
  of them;
* ``verify_sizes``: accepting ``verify`` calls, timed the same way, at n =
  8 (k = 5) and n = 64, 128, 256, 362 and 363 (k = 20, int64, entries up to
  2^24 or the largest for which the rounds fit), and over zp 2^61 - 1 at n =
  64 (k = 20).

``split_compare`` and ``verify_sizes`` report, per tree, the median time
and page faults per call; with ``--parent``, the change's ``plan`` over the
parent's, and the change's ``parts`` over its own ``products``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
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
REJECT = [("int64", None), ("zp", P31)]
MATMUL = [("zp", P31, None), ("zp", P61, None), ("int64", None, 2**28 - 1)]
EINSUM_SHAPES = [
    (8, 2), (8, 4), (8, 8), (16, 16), (32, 4), (32, 32),
    (64, 1), (64, 2), (64, 4), (64, 19), (64, 64), (64, 128), (64, 2047), (64, 4000),
    (128, 2), (128, 8), (256, 2), (256, 4), (256, 8), (512, 2), (512, 4),
    (1024, 1), (1024, 2), (1024, 3), (1024, 4), (1024, 10), (1024, 100),
]
WIDE_RINGS = [("int64", None), ("zp", P26)]
SPLIT_SIZES = [8, 16, 32, 64, 128, 256, 362]
SPLIT_WIDTHS = [2, 4, 8, 19]
# (n, k, ring, entry bound) of each accepting verify timed in verify_sizes.
VERIFY_SIZES = [(8, 5, "int64", 2**24), (64, 20, "int64", 2**24), (128, 20, "int64", 2**24),
                (256, 20, "int64", 2**23), (362, 20, "int64", 2**23), (363, 20, "int64", 2**22),
                (64, 20, "zp", P61)]
# Calls per timed batch in split_compare and verify_sizes.
BATCH = 20
# Interpreter pairs with --parent.
PAIRS = 5
# OpenBLAS threads of every measuring interpreter.
BLAS_THREADS = "1"


def _median_ms(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return round(statistics.median(times) * 1e3, 3)


def _per_call(fn, repeats: int) -> dict:
    """Median milliseconds per call over ``repeats`` batches of ``BATCH``
    calls, after one warm-up batch, and minor page faults per call."""
    for _ in range(BATCH):
        fn()
    times, faults = [], resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(BATCH):
            fn()
        times.append((time.perf_counter() - t0) / BATCH)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {"ms": round(statistics.median(times) * 1e3, 4), "minflt": round(faults / (repeats * BATCH), 2)}


def _entry_bits(n: int) -> int:
    """The largest e <= 24 with n^2 4^e <= 2^63 - 1: a verify block of u01
    vectors with entries of A and B up to 2^e stays within int64."""
    e = 24
    while n * n * 4**e > 2**63 - 1:
        e -= 1
    return e


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
    for kind, p in REJECT:
        a, b, c = fc.generate_instance(spec(1024, _ring(fc, kind, p), "dense-random", 1))
        np.savez(data / f"reject_{_name(kind, p)}.npz", a=a.data, b=b.data, c=c.data)
    for kind, p, bound in MATMUL:
        a, b, c = fc.generate_instance(spec(256, _ring(fc, kind, p), "equal", 2, bound or 256))
        np.savez(data / f"matmul_{_name(kind, p)}_{bound}.npz", a=a.data, b=b.data, c=c.data)
    for n in SPLIT_SIZES:
        a, b, c = fc.generate_instance(spec(n, fc.matrix.RingSpec.int64(), "equal", 3, 2 ** _entry_bits(n)))
        np.savez(data / f"split_{n}.npz", a=a.data, b=b.data, c=c.data)
    for n, k, kind, bound in VERIFY_SIZES:
        ring = _ring(fc, kind, bound if kind == "zp" else None)
        a, b, c = fc.generate_instance(spec(n, ring, "equal", 4, bound if kind == "int64" else 256))
        np.savez(data / f"sizes_{n}_{kind}.npz", a=a.data, b=b.data, c=c.data)
    rng = np.random.default_rng(7)
    for kind, p in WIDE_RINGS:
        for n, w in EINSUM_SHAPES:
            if p:
                x = rng.integers(0, p, size=(n, n), dtype=np.int64)
                y = rng.integers(0, p, size=(n, w), dtype=np.int64)
            else:
                my = 2**58 // (n * 2**24)
                x = rng.integers(-(2**24), 2**24 + 1, size=(n, n), dtype=np.int64)
                y = rng.integers(-my, my + 1, size=(n, w), dtype=np.int64)
            np.savez(data / f"wide_{_name(kind, p)}_{n}_{w}.npz", x=x, y=y)


def _wide(data: Path, kind: str, p: int | None, n: int, w: int):
    arrays = np.load(data / f"wide_{_name(kind, p)}_{n}_{w}.npz")
    return arrays["x"], arrays["y"]


def measure(data: Path, repeats: int) -> dict:
    """Every row this tree supports, in this interpreter."""
    import freicheck as fc
    from freicheck import matrix

    out: dict = {"verify": {}, "verify_reject": {}, "matmul": {}}
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
    for kind, p in REJECT:
        ring = _ring(fc, kind, p)
        arrays = np.load(data / f"reject_{_name(kind, p)}.npz")
        a, b, c = (fc.Matrix(1024, 1024, ring, arrays[k]) for k in "abc")
        cfg = fc.VerifyConfig(10, 3, fc.uniform_binary())
        assert fc.verify(a, b, c, cfg).witness_iteration == 0
        out["verify_reject"][f"{_name(kind, p)} u01"] = _median_ms(lambda: fc.verify(a, b, c, cfg), repeats)
    for kind, p, bound in MATMUL:
        ring = _ring(fc, kind, p)
        arrays = np.load(data / f"matmul_{_name(kind, p)}_{bound}.npz")
        a, b, c = (fc.Matrix(256, 256, ring, arrays[k]) for k in "abc")
        assert fc.mats_equal(fc.matmul(a, b), c)
        label = _name(kind, p) + (f" entries < 2^{bound.bit_length()}" if bound else "")
        out["matmul"][label] = _median_ms(lambda: fc.matmul(a, b), repeats)
    out["wide_products"] = _wide_products(fc, matrix, data, repeats)
    out["einsum_vs_limbs"] = _einsum_vs_limbs(matrix, data, repeats)
    out["split_compare"] = _split_compare(fc, matrix, data, repeats)
    out["verify_sizes"] = _verify_sizes(fc, data, repeats)
    return out


def _split_compare(fc, matrix, data: Path, repeats: int) -> list[dict]:
    # The package exports the function ``verify``; the module is this one.
    verify_mod = importlib.import_module("freicheck.verify")

    rows = []
    for n in SPLIT_SIZES:
        arrays = np.load(data / f"split_{n}.npz")
        a, b, c = (fc.Matrix(n, n, fc.matrix.RingSpec.int64(), arrays[k]) for k in "abc")
        for w in SPLIT_WIDTHS:
            r = np.random.default_rng(n * w).integers(0, 2, (n, w))
            ma, mb, mc = (int(np.abs(m.data).max()) for m in (a, b, c))

            def products():
                br = matrix._exact_product(b.data, r, None, mb, 1)(b.data)
                ab = matrix._exact_product(a.data, br, None, ma, int(np.abs(br).max()))(a.data)
                return ab != matrix._exact_product(c.data, r, None, mc, 1)(c.data)

            def plan():
                p = verify_mod._Plan(a, b, c, 1)
                return matrix._fill(p.masks(p.br(r), r), n)

            row = {"n": n, "w": w, "entry_bits": _entry_bits(n)}
            s = matrix._part_width(n, ma, n * mb, mc, 1) if hasattr(matrix, "_parts_differ") else None
            if s is not None:

                def parts():
                    br = np.matmul(b.data.astype(np.float64), r.astype(np.float64))
                    return matrix._parts_differ(a.data, c.data, np.concatenate((br, -r)), s)

                assert not parts().any()
                row["parts"] = _per_call(parts, repeats)
            assert not products().any() and not plan().any()
            row.update(products=_per_call(products, repeats), plan=_per_call(plan, repeats))
            rows.append(row)
    return rows


def _verify_sizes(fc, data: Path, repeats: int) -> dict:
    out = {}
    for n, k, kind, bound in VERIFY_SIZES:
        ring = _ring(fc, kind, bound if kind == "zp" else None)
        arrays = np.load(data / f"sizes_{n}_{kind}.npz")
        a, b, c = (fc.Matrix(n, n, ring, arrays[x]) for x in "abc")
        cfg = fc.VerifyConfig(k, 5, fc.uniform_binary())
        assert fc.verify(a, b, c, cfg).accepted
        label = f"{_name(kind, bound if kind == 'zp' else None)} n={n} k={k}"
        if kind == "int64":
            label += f" entries<=2^{bound.bit_length() - 1}"
        out[label] = _per_call(lambda: fc.verify(a, b, c, cfg), repeats)
    return out


def _tier_of(matrix, call) -> str:
    """The tier the product chooser runs ``call`` on: limbs, float64 or
    einsum (every product timed here is past 2**53)."""
    used = []
    names = ("_float_product", "_limb_product")
    real = {name: getattr(matrix, name) for name in names}

    def spy(name):
        def run(*args, **kwargs):
            used.append(name)
            return real[name](*args, **kwargs)

        return run

    for name in real:
        setattr(matrix, name, spy(name))
    try:
        call()
    finally:
        for name, fn in real.items():
            setattr(matrix, name, fn)
    return "limbs" if names[1] in used else "float64" if used else "einsum"


def _wide_products(fc, matrix, data: Path, repeats: int) -> dict:
    out = {}
    for kind, p in WIDE_RINGS:
        ring = _ring(fc, kind, p)
        for n, w in EINSUM_SHAPES:
            xa, ya = _wide(data, kind, p, n, w)
            x, y = fc.Matrix(n, n, ring, xa), fc.Matrix(n, w, ring, ya)
            out[f"{_name(kind, p)} n={n} w={w}"] = {
                "tier": _tier_of(matrix, lambda: fc.matmul(x, y)),
                "ms": _median_ms(lambda: fc.matmul(x, y), repeats),
            }
    return out


def _einsum_vs_limbs(matrix, data: Path, repeats: int) -> list[dict]:
    rows = []
    for kind, p in WIDE_RINGS:
        for n, w in EINSUM_SHAPES:
            x, y = _wide(data, kind, p, n, w)
            mx, my = int(np.abs(x).max()), int(np.abs(y).max())
            bound = n * mx * my
            assert matrix._FLOAT_EXACT < bound <= matrix.INT64_MAX

            def einsum():
                out = np.einsum("ik,jk->ij", x, np.ascontiguousarray(y.T))
                return out % p if p else out

            def limbs():
                return matrix._limb_product(x, y, mx, my, p)(x)

            assert np.array_equal(einsum(), limbs())
            rows.append(
                {
                    "ring": _name(kind, p),
                    "n": n,
                    "w": w,
                    "macs_log2": round(float(np.log2(n * n * w)), 2),
                    "bound_log2": round(float(np.log2(float(bound))), 2),
                    "einsum_ms": _median_ms(einsum, repeats),
                    "limbs_ms": _median_ms(limbs, repeats),
                }
            )
    return rows


def _child(src: Path, data: Path, repeats: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": BLAS_THREADS}
    cmd = [sys.executable, __file__, "--child", str(data), "--repeats", str(repeats)]
    res = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(res.stdout)


def _gather(runs: list):
    """Runs of one tree merged: every time becomes the list of its runs'
    times, other fields (tiers, shapes) stay as they are, which every run
    shares."""
    first = runs[0]
    if isinstance(first, dict):
        return {k: _gather([r[k] for r in runs]) for k in first}
    if isinstance(first, list):
        return [_gather(list(items)) for items in zip(*runs)]
    if isinstance(first, float):
        return runs
    assert all(r == first for r in runs), runs
    return first


def _quartiles(times: list[float]) -> list[float]:
    return [round(q, 3) for q in statistics.quantiles(times, n=4, method="inclusive")]


def _medians(doc):
    """A gathered section with each time list replaced by its median."""
    if isinstance(doc, dict):
        return {k: _medians(v) for k, v in doc.items()}
    if isinstance(doc, list) and doc and isinstance(doc[0], float):
        return round(statistics.median(doc), 3)
    if isinstance(doc, list):
        return [_medians(v) for v in doc]
    return doc


def _compare(parent: list[float], change: list[float]) -> dict:
    (p1, pm, p3), (c1, cm, c3) = _quartiles(parent), _quartiles(change)
    row = {"parent_ms": pm, "parent_quartiles": [p1, p3],
           "change_ms": cm, "change_quartiles": [c1, c3],
           "speedup": round(pm / cm, 2)}
    if c1 <= p3 and p1 <= c3:
        row["unresolved"] = True
    return row


def _ratio(times: list[float], base: list[float]) -> float:
    return round(statistics.median(times) / statistics.median(base), 3)


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
        "blas_threads_env": BLAS_THREADS,
    }


def _ratios(parent: dict, change: dict) -> dict:
    doc = {
        section: {key: _compare(parent[section][key], times) for key, times in change[section].items()}
        for section in ("verify", "verify_reject", "matmul")
    }
    doc["wide_products"] = {
        key: {"parent_tier": parent["wide_products"][key]["tier"], "change_tier": row["tier"],
              **_compare(parent["wide_products"][key]["ms"], row["ms"])}
        for key, row in change["wide_products"].items()
    }
    doc["einsum_vs_limbs"] = [
        {**{k: v[0] if isinstance(v, list) else v for k, v in row.items() if not k.endswith("_ms")},
         "einsum_ms": _medians(row["einsum_ms"]),
         "limbs": _compare(before["limbs_ms"], row["limbs_ms"]),
         "change_limbs_over_einsum": round(statistics.median(row["limbs_ms"]) / statistics.median(row["einsum_ms"]), 2)}
        for before, row in zip(parent["einsum_vs_limbs"], change["einsum_vs_limbs"])
    ]
    doc["split_compare"] = [
        {"n": row["n"], "w": row["w"], "entry_bits": row["entry_bits"],
         "plan": _compare(before["plan"]["ms"], row["plan"]["ms"]),
         "change_products_ms": _medians(row["products"]["ms"]),
         **({"change_parts_ms": _medians(row["parts"]["ms"]),
             "change_parts_over_products": _ratio(row["parts"]["ms"], row["products"]["ms"])}
            if "parts" in row else {}),
         "minflt": {"parent_plan": _medians(before["plan"]["minflt"]),
                    **{f"change_{k}": _medians(row[k]["minflt"]) for k in ("products", "parts", "plan") if k in row}}}
        for before, row in zip(parent["split_compare"], change["split_compare"])
    ]
    doc["verify_sizes"] = {
        key: {**_compare(parent["verify_sizes"][key]["ms"], row["ms"]),
              "change_over_parent": _ratio(row["ms"], parent["verify_sizes"][key]["ms"]),
              "minflt": {"parent": _medians(parent["verify_sizes"][key]["minflt"]), "change": _medians(row["minflt"])}}
        for key, row in change["verify_sizes"].items()
    }
    return doc


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
        if not args.parent:
            change, parent = _child(HERE_SRC, data, args.repeats), None
        else:
            trees = {"change": HERE_SRC, "parent": args.parent.resolve()}
            runs: dict[str, list] = {"change": [], "parent": []}
            for pair in range(PAIRS):
                for tree in ("change", "parent") if pair % 2 == 0 else ("parent", "change"):
                    runs[tree].append(_child(trees[tree], data, args.repeats))
            change, parent = _gather(runs["change"]), _gather(runs["parent"])
    doc = {
        "command": "python scripts/bench_limb_split.py"
        + (" --parent <parent src>" if parent else "")
        + f" --repeats {args.repeats}" + (f" --out {args.out.name}" if args.out else ""),
        "machine": _machine(),
        "repeats": args.repeats,
    }
    if parent:
        doc["pairs"] = PAIRS
        doc.update(_ratios(parent, change))
    else:
        doc.update({k: change[k] for k in ("verify", "verify_reject", "matmul", "wide_products", "einsum_vs_limbs",
                                           "split_compare", "verify_sizes")})
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
