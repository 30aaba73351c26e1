"""The three workloads: their inputs, their op lists and the check of each op.

Every workload is a closed loop with one client: a round runs a fixed list of
ops one after another, and the next round starts when the last op returns.
Ops call the program only through module attributes looked up at call time
(``M.verify.verify``, ``M.cli.main``, ...), so the tracer's wrappers see them.

Each op belongs to a class: ``accept`` (a verify that must accept), ``reject``
(a verify of a corrupted product), ``reject-geom`` (an in-memory verify of a
single-column corruption) or ``other`` (the workload's non-verify op:
recompute, gen or analysis).  A ``reject-geom`` op runs 1 + Geom(1/2) rounds,
a number fixed by its verify seed and so by ``--seed``; it is reported but kept
out of the gated reject figure, whose ops all stop after one round.  The first run of an op is judged by the oracle;
every rerun must give a result identical to the first.

Each workload also has reference kernels: fixed pieces of the benchmark's own
code, never the program's, with the character of the ops they stand beside (a
memory-bound pass over the large operands, an exact int64 product, a text
write and parse, a small Freivalds round, an enumeration, a rank).  Each op names one
(``Op.reference``); the runner times it before every run of the op, so that
op times can be stated in units of the machine's speed at that moment.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import instances
import oracle

B24 = 1 << 24
P31 = (1 << 31) - 1
P10007 = 10007


@dataclass
class Op:
    kind: str  # op family, e.g. "verify-equal" or "analyze-exact-u01-dense20"
    group: str  # family in the report's detail: verify, recompute, cli-verify, cli-gen, analyze
    cls: str  # accept | reject | reject-geom | other
    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # full oracle, run on the first result
    summary: Callable[[Any], Any]  # compared across reruns
    work: tuple[str, int] | None = None  # ("vectors" | "trials", amount) for throughput
    reference: str = "main"  # the workload's reference kernel timed beside this op
    judged: bool = False  # set by the runner after the first result
    first: Any = field(default=None, repr=False)
    error: str | None = None


class Context:
    """Inputs of one workload plus the tallies its oracle keeps."""

    def __init__(self, M, seed: int, workdir: Path) -> None:
        self.M = M
        self.seed = seed
        self.workdir = workdir
        self.digests: dict[str, str] = {}
        self.tally = {"ci99_misses": 0, "ci99_checks": 0, "false_accepts": 0}

    def seeds(self, name: str, count: int) -> list[int]:
        rng = instances.rng_for(self.seed, "plan:" + name)
        return [int(s) for s in rng.integers(0, 1 << 31, size=count)]

    def family(self, *args, **kwargs) -> dict[str, tuple]:
        """Generate a family and build the program's matrices for it."""
        fam = instances.make_family(self.seed, *args, **kwargs)
        M = self.M
        first = next(iter(fam.values()))
        ring = M.matrix.parse_ring(first.ring)
        n = first.n
        a = M.matrix.Matrix(n, n, ring, first.a)
        b = M.matrix.Matrix(n, n, ring, first.b)
        out = {}
        for mode, inst in fam.items():
            self.digests[inst.name] = inst.digest()
            out[mode] = (inst, (a, b, M.matrix.Matrix(n, n, ring, inst.c)))
        return out


# --- oracle helpers ----------------------------------------------------------


def judge_verdict(ctx, inst, k, seed, accepted, bound, iteration, row, r):
    if inst.mode == "equal":
        if not accepted:
            return "correct product rejected"
        if bound != Fraction(1, 2**k):
            return f"error bound {bound}, expected 1/2^{k}"
        return None
    if accepted:
        # Allowed with probability 2^-k: every round drew r_j = 0 on the one
        # differing column.  Replay the draws to tell that from a bug.
        j = inst.column
        if j is not None and all(oracle.u01_component(seed, t, j) == 0 for t in range(k)):
            ctx.tally["false_accepts"] += 1
            return None
        return "wrong product accepted"
    if iteration is None or not 0 <= iteration < k:
        return f"witness iteration {iteration} outside [0, {k})"
    if r is None or len(r) != inst.n or set(r) - {0, 1}:
        return "witness is not a 0/1 vector of length n"
    want = oracle.first_mismatch_row(inst, r)
    if want is None:
        return "witness does not separate A(Br) from Cr"
    if row != want:
        return f"mismatch_row {row}, exact replay gives {want}"
    return None


def run_cli(M, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = M.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _sha(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# --- op builders ---------------------------------------------------------------


def verify_op(ctx, pair, k, seed) -> Op:
    M = ctx.M
    inst, (a, b, c) = pair

    def call():
        return M.verify.verify(a, b, c, M.verify.VerifyConfig(k, seed, M.sampling.uniform_binary()))

    def check(v):
        r = None if v.witness is None else [int(x) for x in v.witness.data]
        return judge_verdict(
            ctx, inst, k, seed, v.accepted, v.error_bound, v.witness_iteration, v.mismatch_row, r
        )

    def summary(v):
        w = None if v.witness is None else v.witness.data.tobytes()
        return (v.accepted, v.error_bound, v.witness_iteration, v.mismatch_row, w)

    cls = {"equal": "accept", "single-column": "reject-geom"}.get(inst.mode, "reject")
    return Op(f"verify-{inst.mode}-n{inst.n}", "verify", cls, call, check, summary)


def recompute_op(ctx, pair) -> Op:
    M = ctx.M
    inst, (a, b, c) = pair

    def check(same):
        return None if same is True else "mats_equal(matmul(A, B), C) is not True on AB = C"

    return Op(
        f"recompute-n{inst.n}", "recompute", "other",
        lambda: M.matrix.mats_equal(M.matrix.matmul(a, b), c), check, lambda same: same,
        reference="product",
    )


def cli_verify_op(ctx, inst, files, k, seed, slot) -> Op:
    witness = ctx.workdir / f"verify{slot}.witness.json"
    argv = ["verify", "--a", files["a"], "--b", files["b"], "--c", files[inst.mode],
            "-k", str(k), "--seed", str(seed), "--witness-out", str(witness)]

    def check(res):
        code, out, err = res
        if err:
            return f"stderr not empty: {err.strip()[:200]}"
        payload = json.loads(out)
        if code == 0:
            expected = {"outcome": "accept", "iterations": k, "seed": seed, "dist": "u01",
                        "p_max": "1/2", "error_bound": f"1/{2**k}"}
            if payload != expected:
                return f"accept output {payload}"
            return judge_verdict(ctx, inst, k, seed, True, Fraction(1, 2**k), None, None, None)
        if code != 1 or payload.get("outcome") != "reject":
            return f"exit {code} with outcome {payload.get('outcome')!r}"
        if payload.get("witness_path") != str(witness):
            return f"witness written to {payload.get('witness_path')!r}"
        w = json.loads(witness.read_text(encoding="utf-8"))
        for key in ("witness_iteration", "mismatch_row"):
            if w[key] != payload[key]:
                return f"{key} differs between stdout and the witness file"
        return judge_verdict(
            ctx, inst, k, seed, False, None, w["witness_iteration"], w["mismatch_row"], w["r"]
        )

    def summary(res):
        return res + ((witness.read_bytes(),) if res[0] == 1 else ())

    cls = "accept" if inst.mode == "equal" else "reject"
    return Op(f"cli-verify-{inst.mode}", "cli-verify", cls,
              lambda: run_cli(ctx.M, argv), check, summary)


def cli_gen_op(ctx, n, mode, seed, slot) -> Op:
    prefix = ctx.workdir / f"gen{slot}"
    argv = ["gen", "--n", str(n), "--mode", mode, "--seed", str(seed), "--out", str(prefix)]
    files = {x: f"{prefix}.{x.upper()}.freimat" for x in "abc"}
    sidecar = f"{prefix}.profile.json"

    def check(res):
        code, out, err = res
        if code != 0 or err:
            return f"gen exited {code}: {err.strip()[:200]}"
        payload = json.loads(out)
        if payload["files"] != files or Path(sidecar).read_text(encoding="utf-8") != out:
            return "gen output names other files or the sidecar differs from stdout"
        if (payload["n"], payload["mode"], payload["seed"], payload["ring"]) != (n, mode, seed, "int64"):
            return f"gen echoed {payload}"
        mats = {}
        for x, path in files.items():
            ring, mats[x] = instances.read_freimat(path)
            if ring != "int64" or mats[x].shape != (n, n):
                return f"{path}: ring {ring!r}, shape {mats[x].shape}"
        if max(int(abs(m).max()) for m in (mats["a"], mats["b"])) > 256:
            return "A or B entries outside [-256, 256]"
        inst = instances.Instance("gen", mode, None, mats["a"], mats["b"], mats["c"])
        cols, entries, _ = oracle.profile(inst)
        prof = payload["profile"]
        if (prof["differing_columns"], prof["entries"], prof["y_size"]) != (list(cols), entries, len(cols)):
            return f"profile {prof}, exact {cols} / {entries} entries"
        if (mode == "equal") != (entries == 0) or (mode == "single-column" and len(cols) != 1):
            return f"mode {mode} but {len(cols)} differing columns"
        return None

    def summary(res):
        return res + (_sha(*files.values(), sidecar),)

    return Op(f"cli-gen-{mode}", "cli-gen", "other", lambda: run_cli(ctx.M, argv), check, summary)


def analyze_op(ctx, kind, pair, dist, p_zero, exact=False, trials=None, seed=0,
               reference="main") -> Op:
    """``dist`` builds the law per op; ``p_zero`` is its mass at 0, which is
    also its largest mass for every law used here.  It fixes the true
    per-round accept probability of a full-rank or single-column error."""
    M = ctx.M
    inst, (a, b, c) = pair

    def call():
        return M.analysis.analyze_instance(a, b, c, dist(), exact=exact, trials=trials, seed=seed)

    def check(rep):
        cols, entries, rows = oracle.profile(inst)
        rank = oracle.rank(rows, inst.p)
        prof = rep.instance_profile
        got = (tuple(prof.differing_columns), prof.differing_entries, prof.difference_rank)
        if got != (cols, entries, rank):
            return f"profile {got}, exact {(cols, entries, rank)}"
        if rep.per_iteration_bound != p_zero:
            return f"per-iteration bound {rep.per_iteration_bound}, expected {p_zero}"
        if rank == inst.n:
            truth = p_zero**rank
        elif len(cols) == 1:
            truth = p_zero
        else:
            truth = None
        if exact != (rep.exact_fap is not None) or (trials is not None) != (rep.empirical is not None):
            return "report fields do not match the request"
        if exact and rep.exact_fap != truth:
            return f"exact fap {rep.exact_fap}, closed form {truth}"
        if trials is not None:
            emp = rep.empirical
            if emp.trials != trials:
                return f"{emp.trials} trials, asked for {trials}"
            err, miss = oracle.check_empirical(emp.rate, emp.trials, emp.ci99, truth)
            ctx.tally["ci99_checks"] += 1
            ctx.tally["ci99_misses"] += miss
            return err
        return None

    def summary(rep):
        emp = rep.empirical
        return (rep.per_iteration_bound, rep.instance_profile, rep.exact_fap,
                None if emp is None else (emp.rate, emp.trials, tuple(emp.ci99)))

    work = None
    if exact:
        # Both laws have two support values; enumeration runs over the
        # components that hit nonzero columns of E.
        work = ("vectors", 2 ** (inst.n if inst.mode == "dense-random" else 1))
    elif trials is not None:
        work = ("trials", trials)
    return Op(kind, "analyze", "other", call, check, summary, work, reference)


# --- workloads -------------------------------------------------------------------


def cli_files(ctx) -> tuple[list[Op], dict[str, Callable[[], None]]]:
    """n=256 int64 files through ``freicheck.cli.main``: parse and format dominate."""
    fam = ctx.family("cli256", 256, ("equal", "single-column"), bound=256)
    files = {}
    for key, arr in (("a", fam["equal"][0].a), ("b", fam["equal"][0].b),
                     ("equal", fam["equal"][0].c), ("single-column", fam["single-column"][0].c)):
        files[key] = str(ctx.workdir / f"{key}.freimat")
        instances.write_freimat(arr, "int64", files[key])
    s = ctx.seeds("cli", 6)
    eq, sc = fam["equal"][0], fam["single-column"][0]
    ops = [
        cli_verify_op(ctx, eq, files, 20, s[0], 0),
        cli_verify_op(ctx, sc, files, 20, s[1], 1),
        cli_gen_op(ctx, 256, "single-column", s[2], 2),
        cli_verify_op(ctx, eq, files, 20, s[3], 3),
        cli_verify_op(ctx, sc, files, 20, s[4], 4),
        cli_gen_op(ctx, 256, "equal", s[5], 5),
    ]
    block = eq.c[:96, :96]
    path = ctx.workdir / "reference.freimat"

    def reference():
        instances.write_freimat(block, "int64", path)
        instances.read_freimat(path)

    return ops, {"main": reference}


def verify_large(ctx) -> tuple[list[Op], dict[str, Callable[[], None]]]:
    """n=1024 int64 in memory: 24 MiB of operands, past L2 and inside L3."""
    fam = ctx.family("large1024", 1024, ("equal", "single-column", "dense-random"), bound=256)
    eq, sc, dense = fam["equal"], fam["single-column"], fam["dense-random"]
    s = ctx.seeds("large", 7)
    # Dense-random rejects always stop after one round; single-column ones
    # take a geometric number of rounds, 1 + Geom(1/2).
    ops = [
        verify_op(ctx, eq, 10, s[0]),
        verify_op(ctx, dense, 10, s[1]),
        verify_op(ctx, sc, 10, s[2]),
        recompute_op(ctx, eq),
        verify_op(ctx, eq, 10, s[3]),
        verify_op(ctx, dense, 10, s[4]),
        verify_op(ctx, sc, 10, s[5]),
        verify_op(ctx, dense, 10, s[6]),
    ]
    inst = eq[0]
    r = instances.rng_for(ctx.seed, "reference").integers(0, 2, size=inst.n, dtype=np.int64)

    def reference():
        # The memory traffic of one exact int64 Freivalds round.
        for m in (inst.b, inst.a, inst.c):
            int(m.min())
            int(m.max())
            m @ r

    def product():
        # The benchmark's own exact product and comparison.  Nothing smaller
        # tracks the recompute: a slice of it slows less when the shared
        # cache is contended.
        np.array_equal(np.einsum("ik,jk->ij", inst.a, np.ascontiguousarray(inst.b.T)), inst.c)

    return ops, {"main": reference, "product": product}


def analyze_small(ctx) -> tuple[list[Op], dict[str, Callable[[], None]]]:
    """n <= 64 in cache, entries past the float64-exact range, every analysis path."""
    M = ctx.M
    v = ctx.family("small64", 64, ("equal", "single-column", "dense-random"), bound=B24)
    x = ctx.family("exact20", 20, ("dense-random", "single-column"), bound=B24, full_rank=True)
    pr = ctx.family("profile48", 48, ("dense-random",), bound=B24)
    z31 = ctx.family("zp31", 64, ("single-column",), p=P31)
    z10007 = ctx.family("zp10007", 64, ("single-column",), p=P10007)
    ring10007 = M.matrix.parse_ring(f"zp {P10007}")

    def u01():
        return M.sampling.uniform_binary()

    def bern():
        return M.sampling.bernoulli(Fraction(1, 3))

    def field():
        return M.sampling.field_uniform(ring10007)

    half, two_thirds = Fraction(1, 2), Fraction(2, 3)
    t = ctx.seeds("analyze", 3)
    analysis = [
        analyze_op(ctx, "analyze-exact-u01-dense20", x["dense-random"], u01, half, exact=True,
                   reference="enumerate"),
        analyze_op(ctx, "analyze-exact-u01-single20", x["single-column"], u01, half, exact=True),
        analyze_op(ctx, "analyze-exact-bern-single20", x["single-column"], bern, two_thirds, exact=True),
        analyze_op(ctx, "analyze-profile-dense48", pr["dense-random"], u01, half, reference="rank"),
        analyze_op(ctx, "analyze-empirical-single64", v["single-column"], u01, half, trials=4000, seed=t[0]),
        analyze_op(ctx, "analyze-empirical-zp31", z31["single-column"], u01, half, trials=100, seed=t[1]),
        analyze_op(ctx, "analyze-field-zp10007", z10007["single-column"], field,
                   Fraction(1, P10007), trials=2000, seed=t[2]),
    ]
    s = ctx.seeds("small", 60)
    verifies = []
    for i in range(30):
        verifies.append(verify_op(ctx, v["equal"], 20, s[2 * i]))
        verifies.append(verify_op(ctx, v["dense-random" if i % 2 else "single-column"], 20, s[2 * i + 1]))
    # Spread the cheap verifies between the analysis ops.
    ops = []
    per = len(verifies) // len(analysis)
    for i, op in enumerate(analysis):
        ops.append(op)
        ops.extend(verifies[i * per:(i + 1) * per])
    ops.extend(verifies[len(analysis) * per:])
    inst = v["equal"][0]
    seed = ctx.seeds("reference", 1)[0]

    def reference():
        # One Freivalds round in the benchmark's own code: the documented
        # SplitMix64 draw of r, then A(Br) against Cr.
        r = np.array([oracle.u01_component(seed, 0, j) for j in range(inst.n)], dtype=np.int64)
        bool((inst.a @ (inst.b @ r) != inst.c @ r).any())

    # The n=48 profile is exact rational elimination in Python integers.
    e48 = pr["dense-random"][0].difference()[:24, :24].tolist()

    def rank():
        oracle.rank(e48)

    # The dense n=20 enumeration streams arrays of tens of MB, unlike the
    # rest of the workload; its kernel tests 2^16 of the 2^20 vectors.
    e20 = x["dense-random"][0].difference().astype(np.int64)
    bits = np.arange(20, dtype=np.int64)[:, None]

    def enumerate_():
        digits = (np.arange(1 << 16, dtype=np.int64)[None, :] >> bits) & 1
        np.count_nonzero(~(e20 @ digits != 0).any(axis=0))

    return ops, {"main": reference, "enumerate": enumerate_, "rank": rank}


WORKLOADS = {
    "cli-files": cli_files,
    "verify-large": verify_large,
    "analyze-small": analyze_small,
}
