"""Command-line behaviour: exit codes, JSON schemas, determinism, errors.

All invocations run in-process through ``main(argv)`` so exit codes and
streams can be asserted directly, except the checks of the
``python -m freicheck.cli`` entry point and of a closed stdout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import freicheck
from freicheck import matmul, read_matrix, reset_scalar_multiplies, scalar_multiplies, write_matrix
from freicheck.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _gen(capsys, tmp_path, mode, n=4, ring="int64", seed=3):
    prefix = str(tmp_path / mode)
    code, out, err = _run(
        capsys,
        "gen",
        "--n",
        str(n),
        "--ring",
        ring,
        "--mode",
        mode,
        "--seed",
        str(seed),
        "--out",
        prefix,
    )
    assert code == 0, err
    return prefix, json.loads(out)


# ---------------------------------------------------------------- gen


def test_gen_writes_files_and_sidecar(tmp_path, capsys):
    prefix, payload = _gen(capsys, tmp_path, "single-column")
    assert payload["mode"] == "single-column"
    assert payload["profile"]["y_size"] == 1
    for key in ("a", "b", "c"):
        path = payload["files"][key]
        assert path.startswith(prefix)
        read_matrix(path)  # parses cleanly
    sidecar = json.loads((tmp_path / "single-column.profile.json").read_text())
    assert sidecar == payload


def test_gen_zp_ring(tmp_path, capsys):
    prefix, payload = _gen(capsys, tmp_path, "rank-one", ring="zp 5")
    assert payload["ring"] == "zp 5"
    m = read_matrix(payload["files"]["c"])
    assert m.ring.modulus == 5


def test_gen_is_deterministic(tmp_path, capsys):
    _, first = _gen(capsys, tmp_path, "dense-random", seed=11)
    bytes_first = (tmp_path / "dense-random.A.freimat").read_bytes()
    _, second = _gen(capsys, tmp_path, "dense-random", seed=11)
    assert first == second
    assert (tmp_path / "dense-random.A.freimat").read_bytes() == bytes_first


@pytest.mark.parametrize(
    "mode", ["equal", "single-entry", "single-column", "rank-one", "dense-random"]
)
def test_gen_forms_the_product_once(tmp_path, capsys, mode):
    # One AB (n^3) serves the corruption, the mode check and the profile;
    # rank-one adds the n^2 of its outer product.
    reset_scalar_multiplies()
    _, payload = _gen(capsys, tmp_path, mode, n=32)
    assert scalar_multiplies() == 32**3 + (32**2 if mode == "rank-one" else 0)
    if mode == "dense-random":
        assert scalar_multiplies() == 32_768
    assert payload["profile"]["rank"] is not None


# ---------------------------------------------------------------- verify


def test_verify_accept(tmp_path, capsys):
    prefix, payload = _gen(capsys, tmp_path, "equal")
    code, out, err = _run(
        capsys,
        "verify",
        "--a",
        payload["files"]["a"],
        "--b",
        payload["files"]["b"],
        "--c",
        payload["files"]["c"],
        "-k",
        "20",
        "--seed",
        "7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "accept"
    assert doc["error_bound"] == "1/1048576"
    assert doc["p_max"] == "1/2"
    assert err == ""


def test_verify_reject_writes_witness(tmp_path, capsys):
    prefix, payload = _gen(capsys, tmp_path, "single-column")
    files = payload["files"]
    code, out, err = _run(
        capsys,
        "verify",
        "--a",
        files["a"],
        "--b",
        files["b"],
        "--c",
        files["c"],
        "-k",
        "30",
        "--seed",
        "2",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["outcome"] == "reject"
    assert doc["witness_path"] == files["c"] + ".witness.json"
    witness = json.loads((tmp_path / "single-column.C.freimat.witness.json").read_text())
    assert witness["witness_iteration"] == doc["witness_iteration"]
    assert witness["mismatch_row"] == doc["mismatch_row"]
    assert len(witness["r"]) == 4
    # the recorded vector really separates AB from C at the recorded row
    a = read_matrix(files["a"])
    b = read_matrix(files["b"])
    c = read_matrix(files["c"])
    from freicheck import Vector, freivalds_iteration

    ok, row = freivalds_iteration(a, b, c, Vector(a.ring, witness["r"]))
    assert not ok and row == witness["mismatch_row"]


def test_verify_witness_out_override(tmp_path, capsys):
    prefix, payload = _gen(capsys, tmp_path, "dense-random")
    files = payload["files"]
    target = str(tmp_path / "w.json")
    code, out, _ = _run(
        capsys,
        "verify",
        "--a",
        files["a"],
        "--b",
        files["b"],
        "--c",
        files["c"],
        "--witness-out",
        target,
    )
    assert code == 1
    assert json.loads(out)["witness_path"] == target
    json.loads((tmp_path / "w.json").read_text())


def test_verify_is_byte_identical_across_runs(tmp_path, capsys):
    prefix, payload = _gen(capsys, tmp_path, "equal")
    files = payload["files"]
    argv = ["verify", "--a", files["a"], "--b", files["b"], "--c", files["c"]]
    code1, out1, _ = _run(capsys, *argv)
    code2, out2, _ = _run(capsys, *argv)
    assert (code1, out1) == (code2, out2)


# ---------------------------------------------------------------- analyze


def test_analyze_schema(tmp_path, capsys):
    prefix, payload = _gen(capsys, tmp_path, "single-column")
    files = payload["files"]
    code, out, _ = _run(
        capsys,
        "analyze",
        "--a",
        files["a"],
        "--b",
        files["b"],
        "--c",
        files["c"],
        "--exact",
        "--trials",
        "20000",
        "--seed",
        "5",
        "--mode",
        "single-column",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"bound", "empirical", "exact_fap", "profile"}
    assert doc["exact_fap"] == "1/2"
    assert doc["bound"] == "1/2"
    assert doc["profile"] == {"y_size": 1, "entries": 4, "mode": "single-column"}
    emp = doc["empirical"]
    assert emp["trials"] == 20000
    assert emp["ci99"][0] <= 0.5 <= emp["ci99"][1]
    assert emp["ci99"][0] <= emp["rate"] <= emp["ci99"][1]


def test_analyze_without_optional_sections(tmp_path, capsys):
    prefix, payload = _gen(capsys, tmp_path, "dense-random")
    files = payload["files"]
    code, out, _ = _run(
        capsys, "analyze", "--a", files["a"], "--b", files["b"], "--c", files["c"]
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"bound", "profile"}


def test_analyze_is_byte_identical_across_runs(tmp_path, capsys):
    prefix, payload = _gen(capsys, tmp_path, "rank-one")
    files = payload["files"]
    argv = [
        "analyze",
        "--a",
        files["a"],
        "--b",
        files["b"],
        "--c",
        files["c"],
        "--exact",
        "--trials",
        "5000",
    ]
    _, out1, _ = _run(capsys, *argv)
    _, out2, _ = _run(capsys, *argv)
    assert out1 == out2


# ---------------------------------------------------------------- bench


def test_bench_runs_and_writes_csv(tmp_path, capsys):
    csv_path = str(tmp_path / "b.csv")
    code, out, _ = _run(
        capsys,
        "bench",
        "--sizes",
        "8,16",
        "-k",
        "2",
        "--repeats",
        "1",
        "--csv",
        csv_path,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 2
    assert len(doc["records"]) == 4
    assert "8->16" in doc["doubling_ratios"]["deterministic"]
    header = (tmp_path / "b.csv").read_text().splitlines()[0]
    assert header == "n,method,k,wall_ms,scalar_ops"


def test_bench_is_deterministic_modulo_wall_times(tmp_path, capsys):
    argv = ["bench", "--sizes", "8,16", "-k", "2", "--repeats", "1"]
    _, out1, _ = _run(capsys, *argv)
    _, out2, _ = _run(capsys, *argv)

    def strip(doc):
        doc = json.loads(doc)
        doc.pop("doubling_ratios")
        for rec in doc["records"]:
            rec.pop("wall_ms")
        return doc

    assert strip(out1) == strip(out2)


def test_bench_bad_size_list_is_a_config_error(capsys):
    code, out, err = _run(capsys, "bench", "--sizes", "8,x")
    assert (code, out) == (2, "")
    assert err == (
        '{\n  "error": {\n    "kind": "ConfigInvalid",\n'
        '    "message": "bad size list \'8,x\'"\n  }\n}\n'
    )


# ---------------------------------------------------------------- errors


def _expect_error(capsys, kind, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["kind"] == kind
    assert doc["error"]["message"]


def test_missing_file_is_an_io_error(tmp_path, capsys):
    ghost = str(tmp_path / "ghost.freimat")
    _expect_error(
        capsys, "IOError", "verify", "--a", ghost, "--b", ghost, "--c", ghost
    )


def test_malformed_file_is_a_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.freimat"
    bad.write_text("not a matrix\n")
    _expect_error(
        capsys, "FormatError", "verify", "--a", str(bad), "--b", str(bad), "--c", str(bad)
    )


@pytest.mark.parametrize(
    "body",
    [b"1 2\n3 \xff\n", "1 2\n3 1_000\n".encode(), "1 2\n3 \u0663\n".encode("utf-8")],
    ids=["non-utf8", "underscore", "arabic-indic-digit"],
)
def test_undecodable_or_non_decimal_file_is_a_format_error(tmp_path, capsys, body):
    # A reject exits 1; a file the strict format refuses must exit 2 instead.
    bad = tmp_path / "bad.freimat"
    bad.write_bytes(b"freimat 1\n2 2 int64\n" + body)
    _expect_error(
        capsys, "FormatError", "verify", "--a", str(bad), "--b", str(bad), "--c", str(bad)
    )


def test_dimension_mismatch_is_reported(tmp_path, capsys):
    from freicheck import Matrix, RingSpec

    small = tmp_path / "small.freimat"
    big = tmp_path / "big.freimat"
    write_matrix(Matrix.from_rows([[1]], RingSpec.int64()), small)
    write_matrix(Matrix.from_rows([[1, 0], [0, 1]], RingSpec.int64()), big)
    _expect_error(
        capsys,
        "DimensionMismatch",
        "verify",
        "--a",
        str(small),
        "--b",
        str(big),
        "--c",
        str(big),
    )


def test_equal_instance_analyze_error(tmp_path, capsys):
    prefix, payload = _gen(capsys, tmp_path, "equal")
    files = payload["files"]
    _expect_error(
        capsys,
        "InstanceActuallyEqual",
        "analyze",
        "--a",
        files["a"],
        "--b",
        files["b"],
        "--c",
        files["c"],
        "--exact",
    )


def test_field_dist_over_a_31_bit_prime(tmp_path, capsys):
    # The law over Z_p is stored as p alone, so a 31-bit field is usable.
    _, payload = _gen(capsys, tmp_path, "equal", n=8, ring="zp 2147483647", seed=2)
    files = payload["files"]
    argv = ["verify", "--a", files["a"], "--b", files["b"], "--c", files["c"]]
    code, out, err = _run(capsys, *argv, "--dist", "field", "-k", "3", "--seed", "4")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["outcome"] == "accept"
    assert doc["p_max"] == "1/2147483647"


def test_field_dist_on_int64_error(tmp_path, capsys):
    prefix, payload = _gen(capsys, tmp_path, "single-entry")
    files = payload["files"]
    _expect_error(
        capsys,
        "InvalidRing",
        "analyze",
        "--a",
        files["a"],
        "--b",
        files["b"],
        "--c",
        files["c"],
        "--dist",
        "field",
    )


def test_bad_dist_spec_error(tmp_path, capsys):
    prefix, payload = _gen(capsys, tmp_path, "single-entry", seed=5)
    files = payload["files"]
    _expect_error(
        capsys,
        "ConfigInvalid",
        "verify",
        "--a",
        files["a"],
        "--b",
        files["b"],
        "--c",
        files["c"],
        "--dist",
        "gauss",
    )


def test_budget_exceeded_error(tmp_path, capsys):
    prefix, payload = _gen(capsys, tmp_path, "single-entry", n=12, ring="zp 5", seed=1)
    files = payload["files"]
    code, out, err = _run(
        capsys,
        "analyze",
        "--a",
        files["a"],
        "--b",
        files["b"],
        "--c",
        files["c"],
        "--dist",
        "field",
        "--exact",
    )
    assert code == 2
    doc = json.loads(err)
    assert doc["error"]["kind"] == "BudgetExceeded"
    assert "largest enumerable n is 10" in doc["error"]["message"]
    # raising the budget clears the error
    code, out, _ = _run(
        capsys,
        "analyze",
        "--a",
        files["a"],
        "--b",
        files["b"],
        "--c",
        files["c"],
        "--dist",
        "field",
        "--exact",
        "--budget",
        str(5 ** 12),
    )
    assert code == 0
    assert "exact_fap" in json.loads(out)


def test_gen_bad_mode_error(tmp_path, capsys):
    _expect_error(
        capsys,
        "ConfigInvalid",
        "gen",
        "--n",
        "4",
        "--mode",
        "nonsense",
        "--out",
        str(tmp_path / "x"),
    )


def test_gen_composite_modulus_error(tmp_path, capsys):
    _expect_error(
        capsys,
        "InvalidRing",
        "gen",
        "--n",
        "4",
        "--ring",
        "zp 9",
        "--out",
        str(tmp_path / "x"),
    )


def _module_cli(*argv, unbuffered=False, **kwargs):
    """Run ``python -m freicheck.cli`` on ``argv`` in a fresh interpreter,
    with stdout block-buffered as usual for a pipe unless ``unbuffered``."""
    src = str(Path(freicheck.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "freicheck.cli", *argv],
        env=env, stderr=subprocess.PIPE, text=True, timeout=120, **kwargs,
    )


def test_module_entry_point_exit_codes(tmp_path, capsys):
    # ``python -m freicheck.cli`` runs main: 0 on accept, 1 on reject.
    for mode, code in (("equal", 0), ("single-column", 1)):
        _, payload = _gen(capsys, tmp_path, mode, n=16, ring="zp 2147483647", seed=5)
        files = payload["files"]
        argv = ["verify", "--a", files["a"], "--b", files["b"], "--c", files["c"], "-k", "10"]
        res = _module_cli(*argv, stdout=subprocess.PIPE)
        assert (res.returncode, res.stderr) == (code, "")
        assert json.loads(res.stdout)["outcome"] == ("accept", "reject")[code]


def test_closed_stdout_keeps_the_exit_code(tmp_path, capsys):
    # A reader that is already gone (``| head -c 0``) is not an input error:
    # the exit code is still the verdict's and stderr stays empty, with no
    # "Exception ignored" line from the flush at interpreter exit.
    for mode, code in (("equal", 0), ("single-column", 1)):
        _, payload = _gen(capsys, tmp_path, mode, n=16, seed=5)
        files = payload["files"]
        argv = ["verify", "--a", files["a"], "--b", files["b"], "--c", files["c"]]
        for unbuffered in (False, True):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                res = _module_cli(*argv, unbuffered=unbuffered, stdout=write_end)
            finally:
                os.close(write_end)
            assert (res.returncode, res.stderr) == (code, "")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # missing required arguments
    assert exc.value.code == 2


def test_zp_round_trip_through_cli(tmp_path, capsys):
    # gen writes reduced entries; verify and analyze read them back
    prefix, payload = _gen(capsys, tmp_path, "single-column", ring="zp 5", seed=8)
    files = payload["files"]
    code, out, _ = _run(
        capsys,
        "analyze",
        "--a",
        files["a"],
        "--b",
        files["b"],
        "--c",
        files["c"],
        "--dist",
        "field",
        "--exact",
    )
    assert code == 0
    assert json.loads(out)["exact_fap"] == "1/5"
