"""Command behaviors and the exit-code contract."""

import contextlib
import hashlib
import io
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import efalg.cli
from efalg import properties
from efalg.catalog import HARD_BOUND, direct_product, enumerate_all, make_boolean, make_chain, named_catalog
from efalg.cli import main
from efalg.core import UNDEFINED, AxiomViolationError
from efalg.fileformat import MAX_ORDER, ceiling_message, magic_line, parse, parse_generalized, serialize
from efalg.iso import canonical_form
from efalg.structure import HypothesisError
from efalg.triple import ReconstructionError, RoundtripResult, extract_triple

from test_core import PLANTED, PLANTED_VERDICTS
from test_iso import permuted_copy
from test_properties import FAILING_ANCHORS


@pytest.fixture()
def chain3_file(tmp_path):
    path = tmp_path / "chain3.efa"
    path.write_text(serialize(make_chain(2)))
    return str(path)


@pytest.fixture()
def broken_file(tmp_path):
    # missing orthosupplement for element 1
    path = tmp_path / "broken.efa"
    path.write_text(
        "efa 1\norder 3\nzero 0\none 2\nsum 0 0 0\nsum 0 1 1\nsum 0 2 2\n"
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_ok(capsys, chain3_file):
    code, out, _ = run(capsys, "verify", chain3_file)
    assert code == 0 and "ok" in out


def test_verify_reports_violations(capsys, broken_file):
    code, out, _ = run(capsys, "verify", broken_file)
    assert code == 1
    assert "Eiii" in out


# The file format stores each pair once, so only symmetric tables reach `verify`.
SYMMETRIC_PLANTED = sorted(
    name for name, (rows, _, _) in PLANTED.items() if rows == [list(col) for col in zip(*rows)]
)


@pytest.mark.parametrize("name", SYMMETRIC_PLANTED)
def test_verify_planted_violations_pinned(capsys, tmp_path, name):
    rows, zero, one = PLANTED[name]
    n = len(rows)
    sums = [f"sum {i} {j} {rows[i][j]}\n" for i in range(n) for j in range(i, n) if rows[i][j] != UNDEFINED]
    path = tmp_path / f"{name}.efa"
    path.write_text(f"efa 1\norder {n}\nzero {zero}\none {one}\n" + "".join(sums))
    code, out, _ = run(capsys, "verify", str(path))
    effect, _ = PLANTED_VERDICTS[name]
    assert effect, "every symmetric planted table fails some axiom"
    assert (code, out) == (1, "".join(f"{path}: violation {d}\n" for d in effect))


def test_verify_reads_the_generalized_files_triple_writes(capsys, tmp_path):
    alg = direct_product(make_chain(3), make_chain(2))
    source = tmp_path / "c4xc3.efa"
    source.write_text(serialize(alg))
    out_dir = tmp_path / "trip"
    assert run(capsys, "triple", str(source), "--out", str(out_dir))[0] == 0
    meager = out_dir / "meager.gefa"
    order = len(extract_triple(alg).meager.elements())
    assert run(capsys, "verify", str(meager)) == (0, f"{meager}: ok (order {order})\n", "")
    sharp = out_dir / "sharp.efa"
    assert run(capsys, "verify", str(sharp)) == (0, f"{sharp}: ok (order 4)\n", "")


def test_verify_reports_generalized_violations(capsys, tmp_path):
    # 1 + 1 = 1 + 2 = 2: cancellation fails, and (1 + 1) + 2 is undefined
    # while 1 + (1 + 2) = 1 + 2 is defined
    path = tmp_path / "broken.gefa"
    path.write_text("gefa 1\norder 3\nzero 0\nsum 0 0 0\nsum 0 1 1\nsum 0 2 2\nsum 1 1 2\nsum 1 2 2\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert (code, out) == (
        1,
        f"{path}: violation GE2 at (1, 1, 2) (associativity fails)\n"
        f"{path}: violation GE3 at (1, 1, 2) (cancellation fails)\n",
    )


def test_verify_of_an_unknown_header_names_the_effect_header(capsys, tmp_path):
    path = tmp_path / "x.efa"
    path.write_text("xfa 1\norder 2\n")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out, err) == (3, "", "error: line 1: expected header 'efa 1'\n")


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/foo.efa")
    assert code == 3 and err == "error: cannot read /nonexistent/foo.efa: No such file or directory\n"


def test_an_undecodable_file_is_refused_by_its_path(capsys, tmp_path):
    path = tmp_path / "binary.efa"
    path.write_bytes(b"efa 1\n\xff\xfe\n")
    for command in ("verify", "analyze"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (3, "") and err.startswith(f"error: cannot read {path}: "), err


def test_iso_names_the_file_it_refuses(capsys, chain3_file, broken_file, tmp_path):
    """The second operand is refused by its path: an axiom failure exits 1,
    a malformed file 3, and nothing reaches stdout."""
    code, out, err = run(capsys, "iso", chain3_file, broken_file)
    assert (code, out) == (1, "")
    assert err == f"error: input fails the algebra axioms: {broken_file}: Eiii at (1,) (no orthosupplement)\n"
    malformed = tmp_path / "malformed.efa"
    malformed.write_text("efa 1\norder 2\nzero 0\none 1\nsum 1 1\n")
    code, out, err = run(capsys, "iso", chain3_file, str(malformed))
    assert (code, out, err) == (3, "", f"error: {malformed}: line 5: 'sum' needs exactly three elements\n")
    code, out, err = run(capsys, "gen", "--kind", "product", "--files", str(malformed), chain3_file)
    assert (code, out, err) == (3, "", f"error: {malformed}: line 5: 'sum' needs exactly three elements\n")


def test_parse_error_is_input_error(capsys, tmp_path):
    p = tmp_path / "bad.efa"
    p.write_text("efa 1\norder 2\nzero 0\none 1\nsum 1 1\n")
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 3 and "line 5" in err


@pytest.mark.parametrize(
    "text, reason",
    [
        ("gefa 1\norder 2\nzero 0\none 1\n", "line 4: 'one' not allowed here"),
        ("efa 1\norder 2\nzero 0\none 1\nname 0 a\nname 0 b\n", "line 6: duplicate name for element 0"),
        ("efa 1\n# zero 0\n", "line 1: missing 'order'"),
        ("efa 1\norder\n", "line 2: missing value for order"),
        ("efa 1\norder two\n", "line 2: order is not an integer: 'two'"),
        ("efa 1\norder 2 7\nzero 0\none 1\n", "line 2: 'order' takes one value, got 2"),
        ("efa 1\norder 2\nzero 0 1\none 1\n", "line 3: 'zero' takes one value, got 2"),
        ("gefa 1\norder 2\nzero 0 # bottom\nzero 1 x\n", "line 4: duplicate 'zero'"),
        ("efa 1\norder 2\nzero 0\none 1 junk\n", "line 4: 'one' takes one value, got 2"),
    ],
)
def test_verify_refuses_malformed_files_on_one_line(capsys, tmp_path, text, reason):
    path = tmp_path / "bad.efa"
    path.write_text(text)
    assert run(capsys, "verify", str(path)) == (3, "", f"error: {reason}\n")


def test_oversized_order_refused_on_its_line(capsys, tmp_path):
    p = tmp_path / "huge.efa"
    p.write_text("efa 1\norder 100000\nzero 0\none 99999\n")
    start = time.perf_counter()
    code, _, err = run(capsys, "verify", str(p))
    assert time.perf_counter() - start < 0.1
    assert code == 3 and "line 2" in err and "10000000000 cells, about 940 GB and at least 1,000 s" in err


# sha256 of the stdout of `analyze FILE --json` and of `roundtrip FILE` on the
# largest inputs the order kernels serve, recorded before the Riesz scan and
# the triple rebuild were rewritten: their bytes must not move.
LARGE_OUTPUTS = {
    "chain-400": (
        lambda: make_chain(400),
        "7aba05dc2be5a98e47523386c27c52c2414fcf3dc94e303c2b4514cd2439aac3",
        "11b2c40330f997e7d569d03b83bbca7ea55edd1076f9a49c484f0805f8239952",
    ),
    "chain-8x8x4": (
        lambda: direct_product(direct_product(make_chain(8), make_chain(8)), make_chain(4)),
        "ea64add5ce9e5dd47ddf445ba6d52c67705d9651ff9c07cfd69f1f1c44f4442c",
        "826c029ab15dc2bbb80721298ee05939cd13aa8e6f44c2d4e919227198f10f00",
    ),
    "boolean-64xchain-4": (
        lambda: direct_product(make_boolean(6), make_chain(4)),
        "f4640697ebc2941afbe3e89f9a4f6ea7b06be7b0a6a84c9ec7322c33294beb91",
        "68e4eb68a83f9f477a24067123f7ab1900b6630f7d5b732915fbf9254d96d36c",
    ),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", LARGE_OUTPUTS)
def test_large_outputs_do_not_move(capsys, tmp_path, monkeypatch, name):
    build, analyze_digest, roundtrip_digest = LARGE_OUTPUTS[name]
    monkeypatch.chdir(tmp_path)  # roundtrip prints the path as given
    path = f"{name}.efa"
    (tmp_path / path).write_text(serialize(build()))
    for argv, digest in (["analyze", path, "--json"], analyze_digest), (["roundtrip", path], roundtrip_digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_analyze_json_schema(capsys, chain3_file):
    code, out, _ = run(capsys, "analyze", chain3_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["sharp"] == [0, 2]
    assert doc["flags"]["homogeneous"]["value"] is True


def test_analyze_plain(capsys, chain3_file):
    code, out, _ = run(capsys, "analyze", chain3_file)
    assert code == 0 and "sharp" in out


def test_triple_writes_artifacts(capsys, tmp_path, chain3_file):
    out_dir = tmp_path / "trip"
    code, out, _ = run(capsys, "triple", chain3_file, "--out", str(out_dir))
    assert code == 0
    sharp = parse((out_dir / "sharp.efa").read_text())
    assert sharp.order == 2
    mea = parse_generalized((out_dir / "meager.gefa").read_text())
    assert mea.order == 2
    h = json.loads((out_dir / "h.json").read_text())
    assert h == {"0": [0], "1": [0, 1]}
    back = json.loads((out_dir / "backmaps.json").read_text())
    assert back["sharp_to_source"] == [0, 2]


def test_triple_hypothesis_exit(capsys, tmp_path, enumerated_6):
    from efalg.structure import is_homogeneous

    non_hom = next(a for a in enumerated_6 if not is_homogeneous(a))
    p = tmp_path / "nh.efa"
    p.write_text(serialize(non_hom))
    code, _, err = run(capsys, "triple", str(p), "--out", str(tmp_path / "t"))
    assert code == 2
    assert "homogeneous" in err


def test_roundtrip_pass(capsys, chain3_file):
    code, out, _ = run(capsys, "roundtrip", chain3_file)
    assert code == 0 and "isomorphism" in out


def test_failed_roundtrip_is_a_failed_check(capsys, monkeypatch, chain3_file):
    failing = RoundtripResult(False, None, "sum not preserved", (1, 1))
    monkeypatch.setattr(efalg.cli, "verify_roundtrip", lambda alg: failing)
    code, out, _ = run(capsys, "roundtrip", chain3_file)
    assert (code, out) == (1, f"{chain3_file}: roundtrip failed: sum not preserved witness (1, 1)\n")


def test_reconstruction_error_is_a_failed_check(capsys, monkeypatch, chain3_file):
    def broken(alg):
        raise ReconstructionError("rebuild lost element 1")

    monkeypatch.setattr(efalg.cli, "verify_roundtrip", broken)
    code, out, err = run(capsys, "roundtrip", chain3_file)
    assert (code, out, err) == (1, "", "error: internal consistency: rebuild lost element 1\n")


def test_iso_with_permuted_copy(capsys, tmp_path):
    alg = make_chain(3)
    a = tmp_path / "a.efa"
    b = tmp_path / "b.efa"
    a.write_text(serialize(alg))
    b.write_text(serialize(permuted_copy(alg, random.Random(5))))
    code, out, _ = run(capsys, "iso", str(a), str(b))
    assert code == 0 and "isomorphic" in out


def test_iso_negative(capsys, tmp_path):
    from efalg.catalog import make_boolean

    a = tmp_path / "a.efa"
    b = tmp_path / "b.efa"
    a.write_text(serialize(make_chain(3)))
    b.write_text(serialize(make_boolean(2)))
    code, out, _ = run(capsys, "iso", str(a), str(b))
    assert code == 1 and "not isomorphic" in out


def test_gen_chain_and_product(capsys, tmp_path):
    chain_file = tmp_path / "c4.efa"
    code, _, _ = run(capsys, "gen", "--kind", "chain", "--n", "3", "--out", str(chain_file))
    assert code == 0
    assert parse(chain_file.read_text()).order == 4

    code, out, _ = run(capsys, "gen", "--kind", "boolean", "--n", "2")
    assert code == 0 and "order 4" in out

    prod = tmp_path / "p.efa"
    code, _, _ = run(
        capsys, "gen", "--kind", "product",
        "--files", str(chain_file), str(chain_file), "--out", str(prod),
    )
    assert code == 0
    assert parse(prod.read_text()).order == 16


def test_gen_hsum(capsys, tmp_path):
    c = tmp_path / "c3.efa"
    c.write_text(serialize(make_chain(2)))
    code, out, _ = run(capsys, "gen", "--kind", "hsum", "--files", str(c), str(c))
    assert code == 0
    assert "order 4" in out


def test_gen_bad_params_input_error(capsys):
    code, _, err = run(capsys, "gen", "--kind", "chain", "--n", "0")
    assert code == 3 and err == "error: chain needs n >= 1; n = 0 collapses zero and one\n"


def test_gen_product_needs_two_files(capsys, chain3_file):
    code, out, err = run(capsys, "gen", "--kind", "product", "--files", chain3_file)
    assert (code, out, err) == (3, "", "error: product needs exactly two operand files\n")


def test_gen_refuses_orders_past_the_ceiling(capsys, tmp_path):
    """gen refuses, before building it, an algebra the parser would refuse to
    read back, with the parser's message; nothing is written. The sizes are
    just past the ceiling, so an unguarded build would still finish."""
    out = tmp_path / "x.efa"
    code, stdout, err = run(capsys, "gen", "--kind", "chain", "--n", str(MAX_ORDER), "--out", str(out))
    assert (code, stdout) == (3, "") and not out.exists()
    assert err.startswith(f"error: order {MAX_ORDER + 1} exceeds the ceiling {MAX_ORDER};")
    assert err == f"error: {ceiling_message(MAX_ORDER + 1)}\n"

    c32 = tmp_path / "c32.efa"
    c32.write_text(serialize(make_chain(31)))
    code, stdout, err = run(capsys, "gen", "--kind", "product", "--files", str(c32), str(c32))
    assert (code, stdout, err) == (3, "", f"error: {ceiling_message(32 * 32)}\n")

    # each 8-element chain adds its 6 interior elements to the shared zero and one
    c8 = tmp_path / "c8.efa"
    c8.write_text(serialize(make_chain(7)))
    k = (MAX_ORDER - 2) // 6 + 1
    code, stdout, err = run(capsys, "gen", "--kind", "hsum", "--files", *[str(c8)] * k)
    assert (code, stdout, err) == (3, "", f"error: {ceiling_message(6 * k + 2)}\n")
    code, stdout, _ = run(capsys, "gen", "--kind", "hsum", "--files", *[str(c8)] * (k - 1))
    assert code == 0 and f"order {6 * (k - 1) + 2}\n" in stdout


@pytest.mark.parametrize("kind", ["chain", "boolean"])
def test_gen_without_n_is_a_usage_error(capsys, kind):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--kind", kind])
    captured = capsys.readouterr()
    assert exc.value.code == 3 and captured.out == ""
    assert captured.err.startswith("usage: efalg") and f"--kind {kind} needs --n" in captured.err


def test_enumerate_writes_files(capsys, tmp_path):
    out_dir = tmp_path / "enum"
    code, out, _ = run(capsys, "enumerate", "--max-order", "4", "--out", str(out_dir))
    assert code == 0
    assert "order 4: 3 algebras" in out
    files = sorted(out_dir.glob("*.efa"))
    assert len(files) == 5
    for f in files:
        parse(f.read_text())


def test_enumerate_bound_refusal(capsys, tmp_path):
    over = str(HARD_BOUND + 1)
    code, _, err = run(capsys, "enumerate", "--max-order", over, "--out", str(tmp_path / "x"))
    assert code == 3 and "bound" in err


def test_enumerate_refusal_makes_no_directory(capsys, tmp_path):
    """The bound is refused before the output directory is made, as gen
    refuses before it writes."""
    out_dir = tmp_path / "a" / "b"
    code, _, err = run(capsys, "enumerate", "--max-order", str(HARD_BOUND + 1), "--out", str(out_dir))
    assert code == 3 and "bound" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--max-order", "3", "--out", "{file}"],
        ["triple", "{chain}", "--out", "{file}"],
        ["gen", "--kind", "chain", "--n", "2", "--out", "{missing}/x.efa"],
    ],
)
def test_unwritable_output_is_input_error(capsys, tmp_path, chain3_file, argv):
    existing = tmp_path / "existing"
    existing.write_text("")
    paths = {"file": existing, "chain": chain3_file, "missing": tmp_path / "missing"}
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 3 and err.startswith("error: cannot write ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["suite", "--max-order", "x"], 3),
        (["bogus"], 3),
        (["--help"], 0),
        (["suite", "--jobs", "0"], 3),
        (["suite", "--jobs", "-5"], 3),
        (["suite", "--jobs", "abc"], 3),
        # gen refuses an option its kind does not read, before any file is opened
        (["gen", "--kind", "chain", "--n", "2", "--files", "/nonexistent/x.efa"], 3),
        (["gen", "--kind", "boolean", "--n", "2", "--files", "a.efa"], 3),
        (["gen", "--kind", "hsum", "--files", "a.efa", "--n", "2"], 3),
        (["gen", "--kind", "product", "--files", "a.efa", "b.efa", "--n", "9"], 3),
    ],
)
def test_usage_errors_are_input_errors(capsys, argv, expected):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == expected
    assert (captured.err if expected else captured.out).startswith("usage: efalg")
    if expected:
        # one usage error, and nothing ran
        assert captured.out == "" and captured.err.count("error:") == 1
    if argv[-1] == "abc":
        assert "argument --jobs: invalid int value: 'abc'" in captured.err


def test_suite_small(capsys):
    code, out, _ = run(capsys, "suite", "--max-order", "3")
    assert code == 0
    assert "tripletheor" in out
    assert "FAIL" not in out
    assert "failing: 0" in out


def test_suite_refuses_past_the_hard_bound_before_any_anchor_runs(capsys, monkeypatch):
    def never(E):
        raise AssertionError("an anchor ran before the refusal")

    monkeypatch.setattr(properties, "run_checks", never)
    code, out, err = run(capsys, "suite", "--max-order", "13")
    assert (code, out) == (3, "")
    assert err == (
        "error: max_order 13 exceeds the configured bound 12; "
        "the search at order 13 visits 1802041 nodes and validates 8106 leaves\n"
    )


def test_suite_reaches_past_the_default_bound(capsys):
    code, out, _ = run(capsys, "suite", "--max-order", "7")
    assert code == 0
    assert "failing: 0" in out


# SHA-256 of the `efalg suite --max-order 6` table, recorded before the anchor
# hypotheses moved from the check bodies into properties.ANCHORS.
SUITE_6_SHA256 = "b048a36303e54248cf6f2e0f2b4d7958c327da61525fd86f3a220dbfacf42791"


@pytest.mark.parametrize("flags", [(), ("--jobs", "1"), ("--jobs", "2")], ids=["default", "jobs-1", "jobs-2"])
def test_suite_table_does_not_move(capsys, flags):
    code, out, _ = run(capsys, "suite", "--max-order", "6", *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_6_SHA256


# SHA-256 of the one-worker `efalg suite --max-order 8` and `--max-order 9`
# tables, recorded before check_infasoc skipped the families whose sum is
# undefined; they fix every anchor's count where that skip acts. The
# `--max-order 11` table was recorded when order 11 entered the CLI.
SUITE_SHA256 = {
    "8": "fc1419c8544f016ef3b28d855b7d1b1da97bcce70978e33a2b9cfe49726bba08",
    "9": "d0796636f8036f229fc736c776b582efa40af3dbf720a6ba3c5e0ba66d5523f4",
    "11": "7b15b226a74c293cb13fd6d2f4da175a715910890e091e3d1ac67ec88719176a",
}


@pytest.mark.slow
@pytest.mark.parametrize("max_order", SUITE_SHA256)
def test_larger_suite_tables_do_not_move(capsys, max_order):
    code, out, _ = run(capsys, "suite", "--max-order", max_order)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_SHA256[max_order]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_suite_prints_failures_and_notes(capsys, monkeypatch, jobs):
    monkeypatch.setattr(properties, "ANCHORS", FAILING_ANCHORS)
    code, out, _ = run(capsys, "suite", "--max-order", "3", "--jobs", jobs)
    # the first three failures in universe order, then every note
    assert (code, out) == (1, (
        "odd    algebras   17  checks      17  FAIL\n"
        "       failure in chain-3: ('order', 3)\n"
        "       failure in chain-5: ('order', 5)\n"
        "       failure in chain-7: ('order', 7)\n"
        "noted  algebras   14  checks      14  PASS\n"
        "       note: chain-4: order 4\n"
        "       note: boolean-4: order 4\n"
        "       note: hsum-3-3: order 4\n"
        "anchors: 2, failing: 1\n"
    ))


def test_the_environment_sets_no_worker_count(capsys, monkeypatch):
    """EFALG_JOBS is not read: the suite runs in process, one worker."""
    import multiprocessing

    def no_pool(method):
        raise AssertionError("a worker pool was asked for")

    monkeypatch.setenv("EFALG_JOBS", "2")
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    code, out, _ = run(capsys, "suite", "--max-order", "3")
    assert code == 0 and "failing: 0" in out


def test_module_entry_point_subprocess(tmp_path):
    import subprocess
    import sys

    path = tmp_path / "c.efa"
    path.write_text(serialize(make_chain(2)))
    proc = subprocess.run(
        [sys.executable, "-m", "efalg", "roundtrip", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "isomorphism" in proc.stdout


@pytest.mark.parametrize("argv", [["iso", "{f}", "{f}"], ["analyze", "{f}", "--json"], ["verify", "{f}"]])
def test_closed_stdout_is_an_unwritable_output(chain3_file, argv):
    import subprocess
    import sys

    proc = subprocess.Popen(
        [sys.executable, "-m", "efalg", *(arg.format(f=chain3_file) for arg in argv)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader is gone before the command prints
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (3, b"")


# --- fuzzing `verify`, `analyze`, `roundtrip`, `triple` and `iso` -----------

# Orders stay at 8 or below so that each example stays fast: any order up to
# the parser's ceiling builds an order² table.
MAX_FUZZ_ORDER = 8
FUZZ = settings(max_examples=100, derandomize=True, deadline=None, database=None)
# Each example runs five commands, so fewer examples keep the cost near FUZZ's.
FUZZ_COMMANDS = settings(FUZZ, max_examples=40)
CATALOG_TEXTS = [serialize(e.algebra) for e in named_catalog()]
DIRECTIVES = ["efa", "gefa", "order", "zero", "one", "name", "sum", "#", "bogus"]
_small_int = st.integers(-2, MAX_FUZZ_ORDER).map(str)
_token = st.one_of(_small_int, st.text(alphabet="0123456789+-_ .ab#", max_size=4))


def _pair(s):
    return min(s[0], s[1]), max(s[0], s[1])


@st.composite
def structured_files(draw):
    """Headers and sum lines of a table of order 1..8. Cells and constants may
    fall out of range and pairs may repeat; zero may be drawn neutral."""
    order = draw(st.integers(1, MAX_FUZZ_ORDER))
    element = draw(st.sampled_from([st.integers(0, order - 1), st.integers(-1, order)]))
    unique_by = _pair if draw(st.booleans()) else None
    sums = draw(st.lists(st.tuples(element, element, element), max_size=order * order, unique_by=unique_by))
    zero, one = draw(element), draw(element)
    if draw(st.booleans()):
        sums = [(zero, x, x) for x in range(order)] + [s for s in sums if zero not in s[:2]]
    lines = ["efa 1", f"order {order}", f"zero {zero}", f"one {one}"]
    lines += [f"sum {i} {j} {k}" for i, j, k in sums]
    return "\n".join(lines) + "\n"


@st.composite
def mutated_catalog_files(draw):
    """A serialized catalog algebra with a few lines deleted, duplicated,
    swapped, replaced or with one field changed."""
    lines = draw(st.sampled_from(CATALOG_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "replace", "field"]))
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if op == "delete" and lines:
            del lines[i]
        elif op == "duplicate" and lines:
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "swap" and lines:
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "replace" or not lines:
            words = [draw(st.sampled_from(DIRECTIVES))] + draw(st.lists(_token, max_size=4))
            lines[i:i + 1] = [" ".join(words)]
        else:
            fields = lines[i].split(" ")
            k = draw(st.integers(0, len(fields) - 1))
            fields[k] = draw(st.sampled_from(DIRECTIVES)) if k == 0 else draw(_token)
            lines[i] = " ".join(fields)
    return "\n".join(_cap_order(line) for line in lines) + "\n"


def _cap_order(line):
    fields = line.split("#", 1)[0].split()
    if fields[:1] == ["order"] and len(fields) > 1:
        try:
            if int(fields[1]) > MAX_FUZZ_ORDER:
                return f"order {MAX_FUZZ_ORDER}"
        except ValueError:
            pass
    return line


def _quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code, out.getvalue()


def _verify_exit_matches_parse(path, text):
    path.write_text(text)
    code, _ = _quiet(["verify", str(path)])
    try:
        parse_generalized(text) if magic_line(text) == "gefa 1" else parse(text)
        expected = 0
    except AxiomViolationError:
        expected = 1
    except ValueError:
        expected = 3
    assert code == expected


@FUZZ
@given(text=structured_files())
def test_fuzz_verify_structured_tables(tmp_path_factory, text):
    _verify_exit_matches_parse(tmp_path_factory.getbasetemp() / "structured.efa", text)


@FUZZ
@given(text=mutated_catalog_files())
def test_fuzz_verify_mutated_catalog_files(tmp_path_factory, text):
    _verify_exit_matches_parse(tmp_path_factory.getbasetemp() / "mutated.efa", text)


def _commands_keep_the_exit_contract(base, text, partner):
    """analyze --json, roundtrip, triple and iso give the exit code the parsed
    input calls for: 3 or 1 for a file that parse refuses, else 0 for analyze,
    2 or 0 by the triple's hypotheses, 0 or 1 by isomorphism."""
    path, other = base / "fuzzed.efa", base / "partner.efa"
    path.write_text(text)
    other.write_text(partner)
    try:
        alg = parse(text)
    except ValueError as exc:
        refused = 1 if isinstance(exc, AxiomViolationError) else 3
        expected = dict.fromkeys(("analyze", "roundtrip", "triple", "iso-self", "iso-partner"), refused)
    else:
        try:
            extract_triple(alg)
            triple = 0
        except HypothesisError:
            triple = 2
        partner_iso = canonical_form(alg) == canonical_form(parse(partner))
        expected = {"analyze": 0, "roundtrip": triple, "triple": triple,
                    "iso-self": 0, "iso-partner": 0 if partner_iso else 1}
    code, out = _quiet(["analyze", str(path), "--json"])
    if code == 0:
        json.loads(out)
    got = {
        "analyze": code,
        "roundtrip": _quiet(["roundtrip", str(path)])[0],
        "triple": _quiet(["triple", str(path), "--out", str(base / "triple")])[0],
        "iso-self": _quiet(["iso", str(path), str(path)])[0],
        "iso-partner": _quiet(["iso", str(path), str(other)])[0],
    }
    assert got == expected


UNIVERSE_7 = tuple(enumerate_all(7, bound=7))


@st.composite
def relabelled_classes(draw):
    """A class of order 7 or less under a drawn relabelling, so that valid
    input, homogeneous or not, reaches every command."""
    alg = draw(st.sampled_from(UNIVERSE_7))
    return serialize(permuted_copy(alg, random.Random(draw(st.integers(0, 2**16)))))


@FUZZ_COMMANDS
@given(text=structured_files(), partner=st.sampled_from(CATALOG_TEXTS))
def test_fuzz_commands_on_structured_tables(tmp_path_factory, text, partner):
    _commands_keep_the_exit_contract(tmp_path_factory.getbasetemp(), text, partner)


@FUZZ_COMMANDS
@given(text=mutated_catalog_files(), partner=st.sampled_from(CATALOG_TEXTS))
def test_fuzz_commands_on_mutated_catalog_files(tmp_path_factory, text, partner):
    _commands_keep_the_exit_contract(tmp_path_factory.getbasetemp(), text, partner)


@FUZZ_COMMANDS
@given(text=relabelled_classes(), partner=st.sampled_from(CATALOG_TEXTS))
def test_fuzz_commands_on_relabelled_classes(tmp_path_factory, text, partner):
    _commands_keep_the_exit_contract(tmp_path_factory.getbasetemp(), text, partner)
