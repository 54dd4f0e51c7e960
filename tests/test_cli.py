"""End-to-end CLI behavior: exit codes, output shapes, determinism."""

import contextlib
import csv
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvforge import cli
from gvforge import lenstra as ln
from gvforge import numtheory as nt

Q42 = 2 ** 42


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- bounds


def test_bounds_csv_grid(capsys):
    code, out, err = run(capsys, "bounds", "--q", "64",
                         "--delta-grid", "0.1:0.9:0.1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 9
    assert list(rows[0].keys()) == ["q", "delta", "gv", "plotkin", "nfc",
                                    "r", "ell", "k"]
    assert [r["delta"] for r in rows] == [
        "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9"]
    # no witness exists at q=64, so the construction columns stay blank
    assert all(r["nfc"] == "" and r["r"] == "" for r in rows)
    assert float(rows[0]["gv"]) > float(rows[4]["gv"]) > 0


def test_bounds_with_witness(capsys, tmp_path):
    path = tmp_path / "rows.json"
    code, out, err = run(capsys, "bounds", "--q", "100000000",
                         "--delta", "1/2", "--format", "json",
                         "--output", str(path))
    assert code == 0 and out == ""
    rows = json.loads(path.read_text())
    assert len(rows) == 1
    row = rows[0]
    assert (row["r"], row["ell"], row["k"]) == (56250000, 21, 69)
    assert 0 < float(row["nfc"]) < float(row["gv"]) < float(row["plotkin"])


def test_bounds_multiple_q_and_delta(capsys):
    code, out, err = run(capsys, "bounds", "--q", "16", "--q", "64",
                         "--delta", "0.25", "--delta", "1/2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["q"], r["delta"]) for r in rows] == [
        ("16", "0.25"), ("16", "0.5"), ("64", "0.25"), ("64", "0.5")]


def test_bounds_large_budget_stops_once_r_reaches_q(capsys):
    """Past the i where ceil((1 - 2^-i)^2 q) reaches q every r is q again,
    so a huge budget lists the same candidates as a budget of 64."""
    argv = ["bounds", "--q", "1000", "--q", "1048576",
            "--delta", "1/2", "--delta", "1/3"]
    code, want, err = run(capsys, *argv, "--budget", "64")
    assert code == 0 and err == ""
    assert run(capsys, *argv, "--budget", "100000") == (0, want, "")


def test_bounds_requires_delta(capsys):
    code, out, err = run(capsys, "bounds", "--q", "64")
    assert code == 1
    assert "error:" in err


def test_bounds_bad_q(capsys):
    code, out, err = run(capsys, "bounds", "--q", "1", "--delta", "0.5")
    assert code == 1


def test_bounds_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "bounds", "--q", "256",
                         "--delta-grid", "1/10:9/10:1/5",
                         "--output", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_bounds_refuses_a_delta_grid_past_the_cap(capsys, monkeypatch):
    """The rows are counted before any is built: 5 * 10^8 Fractions would
    take minutes and gigabytes."""
    code, out, err = run(capsys, "bounds", "--q", "100", "--delta-grid",
                         "1/1000000000:1/2:1/1000000000")
    assert code == 3 and out == ""
    assert err == ("capacity: delta grid has 500000000 rows, cap %d\n"
                   % cli.DELTA_GRID_CAP)
    # a grid of exactly the cap is listed, up to its last row
    n = 20
    monkeypatch.setattr(cli, "DELTA_GRID_CAP", n)
    code, out, err = run(capsys, "bounds", "--q", "4", "--delta-grid",
                         "1/%d:%d/%d:1/%d" % (n + 1, n, n + 1, n + 1))
    assert code == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == n
    assert rows[-1]["delta"] == "%s" % float(Fraction(n, n + 1))
    code, out, err = run(capsys, "bounds", "--q", "4", "--delta-grid",
                         "1/%d:%d/%d:1/%d" % (n + 2, n + 1, n + 2, n + 2))
    assert (code, out) == (3, "")
    assert err == "capacity: delta grid has %d rows, cap %d\n" % (n + 1, n)


def test_out_of_memory_exits_3(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError()
    monkeypatch.setitem(cli._DISPATCH, "certify", exhausted)
    code, out, err = run(capsys, "certify", "--q", str(Q42))
    assert (code, out, err) == (3, "", "capacity: out of memory\n")


# ---------------------------------------------------------------- certify


def test_certify_json_pass(capsys):
    code, out, err = run(capsys, "certify", "--q", str(Q42))
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "pass"
    assert doc["witness"] == {"r": 2003452383709, "ell": 128,
                              "k": 3841, "Nq": 23690}
    assert len(doc["checks"]) == 12
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert set(doc["checks"][0]) == {"name", "lhs", "rhs", "margin",
                                     "width", "status"}


def test_certify_fails_small_q(capsys):
    code, out, err = run(capsys, "certify", "--q", "1000000",
                         "--format", "text")
    assert code == 2
    assert out.startswith("q=1000000 schedule=theorem2 overall=fail")
    assert "eligible_q_at_least_ceil_exp29" in out
    assert "final_inequality_at_ell" in out


def test_certify_theorem1(capsys):
    code, out, err = run(capsys, "certify", "--q", str(Q42),
                         "--schedule", "theorem1", "--C0", "5/2")
    assert code == 0
    assert json.loads(out)["witness"]["r"] == 2114029880298
    code, out, err = run(capsys, "certify", "--q", str(Q42),
                         "--schedule", "theorem1")
    assert code == 1  # C0 missing, reported by the library's own check
    assert err == "error: theorem1 schedule requires C0\n"
    code, out, err = run(capsys, "certify", "--q", str(Q42),
                         "--schedule", "theorem1", "--C0", "1/10")
    assert code == 1  # eps leaves (0, 1)


def test_certify_refuses_C0_without_theorem1(capsys):
    for extra in ((), ("--schedule", "theorem2")):
        code, out, err = run(capsys, "certify", "--q", str(Q42),
                             "--C0", "5/2", *extra)
        assert (code, out) == (1, "")
        assert err == "error: --C0 applies only to --schedule theorem1\n"


def test_certify_q_too_small(capsys):
    code, out, err = run(capsys, "certify", "--q", "2")
    assert code == 1
    assert "error:" in err


def test_certify_capacity(capsys):
    # isqrt(2^66) = 2^33 is past the 2^32 sieve cap
    code, out, err = run(capsys, "certify", "--q", str(2 ** 66))
    assert (code, out) == (3, "")
    assert err == "capacity: limit 8589934592 exceeds sieve cap 4294967296\n"


def test_bounds_refuses_a_q_past_the_sieve_cap_before_listing_primes(
        capsys, monkeypatch):
    """isqrt(2^66) is past the sieve cap: bounds exits 3 before it lists the
    first primes of its witness search."""
    def listed(limit):
        raise AssertionError("primes were listed")

    monkeypatch.setattr(nt, "sieve_primes", listed)
    code, out, err = run(capsys, "bounds", "--q", str(2 ** 66),
                         "--delta", "1/2")
    assert (code, out) == (3, "")
    assert err == "capacity: limit 8589934592 exceeds sieve cap 4294967296\n"


def test_sieve_limit_environment_variable_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("GVFORGE_SIEVE_LIMIT", "1000")
    assert run(capsys, "certify", "--q", str(Q42))[0] == 0


def test_sieve_limit_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["--sieve-limit", "1000", "certify", "--q", "64"])
    captured = capsys.readouterr()
    assert (e.value.code, captured.out) == (1, "")
    assert captured.err.splitlines()[-1].startswith("error: ")


def test_certify_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(capsys, "certify", "--q", str(Q42),
                   "--output", str(path))[0] == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------- construct and verify


def test_construct_verify_roundtrip(capsys, tmp_path):
    path = tmp_path / "code.txt"
    code, out, err = run(capsys, "construct", "--disc", "-4", "--r", "9",
                         "--q", "13", "--G", "1", "--output", str(path))
    assert code == 0
    assert out.startswith("n=3 M=")
    assert "target=5" in out
    text = path.read_text()
    assert text.startswith("# lenstra q=13 r=9 G=1 disc=-4 n=3")

    code, out, err = run(capsys, "verify", str(path))
    assert code == 0
    assert out.rstrip().endswith("ok")
    assert "M=" in out and "required:" in out


def test_construct_to_stdout(capsys):
    code, out, err = run(capsys, "construct", "--disc", "12", "--r", "5",
                         "--q", "23", "--G", "2")
    assert code == 0
    assert out.startswith("# lenstra q=23 r=5 G=2 disc=12 n=6")
    assert err.startswith("n=6 M=")


def test_construct_domain_errors(capsys):
    code, out, err = run(capsys, "construct", "--disc", "-4", "--r", "9",
                         "--q", "13", "--G", "4")
    assert code == 1 and "error:" in err
    code, out, err = run(capsys, "construct", "--disc", "7", "--r", "9",
                         "--q", "13", "--G", "1")  # 7 = 3 mod 4
    assert code == 1


def test_construct_grid_below_one(capsys):
    code, out, err = run(capsys, "construct", "--disc", "-4", "--r", "9",
                         "--q", "13", "--G", "1", "--grid", "0")
    assert code == 1
    assert err == "error: start grid must be >= 1, got 0\n"


@pytest.mark.parametrize("flags, message", [
    (("--grid", "3000"), "start grid 3000 exceeds max grid 1024"),
    (("--max-grid", "0"), "start grid 64 exceeds max grid 0")])
def test_construct_start_grid_above_max_grid(capsys, flags, message):
    code, out, err = run(capsys, "construct", "--disc", "-4", "--r", "9",
                         "--q", "13", "--G", "1", *flags)
    assert (code, out, err) == (1, "", "error: %s\n" % message)


def test_construct_search_exhaustion(capsys):
    code, out, err = run(capsys, "construct", "--disc", "-4", "--r", "4",
                         "--q", "13", "--G", "1",
                         "--grid", "1", "--max-grid", "1")
    assert code == 3
    assert "capacity" in err


def test_construct_refuses_a_grid_past_the_cell_cap(capsys):
    # 10^12 cells would need a 7.3 TiB score array
    code, out, err = run(capsys, "construct", "--disc", "-4", "--r", "9",
                         "--q", "13", "--G", "1",
                         "--grid", "1000000", "--max-grid", "1000000")
    assert code == 3 and out == ""
    assert err == ("capacity: translate grid 1000000 has 1000000000000 "
                   "cells, cap 4194304\n")


def test_construct_refuses_a_box_past_the_point_cap_before_listing(
        capsys, monkeypatch):
    """r^G past OMEGA_CAP exits 3 before the ideals are listed, which here
    would sieve every prime up to 10^9."""
    def listed(*args):
        raise AssertionError("prime ideals were listed")

    monkeypatch.setattr(ln, "prime_ideals_in_norm_range", listed)
    code, out, err = run(capsys, "construct", "--disc", "-4",
                         "--r", "999999000", "--q", "1000000000", "--G", "1")
    assert (code, out) == (3, "")
    assert err == "capacity: expected point count exceeds cap 1000000\n"


def test_verify_detects_bad_symbol(capsys, tmp_path):
    path = tmp_path / "code.txt"
    run(capsys, "construct", "--disc", "-4", "--r", "9", "--q", "13",
        "--G", "1", "--output", str(path))
    lines = path.read_text().splitlines()
    for symbol in (999, 10 ** 23):  # 10^23 does not fit an int64
        lines[1] = "%d 0 0" % symbol
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2 and err == ""
        assert "symbol %d outside [0, 13)" % symbol in out
        assert out.rstrip().endswith("FAILED")


def test_verify_detects_duplicates_and_shortfall(capsys, tmp_path):
    path = tmp_path / "code.txt"
    run(capsys, "construct", "--disc", "-4", "--r", "9", "--q", "13",
        "--G", "1", "--output", str(path))
    lines = path.read_text().splitlines()
    lines[2] = lines[1]
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "duplicate codewords" in out

    head = lines[0]
    path.write_text(head + "\n" + lines[1] + "\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "below the volume target 5" in out


def test_verify_reports_worst_pair(capsys, tmp_path):
    path = tmp_path / "code.txt"
    path.write_text("# lenstra q=13 r=2 G=1 disc=-4 n=3 tau=0.0,0.0\n"
                    "0 0 0\n0 0 1\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "words 0 and 1 at distance 1 < 3" in out


def test_verify_malformed_and_missing(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("no header\n")
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 1 and "error:" in err
    code, out, err = run(capsys, "verify", str(tmp_path / "absent.txt"))
    assert code == 1


def test_verify_rejects_a_header_disc_that_is_not_fundamental(capsys, tmp_path):
    path = tmp_path / "code.txt"
    for disc in (0, 1, -3 * 4, 8 * 9):
        path.write_text("# lenstra q=13 r=9 G=1 disc=%d n=3 tau=0,0\n"
                        "0 0 0\n1 1 1\n" % disc)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: line 1: disc=%d" % disc)


@pytest.mark.parametrize("header", ["q=13 r=0 G=1", "q=13 r=9 G=-1",
                                    "q=13 r=9 G=100000"])
def test_verify_rejects_a_header_outside_the_domain(capsys, tmp_path, header):
    path = tmp_path / "code.txt"
    path.write_text("# lenstra %s disc=-4 n=3 tau=0,0\n0 0 0\n1 1 1\n" % header)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: line 1: need ")


def test_verify_fails_a_target_past_the_pairwise_cap(capsys, tmp_path):
    # M <= PAIRWISE_CAP < target, so the verdict is a plain fail (exit 2);
    # 9^5000 / 2 has 4,771 digits, too many to print in decimal
    path = tmp_path / "code.txt"
    for header, rows, target in (
            ("q=1000 r=1000 G=2 disc=-4 n=2", "0 0\n1 1\n",
             "ceil(1000^2/sqrt(4))"),
            ("q=13 r=9 G=5000 disc=-4 n=10000", "", "ceil(9^5000/sqrt(4))")):
        path.write_text("# lenstra %s tau=0,0\n%s" % (header, rows))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2 and err == ""
        assert "required: M >= %s," % target in out
        assert "below the volume target %s\nFAILED\n" % target in out


_WILD = st.one_of(st.integers(-2, 14), st.integers(-2 ** 80, 2 ** 80))


@st.composite
def code_files(draw):
    """Code files near the valid format: each header field, row and symbol
    is usually valid and sometimes far off, so many files get past the
    parser and reach the verdict."""
    def near(valid, wild=_WILD):
        return valid if draw(st.integers(0, 15)) else draw(wild)

    disc = near(draw(st.sampled_from([-4, -3, -8, -23, 5, 12])))
    r = draw(st.integers(5, 20))  # r^2 >= |disc| for the fields above
    q = draw(st.integers(r, 40))
    n = draw(st.integers(1, 4))
    fields = {"q": near(q), "r": near(r), "G": near(draw(st.integers(1, n))),
              "disc": disc, "n": near(n),
              "tau": near("0.5,0.25", st.sampled_from(["0", "x,1", "nan,inf"]))}
    head = " ".join("%s=%s" % kv for kv in fields.items()
                    if draw(st.integers(0, 40)))
    rows = [near([near(draw(st.integers(0, q - 1))) for _ in range(n)],
                 st.lists(_WILD, max_size=5))
            for _ in range(draw(st.integers(0, 10)))]
    body = "".join(" ".join(map(str, w)) + "\n" for w in rows)
    return "# lenstra %s\n%s%s" % (head, body, near("", st.just("x\n")))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "code.txt"


@settings(max_examples=100, deadline=None)
@given(st.one_of(code_files(), st.text(max_size=60)))
def test_verify_fuzzed_code_files_map_to_exit_codes(fuzz_path, text):
    fuzz_path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--threads", "1", "verify", str(fuzz_path)])
    assert code in (0, 1, 2, 3)


def test_verify_directory_is_a_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "verify", str(tmp_path))
    assert code == 1 and err.startswith("error:")


def test_verify_binary_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "code.bin"
    path.write_bytes(b"# lenstra \xff\xfe\x00\x81\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and err.startswith("error:")


# ------------------------------------------------------------------ tower


def test_tower_big_discriminant(capsys):
    code, out, err = run(capsys, "tower", "--disc", "-19399380")
    assert code == 0
    assert "d2=7 (exact (h=1536))" in out
    assert "tower certified" in out

    code, out, err = run(capsys, "tower", "--disc", "-19399380",
                         "--genus-only")
    assert code == 0
    assert "d2=7 (genus lower bound)" in out


def test_tower_factors_hint(capsys):
    code, out, err = run(capsys, "tower", "--disc", "-19399380",
                         "--factors", "2,3,5,7,11,13,17,19")
    assert code == 0
    code, out, err = run(capsys, "tower", "--disc", "-19399380",
                         "--factors", "2,3")
    assert code == 1
    code, out, err = run(capsys, "tower", "--disc", "-19399380",
                         "--factors", "2,x")
    assert code == 1


def test_tower_failing_cases(capsys):
    code, out, err = run(capsys, "tower", "--disc", "-3")
    assert code == 2
    assert "criterion FAILED" in out
    code, out, err = run(capsys, "tower", "--disc", "-4", "--sc-size", "0")
    assert code == 2
    code, out, err = run(capsys, "tower", "--disc", "60")
    assert code == 2


def test_tower_marginal_sc(capsys):
    # real field, S_c = 3657 gives threshold just under 123
    code, out, err = run(capsys, "tower", "--disc", "60", "--sc-size", "3657",
                         "--genus-only")
    assert code == 2
    assert "2 + 2*sqrt(3660)" in out


# ------------------------------------------------------------- usage paths


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["nonsense"])
    assert ei.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as ei:
        cli.main(["bounds"])  # --q missing
    assert ei.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as ei:
        cli.main(["--threads", "0", "certify", "--q", "64"])
    assert ei.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as ei:
        cli.main(["bounds", "--q", "64", "--delta-grid", "0.5:0.1:0.1"])
    assert ei.value.code == 1
    capsys.readouterr()


def test_threads_flag_accepted(capsys, tmp_path):
    path = tmp_path / "code.txt"
    run(capsys, "construct", "--disc", "-4", "--r", "9", "--q", "13",
        "--G", "3", "--output", str(path))
    code, out, err = run(capsys, "--threads", "2", "verify", str(path))
    assert code == 0
    assert cli.build_parser().parse_args(["verify", str(path)]).threads == 1
