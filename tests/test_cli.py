"""End-to-end CLI behavior: exit codes, output shapes, determinism."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvforge import cli
from gvforge import codefile as cf
from gvforge import lenstra as ln
from gvforge import numtheory as nt
from gvforge import translate as tr

Q42 = 2 ** 42
GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"


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


def test_bounds_prints_a_delta_that_does_not_terminate_as_a_fraction(capsys):
    """A delta with a prime factor other than 2 and 5 in its denominator has
    no exact decimal, so it prints as a/b, in CSV and in JSON; the others
    print as their exact decimal."""
    argv = ["bounds", "--q", "1048576", "--delta", "1/3", "--delta", "1/7",
            "--delta", "1/1024"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert [r["delta"] for r in csv.DictReader(io.StringIO(out))] == [
        "1/3", "1/7", "0.0009765625"]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert [r["delta"] for r in json.loads(out)] == [
        "1/3", "1/7", "0.0009765625"]


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


@pytest.mark.parametrize("flag, value, shown", [
    ("--delta", "0", "0"), ("--delta", "3/2", "3/2"),
    ("--delta-grid", "0:1:1/2", "0")])
def test_bounds_names_a_delta_outside_the_interval_as_written(
        capsys, flag, value, shown):
    assert run(capsys, "bounds", "--q", "3", flag, value) == (
        1, "", "error: delta must lie in (0, 1), got %s\n" % shown)


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


@pytest.mark.parametrize("flag, value", [
    ("--delta", "1e-4000000"), ("--delta-grid", "1e-4000000:1/2:1/10"),
    ("--C0", "1E4000000"), ("--delta", "0." + "1" * 300)])
def test_a_rational_with_an_exponent_or_too_long_exits_1(capsys, monkeypatch,
                                                         flag, value):
    """The one rational parser refuses it before any Fraction is built:
    Fraction('1e-4000000') alone takes seconds."""
    def built(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(nt, "Fraction", built)
    if flag == "--C0":
        argv = ["certify", "--q", "3", "--schedule", "theorem1", flag, value]
    else:
        argv = ["bounds", "--q", "5", flag, value]
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (1, "")
    bad = value.split(":")[0]
    assert err.endswith("error: argument %s: bad rational %r\n" % (flag, bad))


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
    assert rows[-1]["delta"] == "%d/%d" % (n, n + 1)
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


@pytest.mark.parametrize("e", [300, 470, 700])
@pytest.mark.parametrize("schedule", [(), ("--schedule", "theorem1", "--C0", "1")],
                         ids=["theorem2", "theorem1"])
def test_certify_refuses_a_q_past_the_sieve_cap_before_any_work(
        capsys, monkeypatch, e, schedule):
    """Past the sieve cap, certify names isqrt(q) and exits 3 before it
    lists a prime or encloses a schedule: no first_primes limit, no long
    root search at 2^470, no straddled ceiling at 2^700."""
    def listed(limit):
        raise AssertionError("primes were listed")

    monkeypatch.setattr(nt, "sieve_primes", listed)
    q = 2 ** e
    code, out, err = run(capsys, "certify", "--q", str(q), *schedule)
    assert (code, out) == (3, "")
    assert err == "capacity: limit %d exceeds sieve cap 4294967296\n" % (
        math.isqrt(q))


def test_certify_argument_errors_come_before_the_sieve_cap(capsys):
    code, out, err = run(capsys, "certify", "--q", str(2 ** 700),
                         "--schedule", "theorem1", "--C0", "-1")
    assert (code, out) == (1, "")
    assert err == "error: C0 must be certifiably positive\n"
    code, out, err = run(capsys, "certify", "--q", str(2 ** 700),
                         "--schedule", "theorem1")
    assert (code, out) == (1, "")
    assert err == "error: theorem1 schedule requires C0\n"


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


def test_construct_search_exhaustion(capsys, monkeypatch):
    monkeypatch.setattr(tr, "_GRIDS", (1,))
    code, out, err = run(capsys, "construct", "--disc", "-4", "--r", "4",
                         "--q", "13", "--G", "1")
    assert (code, out) == (3, "")
    assert err == "capacity: no translate certified 2 points up to grid 1\n"


@pytest.mark.parametrize("flag, value", [("--grid", "64"),
                                         ("--max-grid", "1024")])
def test_construct_takes_no_grid_option(capsys, flag, value):
    """The translate grids are fixed; a grid option is a usage error."""
    with pytest.raises(SystemExit) as info:
        cli.main(["construct", "--disc", "-4", "--r", "9", "--q", "13",
                  "--G", "1", flag, value])
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (1, "")
    assert err.endswith("error: unrecognized arguments: %s %s\n"
                        % (flag, value))


def test_construct_refuses_a_box_past_the_point_cap_before_listing(
        capsys, monkeypatch):
    """r^G past OMEGA_CAP exits 3 before the ideals are listed, which here
    would sieve every prime up to 10^9."""
    def listed(*args):
        raise AssertionError("prime ideals were listed")

    monkeypatch.setattr(tr, "prime_ideals_in_norm_range", listed)
    code, out, err = run(capsys, "construct", "--disc", "-4",
                         "--r", "999999000", "--q", "1000000000", "--G", "1")
    assert (code, out) == (3, "")
    assert err == "capacity: expected point count exceeds cap 1000000\n"


def test_construct_failing_midway_leaves_no_file(capsys, tmp_path,
                                               monkeypatch):
    """construct --output writes its lines to a new file beside the target
    and renames it only once all are written: a failure after some rows
    leaves no file, and an old file as it was."""
    def failing(columns, ideals, q):
        yield "0 0 0"
        raise MemoryError()

    monkeypatch.setattr(ln, "code_lines", failing)
    path = tmp_path / "code.txt"
    argv = ["construct", "--disc", "-4", "--r", "9", "--q", "13", "--G", "1",
            "--output", str(path)]
    assert run(capsys, *argv) == (3, "", "capacity: out of memory\n")
    assert list(tmp_path.iterdir()) == []
    path.write_text("old\n")
    assert run(capsys, *argv)[0] == 3
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "old\n"
    monkeypatch.undo()
    assert run(capsys, *argv)[0] == 0
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text().startswith("# lenstra q=13 ")


def test_output_replaces_the_target_and_nothing_beside_it(capsys, tmp_path):
    """Every command's --output goes to a temporary file beside the target,
    renamed over it: an old file keeps its mode, a new one takes the
    umask's, a symlink still names the file it named, and other files,
    OUTPUT.part among them, stay as they were. A missing directory is
    reported by the name given."""
    target = tmp_path / "out.txt"
    neighbour = tmp_path / "out.txt.part"
    link = tmp_path / "link.txt"
    neighbour.write_text("mine\n")
    target.write_text("old\n")
    target.chmod(0o640)
    link.symlink_to(target)
    commands = {
        "# lenstra q=13 ": ["construct", "--disc", "-4", "--r", "9",
                            "--q", "13", "--G", "1"],
        "q,delta,": ["bounds", "--q", "64", "--delta", "1/2"],
        "q=64 schedule=": ["certify", "--q", "64", "--format", "text"],
    }
    for start, argv in commands.items():
        assert run(capsys, *argv, "--output", str(link))[0] in (0, 2)
        assert link.is_symlink() and target.read_text().startswith(start)
        assert os.stat(target).st_mode & 0o777 == 0o640
        assert neighbour.read_text() == "mine\n"
        assert sorted(tmp_path.iterdir()) == sorted([target, neighbour, link])
    umask = os.umask(0)
    os.umask(umask)
    fresh = tmp_path / "new.txt"
    assert run(capsys, *commands["# lenstra q=13 "], "--output",
               str(fresh))[0] == 0
    assert os.stat(fresh).st_mode & 0o777 == 0o666 & ~umask
    missing = str(tmp_path / "no" / "out.txt")
    assert run(capsys, *commands["q,delta,"], "--output", missing) == (
        1, "", "error: [Errno 2] No such file or directory: %r\n" % missing)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"),
                    reason="needs /dev/stdout")
def test_output_that_is_not_a_regular_file_is_written_in_place(capsys,
                                                               tmp_path):
    """--output /dev/stdout on a pipe writes the code file there, followed
    by the summary, as to a regular file."""
    argv = ["construct", "--disc", "-23", "--r", "12", "--q", "60", "--G",
            "2", "--output"]
    path = tmp_path / "code.txt"
    rc, summary, _ = run(capsys, *argv, str(path))
    piped = subprocess.run(
        [sys.executable, "-m", "gvforge.cli", *argv, "/dev/stdout"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert (piped.returncode, piped.stdout, piped.stderr) == (
        0, path.read_text() + summary, "")


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


def test_verify_counts_rows_before_parsing(capsys, tmp_path, monkeypatch):
    """A file of more than PAIRWISE_CAP rows that no box derives exits 3
    before a row is parsed; blank lines are not rows, so a file of exactly
    PAIRWISE_CAP rows among them is parsed and scanned."""
    path = tmp_path / "code.txt"
    head = "# lenstra q=13 r=9 G=1 disc=-4 n=3 tau=0,0\n"
    cap = cf.PAIRWISE_CAP
    parse = cf._read_rows

    def parsed(*args):
        raise AssertionError("rows were parsed")

    monkeypatch.setattr(cf, "_read_rows", parsed)
    path.write_text(head + "0 1 2\n" * (cap + 1))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (3, "")
    assert err == "capacity: M=%d exceeds pairwise cap %d\n" % (cap + 1, cap)
    monkeypatch.setattr(cf, "_read_rows", parse)
    path.write_text(head + "0 1 2\n" * (cap - 1) + "\n \n1 2 3\n\n")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (2, "")
    assert "fail: duplicate codewords (M=2 of %d rows)" % cap in out


def test_verify_bounds_its_work_by_the_file_size(capsys, tmp_path,
                                                monkeypatch):
    """A header that raises q and n, with rows left as they are, cannot be
    derived: a file of M rows of n symbols holds at least 2 M n bytes, so
    no ideal is listed and the rows are parsed and refused at once."""
    text = (GOLDEN / "-23_12_60_2.code").read_text()
    path = tmp_path / "code.txt"
    path.write_text(text.replace(" q=60 ", " q=4000000000 ", 1)
                    .replace(" n=15 ", " n=1000000000 ", 1))

    def listed(*args):
        raise AssertionError("ideals were listed")

    monkeypatch.setattr(cf, "prime_ideals_in_norm_range", listed)
    assert run(capsys, "verify", str(path)) == (
        1, "", "error: line 2: expected 1000000000 symbols, got 15\n")


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_verify_reads_a_pipe_once(capsys, tmp_path):
    """A code file given as a pipe is read whole, once, and verified as the
    same file on disk is: derivable or not."""
    text = (GOLDEN / "-23_12_60_2.code").read_text()
    head, row, rest = text.split("\n", 2)
    path = tmp_path / "code.txt"
    for body in (text, head + "\n" + row + "\n" + row + "\n" + rest,
                 text.replace("\n", "\r\n")):
        path.write_text(body, newline="")
        expected = run(capsys, "verify", str(path))
        piped = subprocess.run(
            [sys.executable, "-m", "gvforge.cli", "verify", "/dev/stdin"],
            input=body.encode(), capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert (piped.returncode, piped.stdout.decode(),
                piped.stderr.decode()) == expected


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
              "tau": near("0.5,0.25", st.sampled_from(["0", "x,1", "nan,inf"])),
              "shift": near("1/2,1/4", st.sampled_from(
                  ["none", "0,0", "2,-1", "1/0,1", "x,1", "1e9,0"]))}
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


# Spawns argv and prints its exit code and peak RSS in KiB, then its
# stdout. A child's peak RSS counts the memory it shared with its parent
# before exec, so the commands are spawned from this small interpreter
# rather than from the test process.
PEAK = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
out = proc.stdout.read()
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
sys.stdout.write(out.decode())
"""


def run_peak(argv, cwd):
    """(exit code, peak RSS in KiB, stdout) of the CLI on argv."""
    run = subprocess.run(
        [sys.executable, "-c", PEAK, sys.executable, "-m", "gvforge.cli",
         *argv], capture_output=True, text=True, check=True, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    head, out = run.stdout.split("\n", 1)
    rc, kib = map(int, head.split())
    return rc, kib, out


def test_construct_and_verify_memory_does_not_grow_with_M(tmp_path):
    """At (-4, 60, 600, 3), M = 108,241 rows of n = 91 symbols, construct
    and verify pass with d = 89 = n + 1 - G, and each peaks within 1.5
    times the peak at (-23, 50, 500, 3), M = 26,250: the rows stream
    through both. The worst pair is at Hamming distance d in the file,
    and the scan of seeded rows that hold it finds d too."""
    peaks = {}
    for tag, params in (("small", (-23, 50, 500, 3)),
                        ("large", (-4, 60, 600, 3))):
        path = tmp_path / (tag + ".code")
        argv = ["construct"]
        for flag, value in zip(("--disc", "--r", "--q", "--G"), params):
            argv += [flag, str(value)]
        rc, built, _ = run_peak(argv + ["--output", str(path)], tmp_path)
        assert rc == 0
        rc, checked, out = run_peak(["verify", str(path)], tmp_path)
        assert rc == 0 and out.endswith("\nok\n")
        peaks[tag] = (built, checked)
    assert out.startswith("M=108241 d=89 n=91\n")
    assert max(peaks["large"]) <= 1.5 * max(peaks["small"]), peaks
    code, check = cf.check_code_file(path)
    assert (check.M, check.d, check.ok) == (108241, 89, True)
    i, j = check.worst_pair
    keep = set(random.Random(0).sample(range(check.M), 300)) | {i, j}
    with open(path) as fp:
        next(fp)
        rows = {k: tuple(map(int, line.split()))
                for k, line in enumerate(fp) if k in keep}
    assert sum(a != b for a, b in zip(rows[i], rows[j])) == 89
    assert cf._distance_scan(list(rows.values()), 91)[0] == 89


def test_certify_memory_does_not_grow_with_the_window(tmp_path):
    """certify at 10^16 sieves a window of 2.5 * 10^7 slots and at 2^42 one
    of 5 * 10^5, in segments of one length, so both peak within 1 MiB."""
    rc, small, _ = run_peak(["certify", "--q", "4398046511104"], tmp_path)
    assert rc == 0
    rc, large, _ = run_peak(["certify", "--q", "10000000000000000"], tmp_path)
    assert rc == 0
    assert large - small <= 1024, (small, large)


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


# every option of each subcommand, and the global ones under None, in the
# order build_parser adds them; a positional argument is named by its dest
OPTIONS = {
    None: ("--threads",),
    "bounds": ("--q", "--delta", "--delta-grid", "--budget", "--format",
               "--output"),
    "construct": ("--disc", "--factors", "--r", "--q", "--G", "--output"),
    "verify": ("path",),
    "certify": ("--q", "--schedule", "--C0", "--format", "--output"),
    "tower": ("--disc", "--factors", "--sc-size", "--genus-only"),
}


def _option_strings(parser):
    return tuple(s for a in parser._actions
                 if not isinstance(a, (argparse._HelpAction,
                                       argparse._SubParsersAction))
                 for s in a.option_strings or [a.dest])


def test_the_option_set_is_pinned():
    """Adding or removing an option is an edit of OPTIONS."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    got = {None: _option_strings(parser)}
    got.update((name, _option_strings(p)) for name, p in sub.choices.items())
    assert got == OPTIONS


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
