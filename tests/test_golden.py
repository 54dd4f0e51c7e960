"""Golden CLI outputs: stdout, stderr, exit code and every written code file
must match the committed bytes in tests/golden/.

Each case runs in-process through `cli.main`. After an intended output
change, regenerate with `PYTHONPATH=src python tests/test_golden.py` and
review the diff of tests/golden/.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from gvforge import cli

GOLDEN = Path(__file__).parent / "golden"
CODES = ((-4, 9, 13, 1), (-3, 9, 40, 2), (-23, 12, 60, 2), (8, 10, 50, 2),
         (13, 11, 70, 2))


def _cases() -> dict:
    """Case name -> argv; {golden} and {out} stand for the two directories."""
    cases = {}
    for disc, r, q, G in CODES:
        tag = "%d_%d_%d_%d" % (disc, r, q, G)
        cases["construct_" + tag] = [
            "construct", "--disc", str(disc), "--r", str(r), "--q", str(q),
            "--G", str(G), "--output", "{out}/%s.code" % tag]
        for t in ("1", "2"):
            cases["verify_t%s_%s" % (t, tag)] = [
                "--threads", t, "verify", "{golden}/%s.code" % tag]
    for name in ("symbol_negative", "symbol_equals_q", "tampered",
                 "shortfall"):
        cases["verify_" + name] = ["--threads", "1", "verify",
                                   "{golden}/%s.code" % name]
    for q in (10 ** 6, 3931334297144, 2 ** 42, 10 ** 16):
        cases["certify_%d" % q] = ["certify", "--q", str(q), "--format", "text"]
    # theorem1, a JSON certificate, and certificates without a witness
    cases["certify_3_theorem1_C0_1000_json"] = [
        "certify", "--q", "3", "--schedule", "theorem1", "--C0", "1000"]
    cases["certify_10000000000000000_theorem1_C0_100"] = [
        "certify", "--q", str(10 ** 16), "--schedule", "theorem1", "--C0",
        "100", "--format", "text"]
    cases["bounds_2_20"] = ["bounds", "--q", "1048576",
                            "--delta-grid", "1/10:9/10:1/10"]
    cases["bounds_2_30_e29_json"] = ["bounds", "--q", "1073741824",
                                     "--q", "3931334297144", "--delta-grid",
                                     "1/20:19/20:1/20", "--format", "json"]
    cases["tower_-19399380"] = ["tower", "--disc", "-19399380"]
    cases["tower_5"] = ["tower", "--disc", "5"]
    return cases


CASES = _cases()


def run_case(argv, out_dir):
    """(exit code, stdout, stderr) of `cli.main` on argv, in-process."""
    argv = [a.format(golden=GOLDEN, out=out_dir) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _written(argv) -> list:
    """Names of the code files a case writes through --output."""
    return [Path(a).name for a in argv if a.startswith("{out}/")]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    argv = CASES[name]
    code, out, err = run_case(argv, tmp_path)
    exits = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == exits[name]
    assert out == (GOLDEN / (name + ".stdout")).read_text()
    assert err == (GOLDEN / (name + ".stderr")).read_text()
    for fname in _written(argv):
        assert (tmp_path / fname).read_bytes() == (GOLDEN / fname).read_bytes()


def regenerate() -> None:
    exits = {}
    for name, argv in sorted(CASES.items()):
        code, out, err = run_case(argv, GOLDEN)
        exits[name] = code
        (GOLDEN / (name + ".stdout")).write_text(out)
        (GOLDEN / (name + ".stderr")).write_text(err)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(exits, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(regenerate())
