"""Checks for the benchmark's oracles: each accepts real gvforge output and
rejects a planted wrong one.

    python3 perfbench/check_oracles.py          # from the checkout root
    python3 -m pytest perfbench/check_oracles.py

The file name keeps it out of the package's own test collection; it runs
gvforge from ./src and takes about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "perfbench", ".work", "check-%d" % os.getpid())


def gvforge(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("GVFORGE_SIEVE_LIMIT", None)
    os.makedirs(WORK, exist_ok=True)
    p = subprocess.run([sys.executable, "-m", "gvforge.cli", *map(str, args)],
                       cwd=WORK, env=env, capture_output=True, text=True,
                       timeout=120)
    return p.returncode, p.stdout


def rejects(fn, *args):
    try:
        fn(*args)
    except oracles.OracleError:
        return True
    return False


_CODES = {}


def code(disc, r, q, G):
    """(construct exit, stdout, file text) for one instance, built once."""
    key = (disc, r, q, G)
    if key not in _CODES:
        path = "c%d_%d_%d_%d.code" % (abs(disc), r, q, G)
        rc, out = gvforge("construct", "--disc", disc, "--r", r, "--q", q,
                          "--G", G, "--output", path)
        with open(os.path.join(WORK, path)) as fp:
            _CODES[key] = (rc, out, fp.read(), path)
    return _CODES[key]


def replace_row(text, j, row):
    lines = text.splitlines(keepends=True)
    lines[1 + j] = " ".join(map(str, row)) + "\n"
    return "".join(lines)


def test_code_oracle_accepts_and_rejects_tampered_rows():
    disc, r, q, G = workloads.CODE_B[0], workloads.CODE_B[1], 300, workloads.CODE_B[2]
    rc, out, text, path = code(disc, r, q, G)
    oracles.check_construct(rc, out, text, disc, r, q, G)
    vrc, vout = gvforge("--threads", 2, "verify", path)
    oracles.check_verify(vrc, vout, text, disc, r, q, G)
    _, rows = oracles.parse_code_text(text)
    # row 1 a copy of row 0: duplicate words
    dup = replace_row(text, 1, rows[0])
    assert rejects(oracles.check_construct, rc, out, dup, disc, r, q, G)
    # row 1 one symbol away from row 0: distinct words at distance 1
    near = rows[0].copy()
    near[0] = (near[0] + 1) % q
    close = replace_row(text, 1, near)
    assert oracles.code_facts(close, disc, r, q, G)["d"] == 1
    assert rejects(oracles.check_construct, rc, out, close, disc, r, q, G)
    # a symbol outside [0, q)
    bad = rows[2].copy()
    bad[3] = q
    assert rejects(oracles.check_construct, rc, out,
                   replace_row(text, 2, bad), disc, r, q, G)
    # a forged "ok" for the close file, and the wrong exit code
    assert rejects(oracles.check_verify, 0, vout, close, disc, r, q, G)
    assert rejects(oracles.check_verify, 2, vout, text, disc, r, q, G)
    # a header that does not match the request
    assert rejects(oracles.check_construct, rc, out,
                   text.replace("G=3", "G=2", 1), disc, r, q, G)


def test_tampered_verify_needs_exit_2_and_named_reasons():
    disc, r, q, G = workloads.PROBE_CODE
    rc, out, text, path = code(disc, r, q, G)
    oracles.check_construct(rc, out, text, disc, r, q, G)
    os.makedirs(WORK, exist_ok=True)
    workloads.tamper(path, "T.code", 0, 1)(WORK)
    with open(os.path.join(WORK, "T.code")) as fp:
        tampered = fp.read()
    vrc, vout = gvforge("--threads", 2, "verify", "T.code")
    assert vrc == 2
    oracles.check_verify(vrc, vout, tampered, disc, r, q, G)
    assert rejects(oracles.check_verify, 0, vout, tampered, disc, r, q, G)
    unnamed = "\n".join(ln for ln in vout.splitlines()
                        if "duplicate" not in ln) + "\n"
    assert rejects(oracles.check_verify, vrc, unnamed, tampered, disc, r, q, G)
    wrong_pair = vout.replace("words 0 and 1", "words 0 and 2")
    assert rejects(oracles.check_verify, vrc, wrong_pair, tampered, disc, r, q, G)


def test_certify_oracle_exit_codes_and_witness():
    for q, want in ((workloads.CEIL_EXP29 - 1, 2), (2 ** 42, 0)):
        rc, out = gvforge("certify", "--q", q)
        assert rc == want
        oracles.check_certify(rc, out, q)
        assert rejects(oracles.check_certify, 2 - rc, out, q)
    doc = json.loads(out)
    doc["witness"]["Nq"] += 1
    assert rejects(oracles.check_certify, 0, json.dumps(doc), 2 ** 42)
    doc = json.loads(out)
    doc["checks"][-1]["rhs"] = str(float(doc["checks"][-1]["rhs"]) + 1e-9)
    assert rejects(oracles.check_certify, 0, json.dumps(doc), 2 ** 42)
    doc = json.loads(out)
    doc["checks"][0]["status"] = "fail"
    assert rejects(oracles.check_certify, 0, json.dumps(doc), 2 ** 42)


def test_tower_oracle():
    for disc, want in ((workloads.TOWER_PASS[0], 0),
                       (workloads.TOWER_FAIL[0], 2)):
        rc, out = gvforge("tower", "--disc", disc)
        assert rc == want
        oracles.check_tower(rc, out, disc)
        assert rejects(oracles.check_tower, 2 - rc, out, disc)
        d2, h, _ = oracles.tower_expected(disc)
        forged = out.replace("h=%d)" % h, "h=%d)" % (h + 2))
        assert rejects(oracles.check_tower, rc, forged, disc)


def test_bounds_oracle_values_and_witnesses():
    qs, deltas = [2 ** 20, 2 ** 42], [Fraction(1, 2), Fraction(9, 10)]
    rc, out = gvforge("bounds", "--q", qs[0], "--q", qs[1],
                      "--delta", "1/2", "--delta", "9/10")
    oracles.check_bounds(rc, out, qs, deltas)
    assert rejects(oracles.check_bounds, 1, out, qs, deltas)
    lines = out.splitlines()
    cells = lines[1].split(",")
    for col in (2, 3, 4):  # gv, plotkin, nfc off by 1e-9
        shifted = list(cells)
        shifted[col] = repr(float(cells[col]) + 1e-9)
        forged = "\n".join([lines[0], ",".join(shifted)] + lines[2:]) + "\n"
        assert rejects(oracles.check_bounds, rc, forged, qs, deltas)
    wrong = list(cells)
    wrong[7] = str(int(cells[7]) * 4)  # k far beyond the inert-prime count
    forged = "\n".join([lines[0], ",".join(wrong)] + lines[2:]) + "\n"
    assert rejects(oracles.check_bounds, rc, forged, qs, deltas)
    dropped = "\n".join(lines[:-1]) + "\n"
    assert rejects(oracles.check_bounds, rc, dropped, qs, deltas)


def test_independent_counts():
    assert oracles.ideal_count(-4, 30, 200) == 36
    assert oracles.ideal_count(5, 25, 300) == 55
    assert oracles.volume_target(30, 3, 4) == 13500
    assert oracles.class_number(-23) == 3 and oracles.class_number(-4) == 1
    assert oracles.class_number(-84) == 4
    assert [oracles.legendre(-4, p) for p in (2, 3, 5)] == [0, -1, 1]
    rows = oracles.np.array([[1, 2, 3], [1, 2, 4], [0, 2, 3], [5, 6, 7]])
    assert oracles.max_agreement(rows) == 2


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    try:
        for t in tests:
            try:
                t()
                print("PASS", t.__name__)
            except Exception as e:
                failed += 1
                print("FAIL", t.__name__, "%s: %s" % (type(e).__name__, e))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
