"""Every printed certificate and bounds value against plain mpmath at 60
digits.

The oracle here works each row out from first principles: the schedule and
the witness from mpmath and integer arithmetic, p_ell, theta(p_ell) and
log D from the trial-division primes of conftest, and Nq from a segmented
numpy sieve of the inert window (which reaches 10^8 at q = 10^16, past
what conftest's whole-range sieve should hold). Only the printed strings
come from gvforge, through `cli.main`, so a wrong digit cannot be checked
against itself.

A certificate value printed to 24 significant digits must lie within half a
unit of its 24th digit of the 60-digit value, plus the row's printed width;
a `bounds` value printed to 15 digits within half a unit of its 15th digit
(the enclosures are under 10^-30 wide, far below that unit).
"""

import contextlib
import io
import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gvforge import cli

from conftest import first_primes_oracle, trial_division_is_prime

DPS = 60
C_SQRT = Fraction(6745, 10 ** 4)
C_LOGD = Fraction(2901, 10 ** 4)
C_FINAL = (Fraction(37, 10), Fraction(-139, 100), Fraction(58, 100))
SEGMENT = 1 << 22
Q53 = 2 ** 53 + 1


def run_cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(argv))
    return out.getvalue()


def inert_count(lo: int, hi: int) -> int:
    """The primes p = 3 (mod 4) with lo <= p <= hi, counted by sieving
    [lo, hi] in segments of SEGMENT integers."""
    base = [p for p in range(2, math.isqrt(max(hi, 0)) + 1)
            if trial_division_is_prime(p)]
    count = 0
    for a in range(max(lo, 2), hi + 1, SEGMENT):
        b = min(a + SEGMENT - 1, hi)
        seg = np.ones(b - a + 1, dtype=bool)
        for p in base:
            start = max(p * p, -(-a // p) * p)
            seg[start - a::p] = False
        ps = np.flatnonzero(seg) + a
        count += int(np.count_nonzero(ps % 4 == 3))
    return count


def mp(x):
    return mpmath.mpf(x.numerator) / x.denominator if isinstance(
        x, Fraction) else mpmath.mpf(x)


def gv(q: int, delta: Fraction):
    if delta >= Fraction(q - 1, q):
        return mpmath.mpf(0)
    d = mp(delta)
    h = -d * mpmath.log(d) - (1 - d) * mpmath.log(1 - d)
    return 1 - (d * mpmath.log(q - 1) + h) / mpmath.log(q)


def plotkin(q: int, delta: Fraction):
    return mp(max(1 - delta * Fraction(q, q - 1), 0))


def log_primorial(ell: int):
    return mpmath.log(4) + mpmath.fsum(
        mpmath.log(p) for p in first_primes_oracle(ell))


def nfc(q: int, delta: Fraction, r: int, ell: int, k: int):
    return ((1 - mp(delta)) * mpmath.log(r)
            - log_primorial(ell) / (2 * k)) / mpmath.log(q)


def schedule(q: int, C0=None):
    """(eps, r, ell, k) of the theorem2 schedule, or of theorem1 with C0."""
    logq = mpmath.log(q)
    if C0 is None:
        eps = logq ** (-mpmath.mpf(1) / 3)
    else:
        eps = logq * mpmath.log(logq) / (mp(C0) * mpmath.root(q, 6))
    rv = (1 - eps) ** 2 * q
    assert abs(rv - mpmath.nint(rv)) > mpmath.mpf("1e-30")
    ell = int(mpmath.floor(mpmath.root(q, 6)))
    while ell ** 6 > q:
        ell -= 1
    while (ell + 1) ** 6 <= q:
        ell += 1
    k = ((ell - 2) ** 2 - 4 * (ell - 2)) // 4 - 2
    return eps, int(mpmath.ceil(rv)), ell, k


def certificate_rows(q: int, C0=None) -> dict:
    """name -> (lhs, rhs) of every row `certify` prints, or None for a row
    it skips."""
    eps, r, ell, k = schedule(q, C0)
    primes = first_primes_oracle(ell)
    p_ell = primes[-1]
    Nq = inert_count(max(p_ell + 1, math.isqrt(r - 1) + 1),
                     math.isqrt(q)) if r >= 2 else 0
    k_room = (ell - 2) ** 2 - 4 * (ell - 2)
    witness = 2 <= r <= q and 1 <= k and 4 * (k + 2) <= k_room and Nq >= 2 * k
    rows = {}
    if C0 is None:
        rows["eligible_q_at_least_ceil_exp29"] = (
            int(mpmath.ceil(mpmath.exp(29))), q)
    else:
        rows["eligible_eps_in_unit_interval"] = (eps, 1)
    rows["condition1_r_in_range"] = (r, q)
    rows["condition2_k_within_quadratic"] = (4 * (k + 2), k_room)
    rows["condition3_enough_inert_primes"] = (2 * k, Nq)
    const_sqrt_q = mp(C_SQRT) * mpmath.sqrt(q)
    ell_log = 24 * ell * mpmath.log(ell) if ell >= 2 else mpmath.mpf(0)
    rows["chain_sqrt_r_above_const_sqrt_q"] = (const_sqrt_q, mpmath.sqrt(r))
    rows["chain_const_sqrt_q_above_24_ell_log_ell"] = (ell_log, const_sqrt_q)
    rows["chain_24_ell_log_ell_at_least_p_ell"] = (p_ell, ell_log)
    rows["primorial_log_over_2k_bounded"] = (
        log_primorial(ell) / (2 * k), mp(C_LOGD)) if witness else None
    log_p = mpmath.log(p_ell)
    rows["theta_p_ell_below_rosser_bound"] = (
        mpmath.fsum(mpmath.log(p) for p in primes), (1 + 3 / log_p) * p_ell)
    rows["p_ell_over_log_p_ell_below_ell"] = (p_ell / log_p, ell)
    if ell >= 3:
        a, b, c = (mp(x) for x in C_FINAL)
        le = mpmath.log(ell)
        rows["final_inequality_at_ell"] = (
            ell * (a + le + mpmath.log(le)),
            b + c * mp(Fraction((ell - 2) ** 2, 4) - (ell - 2) - 3))
    else:
        rows["final_inequality_at_ell"] = None
    half = Fraction(1, 2)
    rows["nfc_rate_beats_gv_at_half"] = (
        gv(q, half), nfc(q, half, r, ell, k)) if witness else None
    return rows


def assert_printed(printed: str, value, digits: int, slack=0):
    """printed lies within half a unit of the value's digits-th significant
    digit, plus slack."""
    value = mpmath.mpf(value)
    unit = 10 ** (mpmath.floor(mpmath.log10(abs(value))) - digits + 1) \
        if value else mpmath.mpf(0)
    err = abs(mpmath.mpf(printed) - value)
    assert err <= unit / 2 + mpmath.mpf(slack), (printed, mpmath.nstr(value, 30))


CERTIFICATES = [(10 ** 6, None), (3931334297144, None), (2 ** 42, None),
                (10 ** 16, None), (Q53, None), (10 ** 16, 100), (3, 1000)]


@pytest.mark.parametrize("q,C0", CERTIFICATES)
def test_certificate_values_match_the_60_digit_oracle(q, C0):
    argv = ["certify", "--q", str(q)]
    if C0 is not None:
        argv += ["--schedule", "theorem1", "--C0", str(C0)]
    out = run_cli(*argv)
    printed = {c["name"]: c for c in json.loads(out)["checks"]}
    with mpmath.workdps(DPS):
        rows = certificate_rows(q, C0)
        assert list(printed) == list(rows)
        for name, sides in rows.items():
            c = printed[name]
            if sides is None:
                assert c["lhs"] == c["rhs"] == c["margin"] == "-", name
                continue
            lhs, rhs = map(mpmath.mpf, sides)
            for key, value in (("lhs", lhs), ("rhs", rhs), ("margin", rhs - lhs)):
                assert_printed(c[key], value, 24, c["width"])


def test_bounds_values_match_the_60_digit_oracle():
    csv_out = run_cli("bounds", "--q", "1048576",
                         "--delta-grid", "1/10:9/10:1/10")
    header, *lines = csv_out.splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    json_out = run_cli("bounds", "--q", "1073741824", "--q",
                          "3931334297144", "--delta-grid", "1/20:19/20:1/20",
                          "--format", "json")
    rows += json.loads(json_out)
    assert len(rows) == 9 + 2 * 19
    with mpmath.workdps(DPS):
        for row in rows:
            q, delta = int(row["q"]), Fraction(row["delta"])
            values = [("gv", gv(q, delta)), ("plotkin", plotkin(q, delta))]
            if row["nfc"] != "":
                w = (int(row["r"]), int(row["ell"]), int(row["k"]))
                values.append(("nfc", nfc(q, delta, *w)))
            for key, value in values:
                assert_printed(row[key], value, 15, "1e-30")


@pytest.mark.parametrize("q", [Q53, 10 ** 16])
def test_integer_rows_print_their_integers(q):
    """The eligibility and condition 1 rows print q, r, q - r and
    q - ceil(e^29) digit for digit, also past 2^53."""
    out = run_cli("certify", "--q", str(q))
    printed = {c["name"]: c for c in json.loads(out)["checks"]}
    with mpmath.workdps(DPS):
        _, r, _, _ = schedule(q)
        floor = int(mpmath.ceil(mpmath.exp(29)))
    want = {"eligible_q_at_least_ceil_exp29": (floor, q, q - floor),
            "condition1_r_in_range": (r, q, q - r)}
    for name, sides in want.items():
        c = printed[name]
        assert (c["lhs"], c["rhs"], c["margin"], c["width"]) == tuple(
            "%d.0" % v for v in sides) + ("0.0",), name
