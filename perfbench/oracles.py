"""Output oracles for the gvforge benchmark.

Each oracle works out what a gvforge command should print from first
principles: its own sieve, Euler-criterion Legendre symbols, an exact
agreement count over codeword pairs and plain mpmath at 60 digits. This
module never imports gvforge, so a defect in the code being timed cannot
hide in its own check. Outputs are judged by meaning, not bytes: numbers are
parsed and compared with a tolerance far below any printed digit, and code
files are read field by field.

Every check raises OracleError naming what is wrong. Checks are cached by
the sha256 of the output they judge, so a repeated identical output is
checked once per process.
"""

import csv
import hashlib
import io
import json
import math
import re
from fractions import Fraction

import mpmath
import numpy as np

DPS = 60
TOL = mpmath.mpf("1e-13")  # absolute, for printed 15-17 digit values near 1
with mpmath.workdps(DPS):
    EXP29_CEIL = int(mpmath.ceil(mpmath.exp(29)))


class OracleError(Exception):
    """An output disagrees with what the oracle derived."""


def _need(cond, msg, *args):
    if not cond:
        raise OracleError(msg % args if args else msg)


_CACHE = {}


def cached(kind, key, payload, fn):
    """fn(), memoised on (kind, key, sha256(payload))."""
    if isinstance(payload, str):
        payload = payload.encode()
    k = (kind, key, hashlib.sha256(payload).hexdigest())
    if k not in _CACHE:
        _CACHE[k] = fn()
    return _CACHE[k]


# ---------------------------------------------------------------- primes

def primes_upto(n):
    """All primes <= n as an int64 array (plain sieve of Eratosthenes)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    sieve[4::2] = False
    for p in range(3, math.isqrt(n) + 1, 2):
        if sieve[p]:
            sieve[p * p::2 * p] = False
    return np.flatnonzero(sieve).astype(np.int64)


_SEGMENTS = {}


def primes_between(lo, hi):
    """All primes p with lo <= p <= hi (segmented sieve over [lo, hi])."""
    lo = max(lo, 2)
    if hi < lo:
        return np.empty(0, dtype=np.int64)
    if (lo, hi) not in _SEGMENTS:
        seg = np.ones(hi - lo + 1, dtype=bool)
        for p in primes_upto(math.isqrt(hi)):
            p = int(p)
            start = max(p * p, -(-lo // p) * p)
            seg[start - lo::p] = False
        _SEGMENTS[(lo, hi)] = np.flatnonzero(seg).astype(np.int64) + lo
    return _SEGMENTS[(lo, hi)]


def first_primes(count):
    """The first `count` primes, ascending."""
    bound = 32
    while True:
        ps = primes_upto(bound)
        if len(ps) >= count:
            return ps[:count]
        bound *= 2


def legendre(D, p):
    """Kronecker symbol (D|p) for a prime p: Euler's criterion, or D mod 8 at 2."""
    if p == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 in (1, 7) else -1
    t = pow(D % p, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def distinct_prime_factors(m):
    m, out, f = abs(m), [], 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out.append(m)
    return out


def count_inert_3mod4(p_ell, r, q):
    """Nq: primes p = 3 (mod 4) with p > p_ell and r <= p^2 <= q."""
    lo = max(p_ell + 1, math.isqrt(r - 1) + 1)
    ps = primes_between(lo, math.isqrt(q))
    return int(np.count_nonzero(ps % 4 == 3))


def iroot(n, k):
    """floor(n^(1/k)) by integer bisection."""
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _num(text):
    try:
        return mpmath.mpf(text)
    except (TypeError, ValueError):
        raise OracleError("not a number: %r" % (text,)) from None


def _close(printed, exact, what):
    with mpmath.workdps(DPS):
        _need(abs(_num(printed) - exact) <= TOL * max(1, abs(exact)),
              "%s: printed %s, expected %s", what, printed,
              mpmath.nstr(exact, 20))


# ---------------------------------------------------------------- codes

def ideal_count(D, r, q):
    """Number of prime ideals of Q(sqrt D) with norm in [r, q]."""
    n = 0
    for p in primes_upto(q):
        p = int(p)
        s = legendre(D, p)
        if s == -1:
            n += r <= p * p <= q
        elif p >= r:
            n += 2 if s == 1 else 1
    return n


def volume_target(r, G, abs_disc):
    """ceil(r^G / sqrt|disc|): the least t with t^2 |disc| >= r^(2G)."""
    c = -(-r ** (2 * G) // abs_disc)
    return math.isqrt(c - 1) + 1


def max_agreement(rows):
    """Largest number of positions in which two distinct rows agree.

    Rows that share a symbol in a column are grouped; every pair inside a
    group gets one key per shared column, and the most frequent key gives
    the answer. Exact, and unrelated to the dense scan gvforge uses.
    """
    m, n = rows.shape
    if m < 2:
        return 0
    keys = []
    for c in range(n):
        col = rows[:, c]
        order = np.argsort(col, kind="stable")
        cuts = np.flatnonzero(np.diff(col[order])) + 1
        for g in np.split(order, cuts):
            if len(g) > 1:
                i, j = np.triu_indices(len(g), 1)
                keys.append(g[i] * m + g[j])
    if not keys:
        return 0
    allk = np.sort(np.concatenate(keys))
    edges = np.flatnonzero(np.diff(allk)) + 1
    runs = np.diff(np.concatenate(([0], edges, [len(allk)])))
    return int(runs.max())


def parse_code_text(text):
    """(header dict, int64 row array) of a code file; malformed -> OracleError."""
    lines = text.splitlines()
    _need(lines and lines[0].startswith("# lenstra "), "missing '# lenstra' header")
    head = dict(tok.split("=", 1) for tok in lines[0].split()[2:] if "=" in tok)
    rows = [ln.split() for ln in lines[1:] if ln.strip()]
    _need(len(set(map(len, rows))) <= 1, "rows have unequal lengths")
    try:
        arr = np.array([[int(s) for s in row] for row in rows], dtype=np.int64)
    except (ValueError, OverflowError):
        raise OracleError("non-integer symbol in a code row") from None
    return head, arr.reshape(len(rows), len(rows[0]) if rows else 0)


def code_facts(text, disc, r, q, G):
    """Everything `verify` should report about a code file, derived here."""
    def compute():
        head, arr = parse_code_text(text)
        for key, want in (("q", q), ("r", r), ("G", G), ("disc", disc)):
            _need(head.get(key) == str(want), "header %s=%s, expected %s",
                  key, head.get(key), want)
        n = arr.shape[1] if len(arr) else int(head.get("n", 0))
        _need(head.get("n") == str(n), "header n=%s but rows have %d symbols",
              head.get("n"), n)
        rows = len(arr)
        distinct = len(np.unique(arr, axis=0)) if rows else 0
        if distinct < rows:
            d = 0
        else:
            d = n - max_agreement(arr) if rows > 1 else n
        symbols_ok = bool(rows == 0 or (arr.min() >= 0 and arr.max() < q))
        target = volume_target(r, G, abs(disc))
        ok = (symbols_ok and distinct == rows and distinct >= target
              and (rows < 2 or d >= n + 1 - G))
        return {"n": n, "rows": rows, "M": distinct, "d": d, "target": target,
                "symbols_ok": symbols_ok, "required_d": n + 1 - G, "ok": ok,
                "arr": arr}
    return cached("code", (disc, r, q, G), text, compute)


def check_construct(exit_code, stdout, code_text, disc, r, q, G):
    """construct wrote a valid code for (disc, r, q, G): checked by meaning."""
    _need(exit_code == 0, "construct exit %d, expected 0", exit_code)
    f = code_facts(code_text, disc, r, q, G)
    n_ideals = ideal_count(disc, r, q)
    _need(f["n"] == n_ideals, "n=%d but there are %d prime ideals with norm "
          "in [%d, %d]", f["n"], n_ideals, r, q)
    _need(f["symbols_ok"], "a symbol lies outside [0, %d)", q)
    _need(f["M"] == f["rows"], "duplicate rows (%d distinct of %d)",
          f["M"], f["rows"])
    _need(f["M"] >= f["target"], "M=%d below ceil(r^G/sqrt|disc|)=%d",
          f["M"], f["target"])
    _need(f["rows"] < 2 or f["d"] >= f["required_d"],
          "minimum distance %d below n+1-G=%d", f["d"], f["required_d"])
    summary = dict(re.findall(r"(\w+)=(-?\d+)", stdout))
    for key, want in (("n", f["n"]), ("M", f["M"]),
                      ("d_bound", f["required_d"]), ("target", f["target"])):
        if key in summary:
            _need(int(summary[key]) == want, "summary %s=%s, expected %d",
                  key, summary[key], want)


def check_verify(exit_code, stdout, code_text, disc, r, q, G):
    """verify's verdict, counts and named reasons match the oracle's facts."""
    f = code_facts(code_text, disc, r, q, G)
    want_exit = 0 if f["ok"] else 2
    _need(exit_code == want_exit, "verify exit %d, expected %d", exit_code,
          want_exit)
    m = re.search(r"^M=(\d+) d=(\d+) n=(\d+)$", stdout, re.M)
    _need(m is not None, "no 'M=.. d=.. n=..' line")
    got = tuple(int(x) for x in m.groups())
    _need(got == (f["M"], f["d"], f["n"]), "verify printed M,d,n=%s, expected %s",
          got, (f["M"], f["d"], f["n"]))
    lines = stdout.strip().splitlines()
    _need(lines and lines[-1] == ("ok" if f["ok"] else "FAILED"),
          "last line %r does not match the verdict", lines[-1] if lines else "")
    fails = [ln for ln in lines if ln.startswith("fail:")]
    if f["ok"]:
        _need(not fails, "a passing code printed %r", fails)
        return
    _need(fails, "a failing code printed no 'fail:' reason")
    reasons = " ".join(fails)
    if f["M"] < f["rows"]:
        _need("duplicate" in reasons, "duplicate rows not named")
    if f["rows"] > 1 and f["d"] < f["required_d"]:
        pm = re.search(r"words (\d+) and (\d+) at distance (\d+)", reasons)
        _need(pm is not None, "distance shortfall not named")
        i, j, dist = (int(x) for x in pm.groups())
        arr = f["arr"]
        _need(i != j and max(i, j) < len(arr)
              and int((arr[i] != arr[j]).sum()) == dist == f["d"],
              "named pair (%d, %d) is not at the minimum distance %d", i, j,
              f["d"])
    if f["M"] < f["target"]:
        _need("volume target" in reasons, "capture shortfall not named")
    if not f["symbols_ok"]:
        _need("outside" in reasons, "bad symbol not named")


# ---------------------------------------------------------------- certify

C_SQRT = Fraction(6745, 10 ** 4)
C_LOGD = Fraction(2901, 10 ** 4)
C_FINAL = (Fraction(37, 10), Fraction(-139, 100), Fraction(58, 100))


def _mp(x):
    """A Fraction at the working precision."""
    return mpmath.mpf(x.numerator) / x.denominator


def gv_exact(q, delta):
    """Gilbert-Varshamov rate at 60 digits; 0 once delta >= 1 - 1/q."""
    if delta >= Fraction(q - 1, q):
        return mpmath.mpf(0)
    d = _mp(delta)
    h = -d * mpmath.log(d) - (1 - d) * mpmath.log(1 - d)
    return 1 - (d * mpmath.log(q - 1) + h) / mpmath.log(q)


def plotkin_exact(q, delta):
    v = 1 - delta * Fraction(q, q - 1)
    return _mp(v) if v > 0 else mpmath.mpf(0)


def log_primorial(ell):
    """log(4 p_1 ... p_ell)."""
    return mpmath.log(4) + mpmath.fsum(mpmath.log(int(p))
                                       for p in first_primes(ell))


def nfc_exact(q, delta, r, ell, k):
    d = _mp(delta)
    return ((1 - d) * mpmath.log(r) - log_primorial(ell) / (2 * k)) \
        / mpmath.log(q)


def witness_conditions(q, r, ell, k):
    """The three construction conditions at (q, r, ell, k), counted here."""
    k_room = (ell - 2) ** 2 - 4 * (ell - 2)
    p_ell = int(first_primes(ell)[-1])
    nq = count_inert_3mod4(p_ell, r, q) if r >= 2 else 0
    return {"p_ell": p_ell, "Nq": nq, "k_room": k_room,
            "c1": 2 <= r <= q, "c2": k >= 1 and 4 * (k + 2) <= k_room,
            "c3": k >= 1 and nq >= 2 * k}


def _sign_status(margin):
    _need(abs(margin) > mpmath.mpf("1e-40"), "margin %s too close to 0 to "
          "decide at %d digits", margin, DPS)
    return "pass" if margin > 0 else "fail"


def schedule_r(q):
    """ceil((1 - eps)^2 q) with eps = (log q)^(-1/3), the theorem2 schedule."""
    with mpmath.workdps(DPS):
        eps = mpmath.log(q) ** (-mpmath.mpf(1) / 3)
        rv = (1 - eps) ** 2 * q
        _need(abs(rv - mpmath.nint(rv)) > mpmath.mpf("1e-30"),
              "schedule r too close to an integer")
        return int(mpmath.ceil(rv))


def certify_expected(q, r):
    """Every check of `certify --q q` (theorem2 schedule, witness radius r),
    at 60 digits.

    Returns (witness dict or None, {name: (lhs, rhs, status)}, overall);
    lhs and rhs are None for checks that are skipped for lack of a witness.
    """
    def compute():
        with mpmath.workdps(DPS):
            ell = iroot(q, 6)
            k = ((ell - 2) ** 2 - 4 * (ell - 2)) // 4 - 2
            w = witness_conditions(q, r, ell, k)
            p_ell = w["p_ell"]
            has_w = w["c1"] and w["c2"] and w["c3"]
            checks = {}

            def put(name, lhs, rhs, ok=None):
                status = _sign_status(rhs - lhs) if ok is None else \
                    ("pass" if ok else "fail")
                checks[name] = (lhs, rhs, status)

            put("eligible_q_at_least_ceil_exp29", EXP29_CEIL, q, q >= EXP29_CEIL)
            put("condition1_r_in_range", r, q, w["c1"])
            put("condition2_k_within_quadratic", 4 * (k + 2), w["k_room"],
                w["c2"])
            put("condition3_enough_inert_primes", 2 * k, w["Nq"], w["c3"])
            put("chain_sqrt_r_above_const_sqrt_q",
                _mp(C_SQRT) * mpmath.sqrt(q), mpmath.sqrt(r),
                r * C_SQRT.denominator ** 2 > C_SQRT.numerator ** 2 * q)
            ell_log = 24 * ell * mpmath.log(ell)
            put("chain_const_sqrt_q_above_24_ell_log_ell", ell_log,
                _mp(C_SQRT) * mpmath.sqrt(q))
            put("chain_24_ell_log_ell_at_least_p_ell", p_ell, ell_log,
                _sign_status(ell_log - p_ell) == "pass")
            logD = log_primorial(ell)
            if has_w:
                ratio = logD / (2 * k)
                put("primorial_log_over_2k_bounded", ratio, _mp(C_LOGD),
                    _sign_status(_mp(C_LOGD) - ratio) == "pass")
            else:
                checks["primorial_log_over_2k_bounded"] = (None, None, "fail")
            theta = mpmath.fsum(mpmath.log(int(p)) for p in primes_upto(p_ell))
            lp = mpmath.log(p_ell)
            put("theta_p_ell_below_rosser_bound", theta, (1 + 3 / lp) * p_ell)
            put("p_ell_over_log_p_ell_below_ell", p_ell / lp, mpmath.mpf(ell))
            a, b, c = (_mp(x) for x in C_FINAL)
            le = mpmath.log(ell)
            put("final_inequality_at_ell", ell * (a + le + mpmath.log(le)),
                b + c * (_mp(Fraction((ell - 2) ** 2, 4)) - (ell - 2) - 3))
            if has_w:
                put("nfc_rate_beats_gv_at_half", gv_exact(q, Fraction(1, 2)),
                    nfc_exact(q, Fraction(1, 2), r, ell, k))
            else:
                checks["nfc_rate_beats_gv_at_half"] = (None, None, "fail")
            overall = "fail" if any(v[2] == "fail" for v in checks.values()) \
                else "pass"
            wit = {"r": r, "ell": ell, "k": k, "Nq": w["Nq"]} if has_w else None
            return wit, checks, overall
    return cached("certify", (q, r), b"", compute)


def check_certify(exit_code, stdout, q):
    """certify's JSON certificate, check by check, against certify_expected.

    The witness radius may be one below the schedule's ceiling: for q above
    2^52 gvforge rounds the enclosure endpoints to 53 bits before taking the
    ceiling. Every check is then recomputed for the radius it reports, so
    the certificate is still judged as a proof; the shortfall is returned
    as a note for the result record.
    """
    try:
        doc = json.loads(stdout)
    except ValueError:
        raise OracleError("certify output is not JSON") from None
    r0 = schedule_r(q)
    r = (doc.get("witness") or {}).get("r", r0)
    _need(r in (r0, r0 - 1), "witness r=%s, schedule gives %d", r, r0)
    wit, checks, overall = certify_expected(q, r)
    _need(exit_code == (0 if overall == "pass" else 2),
          "certify exit %d, expected %d", exit_code, 0 if overall == "pass" else 2)
    _need(doc.get("q") == q and doc.get("schedule") == "theorem2",
          "certificate is for q=%r schedule=%r", doc.get("q"), doc.get("schedule"))
    _need(doc.get("witness") == wit, "witness %r, expected %r",
          doc.get("witness"), wit)
    _need(doc.get("overall") == overall, "overall %r, expected %r",
          doc.get("overall"), overall)
    got = {c.get("name"): c for c in doc.get("checks", [])}
    _need(set(got) == set(checks) and len(got) == len(doc["checks"]),
          "check names %s, expected %s", sorted(got), sorted(checks))
    for name, (lhs, rhs, status) in checks.items():
        c = got[name]
        _need(c.get("status") == status, "%s: status %r, expected %r", name,
              c.get("status"), status)
        if lhs is None:
            _need(c.get("lhs") == "-", "%s: expected a skipped check", name)
            continue
        _close(c.get("lhs"), mpmath.mpf(lhs), name + " lhs")
        _close(c.get("rhs"), mpmath.mpf(rhs), name + " rhs")
    if r != r0:
        return "certify q=%d: witness r=%d is ceil((1-eps)^2 q) - 1" % (q, r)


# ---------------------------------------------------------------- tower

def class_number(D):
    """h(D) for D < 0 by counting reduced primitive forms (a, b, c)."""
    h = 0
    for a in range(1, math.isqrt(-D // 3) + 1):
        start = -a + 1 + (-a + 1 - D) % 2
        bs = np.arange(start, a + 1, 2, dtype=np.int64)
        bs = bs[(bs * bs - D) % (4 * a) == 0]
        cs = (bs * bs - D) // (4 * a)
        keep = (cs >= a) & ~((bs < 0) & (cs == a))
        keep &= np.gcd(np.gcd(bs, a), cs) == 1
        h += int(np.count_nonzero(keep))
    return h


def tower_expected(D):
    """(d2, h, passes) for an imaginary D within the exact class-group range.

    Genus theory: the 2-rank of the class group of an imaginary quadratic
    field is (number of primes dividing D) - 1. With S_c empty the
    criterion is d2 >= 2 + 2 sqrt(2), i.e. d2 >= 2 and (d2 - 2)^2 >= 8.
    """
    def compute():
        d2 = len(distinct_prime_factors(D)) - 1
        return d2, class_number(D), d2 >= 2 and (d2 - 2) ** 2 >= 8
    return cached("tower", D, b"", compute)


def check_tower(exit_code, stdout, D):
    d2, h, passes = tower_expected(D)
    _need(exit_code == (0 if passes else 2), "tower exit %d, expected %d",
          exit_code, 0 if passes else 2)
    m = re.search(r"^disc=(-?\d+) d2=(\d+) \(exact \(h=(\d+)\)\) S_c=0$",
                  stdout, re.M)
    _need(m is not None, "no 'disc=.. d2=.. (exact (h=..)) S_c=0' line")
    got = tuple(int(x) for x in m.groups())
    _need(got == (D, d2, h), "tower printed disc,d2,h=%s, expected %s", got,
          (D, d2, h))
    t = re.search(r"^threshold: 2 \+ 2\*sqrt\(2\) = (\S+)", stdout, re.M)
    _need(t is not None, "no threshold line")
    with mpmath.workdps(DPS):
        _need(abs(_num(t.group(1)) - (2 + 2 * mpmath.sqrt(2))) < 1e-10,
              "threshold %s is not 2 + 2 sqrt 2", t.group(1))
    last = stdout.strip().splitlines()[-1]
    _need(last == ("tower certified" if passes else "criterion FAILED"),
          "verdict line %r", last)


# ---------------------------------------------------------------- bounds

def witness_exists(q, budget=6):
    """Some (r, ell, k) passes the conditions, with r = ceil((1 - 2^-i)^2 q)
    for an i <= budget, the candidate set `bounds` searches by default."""
    def compute():
        for i in range(1, budget + 1):
            r = -(-(2 ** i - 1) ** 2 * q // 4 ** i)
            for ell in range(3, 2 * iroot(q, 6) + 3):
                k_quad = ((ell - 2) ** 2 - 4 * (ell - 2)) // 4 - 2
                nq = witness_conditions(q, r, ell, 1)["Nq"]
                if 2 <= r <= q and min(k_quad, nq // 2) >= 1:
                    return True
        return False
    return cached("witness", (q, budget), b"", compute)


def check_bounds(exit_code, stdout, qs, deltas):
    """bounds CSV: one row per (q, delta), values against 60-digit mpmath,
    every witness re-counted."""
    _need(exit_code == 0, "bounds exit %d, expected 0", exit_code)

    def compute():
        rows = list(csv.DictReader(io.StringIO(stdout)))
        want = [(q, d) for q in qs for d in deltas]
        _need(len(rows) == len(want), "%d rows, expected %d", len(rows), len(want))
        with mpmath.workdps(DPS):
            for row, (q, d) in zip(rows, want):
                where = "q=%d delta=%s" % (q, d)
                _need(row.get("q") == str(q) and float(row.get("delta")) == float(d),
                      "row %s,%s, expected %s", row.get("q"), row.get("delta"),
                      where)
                _close(row["gv"], gv_exact(q, d), where + " gv")
                _close(row["plotkin"], plotkin_exact(q, d), where + " plotkin")
                if row["nfc"] == "":
                    _need(row["r"] == row["ell"] == row["k"] == "",
                          "%s: witness without an nfc value", where)
                    _need(not witness_exists(q), "%s: nfc blank but a "
                          "witness exists", where)
                    continue
                try:
                    r, ell, k = int(row["r"]), int(row["ell"]), int(row["k"])
                except (TypeError, ValueError):
                    raise OracleError("%s: bad witness" % where) from None
                w = witness_conditions(q, r, ell, k)
                _need(w["c1"] and w["c2"] and w["c3"], "%s: witness (r=%d, "
                      "ell=%d, k=%d) fails a condition (Nq=%d)", where, r, ell,
                      k, w["Nq"])
                _close(row["nfc"], nfc_exact(q, d, r, ell, k), where + " nfc")
    cached("bounds", (tuple(qs), tuple(deltas)), stdout, compute)
