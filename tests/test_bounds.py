"""Rate bounds, parameter schedules, and the certified inequality chain.

Oracles: plain 50-digit mpmath arithmetic for the closed-form bounds (no
interval code shared), exact integer reasoning for every ceiling/floor, and
float re-evaluation for inequality signs well away from zero.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mp

from gvforge import bounds as bd
from gvforge import certificate as ct
from gvforge import enclosure as encl
from gvforge import numtheory as nt
from gvforge import sweep as sw
from gvforge.errors import ConditionFailure, DomainError

from conftest import encloses, exact, first_primes_oracle, inert_count_oracle

Q42 = 2 ** 42
Q_FLOOR = 3931334297145


def mp_value(fn, dps=50):
    with mp.workdps(dps):
        return fn()


def assert_encloses(x, value, tol="1e-25"):
    # the endpoints are exact; value and tol are compared exactly too
    lo, hi = x.ends
    value = exact(value)
    with mp.workdps(50):
        eps = exact(mp.mpf(tol))
    assert lo - eps <= value <= hi + eps
    assert abs(encl.midpoint(x) - value) < eps


# ------------------------------------------------------------ gv, plotkin


def test_gv_exact_zero_region():
    for q in (2, 3, 9, 64, 10 ** 4):
        z = bd.gv_bound(q, Fraction(q - 1, q))
        assert encl.midpoint(z) == 0 and encl.width(z) == 0
        z = bd.gv_bound(q, Fraction(q - 1, q) + Fraction(1, 100 * q))
        assert encl.midpoint(z) == 0 and encl.width(z) == 0


def test_gv_frozen_point():
    v = bd.gv_bound(2, Fraction(11, 100))
    assert abs(encl.midpoint(v) - exact(mpmath.mpf("0.50008404"))) < 1e-7

    def oracle():
        d = mp.mpf(11) / 100
        h = -d * mp.log(d) - (1 - d) * mp.log(1 - d)
        return 1 - (d * mp.log(1) + h) / mp.log(2)

    assert_encloses(v, mp_value(oracle))


def test_gv_against_mp_oracle(rng):
    for _ in range(40):
        q = rng.choice([2, 3, 4, 7, 9, 16, 64, 101])
        delta = Fraction(rng.randrange(1, 100), 100)
        if delta >= Fraction(q - 1, q):
            continue
        v = bd.gv_bound(q, delta)

        def oracle(q=q, delta=delta):
            d = mp.mpf(delta.numerator) / delta.denominator
            h = -d * mp.log(d) - (1 - d) * mp.log(1 - d)
            return 1 - (d * mp.log(q - 1) + h) / mp.log(q)

        assert_encloses(v, mp_value(oracle))
        assert encl.width(v) < exact(mpmath.mpf("1e-30"))


def test_gv_domain():
    for bad_q in (1, 0, -3, 2.0):
        with pytest.raises(DomainError):
            bd.gv_bound(bad_q, Fraction(1, 2))
    for bad_d in (0, 1, Fraction(3, 2), -0.1):
        with pytest.raises(DomainError):
            bd.gv_bound(4, bad_d)


def test_plotkin_exact_rational():
    v = bd.plotkin_bound(2, Fraction(1, 4))
    assert encloses(v, Fraction(1, 2)) and encl.width(v) == 0
    v = bd.plotkin_bound(5, Fraction(3, 5))
    assert encloses(v, Fraction(1, 4))
    z = bd.plotkin_bound(5, Fraction(4, 5))
    assert encl.midpoint(z) == 0 and encl.width(z) == 0
    assert encl.midpoint(bd.plotkin_bound(5, Fraction(9, 10))) == 0


def test_bound_order_on_grid():
    for q in (2, 3, 4, 9, 16, 64):
        for i in range(1, 20):
            delta = Fraction(i, 20)
            gv = bd.gv_bound(q, delta)
            pk = bd.plotkin_bound(q, delta)
            assert encl.le_status(gv, pk) == encl.PASS, (q, delta)
            # the first-order form 1 - delta - h(delta)/log q lies below gv
            with mp.workdps(60):
                d = mp.mpf(i) / 20
                h = -d * mp.log(d) - (1 - d) * mp.log(1 - d)
                assert gv.ends[0] > exact(1 - d - h / mp.log(q)), (q, delta)


# ------------------------------------------------------- conditions, nfc


def witness_1e6():
    return bd.check_conditions(10 ** 6, 340179, 10, 6)


def test_check_conditions_witness_values():
    w = witness_1e6()
    assert (w.q, w.r, w.ell, w.k, w.p_ell) == (10 ** 6, 340179, 10, 6, 29)
    assert w.Nq == 32
    # independent count: p = 3 mod 4, p > 29, 340179 <= p^2 <= 10^6
    lo, hi = 584, 1000  # isqrt(340178)+1 and isqrt(10^6)
    from conftest import trial_division_is_prime
    want = sum(1 for p in range(lo, hi + 1)
               if p % 4 == 3 and trial_division_is_prime(p))
    assert w.Nq == want
    # D = 4 * 2 * 3 * ... * 29
    prim = 4
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        prim *= p
    assert_encloses(w.D_log, mp_value(lambda: mp.log(prim)))


def test_check_conditions_failure_naming():
    with pytest.raises(ConditionFailure) as ei:
        bd.check_conditions(10 ** 6, 1, 10, 6)
    assert "condition1_r_in_range" in str(ei.value)
    with pytest.raises(ConditionFailure) as ei:
        bd.check_conditions(10 ** 6, 340179, 10, 7)
    msg = str(ei.value)
    assert "condition2_k_within_quadratic" in msg
    assert "condition1" not in msg
    with pytest.raises(ConditionFailure) as ei:
        bd.check_conditions(10 ** 6, 340179, 20, 30)  # 2k = 60 > Nq = 32
    msg = str(ei.value)
    assert "condition3_enough_inert_primes" in msg
    assert "condition2" not in msg
    with pytest.raises(DomainError):
        bd.check_conditions(10 ** 6, 340179, 0, 6)


def test_nfc_bound_value_and_guards():
    w = witness_1e6()
    v = bd.nfc_bound(10 ** 6, Fraction(1, 2), w)

    def oracle():
        prim = 4
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
            prim *= p
        return (mp.mpf(1) / 2 * mp.log(340179) - mp.log(prim) / 12) / mp.log(10 ** 6)

    assert_encloses(v, mp_value(oracle))
    with pytest.raises(DomainError):
        bd.nfc_bound(10 ** 6 + 1, Fraction(1, 2), w)
    with pytest.raises(DomainError):
        bd.nfc_bound(10 ** 6, Fraction(3, 2), w)


def test_nfc_monotone_in_r():
    w_small = bd.check_conditions(10 ** 6, 300000, 10, 6)
    w_big = witness_1e6()
    lo = bd.nfc_bound(10 ** 6, Fraction(1, 2), w_small)
    hi = bd.nfc_bound(10 ** 6, Fraction(1, 2), w_big)
    assert encl.lt_status(lo, hi) == encl.PASS


# ------------------------------------------------------------- schedules


def test_eligible_q_floor():
    got = bd.eligible_q_floor()
    assert got == Q_FLOOR
    with mp.workdps(40):
        e29 = mp.exp(29)
        assert int(mp.floor(e29)) + 1 == got
    assert 125 ** 6 < got <= 126 ** 6  # so ell = 125 right at the floor


def test_theorem2_schedule_frozen():
    s = bd.theorem2_schedule(Q42)
    assert (s.r, s.ell, s.k) == (2003452383709, 128, 3841)
    s0 = bd.theorem2_schedule(Q_FLOOR)
    assert (s0.r, s0.ell, s0.k) == (1788629061766, 125, 3657)
    s6 = bd.theorem2_schedule(10 ** 6)
    assert (s6.r, s6.ell, s6.k) == (340179, 10, 6)
    with pytest.raises(DomainError):
        bd.theorem2_schedule(2)


def test_theorem2_schedule_exact_rounding():
    for q in (10 ** 6, Q42, Q_FLOOR, 10 ** 9 + 7):
        s = bd.theorem2_schedule(q)
        t = (1 - s.eps) ** 2 * q
        assert encl.le_status(t, s.r) == encl.PASS
        assert encl.gt_status(t, s.r - 1) == encl.PASS
        assert s.ell ** 6 <= q < (s.ell + 1) ** 6
        assert s.k == ((s.ell - 2) ** 2 - 4 * (s.ell - 2)) // 4 - 2


def test_theorem2_schedule_past_double_precision():
    # r = ceil((1 - eps)^2 q) has 53 bits here; a 53-bit endpoint rounding
    # once gave ...076
    q = 10 ** 16
    with mp.workdps(80):
        eps = 1 / mp.cbrt(mp.log(q))
        want = int(mp.ceil((1 - eps) ** 2 * q))
    assert bd.theorem2_schedule(q).r == want == 4892580115977077


def test_endpoint_comparisons_keep_full_precision():
    tiny = Fraction(1, 2 ** 100)
    assert encl.le_status(1 + tiny, 1) == encl.FAIL
    assert encl.lt_status(1, 1 + tiny) == encl.PASS
    assert encl.resolve_ceil(lambda: encl.enc(2 ** 60 + Fraction(1, 3))) == (
        2 ** 60 + 1)
    assert encl.enc(2 ** 70 + 1).ends == (2 ** 70 + 1, 2 ** 70 + 1)


def test_import_leaves_mpmath_precision_alone():
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = ("import mpmath, gvforge; from gvforge import bounds; "
              "bounds.certify(2 ** 42); print(mpmath.iv.prec, mpmath.mp.prec)")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert run.stdout.split() == ["53", "53"]


AMBIENT = """
import json, sys
from fractions import Fraction
import mpmath
if sys.argv[1] == "50":
    mpmath.mp.dps = 50
from gvforge import bounds
from gvforge.sweep import bound_points
cert = bounds.certify(10 ** 16)
sweep = bound_points(2 ** 30, [Fraction(i, 20) for i in range(1, 20)])
print(json.dumps([[list(c.as_dict().values()) for c in cert.checks],
                  repr(cert.witness), [repr(p.witness) for p in sweep]]))
"""


def test_results_do_not_depend_on_the_ambient_mpmath_precision():
    """In fresh interpreters, setting mpmath.mp.dps = 50 before certify and
    a bounds sweep changes no printed check and no chosen witness: the
    library's digits come from its own precision alone."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = [json.loads(subprocess.run(
        [sys.executable, "-c", AMBIENT, dps], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=src)).stdout)
        for dps in ("default", "50")]
    assert out[0] == out[1]
    lhs = {c[0]: c[1] for c in out[0][0]}
    assert lhs["nfc_rate_beats_gv_at_half"] == "0.481185625271001176656312"


def test_theorem1_schedule():
    s = bd.theorem1_schedule(Q42, Fraction(5, 2))
    assert s.r == 2114029880298
    assert s.ell == 128 and s.k == 3841
    assert bd.theorem1_schedule(Q42, 2.5).r == s.r  # float C0 taken exactly
    with pytest.raises(DomainError):
        bd.theorem1_schedule(Q42, 0)
    with pytest.raises(DomainError):
        bd.theorem1_schedule(Q42, Fraction(1, 10))  # eps >= 1


# ----------------------------------------------------------- certificates


CHECK_NAMES = [
    "eligible_q_at_least_ceil_exp29",
    "condition1_r_in_range",
    "condition2_k_within_quadratic",
    "condition3_enough_inert_primes",
    "chain_sqrt_r_above_const_sqrt_q",
    "chain_const_sqrt_q_above_24_ell_log_ell",
    "chain_24_ell_log_ell_at_least_p_ell",
    "primorial_log_over_2k_bounded",
    "theta_p_ell_below_rosser_bound",
    "p_ell_over_log_p_ell_below_ell",
    "final_inequality_at_ell",
    "nfc_rate_beats_gv_at_half",
]


def test_certify_passes_at_2_pow_42():
    cert = bd.certify(Q42)
    assert cert.overall == encl.PASS
    assert [c.name for c in cert.checks] == CHECK_NAMES
    assert all(c.status == encl.PASS for c in cert.checks)
    w = cert.witness
    assert (w.r, w.ell, w.k, w.Nq) == (2003452383709, 128, 3841, 23690)
    d = cert.as_dict()
    assert d["witness"] == {"r": 2003452383709, "ell": 128, "k": 3841, "Nq": 23690}
    assert set(d["checks"][0]) == {"name", "lhs", "rhs", "margin", "width", "status"}
    assert d["overall"] == "pass"


def test_inert_count_sieves_only_the_window(monkeypatch):
    """The Nq window [sqrt(r), sqrt(q)] is counted on its own, with base
    primes up to q^(1/4), so no sieve nears the 10^7 = sqrt(10^14) that a
    table of every prime up to sqrt(q) would need; a sweep counts every
    candidate's window in one call."""
    sieved, calls = [], []
    sieve, counts = nt.sieve_primes, nt.inert_counts
    monkeypatch.setattr(nt, "sieve_primes",
                        lambda limit: sieved.append(limit) or sieve(limit))
    monkeypatch.setattr(nt, "inert_counts",
                        lambda q, lows: calls.append(lows) or counts(q, lows))
    w = bd.certify(10 ** 14).witness
    assert (w.r, w.ell, w.k, w.Nq) == (47030915873199, 215, 11127, 98546)
    assert w.Nq == inert_count_oracle(10 ** 14, w.r, w.p_ell)
    assert sieved and max(sieved) < 10 ** 5
    calls.clear()
    sieved.clear()
    sw.bound_points(Q42, [Fraction(1, 2)], budget=6)
    assert len(calls) == 1 and len(calls[0]) > 1
    assert len(sieved) == 1 and max(sieved) < 10 ** 5  # one prime list


def test_certify_fails_small_q_with_named_checks():
    cert = bd.certify(10 ** 6)
    assert cert.overall == encl.FAIL
    failing = {c.name for c in cert.checks if c.status == encl.FAIL}
    assert failing == {
        "eligible_q_at_least_ceil_exp29",
        "chain_sqrt_r_above_const_sqrt_q",
        "primorial_log_over_2k_bounded",
        "final_inequality_at_ell",
        "nfc_rate_beats_gv_at_half",
    }
    # the witness itself exists at 10^6; only the chain fails
    assert cert.witness is not None


def test_certify_tiny_q_skips_witness_checks():
    cert = bd.certify(4)
    assert cert.overall == encl.FAIL
    by_name = {c.name: c for c in cert.checks}
    assert by_name["condition1_r_in_range"].status == encl.FAIL
    assert by_name["primorial_log_over_2k_bounded"].width == "no witness"
    assert by_name["final_inequality_at_ell"].width == "ell < 3"
    assert cert.witness is None


def test_certify_theorem1():
    cert = bd.certify(Q42, schedule="theorem1", C0=Fraction(5, 2))
    assert cert.overall == encl.PASS
    assert cert.checks[0].name == "eligible_eps_in_unit_interval"
    assert cert.witness.r == 2114029880298
    bad = bd.certify(Q42, schedule="theorem1", C0=100)
    assert bad.overall == encl.FAIL
    assert bad.witness is None
    with pytest.raises(DomainError):
        bd.certify(Q42, schedule="theorem1")  # C0 missing
    with pytest.raises(DomainError):
        bd.certify(Q42, schedule="theorem1", C0=Fraction(1, 10))
    with pytest.raises(DomainError):
        bd.certify(Q42, schedule="nope")


def test_certify_deterministic():
    a = bd.certify(Q42).as_dict()
    b = bd.certify(Q42).as_dict()
    assert a == b


# ------------------------------------------------------- final inequality


def final_margin_status(ell: int) -> str:
    lhs, rhs = ct._final_inequality_sides(ell)
    return encl.gt_status(rhs - lhs, 0)


def test_final_inequality_signs():
    assert final_margin_status(74) == encl.PASS
    assert final_margin_status(73) == encl.FAIL
    assert final_margin_status(125) == encl.PASS
    with pytest.raises(DomainError):
        ct._final_inequality_sides(2)


def test_final_inequality_float_oracle():
    import math
    for ell in range(3, 301):
        le = math.log(ell)
        lhs = ell * (3.7 + le + math.log(le))
        rhs = -1.39 + 0.58 * ((ell - 2) ** 2 / 4 - (ell - 2) - 3)
        m = rhs - lhs
        assert abs(m) > 1e-6  # signs are decisive at this scale
        want = encl.PASS if m > 0 else encl.FAIL
        assert final_margin_status(ell) == want, ell


# ----------------------------------------------------------------- search


def test_search_params_frozen_1e8():
    out = bd.search_params(10 ** 8, Fraction(1, 2))
    w = out.witness
    assert (w.r, w.ell, w.k, w.Nq) == (56250000, 21, 69, 138)
    assert w.r == -(-(3 ** 2 * 10 ** 8) // 16)  # ceil((3/4)^2 q)
    assert out.beats_gv is False
    assert encl.lt_status(out.nfc, out.gv) == encl.PASS


def test_search_params_beats_schedule_at_2_pow_42():
    out = bd.search_params(Q42, Fraction(1, 2))
    assert out.witness is not None
    assert out.beats_gv is True
    sched_w = bd.certify(Q42).witness
    sched_nfc = bd.nfc_bound(Q42, Fraction(1, 2), sched_w)
    assert encl.midpoint(out.nfc) >= encl.midpoint(sched_nfc)
    # The schedule's r is one of the search's r candidates, so the winner
    # ranks at least as high as the schedule's witness. At budget 1 the
    # only other r is ceil(q/4), so this fails if the schedule's r is lost.
    for q in (bd.eligible_q_floor(), Q42):
        s = bd.theorem2_schedule(q)
        w = bd.check_conditions(q, s.r, s.ell, s.k)
        for delta in (Fraction(1, 2), Fraction(1, 10)):
            out = bd.search_params(q, delta, budget=1)
            won = (encl.midpoint(out.nfc), -out.witness.ell, -out.witness.r)
            sched = (encl.midpoint(bd.nfc_bound(q, delta, w)), -s.ell, -s.r)
            assert won >= sched, (q, delta)


def test_search_params_no_witness_small_q():
    out = bd.search_params(100, Fraction(1, 2))
    assert out.witness is None and out.nfc is None
    assert out.beats_gv is None
    assert out.note == "no certified witness in budget"
    with pytest.raises(DomainError):
        bd.search_params(100, Fraction(1, 2), budget=0)
    with pytest.raises(DomainError):
        bd.search_params(100, 1)


def test_bound_points():
    pt, = sw.bound_points(64, [Fraction(1, 2)])
    assert pt.nfc is None and pt.witness is None
    assert encl.midpoint(pt.gv) > 0
    assert encloses(pt.plotkin, 1 - Fraction(1, 2) * Fraction(64, 63))
    pt, = sw.bound_points(10 ** 8, [Fraction(1, 2)])
    assert pt.witness is not None
    assert encl.le_status(pt.nfc, pt.plotkin) == encl.PASS
    assert sw.bound_points(10 ** 8, []) == []
    with pytest.raises(DomainError):
        sw.bound_points(10 ** 8, [Fraction(1, 2), 1])
    with pytest.raises(DomainError):
        sw.bound_points(10 ** 8, [Fraction(1, 2)], budget=0)


def reference_witnesses(q, budget):
    """Oracle for the candidate list of bound_points: every (r, ell) pair
    re-enumerated, its inert window counted by the independent numpy sieve
    of conftest, its witness certified by check_conditions, whose own count
    must agree. The list does not depend on delta."""
    rs = [-(-((2 ** i - 1) ** 2 * q) // 4 ** i) for i in range(1, budget + 1)]
    if q >= bd.eligible_q_floor():
        rs.append(bd.theorem2_schedule(q).r)
    out = []
    primes = first_primes_oracle(2 * nt.int_nth_root(q, 6) + 2)
    for r in sorted(set(r for r in rs if 2 <= r <= q)):
        for ell in range(3, len(primes) + 1):
            p_ell = primes[ell - 1]
            Nq = inert_count_oracle(q, r, p_ell)
            k = min(((ell - 2) ** 2 - 4 * (ell - 2)) // 4 - 2, Nq // 2)
            if k < 1:
                continue
            try:
                w = bd.check_conditions(q, r, ell, k)
            except ConditionFailure:
                continue
            assert w.Nq == Nq, (q, r, ell)
            out.append(w)
    return out


def reference_bound_point(witnesses, q, delta):
    """Oracle for one bound_points row: each witness ranked by the sum of
    the exact ends of its own nfc_bound call, twice its centre. Returns
    (witness, gv, plotkin, nfc)."""
    best = None
    for w in witnesses:
        val = bd.nfc_bound(q, delta, w)
        key = (sum(val.ends), -w.ell, -w.r)
        if best is None or key > best[0]:
            best = (key, w, val)
    w, val = (None, None) if best is None else best[1:]
    return w, bd.gv_bound(q, delta), bd.plotkin_bound(q, delta), val


@pytest.mark.parametrize("q", [9, 100, 1000, 4099, 10 ** 5, 2 ** 30])
def test_candidates_count_each_window_in_the_union(q):
    """Each (r, ell) count read off the one union sieve equals the count of
    its own window. At q = 1000, p_8 = 19 lies inside the union window
    [16, 31], so the count must start after p_ell, not at it."""
    got = [w for w, _, _ in sw._candidates(q, 6)]
    assert got == reference_witnesses(q, 6)
    assert bool(got) == (q > 100)


@pytest.mark.parametrize("q", [2 ** 30, Q42, 10 ** 16])
def test_primorials_match_the_trial_division_oracle(q):
    """Every witness of the search and of certify has the p_ell and log D
    of D = 4 p_1 ... p_ell for the first ell primes by trial division: log D
    encloses its 60-digit mpmath log. certify's log D has the same endpoints
    as the search's at the same ell."""
    searched = {}
    for w, _, dlog_2k in sw._candidates(q, 6):
        assert dlog_2k.ends == (w.D_log / (2 * w.k)).ends
        searched.setdefault(w.ell, []).append(w)
    cert = bd.certify(q).witness
    assert searched[cert.ell][0].D_log.ends == cert.D_log.ends
    primes = first_primes_oracle(max(searched))
    D = 4
    for ell, p in enumerate(primes, 1):
        D *= p
        with mp.workdps(60):
            log_D = exact(mp.log(D))
        for w in searched.get(ell, []) + [cert] * (cert.ell == ell):
            assert w.p_ell == p
            assert encloses(w.D_log, log_D), ell
            assert encl.width(w.D_log) < exact(mpmath.mpf("1e-25"))


def test_certify_lists_the_first_primes_once(monkeypatch):
    """p_ell, the inert window, log D and theta(p_ell) of one certificate
    come from one list of the first ell primes: one sieve per certificate.
    theta(p_ell) has the endpoints of chebyshev_theta sieving on its own."""
    calls, sieves = [], []
    first, sieve = nt.first_primes, nt.sieve_primes
    monkeypatch.setattr(nt, "first_primes",
                        lambda n: calls.append(n) or first(n))
    monkeypatch.setattr(nt, "sieve_primes",
                        lambda n: sieves.append(n) or sieve(n))
    for q in (Q42, Q_FLOOR, 10 ** 16):
        calls.clear()
        sieves.clear()
        cert = bd.certify(q)
        assert cert.overall == "pass"
        assert calls == [cert.witness.ell]
        assert len(sieves) == 1
        p_ell = cert.witness.p_ell
        assert (nt.chebyshev_theta(p_ell, first_primes_oracle(cert.witness.ell)).ends
                == nt.chebyshev_theta(p_ell).ends)


ORDER = """
import sys
from fractions import Fraction
from gvforge import bounds
from gvforge.sweep import bound_points
def certificate():
    return repr(bounds.certify(10 ** 16).as_dict())
def sweep():
    return repr([(p.witness, p.nfc, p.gv, p.plotkin) for p in bound_points(
        2 ** 30, [Fraction(i, 10) for i in range(1, 10)])])
runs = [certificate, sweep]
if sys.argv[1] == "sweep first":
    runs.reverse()
print(sorted(f() for f in runs))
"""


def test_results_do_not_depend_on_which_runs_first():
    """certify and a bounds sweep give the same results in either order in
    a fresh interpreter: nothing one leaves behind changes the other."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = [subprocess.run([sys.executable, "-c", ORDER, order],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src)).stdout
           for order in ("certify first", "sweep first")]
    assert out[0] == out[1] and "10000000000000000" in out[0]


# at the two largest q, budget 1 leaves two r (ceil(q/4) and the
# schedule's), so the reference lists their witnesses in about 1.5 s each
@pytest.mark.parametrize("q,budget", [(64, 6), (10 ** 6, 6), (2 ** 30, 6),
                                      (Q_FLOOR, 1), (Q42, 1)])
def test_bound_points_match_the_per_delta_search(q, budget):
    # delta = 1 - 1/q is past the point where gv is exactly 0
    deltas = [Fraction(i, 20) for i in range(1, 20)] + [Fraction(q - 1, q)]
    got = sw.bound_points(q, deltas, budget=budget)
    assert [pt.delta for pt in got] == deltas
    assert got[-1].gv.ends == encl.iv.mpf(0).ends
    witnesses = reference_witnesses(q, budget)
    for pt, delta in zip(got, deltas):
        want = reference_bound_point(witnesses, q, delta)
        assert pt.witness == want[0], delta
        # identical enclosures, compared by their repr and exact endpoints
        for x, y in zip((pt.gv, pt.plotkin, pt.nfc), want[1:]):
            assert repr(x) == repr(y), delta
            assert getattr(x, "ends", None) == getattr(y, "ends", None)
    assert (got[0].witness is None) == (q == 64)


# ------------------------------------------------- exact nfc > gv oracle


def nfc_beats_gv_exactly(q: int, delta: Fraction, w) -> bool:
    """nfc(q, delta, w) > gv(q, delta) decided in integers, for delta = a/b
    < 1 - 1/q, with D = 4 p_1 ... p_ell from trial division.

    Times log q and 2kb, nfc > gv reads 2k(b-a) log r + 2ka log(q-1) +
    2kb log b > b log D + 2kb log q + 2ka log a + 2k(b-a) log(b-a), the
    entropy term expanded; both sides exponentiate to integers."""
    a, b = delta.numerator, delta.denominator
    assert delta < Fraction(q - 1, q)
    D = 4
    for p in first_primes_oracle(w.ell):
        D *= p
    k = w.k
    lhs = w.r ** (2 * k * (b - a)) * (q - 1) ** (2 * k * a) * b ** (2 * k * b)
    rhs = (D ** b * q ** (2 * k * b) * a ** (2 * k * a)
           * (b - a) ** (2 * k * (b - a)))
    return lhs > rhs


def test_sweep_nfc_against_gv_matches_the_exact_oracle():
    """Every sweep row with a witness decides nfc > gv as the integer
    oracle does, and both verdicts occur."""
    verdicts = []
    for q in (10 ** 6, 2 ** 30, 10 ** 9, 10 ** 12):
        for pt in sw.bound_points(q, [Fraction(i, 10) for i in range(1, 10)]):
            if pt.witness is None:
                continue
            want = nfc_beats_gv_exactly(q, pt.delta, pt.witness)
            assert encl.gt_status(pt.nfc, pt.gv) == (
                encl.PASS if want else encl.FAIL), (q, pt.delta)
            verdicts.append(want)
    assert len(verdicts) == 36 and set(verdicts) == {True, False}


@pytest.mark.parametrize("q", [Q_FLOOR, Q42])
def test_certify_nfc_against_gv_matches_the_exact_oracle(q):
    cert = bd.certify(q)
    row, = (c for c in cert.checks if c.name == "nfc_rate_beats_gv_at_half")
    want = nfc_beats_gv_exactly(q, Fraction(1, 2), cert.witness)
    assert row.status == (encl.PASS if want else encl.FAIL)
