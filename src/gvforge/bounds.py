"""Rate bounds and certified parameter schedules.

Lower bounds (Gilbert–Varshamov style and the number-field construction) and
the Plotkin upper bound are returned as interval enclosures; parameter
witnesses (r, ell, k) are validated by exact integer conditions backed by the
sieve, and a certificate object records every inequality in the q-range
argument with its enclosure margin and a three-way status.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import enclosure as enc
from . import numtheory as nt
from .enclosure import iv
from .errors import ConditionFailure, DomainError

# rational constants used by the certified inequality chain
C_SQRT_FACTOR = Fraction(6745, 10 ** 4)      # (1 - eps) stays above this
C_LOGD_BOUND = Fraction(2901, 10 ** 4)       # log(D)/(2k) stays below this
C_FINAL_A = Fraction(37, 10)                 # ell * (C_FINAL_A + log ell + log log ell)
C_FINAL_B = Fraction(-139, 100)              # ... <= C_FINAL_B + C_FINAL_C * (k-ish)
C_FINAL_C = Fraction(58, 100)


def eligible_q_floor() -> int:
    """Smallest q admitted by the main schedule: ceil(exp(29))."""
    return enc.resolve_int(lambda: iv.exp(iv.mpf(29)), enc.ceil_exact)


@dataclass(frozen=True)
class ParamWitness:
    """(r, ell, k) passing the three construction conditions at q.

    Nq counts primes p = 3 (mod 4) with p > p_ell and r <= p^2 <= q (exact);
    D_log encloses log(4 * p_1 * ... * p_ell).
    """

    q: int
    r: int
    ell: int
    k: int
    p_ell: int
    Nq: int
    D_log: object


@dataclass(frozen=True)
class Schedule:
    name: str
    q: int
    eps: object  # HighReal
    r: int
    ell: int
    k: int


@dataclass(frozen=True)
class CertCheck:
    name: str
    lhs: str
    rhs: str
    margin: str
    width: str
    status: str

    def as_dict(self):
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "margin": self.margin, "width": self.width, "status": self.status}


@dataclass(frozen=True)
class Certificate:
    q: int
    schedule: str
    witness: Optional[ParamWitness]
    checks: tuple
    overall: str

    def as_dict(self):
        w = None
        if self.witness is not None:
            w = {"r": self.witness.r, "ell": self.witness.ell,
                 "k": self.witness.k, "Nq": self.witness.Nq}
        return {"q": self.q, "schedule": self.schedule, "witness": w,
                "checks": [c.as_dict() for c in self.checks],
                "overall": self.overall}


@dataclass(frozen=True)
class BoundPoint:
    q: int
    delta: object
    gv: object
    plotkin: object
    nfc: Optional[object]
    witness: Optional[ParamWitness]


@dataclass(frozen=True)
class SearchOutcome:
    q: int
    delta: object
    witness: Optional[ParamWitness]
    nfc: Optional[object]
    gv: object
    beats_gv: Optional[bool]
    note: str


def _delta(delta) -> Fraction:
    """delta as an exact Fraction, checked to lie in (0, 1)."""
    if not isinstance(delta, (int, float, Fraction)):
        raise DomainError("delta must be int, float, or Fraction, got %r" % (delta,))
    dfrac = Fraction(delta)
    if not 0 < dfrac < 1:
        raise DomainError("delta must lie in (0, 1), got %r" % (delta,))
    return dfrac


def _check_q(q: int) -> int:
    if not isinstance(q, int) or q < 2:
        raise DomainError("q must be an integer >= 2, got %r" % (q,))
    return q


def gv_bound(q: int, delta) -> enc.HighReal:
    """Gilbert–Varshamov rate lower bound at relative distance delta.

    Exactly zero (a zero-width enclosure) once delta >= 1 - 1/q.
    """
    _check_q(q)
    dfrac = _delta(delta)
    if dfrac >= Fraction(q - 1, q):
        return iv.mpf(0)
    d = enc.enc(dfrac)
    logq = iv.log(iv.mpf(q))
    entropy = -d * iv.log(d) - (1 - d) * iv.log(1 - d)
    return 1 - (d * iv.log(iv.mpf(q - 1)) + entropy) / logq


def plotkin_bound(q: int, delta) -> enc.HighReal:
    """Plotkin rate upper bound; affine piece evaluated in exact rationals."""
    _check_q(q)
    dfrac = _delta(delta)
    val = 1 - dfrac * Fraction(q, q - 1)
    if val <= 0:
        return iv.mpf(0)
    return enc.enc(val)


def nfc_bound(q: int, delta, witness: ParamWitness) -> enc.HighReal:
    """Rate lower bound from the number-field construction at the witness.

    (1 - delta) * log(r)/log(q) - log(D) / (2k log q) with D the primorial
    4 p_1 ... p_ell of the witness.
    """
    _check_q(q)
    if witness.q != q:
        raise DomainError("witness was certified at q=%d, not q=%d" % (witness.q, q))
    dfrac = _delta(delta)
    return _nfc(1 - enc.enc(dfrac), iv.log(iv.mpf(witness.r)),
                witness.D_log / (2 * witness.k), iv.log(iv.mpf(q)))


def _nfc(one_minus_d, log_r, dlog_2k, log_q) -> enc.HighReal:
    """((1 - delta) log r - log(D)/(2k)) / log q: the one formula behind
    nfc_bound and the search's ranking, which precomputes every part but
    1 - delta once per q."""
    return (one_minus_d * log_r - dlog_2k) / log_q


def _window_low(r: int, p_ell: int) -> int:
    """The least p with p > p_ell and p^2 >= r (r >= 1): Nq counts the
    primes p = 3 (mod 4) from here up to isqrt(q)."""
    return max(p_ell + 1, math.isqrt(r - 1) + 1)


def _evaluate_conditions(q: int, r: int, ell: int, k: int, counted=None):
    """Exact evaluation of the three construction conditions.

    counted is (p_ell, Nq, log D) when the caller has already counted the
    inert window and enclosed log D; otherwise the primorial is built only
    for a witness. Returns (rows, witness_or_None); each row is
    (name, lhs_int, rhs_int, ok).
    """
    _check_q(q)
    if ell < 1:
        raise DomainError("ell must be >= 1")
    rows = []
    ok1 = 2 <= r <= q
    rows.append(("condition1_r_in_range", r, q, ok1))
    lhs2 = 4 * (k + 2)
    rhs2 = (ell - 2) ** 2 - 4 * (ell - 2)
    ok2 = 1 <= k <= _largest_k(ell)
    rows.append(("condition2_k_within_quadratic", lhs2, rhs2, ok2))
    if counted is None:
        p_ell = nt.nth_prime(ell)
        Nq = nt.inert_counts(q, [_window_low(r, p_ell)])[0] if r >= 2 else 0
    else:
        p_ell, Nq, D_log = counted
    ok3 = k >= 1 and Nq >= 2 * k
    rows.append(("condition3_enough_inert_primes", 2 * k, Nq, ok3))
    witness = None
    if ok1 and ok2 and ok3:
        if counted is None:
            D_log = nt.primorial_D(ell)[1]
        witness = ParamWitness(q=q, r=r, ell=ell, k=k, p_ell=p_ell, Nq=Nq,
                               D_log=D_log)
    return rows, witness


def check_conditions(q: int, r: int, ell: int, k: int) -> ParamWitness:
    """Validate (r, ell, k) at q; raises ConditionFailure naming what failed."""
    rows, witness = _evaluate_conditions(q, r, ell, k)
    if witness is None:
        raise ConditionFailure(
            ["%s: %d vs %d" % (name, lhs, rhs)
             for (name, lhs, rhs, ok) in rows if not ok])
    return witness


def _largest_k(ell: int) -> int:
    """Condition 2: the largest k with 4 (k + 2) <= (ell-2)^2 - 4 (ell-2)."""
    return ((ell - 2) ** 2 - 4 * (ell - 2)) // 4 - 2


def _schedule(name: str, q: int, eps_fn) -> Schedule:
    """The tail both schedules share: r = ceil((1-eps)^2 q), ell =
    floor(q^(1/6)), k = floor((ell-2)^2/4 - (ell-2)) - 2.

    eps_fn rebuilds eps from exact inputs, so resolve_int can raise the
    precision until the ceiling is unambiguous.
    """
    r = enc.resolve_int(lambda: (1 - eps_fn()) ** 2 * q, enc.ceil_exact)
    ell = nt.int_nth_root(q, 6)
    return Schedule(name=name, q=q, eps=eps_fn(), r=r, ell=ell, k=_largest_k(ell))


def theorem2_schedule(q: int) -> Schedule:
    """Main parameter schedule: eps = (log q)^(-1/3), r = ceil((1-eps)^2 q),
    ell = floor(q^(1/6)), k = floor((ell-2)^2/4 - (ell-2)) - 2.

    Defined for q >= 3; certify admits it only from ceil(exp(29)) upward.
    """
    _check_q(q)
    if q < 3:
        raise DomainError("the schedule needs q >= 3 (log q > 1)")

    def _eps():
        return 1 / enc.root(iv.log(iv.mpf(q)), 3)

    return _schedule("theorem2", q, _eps)


def theorem1_schedule(q: int, C0) -> Schedule:
    """Alternate schedule eps = (log q)(log log q)/(C0 q^(1/6)); C0 is input.

    The leading constant is configuration, not a guess; the resulting eps
    must lie in (0, 1).
    """
    _check_q(q)
    if q < 3:
        raise DomainError("the schedule needs q >= 3")
    c0 = enc.enc(C0 if not isinstance(C0, float) else Fraction(C0))
    if enc.gt_status(c0, 0) != enc.PASS:
        raise DomainError("C0 must be certifiably positive")

    def _eps():
        logq = iv.log(iv.mpf(q))
        return logq * iv.log(logq) / (c0 * enc.root(iv.mpf(q), 6))

    eps = _eps()
    ok = (enc.gt_status(eps, 0) == enc.PASS and enc.lt_status(eps, 1) == enc.PASS)
    if not ok:
        raise DomainError("eps outside (0, 1) for q=%d, C0=%s" % (q, C0))
    return _schedule("theorem1", q, _eps)


def _mk_check(name: str, lhs, rhs, ok=None) -> CertCheck:
    """Build a check row; if ok is None the status comes from the enclosures."""
    lhs_e, rhs_e = enc.enc(lhs), enc.enc(rhs)
    margin = rhs_e - lhs_e
    if ok is None:
        status = enc.gt_status(margin, 0)
    else:
        status = enc.PASS if ok else enc.FAIL
    return CertCheck(name=name, lhs=enc.fmt(lhs_e), rhs=enc.fmt(rhs_e),
                     margin=enc.fmt(margin), width=enc.fmt_width(margin),
                     status=status)


def _skipped_check(name: str, reason: str) -> CertCheck:
    return CertCheck(name=name, lhs="-", rhs="-", margin="-",
                     width=reason, status=enc.FAIL)


def _tristate(status: str):
    if status == enc.PASS:
        return True
    if status == enc.FAIL:
        return False
    return None


def _final_inequality_sides(ell: int):
    """Enclosed sides of ell(3.7 + log ell + log log ell) <= -1.39 +
    0.58((ell-2)^2/4 - (ell-2) - 3), the last link of the chain; the
    inequality holds when rhs - lhs > 0. Needs ell >= 3."""
    if ell < 3:
        raise DomainError("final inequality needs ell >= 3 (log log ell)")
    le = iv.log(iv.mpf(ell))
    lhs = ell * (enc.enc(C_FINAL_A) + le + iv.log(le))
    quad = enc.enc(Fraction((ell - 2) ** 2, 4) - (ell - 2) - 3)
    rhs = enc.enc(C_FINAL_B) + enc.enc(C_FINAL_C) * quad
    return lhs, rhs


def certify(q: int, schedule: str = "theorem2", C0=None) -> Certificate:
    """Full certificate at q: schedule, witness conditions, and the certified
    inequality chain, each with enclosure margins and three-way statuses.

    Deterministic: same q, schedule, and precision give identical output.
    """
    _check_q(q)
    checks = []
    if schedule == "theorem2":
        sch = theorem2_schedule(q)
        qfloor = eligible_q_floor()
        checks.append(_mk_check("eligible_q_at_least_ceil_exp29", qfloor, q,
                                ok=(q >= qfloor)))
    elif schedule == "theorem1":
        if C0 is None:
            raise DomainError("theorem1 schedule requires C0")
        sch = theorem1_schedule(q, C0)
        checks.append(_mk_check("eligible_eps_in_unit_interval", sch.eps, 1))
    else:
        raise DomainError("unknown schedule %r" % (schedule,))

    rows, witness = _evaluate_conditions(q, sch.r, sch.ell, sch.k)
    for (name, lhs, rhs, ok) in rows:
        checks.append(_mk_check(name, lhs, rhs, ok=ok))

    ell, r, k = sch.ell, sch.r, sch.k
    p_ell = nt.nth_prime(ell)

    # sqrt(r) > 0.6745 sqrt(q), decided exactly on squares
    num, den = C_SQRT_FACTOR.numerator, C_SQRT_FACTOR.denominator
    ok_a1 = r * den * den > num * num * q
    checks.append(_mk_check("chain_sqrt_r_above_const_sqrt_q",
                            enc.enc(C_SQRT_FACTOR) * iv.sqrt(iv.mpf(q)),
                            iv.sqrt(iv.mpf(r)), ok=ok_a1))
    ell_log_term = 24 * ell * iv.log(iv.mpf(ell)) if ell >= 2 else iv.mpf(0)
    checks.append(_mk_check("chain_const_sqrt_q_above_24_ell_log_ell",
                            ell_log_term,
                            enc.enc(C_SQRT_FACTOR) * iv.sqrt(iv.mpf(q))))
    st = enc.ge_status(ell_log_term, p_ell)
    checks.append(_mk_check("chain_24_ell_log_ell_at_least_p_ell",
                            p_ell, ell_log_term, ok=_tristate(st)))

    if witness is not None:
        ratio = witness.D_log / (2 * witness.k)
        bound = enc.enc(C_LOGD_BOUND)
        st = enc.le_status(ratio, bound)
        checks.append(_mk_check("primorial_log_over_2k_bounded",
                                ratio, bound, ok=_tristate(st)))
    else:
        checks.append(_skipped_check("primorial_log_over_2k_bounded",
                                     "no witness"))

    theta = nt.chebyshev_theta(p_ell)
    logp = iv.log(iv.mpf(p_ell))
    checks.append(_mk_check("theta_p_ell_below_rosser_bound",
                            theta, (1 + 3 / logp) * p_ell))
    checks.append(_mk_check("p_ell_over_log_p_ell_below_ell",
                            iv.mpf(p_ell) / logp, iv.mpf(ell)))

    if ell >= 3:
        lhs_f, rhs_f = _final_inequality_sides(ell)
        checks.append(_mk_check("final_inequality_at_ell", lhs_f, rhs_f))
    else:
        checks.append(_skipped_check("final_inequality_at_ell", "ell < 3"))

    if witness is not None:
        half = Fraction(1, 2)
        gv_half = gv_bound(q, half)
        nfc_half = nfc_bound(q, half, witness)
        checks.append(_mk_check("nfc_rate_beats_gv_at_half", gv_half, nfc_half))
    else:
        checks.append(_skipped_check("nfc_rate_beats_gv_at_half", "no witness"))

    statuses = [c.status for c in checks]
    if any(s == enc.FAIL for s in statuses):
        overall = enc.FAIL
    elif any(s == enc.INDETERMINATE for s in statuses):
        overall = enc.INDETERMINATE
    else:
        overall = enc.PASS
    return Certificate(q=q, schedule=sch.name, witness=witness,
                       checks=tuple(checks), overall=overall)


def _candidates(q: int, budget: int) -> list:
    """Every certified witness the search weighs at q, with the parts of its
    rate bound that do not depend on delta: (witness, log r, log(D)/(2k)).

    Candidate r values come from eps = 2^-i (i <= budget) plus the main
    schedule when eligible; ell ranges over [3, 2 floor(q^(1/6)) + 2]; k is
    the largest value allowed by the quadratic condition and the available
    prime count. One sieve lists the first ell primes, and one pass over
    them builds every primorial D and encloses its log.
    """
    nt.check_cap(math.isqrt(q))  # the inert windows reach isqrt(q)
    r_candidates = []
    for i in range(1, budget + 1):
        num = (2 ** i - 1) ** 2 * q
        den = 4 ** i
        r_candidates.append(-(-num // den))  # ceil((1 - 2^-i)^2 q)
        if r_candidates[-1] >= q:
            break  # every larger i gives r = q again
    if q >= eligible_q_floor():
        r_candidates.append(theorem2_schedule(q).r)
    r_candidates = sorted(set(r for r in r_candidates if 2 <= r <= q))

    primes = nt.first_primes(2 * nt.int_nth_root(q, 6) + 2)
    D, D_log = 4, {}  # ell -> log(4 p_1 ... p_ell), for every ell with a k
    for ell, p_ell in enumerate(primes, 1):
        D *= p_ell
        if _largest_k(ell) >= 1:
            D_log[ell] = iv.log(iv.mpf(D))
    pairs = [(r, ell) for r in r_candidates for ell in D_log]
    # one pass over the union of the windows counts every pair's window
    counts = nt.inert_counts(q, [_window_low(r, primes[ell - 1])
                                 for r, ell in pairs])
    out = []
    log_r = {r: iv.log(iv.mpf(r)) for r in r_candidates}
    for (r, ell), Nq in zip(pairs, counts):
        k = min(_largest_k(ell), Nq // 2)
        if k < 1:
            continue
        _, w = _evaluate_conditions(q, r, ell, k,
                                    counted=(primes[ell - 1], Nq, D_log[ell]))
        if w is not None:
            out.append((w, log_r[r], w.D_log / (2 * w.k)))
    return out


def bound_points(q: int, deltas, budget: int = 6) -> list:
    """Sweep rows at q, one BoundPoint per delta: gv and plotkin always, nfc
    when a witness certifies.

    The candidates are listed once, since a witness does not depend on
    delta, and ranked at each delta: the largest nfc enclosure midpoint
    wins, ties to smaller (ell, r).
    """
    _check_q(q)
    dfracs = [_delta(d) for d in deltas]
    if budget < 1:
        raise DomainError("budget must be >= 1")
    candidates = _candidates(q, budget)
    log_q = iv.log(iv.mpf(q))
    points = []
    for dfrac in dfracs:
        one_minus_d = 1 - enc.enc(dfrac)
        best = (None, None, None)  # (key, witness, nfc)
        for w, log_r, dlog_2k in candidates:
            val = _nfc(one_minus_d, log_r, dlog_2k, log_q)
            key = (enc.midpoint(val), -w.ell, -w.r)
            if best[0] is None or key > best[0]:
                best = (key, w, val)
        points.append(BoundPoint(q=q, delta=dfrac, gv=gv_bound(q, dfrac),
                                 plotkin=plotkin_bound(q, dfrac),
                                 nfc=best[2], witness=best[1]))
    return points


def search_params(q: int, delta, budget: int = 6) -> SearchOutcome:
    """Deterministic witness search maximizing the construction rate bound
    at one delta: bound_points at that delta, plus the comparison with gv.
    """
    pt, = bound_points(q, [delta], budget=budget)
    found = pt.witness is not None
    return SearchOutcome(
        q=q, delta=pt.delta, witness=pt.witness, nfc=pt.nfc, gv=pt.gv,
        beats_gv=enc.gt_status(pt.nfc, pt.gv) == enc.PASS if found else None,
        note="" if found else "no certified witness in budget")
