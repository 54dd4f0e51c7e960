"""Rate bounds, witness conditions and parameter schedules.

Lower bounds (Gilbert–Varshamov style and the number-field construction) and
the Plotkin upper bound are returned as interval enclosures; parameter
witnesses (r, ell, k) are validated by exact integer conditions backed by the
sieve. This is the half that `certify` and the sweep share. The certificate,
which records every inequality in the q-range argument with its enclosure
margin and a three-way status, is `certificate`, which `certify` imports
when it runs, so the `bounds` command does not compile it. The sweep over
many witnesses and deltas is `sweep`, which `search_params` imports when
it runs, so `certify` does not compile it.
"""

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from . import enclosure as enc
from . import numtheory as nt
from .enclosure import iv
from .errors import ConditionFailure, DomainError


def eligible_q_floor() -> int:
    """Smallest q admitted by the main schedule: ceil(exp(29))."""
    return enc.resolve_ceil(lambda: iv.exp(iv.mpf(29)))


class ParamWitness(NamedTuple):
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


class Schedule(NamedTuple):
    name: str
    q: int
    eps: object  # HighReal
    r: int
    ell: int
    k: int


class SearchOutcome(NamedTuple):
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
        raise DomainError("delta must lie in (0, 1), got %s" % (delta,))
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


def _primorial_logs(primes, ells) -> dict:
    """ell -> log(4 p_1 ... p_ell), enclosed, for each ell in `ells`: one
    pass over `primes` (the first primes, ascending) builds every D."""
    wanted = set(ells)
    D, out = 4, {}
    for ell, p in enumerate(primes, 1):
        D *= p
        if ell in wanted:
            out[ell] = iv.log(iv.mpf(D))
    return out


def _evaluate_conditions(q: int, r: int, ell: int, k: int):
    """Exact evaluation of the three construction conditions.

    One list of the first ell primes gives p_ell, the inert window and, for
    a witness, log D. Returns (rows, witness_or_None, primes), primes being
    that list; each row is (name, lhs_int, rhs_int, ok).
    """
    _check_q(q)
    if ell < 1:
        raise DomainError("ell must be >= 1")
    primes = nt.first_primes(ell)
    p_ell = primes[-1]
    rows = []
    ok1 = 2 <= r <= q
    rows.append(("condition1_r_in_range", r, q, ok1))
    lhs2 = 4 * (k + 2)
    rhs2 = (ell - 2) ** 2 - 4 * (ell - 2)
    ok2 = 1 <= k <= _largest_k(ell)
    rows.append(("condition2_k_within_quadratic", lhs2, rhs2, ok2))
    Nq = nt.inert_counts(q, [_window_low(r, p_ell)])[0] if r >= 2 else 0
    ok3 = k >= 1 and Nq >= 2 * k
    rows.append(("condition3_enough_inert_primes", 2 * k, Nq, ok3))
    witness = None
    if ok1 and ok2 and ok3:
        witness = ParamWitness(q=q, r=r, ell=ell, k=k, p_ell=p_ell, Nq=Nq,
                               D_log=_primorial_logs(primes, [ell])[ell])
    return rows, witness, primes


def check_conditions(q: int, r: int, ell: int, k: int) -> ParamWitness:
    """Validate (r, ell, k) at q; raises ConditionFailure naming what failed."""
    rows, witness, _ = _evaluate_conditions(q, r, ell, k)
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

    eps_fn rebuilds eps from exact inputs, so resolve_ceil can raise the
    precision until the ceiling is unambiguous.
    """
    r = enc.resolve_ceil(lambda: (1 - eps_fn()) ** 2 * q)
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


def _positive_c0(C0):
    """C0 as an enclosure, refused unless certifiably positive."""
    c0 = enc.enc(C0 if not isinstance(C0, float) else Fraction(C0))
    if enc.gt_status(c0, 0) != enc.PASS:
        raise DomainError("C0 must be certifiably positive")
    return c0


def theorem1_schedule(q: int, C0) -> Schedule:
    """Alternate schedule eps = (log q)(log log q)/(C0 q^(1/6)); C0 is input.

    The leading constant is configuration, not a guess; the resulting eps
    must lie in (0, 1).
    """
    _check_q(q)
    if q < 3:
        raise DomainError("the schedule needs q >= 3")
    c0 = _positive_c0(C0)

    def _eps():
        logq = iv.log(iv.mpf(q))
        return logq * iv.log(logq) / (c0 * enc.root(iv.mpf(q), 6))

    eps = _eps()
    ok = (enc.gt_status(eps, 0) == enc.PASS and enc.lt_status(eps, 1) == enc.PASS)
    if not ok:
        raise DomainError("eps outside (0, 1) for q=%d, C0=%s" % (q, C0))
    return _schedule("theorem1", q, _eps)


def certify(q: int, schedule: str = "theorem2", C0=None):
    """`certificate.certify`: the full certificate at q, its chain compiled
    only when called."""
    from . import certificate
    return certificate.certify(q, schedule, C0)


def search_params(q: int, delta, budget: int = 6) -> SearchOutcome:
    """Deterministic witness search maximizing the construction rate bound
    at one delta: `sweep.bound_points` there, plus the comparison with gv.
    """
    from .sweep import bound_points
    pt, = bound_points(q, [delta], budget=budget)
    found = pt.witness is not None
    return SearchOutcome(
        q=q, delta=pt.delta, witness=pt.witness, nfc=pt.nfc, gv=pt.gv,
        beats_gv=enc.gt_status(pt.nfc, pt.gv) == enc.PASS if found else None,
        note="" if found else "no certified witness in budget")
