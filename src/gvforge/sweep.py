"""The sweep of the `bounds` command: the witnesses of `bounds` listed once
per q, then ranked at each delta. Only that command and
`bounds.search_params` import it, so `certify` compiles none of it.
"""

import math
from typing import NamedTuple, Optional

from . import enclosure as enc
from . import numtheory as nt
from .bounds import (ParamWitness, _check_q, _delta, _largest_k, _nfc,
                     _primorial_logs, _window_low, eligible_q_floor, gv_bound,
                     plotkin_bound, theorem2_schedule)
from .enclosure import iv
from .errors import DomainError


class BoundPoint(NamedTuple):
    q: int
    delta: object
    gv: object
    plotkin: object
    nfc: Optional[object]
    witness: Optional[ParamWitness]


def _candidates(q: int, budget: int) -> list:
    """Every certified witness the search weighs at q, with the parts of its
    rate bound that do not depend on delta: (witness, log r, log(D)/(2k)).

    Candidate r values come from eps = 2^-i (i <= budget) plus the main
    schedule when eligible; ell ranges over [3, 2 floor(q^(1/6)) + 2]; k is
    the largest value allowed by the quadratic condition and the available
    prime count, so every pair with k >= 1 meets the three conditions and
    becomes a witness directly. One list of the first primes gives each
    p_ell, and `_primorial_logs`, the builder `_evaluate_conditions` also
    uses, encloses every log D in one pass over it.
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
    D_log = _primorial_logs(primes, [ell for ell in range(1, len(primes) + 1)
                                     if _largest_k(ell) >= 1])
    pairs = [(r, ell) for r in r_candidates for ell in D_log]
    # one pass over the union of the windows counts every pair's window
    counts = nt.inert_counts(q, [_window_low(r, primes[ell - 1])
                                 for r, ell in pairs])
    out = []
    log_r = {r: iv.log(iv.mpf(r)) for r in r_candidates}
    for (r, ell), Nq in zip(pairs, counts):
        # r lies in [2, q] and 1 <= k <= Nq // 2: the three conditions hold
        k = min(_largest_k(ell), Nq // 2)
        if k >= 1:
            w = ParamWitness(q=q, r=r, ell=ell, k=k, p_ell=primes[ell - 1],
                             Nq=Nq, D_log=D_log[ell])
            out.append((w, log_r[r], w.D_log / (2 * k)))
    return out


def bound_points(q: int, deltas, budget: int = 6) -> list:
    """Sweep rows at q, one BoundPoint per delta: gv and plotkin always, nfc
    when a witness certifies.

    The candidates are listed once, since a witness does not depend on
    delta, and ranked at each delta: the largest exact midpoint
    (lo + hi) / 2 of the nfc enclosure wins, ties to smaller (ell, r).
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
