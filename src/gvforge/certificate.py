"""The certificate at q: the schedule, the witness conditions and the
certified inequality chain of the q-range argument, each row with its
enclosure margin and a three-way status.

Only `certify` runs this code; `bounds.certify` imports this module when
it is called, so the `bounds` command and the sweep compile none of it.
The bounds, schedules and conditions come from `bounds` through the module
(`bd.nfc_bound`), so a name patched there is the one called here.
"""

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from . import bounds as bd
from . import enclosure as enc
from . import numtheory as nt
from .enclosure import iv
from .errors import DomainError

# rational constants used by the certified inequality chain
C_SQRT_FACTOR = Fraction(6745, 10 ** 4)      # (1 - eps) stays above this
C_LOGD_BOUND = Fraction(2901, 10 ** 4)       # log(D)/(2k) stays below this
C_FINAL_A = Fraction(37, 10)                 # ell * (C_FINAL_A + log ell + log log ell)
C_FINAL_B = Fraction(-139, 100)              # ... <= C_FINAL_B + C_FINAL_C * (k-ish)
C_FINAL_C = Fraction(58, 100)


class CertCheck(NamedTuple):
    name: str
    lhs: str
    rhs: str
    margin: str
    width: str
    status: str

    def as_dict(self):
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "margin": self.margin, "width": self.width, "status": self.status}


class Certificate(NamedTuple):
    q: int
    schedule: str
    witness: Optional[bd.ParamWitness]
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


def _mk_check(name: str, lhs, rhs, status: str) -> CertCheck:
    """A check row: lhs, rhs, the margin rhs - lhs and its width, printed,
    with the status its caller decided."""
    lhs_e, rhs_e = enc.enc(lhs), enc.enc(rhs)
    margin = rhs_e - lhs_e
    return CertCheck(name=name, lhs=enc.fmt(lhs_e), rhs=enc.fmt(rhs_e),
                     margin=enc.fmt(margin), width=enc.fmt_width(margin),
                     status=status)


def _skipped_check(name: str, reason: str) -> CertCheck:
    return CertCheck(name=name, lhs="-", rhs="-", margin="-",
                     width=reason, status=enc.FAIL)


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
    bd._check_q(q)
    if schedule == "theorem1":
        if C0 is None:
            raise DomainError("theorem1 schedule requires C0")
        bd._positive_c0(C0)  # an argument error exits 1 before the cap
    elif schedule != "theorem2":
        raise DomainError("unknown schedule %r" % (schedule,))
    nt.check_cap(math.isqrt(q))  # the inert window reaches isqrt(q)
    if schedule == "theorem2":
        sch = bd.theorem2_schedule(q)
        qfloor = bd.eligible_q_floor()
        checks = [_mk_check("eligible_q_at_least_ceil_exp29", qfloor, q,
                            enc.PASS if q >= qfloor else enc.FAIL)]
    else:
        sch = bd.theorem1_schedule(q, C0)
        checks = [_mk_check("eligible_eps_in_unit_interval", sch.eps, 1,
                            enc.lt_status(sch.eps, 1))]

    rows, witness, primes = bd._evaluate_conditions(q, sch.r, sch.ell, sch.k)
    p_ell = primes[-1]
    for (name, lhs, rhs, ok) in rows:
        checks.append(_mk_check(name, lhs, rhs, enc.PASS if ok else enc.FAIL))

    ell, r = sch.ell, sch.r

    # sqrt(r) > 0.6745 sqrt(q), decided exactly on squares
    num, den = C_SQRT_FACTOR.numerator, C_SQRT_FACTOR.denominator
    ok_a1 = r * den * den > num * num * q
    const_sqrt_q = enc.enc(C_SQRT_FACTOR) * iv.sqrt(iv.mpf(q))
    checks.append(_mk_check("chain_sqrt_r_above_const_sqrt_q", const_sqrt_q,
                            iv.sqrt(iv.mpf(r)), enc.PASS if ok_a1 else enc.FAIL))
    ell_log_term = 24 * ell * iv.log(iv.mpf(ell)) if ell >= 2 else iv.mpf(0)
    checks.append(_mk_check("chain_const_sqrt_q_above_24_ell_log_ell",
                            ell_log_term, const_sqrt_q,
                            enc.lt_status(ell_log_term, const_sqrt_q)))
    checks.append(_mk_check("chain_24_ell_log_ell_at_least_p_ell",
                            p_ell, ell_log_term,
                            enc.ge_status(ell_log_term, p_ell)))

    if witness is not None:
        ratio = witness.D_log / (2 * witness.k)
        bound = enc.enc(C_LOGD_BOUND)
        checks.append(_mk_check("primorial_log_over_2k_bounded", ratio,
                                bound, enc.le_status(ratio, bound)))
    else:
        checks.append(_skipped_check("primorial_log_over_2k_bounded",
                                     "no witness"))

    theta = nt.chebyshev_theta(p_ell, primes)
    logp = iv.log(iv.mpf(p_ell))
    rosser = (1 + 3 / logp) * p_ell
    checks.append(_mk_check("theta_p_ell_below_rosser_bound", theta, rosser,
                            enc.lt_status(theta, rosser)))
    p_over_log = iv.mpf(p_ell) / logp
    checks.append(_mk_check("p_ell_over_log_p_ell_below_ell", p_over_log,
                            ell, enc.lt_status(p_over_log, ell)))

    if ell >= 3:
        lhs_f, rhs_f = _final_inequality_sides(ell)
        checks.append(_mk_check("final_inequality_at_ell", lhs_f, rhs_f,
                                enc.lt_status(lhs_f, rhs_f)))
    else:
        checks.append(_skipped_check("final_inequality_at_ell", "ell < 3"))

    if witness is not None:
        half = Fraction(1, 2)
        gv_half = bd.gv_bound(q, half)
        nfc_half = bd.nfc_bound(q, half, witness)
        checks.append(_mk_check("nfc_rate_beats_gv_at_half", gv_half,
                                nfc_half, enc.lt_status(gv_half, nfc_half)))
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
