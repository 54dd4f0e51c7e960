"""Certified real arithmetic on interval enclosures.

HighReal values are mpmath interval numbers (outward-rounded endpoints) at a
working precision of 120 bits, comfortably past 30 significant digits. They
come from `iv`, a private interval context, so importing the package leaves
the global `mpmath.iv` precision alone; every module imports `iv` from here.
Every comparison that decides a check goes through the three-way helpers
here and returns "pass", "fail", or "indeterminate"; a straddling enclosure
is never silently coerced to a boolean. Width is always available for
reporting.
"""

from fractions import Fraction

import mpmath
from mpmath import libmp
from mpmath.ctx_iv import MPIntervalContext

PREC_BITS = 120
# resolve_int doubles the precision while it stays within this many bits
MAX_PREC_BITS = 640
iv = MPIntervalContext()
iv.prec = PREC_BITS

# The interval number type, used in annotations elsewhere.
HighReal = type(iv.mpf(0))

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"


def enc(x) -> HighReal:
    """Enclose x. Ints are exact up to 1 ulp outward; Fractions via num/den."""
    if isinstance(x, HighReal):
        return x
    if isinstance(x, Fraction):
        return iv.mpf(x.numerator) / iv.mpf(x.denominator)
    return iv.mpf(x)


def lower(x) -> mpmath.mpf:
    return mpmath.mpf(enc(x).a)


def upper(x) -> mpmath.mpf:
    return mpmath.mpf(enc(x).b)


def midpoint(x) -> mpmath.mpf:
    return mpmath.mpf(enc(x).mid)


def width(x) -> mpmath.mpf:
    return mpmath.mpf(enc(x).delta)


def _ends(x):
    """The endpoints of an enclosure as raw mpf tuples, never rounded."""
    return enc(x)._mpi_


def as_fraction(value) -> Fraction:
    """The exact rational value of an int, float, Fraction or mpf."""
    if isinstance(value, mpmath.mpf):
        return Fraction(*libmp.to_rational(value._mpf_))
    return Fraction(value)


def contains(x, value) -> bool:
    """True when the enclosure of x contains the exact number `value`."""
    value = as_fraction(value)
    den, num = libmp.from_int(value.denominator), libmp.from_int(value.numerator)
    lo, hi = (libmp.mpf_mul(e, den) for e in _ends(x))
    return libmp.mpf_le(lo, num) and libmp.mpf_le(num, hi)


def root(x, k: int) -> HighReal:
    """k-th root of a positive enclosure via exp(log(x)/k); exact-int k."""
    return iv.exp(iv.log(enc(x)) / k)


def le_status(lhs, rhs) -> str:
    """Certify lhs <= rhs: pass/fail only when every point pair agrees."""
    (l_lo, l_hi), (r_lo, r_hi) = _ends(lhs), _ends(rhs)
    if libmp.mpf_le(l_hi, r_lo):
        return PASS
    if libmp.mpf_gt(l_lo, r_hi):
        return FAIL
    return INDETERMINATE


def lt_status(lhs, rhs) -> str:
    """Certify lhs < rhs strictly."""
    (l_lo, l_hi), (r_lo, r_hi) = _ends(lhs), _ends(rhs)
    if libmp.mpf_lt(l_hi, r_lo):
        return PASS
    if libmp.mpf_ge(l_lo, r_hi):
        return FAIL
    return INDETERMINATE


def ge_status(lhs, rhs) -> str:
    return le_status(rhs, lhs)


def gt_status(lhs, rhs) -> str:
    return lt_status(rhs, lhs)


def is_positive(x) -> str:
    return gt_status(x, iv.mpf(0))


def _round_exact(x, rnd) -> int:
    lo, hi = (libmp.to_int(e, rnd) for e in _ends(x))
    if lo != hi:
        raise IndeterminateFloor(x)
    return lo


def floor_exact(x) -> int:
    """Floor of an enclosure, when unambiguous."""
    return _round_exact(x, libmp.round_floor)


def ceil_exact(x) -> int:
    """Ceiling of an enclosure, when unambiguous."""
    return _round_exact(x, libmp.round_ceiling)


class IndeterminateFloor(Exception):
    """Enclosure straddles an integer; retry at higher precision."""


def resolve_int(compute, rounder) -> int:
    """Evaluate rounder(compute()) with escalating precision until unambiguous.

    `compute` must rebuild its enclosure from exact inputs each call so the
    tighter precision actually helps.
    """
    from .errors import IndeterminateError

    saved = iv.prec
    try:
        prec = saved
        while prec <= MAX_PREC_BITS:
            iv.prec = prec
            try:
                return rounder(compute())
            except IndeterminateFloor:
                prec *= 2
        raise IndeterminateError(
            "enclosure still straddles an integer at %d bits" % MAX_PREC_BITS)
    finally:
        iv.prec = saved


def fmt(x, digits: int = 24) -> str:
    """Decimal string of the midpoint, for serialization."""
    return mpmath.nstr(midpoint(x), digits)


def fmt_width(x) -> str:
    return mpmath.nstr(width(x), 6)
