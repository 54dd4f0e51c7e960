"""Certified real arithmetic on interval enclosures.

A HighReal is an interval whose two endpoints are dyadic numbers m 2^e
(integer m and e), rounded outward at the working precision `iv.prec`, 120
bits by default, comfortably past 30 significant digits. The kernel is pure
Python, its integer half on (m, e) pairs in `dyadic`, and keeps no state
but `iv.prec`, which only `resolve_ceil` changes and restores:
- +, -, *, / and integer powers are computed exactly on the endpoints and
  rounded once, outward;
- `iv.sqrt` rounds an exact integer square root;
- `iv.log` and `iv.exp` sum integer fixed-point series with a bound on
  their error, and raise the working precision (Ziv's loop) until both
  ends of that bound round to the same number. So every endpoint is the
  correctly rounded one, and every enclosure holds its value.
Every module imports `iv` from here. Every comparison that decides a check
goes through the three-way helpers here and returns "pass", "fail", or
"indeterminate"; a straddling enclosure is never silently coerced to a
boolean. `midpoint` and `width` return the exact centre and width as
Fractions, and `fmt` and `fmt_width` print them in decimal, rounded once.
"""

import math
from fractions import Fraction

from .dyadic import (_ONE, _ZERO, _ceil, _cmp, _decimal, _exp_approx,
                     _fraction, _log_approx, _quotient, _root, _round, _sum,
                     _ziv)

PREC_BITS = 120
# resolve_ceil doubles the precision while it stays within this many bits
MAX_PREC_BITS = 640

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"


def _monotone(approx, exact, x: "Interval") -> "Interval":
    """An increasing function on an interval: its lower end rounded down
    and its upper end up; `exact` maps an argument with an exact dyadic
    value (0 for exp, 1 for log) to it."""
    prec = iv.prec
    a, b = x.lo, x.hi
    if a == b and a not in exact:
        lo, hi = _ziv(approx, a, prec, (-1, 1))
        return Interval(lo, hi)
    lo = exact[a] if a in exact else _ziv(approx, a, prec, (-1,))[0]
    hi = exact[b] if b in exact else _ziv(approx, b, prec, (1,))[0]
    return Interval(lo, hi)


# ------------------------------------------------------------ intervals


def _binary(op):
    """An operator method whose other operand, an int, float or Fraction,
    is enclosed first."""
    def method(self, other):
        if not isinstance(other, Interval):
            if not isinstance(other, (int, float, Fraction)):
                return NotImplemented
            other = iv.mpf(other)
        return op(self, other)
    return method


class Interval:
    """A closed interval [lo, hi] with dyadic endpoints (m, e) = m 2^e."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    @property
    def ends(self):
        """The endpoints as exact Fractions."""
        return _fraction(self.lo), _fraction(self.hi)

    def __repr__(self):
        return "Interval(%r, %r)" % (self.lo, self.hi)

    @_binary
    def __eq__(self, other):
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __neg__(self):
        prec = iv.prec
        (am, ae), (bm, be) = self.lo, self.hi
        return Interval(_round(-bm, be, prec, -1), _round(-am, ae, prec, 1))

    @_binary
    def __add__(self, other):
        prec = iv.prec
        return Interval(_round(*_sum(self.lo, other.lo), prec, -1),
                        _round(*_sum(self.hi, other.hi), prec, 1))

    __radd__ = __add__

    @_binary
    def __sub__(self, other):
        prec = iv.prec
        return Interval(_round(*_sum(self.lo, other.hi, -1), prec, -1),
                        _round(*_sum(self.hi, other.lo, -1), prec, 1))

    @_binary
    def __rsub__(self, other):
        return other - self

    @_binary
    def __mul__(self, other):
        (am, ae), (bm, be) = self.lo, self.hi
        (cm, ce), (dm, de) = other.lo, other.hi
        if am >= 0 and cm >= 0:  # the common case: both nonnegative
            lo, hi = (am * cm, ae + ce), (bm * dm, be + de)
        else:
            lo, hi = _extremes([(xm * ym, xe + ye) for xm, xe in (self.lo, self.hi)
                                for ym, ye in (other.lo, other.hi)])
        prec = iv.prec
        return Interval(_round(*lo, prec, -1), _round(*hi, prec, 1))

    __rmul__ = __mul__

    @_binary
    def __truediv__(self, other):
        if other.lo[0] <= 0 <= other.hi[0]:
            raise ZeroDivisionError("interval divisor contains 0")
        if other.lo[0] < 0:
            self, other = -self, -other
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if a[0] >= 0:
            lo, hi = (a, d), (b, c)
        elif b[0] <= 0:
            lo, hi = (a, c), (b, d)
        else:
            lo, hi = (a, c), (b, c)
        prec = iv.prec
        return Interval(_quotient(*lo, prec, -1), _quotient(*hi, prec, 1))

    @_binary
    def __rtruediv__(self, other):
        return other / self

    def __pow__(self, n):
        """Powers n >= 0, exact on the endpoints and then rounded."""
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        (am, ae), (bm, be) = self.lo, self.hi
        lo, hi = (am ** n, ae * n), (bm ** n, be * n)
        if am < 0 and not n & 1:  # an even power of an interval below 0
            lo, hi = (hi, lo) if bm <= 0 else (_ZERO, _extremes([lo, hi])[1])
        prec = iv.prec
        return Interval(_round(*lo, prec, -1), _round(*hi, prec, 1))


def _extremes(points):
    """The least and the greatest of some dyadic numbers."""
    points = sorted(points, key=_fraction)
    return points[0], points[-1]


def _point(x, prec: int):
    """An int or a float as an interval rounded outward at prec bits."""
    if isinstance(x, int):
        m, e = x, 0
    else:
        if not math.isfinite(x):
            raise ValueError("cannot enclose %r" % (x,))
        m, d = x.as_integer_ratio()
        e = 1 - d.bit_length()
    return Interval(_round(m, e, prec, -1), _round(m, e, prec, 1))


class _Context:
    """The working precision and the functions of intervals. `mpf`
    encloses an int or a float at the precision, and a Fraction as the
    quotient of its enclosed numerator and denominator."""

    def __init__(self, prec: int):
        self.prec = prec

    def mpf(self, x) -> Interval:
        if isinstance(x, Interval):
            return x
        if isinstance(x, Fraction):
            return self.mpf(x.numerator) / self.mpf(x.denominator)
        if isinstance(x, (int, float)):
            return _point(x, self.prec)
        raise TypeError("cannot enclose %r" % (x,))

    def sqrt(self, x) -> Interval:
        x = self.mpf(x)
        if x.lo[0] < 0:
            raise ValueError("sqrt of an interval below 0")
        return Interval(_root(x.lo, self.prec, -1), _root(x.hi, self.prec, 1))

    def log(self, x) -> Interval:
        x = self.mpf(x)
        if x.lo[0] <= 0:
            raise ValueError("log of an interval that reaches 0")
        return _monotone(_log_approx, {_ONE: _ZERO}, x)

    def exp(self, x) -> Interval:
        return _monotone(_exp_approx, {_ZERO: _ONE}, self.mpf(x))


iv = _Context(PREC_BITS)

# The interval number type, used in annotations elsewhere.
HighReal = Interval


def enc(x) -> HighReal:
    """Enclose x. Ints are exact up to 1 ulp outward; Fractions via num/den."""
    return iv.mpf(x)


def midpoint(x) -> Fraction:
    """The exact centre (lo + hi) / 2."""
    x = enc(x)
    m, e = _sum(x.lo, x.hi)
    return _fraction((m, e - 1))


def width(x) -> Fraction:
    """The exact width hi - lo."""
    x = enc(x)
    return _fraction(_sum(x.hi, x.lo, -1))


def root(x, k: int) -> HighReal:
    """k-th root of a positive enclosure via exp(log(x)/k); exact-int k."""
    return iv.exp(iv.log(enc(x)) / k)


def le_status(lhs, rhs) -> str:
    """Certify lhs <= rhs: pass/fail only when every point pair agrees."""
    lhs, rhs = enc(lhs), enc(rhs)
    if _cmp(lhs.hi, rhs.lo) <= 0:
        return PASS
    if _cmp(lhs.lo, rhs.hi) > 0:
        return FAIL
    return INDETERMINATE


def lt_status(lhs, rhs) -> str:
    """Certify lhs < rhs strictly."""
    lhs, rhs = enc(lhs), enc(rhs)
    if _cmp(lhs.hi, rhs.lo) < 0:
        return PASS
    if _cmp(lhs.lo, rhs.hi) >= 0:
        return FAIL
    return INDETERMINATE


def ge_status(lhs, rhs) -> str:
    return le_status(rhs, lhs)


def gt_status(lhs, rhs) -> str:
    return lt_status(rhs, lhs)


def resolve_ceil(compute) -> int:
    """The ceiling of compute()'s enclosure, doubling the precision until
    both ends have the same one.

    `compute` must rebuild its enclosure from exact inputs each call so the
    tighter precision actually helps.
    """
    from .errors import IndeterminateError

    saved = iv.prec
    try:
        prec = saved
        while prec <= MAX_PREC_BITS:
            iv.prec = prec
            x = enc(compute())
            lo = _ceil(x.lo)
            if lo == _ceil(x.hi):
                return lo
            prec *= 2
        raise IndeterminateError(
            "enclosure still straddles an integer at %d bits" % MAX_PREC_BITS)
    finally:
        iv.prec = saved


def fmt(x, digits: int = 24) -> str:
    """The exact midpoint to `digits` significant digits."""
    return _decimal(midpoint(x), digits)


def fmt_width(x) -> str:
    """The exact width to 6 significant digits."""
    return _decimal(width(x), 6)
