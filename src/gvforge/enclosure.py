"""Certified real arithmetic on interval enclosures.

A HighReal is an interval whose two endpoints are dyadic numbers m 2^e
(integer m and e), rounded outward at the working precision `iv.prec`, 120
bits by default, comfortably past 30 significant digits. The kernel is pure
Python and keeps no state but `iv.prec`, which only `resolve_ceil` changes
and restores:
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

PREC_BITS = 120
# resolve_ceil doubles the precision while it stays within this many bits
MAX_PREC_BITS = 640
# Ziv's loop gives up past this working precision; it is never reached,
# since log and exp of a dyadic number other than 1 and 0 are irrational
_MAX_WORK_BITS = 1 << 16

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"

_ZERO = (0, 0)
_ONE = (1, 0)


# ------------------------------------------------------ dyadic endpoints


def _round(m: int, e: int, prec: int, mode: int):
    """m 2^e rounded to prec bits, as a normalized (odd or zero) pair:
    mode -1 rounds down, 1 up and 0 to nearest, ties to even."""
    s = m.bit_length() - prec
    if s > 0:
        if mode < 0:
            m >>= s
        elif mode > 0:
            m = -(-m >> s)
        else:
            q = m >> s
            rest, half = m - (q << s), 1 << (s - 1)
            m = q + (rest > half or (rest == half and q & 1))
        e += s
    if not m:
        return _ZERO
    t = (m & -m).bit_length() - 1
    return m >> t, e + t


def _sum(x, y, sign: int = 1):
    """x + sign y, exact and unrounded."""
    (xm, xe), (ym, ye) = x, y
    if xe >= ye:
        return (xm << (xe - ye)) + sign * ym, ye
    return xm + sign * (ym << (ye - xe)), xe


def _cmp(x, y) -> int:
    """The sign of x - y."""
    d = _sum(x, y, -1)[0]
    return (d > 0) - (d < 0)


def _quotient(x, y, prec: int, mode: int):
    """x / y rounded to prec bits, y != 0. The integer quotient gets at
    least prec + 1 bits, so an inexact one can stand in as q + 1/2."""
    (xm, xe), (ym, ye) = x, y
    if ym < 0:
        xm, ym = -xm, -ym
    s = max(0, prec + 2 + ym.bit_length() - xm.bit_length())
    q, rest = divmod(xm << s, ym)
    e = xe - ye - s
    if rest:
        q, e = 2 * q + 1, e - 1
    return _round(q, e, prec, mode)


def _root(x, prec: int, mode: int):
    """sqrt(x) rounded to prec bits, x >= 0, through math.isqrt."""
    m, e = x
    if not m:
        return _ZERO
    s = max(0, 2 * prec + 4 - m.bit_length())
    s += (e - s) & 1
    n = m << s
    r = math.isqrt(n)
    e = (e - s) // 2
    if r * r != n:
        r, e = 2 * r + 1, e - 1
    return _round(r, e, prec, mode)


def _fraction(x) -> Fraction:
    m, e = x
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _ceil(x) -> int:
    m, e = x
    return m << e if e >= 0 else -(-m >> -e)


# --------------------------------------------- log and exp, Ziv's loop


def _atanh_inv(k: int, wp: int):
    """atanh(1/k) 2^wp for an integer k >= 3, within 2 units a term."""
    term = (1 << wp) // k
    total, k2, i = term, k * k, 3
    while term:
        term //= k2
        total += term // i
        i += 2
    return total


_LN2_BITS = 1088
# ln 2 = 2 atanh(1/3) at 2^-_LN2_BITS, within 2 units
_LN2 = 2 * _atanh_inv(3, _LN2_BITS + 24) >> 24


def _ln2(wp: int) -> int:
    """ln 2 times 2^wp, within 2 units."""
    if wp <= _LN2_BITS:
        return _LN2 >> (_LN2_BITS - wp)
    return 2 * _atanh_inv(3, wp + 24) >> 24


def _exp_approx(x, wp: int):
    """(y, err, e) with |exp(x) - y 2^e| <= err 2^e, for x != 0, about wp
    bits: x = n ln 2 + t, then exp(t / 2^j) by Taylor, squared j times."""
    m, e = x
    nb = max(0, m.bit_length() + e)  # |x| < 2^nb
    if nb > 64:
        raise OverflowError("exp argument too large")
    j = max(2, math.isqrt(wp) // 2)
    g = wp + nb + j + 16
    X = m << (e + g) if e + g >= 0 else m >> -(e + g)  # within 1
    L = _ln2(g)
    n = (X + (L >> 1)) // L
    T = X - n * L  # t 2^g within 1 + 2|n|; read at scale 2^(g+j) it is t/2^j
    G = g + j
    one = 1 << G
    s = term = one
    i = 1
    while term:
        term = (term * T >> G) // i
        s += term
        i += 1
    err = 2 * i + 2 + 2 * (1 + 2 * abs(n))
    for _ in range(j):
        err = (err * (2 * s + err) >> G) + 2
        s = s * s >> G
    return s, err, n - G


def _log_approx(x, wp: int):
    """(y, err, e) with |log(x) - y 2^e| <= err 2^e, for x > 0, x != 1,
    about wp bits: x = 2^k f with f in [1/sqrt 2, sqrt 2), then
    log f = 2^(j+1) atanh(z) with z = (y - 1)/(y + 1) and y = f^(1/2^j)."""
    m, e = x
    n = m.bit_length()
    k = e + n
    if (m * m) << 1 < 1 << (2 * n):  # f = m / 2^n < 1/sqrt 2: use 2f
        n -= 1
        k -= 1
    j = max(2, math.isqrt(wp) // 2)
    G = wp + j + k.bit_length() + 16
    one = 1 << G
    Y = m << (G - n) if G >= n else m >> (n - G)  # f 2^G within 1
    for _ in range(j):
        Y = math.isqrt(Y << G)  # within 3 units throughout
    Z = ((Y - one) << G) // (Y + one)  # within 3
    sign, Z = (-1 if Z < 0 else 1), abs(Z)  # atanh is odd
    Z2 = Z * Z >> G
    total = term = Z
    i = 3
    while term:
        term = term * Z2 >> G
        total += term // i
        i += 2
    err = ((3 + i + 2) << (j + 1)) + 2 * abs(k) + 1
    return k * _ln2(G) + sign * (total << (j + 1)), err, -G


def _ziv(approx, x, prec: int, modes):
    """Round approx's value at x in each of `modes`, raising the working
    precision until both ends of its error bound round alike."""
    wp = prec + 24
    while wp <= _MAX_WORK_BITS:
        y, err, e = approx(x, wp)
        out = []
        for mode in modes:
            lo = _round(y - err, e, prec, mode)
            if lo != _round(y + err, e, prec, mode):
                break
            out.append(lo)
        else:
            return out
        wp *= 2
    raise ArithmeticError("Ziv's loop did not settle by %d bits" % _MAX_WORK_BITS)


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


def _decimal(v: Fraction, dps: int) -> str:
    """v printed with dps significant digits, rounded half away from zero,
    in mpmath's nstr layout: fixed notation when the leading digit's
    exponent lies strictly between min(-(dps // 3), -5) and dps, trailing
    zeros stripped."""
    if not v:
        return "0.0"
    sign = "-" if v < 0 else ""
    num, den = abs(v.numerator), v.denominator
    # floor(log10 v), give or take one; the loop settles it
    exponent = (num.bit_length() - den.bit_length()) * 30103 // 100000
    while True:
        k = dps - 1 - exponent
        n, d = (num * 10 ** k, den) if k >= 0 else (num, den * 10 ** -k)
        kept = (2 * n + d) // (2 * d)
        if kept < 10 ** (dps - 1):
            exponent -= 1
        elif kept >= 10 ** dps:
            exponent += 1
        else:
            break
    digits, split = str(kept), 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits.endswith("."):
        digits += "0"
    return sign + digits + ("e%+d" % exponent if exponent else "")


def fmt(x, digits: int = 24) -> str:
    """The exact midpoint to `digits` significant digits."""
    return _decimal(midpoint(x), digits)


def fmt_width(x) -> str:
    """The exact width to 6 significant digits."""
    return _decimal(width(x), 6)
