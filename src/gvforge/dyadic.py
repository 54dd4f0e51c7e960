"""The integer kernel of `enclosure` on dyadic numbers m 2^e, held as (m, e):
rounding, exact sums and comparisons, quotients and square roots rounded
once, log and exp rounded by Ziv's loop, and a Fraction printed in decimal.
Only `enclosure` imports it.
"""

import math
from fractions import Fraction

# Ziv's loop gives up past this working precision; it is never reached,
# since log and exp of a dyadic number other than 1 and 0 are irrational
_MAX_WORK_BITS = 1 << 16

_ZERO = (0, 0)
_ONE = (1, 0)


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
