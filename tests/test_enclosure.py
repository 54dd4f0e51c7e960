"""The interval kernel against mpmath.iv and a 250-digit decimal oracle.

mpmath is the test oracle here and nowhere in the package. Every endpoint
the kernel gives must equal mpmath.iv's at 120 and 240 bits, except where
mpmath's endpoint is not the correctly rounded one; there the kernel's
must be, by `decimal` at 250 digits (whose exp and ln are correctly
rounded). Midpoints and widths are the exact centre and width of the
ends, and a double prints as mpmath.nstr prints it.
"""

import math
import random
from decimal import Context, Decimal
from fractions import Fraction

import mpmath
import pytest
from mpmath.ctx_iv import MPIntervalContext

from gvforge import enclosure as encl
from gvforge.enclosure import iv

from conftest import encloses, exact

DEC = Context(prec=250)


def decimal_of(x: Fraction) -> Decimal:
    return DEC.divide(Decimal(x.numerator), Decimal(x.denominator))


def rounded(v: Fraction, prec: int, up: bool) -> Fraction:
    """v rounded to prec significant bits, down or up."""
    if v == 0:
        return v
    a = abs(v)
    e = a.numerator.bit_length() - a.denominator.bit_length()
    if Fraction(2) ** e > a:
        e -= 1
    scale = Fraction(2) ** (prec - 1 - e)
    n = v * scale
    return (math.ceil(n) if up else math.floor(n)) / scale


def mp_ends(x):
    """The exact endpoints of an mpmath interval."""
    return tuple(Fraction(*mpmath.libmp.to_rational(e)) for e in x._mpi_)


@pytest.fixture
def mpiv():
    """A private mpmath interval context, so no global precision changes."""
    return MPIntervalContext()


def operands(rng):
    """Seeded rationals: small fractions, long ones past 120 bits, integers
    and dyadics, of either sign."""
    kind = rng.randrange(4)
    if kind == 0:
        x = Fraction(rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 6))
    elif kind == 1:
        x = Fraction(rng.randrange(1, 2 ** 200), rng.randrange(1, 2 ** 130))
    elif kind == 2:
        x = Fraction(rng.randrange(1, 2 ** 60))
    else:
        x = Fraction(rng.randrange(1, 2 ** 20), 2 ** rng.randrange(40))
    return -x if rng.random() < 0.3 else x


@pytest.mark.parametrize("prec", [120, 240])
def test_arithmetic_endpoints_equal_mpmath(prec, mpiv, monkeypatch):
    """mpf of an int and of a Fraction (numerator over denominator), +, -,
    *, / and **2 on point and wide intervals, and sqrt: mpmath rounds each
    of these correctly, so every endpoint must match."""
    monkeypatch.setattr(iv, "prec", prec)
    mpiv.prec = prec
    rng = random.Random(prec)
    ops = (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
           lambda x, y: x / y)
    for _ in range(300):
        f, g = operands(rng), operands(rng)
        a, b = encl.enc(f), encl.enc(g)
        am = mpiv.mpf(f.numerator) / f.denominator
        bm = mpiv.mpf(g.numerator) / g.denominator
        assert a.ends == mp_ends(am), f
        n = rng.randrange(1, 2 ** rng.randrange(1, 300))
        assert iv.mpf(n).ends == mp_ends(mpiv.mpf(n)), n
        wide, widem = a + 3 * b, am + 3 * bm  # a wide interval, maybe mixed
        for x, y, xm, ym in ((a, b, am, bm), (wide, a, widem, am),
                             (a, wide, am, widem)):
            for op in ops:
                if op is ops[3] and encloses(y, 0):
                    continue
                assert op(x, y).ends == mp_ends(op(xm, ym)), (f, g)
            assert (x ** 2).ends == mp_ends(xm ** 2), (f, g)
        assert iv.sqrt(abs(f)).ends == mp_ends(
            mpiv.sqrt(mpiv.mpf(abs(f).numerator) / abs(f).denominator)), f


def check_function(name, kernel, oracle, decimal_fn, x, prec, mpiv):
    """The kernel's interval of kernel(x) for a dyadic x (a point at the
    working precision): each end
    the correctly rounded one by the decimal oracle, and equal to mpmath's
    end wherever that one is correctly rounded too. Returns the number of
    ends where mpmath is not."""
    got = kernel(iv.mpf(x)).ends
    want = mp_ends(oracle(mpiv.mpf(x.numerator) / x.denominator))
    true = Fraction(decimal_fn(decimal_of(x)))
    right = (rounded(true, prec, False), rounded(true, prec, True))
    assert got == right, (name, x)
    assert got[0] <= true <= got[1]
    return sum(w != r for w, r in zip(want, right))


@pytest.mark.parametrize("prec", [120, 240])
def test_log_and_exp_are_correctly_rounded(prec, mpiv, monkeypatch):
    monkeypatch.setattr(iv, "prec", prec)
    mpiv.prec = prec
    rng = random.Random(10 + prec)
    for _ in range(300):
        x = encl.enc(abs(operands(rng))).ends[0]  # a dyadic point
        check_function("log", iv.log, mpiv.log, DEC.ln, x, prec, mpiv)
        x = Fraction(rng.randrange(-40 * 2 ** 52, 40 * 2 ** 52), 2 ** 52)
        check_function("exp", iv.exp, mpiv.exp, DEC.exp, x, prec, mpiv)
    # exact values: log 1 = 0 and exp 0 = 1
    assert iv.log(1).ends == (0, 0) and iv.exp(0).ends == (1, 1)
    # a log close to 0 needs more working bits than the target precision
    x = 1 + Fraction(1, 2 ** 100)
    true = Fraction(DEC.ln(decimal_of(x)))
    assert iv.log(x).ends == (rounded(true, prec, False),
                              rounded(true, prec, True))


@pytest.mark.parametrize("wp", [30, 64, 150, 400])
def test_series_error_bounds_hold(wp):
    """Ziv's loop is only as sound as the error bound of each series: at
    seeded points, including huge and tiny ones, |y 2^e - f(x)| <= err 2^e
    by the decimal oracle."""
    rng = random.Random(wp)
    points = [rng.randrange(1, 2 ** 120) * Fraction(2) ** rng.randrange(-400, 300)
              for _ in range(150)] + [Fraction(2 ** 24000 + 1), Fraction(3, 2)]
    for x in points:
        x = encl.enc(x).ends[0]
        y, err, e = encl._log_approx(encl.iv.mpf(x).lo, wp)
        true = Fraction(DEC.ln(decimal_of(x)))
        assert abs(y - true / Fraction(2) ** e) <= err, ("log", x, wp)
    for _ in range(150):  # |x| < 2^12, and down to 2^-80
        x = Fraction(rng.randrange(-2 ** 40, 2 ** 40), 2 ** rng.randrange(28, 120))
        if x:
            y, err, e = encl._exp_approx(encl.iv.mpf(x).lo, wp)
            true = Fraction(DEC.exp(decimal_of(x)))
            assert abs(y - true / Fraction(2) ** e) <= err, ("exp", x, wp)


# x = m / 2^52 (or m / 2^50) in (0.5, 40) where mpmath's 120-bit iv.exp
# misses exp(x), found by a seeded search over 40,000 such x
MPMATH_EXP_MISSES = [25747566564472911, 59295073621802497,
                     169703582185709331, 157920686308017225,
                     132030592957542651, 10105957172314869 * 4]


@pytest.mark.parametrize("m", MPMATH_EXP_MISSES)
def test_exp_holds_its_value_where_mpmath_misses_it(m, mpiv):
    mpiv.prec = 120
    x = Fraction(m, 2 ** 52)
    true = Fraction(DEC.exp(decimal_of(x)))
    lo, hi = mp_ends(mpiv.exp(mpiv.mpf(m) / 2 ** 52))
    assert not lo <= true <= hi  # the reason for the test
    assert check_function("exp", iv.exp, mpiv.exp, DEC.exp, x, 120,
                          mpiv) >= 1


@pytest.mark.parametrize("prec", [120, 240])
def test_midpoint_and_width_are_exact(prec, monkeypatch):
    """midpoint is the exact (lo + hi) / 2 and width the exact hi - lo of
    the enclosure's Fraction ends, with nothing rounded."""
    monkeypatch.setattr(iv, "prec", prec)
    rng = random.Random(20 + prec)
    for _ in range(300):
        f, g = operands(rng), operands(rng)
        for x in (iv.log(abs(f)) * g, encl.enc(f), encl.enc(f) - 3 * encl.enc(g)):
            lo, hi = x.ends
            assert encl.midpoint(x) == sum(x.ends) / 2
            assert encl.width(x) == hi - lo


def doubles(rng):
    """Seeded doubles around each decimal exponent in [-40, 40], with the
    boundaries of fixed notation, carries past 9 and exact ties among
    them."""
    out = [0.0, 1.0, -1.0, 0.5, 1e-5, 1e-6, 9.5, 99999.5, 999999.5, 0.25,
           0.125, 1 / 3, -2 / 3, 2.0 ** -60, 2.0 ** 70]
    for k in range(-40, 41):
        out += [10.0 ** k, -(10.0 ** k), 9.9999995 * 10.0 ** k,
                0.99999999999999994 * 10.0 ** k]
        out += [rng.uniform(1, 10) * 10.0 ** k * rng.choice((1, -1))
                for _ in range(12)]
    out += [rng.randrange(1, 2 ** 53) / 2 ** rng.randrange(0, 80)
            for _ in range(1000)]
    return out


def test_fmt_prints_as_mpmath_nstr():
    """fmt and fmt_width print the rounded double exactly as mpmath.nstr:
    fmt at 24, 15, 12 and 6 digits, fmt_width at 6."""
    for d in doubles(random.Random(5)):
        for digits in (24, 15, 12, 6):
            assert encl.fmt(d, digits) == mpmath.nstr(mpmath.mpf(d), digits), (
                d, digits)
        w = abs(d)
        assert encl.fmt_width(encl.Interval(iv.mpf(0).lo, iv.mpf(w).hi)) == mpmath.nstr(
            mpmath.mpf(w), 6), w
