"""Prime tables, symbols, and certified analytic helpers.

Oracle policy: counts are cross-checked against implementations that share no
code with the library (bytearray sieve, the plain numpy sieve of
`conftest.inert_primes_oracle`, per-number trial division, exhaustive root
scans), and enclosures are checked against logs of exact integer products.
"""

import math
from itertools import compress

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvforge import enclosure as encl
from gvforge import numtheory as nt
from gvforge.enclosure import iv
from gvforge.errors import CapacityError, DomainError

from conftest import (inert_count_oracle, inert_primes_oracle,
                      trial_division_is_prime)


def bytearray_sieve(limit: int) -> bytearray:
    """Classic one-shot sieve on a bytearray; no numpy, no segmentation."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return flags


def bytearray_prime_count(limit: int) -> int:
    return sum(bytearray_sieve(limit))


def bytearray_primes(limit: int) -> list:
    return list(compress(range(limit + 1), bytearray_sieve(limit)))


def overlap(x, y) -> bool:
    """Two enclosures of the same real number must intersect (compared on
    their raw endpoints, not on 53-bit roundings of them)."""
    return encl.PASS not in (encl.lt_status(x, y), encl.lt_status(y, x))


# ---------------------------------------------------------------- sieve


def test_prime_count_1e6():
    assert len(nt.table_for(10 ** 6)) == 78498
    assert bytearray_prime_count(10 ** 6) == 78498


def test_prime_count_1e5_trial_division_oracle():
    want = sum(1 for n in range(2, 10 ** 5 + 1) if trial_division_is_prime(n))
    assert len(nt.table_for(10 ** 5)) == want == 9592


def test_sieve_small_lists():
    assert nt.sieve_primes(2).tolist() == [2]
    assert nt.sieve_primes(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    with pytest.raises(DomainError):
        nt.sieve_primes(1)


# the step-2 segments start at the odd numbers 1 + 2k * _WINDOW
WINDOW_EDGES = [1 + 2 * k * nt._WINDOW + d for k in (1, 2) for d in (-2, -1, 0, 1)]


@pytest.mark.parametrize("limit", list(range(2, 41)) + WINDOW_EDGES)
def test_sieve_matches_bytearray_oracle(limit):
    got = nt.sieve_primes(limit)
    assert got.typecode == "I" and got.itemsize >= 4
    assert got.tolist() == bytearray_primes(limit)


@pytest.mark.parametrize("window", [1, 2, 3, 7])
def test_sieve_across_segments(monkeypatch, window):
    monkeypatch.setattr(nt, "_WINDOW", window)
    for limit in range(2, 501):
        assert nt.sieve_primes(limit).tolist() == bytearray_primes(limit)


def test_sieve_cap_enforced():
    over = nt.HARD_SIEVE_CAP + 1
    with pytest.raises(CapacityError, match="limit %d exceeds" % over):
        nt.sieve_primes(over)
    with pytest.raises(CapacityError, match="limit %d exceeds" % over):
        nt.table_for(over)
    with pytest.raises(CapacityError, match="limit %d exceeds" % 2 ** 33):
        nt.inert_counts(2 ** 66, [10 ** 6])
    # a window that lies wholly above isqrt(q) is empty: nothing is sieved
    assert nt.inert_counts(10 ** 12, [10 ** 6 + 1]) == [0]


def test_count_3mod4_in_window():
    # primes = 3 mod 4 in [10, 50]: 11, 19, 23, 31, 43, 47
    assert nt.inert_counts(50 ** 2, [10, 11, 12, 19, 20, 47, 48, 51]) == [
        6, 6, 5, 5, 4, 1, 0, 0]
    assert nt.inert_counts(10 ** 2, [50]) == [0]
    assert nt.inert_counts(28 ** 2, [24]) == [0]
    by_scan = sum(1 for n in range(600, 800)
                  if n % 4 == 3 and trial_division_is_prime(n))
    assert nt.inert_counts(799 ** 2, [600]) == [by_scan]


# ------------------------------------------------------ inert window counts


def window_low(r: int, p_ell: int) -> int:
    """The least p with p > p_ell and p^2 >= r, for r >= 1."""
    return max(p_ell + 1, math.isqrt(r - 1) + 1)


def window_from_counts(q: int, lo: int) -> list:
    """The primes p = 3 (mod 4) in [lo, isqrt(q)], read off one inert_counts
    call with a low at every integer of the window: p is in it exactly when
    the count drops between lows p and p + 1."""
    lows = range(lo, math.isqrt(q) + 2)
    counts = nt.inert_counts(q, lows)
    return [p for p, a, b in zip(lows, counts, counts[1:]) if a > b]


def assert_window(q, r, p_ell):
    """The window of (q, r, p_ell) from inert_counts against the oracle, both
    as a count at its low and as the list of its primes."""
    lo = window_low(r, p_ell)
    ps = inert_primes_oracle(math.isqrt(q))
    want = ps[(ps > p_ell) & (ps * ps >= r)].tolist()
    assert nt.inert_counts(q, [lo]) == [len(want)], (q, r, p_ell)
    got = window_from_counts(q, lo)
    assert got == want, (q, r, p_ell)
    return got


def test_inert_window_empty():
    assert assert_window(99, 100, 0) == []           # isqrt(q) < sqrt(r)
    assert assert_window(10 ** 4, 1, 100) == []      # isqrt(q) <= p_ell
    assert assert_window(3 ** 2 - 1, 1, 0) == []     # only 2 lies below 3
    assert assert_window(10 ** 6, 999 ** 2, 0) == []  # 999 = 27 * 37


def test_inert_window_holds_its_base_primes():
    # lo <= 3: the base primes 3 and 7 (<= sqrt(100)) are in the window
    got = assert_window(10 ** 4, 1, 0)
    assert got[:4] == [3, 7, 11, 19] and got[-1] == 83
    assert assert_window(10 ** 4, 9, 2)[0] == 3
    assert assert_window(10 ** 4, 10, 2)[0] == 7


def test_inert_counts_below_three():
    # every low at or below 3 counts from 3, the least prime = 3 (mod 4)
    assert nt.inert_counts(100, [-5, 0, 1, 2, 3, 4]) == [2, 2, 2, 2, 2, 1]
    assert nt.inert_counts(8, [0, 3]) == [0, 0]
    assert nt.inert_counts(9, [0, 3, 4]) == [1, 1, 0]
    assert nt.inert_counts(10 ** 6, []) == []


def test_inert_window_ends_are_inclusive():
    assert assert_window(47 ** 2, 19 ** 2, 0) == [19, 23, 31, 43, 47]
    assert assert_window(47 ** 2, 19 ** 2, 18) == [19, 23, 31, 43, 47]
    assert assert_window(47 ** 2 - 1, 19 ** 2 + 1, 0) == [23, 31, 43]
    assert assert_window(47 ** 2, 1, 19) == [23, 31, 43, 47]
    lo, hi = 10007, 10039  # both prime and 3 (mod 4)
    got = assert_window(hi ** 2, lo ** 2, 0)
    assert got[0] == lo and got[-1] == hi


def test_inert_window_at_a_prime_square():
    p = 10007
    assert assert_window(p * p, p * p, 0) == [p]
    assert assert_window(p * p, p * p + 1, 0) == []
    assert assert_window(p * p - 1, 1, 10000) == []
    assert assert_window(53 ** 2, 1, 47) == []  # 53 = 1 (mod 4)
    assert assert_window(43 ** 2, 43 ** 2, 0) == [43]


@pytest.mark.parametrize("window", [1, 2, 3, 7])
def test_inert_window_across_segments(monkeypatch, window):
    monkeypatch.setattr(nt, "_WINDOW", window)
    for hi in range(2, 80):
        for lo in range(1, hi + 2):
            assert_window(hi * hi + hi % 3, max(lo * lo - lo % 2, 1), 0)
    assert_window(10 ** 8, 10 ** 6, 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inert_window_matches_oracle(data):
    q = data.draw(st.integers(1, 10 ** 12), label="q")
    r = data.draw(st.integers(1, q), label="r")
    p_ell = data.draw(st.integers(0, math.isqrt(q) + 2), label="p_ell")
    lo = window_low(r, p_ell)
    want = inert_count_oracle(q, r, p_ell)
    assert nt.inert_counts(q, [lo]) == [want]
    # any window at the same q with larger r and p_ell is a tail of it
    r2 = data.draw(st.integers(r, q), label="r2")
    p2 = data.draw(st.integers(p_ell, math.isqrt(q) + 2), label="p2")
    lo2 = window_low(r2, p2)
    assert nt.inert_counts(q, [lo2, lo]) == [
        inert_count_oracle(q, r2, p2), want]


# the values one step-4 segment of the inert sieve spans
SEGMENT_SPAN = 4 * nt._WINDOW


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_inert_counts_at_many_lows(data):
    """Several lows per call, in any order and with repeats: at and across
    the 2^21-slot segment edges of the sieve that starts at the least low,
    at a prime p_ell and just past it, and above isqrt(q)."""
    least = data.draw(st.integers(0, 10 ** 6), label="least")
    first = max(least, 3) + (3 - max(least, 3)) % 4  # the sieve's slot 0
    edges = [first + k * SEGMENT_SPAN + d for k in (1, 2) for d in range(-5, 6)]
    hi = data.draw(st.one_of(st.sampled_from(edges),
                             st.integers(least, first + 3 * SEGMENT_SPAN)),
                   label="hi")
    q = hi * hi + data.draw(st.integers(0, 2 * hi), label="q - hi^2")
    primes = inert_primes_oracle(hi + 64)
    p_ell = int(primes[data.draw(st.integers(0, len(primes) - 1),
                                 label="p_ell index")])
    more = data.draw(st.lists(st.one_of(
        st.sampled_from(edges), st.integers(least, hi + 5),
        st.sampled_from([p_ell, p_ell + 1]),
        st.integers(hi + 1, hi + SEGMENT_SPAN)), max_size=12), label="lows")
    lows = data.draw(st.permutations([least] + [max(lo, least) for lo in more]),
                     label="order")
    assert nt.inert_counts(q, lows) == [inert_count_oracle(q, 1, lo - 1)
                                        for lo in lows]


def test_table_for_stops_at_x():
    assert nt.table_for(100).tolist() == [n for n in range(2, 101)
                                          if trial_division_is_prime(n)]


def test_nth_prime():
    assert [nt.nth_prime(i) for i in range(1, 7)] == [2, 3, 5, 7, 11, 13]
    for n in (1, 5, 6, 7, 125, 1000):
        assert nt.first_primes(n).tolist() == bytearray_primes(7919)[:n]
    assert nt.nth_prime(125) == 691
    assert nt.nth_prime(1000) == 7919
    assert trial_division_is_prime(7919)
    assert len(nt.table_for(7919)) == 1000
    assert len(nt.table_for(7918)) == 999
    with pytest.raises(DomainError):
        nt.nth_prime(0)


# ------------------------------------------------- theta and the primorial


def test_chebyshev_theta_small():
    theta10 = nt.chebyshev_theta(10)
    assert overlap(theta10, iv.log(iv.mpf(210)))  # 2 * 3 * 5 * 7
    assert encl.width(theta10) < mpmath.mpf("1e-30")
    assert encl.midpoint(nt.chebyshev_theta(1)) == 0
    assert overlap(nt.chebyshev_theta(2), iv.log(iv.mpf(2)))


def test_chebyshev_theta_exact_product_oracle():
    prod = 1
    for p in nt.table_for(1000):
        if p <= 691:
            prod *= p
    theta = nt.chebyshev_theta(691)
    assert overlap(theta, iv.log(iv.mpf(prod)))
    assert encl.width(theta) < mpmath.mpf("1e-28")


def test_primorial_matches_theta():
    for ell in (1, 2, 5, 50, 125):
        D, logD = nt.primorial_D(ell)
        p_ell = nt.nth_prime(ell)
        assert D % 4 == 0
        recon = iv.log(iv.mpf(4)) + nt.chebyshev_theta(p_ell)
        assert overlap(logD, recon)
        assert encl.width(logD) < mpmath.mpf("1e-28")
    assert nt.primorial_D(1)[0] == 8
    assert nt.primorial_D(3)[0] == 120
    with pytest.raises(DomainError):
        nt.primorial_D(0)
    with pytest.raises(CapacityError):
        nt.primorial_D(nt.PRIMORIAL_CAP + 1)


# ------------------------------------------------------- kronecker symbol


def test_kronecker_euler_criterion():
    primes = [int(p) for p in nt.table_for(1000) if p > 2 and p < 1000]
    for p in primes:
        half = (p - 1) // 2
        for a in range(-1000, 1001):
            if a % p == 0:
                assert nt.kronecker_symbol(a, p) == 0
                continue
            e = pow(a % p, half, p)
            want = 1 if e == 1 else -1
            assert nt.kronecker_symbol(a, p) == want, (a, p)


ODD_PRIMES_2000 = [p for p in range(3, 2000) if trial_division_is_prime(p)]


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 9, 10 ** 9), st.integers(-10 ** 9, 10 ** 9),
       st.sampled_from(ODD_PRIMES_2000))
def test_kronecker_property_euler_and_multiplicative(a, b, p):
    e = pow(a, (p - 1) // 2, p)
    assert nt.kronecker_symbol(a, p) == {0: 0, 1: 1, p - 1: -1}[e]
    assert (nt.kronecker_symbol(a * b, p)
            == nt.kronecker_symbol(a, p) * nt.kronecker_symbol(b, p))


def test_kronecker_special_values():
    assert nt.kronecker_symbol(0, 1) == 1
    assert nt.kronecker_symbol(1, 0) == 1
    assert nt.kronecker_symbol(-1, 0) == 1
    assert nt.kronecker_symbol(2, 0) == 0
    assert nt.kronecker_symbol(0, -1) == 1
    assert nt.kronecker_symbol(-3, -1) == -1
    assert nt.kronecker_symbol(3, -1) == 1
    # (a|2) = 0, 1, -1 according to a mod 8 in {even}, {1,7}, {3,5}
    assert [nt.kronecker_symbol(a, 2) for a in range(8)] == [0, 1, 0, -1, 0, -1, 0, 1]
    assert all(nt.kronecker_symbol(a, 1) == 1 for a in range(-5, 6))


def test_kronecker_multiplicative(rng):
    for _ in range(10000):
        a = rng.randrange(-300, 301)
        b = rng.randrange(-300, 301)
        n = rng.randrange(-300, 301)
        assert (nt.kronecker_symbol(a * b, n)
                == nt.kronecker_symbol(a, n) * nt.kronecker_symbol(b, n))
        m = rng.randrange(-300, 301)
        assert (nt.kronecker_symbol(a, m * n)
                == nt.kronecker_symbol(a, m) * nt.kronecker_symbol(a, n))


def test_kronecker_periodicity_mod_4n(rng):
    for _ in range(2000):
        a = rng.randrange(-500, 501)
        n = rng.randrange(1, 200)
        assert nt.kronecker_symbol(a, n) == nt.kronecker_symbol(a + 4 * n * rng.randrange(-3, 4), n)


# ------------------------------------------------------------- sqrt mod p


def test_sqrt_mod_exhaustive_small():
    for p in (int(q) for q in nt.table_for(300) if q > 2 and q < 300):
        roots = {}
        for r in range(p):
            roots.setdefault(r * r % p, set()).add(min(r, p - r))
        for a in range(p):
            got = nt.sqrt_mod(a, p)
            if a in roots:
                assert got == min(roots[a])
            else:
                assert got is None


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2] + ODD_PRIMES_2000), st.integers(-10 ** 9, 10 ** 9),
       st.booleans())
@example(3, 2, False)  # a non-residue
@example(1999, 10 ** 6, True)  # a residue, 1999 = 3 (mod 4)
@example(1997, 5, True)  # a residue, 1997 = 1 (mod 4): Tonelli-Shanks
def test_sqrt_mod_property_root_search(p, a, square):
    if square:
        a = a * a
    roots = [x for x in range(p) if (x * x - a) % p == 0]
    assert nt.sqrt_mod(a, p) == (roots[0] if roots else None)


def test_sqrt_mod_large(rng):
    for p in (998244353, 1000000007, 4294967311):  # 1 mod 4, 3 mod 4, 3 mod 4
        assert trial_division_is_prime(p) or p > 10 ** 9  # small ones checked
        hits = 0
        for _ in range(200):
            a = rng.randrange(p)
            r = nt.sqrt_mod(a, p)
            if r is None:
                assert pow(a, (p - 1) // 2, p) == p - 1
            else:
                hits += 1
                assert r * r % p == a % p
                assert r <= p - r
        assert hits > 60  # about half of residues are squares
    assert nt.sqrt_mod(3, 2) == 1
    assert nt.sqrt_mod(4, 2) == 0


# ------------------------------------------------------- integer utilities


def test_factorize():
    assert nt.factorize(12) == {2: 2, 3: 1}
    assert nt.factorize(-12) == {2: 2, 3: 1}
    assert nt.factorize(1) == {}
    assert nt.factorize(9999991) == {9999991: 1}
    with pytest.raises(DomainError):
        nt.factorize(0)
    with pytest.raises(CapacityError):
        nt.factorize(nt.FACTOR_CAP + 1)


def test_factorize_roundtrip(rng):
    for _ in range(300):
        n = rng.randrange(2, 10 ** 9)
        fac = nt.factorize(n)
        prod = 1
        for p, e in fac.items():
            assert trial_division_is_prime(p)
            prod *= p ** e
        assert prod == n


def test_int_nth_root(rng):
    assert nt.int_nth_root(0, 5) == 0
    assert nt.int_nth_root(1, 7) == 1
    assert nt.int_nth_root(2 ** 42, 6) == 128
    assert nt.int_nth_root(2 ** 42 - 1, 6) == 127
    with pytest.raises(DomainError):
        nt.int_nth_root(-1, 2)
    with pytest.raises(DomainError):
        nt.int_nth_root(5, 0)
    for _ in range(500):
        k = rng.randrange(1, 13)
        n = rng.randrange(0, 10 ** 18)
        x = nt.int_nth_root(n, k)
        assert x ** k <= n < (x + 1) ** k
    for _ in range(200):
        k = rng.randrange(2, 9)
        m = rng.randrange(1, 10 ** 4)
        assert nt.int_nth_root(m ** k, k) == m
        assert nt.int_nth_root(m ** k - 1, k) == m - 1
