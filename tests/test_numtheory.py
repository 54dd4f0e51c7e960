"""Prime tables, symbols, and certified analytic helpers.

Oracle policy: counts are cross-checked against implementations that share no
code with the library (bytearray sieve, the plain numpy sieve of
`conftest.inert_primes_oracle`, per-number trial division, exhaustive root
scans), and enclosures are checked against logs of exact integer products.
"""

import math
import time
import tracemalloc
from fractions import Fraction
from itertools import compress

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvforge import enclosure as encl
from gvforge import numtheory as nt
from gvforge.enclosure import iv
from gvforge.errors import CapacityError, DomainError

from conftest import (exact, inert_count_oracle, inert_primes_oracle,
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


# the values one step-12 segment of the window sieve spans, a class at a
# time, and the step-2 segment edges of the prime lists, at the odd numbers
# 1 + 2k * _MIN_WINDOW: up to 2^23 + 2 and to 10^6 + 3 * SEGMENT_SPAN, the
# base primes are too few to lengthen a segment
SEGMENT_SPAN = 12 * nt._MIN_WINDOW
WINDOW_EDGES = [1 + 2 * k * nt._MIN_WINDOW + d for k in (1, 2, 4, 8, 16)
                for d in (-2, -1, 0, 1)]


def fix_segment_length(monkeypatch, window):
    """Make every sieve segment `window` slots long."""
    monkeypatch.setattr(nt, "_MIN_WINDOW", window)
    monkeypatch.setattr(nt, "_MAX_WINDOW", window)


def test_segment_length_follows_the_base_primes():
    """The least power of two >= 128 per base prime, in [2^18, 2^21]: the
    floor up to q = 10^16 (1,228 odd base primes) and past it up to 2,048,
    and 2^20 at the sieve cap, 2^32 (6,541). The segment edges the tests
    below straddle are multiples of the floor."""
    for limit in (WINDOW_EDGES[-1], 10 ** 6 + 3 + 3 * SEGMENT_SPAN):
        base = nt._odd_primes(math.isqrt(limit))
        assert nt._segment_length(base) == nt._MIN_WINDOW == 1 << 18
    for count, length in ((0, 1 << 18), (1228, 1 << 18), (2048, 1 << 18),
                          (2049, 1 << 19), (4096, 1 << 19), (4097, 1 << 20),
                          (6541, 1 << 20), (8192, 1 << 20), (8193, 1 << 21),
                          (10 ** 6, 1 << 21)):
        assert nt._segment_length([3] * count) == length, count
    assert len(nt._odd_primes(10 ** 4)) == 1228
    assert len(nt._odd_primes(1 << 16)) == 6541


@pytest.mark.parametrize("limit", list(range(2, 41)) + WINDOW_EDGES)
def test_sieve_matches_bytearray_oracle(limit):
    got = nt.sieve_primes(limit)
    assert got.typecode == "I" and got.itemsize >= 4
    assert got.tolist() == bytearray_primes(limit)


@pytest.mark.parametrize("window", [1, 2, 3, 7])
def test_sieve_across_segments(monkeypatch, window):
    fix_segment_length(monkeypatch, window)
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
    fix_segment_length(monkeypatch, window)
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


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_inert_counts_at_many_lows(data):
    """Several lows per call, in any order and with repeats: at and across
    the 2^18-slot segment edges of the two classes 7 and 11 (mod 12) that
    the sieve starts at the least low, at a prime p_ell and just past it,
    and above isqrt(q)."""
    least = data.draw(st.integers(0, 10 ** 6), label="least")
    firsts = [max(least, 3) + (c - max(least, 3)) % 12  # each class's slot 0
              for c in (7, 11)]
    edges = [first + k * SEGMENT_SPAN + d for first in firsts for k in (1, 2)
             for d in range(-13, 14)]
    hi = data.draw(st.one_of(st.sampled_from(edges),
                             st.integers(least, least + 3 * SEGMENT_SPAN)),
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


def test_inert_counts_memory_stays_within_a_segment():
    """At q = 10^16 the window sieve holds one 2^18-slot segment for both
    classes, its two 16 KiB blocks, one 16 KiB popcount and the offsets of
    1,227 base primes: a traced peak under 0.45 MiB, which one 2^19-slot
    segment of the class 3 (mod 4) with 64 KiB blocks (0.78 MiB) exceeds,
    and a 2^21-slot segment (2.7 MiB) far more."""
    tracemalloc.start()
    try:
        counts = nt.inert_counts(10 ** 16, [307, 69_900_000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [2880918, 824353]
    assert peak < 0.45 * 2 ** 20, peak


@pytest.mark.parametrize("block, window", [(2, None), (3, None), (5, 16)])
def test_chunked_strikes_match_the_oracles(monkeypatch, rng, block, window):
    """With the blocks patched down to a few bytes, every prime with more
    multiples in a segment than a block holds is struck a block's length
    at a time, and each segment is refilled in as many pieces. Seeded
    limits and windows, in full 2^18-slot segments and in short ones, still
    give the odd primes of the bytearray sieve and the inert counts of the
    numpy oracle."""
    monkeypatch.setattr(nt, "_REFILL", block)
    top = SEGMENT_SPAN  # top // 2: 3 step-2 segments; top: 1 step-12 a class
    if window:
        fix_segment_length(monkeypatch, window)
        top = 4000
    for limit in [rng.randrange(2, 3000) for _ in range(4)] + [
            top // 2 + rng.randrange(-9, 10)]:
        assert nt._odd_primes(limit) == bytearray_primes(limit)[1:], limit
    hi = rng.randrange(1000, top)
    q = hi * hi + rng.randrange(2 * hi + 1)
    lows = [rng.randrange(hi + 4) for _ in range(6)]
    assert nt.inert_counts(q, lows) == [inert_count_oracle(q, 1, lo - 1)
                                        for lo in lows]


# lows next to the wheel's classes: 3, the least base prime 5, the first
# slots 7 and 11 of the two classes, 13 and 49 = 7^2, and each residue
# 6, 7, 8, 10, 11 and 12 (mod 12) around a low of either class
WHEEL_LOWS = [3, 5, 7, 11, 13, 49] + [12 * k + d for k in (1, 2, 7, 40, 833)
                                      for d in (6, 7, 8, 10, 11, 12)]


@pytest.mark.parametrize("block, window",
                         [(None, None), (2, 1), (3, 2), (5, 3), (2, 5), (3, 7)])
def test_wheel_edges_match_the_oracle(monkeypatch, block, window):
    """The two classes 7 and 11 (mod 12) and the prime 3 counted on its own
    give the inert counts of the numpy oracle: at lows on and next to each
    class, at q below 9, 49 and 121 and at and next to prime squares, and
    in windows where class 11 holds one slot more than class 7. With the
    blocks and segments patched down to a few slots, each class ends in a
    short segment whose stale tail must read as zeros, and the one buffer
    passes from class 7 to class 11."""
    if block:
        monkeypatch.setattr(nt, "_REFILL", block)
    if window:
        fix_segment_length(monkeypatch, window)
    squares = [p * p + d for p in (3, 5, 7, 11, 13, 19, 23, 43, 47, 71, 499,
                                   10007) for d in (-1, 0, 1)]
    for q in list(range(1, 9)) + [24, 25, 48, 49, 120, 121] + squares:
        got = nt.inert_counts(q, WHEEL_LOWS)
        assert got == [inert_count_oracle(q, 1, lo - 1) for lo in WHEEL_LOWS], q
        assert [nt.inert_counts(q, [lo])[0] for lo in WHEEL_LOWS] == got, q
    # from a low of 8 (mod 12), class 11 starts 8 below class 7, so a top
    # of 11 (mod 12) gives it the one slot more, and that slot holds a prime
    for lo, hi in ((8, 11), (8, 71), (10004, 10247)):
        s7, s11 = (lo + (c - lo) % 12 for c in (7, 11))
        assert (hi - s11) // 12 == (hi - s7) // 12 + 1
        for q in (hi * hi, hi * hi + 2 * hi):
            assert inert_count_oracle(q, 1, hi - 1) == 1
            assert nt.inert_counts(q, [lo, hi, hi + 1]) == [
                inert_count_oracle(q, 1, lo - 1), 1, 0]


def test_small_window_sieves_allocate_no_long_blocks():
    """At q = 2^20 the window holds 85 slots a class: the buffer and its
    refill and zero blocks stay that short, a traced peak under 8 KiB."""
    nt.inert_counts(2 ** 20, [3, 500])
    tracemalloc.start()
    try:
        counts = nt.inert_counts(2 ** 20, [3, 500])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [inert_count_oracle(2 ** 20, 1, lo - 1) for lo in (3, 500)]
    assert peak < 8 * 2 ** 10, peak


def test_table_for_stops_at_x():
    assert nt.table_for(100).tolist() == [n for n in range(2, 101)
                                          if trial_division_is_prime(n)]


def test_first_primes():
    assert [nt.first_primes(i)[-1] for i in range(1, 7)] == [2, 3, 5, 7, 11, 13]
    for n in (1, 5, 6, 7, 125, 1000):
        assert nt.first_primes(n).tolist() == bytearray_primes(7919)[:n]
    assert nt.first_primes(125)[-1] == 691
    assert nt.first_primes(1000)[-1] == 7919
    assert trial_division_is_prime(7919)
    assert len(nt.table_for(7919)) == 1000
    assert len(nt.table_for(7918)) == 999
    with pytest.raises(DomainError):
        nt.first_primes(0)


# ------------------------------------------------- theta and the primorial


def test_chebyshev_theta_small():
    theta10 = nt.chebyshev_theta(10)
    assert overlap(theta10, iv.log(iv.mpf(210)))  # 2 * 3 * 5 * 7
    assert encl.width(theta10) < exact(mpmath.mpf("1e-30"))
    assert encl.midpoint(nt.chebyshev_theta(1)) == 0
    assert overlap(nt.chebyshev_theta(2), iv.log(iv.mpf(2)))


def test_chebyshev_theta_exact_product_oracle():
    prod = 1
    for p in nt.table_for(1000):
        if p <= 691:
            prod *= p
    theta = nt.chebyshev_theta(691)
    assert overlap(theta, iv.log(iv.mpf(prod)))
    assert encl.width(theta) < exact(mpmath.mpf("1e-28"))


def test_primorial_matches_theta():
    """D = 4 p_1 ... p_ell over the first_primes list: log D meets
    log 4 + theta(p_ell)."""
    for ell in (1, 2, 5, 50, 125):
        primes = nt.first_primes(ell)
        logD = iv.log(iv.mpf(4 * math.prod(primes)))
        recon = iv.log(iv.mpf(4)) + nt.chebyshev_theta(primes[-1])
        assert overlap(logD, recon)
        assert encl.width(logD) < exact(mpmath.mpf("1e-28"))
    assert 4 * math.prod(nt.first_primes(1)) == 8
    assert 4 * math.prod(nt.first_primes(3)) == 120


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


def test_int_nth_root_past_double_precision(rng):
    """Roots past 2^53, where a float guess is off by far more than the
    steps a +-1 walk can take, and n past the float range are exact."""
    for _ in range(2000):
        k = rng.randrange(2, 10)
        n = rng.randrange(1, 2 ** rng.randrange(1, 2200))
        x = nt.int_nth_root(n, k)
        assert x ** k <= n < (x + 1) ** k, (n, k)
    for k in range(1, 8):
        for n in range(5000):
            x = nt.int_nth_root(n, k)
            assert x ** k <= n < (x + 1) ** k, (n, k)
    assert nt.int_nth_root(2 ** 468, 6) == 2 ** 78
    assert nt.int_nth_root(2 ** 468 - 1, 6) == 2 ** 78 - 1
    t0 = time.perf_counter()
    for n in (2 ** 470, 2 ** 1100):
        x = nt.int_nth_root(n, 6)
        assert x ** 6 <= n < (x + 1) ** 6
    assert time.perf_counter() - t0 < 0.5


# ------------------------------------------------------------ rationals


@given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30),
       st.integers(0, 40))
def test_parse_rational_reads_integers_fractions_and_decimals(a, b, places):
    """a, a/b and a plain decimal with `places` digits after the point give
    the same Fraction as the fractions module; decimals only when asked."""
    assert nt.parse_rational(str(a)) == a
    assert nt.parse_rational("%d/%d" % (a, b), decimals=False) == Fraction(a, b)
    digits = str(abs(a)).rjust(places + 1, "0")
    text = "-" * (a < 0) + digits[:len(digits) - places] + "." + \
        digits[len(digits) - places:]
    assert nt.parse_rational(text) == Fraction(a, 10 ** places)
    assert nt.parse_rational(text, decimals=False) is None


def test_parse_rational_refuses_exponents_and_long_text(monkeypatch):
    """Exponents, signs '+', white space, zero denominators and text past
    RATIONAL_CHARS are refused before any Fraction is built."""
    assert nt.parse_rational(".5") == Fraction(1, 2)
    assert nt.parse_rational("-3.") == -3
    long = "1" * nt.RATIONAL_CHARS
    assert nt.parse_rational(long) == int(long)

    def built(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(nt, "Fraction", built)
    for bad in ("1e-4000000", "1E5", "2.5e3", "+1/2", " 1/2", "1/2 ", "1/0",
                "1/-2", "1_000", "nan", "inf", "", ".", "-", "1/2/3", "0x10",
                "1" * (nt.RATIONAL_CHARS + 1), "0." + "1" * 5000):
        assert nt.parse_rational(bad) is None, bad



def test_import_compiles_no_rational_pattern():
    """The rational pattern is kept as text and compiled by `re` on the
    first parse, so the commands that never read a rational do not pay to
    compile it."""
    import re
    assert isinstance(nt._RATIONAL, str)
    assert [name for name, value in vars(nt).items()
            if isinstance(value, re.Pattern)] == []
