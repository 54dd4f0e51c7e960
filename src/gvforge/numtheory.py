"""Exact prime tables and certified analytic number theory helpers.

Primes come from one segmented sieve of Eratosthenes over an odd arithmetic
progression (the odd numbers, or the numbers = 3 (mod 4)), on bytearray
segments, with no numpy. The module keeps no state between calls: each
caller sieves exactly the primes it asks for, as an `array('I')` (exact
below the 2^32 hard cap), either every prime up to a limit or the first n
primes. The inert window of the construction is only counted, never
listed: one pass over its class 3 (mod 4), with its own base primes, counts
the primes above each of several lower ends at once.
Transcendental quantities (log of a primorial, Chebyshev theta) are returned
as interval enclosures from `enclosure`, which the two functions that need
it import, so that the sieve and the exact helpers never load mpmath.
"""

import math
from array import array
from bisect import bisect_right
from itertools import accumulate, compress

from .errors import CapacityError, DomainError

HARD_SIEVE_CAP = 1 << 32
_WINDOW = 1 << 21


def check_cap(limit: int) -> None:
    """Refuse a sieve past HARD_SIEVE_CAP."""
    if limit > HARD_SIEVE_CAP:
        raise CapacityError(
            "limit %d exceeds sieve cap %d" % (limit, HARD_SIEVE_CAP))


def _segments(start: int, stop: int, step: int, base: list):
    """Yield (lo, seg) over the progression start, start + step, ... <= stop:
    seg[j] is 1 when no prime in `base` divides lo + step*j, apart from the
    base primes themselves, and 0 otherwise.

    step is 2 or 4 and start is odd; `base` holds the odd primes up to at
    least sqrt(stop). Each segment holds at most `_WINDOW` slots, and the
    first is the largest, so the zero buffer that strikes multiples is sized
    to it. The first multiple p*m of p at or past max(lo, p^2) in the
    progression has m = start*p (mod step), since p^2 = 1 (mod 8); the next
    ones follow every p slots.
    """
    zeros = None
    for lo in range(start, stop + 1, step * _WINDOW):
        n = (min(lo + step * _WINDOW, stop + 1) - lo + step - 1) // step
        if zeros is None:
            zeros = memoryview(bytes(n))
        seg = bytearray(b"\x01") * n
        end = lo + step * (n - 1)
        for p in base:
            if p * p > end:
                break
            m = -(-max(lo, p * p) // p)
            m += (start * p - m) % step
            i = (p * m - lo) // step
            seg[i::p] = zeros[:len(range(i, n, p))]
        yield lo, seg


def _survivors(lo: int, seg: bytearray, step: int):
    """The numbers of a segment from `_segments` that no base prime struck."""
    return compress(range(lo, lo + step * len(seg), step), seg)


def _odd_primes(n: int) -> list:
    """The odd primes <= n, as Python ints: the base primes of a sieve up to
    n^2."""
    if n < 3:
        return []
    return [p for lo, seg in _segments(3, n, 2, _odd_primes(math.isqrt(n)))
            for p in _survivors(lo, seg, 2)]


def sieve_primes(limit: int) -> array:
    """All primes <= limit, ascending, as an array('I').

    'I' is exact: the hard cap is 2^32, and the largest prime below it is
    4294967291. Only odd numbers are sieved; the first slot holds 1, which
    no prime strikes, and is overwritten by 2. Each segment's primes are
    appended in place, so the table is never copied.
    """
    limit = int(limit)
    if limit < 2:
        raise DomainError("sieve limit must be >= 2, got %r" % limit)
    check_cap(limit)
    primes = array("I")
    for lo, seg in _segments(1, limit, 2, _odd_primes(math.isqrt(limit))):
        primes.extend(_survivors(lo, seg, 2))
    primes[0] = 2
    return primes


# perfbench/tracer.py wraps `table_for` by name, so the name stays until the
# benchmark's next change drops it from the tracer. It is a function rather
# than `table_for = sieve_primes`: the tracer replaces every attribute that
# holds the function it wraps, so it would wrap that one object twice and
# leave a wrapper in place when it restores the module.
def table_for(limit: int) -> array:
    """All primes <= limit: `sieve_primes` under its old name."""
    return sieve_primes(limit)


def first_primes(n: int) -> array:
    """The first n primes, ascending, from one sieve up to the Rosser-type
    bound p_n < n (ln n + ln ln n), which holds for n >= 6."""
    if n < 1:
        raise DomainError("prime index must be >= 1")
    j = max(n, 6)
    primes = sieve_primes(int(j * (math.log(j) + math.log(math.log(j)))) + 16)
    if n > len(primes):
        raise CapacityError("sieve holds %d primes, need index %d"
                            % (len(primes), n))
    return primes[:n]


def nth_prime(i: int) -> int:
    """The i-th prime, 1-indexed (nth_prime(1) = 2)."""
    return first_primes(i)[-1]


def inert_counts(q: int, lows) -> list:
    """For each lo in `lows`, the number of primes p = 3 (mod 4) with
    lo <= p <= isqrt(q): the candidate inert primes of the construction.

    One count-only pass sieves the class 3 (mod 4) of [min(lows), isqrt(q)],
    with base primes up to q^(1/4); no prime is kept. The distinct lows cut
    the window into stretches, each segment counts its part of every
    stretch once, and suffix sums give the count at each low. isqrt(q) must
    be within the sieve cap unless no low reaches it.
    """
    lows = [max(int(lo), 3) for lo in lows]
    hi = math.isqrt(q)
    edges = sorted(set(lo for lo in lows if lo <= hi))
    if not edges:
        return [0] * len(lows)
    check_cap(hi)
    start = edges[0] + (3 - edges[0]) % 4
    stretch = [0] * len(edges)  # primes in [edges[i], edges[i + 1])
    for lo, seg in _segments(start, hi, 4, _odd_primes(math.isqrt(hi))):
        n = len(seg)
        top = lo + 4 * n
        # slot j holds lo + 4*j; the first slot >= v is ceil((v - lo)/4)
        i = bisect_right(edges, lo) - 1
        while i < len(edges) and edges[i] < top:
            a = max((edges[i] - lo + 3) // 4, 0)
            b = (edges[i + 1] - lo + 3) // 4 if i + 1 < len(edges) else n
            stretch[i] += seg.count(1, a, min(b, n))
            i += 1
    above = dict(zip(reversed(edges), accumulate(reversed(stretch))))
    return [above.get(lo, 0) for lo in lows]


_CHUNK_BITS = 4000


def chebyshev_theta(x: int):
    """theta(x) = sum of log p over primes p <= x, as an enclosure.

    Products of primes are taken exactly in integers, then logged in chunks
    so every rounding step is an outward interval operation.
    """
    from .enclosure import iv
    if x < 2:
        return iv.mpf(0)
    total = iv.mpf(0)
    prod = 1
    for p in sieve_primes(int(x)):
        prod *= p
        if prod.bit_length() >= _CHUNK_BITS:
            total += iv.log(iv.mpf(prod))
            prod = 1
    if prod > 1:
        total += iv.log(iv.mpf(prod))
    return total


PRIMORIAL_CAP = 10 ** 5


def primorial_D(ell: int):
    """(D, log D) with D = 4 * p_1 * ... * p_ell, D exact, log D enclosed."""
    from .enclosure import iv
    if ell < 1:
        raise DomainError("ell must be >= 1")
    if ell > PRIMORIAL_CAP:
        raise CapacityError("ell %d exceeds primorial cap %d" % (ell, PRIMORIAL_CAP))
    D = 4
    for p in first_primes(ell):
        D *= p
    return D, iv.log(iv.mpf(D))


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n), fully extended (n may be 0, negative, even)."""
    a, n = int(a), int(n)
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        e = 0
        while n % 2 == 0:
            n //= 2
            e += 1
        if e % 2 == 1 and a % 8 in (3, 5):
            result = -result
    # now n is odd and positive; plain Jacobi loop with reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod(a: int, p: int):
    """Smallest square root of a mod prime p, or None if a is a non-residue."""
    a %= p
    if p == 2:
        return a
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        # Tonelli-Shanks
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            t2, i = t, 0
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
    assert r * r % p == a, "root verification failed"
    return min(r, p - r)


FACTOR_CAP = 10 ** 14


def factorize(n: int) -> dict:
    """Trial-division factorization of |n| (n != 0), capped at |n| <= 1e14."""
    n = abs(int(n))
    if n == 0:
        raise DomainError("cannot factor 0")
    if n > FACTOR_CAP:
        raise CapacityError("|n| = %d exceeds factorization cap %d" % (n, FACTOR_CAP))
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def int_nth_root(n: int, k: int) -> int:
    """floor(n^(1/k)) exactly, n >= 0, k >= 1."""
    if n < 0 or k < 1:
        raise DomainError("int_nth_root needs n >= 0, k >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    x = int(round(n ** (1.0 / k)))
    x = max(x, 1)
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x
