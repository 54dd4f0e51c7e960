"""Exact prime tables and certified analytic number theory helpers.

Primes come from one segmented sieve of Eratosthenes over arithmetic
progressions (the odd numbers, or the classes 7 and 11 (mod 12)), on one
bytearray buffer, with no numpy. Each base prime's next multiple is
carried from one segment to the next as an offset, and the segment length
follows the number of base primes: 2^18 slots up to 2,048 of them (q <=
10^16 has 1,228), 2^19 up to 4,096, 2^20 up to 8,192 (the 2^32 cap has
6,541) and 2^21 beyond, so a small sieve stays in cache and a large one
pays each prime's step over more slots. The module keeps no state between
calls: each caller sieves exactly the primes it asks for, as an
`array('I')` (exact below the 2^32 hard cap), either every prime up to a
limit or the first n primes. The inert window of the construction is only
counted, never listed: one pass over the classes 7 and 11 (mod 12), which
hold every prime = 3 (mod 4) but 3, with its own base primes, counts the
primes above each of several lower ends at once by popcount.
Chebyshev theta is returned as an interval enclosure from `enclosure`,
which `chebyshev_theta` imports itself, so that the sieve and the exact
helpers load no interval code. The primorial D = 4 p_1 ... p_ell of a
witness, and theta(p_ell) in its certificate, are built in `bounds` from
the same `first_primes` list that gives p_ell. `parse_rational` is the
package's one reader of rationals from text, for the CLI's options and a
code file's shift.
"""

import math
import re
from array import array
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, compress

from .errors import CapacityError, DomainError

HARD_SIEVE_CAP = 1 << 32
_MIN_WINDOW = 1 << 18  # least and greatest slots per sieve segment
_MAX_WINDOW = 1 << 21
_REFILL = 1 << 14  # bytes of the blocks that fill, strike and count a segment


def check_cap(limit: int) -> None:
    """Refuse a sieve past HARD_SIEVE_CAP."""
    if limit > HARD_SIEVE_CAP:
        raise CapacityError(
            "limit %d exceeds sieve cap %d" % (limit, HARD_SIEVE_CAP))


def _segment_length(base: list) -> int:
    """Slots per segment of a sieve with base primes `base`: the least power
    of two >= 128 len(base), clamped to [_MIN_WINDOW, _MAX_WINDOW]. Few base
    primes leave a short segment that stays in cache; many keep it long, so
    each prime's step into a segment is paid over more slots."""
    n = 1 << (128 * len(base) - 1).bit_length()
    return min(max(n, _MIN_WINDOW), _MAX_WINDOW)


def _fill(seg: bytearray, a: int, b: int, step: int, block: memoryview):
    """Set seg[a:b:step] to the byte `block` repeats, a block's length of
    slots at a time, without resizing seg."""
    for j in range(a, b, step * len(block)):
        seg[j:min(j + step * len(block), b):step] = block[
            :(b - 1 - j) // step + 1]


def _segments(starts, stop, step, base):
    """Yield (lo, seg) over the progressions start, start + step, ... <= stop,
    one start of `starts` after another: seg[j] is 1 when lo + step*j <= stop
    and no prime in `base` divides it, apart from the base primes
    themselves, and 0 otherwise.

    step is 2 or 12; `base` holds, ascending, the primes up to at least
    sqrt(stop) that do not divide step. Each segment holds
    `_segment_length(base)` slots, or as many as the longest progression
    when it is shorter. One buffer holds every segment of every progression
    in turn, and is never resized, so the caller must be done with a
    segment before it asks for the next: a short last segment strikes only
    its first n slots and zeroes the rest. The buffer is refilled with ones
    from a block of at most _REFILL bytes, and multiples are struck from a
    zero block of the same size: a prime with more multiples in the segment
    than the block holds (p < 16 at 2^18 slots) is struck a block's length
    at a time.

    Offsets are carried: a prime joins once p^2 falls inside the current
    segment, with the slot of its first multiple p*m at or past max(lo, p^2)
    in the progression, m = start*p (mod step) since p^2 = 1 (mod 24) for
    every prime p >= 5 (and p^2 = 1 (mod 2) for step 2). Its multiples then
    follow every p slots, so after striking a segment of n slots from
    offset i < n + p, the next segment's offset is (i - n) mod p.
    """
    width = _segment_length(base)
    size = min(width, (stop - min(starts)) // step + 1)
    if size < 1:
        return
    seg = bytearray(size)
    ones = memoryview(b"\x01" * min(size, _REFILL))
    zeros = memoryview(bytes(len(ones)))
    for start in starts:
        offsets = []  # of the base primes base[:len(offsets)] whose p^2 <= end
        for lo in range(start, stop + 1, step * width):
            n = min(width, (stop - lo) // step + 1)
            _fill(seg, 0, n, 1, ones)
            _fill(seg, n, size, 1, zeros)
            end = lo + step * (n - 1)
            while len(offsets) < len(base) and base[len(offsets)] ** 2 <= end:
                p = base[len(offsets)]
                m = -(-max(lo, p * p) // p)
                m += (start * p - m) % step
                offsets.append((p * m - lo) // step)
            for k, (p, i) in enumerate(zip(base, offsets)):
                count = (n - 1 - i) // p + 1
                if count <= len(zeros):  # count >= 0, as i < n + p
                    seg[i:n:p] = zeros[:count]
                else:  # p < n / len(zeros): a block's length at a time
                    _fill(seg, i, n, p, zeros)
                offsets[k] = (i - n) % p
            yield lo, seg


def _survivors(lo: int, seg: bytearray, step: int):
    """The numbers of a segment from `_segments` that no base prime struck."""
    return compress(range(lo, lo + step * len(seg), step), seg)


def _odd_primes(n: int) -> list:
    """The odd primes <= n, as Python ints: the base primes of a sieve up to
    n^2."""
    if n < 3:
        return []
    return [p for lo, seg in _segments([3], n, 2, _odd_primes(math.isqrt(n)))
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
    for lo, seg in _segments([1], limit, 2, _odd_primes(math.isqrt(limit))):
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


def inert_counts(q: int, lows) -> list:
    """For each lo in `lows`, the number of primes p = 3 (mod 4) with
    lo <= p <= isqrt(q): the candidate inert primes of the construction.

    Every such prime but 3 is 7 or 11 (mod 12). One count-only pass sieves
    those two classes of [min(lows), isqrt(q)], one after the other in one
    buffer, with the primes from 5 up to q^(1/4) as base primes; no prime is
    kept, and 3 is counted on its own when a low reaches it. The distinct
    lows cut the window into stretches, each segment's ones are counted once
    per stretch it meets, by popcount, and suffix sums give the count at
    each low. isqrt(q) must be within the sieve cap unless no low reaches
    it.
    """
    lows = [max(int(lo), 3) for lo in lows]
    hi = math.isqrt(q)
    edges = sorted(set(lo for lo in lows if lo <= hi))
    if not edges:
        return [0] * len(lows)
    check_cap(hi)
    stretch = [0] * len(edges)  # primes in [edges[i], edges[i + 1])
    stretch[0] = int(edges[0] == 3)
    starts = [edges[0] + (c - edges[0]) % 12 for c in (7, 11)]
    base = _odd_primes(math.isqrt(hi))[1:]  # 3 divides the step
    for lo, seg in _segments(starts, hi, 12, base):
        n = len(seg)
        top = lo + 12 * n
        # slot j holds lo + 12*j; the first slot >= v is ceil((v - lo)/12)
        i = bisect_right(edges, lo) - 1
        with memoryview(seg) as view:
            while i < len(edges) and edges[i] < top:
                a = max((edges[i] - lo + 11) // 12, 0)
                b = (edges[i + 1] - lo + 11) // 12 if i + 1 < len(edges) else n
                b = min(b, n)
                # the popcount of each block of _REFILL 0/1 bytes as one int
                stretch[i] += sum(
                    int.from_bytes(view[j:min(j + _REFILL, b)], "little")
                    .bit_count() for j in range(a, b, _REFILL))
                i += 1
    above = dict(zip(reversed(edges), accumulate(reversed(stretch))))
    return [above.get(lo, 0) for lo in lows]


_CHUNK_BITS = 4000


def chebyshev_theta(x: int, primes=None):
    """theta(x) = sum of log p over primes p <= x, as an enclosure.

    `primes`, when the caller already holds them, are the primes up to x;
    otherwise they are sieved here. Products of primes are taken exactly in
    integers, then logged in chunks so every rounding step is an outward
    interval operation.
    """
    from .enclosure import iv
    if x < 2:
        return iv.mpf(0)
    total = iv.mpf(0)
    prod = 1
    for p in sieve_primes(int(x)) if primes is None else primes:
        prod *= p
        if prod.bit_length() >= _CHUNK_BITS:
            total += iv.log(iv.mpf(prod))
            prod = 1
    if prod > 1:
        total += iv.log(iv.mpf(prod))
    return total


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
    # integer Newton steps down from 2^ceil(bits/k) >= n^(1/k); the first
    # step that does not decrease x stops at the floor of the root
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


# an integer or a/b with b > 0, and in group 1 a plain decimal
_RATIONAL = r"-?(?:[0-9]+(?:/[0-9]*[1-9][0-9]*)?|([0-9]*\.[0-9]+|[0-9]+\.))"
RATIONAL_CHARS = 200


def parse_rational(text: str, decimals: bool = True):
    """The Fraction that text writes as an integer, as a/b with b > 0 or,
    when decimals, as a plain decimal (0.25, .5, 3.), each with an optional
    minus sign; None for any other text.

    An exponent (1e-3), a sign '+', white space and text longer than
    RATIONAL_CHARS are refused before any Fraction is built, so no text
    makes the parser build a large power of ten or a long integer.
    """
    m = re.fullmatch(_RATIONAL, text) if len(text) <= RATIONAL_CHARS else None
    if m is None or (m.group(1) and not decimals):
        return None
    return Fraction(text)
