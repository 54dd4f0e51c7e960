"""Exact prime tables and certified analytic number theory helpers.

Primes come from a segmented sieve of Eratosthenes over the odd numbers into
uint32 numpy arrays (exact below the 2^32 hard cap); counts are exact
integers (searchsorted with uint32 keys), never estimates. One shared table
per process serves the queries that need every prime up to a limit, and
grows geometrically from its own limit, never from the request. The inert
window of the construction is sieved on its own, over its class 3 (mod 4)
only, with base primes from that table. Transcendental quantities (log of a
primorial, Chebyshev theta) are returned as interval enclosures from
`enclosure`.
"""

import copy
import math

import numpy as np

from . import enclosure as enc
from .enclosure import iv
from .errors import CapacityError, DomainError

HARD_SIEVE_CAP = 1 << 32
_WINDOW = 1 << 22

_sieve_cap = HARD_SIEVE_CAP


def set_sieve_cap(limit: int) -> None:
    """Lower (or restore) the admissible sieve limit; hard cap is 2^32."""
    global _sieve_cap
    if limit < 2:
        raise DomainError("sieve cap must be >= 2")
    _sieve_cap = min(int(limit), HARD_SIEVE_CAP)


def sieve_cap() -> int:
    return _sieve_cap


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as a uint32 array.

    uint32 is exact: the hard cap is 2^32, and the largest prime below it
    is 4294967291. Only odd numbers are sieved, one `_WINDOW` of the number
    line at a time; 2 is prepended.
    """
    limit = int(limit)
    if limit < 2:
        raise DomainError("sieve limit must be >= 2, got %r" % limit)
    if limit > _sieve_cap:
        raise CapacityError(
            "sieve limit %d exceeds cap %d" % (limit, _sieve_cap))
    root = math.isqrt(limit)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p::p] = False
    base_primes = np.flatnonzero(base)[1:].tolist()  # odd base primes

    chunks = [np.array([2], dtype=np.uint32)]
    for lo in range(0, limit + 1, _WINDOW):
        hi = min(lo + _WINDOW, limit + 1)
        # slot j holds the odd number lo + 1 + 2j (lo is even)
        seg = np.ones((hi - lo) // 2, dtype=bool)
        if lo == 0:
            seg[0] = False  # 1
        for p in base_primes:
            if p * p >= hi:
                break
            start = max(p * p, -(-lo // p) * p)
            if start % 2 == 0:
                start += p
            seg[(start - lo - 1) // 2::p] = False
        chunks.append((np.flatnonzero(seg) * 2 + (lo + 1)).astype(np.uint32))
    return np.concatenate(chunks)


def _rank(arr: np.ndarray, x: int, side: str) -> int:
    """np.searchsorted on a uint32 prime array with a uint32 key.

    A Python int key would make numpy cast the whole array to int64 on
    every call. Clamping is exact: 0 and 2^32 are not prime.
    """
    key = np.uint32(min(max(int(x), 0), HARD_SIEVE_CAP - 1))
    return int(np.searchsorted(arr, key, side=side))


class PrimeTable:
    """Immutable sieve snapshot with exact counting up to `limit`."""

    def __init__(self, limit: int):
        self.limit = int(limit)
        self.primes = sieve_primes(self.limit)

    def __len__(self):
        return len(self.primes)

    def count(self, x: int) -> int:
        """pi(x), exact. Requires x <= limit."""
        self._check(x)
        return _rank(self.primes, x, "right")

    def upto(self, x: int) -> "PrimeTable":
        """A view holding only the primes <= x; it shares this table's array."""
        view = copy.copy(self)
        view.limit = x
        view.primes = self.primes[:_rank(self.primes, x, "right")]
        return view

    def nth(self, i: int) -> int:
        """p_i with p_1 = 2."""
        if i < 1:
            raise DomainError("prime index must be >= 1")
        if i > len(self.primes):
            raise CapacityError("table holds %d primes, need index %d"
                                % (len(self.primes), i))
        return int(self.primes[i - 1])

    def _check(self, x):
        if x > self.limit:
            raise CapacityError("query %d exceeds table limit %d" % (x, self.limit))


_table: PrimeTable = None


def _shared_table(limit: int) -> PrimeTable:
    """The shared table, covering at least `limit`.

    It grows geometrically from its own limit (by at least a quarter, up to
    the sieve cap), so a run of small increases re-sieves only
    logarithmically often, while a jump to a large limit sieves exactly
    that limit.
    """
    global _table
    limit = int(limit)
    if limit > _sieve_cap:
        raise CapacityError("limit %d exceeds sieve cap %d" % (limit, _sieve_cap))
    limit = max(limit, min(1 << 10, _sieve_cap))
    if _table is None or _table.limit < limit:
        old = _table.limit if _table else 0
        _table = PrimeTable(min(max(limit, old + old // 4), _sieve_cap))
    return _table


def table_for(limit: int) -> PrimeTable:
    """The primes <= limit: a view of the shared growing table."""
    return _shared_table(limit).upto(int(limit))


def nth_prime(i: int) -> int:
    """The i-th prime, 1-indexed (nth_prime(1) = 2)."""
    if i < 1:
        raise DomainError("prime index must be >= 1")
    if i < 6:
        return [2, 3, 5, 7, 11][i - 1]
    # Rosser-type upper bound p_i < i (ln i + ln ln i) for i >= 6
    bound = int(i * (math.log(i) + math.log(math.log(i)))) + 16
    return _shared_table(bound).nth(i)


def inert_window(q: int, r: int, p_ell: int) -> np.ndarray:
    """The primes p = 3 (mod 4) with p > p_ell and r <= p^2 <= q (r >= 1).

    These are the candidate inert primes of the construction, as a fresh
    ascending uint32 array. Only the class 3 (mod 4) of [lo, hi] is sieved,
    one `_WINDOW` of slots at a time, with base primes up to sqrt(hi) from
    the shared table; hi = isqrt(q) must be within the sieve cap.
    """
    lo = max(p_ell + 1, math.isqrt(r - 1) + 1)
    hi = math.isqrt(q)
    if hi < lo:
        return np.empty(0, dtype=np.uint32)
    if hi > _sieve_cap:
        raise CapacityError("limit %d exceeds sieve cap %d" % (hi, _sieve_cap))
    root = math.isqrt(hi)
    base = _shared_table(root).primes
    base = base[1:_rank(base, root, "right")].tolist()  # 2 divides no slot
    lo += (3 - lo) % 4
    chunks = [np.empty(0, dtype=np.uint32)]
    for start in range(lo, hi + 1, 4 * _WINDOW):
        # slot j holds start + 4j, the numbers = 3 (mod 4) in the segment
        seg = np.ones((min(start + 4 * _WINDOW, hi + 1) - start + 3) // 4,
                      dtype=bool)
        end = start + 4 * (len(seg) - 1)
        for p in base:
            if p * p > end:
                break
            m = -(-max(start, p * p) // p)
            m += (3 * p - m) % 4  # p * m = 3 (mod 4), then every 4p
            seg[(p * m - start) // 4::p] = False
        chunks.append((np.flatnonzero(seg) * 4 + start).astype(np.uint32))
    return np.concatenate(chunks)


def inert_count(window: np.ndarray, r: int, p_ell: int) -> int:
    """len(inert_window(q, r, p_ell)), read off `window`, an inert window at
    the same q whose r and p_ell are no larger."""
    return len(window) - max(_rank(window, math.isqrt(r - 1), "right"),
                             _rank(window, p_ell, "right"))


_CHUNK_BITS = 4000


def chebyshev_theta(x: int) -> enc.HighReal:
    """theta(x) = sum of log p over primes p <= x, as an enclosure.

    Products of primes are taken exactly in integers, then logged in chunks
    so every rounding step is an outward interval operation.
    """
    if x < 2:
        return iv.mpf(0)
    primes = table_for(int(x)).primes
    total = iv.mpf(0)
    prod = 1
    for p in primes:
        prod *= int(p)
        if prod.bit_length() >= _CHUNK_BITS:
            total += iv.log(iv.mpf(prod))
            prod = 1
    if prod > 1:
        total += iv.log(iv.mpf(prod))
    return total


PRIMORIAL_CAP = 10 ** 5


def primorial_D(ell: int):
    """(D, log D) with D = 4 * p_1 * ... * p_ell, D exact, log D enclosed."""
    if ell < 1:
        raise DomainError("ell must be >= 1")
    if ell > PRIMORIAL_CAP:
        raise CapacityError("ell %d exceeds primorial cap %d" % (ell, PRIMORIAL_CAP))
    p_ell = nth_prime(ell)
    primes = table_for(p_ell).primes
    D = 4
    for p in primes[:ell]:
        D *= int(p)
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
