"""Quadratic fields: discriminant validation, prime splitting, class-group
data from reduced binary quadratic forms, and class-field-tower certification.

Everything here is exact integer arithmetic except the reported tower
threshold, which is an interval enclosure. numpy (in the class-group scan)
and `enclosure` (for the threshold) are imported by the functions that use
them, so that listing prime ideals loads neither.
"""

import math
from dataclasses import dataclass
from typing import Optional

from . import numtheory as nt
from .errors import CapacityError, DomainError

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"


@dataclass(frozen=True)
class QuadraticField:
    """K = Q(sqrt(disc)) for a fundamental discriminant disc.

    `radicand` is d with omega = sqrt(d) when disc = 4d, and disc itself when
    disc is 1 mod 4 (omega = (1 + sqrt(disc))/2). (s, t) counts real and
    complex places; prime_divisors lists the distinct primes dividing disc.
    """

    disc: int
    radicand: int
    s: int
    t: int
    prime_divisors: tuple

    @property
    def omega_desc(self) -> str:
        if self.disc % 4 == 0:
            return "sqrt(%d)" % self.radicand
        return "(1+sqrt(%d))/2" % self.disc

    @property
    def trace_omega(self) -> int:
        return 0 if self.disc % 4 == 0 else 1

    @property
    def norm_omega(self) -> int:
        if self.disc % 4 == 0:
            return -self.radicand
        return (1 - self.disc) // 4

    @property
    def archimedean_places(self) -> int:
        # two real places, or one complex place
        return 2 if self.disc > 0 else 1

    def norm(self, u: int, v: int) -> int:
        """Field norm of u + v*omega, exact (signed; negative possible for disc > 0)."""
        return u * u + self.trace_omega * u * v + self.norm_omega * v * v


@dataclass(frozen=True)
class PrimeIdealRecord:
    """One prime ideal above p: its type, absolute norm, and residue data.

    residue_root c satisfies omega = c (mod P) on the degree-one quotient;
    it is None exactly for inert primes (quotient has p^2 elements).
    conjugate_index is 0 for the unique ideal, or 0/1 for the two split
    conjugates ordered by ascending residue root.
    """

    p: int
    split_type: str
    norm: int
    conjugate_index: int
    residue_root: Optional[int]


@dataclass(frozen=True)
class ClassGroupSummary:
    h: int
    two_rank: int


@dataclass(frozen=True)
class TowerCertificate:
    disc: int
    s_c_size: int
    d2_lower: int
    threshold: object  # HighReal enclosure of 2 + 2*sqrt(n)
    passes: bool


def is_fundamental(disc: int, prime_divisors=None) -> bool:
    try:
        _validated_divisors(disc, prime_divisors)
        return True
    except DomainError:
        return False


def _validated_divisors(disc: int, prime_divisors=None) -> tuple:
    """Check disc is a fundamental discriminant; return its distinct primes."""
    if disc in (0, 1) :
        raise DomainError("discriminant must not be 0 or 1")
    m = disc % 4
    if m in (2, 3):
        raise DomainError("disc = %d is 2 or 3 mod 4, not a discriminant" % disc)
    if prime_divisors is not None:
        fac = _factor_from_hint(disc, prime_divisors)
    else:
        fac = nt.factorize(disc)
    v2 = fac.get(2, 0)
    if m == 1:
        if v2 != 0 or any(e != 1 for e in fac.values()):
            raise DomainError("disc = %d is 1 mod 4 but not squarefree" % disc)
    else:
        d = disc // 4
        if d % 4 not in (2, 3):
            raise DomainError(
                "disc = %d is 4*d with d = %d = %d mod 4; need d = 2 or 3 mod 4"
                % (disc, d, d % 4))
        if any(e != 1 for p, e in fac.items() if p != 2):
            raise DomainError("disc = %d has a square odd factor" % disc)
        if v2 not in (2, 3):
            raise DomainError("disc = %d has 2-adic valuation %d" % (disc, v2))
    return tuple(sorted(fac))


def _factor_from_hint(disc: int, prime_divisors) -> dict:
    primes = sorted(set(int(p) for p in prime_divisors))
    m = abs(disc)
    fac = {}
    for p in primes:
        if p < 2 or not _is_prime_small(p):
            raise DomainError("hinted divisor %d is not prime" % p)
        if m % p != 0:
            raise DomainError("hinted divisor %d does not divide disc" % p)
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        fac[p] = e
    if m != 1:
        raise DomainError("prime_divisors hint does not cover disc (left %d)" % m)
    return fac


def _is_prime_small(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the sizes used here."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def make_field(disc: int, prime_divisors=None) -> QuadraticField:
    """Build K = Q(sqrt(disc)); disc must be fundamental.

    For |disc| beyond the trial-division cap, pass the distinct prime
    divisors; they are verified, not trusted.
    """
    divisors = _validated_divisors(disc, prime_divisors)
    radicand = disc if disc % 4 == 1 else disc // 4
    s, t = (2, 0) if disc > 0 else (0, 1)
    return QuadraticField(disc=disc, radicand=radicand, s=s, t=t,
                          prime_divisors=divisors)


def splitting_type(K: QuadraticField, p: int) -> list:
    """Prime ideals of K above the rational prime p, with residue roots.

    The minimal polynomial of omega is x^2 - T x + N; split primes get the
    two roots mod p (ascending), ramified primes the double root, inert
    primes no root (residue field is the quadratic extension).
    """
    p = int(p)
    if p < 2 or not _is_prime_small(p):
        raise DomainError("p = %r is not prime" % p)
    sym = nt.kronecker_symbol(K.disc, p)
    T, N = K.trace_omega, K.norm_omega
    if sym == -1:
        return [PrimeIdealRecord(p, INERT, p * p, 0, None)]
    if sym == 0:
        if p == 2:
            c = K.radicand % 2
        elif K.disc % 4 == 0:
            c = 0
        else:
            c = (p + 1) // 2
        assert (c * c - T * c + N) % p == 0
        return [PrimeIdealRecord(p, RAMIFIED, p, 0, c)]
    if p == 2:
        roots = [0, 1]
    else:
        srt = nt.sqrt_mod(K.disc % p, p)
        inv2 = (p + 1) // 2
        roots = sorted(((T + srt) * inv2 % p, (T - srt) * inv2 % p))
    assert roots[0] != roots[1]
    for c in roots:
        assert (c * c - T * c + N) % p == 0
    return [PrimeIdealRecord(p, SPLIT, p, i, c) for i, c in enumerate(roots)]


def prime_ideals_in_norm_range(K: QuadraticField, r: int, q: int) -> list:
    """All prime ideals P of K with r <= N(P) <= q, sorted by (p, conjugate).

    Split and ramified primes contribute at norm p, inert primes at norm p^2.
    """
    if not 2 <= r <= q:
        raise DomainError("need 2 <= r <= q, got r=%r q=%r" % (r, q))
    out = []
    inert_max = math.isqrt(q)
    for p in nt.sieve_primes(q):
        sym = nt.kronecker_symbol(K.disc, p)
        if sym == -1:
            if p <= inert_max and p * p >= r:
                out.extend(splitting_type(K, p))
        else:
            if p >= r:
                out.extend(splitting_type(K, p))
    return out


CLASS_GROUP_CAP = 10 ** 8


def class_group_imaginary(K: QuadraticField) -> ClassGroupSummary:
    """Class number and 2-rank by exhaustive reduced-form enumeration.

    Reduced positive definite forms (a, b, c) with b^2 - 4ac = disc,
    |b| <= a <= c, gcd 1, and b >= 0 when |b| = a or a = c are in bijection
    with ideal classes. The 2-rank comes from the count of ambiguous reduced
    forms (b = 0, a = b, or a = c), which is exactly 2^rank.
    """
    import numpy as np
    D = K.disc
    if D >= 0:
        raise DomainError("class group enumeration requires an imaginary field")
    if -D > CLASS_GROUP_CAP:
        raise CapacityError("|disc| = %d exceeds cap %d" % (-D, CLASS_GROUP_CAP))
    a_max = math.isqrt(-D // 3)
    parity = D & 1
    h = 0
    ambiguous = 0
    for a in range(1, a_max + 1):
        four_a = 4 * a
        b0 = -a + 1
        if (b0 & 1) != parity:
            b0 += 1
        bs = np.arange(b0, a + 1, 2, dtype=np.int64)
        for b in bs[(bs * bs - D) % four_a == 0].tolist():
            c = (b * b - D) // four_a
            if c < a:
                continue
            if b < 0 and a == c:
                continue
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            h += 1
            if b == 0 or a == b or a == c:
                ambiguous += 1
    assert ambiguous & (ambiguous - 1) == 0, "ambiguous count must be a power of 2"
    two_rank = ambiguous.bit_length() - 1
    assert h % ambiguous == 0
    return ClassGroupSummary(h=h, two_rank=two_rank)


def genus_two_rank_lower(K: QuadraticField) -> int:
    """Genus-theory lower bound for the 2-rank of the class group.

    With mu distinct prime divisors of the discriminant the 2-rank is mu - 1
    for imaginary fields and at least mu - 2 for real ones (one rank may be
    lost to the fundamental unit).
    """
    mu = len(K.prime_divisors)
    lower = mu - 1 if K.disc < 0 else mu - 2
    return max(lower, 0)


def golod_shafarevich_check(K: QuadraticField, d2: int, sc_size: int) -> TowerCertificate:
    """Certify d2 >= 2 + 2*sqrt(|S_c| + |S_infty| + 1), decided in integers.

    The square-root threshold is reported as an enclosure, but the pass/fail
    verdict uses the equivalent integer inequality (d2-2)^2 >= 4n with
    d2 >= 2, so the outcome is never indeterminate.
    """
    from .enclosure import iv
    if d2 < 0 or sc_size < 0:
        raise DomainError("d2 and sc_size must be >= 0")
    n = sc_size + K.archimedean_places + 1
    passes = d2 >= 2 and (d2 - 2) ** 2 >= 4 * n
    threshold = 2 + 2 * iv.sqrt(iv.mpf(n))
    return TowerCertificate(disc=K.disc, s_c_size=sc_size, d2_lower=d2,
                            threshold=threshold, passes=passes)
