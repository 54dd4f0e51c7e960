import math
import random

from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath import mp

from gvforge.errors import DomainError


@pytest.fixture
def rng():
    return random.Random(20240817)


def exact(x) -> Fraction:
    """The exact rational value of an int, float, Fraction or mpmath mpf.
    An enclosure's `ends`, midpoint and width are exact Fractions, and
    every comparison of them, or of an enclosure, with an mpmath value
    goes through this conversion, which never rounds."""
    if isinstance(x, mpmath.mpf):
        return Fraction(*mpmath.libmp.to_rational(x._mpf_))
    return Fraction(x)


def encloses(x, value) -> bool:
    """True when the exact ends of the enclosure x hold the exact `value`
    (an int, float, Fraction or mpmath mpf)."""
    lo, hi = x.ends
    return lo <= exact(value) <= hi


def trial_division_is_prime(n: int) -> bool:
    """Independent primality check used as an oracle (no sieve involved)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    if n % 3 == 0:
        return n == 3
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def first_primes_oracle(n: int) -> list:
    """The first n primes by per-number trial division (no sieve)."""
    out, m = [], 1
    while len(out) < n:
        m += 1
        if trial_division_is_prime(m):
            out.append(m)
    return out


_INERT = [0, np.empty(0, dtype=np.int64)]  # limit, primes = 3 (mod 4) up to it


def inert_primes_oracle(hi: int) -> np.ndarray:
    """The primes p = 3 (mod 4) with p <= hi, ascending, as int64.

    A plain numpy sieve of Eratosthenes over every integer up to its limit:
    no segments, no progression, no code shared with the library. The
    largest sieve so far is kept for smaller hi.
    """
    if hi > _INERT[0]:
        limit = max(hi, 1 << 16)
        prime = np.ones(limit + 1, dtype=bool)
        prime[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if prime[p]:
                prime[p * p::p] = False
        ps = np.flatnonzero(prime)
        _INERT[:] = [limit, ps[ps % 4 == 3]]
    ps = _INERT[1]
    return ps[:np.searchsorted(ps, hi, side="right")]


def inert_count_oracle(q: int, r: int, p_ell: int) -> int:
    """Nq: the number of primes p = 3 (mod 4) with p > p_ell and
    r <= p^2 <= q. With r = 1 it counts the primes p = 3 (mod 4) in
    (p_ell, isqrt(q)]."""
    ps = inert_primes_oracle(math.isqrt(q))
    return int(np.count_nonzero((ps > p_ell) & (ps * ps >= r)))


def reduced_forms_oracle(D: int) -> tuple:
    """(h, 2-rank) of the class group of discriminant D < 0, by a plain scan
    of the reduced forms: for each a <= sqrt(|D|/3), one numpy pass over
    every b in (-a, a] of the parity of D keeps those with 4a | b^2 - D.

    A form (a, b, c) counts when c >= a, b >= 0 if a = c, and gcd(a, b, c)
    = 1; it is ambiguous when b = 0, a = b or a = c, and the ambiguous forms
    number 2^rank. No root finding and no code shared with the library.
    """
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
            if c < a or (b < 0 and a == c):
                continue
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            h += 1
            if b == 0 or a == b or a == c:
                ambiguous += 1
    assert ambiguous & (ambiguous - 1) == 0
    return h, ambiguous.bit_length() - 1


def float_columns_oracle(bf, tau1, tau2, rho: float, u):
    """Float guesses (lo, hi, alive) of each column's v-range [lo, hi]
    inside the open box, for a numpy array u of column indices: the numpy
    broadcast the translate search used before it became pure Python.

    alive is False where a face that does not depend on v excludes u.
    tau1 and tau2 may be (cells, 1) columns, one box per row of the result.
    """
    b00, b01, b10, b11 = bf
    vlo = np.full_like(u, -np.inf)
    vhi = np.full_like(u, np.inf)
    alive = np.ones(len(u), dtype=bool)
    for (bu, bv, lo) in ((b00, b01, tau1), (b10, b11, tau2)):
        a = bu * u
        hi = lo + rho
        if abs(bv) < 1e-300:
            alive = alive & (a > lo) & (a < hi)
        else:
            w1 = (lo - a) / bv
            w2 = (hi - a) / bv
            vlo = np.maximum(vlo, np.minimum(w1, w2))
            vhi = np.minimum(vhi, np.maximum(w1, w2))
    return np.ceil(vlo + 1e-12), np.floor(vhi - 1e-12), alive


def grid_scores_oracle(bf, rho: float, us, g: int, offset: float):
    """Float point counts of the boxes at the g x g grid translates
    (i/g + offset, j/g + offset), cell (i, j) at index i g + j, over the
    columns u of the integer range us: each cell's box is placed and
    counted on its own, in numpy blocks of at most 2^14 floats."""
    us = np.array(us, dtype=float)
    step = max(1, (1 << 14) // len(us))
    score = np.empty(g * g)
    for start in range(0, g * g, step):
        c = np.arange(start, min(start + step, g * g))
        si, sj = c // g / g + offset, c % g / g + offset
        t1 = bf[0] * si + bf[1] * sj
        t2 = bf[2] * si + bf[3] * sj
        lo, hi, alive = float_columns_oracle(bf, t1[:, None], t2[:, None],
                                             rho, us)
        score[c] = np.where(alive, np.maximum(hi - lo + 1, 0), 0).sum(axis=1)
    return score


def residue_symbol_oracle(a, P, q: int) -> int:
    """Reduce a = (u, v) = u + v*omega modulo P, one point at a time; value
    in [0, N(P)), and N(P) > q raises DomainError.

    Split and ramified ideals reduce through omega -> residue_root in F_p;
    inert ideals keep both coordinates, packed as (u mod p)*p + (v mod p).
    """
    if P.norm > q:
        raise DomainError("ideal norm %d exceeds alphabet bound q=%d" % (P.norm, q))
    u, v = a
    if P.residue_root is None:
        return (u % P.p) * P.p + (v % P.p)
    return (u + v * P.residue_root) % P.p


def norm_gap_check(code) -> bool:
    """Oracle for the norm lemma of Lenstra's construction: for every pair
    a != b in code.omega, r^(agree) <= |N(a - b)| < r^G, where agree counts
    the coordinates at which the two words coincide.

    The norm of u + v*omega is written from the discriminant, with no field
    object from the library. Exact in numpy int64 blocks; r^G must stay
    below 2^60 so no norm overflows.
    """
    m = len(code.omega)
    if m < 2:
        return True
    r, G, disc = code.r, code.G, code.disc
    if r ** G > 1 << 60:
        raise ValueError("r^G too large for the int64 norm scan")
    if disc % 4 == 0:  # omega = sqrt(disc/4)
        trace, norm_omega = 0, -(disc // 4)
    else:  # omega = (1 + sqrt(disc))/2
        trace, norm_omega = 1, (1 - disc) // 4
    # agreeing in G or more positions already fails, so r^G caps the powers
    powers = np.array([r ** e for e in range(G)], dtype=np.int64)
    uv = np.asarray(code.omega, dtype=np.int64)
    words = np.asarray(code.codewords, dtype=np.int64)
    for i in range(m - 1):
        du = uv[i + 1:, 0] - uv[i, 0]
        dv = uv[i + 1:, 1] - uv[i, 1]
        norms = np.abs(du * du + trace * du * dv + norm_omega * dv * dv)
        agree = (words[i + 1:] == words[i]).sum(axis=1)
        if int(agree.max()) >= G:
            return False
        if not bool(np.all((norms >= powers[agree]) & (norms < r ** G))):
            return False
    return True


def dense_distance_scan(arr) -> tuple:
    """Oracle for the distance scan: the least Hamming distance over all
    pairs of rows of the integer array arr (at least two rows), and the
    lexicographically least pair at it.

    Each row is compared with every later row in one numpy broadcast; the
    first minimum of each comparison is the least j for its row i.
    """
    arr = np.asarray(arr)
    best = (arr.shape[1] + 1, None)
    for i in range(len(arr) - 1):
        diffs = (arr[i + 1:] != arr[i]).sum(axis=1)
        j = int(np.argmin(diffs))
        if int(diffs[j]) < best[0]:
            best = (int(diffs[j]), (i, i + 1 + j))
    return best


def embed_mp(D: int, u, v):
    """The embedding of u + v*omega at the working mpmath precision, written
    from the discriminant D; u and v may be mpf."""
    if D % 4 == 0:
        d = D // 4
        if D < 0:
            return mp.mpf(u), v * mp.sqrt(-d)
        return u + v * mp.sqrt(d), u - v * mp.sqrt(d)
    if D < 0:
        return u + mp.mpf(v) / 2, v * mp.sqrt(-D) / 2
    return u + v * (1 + mp.sqrt(D)) / 2, u + v * (1 - mp.sqrt(D)) / 2


def basis_mp(D: int):
    """(b00, b01, b10, b11) with x = (b00 u + b01 v, b10 u + b11 v), at the
    working mpmath precision."""
    (b00, b10), (b01, b11) = embed_mp(D, 1, 0), embed_mp(D, 0, 1)
    return b00, b01, b10, b11


def box_mp(D: int, box):
    """(tau_1, tau_2, rho) of a box at the working mpmath precision, from
    box.r, box.G and box.shift only: rho^2 = r^G, halved for D < 0, and the
    translate is the embedded shift, or (-rho/2, -rho/2) when it is None."""
    rho = mp.sqrt(mp.mpf(box.r ** box.G) / (2 if D < 0 else 1))
    if box.shift is None:
        return -rho / 2, -rho / 2, rho
    s1, s2 = (mp.mpf(s.numerator) / s.denominator for s in box.shift)
    t1, t2 = embed_mp(D, s1, s2)
    return t1, t2, rho


def scan_box_mp(D: int, box):
    """(inside, near) at 60 digits: the lattice points strictly inside the
    box, and those within a guard of 1e-18 * scale of a face, found by
    classifying every (u, v) of a rectangle that covers the box. Both lists
    are sorted."""
    with mp.workdps(60):
        t1, t2, rho = box_mp(D, box)
        b00, b01, b10, b11 = basis_mp(D)
        det = b00 * b11 - b01 * b10
        corners = [(t1 + i * rho, t2 + j * rho) for i in (0, 1) for j in (0, 1)]
        us = [(b11 * x0 - b01 * x1) / det for x0, x1 in corners]
        vs = [(b00 * x1 - b10 * x0) / det for x0, x1 in corners]
        guard = mp.mpf("1e-18") * (1 + abs(t1) + abs(t2) + rho)
        inside, near = [], []
        for u in range(int(mp.floor(min(us))) - 1, int(mp.ceil(max(us))) + 2):
            for v in range(int(mp.floor(min(vs))) - 1,
                           int(mp.ceil(max(vs))) + 2):
                x0, x1 = b00 * u + b01 * v, b10 * u + b11 * v
                dists = (x0 - t1, t1 + rho - x0, x1 - t2, t2 + rho - x1)
                if any(abs(z) <= guard for z in dists):
                    near.append((u, v))
                elif all(z > 0 for z in dists):
                    inside.append((u, v))
        return inside, near
