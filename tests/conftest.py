import random

import numpy as np
import pytest


@pytest.fixture
def rng():
    return random.Random(20240817)


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
