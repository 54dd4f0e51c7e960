"""Quadratic fields: fundamentality, splitting, class groups, tower check.

The class-number oracles are the character sum h = -(w/(2|D|)) sum chi(a) a,
w the number of units, and a plain scan of every b in (-a, a] for each a
(`conftest.reduced_forms_oracle`), which also gives the 2-rank; neither
shares code with the root-and-CRT enumeration they check.
"""

import tracemalloc

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvforge import enclosure as encl
from gvforge import numtheory as nt
from gvforge import quadfield as qf
from gvforge.errors import CapacityError, DomainError

from conftest import (encloses, exact, reduced_forms_oracle,
                      trial_division_is_prime)


def oracle_is_fundamental(D: int) -> bool:
    """Definition-level check, written independently of the library."""

    def squarefree(n):
        n = abs(n)
        f = 2
        while f * f <= n:
            if n % (f * f) == 0:
                return False
            f += 1
        return True

    if D == 0 or D == 1:
        return False
    if D % 4 == 1:
        return squarefree(D)
    if D % 4 == 0:
        d = D // 4
        return d % 4 in (2, 3) and squarefree(d)
    return False


def character_class_number(D: int) -> int:
    """Dirichlet character sum for imaginary fundamental D; w = 6 and 4 for
    D = -3 and -4, else 2."""
    w = {-3: 6, -4: 4}.get(D, 2)
    total = w * sum(nt.kronecker_symbol(D, a) * a for a in range(1, -D))
    assert total % (2 * D) == 0
    return total // (2 * D)


# --------------------------------------------------------- fundamentality


def test_is_fundamental_against_definition():
    for D in range(-1000, 1001):
        if D == 0:
            continue
        assert qf.is_fundamental(D) == oracle_is_fundamental(D), D


def test_make_field_rejects_non_fundamental():
    for D in (0, 1, -1, 2, 3, -2, 4, 9, 16, 20, -12, 45, -44, 48, -45):
        with pytest.raises(DomainError):
            qf.make_field(D)
    for D in (-3, -4, -7, -8, -15, -20, -23, 5, 8, 12, 13, 44):
        qf.make_field(D)


def test_field_attributes():
    Ki = qf.make_field(-4)
    assert (Ki.radicand, Ki.trace_omega, Ki.norm_omega) == (-1, 0, 1)
    assert Ki.omega_desc == "sqrt(-1)"
    assert (Ki.s, Ki.t, Ki.archimedean_places) == (0, 1, 1)
    assert Ki.norm(3, 4) == 25

    K23 = qf.make_field(-23)
    assert (K23.radicand, K23.trace_omega, K23.norm_omega) == (-23, 1, 6)
    assert K23.omega_desc == "(1+sqrt(-23))/2"
    assert K23.norm(1, 1) == 8  # 1 + 1 + 6

    K5 = qf.make_field(5)
    assert (K5.trace_omega, K5.norm_omega) == (1, -1)
    assert (K5.s, K5.t, K5.archimedean_places) == (2, 0, 2)
    assert K5.norm(0, 1) == -1  # the unit (1+sqrt5)/2 has norm -1

    K12 = qf.make_field(12)
    assert (K12.radicand, K12.norm_omega) == (3, -3)
    assert K12.norm(5, 2) == 13


def test_prime_divisor_hint_is_verified():
    hinted = qf.make_field(-19399380, (2, 3, 5, 7, 11, 13, 17, 19))
    plain = qf.make_field(-19399380)
    assert hinted == plain
    assert plain.prime_divisors == (2, 3, 5, 7, 11, 13, 17, 19)
    with pytest.raises(DomainError):  # missing a divisor
        qf.make_field(-19399380, (2, 3, 5, 7, 11, 13, 17))
    with pytest.raises(DomainError):  # 4 is not prime
        qf.make_field(-19399380, (4, 3, 5, 7, 11, 13, 17, 19))
    with pytest.raises(DomainError):  # 23 does not divide
        qf.make_field(-19399380, (2, 3, 5, 7, 11, 13, 17, 19, 23))


# --------------------------------------------------------------- splitting


def test_splitting_examples():
    Ki = qf.make_field(-4)
    recs = qf.splitting_type(Ki, 13)
    assert [(r.split_type, r.norm, r.conjugate_index, r.residue_root) for r in recs] \
        == [(qf.SPLIT, 13, 0, 5), (qf.SPLIT, 13, 1, 8)]
    (inert,) = qf.splitting_type(Ki, 3)
    assert (inert.split_type, inert.norm, inert.residue_root) == (qf.INERT, 9, None)
    (ram,) = qf.splitting_type(Ki, 2)
    assert (ram.split_type, ram.norm, ram.residue_root) == (qf.RAMIFIED, 2, 1)

    K5 = qf.make_field(5)
    assert [r.residue_root for r in qf.splitting_type(K5, 11)] == [4, 8]
    assert qf.splitting_type(K5, 5)[0].split_type == qf.RAMIFIED
    assert qf.splitting_type(K5, 2)[0].norm == 4

    K12 = qf.make_field(12)
    assert qf.splitting_type(K12, 2)[0].residue_root == 1
    assert qf.splitting_type(K12, 3)[0].residue_root == 0
    assert [r.residue_root for r in qf.splitting_type(K12, 11)] == [5, 6]

    with pytest.raises(DomainError):
        qf.splitting_type(Ki, 15)
    with pytest.raises(DomainError):
        qf.splitting_type(Ki, 1)


def euler_split_sign(D: int, p: int) -> int:
    """Independent splitting classifier: Euler criterion plus the 2-rule."""
    if p == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 == 1 else -1
    if D % p == 0:
        return 0
    e = pow(D % p, (p - 1) // 2, p)
    return 1 if e == 1 else -1


def test_splitting_structure_sweep():
    discs = [D for D in range(-1000, 1001) if D and qf.is_fundamental(D)]
    primes_small = [int(p) for p in nt.table_for(100) if p < 100]
    selected = [-19399380, -163, -84, -23, -8, -4, -3, 5, 8, 12, 13, 60, 997]
    primes_big = [int(p) for p in nt.table_for(1000) if p < 1000]
    cases = [(D, p) for D in discs for p in primes_small]
    cases += [(D, p) for D in selected if qf.is_fundamental(D) for p in primes_big]
    fields = {}
    for D, p in cases:
        K = fields.get(D)
        if K is None:
            K = fields[D] = qf.make_field(D)
        recs = qf.splitting_type(K, p)
        sign = euler_split_sign(D, p)
        T, N = K.trace_omega, K.norm_omega
        if sign == -1:
            assert len(recs) == 1 and recs[0].split_type == qf.INERT
            assert recs[0].norm == p * p and recs[0].residue_root is None
        elif sign == 0:
            assert len(recs) == 1 and recs[0].split_type == qf.RAMIFIED
            assert recs[0].norm == p
            c = recs[0].residue_root
            assert (c * c - T * c + N) % p == 0
        else:
            assert len(recs) == 2
            c0, c1 = recs[0].residue_root, recs[1].residue_root
            assert recs[0].conjugate_index == 0 and recs[1].conjugate_index == 1
            assert 0 <= c0 < c1 < p
            # Vieta: the two roots of x^2 - Tx + N mod p
            assert (c0 + c1 - T) % p == 0
            assert (c0 * c1 - N) % p == 0


def test_split_roots_factor_the_norm(rng):
    for D in (-4, -23, 5, 13, 12, -84):
        K = qf.make_field(D)
        for p in (int(x) for x in nt.table_for(500)):
            recs = qf.splitting_type(K, p)
            if len(recs) != 2:
                continue
            c0, c1 = recs[0].residue_root, recs[1].residue_root
            for _ in range(8):
                u, v = rng.randrange(-50, 51), rng.randrange(-50, 51)
                assert K.norm(u, v) % p == (u + v * c0) * (u + v * c1) % p


def test_prime_ideals_in_norm_range():
    Ki = qf.make_field(-4)
    recs = qf.prime_ideals_in_norm_range(Ki, 9, 13)
    assert [(r.p, r.split_type, r.norm) for r in recs] \
        == [(3, qf.INERT, 9), (13, qf.SPLIT, 13), (13, qf.SPLIT, 13)]
    assert all(9 <= r.norm <= 13 for r in recs)
    with pytest.raises(DomainError):
        qf.prime_ideals_in_norm_range(Ki, 1, 13)
    with pytest.raises(DomainError):
        qf.prime_ideals_in_norm_range(Ki, 14, 13)


def test_prime_ideals_range_against_brute_force(rng):
    """Whole records: primes by trial division, the splitting by Euler's
    criterion, and the residue roots by trying every x mod p in
    x^2 - T x + N."""
    discs = [-3, -4, -7, -8, -15, -20, -23, -84, 5, 8, 12, 13, 17, 21, 44]
    for _ in range(50):
        D = rng.choice(discs)
        r = rng.randrange(2, 60)
        q = r + rng.randrange(0, 120)
        K = qf.make_field(D)
        T, N = K.trace_omega, K.norm_omega
        got = [tuple(rec) for rec in qf.prime_ideals_in_norm_range(K, r, q)]
        want = []
        for p in range(2, q + 1):
            if not trial_division_is_prime(p):
                continue
            sign = euler_split_sign(D, p)
            roots = [x for x in range(p) if (x * x - T * x + N) % p == 0]
            if sign == 1 and r <= p:
                want += [(p, qf.SPLIT, p, i, c) for i, c in enumerate(roots)]
            elif sign == 0 and r <= p:
                want.append((p, qf.RAMIFIED, p, 0, roots[0]))
            elif sign == -1 and r <= p * p <= q:
                want.append((p, qf.INERT, p * p, 0, None))
        assert got == want, (D, r, q)


def test_prime_ideals_in_norm_range_tests_no_sieved_prime_again(monkeypatch):
    """The listing takes its primes from the sieve and does not run the
    Miller-Rabin test that splitting_type applies to a p from outside."""
    def tested(n):
        raise AssertionError("%d tested for primality" % n)

    monkeypatch.setattr(qf, "_is_prime_small", tested)
    assert len(qf.prime_ideals_in_norm_range(qf.make_field(-4), 2, 1000)) \
        == 1 + 2 * 80 + 6


# ------------------------------------------------------------ class groups


CLASSICAL_H = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -19: 1, -20: 2, -23: 3,
    -24: 2, -31: 3, -35: 2, -39: 4, -40: 2, -43: 1, -47: 5, -51: 2,
    -52: 2, -55: 4, -56: 4, -67: 1, -71: 7, -84: 4, -163: 1, -195: 4,
}


def test_class_numbers_classical_table():
    for D, h in CLASSICAL_H.items():
        cg = qf.class_group_imaginary(qf.make_field(D))
        assert cg.h == h, D


def test_class_numbers_character_sum_oracle():
    for D in range(-299, -4):
        if not qf.is_fundamental(D):
            continue
        cg = qf.class_group_imaginary(qf.make_field(D))
        assert cg.h == character_class_number(D), D
        assert cg.h % (1 << cg.two_rank) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(-10 ** 4, -3).filter(oracle_is_fundamental))
@example(-3)
@example(-4)
@example(-9995)
def test_class_group_property(D):
    K = qf.make_field(D)
    cg = qf.class_group_imaginary(K)
    assert cg.h == character_class_number(D)
    assert cg.two_rank == qf.genus_two_rank_lower(K)


def summary(D: int) -> tuple:
    cg = qf.class_group_imaginary(qf.make_field(D))
    return cg.h, cg.two_rank


def test_class_group_matches_reduced_form_scan():
    n = 0
    for D in range(-4999, -2):
        if oracle_is_fundamental(D):
            assert summary(D) == reduced_forms_oracle(D), D
            n += 1
    assert n > 1500


@pytest.mark.parametrize("D", (-19399380, -99999768, -99999971))
def test_class_group_matches_reduced_form_scan_near_cap(D):
    assert summary(D) == reduced_forms_oracle(D)


@settings(max_examples=40, deadline=None)
@given(st.integers(-10 ** 6 + 1, -3).filter(oracle_is_fundamental))
@example(-3)
@example(-4)
@example(-8)
@example(-789503)  # 1 mod 8: the reduced form (512, -511, 513) needs roots mod 2^9
def test_class_group_property_against_reduced_form_scan(D):
    assert summary(D) == reduced_forms_oracle(D)


@pytest.mark.parametrize("D", (-99999768, -99999971))
def test_class_group_memory_near_cap(D):
    """Near the cap most a <= sqrt(|disc|/3) have no root, and each shares
    the one empty tuple: a traced peak under 0.32 MiB, which a list of its
    own for each of them (0.51-0.52 MiB) exceeds."""
    K = qf.make_field(D)
    tracemalloc.start()
    try:
        cg = qf.class_group_imaginary(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cg.h, cg.two_rank) == reduced_forms_oracle(D)
    assert peak < 0.32 * 2 ** 20, peak


def test_class_group_matches_reduced_form_scan_seeded_near_cap(rng):
    """h and the 2-rank at seeded fundamental discriminants within 10^6 of
    the cap, where the shared empty tuples are most of the root table."""
    seen = 0
    while seen < 3:
        D = -rng.randrange(99 * 10 ** 6, 10 ** 8)
        if oracle_is_fundamental(D):
            assert summary(D) == reduced_forms_oracle(D), D
            seen += 1


def test_class_group_big_example():
    cg = qf.class_group_imaginary(qf.make_field(-19399380))
    assert (cg.h, cg.two_rank) == (1536, 7)


def test_class_group_domain_and_capacity():
    with pytest.raises(DomainError):
        qf.class_group_imaginary(qf.make_field(5))
    with pytest.raises(CapacityError):
        qf.class_group_imaginary(qf.make_field(-100000003))


def test_genus_lower_bound_vs_exact():
    for D in (-4, -8, -15, -20, -84, -120, -195, -420, -19399380):
        K = qf.make_field(D)
        lower = qf.genus_two_rank_lower(K)
        exact = qf.class_group_imaginary(K).two_rank
        assert lower <= exact
        assert lower == len(K.prime_divisors) - 1  # imaginary case is exact
        assert exact == lower
    assert qf.genus_two_rank_lower(qf.make_field(5)) == 0
    assert qf.genus_two_rank_lower(qf.make_field(60)) == 1  # 60 = 4*3*5


# ------------------------------------------------------------ tower check


def test_golod_shafarevich_imaginary():
    K = qf.make_field(-19399380)
    cert = qf.golod_shafarevich_check(K, d2=7, sc_size=0)
    assert cert.passes
    # threshold is 2 + 2*sqrt(2): enclosure must contain the true value
    with mpmath.workdps(60):
        true = exact(2 + 2 * mpmath.mpf(2) ** mpmath.mpf("0.5"))
    assert encloses(cert.threshold, true)
    assert encl.width(cert.threshold) < exact(mpmath.mpf("1e-30"))
    assert not qf.golod_shafarevich_check(K, 4, 0).passes  # 4 < 2 + 2*sqrt(2)
    assert qf.golod_shafarevich_check(K, 5, 0).passes      # 9 >= 8
    assert not qf.golod_shafarevich_check(K, 2, 0).passes
    assert not qf.golod_shafarevich_check(K, 1, 0).passes


def test_golod_shafarevich_marginal_real():
    K = qf.make_field(5)  # two real places
    # n = 3657 + 2 + 1 = 3660, threshold about 122.9959
    good = qf.golod_shafarevich_check(K, d2=123, sc_size=3657)
    bad = qf.golod_shafarevich_check(K, d2=122, sc_size=3657)
    assert good.passes and not bad.passes
    assert (123 - 2) ** 2 >= 4 * 3660 > (122 - 2) ** 2
    with pytest.raises(DomainError):
        qf.golod_shafarevich_check(K, -1, 0)
    with pytest.raises(DomainError):
        qf.golod_shafarevich_check(K, 3, -2)
