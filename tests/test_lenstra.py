"""Lattice boxes, certified translates, code construction, verification.

The box oracles in conftest embed the lattice with plain 60-digit mpmath
and place each box from its r, G and shift alone; they share no code path
with the exact integer classifier they check, and they report every point
they find near a box face.
"""

import contextlib
import io
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from gvforge import cli
from gvforge import codefile as cf
from gvforge import lenstra as ln
from gvforge import numtheory as nt
from gvforge import quadfield as qf
from gvforge import translate as tr
from gvforge.errors import CapacityError, DomainError

from conftest import (basis_mp, box_mp, dense_distance_scan,
                      float_columns_oracle, grid_scores_oracle, norm_gap_check,
                      residue_symbol_oracle, scan_box_mp)


def brute_box_count(D: int, box) -> int:
    """Count lattice points strictly inside the box at 60 digits."""
    inside, near = scan_box_mp(D, box)
    assert not near, (near, "face contact")
    return len(inside)


# ------------------------------------------------------------- embedding


def test_embedding_floats_are_the_basis_rounded():
    """Each basis float is the 60-digit entry rounded once."""
    discs = [D for D in range(-400, 400) if qf.is_fundamental(D)]
    for D in discs + [-19399380, 10 ** 6 + 1]:
        with mp.workdps(60):
            want = tuple(float(b) for b in basis_mp(D))
        assert ln.make_embedding(qf.make_field(D)) == want, D


def test_embedding_reproduces_the_norm(rng):
    for D in (-4, -3, -8, -23, -84, 5, 8, 12, 13, 44):
        K = qf.make_field(D)
        b00, b01, b10, b11 = ln.make_embedding(K)
        for _ in range(40):
            u, v = rng.randrange(-30, 31), rng.randrange(-30, 31)
            x0, x1 = b00 * u + b01 * v, b10 * u + b11 * v
            prod = (x0 * x0 + x1 * x1) if D < 0 else (x0 * x1)
            tol = 1e-12 * (1 + abs(x0)) * (1 + abs(x1))
            assert abs(prod - K.norm(u, v)) <= tol, (D, u, v)


def test_box_at_domain_and_reach():
    K = qf.make_field(-4)
    for r, G in ((1, 1), (9, 0)):
        with pytest.raises(DomainError):
            ln.box_at(r, G, None)
        with pytest.raises(DomainError):
            tr.find_tau(K, r, G)
    # R = (2 rho)^2 = 4 r^G 2^-t; the u-span brackets the box's u-extent,
    # (0, rho) for disc -4 and 5 and (-rho/sqrt 3, rho) for disc -3
    K5, K3 = qf.make_field(5), qf.make_field(-3)
    assert ln._reach(K, 9, 1) == 18
    assert ln._reach(K5, 9, 1) == 36
    assert ln._reach(K3, 4, 3) == 128
    assert ln._u_span(K, 9, 1) == (0, Fraction(5, 2))         # rho = 2.12
    assert ln._u_span(K5, 9, 1) == (0, Fraction(71, 20))      # rho = 3
    assert ln._u_span(K3, 4, 3) == (Fraction(-10, 3), 6)      # rho = 5.66


def test_minkowski_target(rng):
    assert ln.minkowski_target(9, 1, 4) == 5    # ceil(9/2)
    assert ln.minkowski_target(4, 1, 4) == 2
    assert ln.minkowski_target(9, 3, 4) == 365  # ceil(729/2)
    assert ln.minkowski_target(2, 1, 163) == 1
    for _ in range(300):
        r = rng.randrange(2, 50)
        G = rng.randrange(1, 4)
        absD = rng.choice([3, 4, 7, 8, 15, 23, 163, 19399380])
        t = ln.minkowski_target(r, G, absD)
        assert t >= 1
        assert t * t * absD >= r ** (2 * G)
        assert (t - 1) ** 2 * absD < r ** (2 * G)


# ------------------------------------------------------- box enumeration


def test_half_shifted_box_on_gaussian_lattice():
    # tau = (-1/2 + 2^-20, same), rho = 3/sqrt(2): the open square catches
    # exactly the four points {0,1}^2, one short of ceil(9/2) = 5.
    K = qf.make_field(-4)
    eps = Fraction(1, 1 << 20)
    tau = Fraction(-1, 2) + eps
    box = ln.box_at(9, 1, (tau, tau))
    pts = ln.enumerate_omega(K, box)
    assert pts == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert brute_box_count(-4, box) == 4


def test_faces_through_lattice_points_exclude_them():
    # tau = (0, 0), rho = 3/sqrt(2): the lower faces u = 0 and v = 0 pass
    # through lattice points, which an open box leaves out
    K = qf.make_field(-4)
    box = ln.box_at(9, 1, (0, 0))
    assert ln.enumerate_omega(K, box) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    # centred at rho = 2 (r^G = 8), the faces x = +-1 hold lattice points
    centred = ln.box_at(2, 3, None)
    assert ln.enumerate_omega(K, centred) == [(0, 0)]
    # disc 8, x = (u + v sqrt 2, u - v sqrt 2) in (0, 2)^2: (0, 0) and
    # (2, 0) sit on corners, and only (1, 0) is inside
    K8 = qf.make_field(8)
    assert ln.enumerate_omega(K8, ln.box_at(4, 1, (0, 0))) == [(1, 0)]


def test_find_tau_meets_target():
    cases = [(-4, 9, 1), (-4, 4, 1), (-4, 9, 3), (-3, 4, 1), (-23, 6, 1),
             (-163, 2, 1), (5, 4, 1), (8, 3, 1), (12, 5, 2), (13, 4, 1)]
    for D, r, G in cases:
        K = qf.make_field(D)
        box = tr.find_tau(K, r, G)
        target = ln.minkowski_target(r, G, abs(D))
        pts = ln.enumerate_omega(K, box)
        assert len(pts) >= target, (D, r, G)
        assert pts == sorted(set(pts))


def test_find_tau_deterministic():
    K = qf.make_field(-4)
    b1 = tr.find_tau(K, 9, 1)
    b2 = tr.find_tau(K, 9, 1)
    assert (b1.grid, b1.cell, b1.bumps) == (b2.grid, b2.cell, b2.bumps)
    assert ln.enumerate_omega(K, b1) == ln.enumerate_omega(K, b2)


def reference_find_tau(K, r, G, grids):
    """Oracle for find_tau: one float_columns_oracle call per grid cell, the cells
    sorted as (-score, i, j) tuples. Returns (grid, cell, shift), or None
    where every grid is exhausted."""
    D = K.disc
    target = ln.minkowski_target(r, G, abs(D))
    centred = ln.box_at(r, G, None)
    centred_count = len(ln.enumerate_omega(K, centred))
    with mp.workdps(60):
        rho = float(box_mp(D, centred)[2])
        bf = tuple(float(b) for b in basis_mp(D))
    P = math.isqrt(4 * r ** G // (2 if D < 0 else 1)) + 1
    us = np.arange(-P, P + 1.0)
    off = tr._GRID_OFFSET
    for g in grids:
        scored = []
        for i in range(g):
            for j in range(g):
                si, sj = i / g + float(off), j / g + float(off)
                lo, hi, alive = float_columns_oracle(
                    bf, bf[0] * si + bf[1] * sj, bf[2] * si + bf[3] * sj,
                    rho, us)
                score = np.where(alive, np.maximum(hi - lo + 1, 0), 0).sum()
                scored.append((-int(score), i, j))
        scored.sort()
        best, best_count = None, -1
        for negscore, i, j in scored[:6]:
            if -negscore < target and best is not None:
                break
            shift = (Fraction(i, g) + off, Fraction(j, g) + off)
            count = len(ln.enumerate_omega(K, ln.box_at(r, G, shift)))
            if count > best_count:
                best, best_count = (g, (i, j), shift), count
        if centred_count > best_count:
            best, best_count = (g, (-1, -1), None), centred_count
        if best_count >= target:
            return best
    return None


def _tau_or_none(monkeypatch, K, r, G, grids):
    monkeypatch.setattr(tr, "_GRIDS", grids)
    try:
        box = tr.find_tau(K, r, G)
    except CapacityError:
        return None
    return box.grid, box.cell, box.shift


def _doubling(start, stop):
    """The grids start, 2 start, ... up to stop; _doubling(64, 1024) is
    find_tau's own _GRIDS."""
    return tuple(start << i for i in range((stop // start).bit_length()))


@pytest.mark.parametrize("D,r,G,start,stop", [
    # the golden and benchmark fields, at the default grids
    (-4, 9, 1, 64, 1024), (-3, 9, 2, 64, 1024), (-23, 12, 2, 64, 1024),
    (8, 10, 2, 64, 1024), (13, 11, 2, 64, 1024), (-4, 15, 3, 64, 1024),
    (5, 15, 3, 64, 1024),
    # grids that climb to 8 and 4, and one that is exhausted
    (-3, 2, 1, 1, 64), (-3, 3, 1, 1, 64), (-4, 4, 1, 1, 1)])
def test_find_tau_matches_per_cell_ranking(monkeypatch, D, r, G, start,
                                           stop):
    K = qf.make_field(D)
    grids = _doubling(start, stop)
    assert _tau_or_none(monkeypatch, K, r, G, grids) == reference_find_tau(
        K, r, G, grids)


def test_find_tau_matches_per_cell_ranking_random(monkeypatch, rng):
    pool = [-3, -4, -7, -8, -11, -15, -20, -23, -24, 5, 8, 12, 13, 17, 21]
    done = 0
    while done < 8:
        D, r, G = rng.choice(pool), rng.randrange(2, 40), rng.randrange(1, 4)
        if r ** G > 5000 or r ** (2 * G) < abs(D):
            continue
        K = qf.make_field(D)
        grids = _doubling(rng.choice([1, 2, 4, 64]), 64)
        want = reference_find_tau(K, r, G, grids)
        assert _tau_or_none(monkeypatch, K, r, G, grids) == want, (D, r, G,
                                                                    grids)
        done += 1


def test_default_grids_are_ample():
    """find_tau's grids are fixed, so they must be ample: 60 seeded
    parameter sets, over every field with -31 <= disc <= 29, r < 60, G <= 4
    and r^G <= 2 10^5, all settle at the first or second grid."""
    discs = [D for D in range(-31, 30) if D and qf.is_fundamental(D)]
    rng = random.Random(26)
    grids = []
    while len(grids) < 60:
        D, r, G = rng.choice(discs), rng.randrange(2, 60), rng.randrange(1, 5)
        if r ** G > 2 * 10 ** 5 or r ** (2 * G) < abs(D):
            continue
        grids.append(tr.find_tau(qf.make_field(D), r, G).grid)
    assert set(grids) <= set(tr._GRIDS[:2]), grids
    assert tr._GRIDS == _doubling(64, 1024)


# the four instances (disc, r, q, G) whose stages ROADMAP.md times
ROADMAP_ROWS = [(-4, 30, 200, 3), (-23, 50, 500, 3), (5, 15, 300, 3),
                (-4, 15, 200, 3)]


def grid_columns(K, r, G):
    """The column range find_tau scores: every cell has 0 < s_1 < 1."""
    lo, hi = ln._u_span(K, r, G)
    return range(math.floor(lo), math.ceil(hi + 1) + 1)


@pytest.mark.parametrize("g", [64, 256])
@pytest.mark.parametrize("D,r,q,G", ROADMAP_ROWS)
def test_grid_scores_match_per_cell_scores(D, r, q, G, g):
    """The fine-lattice pass gives every cell the score of placing and
    counting that cell's box on its own."""
    K = qf.make_field(D)
    bf = ln.make_embedding(K)
    rho = ln._box_floats(K, ln.box_at(r, G, None))[2]
    us = grid_columns(K, r, G)
    want = grid_scores_oracle(bf, rho, us, g, float(tr._GRID_OFFSET))
    assert tr._grid_scores(bf, rho, us, g).tolist() == want.tolist()


def test_grid_scores_hold_eight_bytes_a_cell():
    """At g = 256 the scores, about 1,700 points a cell, take 512 KiB as
    int64; a list of Python ints would take about five times that."""
    K = qf.make_field(-4)
    bf = ln.make_embedding(K)
    rho = ln._box_floats(K, ln.box_at(15, 3, None))[2]
    us = grid_columns(K, 15, 3)
    tracemalloc.start()
    try:
        score = tr._grid_scores(bf, rho, us, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(score) == 256 * 256 and min(score) > 256
    assert peak < 1 << 20


@pytest.mark.parametrize("seed", range(4))
def test_columns_dropped_from_the_old_range_are_empty(seed):
    """The u-range of _u_span against the old one, u in [floor(s_1) - P,
    floor(s_1) + P] with P = isqrt(R) + 1 > 2 rho: at seeded boxes every
    point the 60-digit scan finds inside lies in both, so every column the
    new range drops is empty, and enumerate_omega still finds every point.
    For the translate grid, every dropped column gives no fine point to
    any cell by the float column oracle, so the scores over the new range
    equal those over [-P, P]. The new range drops at least half of the old
    columns."""
    rng = random.Random(seed)
    old = new = 0
    for D in rng.sample(BOX_POOL, 4):
        K = qf.make_field(D)
        bf = ln.make_embedding(K)
        r, G = rng.randrange(2, 9), rng.randrange(1, 3)
        if r ** (2 * G) < abs(D):
            r = math.isqrt(abs(D)) + 1
        P = math.isqrt(ln._reach(K, r, G)) + 1  # > 2 rho
        lo, hi = ln._u_span(K, r, G)
        shifts = [None] + [tuple(Fraction(rng.randrange(-99, 100),
                                          rng.randrange(1, 9))
                                 for _ in range(2)) for _ in range(3)]
        for shift in shifts:
            box = ln.box_at(r, G, shift)
            inside, near = scan_box_mp(D, box)
            s1 = shift[0] if shift else 0
            for u, _ in inside:
                assert abs(u - math.floor(s1)) <= P, (D, r, G, shift)
                if shift is None:
                    assert 2 * abs(u) < hi - lo, (D, r, G, u)
                else:
                    assert lo < u - s1 < hi, (D, r, G, shift, u)
            if not near:
                assert ln.enumerate_omega(K, box) == inside
        keep = range(math.floor(lo), math.ceil(hi + 1) + 1)
        dropped = np.array([u for u in range(-P, P + 1) if u not in keep],
                           dtype=float)
        old, new = old + 2 * P + 1, new + len(keep)
        rho = ln._box_floats(K, ln.box_at(r, G, None))[2]
        g = 64
        cells = np.arange(g * g)
        si, sj = cells // g / g + float(tr._GRID_OFFSET), cells % g / g + float(
            tr._GRID_OFFSET)
        b00, b01, b10, b11 = bf
        vlo, vhi, alive = float_columns_oracle(
            bf, (b00 * si + b01 * sj)[:, None],
            (b10 * si + b11 * sj)[:, None], rho, dropped)
        assert not np.any(alive & (vhi >= vlo)), (D, r, G)
        old_range = range(-P, P + 1)
        assert (tr._grid_scores(bf, rho, keep, g).tolist()
                == tr._grid_scores(bf, rho, old_range, g).tolist())
    assert 2 * new <= old


def test_find_tau_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(tr, "_GRIDS", (1,))
    K = qf.make_field(-4)
    with pytest.raises(CapacityError,
                       match="no translate certified 2 points up to grid 1"):
        tr.find_tau(K, 4, 1)


BOX_POOL = [-3, -4, -7, -8, -15, -20, -23, 5, 8, 12, 13]


def test_enumerate_against_brute_force(rng):
    done = 0
    while done < 12:
        D = rng.choice(BOX_POOL)
        r = rng.randrange(2, 9)
        G = rng.randrange(1, 3)
        if r ** G > 400 or r ** (2 * G) < abs(D):
            continue
        K = qf.make_field(D)
        box = tr.find_tau(K, r, G)
        pts = ln.enumerate_omega(K, box)
        assert len(pts) == brute_box_count(D, box), (D, r, G)
        assert len(pts) >= ln.minkowski_target(r, G, abs(D))
        done += 1


@st.composite
def grid_shifts(draw):
    """A translate as find_tau draws it: cell (i, j) of a g x g grid, offset
    by 2^-20."""
    g = draw(st.integers(1, 64))
    return tuple(Fraction(draw(st.integers(0, g - 1)), g) + Fraction(1, 1 << 20)
                 for _ in range(2))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BOX_POOL), st.integers(2, 12), st.sampled_from((1, 2)),
       st.one_of(st.none(), grid_shifts()))
def test_exact_membership_matches_60_digits(D, r, G, shift):
    K = qf.make_field(D)
    box = ln.box_at(r, G, shift)
    inside, near = scan_box_mp(D, box)
    assume(not near)
    assert ln.enumerate_omega(K, box) == inside


# --------------------------------------------------------- residue symbol


def test_residue_symbol_examples():
    Ki = qf.make_field(-4)
    (inert3,) = qf.splitting_type(Ki, 3)
    assert residue_symbol_oracle((4, 5), inert3, q=13) == 5  # (4%3)*3 + (5%3)
    split13 = qf.splitting_type(Ki, 13)
    assert split13[0].residue_root == 5
    assert residue_symbol_oracle((2, 3), split13[0], q=13) == 4  # (2+15) mod 13
    assert residue_symbol_oracle((2, 3), split13[1], q=13) == 0  # (2+24) mod 13
    K12 = qf.make_field(12)
    (ram3,) = qf.splitting_type(K12, 3)
    assert residue_symbol_oracle((7, 5), ram3, q=12) == 1
    with pytest.raises(DomainError):
        residue_symbol_oracle((4, 5), inert3, q=8)  # norm 9 > q


def test_residue_symbol_is_a_ring_map(rng):
    Ki = qf.make_field(-4)
    for P in qf.splitting_type(Ki, 13) + qf.splitting_type(Ki, 3):
        for _ in range(60):
            a = (rng.randrange(-40, 41), rng.randrange(-40, 41))
            b = (rng.randrange(-40, 41), rng.randrange(-40, 41))
            s = (a[0] + b[0], a[1] + b[1])
            m = P.norm
            ra = residue_symbol_oracle(a, P, 169)
            rb = residue_symbol_oracle(b, P, 169)
            rs = residue_symbol_oracle(s, P, 169)
            if P.split_type == qf.INERT:
                # addition acts coordinatewise on the packed value
                au, av = divmod(ra, P.p)
                bu, bv = divmod(rb, P.p)
                assert rs == ((au + bu) % P.p) * P.p + (av + bv) % P.p
            else:
                assert rs == (ra + rb) % m
                assert 0 <= rs < m


def per_point_residues(columns, P, q):
    return [residue_symbol_oracle((u, v), P, q)
            for u, lo, hi in columns for v in range(lo, hi + 1)]


@pytest.mark.parametrize("D,r,q,G", ROADMAP_ROWS)
def test_residue_map_matches_the_per_point_oracle(D, r, q, G):
    K = qf.make_field(D)
    box = tr.find_tau(K, r, G)
    omega = ln.enumerate_omega(K, box)
    columns, _ = ln.box_columns(K, box)
    assert [(u, v) for u, lo, hi in columns for v in range(lo, hi + 1)] == omega
    for P in qf.prime_ideals_in_norm_range(K, r, q):
        got = [s for s, in ln.code_words(columns, [P], q)]
        assert got == per_point_residues(columns, P, q)


def test_residue_map_on_seeded_fields(rng):
    """Random columns over small fields: inert, split and ramified ideals,
    roots that are 0 mod p, and both a table's worth of points and fewer
    points than p."""
    seen = set()
    for D in (-4, -3, -7, -8, -15, -20, -23, 5, 8, 12, 13, 21, 24):
        K = qf.make_field(D)
        for P in qf.prime_ideals_in_norm_range(K, 2, 200):
            for size in (3, 400):
                columns, u = [], rng.randrange(-60, 0)
                while sum(hi - lo + 1 for _, lo, hi in columns) < size:
                    lo = rng.randrange(-80, 80)
                    columns.append((u, lo, lo + rng.randrange(0, 90)))
                    u += rng.randrange(1, 3)
                got = [s for s, in ln.code_words(columns, [P], 200)]
                assert got == per_point_residues(columns, P, 200), (D, P)
                assert all(0 <= s < P.norm for s in got)
            root = P.residue_root
            seen.add("inert" if root is None else
                     "zero" if root % P.p == 0 else P.split_type)
            with pytest.raises(DomainError,
                               match="ideal norm %d exceeds alphabet bound "
                                     "q=%d" % (P.norm, P.norm - 1)):
                next(ln.code_words(columns, [P], P.norm - 1))
    assert seen == {"inert", "zero", qf.SPLIT, qf.RAMIFIED}
    assert list(ln.code_words([], [P], 200)) == []


# ------------------------------------------------------ code construction


def test_build_code_gaussian():
    K = qf.make_field(-4)
    code = tr.build_code(K, 9, 13, 1)
    assert (code.n, code.G) == (3, 1)
    assert len(code.codewords) >= 5
    assert all(len(w) == 3 for w in code.codewords)
    assert all(0 <= s <= 13 for w in code.codewords for s in w)
    chk = cf.verify_code(code)
    assert chk.ok and chk.injective
    assert chk.M >= chk.min_target == 5
    assert chk.d >= 3
    assert norm_gap_check(code)


def test_build_code_genus_three():
    K = qf.make_field(-4)
    code = tr.build_code(K, 9, 13, 3)
    assert code.n == 3
    chk = cf.verify_code(code)
    assert chk.ok
    assert chk.M >= 365
    assert chk.d >= 1
    assert norm_gap_check(code)


def test_build_code_real_field():
    K = qf.make_field(12)
    code = tr.build_code(K, 5, 23, 2)
    assert code.n == 6
    chk = cf.verify_code(code)
    assert chk.ok
    assert chk.M >= ln.minkowski_target(5, 2, 12) == 8
    assert chk.d >= 5
    assert norm_gap_check(code)


def test_build_code_rejects_bad_parameters():
    K = qf.make_field(-4)
    with pytest.raises(DomainError):
        tr.build_code(K, 1, 13, 1)
    with pytest.raises(DomainError):
        tr.build_code(K, 9, 13, 0)
    with pytest.raises(DomainError):
        tr.build_code(K, 9, 13, 4)  # only 3 ideals available
    with pytest.raises(DomainError):
        tr.build_code(K, 6, 8, 1)   # no ideal norms in [6, 8]
    with pytest.raises(DomainError):
        tr.build_code(qf.make_field(-163), 2, 5, 1)  # r^2G < |disc|


# ------------------------------------------------------------ code files


def test_code_file_roundtrip(tmp_path):
    K = qf.make_field(-4)
    code = tr.build_code(K, 9, 13, 1)
    path = tmp_path / "code.txt"
    path.write_text(ln.format_code_file(code))
    text = path.read_text()
    assert text.startswith("# lenstra q=13 r=9 G=1 disc=-4 n=3 tau=")
    assert text.endswith("\n")
    back = cf.read_code_file(path)
    assert (back.q, back.r, back.G, back.disc, back.n) == (13, 9, 1, -4, 3)
    assert back.codewords == code.codewords
    assert back.tau == code.tau  # repr round-trips floats exactly
    assert back.box.shift == code.box.shift and code.box.shift is not None
    assert (back.box.r, back.box.G) == (9, 1)


def test_parse_code_file_reads_the_shift():
    head = "# lenstra q=13 r=9 G=1 disc=-4 n=3 tau=0.0,0.0"
    rows = "\n1 2 3\n4 5 6\n"
    assert cf.parse_code_file(head + rows).box is None
    centred = cf.parse_code_file(head + " shift=none" + rows).box
    assert centred == ln.box_at(9, 1, None)
    box = cf.parse_code_file(head + " shift=1/2,-3" + rows).box
    assert box.shift == (Fraction(1, 2), Fraction(-3))
    for bad in ("1/2", "1/2,1/2,0", "1/0,0", "0.5,0", "1e9,0", "x,0", "",
                "None", "1/-2,0", "+1,0", "1" * 5000 + ",0"):
        with pytest.raises(DomainError) as info:
            cf.parse_code_file(head + " shift=" + bad + rows)
        assert str(info.value).startswith("line 1: bad shift "), bad


def test_parse_code_file_errors():
    with pytest.raises(DomainError, match="line 1"):
        cf.parse_code_file("not a header\n1 2 3\n")
    with pytest.raises(DomainError, match="line 1"):
        cf.parse_code_file("# lenstra q=13 r=nine G=1 disc=-4 n=3 tau=0.0,0.0\n")
    with pytest.raises(DomainError, match="line 1"):
        cf.parse_code_file("# lenstra q=13 r=9 G=1 disc=-4 n=3 tau=0.0\n")
    with pytest.raises(DomainError, match="line 1"):
        cf.parse_code_file("# lenstra q=13 junk r=9 G=1 disc=-4 n=3 tau=0.0,0.0\n")
    with pytest.raises(DomainError, match="line 1: duplicate header key 'q'"):
        cf.parse_code_file(
            "# lenstra q=13 r=9 G=1 disc=-4 n=3 tau=0.0,0.0 q=14\n1 2 3\n")
    head = "# lenstra q=13 r=9 G=1 disc=-4 n=3 tau=0.0,0.0\n"
    with pytest.raises(DomainError, match="line 2"):
        cf.parse_code_file(head + "1 2\n")
    with pytest.raises(DomainError, match="line 3"):
        cf.parse_code_file(head + "1 2 3\n4 x 6\n")
    for bad in ("4 x 6", "4 5.0 6", "4 5 6e0", "1 2 3 ; 4"):
        with pytest.raises(DomainError) as info:
            cf.parse_code_file(head + "1 2 3\n" + bad + "\n")
        assert str(info.value) == "line 3: non-integer symbol"
    code = cf.parse_code_file(head + "1 2 3\n\n4 5 6\n")
    assert code.codewords == ((1, 2, 3), (4, 5, 6))


# ----------------------------------------------------------- verification


def manual_code(words, q=29, r=5, G=1, disc=-4, omega=()):
    n = len(words[0]) if words else 0
    return ln.LenstraCode(disc=disc, q=q, r=r, G=G, n=n, tau=(0.0, 0.0),
                          ideals=(), omega=tuple(omega), codewords=tuple(words))


def test_verify_code_details():
    code = manual_code([(0, 0, 0), (0, 0, 1), (5, 5, 5)], G=3)
    chk = cf.verify_code(code)
    assert (chk.M, chk.d, chk.injective) == (3, 1, True)
    assert chk.worst_pair == (0, 1)

    dup = manual_code([(0, 0, 0), (0, 0, 0)], G=3)
    chk = cf.verify_code(dup)
    assert not chk.injective and not chk.ok
    assert (chk.d, chk.worst_pair) == (0, (0, 1))

    single = manual_code([(1, 2, 3)], r=2, G=1)
    chk = cf.verify_code(single)
    assert (chk.M, chk.d) == (1, 3)
    assert chk.worst_pair is None


def test_verify_code_counts_repeated_rows(rng):
    """Rows in several groups of equal words: M, injectivity, d = 0 and
    the lexicographically least pair (i, j) of equal rows are those of a
    brute-force search over all pairs."""
    for _ in range(40):
        pool = [tuple(rng.randrange(5) for _ in range(3))
                for _ in range(rng.randrange(2, 8))]
        words = [rng.choice(pool) for _ in range(rng.randrange(2, 30))]
        equal = [(i, j) for i in range(len(words))
                 for j in range(i + 1, len(words)) if words[i] == words[j]]
        chk = cf.verify_code(manual_code(words, q=5, r=2, G=1))
        assert (chk.M, chk.injective) == (len(set(words)), not equal), words
        if equal:
            assert (chk.d, chk.worst_pair, chk.ok) == (0, min(equal), False)
    words = [(1, 1), (2, 2), (3, 3), (2, 2), (1, 1), (3, 3), (2, 2)]
    chk = cf.verify_code(manual_code(words, q=5, r=2, G=1))
    assert (chk.M, chk.d, chk.injective, chk.worst_pair) == (3, 0, False,
                                                             (0, 4))


def test_verify_code_owns_the_symbol_range():
    words = [(0, 1, 2), (3, 4, 104), (3, 4, 5), (7, 8, -1)]
    chk = cf.verify_code(manual_code(words, q=13, r=2, G=1))
    assert chk.bad_symbol == (1, 104) and not chk.ok
    assert (chk.M, chk.d, chk.worst_pair) == (4, 1, (1, 2))
    # symbols are only compared, so ones past int64 keep d and the pair exact
    big = 10 ** 23
    words = [(big, 0, 1), (big + 1, 5, 6), (big, 0, 2)]
    for q, bad in ((13, (0, big)), (10 ** 30, None)):
        chk = cf.verify_code(manual_code(words, q=q, r=2, G=1))
        assert chk.bad_symbol == bad
        assert (chk.d, chk.worst_pair) == (1, (0, 2))
    good = cf.verify_code(manual_code([(0, 1, 2), (3, 4, 5)], q=13, r=2, G=1))
    assert good.ok and good.bad_symbol is None


def test_verify_code_fails_a_target_past_the_pairwise_cap():
    # r^G / sqrt(4) = PAIRWISE_CAP exactly at r = 2 * PAIRWISE_CAP, G = 1
    words = [(0, 1), (1, 0)]
    r = 2 * cf.PAIRWISE_CAP
    at_cap = cf.verify_code(manual_code(words, q=r + 1, r=r, G=1))
    assert at_cap.min_target == cf.PAIRWISE_CAP and not at_cap.ok
    past = cf.verify_code(manual_code(words, q=r + 1, r=r + 1, G=1))
    assert past.min_target is None and not past.ok
    assert (past.M, past.d, past.injective) == (2, 2, True)


def test_verify_code_threads_agree(rng):
    words = [tuple(rng.randrange(300) for _ in range(7)) for _ in range(500)]
    code = manual_code(words, q=300, G=7)
    a = cf.verify_code(code, threads=1)
    b = cf.verify_code(code, threads=3)
    assert (a.M, a.d, a.worst_pair) == (b.M, b.d, b.worst_pair)


@st.composite
def scan_cases(draw):
    """(words, labels, block): m rows of n symbols from a q-symbol alphabet,
    the same rows as the labels 0..q-1 of their symbols, and a block size
    for the scan (0: its default). Symbols may be negative or past 2^63;
    some columns are made constant and some rows are copied onto others."""
    q, n = draw(st.integers(2, 6)), draw(st.integers(1, 8))
    m = draw(st.integers(2, 40))
    alphabet = draw(st.lists(st.one_of(st.integers(-2 ** 70, 2 ** 70),
                                       st.integers(2 ** 63, 2 ** 66)),
                             min_size=q, max_size=q, unique=True))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    labels = draw(st.lists(row, min_size=m, max_size=m))
    for k in draw(st.sets(st.integers(0, n - 1))):
        for r in labels:
            r[k] = labels[0][k]
    index = st.integers(0, m - 1)
    for src, dst in draw(st.lists(st.tuples(index, index), max_size=3)):
        labels[dst] = list(labels[src])
    words = tuple(tuple(alphabet[x] for x in r) for r in labels)
    return words, labels, draw(st.integers(0, m))


@given(scan_cases())
@settings(max_examples=300, deadline=None)
def test_distance_scan_matches_dense_oracle(case):
    """The bitset scan, in blocks of any size, and verify_code give the
    dense scan's least distance and its lexicographically least pair,
    repeated rows included."""
    words, labels, block = case
    want = dense_distance_scan(labels)
    assert cf._distance_scan(words, len(words[0]), block) == want
    chk = cf.verify_code(manual_code(words))
    assert (chk.d, chk.worst_pair) == want


def test_distance_scan_gives_singletons_no_mask():
    """A symbol that occurs once in its column gets no mask: with nearly
    every symbol distinct, the masks of all symbols would take about
    20 * 2000 * 1000 bits = 5 MB, and the scan stays under 1 MB."""
    rng = random.Random(7)
    rows = [[rng.randrange(10 ** 9) for _ in range(20)] for _ in range(2000)]
    rows[1500] = rows[300][:5] + rows[1500][5:]
    words = tuple(map(tuple, rows))
    tracemalloc.start()
    try:
        got = cf._distance_scan(words, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert got == dense_distance_scan(rows) == (15, (300, 1500))


def test_distance_scan_splits_the_rows_into_blocks(monkeypatch):
    """Under a mask budget of 2^16 bits, 600 rows with 50 symbols per column
    are scanned in blocks of 38 rows, and d and the pair stay exact."""
    rng = random.Random(8)
    rows = [[rng.randrange(50) for _ in range(20)] for _ in range(600)]
    monkeypatch.setattr(cf, "_SCAN_BITS", 1 << 16)
    assert cf._distance_scan(tuple(map(tuple, rows)), 20) == \
        dense_distance_scan(rows)


def test_norm_gap_check():
    """The test-side oracle of the norm lemma accepts built codes and
    rejects a repeated lattice point."""
    K = qf.make_field(-4)
    # (9, 200, 1) has n = 43 positions, and 9^43 overflows int64
    for args in ((9, 13, 1), (9, 13, 3), (9, 200, 1)):
        assert norm_gap_check(tr.build_code(K, *args))
    assert norm_gap_check(tr.build_code(qf.make_field(13), 4, 17, 1))
    code = tr.build_code(K, 9, 13, 1)
    # duplicating a lattice point forces N(a-b) = 0 below r^agree
    bad = ln.LenstraCode(disc=code.disc, q=code.q, r=code.r, G=code.G,
                         n=code.n, tau=code.tau, ideals=code.ideals,
                         omega=code.omega + (code.omega[0],),
                         codewords=code.codewords + (code.codewords[0],))
    assert not norm_gap_check(bad)
    tiny = manual_code([(1, 2, 3)], omega=[(0, 0)])
    assert norm_gap_check(tiny)
    with pytest.raises(ValueError):
        norm_gap_check(manual_code([(0,), (1,)], q=2, r=1 << 31, G=2,
                                   omega=[(0, 0), (1, 0)]))


# ---------------------------------------------------- distance from the box


GOLDEN_CODES = ("-4_9_13_1", "-3_9_40_2", "-23_12_60_2", "8_10_50_2",
                "13_11_70_2")
GOLDEN = Path(__file__).parent / "golden"


def derived_and_scanned(path):
    """(derived verdict, verify_code's verdict) of the code file at path,
    which must take the derived path: its code holds no words."""
    code, check = cf.check_code_file(path)
    assert code.box is not None and code.codewords == (), path
    return check, cf.verify_code(cf.read_code_file(path))


@pytest.mark.parametrize("name", GOLDEN_CODES)
def test_box_distance_on_golden_codes(name):
    """Each golden file is derived from its box, with the whole verdict of
    the bitset scan, and d and the worst pair of the dense scan."""
    path = GOLDEN / (name + ".code")
    derived, scanned = derived_and_scanned(path)
    assert derived == scanned
    words = cf.read_code_file(path).codewords
    assert (derived.d, derived.worst_pair) == dense_distance_scan(words)


def test_check_code_file_factorizes_the_disc_once(monkeypatch):
    """The header's validation factorizes disc, and the derivation builds
    its field from that one factorization."""
    calls = []
    factorize = nt.factorize

    def counted(n):
        calls.append(n)
        return factorize(n)
    monkeypatch.setattr(nt, "factorize", counted)
    code, check = cf.check_code_file(GOLDEN / "-23_12_60_2.code")
    assert code.codewords == () and check.ok
    assert calls == [-23]


def ideal_kind(P):
    if P.residue_root is None:
        return "inert"
    return "zero root" if P.residue_root % P.p == 0 else P.split_type


# rows that hold a ramified ideal with root 0 (-20, 12), a split ideal with
# root 0 (21: N(omega) = -5), ramified unit roots (21, -23), real fields
# and the two benchmark rows
DERIVED_ROWS = [(-20, 5, 60, 2), (21, 5, 60, 2), (12, 4, 40, 2),
                (-23, 12, 60, 2), (13, 11, 70, 2), (-4, 15, 200, 3),
                (5, 15, 300, 3)]


def seeded_rows(seed):
    """DERIVED_ROWS for seed 0, else 8 seeded (D, r, q, G) whose files the
    derivation accepts: q <= M n for the volume target M."""
    rng = random.Random(seed)
    pool = [-3, -4, -7, -8, -15, -20, -23, -24, 5, 8, 12, 13, 17, 21, 24]
    rows = list(DERIVED_ROWS) if seed == 0 else []
    while len(rows) < 8:
        D, r, G = rng.choice(pool), rng.randrange(2, 13), rng.randrange(1, 4)
        q = rng.randrange(r, 130)
        if r ** (2 * G) < abs(D) or r ** G > 3000 or (D, r, q, G) in rows:
            continue
        K = qf.make_field(D)
        n = len(qf.prime_ideals_in_norm_range(K, r, q))
        M = ln.minkowski_target(r, G, abs(D))
        if G <= n and q <= M * n and M >= 2:
            rows.append((D, r, q, G))
    return rows


@pytest.mark.parametrize("seed", range(3))
def test_box_distance_matches_the_scans_on_seeded_rows(seed, tmp_path):
    """Fixed rows and seeded ones: the file construct writes is never
    refused by the derivation, and its verdict is the bitset scan's, with
    the dense scan's d and worst pair."""
    kinds, signs = set(), set()
    path = tmp_path / "code.txt"
    for D, r, q, G in seeded_rows(seed):
        code = tr.build_code(qf.make_field(D), r, q, G)
        path.write_text(ln.format_code_file(code))
        derived, scanned = derived_and_scanned(path)
        assert derived == scanned, (D, r, q, G)
        assert (derived.d, derived.worst_pair) == dense_distance_scan(
            code.codewords), (D, r, q, G)
        kinds.update(map(ideal_kind, code.ideals))
        signs.add(D > 0)
    if seed == 0:
        assert kinds == {"inert", "zero root", qf.SPLIT, qf.RAMIFIED}
        assert signs == {True, False}


GOLDEN_ROWS = [tuple(map(int, name.split("_"))) for name in GOLDEN_CODES]


@pytest.mark.parametrize("D, r, q, G", GOLDEN_ROWS + DERIVED_ROWS)
def test_code_lines_are_the_words_in_decimal(D, r, q, G):
    """The row generator writes each of build_code's words as its symbols
    in decimal separated by single spaces, with and without its table of
    symbols (M < q at (-4, 9, 13, 1)), in real fields and for inert,
    ramified and zero-root ideals; the golden files hold these rows."""
    K = qf.make_field(D)
    code = tr.build_code(K, r, q, G)
    columns, M = ln.box_columns(K, code.box)
    lines = list(ln.code_lines(columns, code.ideals, q))
    assert M == len(lines) == len(code.omega)
    assert lines == [" ".join(map(str, w)) for w in code.codewords]
    golden = GOLDEN / ("%d_%d_%d_%d.code" % (D, r, q, G))
    if (D, r, q, G) in GOLDEN_ROWS:
        assert golden.read_text().splitlines()[1:] == lines


def test_code_lines_read_inert_ideals_from_either_path():
    """An inert ideal's rows come from its table of names when the table
    has no more entries than the box has points, and point by point
    otherwise: (-3, 9, 200, 3) holds one of each (p = 5 and 11), the
    benchmark's boxes only tables, (-23, 12, 60, 2) none. Every line is
    the per-point oracle's residues in decimal."""
    sides = set()
    for D, r, q, G in [(-3, 9, 200, 3), (-4, 15, 200, 3), (5, 15, 300, 3),
                       (-23, 12, 60, 2)]:
        K = qf.make_field(D)
        code = tr.plan_code(K, r, q, G)
        columns, M = ln.box_columns(K, code.box)
        longest = max(hi - lo for _, lo, hi in columns)
        sides.update(P.p ** 2 * (longest // P.p + 2) <= M
                     for P in code.ideals if P.split_type == qf.INERT)
        want = zip(*(per_point_residues(columns, P, q) for P in code.ideals))
        assert list(ln.code_lines(columns, code.ideals, q)) == [
            " ".join(map(str, w)) for w in want], (D, r, q, G)
    assert sides == {True, False}


@pytest.mark.parametrize("name", GOLDEN_CODES)
def test_format_code_file_writes_the_codewords(name):
    """format_code_file is the inverse of parse_code_file on the golden
    files, and writes the words a code holds, edited or not, in the form
    of code_lines."""
    text = (GOLDEN / (name + ".code")).read_text()
    code = cf.parse_code_file(text)
    assert ln.format_code_file(code) == text
    words = code.codewords[::-1]
    edited = ln.format_code_file(code._replace(codewords=words))
    assert edited.splitlines() == text.splitlines()[:1] + [
        " ".join(map(str, w)) for w in words]


def test_difference_distance_on_seeded_columns(rng):
    """Columns that no box makes: gaps in u, ragged v-intervals and short
    columns, so a du holds several merged intervals. The words are the
    residues of their points under every ideal of norm in [2, 60] of small
    fields, and the distance from their differences equals the dense
    scan's, equal words included."""
    done = 0
    for D in (-4, -3, -20, -23, 5, 12, 21):
        ideals = qf.prime_ideals_in_norm_range(qf.make_field(D), 2, 60)
        for _ in range(6):
            columns, u = [], rng.randrange(-30, 30)
            for _ in range(rng.randrange(1, 12)):
                lo = rng.randrange(-25, 25)
                columns.append((u, lo, lo + rng.randrange(0, 7)))
                u += rng.randrange(1, 6)
            chosen = rng.sample(ideals, rng.randrange(1, len(ideals) + 1))
            words = list(ln.code_words(columns, chosen, 60))
            if len(words) < 2:
                continue
            assert cf._difference_distance(columns, chosen, len(chosen)) == \
                dense_distance_scan(words), (D, columns, chosen)
            done += 1
    assert done > 30


def test_difference_distance_leaves_255_hits_to_the_scan():
    """A count that reaches 255 may have saturated, so the derivation
    declines; at 254 it is exact."""
    P = qf.splitting_type(qf.make_field(-4), 5)[0]
    columns = [(0, 0, 7), (5, -3, 3)]
    for copies, want in ((254, True), (255, False)):
        words = list(ln.code_words(columns, [P] * copies, 5))
        got = cf._difference_distance(columns, [P] * copies, copies)
        assert (got == dense_distance_scan(words)) is want
        assert (got is None) is not want


def test_difference_distance_holds_its_counts_in_bytes():
    """At (-4, 15, 200, 3), 1,764 points in 42 columns, the hit counts of
    the realised differences take one byte each: the derivation peaks
    below 256 KiB."""
    code = tr.build_code(qf.make_field(-4), 15, 200, 3)
    columns = list(ln._columns(qf.make_field(-4), code.box))
    tracemalloc.start()
    try:
        got = cf._difference_distance(columns, code.ideals, code.n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (38, (0, 17))
    assert peak < 256 << 10


def tampered_files(text):
    """name -> a copy of code file text that is not, byte for byte, the
    lines of the box its header names."""
    head, *rows = text.splitlines(keepends=True)
    word = rows[5].split()
    word[0] = str(int(word[0]) ^ 1)
    padded = rows[3].split()
    padded[1] = "00" + padded[1]  # 007 for 7
    token = head.split()[-1]
    assert token.startswith("shift=") and token != "shift=none"
    s1, s2 = (Fraction(x) for x in token[len("shift="):].split(","))
    code = cf.parse_code_file(text)
    K = qf.make_field(code.disc)
    # a q below the largest ideal norm lists fewer ideals than n columns
    low_q = max(P.norm for P in qf.prime_ideals_in_norm_range(
        K, code.r, code.q)) - 1
    return {
        "word changed": "".join([head] + rows[:5] + [" ".join(word) + "\n"]
                                + rows[6:]),
        "rows swapped": "".join([head, rows[1], rows[0]] + rows[2:]),
        "centred shift": text.replace(token, "shift=none", 1),
        # half a cell along u: other points, as many for disc -3
        "moved shift": text.replace(
            token, "shift=%s,%s" % ((s1 + Fraction(1, 2)) % 1, s2), 1),
        "no shift": text.replace(" " + token, "", 1),
        "fewer ideals": text.replace(" q=%d " % code.q, " q=%d " % low_q, 1),
        # the same words in other text
        "CRLF": text.replace("\n", "\r\n"),
        "trailing space": "".join([head] + rows[:2] + [rows[2][:-1] + " \n"]
                                  + rows[3:]),
        "blank line": "".join([head] + rows[:4] + ["\n"] + rows[4:]),
        "leading zeros": "".join([head] + rows[:3] + [" ".join(padded) + "\n"]
                                 + rows[4:]),
        "no last newline": text[:-1],
        "extra row": text + rows[0],
        # a form feed ends a line too: row 0 twice, once in physical line 1
        "row in line 1": head[:-1] + "\f" + rows[0] + "".join(rows),
    }


@pytest.mark.parametrize("name", ["-3_9_40_2", "8_10_50_2"])
def test_tampered_files_take_the_scan_path(name, tmp_path, monkeypatch):
    """Each tampered file is refused by the derivation and scanned, with
    the dense scan's d and worst pair, and `verify` prints exactly what the
    scan alone prints: the same bytes and exit code as with the derivation
    switched off."""
    text = (GOLDEN / (name + ".code")).read_text()
    path = tmp_path / "t.code"
    derived_check = cf._derived_check
    for what, tampered in tampered_files(text).items():
        path.write_bytes(tampered.encode())
        monkeypatch.setattr(cf, "_derived_check", derived_check)
        code, chk = cf.check_code_file(path)
        assert code.codewords, what
        assert chk == cf.verify_code(code), what
        # the scan path holds rows as bytes, which numpy reads as strings
        assert (chk.d, chk.worst_pair) == dense_distance_scan(
            [list(w) for w in code.codewords]), what
        outputs = []
        for derive in (derived_check, lambda code, K, fp: None):
            monkeypatch.setattr(cf, "_derived_check", derive)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(["verify", str(path)])
            outputs.append((rc, out.getvalue(), err.getvalue()))
        assert outputs[0] == outputs[1], what


def symbol_edits(text, rng):
    """Seeded edits of a code file's text, by name: a duplicated row, a
    changed symbol, the symbols 255, 256, -1 and q, and a copy of a row
    with one symbol s written as s + 256, which equals the row it copies
    only if symbols are taken modulo 256."""
    head, *lines = text.splitlines()
    rows = [line.split() for line in lines]
    q = int(head.split(" q=")[1].split()[0])

    def edited(value):
        """(i, row i with one seeded symbol s written as value(s))"""
        i, k = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
        row = list(rows[i])
        row[k] = str(value(int(row[k])))
        return i, row

    i, j = rng.randrange(len(rows)), rng.randrange(len(rows) + 1)
    files = {"duplicated row": rows[:j] + [rows[i]] + rows[j:],
             "alias of a row": rows + [edited(lambda s: s + 256)[1]]}
    for what, value in (("changed symbol", lambda s: (s + 1) % q),
                        ("symbol 255", lambda s: 255),
                        ("symbol 256", lambda s: 256),
                        ("symbol -1", lambda s: -1),
                        ("symbol q", lambda s: q)):
        i, row = edited(value)
        files[what] = rows[:i] + [row] + rows[i + 1:]
    return {what: "\n".join([head] + [" ".join(row) for row in body]) + "\n"
            for what, body in files.items()}


def code_file_text(disc, r, q, G):
    K = qf.make_field(disc)
    code = tr.plan_code(K, r, q, G)
    columns, _ = ln.box_columns(K, code.box)
    return "".join(line + "\n" for line in ln.code_file_lines(code, columns))


def test_byte_rows_give_the_verdict_of_tuple_rows(tmp_path, monkeypatch):
    """With the derivation off, check_code_file scans every golden code
    file, seeded edits of each, and a q = 300 file with rows on both sides
    of 256, plain and with one symbol changed. It holds a row as bytes
    exactly when its symbols lie in [0, 256), the same integers as the
    tuple of parse_code_file, and its verdict is verify_code's on those
    tuples, in every field."""
    monkeypatch.setattr(cf, "_derived_check", lambda code, K, fp: None)
    rng = random.Random(25)
    texts = {}
    for path in sorted(GOLDEN.glob("*.code")):
        text = path.read_text()
        texts[path.name] = text
        for what, edited in symbol_edits(text, rng).items():
            texts["%s, %s" % (path.name, what)] = edited
    wide = code_file_text(-4, 17, 300, 2)
    texts["q=300"] = wide
    texts["q=300, changed symbol"] = symbol_edits(
        wide, rng)["changed symbol"]
    kinds = set()
    path = tmp_path / "t.code"
    for what, text in texts.items():
        path.write_text(text)
        code, check = cf.check_code_file(path)
        want = cf.parse_code_file(text)
        assert [tuple(w) for w in code.codewords] == list(want.codewords), what
        for w in code.codewords:
            assert isinstance(w, bytes) == all(0 <= s < 256 for s in w), what
            kinds.add(type(w))
        assert check == cf.verify_code(want), what
    assert kinds == {bytes, tuple}
    assert {max(w) >= 256 for w in cf.parse_code_file(wide).codewords} == {
        True, False}


def test_lenstra_forwards_only_the_public_functions_that_moved():
    """The seven public functions that lenstra held before translate and
    codefile were split from it are still its attributes, the very
    functions of their modules; nothing else of those modules is."""
    for module, names in ((tr, ("find_tau", "plan_code", "build_code")),
                          (cf, ("read_code_file", "parse_code_file",
                                "check_code_file", "verify_code"))):
        for name in names:
            assert getattr(ln, name) is getattr(module, name), name
    for name in ("_grid_scores", "_GRIDS", "_read_rows", "CodeCheck",
                 "PAIRWISE_CAP", "no_such_name"):
        with pytest.raises(AttributeError, match=name):
            getattr(ln, name)
