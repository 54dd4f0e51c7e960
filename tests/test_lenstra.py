"""Lattice boxes, certified translates, code construction, verification.

The enumeration oracle re-embeds the lattice with plain 60-digit mpmath
floats and scans a padded rectangle; it shares no code path with the
exact integer classifier it checks, and it asserts every point it
classifies is far from the box faces.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath import mp

from gvforge import enclosure as encl
from gvforge import lenstra as ln
from gvforge import quadfield as qf
from gvforge.errors import DomainError, TauSearchError

from conftest import norm_gap_check


def embed_mp(D: int, u: int, v: int):
    """Oracle embedding at 60 digits, written from the definitions."""
    if D % 4 == 0:
        d = D // 4
        if D < 0:
            return mp.mpf(u), v * mp.sqrt(-d)
        return u + v * mp.sqrt(d), u - v * mp.sqrt(d)
    if D < 0:
        return u + mp.mpf(v) / 2, v * mp.sqrt(-D) / 2
    return u + v * (1 + mp.sqrt(D)) / 2, u + v * (1 - mp.sqrt(D)) / 2


def brute_box_count(D: int, box) -> int:
    """Count lattice points strictly inside the box by scanning a rectangle."""
    with mp.workdps(60):
        t1 = mp.mpf(mpmath.nstr(encl.midpoint(box.tau1), 40))
        t2 = mp.mpf(mpmath.nstr(encl.midpoint(box.tau2), 40))
        rho = mp.mpf(mpmath.nstr(encl.midpoint(box.rho), 40))
        guard = mp.mpf("1e-18") * (1 + abs(t1) + abs(t2) + rho)
        span = float(abs(t1) + abs(t2) + rho) + 2.0
        lim = int(4 * span / max(1.0, math.sqrt(abs(D)) / 4)) + int(span) + 4
        count = 0
        for u in range(-lim, lim + 1):
            for v in range(-lim, lim + 1):
                x0, x1 = embed_mp(D, u, v)
                dists = (x0 - t1, t1 + rho - x0, x1 - t2, t2 + rho - x1)
                assert all(abs(z) > guard for z in dists), (u, v, "face contact")
                if all(z > 0 for z in dists):
                    count += 1
        return count


# ------------------------------------------------------------- embedding


def test_embedding_covolume_is_det():
    """|det| of the basis encloses the covolume 2^-t sqrt|disc|, computed
    here in plain 60-digit mpmath."""
    for D in (-4, -3, -8, -23, 5, 8, 12, 13, 44):
        K = qf.make_field(D)
        E = ln.make_embedding(K)
        det = E.b00 * E.b11 - E.b01 * E.b10
        with mpmath.workdps(60):
            covolume = mpmath.sqrt(abs(K.disc)) / 2 ** K.t
        assert encl.contains(det, covolume) or encl.contains(-det, covolume)
        assert encl.width(det) < mpmath.mpf("1e-30")


def test_embedding_reproduces_the_norm(rng):
    for D in (-4, -3, -8, -23, -84, 5, 8, 12, 13, 44):
        K = qf.make_field(D)
        E = ln.make_embedding(K)
        for _ in range(40):
            u, v = rng.randrange(-30, 31), rng.randrange(-30, 31)
            x0 = E.b00 * u + E.b01 * v
            x1 = E.b10 * u + E.b11 * v
            prod = (x0 * x0 + x1 * x1) if D < 0 else (x0 * x1)
            want = K.norm(u, v)
            assert encl.lower(prod) <= want <= encl.upper(prod), (D, u, v)


def test_box_side():
    K = qf.make_field(-4)
    rho = ln.box_side(K, 9, 1)
    sq = rho * rho
    assert encl.contains(sq, Fraction(9, 2))  # volume r^G scaled by 2^-t
    K5 = qf.make_field(5)
    assert encl.contains(ln.box_side(K5, 9, 1) ** 2, Fraction(9))
    with pytest.raises(DomainError):
        ln.box_side(K, 1, 1)
    with pytest.raises(DomainError):
        ln.box_side(K, 9, 0)


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
    E = ln.make_embedding(K)
    eps = Fraction(1, 1 << 20)
    tau = Fraction(-1, 2) + eps
    box = ln.box_at(E, 9, 1, (tau, tau))
    pts = ln.enumerate_omega(E, box)
    assert pts == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert brute_box_count(-4, box) == 4


def test_faces_through_lattice_points_exclude_them():
    # tau = (0, 0), rho = 3/sqrt(2): the lower faces u = 0 and v = 0 pass
    # through lattice points, which an open box leaves out
    E = ln.make_embedding(qf.make_field(-4))
    box = ln.box_at(E, 9, 1, (0, 0))
    assert ln.enumerate_omega(E, box) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    # centred at rho = 2 (r^G = 8), the faces x = +-1 hold lattice points
    centred = ln.box_at(E, 2, 3, None)
    assert ln.enumerate_omega(E, centred) == [(0, 0)]
    # disc 8, x = (u + v sqrt 2, u - v sqrt 2) in (0, 2)^2: (0, 0) and
    # (2, 0) sit on corners, and only (1, 0) is inside
    E8 = ln.make_embedding(qf.make_field(8))
    assert ln.enumerate_omega(E8, ln.box_at(E8, 4, 1, (0, 0))) == [(1, 0)]


def test_find_tau_meets_target():
    cases = [(-4, 9, 1), (-4, 4, 1), (-4, 9, 3), (-3, 4, 1), (-23, 6, 1),
             (-163, 2, 1), (5, 4, 1), (8, 3, 1), (12, 5, 2), (13, 4, 1)]
    for D, r, G in cases:
        K = qf.make_field(D)
        E = ln.make_embedding(K)
        box = ln.find_tau(E, r, G)
        target = ln.minkowski_target(r, G, abs(D))
        pts = ln.enumerate_omega(E, box)
        assert len(pts) >= target, (D, r, G)
        assert pts == sorted(set(pts))


def test_find_tau_deterministic():
    K = qf.make_field(-4)
    E = ln.make_embedding(K)
    b1 = ln.find_tau(E, 9, 1)
    b2 = ln.find_tau(E, 9, 1)
    assert (b1.grid, b1.cell, b1.bumps) == (b2.grid, b2.cell, b2.bumps)
    assert ln.enumerate_omega(E, b1) == ln.enumerate_omega(E, b2)


@pytest.mark.parametrize("start_grid", [0, -1])
def test_find_tau_rejects_a_start_grid_below_one(start_grid):
    """Doubling a grid of 0 never ends, and a negative grid is no grid."""
    E = ln.make_embedding(qf.make_field(-4))
    with pytest.raises(DomainError, match="start grid"):
        ln.find_tau(E, 9, 1, start_grid=start_grid)


def reference_find_tau(E, r, G, start_grid=64, max_grid=1024):
    """Oracle for find_tau: one _float_columns call per grid cell, the cells
    sorted as (-score, i, j) tuples. Returns (grid, cell, shift), or None
    where every grid is exhausted."""
    target = ln.minkowski_target(r, G, abs(E.field.disc))
    centred_count = len(ln.enumerate_omega(E, ln.box_at(E, r, G, None)))
    rho = float(encl.midpoint(ln.box_side(E.field, r, G)))
    bf = E.floats
    P = ln._reach(E.field, r, G)[1]
    us = np.arange(-P, P + 1.0)
    off = ln._GRID_OFFSET
    g = start_grid
    while g <= max_grid:
        scored = []
        for i in range(g):
            for j in range(g):
                si, sj = i / g + float(off), j / g + float(off)
                lo, hi, alive = ln._float_columns(
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
            count = len(ln.enumerate_omega(E, ln.box_at(E, r, G, shift)))
            if count > best_count:
                best, best_count = (g, (i, j), shift), count
        if centred_count > best_count:
            best, best_count = (g, (-1, -1), None), centred_count
        if best_count >= target:
            return best
        g *= 2
    return None


def _tau_or_none(E, r, G, **grids):
    try:
        box = ln.find_tau(E, r, G, **grids)
    except TauSearchError:
        return None
    return box.grid, box.cell, box.shift


@pytest.mark.parametrize("D,r,G,start,stop", [
    # the golden and benchmark fields, at the default grids
    (-4, 9, 1, 64, 1024), (-3, 9, 2, 64, 1024), (-23, 12, 2, 64, 1024),
    (8, 10, 2, 64, 1024), (13, 11, 2, 64, 1024), (-4, 15, 3, 64, 1024),
    (5, 15, 3, 64, 1024),
    # grids that climb to 8 and 4, and one that is exhausted
    (-3, 2, 1, 1, 64), (-3, 3, 1, 1, 64), (-4, 4, 1, 1, 1)])
def test_find_tau_matches_per_cell_ranking(D, r, G, start, stop):
    E = ln.make_embedding(qf.make_field(D))
    grids = {"start_grid": start, "max_grid": stop}
    assert _tau_or_none(E, r, G, **grids) == reference_find_tau(E, r, G,
                                                               **grids)


def test_find_tau_matches_per_cell_ranking_random(rng):
    pool = [-3, -4, -7, -8, -11, -15, -20, -23, -24, 5, 8, 12, 13, 17, 21]
    done = 0
    while done < 8:
        D, r, G = rng.choice(pool), rng.randrange(2, 40), rng.randrange(1, 4)
        if r ** G > 5000 or r ** (2 * G) < abs(D):
            continue
        E = ln.make_embedding(qf.make_field(D))
        grids = {"start_grid": rng.choice([1, 2, 4, 64]), "max_grid": 64}
        want = reference_find_tau(E, r, G, **grids)
        assert _tau_or_none(E, r, G, **grids) == want, (D, r, G, grids)
        done += 1


def test_find_tau_exhaustion_raises():
    K = qf.make_field(-4)
    E = ln.make_embedding(K)
    with pytest.raises(TauSearchError):
        ln.find_tau(E, 4, 1, start_grid=1, max_grid=1)


def test_enumerate_against_brute_force(rng):
    pool = [-3, -4, -7, -8, -15, -20, -23, 5, 8, 12, 13]
    done = 0
    while done < 12:
        D = rng.choice(pool)
        r = rng.randrange(2, 9)
        G = rng.randrange(1, 3)
        if r ** G > 400 or r ** (2 * G) < abs(D):
            continue
        K = qf.make_field(D)
        E = ln.make_embedding(K)
        box = ln.find_tau(E, r, G)
        pts = ln.enumerate_omega(E, box)
        assert len(pts) == brute_box_count(D, box), (D, r, G)
        assert len(pts) >= ln.minkowski_target(r, G, abs(D))
        done += 1


# --------------------------------------------------------- residue symbol


def test_residue_symbol_examples():
    Ki = qf.make_field(-4)
    (inert3,) = qf.splitting_type(Ki, 3)
    assert ln.residue_symbol((4, 5), inert3, q=13) == 5  # (4%3)*3 + (5%3)
    split13 = qf.splitting_type(Ki, 13)
    assert split13[0].residue_root == 5
    assert ln.residue_symbol((2, 3), split13[0], q=13) == 4  # (2+15) mod 13
    assert ln.residue_symbol((2, 3), split13[1], q=13) == 0  # (2+24) mod 13
    K12 = qf.make_field(12)
    (ram3,) = qf.splitting_type(K12, 3)
    assert ln.residue_symbol((7, 5), ram3, q=12) == 1
    with pytest.raises(DomainError):
        ln.residue_symbol((4, 5), inert3, q=8)  # norm 9 > q


def test_residue_symbol_is_a_ring_map(rng):
    Ki = qf.make_field(-4)
    for P in qf.splitting_type(Ki, 13) + qf.splitting_type(Ki, 3):
        for _ in range(60):
            a = (rng.randrange(-40, 41), rng.randrange(-40, 41))
            b = (rng.randrange(-40, 41), rng.randrange(-40, 41))
            s = (a[0] + b[0], a[1] + b[1])
            m = P.norm
            ra, rb = ln.residue_symbol(a, P, 169), ln.residue_symbol(b, P, 169)
            rs = ln.residue_symbol(s, P, 169)
            if P.split_type == qf.INERT:
                # addition acts coordinatewise on the packed value
                au, av = divmod(ra, P.p)
                bu, bv = divmod(rb, P.p)
                assert rs == ((au + bu) % P.p) * P.p + (av + bv) % P.p
            else:
                assert rs == (ra + rb) % m
                assert 0 <= rs < m


# ------------------------------------------------------ code construction


def test_build_code_gaussian():
    K = qf.make_field(-4)
    code = ln.build_code(K, 9, 13, 1)
    assert (code.n, code.G) == (3, 1)
    assert len(code.codewords) >= 5
    assert all(len(w) == 3 for w in code.codewords)
    assert all(0 <= s <= 13 for w in code.codewords for s in w)
    chk = ln.verify_code(code)
    assert chk.ok and chk.injective
    assert chk.M >= chk.min_target == 5
    assert chk.d >= 3
    assert norm_gap_check(code)


def test_build_code_genus_three():
    K = qf.make_field(-4)
    code = ln.build_code(K, 9, 13, 3)
    assert code.n == 3
    chk = ln.verify_code(code)
    assert chk.ok
    assert chk.M >= 365
    assert chk.d >= 1
    assert norm_gap_check(code)


def test_build_code_real_field():
    K = qf.make_field(12)
    code = ln.build_code(K, 5, 23, 2)
    assert code.n == 6
    chk = ln.verify_code(code)
    assert chk.ok
    assert chk.M >= ln.minkowski_target(5, 2, 12) == 8
    assert chk.d >= 5
    assert norm_gap_check(code)


def test_build_code_rejects_bad_parameters():
    K = qf.make_field(-4)
    with pytest.raises(DomainError):
        ln.build_code(K, 1, 13, 1)
    with pytest.raises(DomainError):
        ln.build_code(K, 9, 13, 0)
    with pytest.raises(DomainError):
        ln.build_code(K, 9, 13, 4)  # only 3 ideals available
    with pytest.raises(DomainError):
        ln.build_code(K, 6, 8, 1)   # no ideal norms in [6, 8]
    with pytest.raises(DomainError):
        ln.build_code(qf.make_field(-163), 2, 5, 1)  # r^2G < |disc|


# ------------------------------------------------------------ code files


def test_code_file_roundtrip(tmp_path):
    K = qf.make_field(-4)
    code = ln.build_code(K, 9, 13, 1)
    path = tmp_path / "code.txt"
    path.write_text(ln.format_code_file(code))
    text = path.read_text()
    assert text.startswith("# lenstra q=13 r=9 G=1 disc=-4 n=3 tau=")
    assert text.endswith("\n")
    back = ln.read_code_file(path)
    assert (back.q, back.r, back.G, back.disc, back.n) == (13, 9, 1, -4, 3)
    assert back.codewords == code.codewords
    assert back.tau == code.tau  # repr round-trips floats exactly


def test_parse_code_file_errors():
    with pytest.raises(DomainError, match="line 1"):
        ln.parse_code_file("not a header\n1 2 3\n")
    with pytest.raises(DomainError, match="line 1"):
        ln.parse_code_file("# lenstra q=13 r=nine G=1 disc=-4 n=3 tau=0.0,0.0\n")
    with pytest.raises(DomainError, match="line 1"):
        ln.parse_code_file("# lenstra q=13 r=9 G=1 disc=-4 n=3 tau=0.0\n")
    with pytest.raises(DomainError, match="line 1"):
        ln.parse_code_file("# lenstra q=13 junk r=9 G=1 disc=-4 n=3 tau=0.0,0.0\n")
    head = "# lenstra q=13 r=9 G=1 disc=-4 n=3 tau=0.0,0.0\n"
    with pytest.raises(DomainError, match="line 2"):
        ln.parse_code_file(head + "1 2\n")
    with pytest.raises(DomainError, match="line 3"):
        ln.parse_code_file(head + "1 2 3\n4 x 6\n")
    code = ln.parse_code_file(head + "1 2 3\n\n4 5 6\n")
    assert code.codewords == ((1, 2, 3), (4, 5, 6))


# ----------------------------------------------------------- verification


def manual_code(words, q=29, r=5, G=1, disc=-4, omega=()):
    n = len(words[0]) if words else 0
    return ln.LenstraCode(disc=disc, q=q, r=r, G=G, n=n, tau=(0.0, 0.0),
                          ideals=(), omega=tuple(omega), codewords=tuple(words))


def test_verify_code_details():
    code = manual_code([(0, 0, 0), (0, 0, 1), (5, 5, 5)], G=3)
    chk = ln.verify_code(code)
    assert (chk.M, chk.d, chk.injective) == (3, 1, True)
    assert chk.worst_pair == (0, 1)

    dup = manual_code([(0, 0, 0), (0, 0, 0)], G=3)
    chk = ln.verify_code(dup)
    assert not chk.injective and not chk.ok
    assert chk.d == 0

    single = manual_code([(1, 2, 3)], r=2, G=1)
    chk = ln.verify_code(single)
    assert (chk.M, chk.d) == (1, 3)
    assert chk.worst_pair is None


def test_verify_code_owns_the_symbol_range():
    words = [(0, 1, 2), (3, 4, 104), (3, 4, 5), (7, 8, -1)]
    chk = ln.verify_code(manual_code(words, q=13, r=2, G=1))
    assert chk.bad_symbol == (1, 104) and not chk.ok
    assert (chk.M, chk.d, chk.worst_pair) == (4, 1, (1, 2))
    # symbols past int64 are relabelled, so d and the worst pair stay exact
    big = 10 ** 23
    words = [(big, 0, 1), (big + 1, 5, 6), (big, 0, 2)]
    for q, bad in ((13, (0, big)), (10 ** 30, None)):
        chk = ln.verify_code(manual_code(words, q=q, r=2, G=1))
        assert chk.bad_symbol == bad
        assert (chk.d, chk.worst_pair) == (1, (0, 2))
    good = ln.verify_code(manual_code([(0, 1, 2), (3, 4, 5)], q=13, r=2, G=1))
    assert good.ok and good.bad_symbol is None


def test_verify_code_fails_a_target_past_the_pairwise_cap():
    # r^G / sqrt(4) = PAIRWISE_CAP exactly at r = 2 * PAIRWISE_CAP, G = 1
    words = [(0, 1), (1, 0)]
    r = 2 * ln.PAIRWISE_CAP
    at_cap = ln.verify_code(manual_code(words, q=r + 1, r=r, G=1))
    assert at_cap.min_target == ln.PAIRWISE_CAP and not at_cap.ok
    past = ln.verify_code(manual_code(words, q=r + 1, r=r + 1, G=1))
    assert past.min_target is None and not past.ok
    assert (past.M, past.d, past.injective) == (2, 2, True)


def test_verify_code_threads_agree(rng):
    words = [tuple(rng.randrange(300) for _ in range(7)) for _ in range(500)]
    code = manual_code(words, q=300, G=7)
    a = ln.verify_code(code, threads=1)
    b = ln.verify_code(code, threads=3)
    assert (a.M, a.d, a.worst_pair) == (b.M, b.d, b.worst_pair)


def test_distance_scan_matches_itertools(rng):
    for _ in range(20):
        m = rng.randrange(2, 50)
        n = rng.randrange(1, 6)
        arr = np.array([[rng.randrange(4) for _ in range(n)] for _ in range(m)])
        d, pair = ln._distance_scan(arr, threads=rng.choice([1, 2]))
        want = min(int((arr[i] != arr[j]).sum())
                   for i, j in itertools.combinations(range(m), 2))
        assert d == want
        i, j = pair
        assert int((arr[i] != arr[j]).sum()) == d


def test_norm_gap_check():
    """The test-side oracle of the norm lemma accepts built codes and
    rejects a repeated lattice point."""
    K = qf.make_field(-4)
    # (9, 200, 1) has n = 43 positions, and 9^43 overflows int64
    for args in ((9, 13, 1), (9, 13, 3), (9, 200, 1)):
        assert norm_gap_check(ln.build_code(K, *args))
    assert norm_gap_check(ln.build_code(qf.make_field(13), 4, 17, 1))
    code = ln.build_code(K, 9, 13, 1)
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
