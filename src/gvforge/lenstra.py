"""Code construction from quadratic-field lattices.

The ring of integers embeds into R^2 (real pair or complex-as-real pair);
an open axis-aligned box of volume 2^-t r^G placed by a searched translate
captures at least ceil(r^G / sqrt|disc|) lattice points, and reduction of
those points modulo n prime ideals of norm in [r, q] yields length-n words
over [0, q) with minimum distance at least n + 1 - G.

A box is exact data: integer basis rows over sqrt(m), R = (2 rho)^2 and a
rational translate. Every face test is the sign of a + b sqrt(m) + c sqrt(R)
with integers a, b, c, settled by squaring; a point on a face is outside.
Floats, each rounded once from an exact value, only rank translates, guess
where exact searches start and fill the code file header. The module is
pure Python: the translate grid is scored in one pass over a fine lattice,
and the words are read off the box's points column by column, as the text
lines of a code file (code_lines) that construct writes and verify
compares as they stream, so neither holds more than a column of words.
"""

import heapq
import io
import math
import os
import stat
from array import array
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Optional

from .errors import CapacityError, DomainError, TauSearchError
from .numtheory import parse_rational
from .quadfield import (INERT, PrimeIdealRecord, QuadraticField, make_field,
                        prime_ideals_in_norm_range)

OMEGA_CAP = 10 ** 6
PAIRWISE_CAP = 10 ** 5
_GRID_OFFSET = Fraction(1, 1 << 20)
GRID_CELL_CAP = 1 << 22
# mask bits one block of the distance scan may hold: 128 MiB
_SCAN_BITS = 1 << 30


class BoxSpec(NamedTuple):
    """Open box (tau_1, tau_1 + rho) x (tau_2, tau_2 + rho), rho^2 =
    2^-t r^G.

    The translate is tau = B shift for rational basis coordinates shift, or
    (-rho/2, -rho/2) when shift is None; _box_floats rounds it for reporting.
    """

    r: int
    G: int
    grid: int
    cell: tuple
    shift: Optional[tuple]
    bumps = 0  # exact membership never retries a box; trace tooling reads it


class LenstraCode(NamedTuple):
    """A code and where it came from. box is the exact box whose points the
    words are the residues of, or None when it is not known: plan_code and
    build_code set it, and a code file carries its shift in the header.
    omega and codewords are empty in plan_code's code and in a header."""

    disc: int
    q: int
    r: int
    G: int
    n: int
    tau: tuple
    ideals: tuple
    omega: tuple
    codewords: tuple
    box: Optional[BoxSpec] = None


class CodeCheck(NamedTuple):
    """The verdict of verify_code or check_code_file; bad_symbol is the
    first (word, symbol) whose symbol lies outside [0, q), or None.
    min_target is None when the pairwise scan's volume target exceeds
    PAIRWISE_CAP, which no file within the cap meets."""

    M: int
    d: int
    ok: bool
    injective: bool
    min_target: Optional[int]
    worst_pair: Optional[tuple]
    bad_symbol: Optional[tuple]


def _integer_basis(K: QuadraticField):
    """Rows (p, q, e) with x_k = (p u + q v + e v sqrt(m)) / 2, and m."""
    if K.disc % 4 == 0:
        rows = ((2, 0, 0), (0, 0, 2)) if K.disc < 0 else ((2, 0, 2), (2, 0, -2))
    else:
        rows = ((2, 1, 0), (0, 0, 1)) if K.disc < 0 else ((2, 1, 1), (2, 1, -1))
    return rows, abs(K.radicand)


def _float(a, b, m: int) -> float:
    """a + b sqrt(m) for rationals a, b, rounded once to a float; sqrt(m) is
    taken within 2^-128."""
    return float(a + b * Fraction(math.isqrt(m << 256), 1 << 128))


def make_embedding(K: QuadraticField) -> tuple:
    """Minkowski-style embedding of the ring of integers of K into R^2: the
    basis floats (b00, b01, b10, b11) with x = (b00 u + b01 v, b10 u +
    b11 v), each rounded once from its exact value."""
    rows, m = _integer_basis(K)
    return tuple(x for p, q, e in rows
                 for x in (_float(Fraction(p, 2), 0, m),
                           _float(Fraction(q, 2), Fraction(e, 2), m)))


def _pow_above(r: int, e: int, bound: int) -> bool:
    """r^e > bound for r >= 2, e >= 0, without building a power far past it."""
    return e > bound.bit_length() or r ** e > bound


def _check_domain(r: int, q: int, G: int, n: int, disc: int) -> None:
    """The construction's parameter domain: 2 <= r <= q, 1 <= G <= n and
    r^(2G) >= |disc|, so the box out-volumes the lattice cell."""
    if not 2 <= r <= q:
        raise DomainError("need 2 <= r <= q, got r=%r q=%r" % (r, q))
    if not 1 <= G <= n:
        raise DomainError("need 1 <= G <= n, got G=%r n=%r" % (G, n))
    if not _pow_above(r, 2 * G, abs(disc) - 1):
        raise DomainError("box volume too small: r^(2G)=%d < |disc|=%d"
                          % (r ** (2 * G), abs(disc)))


def _check_point_cap(r: int, G: int, disc: int) -> None:
    """Refuse r^G past OMEGA_CAP (isqrt|disc| + 1) points without building
    r^G; r < 2 is left to the domain checks."""
    if r >= 2 and _pow_above(r, G, OMEGA_CAP * math.isqrt(abs(disc)) + OMEGA_CAP):
        raise CapacityError("expected point count exceeds cap %d" % OMEGA_CAP)


def minkowski_target(r: int, G: int, abs_disc: int) -> int:
    """ceil(r^G / sqrt(abs_disc)) exactly, in integers."""
    A = r ** (2 * G)
    t = math.isqrt(A // abs_disc)
    while t * t * abs_disc < A:
        t += 1
    return t


def box_at(r: int, G: int, shift, grid: int = 0, cell: tuple = (-1, -1)) -> BoxSpec:
    """The box of side rho(r, G) at basis coordinates shift (None: centred)."""
    if r < 2 or G < 1:
        raise DomainError("need r >= 2 and G >= 1")
    if shift is not None:
        shift = tuple(Fraction(s) for s in shift)
    return BoxSpec(r=r, G=G, grid=grid, cell=cell, shift=shift)


def _sign(a: int, b: int, m: int) -> int:
    """Sign of a + b sqrt(m), m > 0."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa * ((a * a > b * b * m) - (a * a < b * b * m))


def _face_sign(a: int, b: int, m: int, c: int, R: int) -> int:
    """Sign of a + b sqrt(m) + c sqrt(R), m, R > 0, decided by squaring."""
    s, sc = _sign(a, b, m), (c > 0) - (c < 0)
    if s * sc >= 0:
        return s or sc
    return s * _sign(a * a + b * b * m - c * c * R, 2 * a * b, m)


def _first_true(pred, v: int) -> int:
    """Least integer v with pred(v), for pred false then true; v is a guess."""
    while pred(v - 1):
        v -= 1
    while not pred(v):
        v += 1
    return v


def _reach(K: QuadraticField, r: int, G: int) -> int:
    """R = (2 rho)^2 = 4 r^G 2^-t, an integer."""
    return r ** G * 2 ** (2 - K.t)


def _u_span(K: QuadraticField, r: int, G: int):
    """Rationals lo <= 0 <= hi with lo < u - s_1 < hi for every point (u, v)
    of the box of side rho at basis shift s; in the centred box,
    |u| < (hi - lo) / 2.

    B ((u, v) - s) lies in (0, rho)^2, so u - s_1 = c_1 y_1 + c_2 y_2 with
    y in (0, rho)^2 and (c_1, c_2) the first row of B^-1. Every basis of
    _integer_basis has p_1 q_2 = p_2 q_1, so its determinant is
    d sqrt(m)/4 with d = p_1 e_2 - p_2 e_1, and c_k = alpha_k + beta_k /
    sqrt(m) with the rationals below. rho c_k = (alpha_k sqrt(R) + beta_k
    sqrt(R m) / m) / 2 is bounded at the corners of the integer brackets
    of sqrt(R) and sqrt(R m), so the span is never narrower than the box's.
    """
    ((p1, q1, e1), (p2, q2, e2)), m = _integer_basis(K)
    R = _reach(K, r, G)
    d = p1 * e2 - p2 * e1
    a, t = math.isqrt(R), math.isqrt(R * m)
    lo = hi = Fraction(0)
    for alpha, beta in ((Fraction(2 * e2, d), Fraction(2 * q2, d)),
                        (Fraction(-2 * e1, d), Fraction(-2 * q1, d))):
        ends = [(alpha * x + beta * y / m) / 2
                for x in (a, a + 1) for y in (t, t + 1)]
        lo += min(min(ends), 0)
        hi += max(max(ends), 0)
    return lo, hi


def _box_floats(K: QuadraticField, box: BoxSpec):
    """(tau_1, tau_2, rho) of the box, each rounded from its exact value."""
    rows, m = _integer_basis(K)
    R = _reach(K, box.r, box.G)
    if box.shift is None:
        t1 = t2 = _float(0, Fraction(-1, 4), R)
    else:
        s1, s2 = box.shift
        t1, t2 = (_float((p * s1 + q * s2) / 2, e * s2 / 2, m)
                  for p, q, e in rows)
    return t1, t2, _float(0, Fraction(1, 2), R)


def _float_columns(bf, tau1, tau2, rho: float, us):
    """Yield float guesses (lo, hi, alive) for each column index u of us:
    the column's v-range inside the open box lies in (lo, hi), and alive is
    False where a face that does not depend on v excludes u."""
    b00, b01, b10, b11 = bf
    walls, faces = [], []
    for bu, bv, t in ((b00, b01, tau1), (b10, b11, tau2)):
        if abs(bv) < 1e-300:
            walls.append((bu, t, t + rho))
        else:  # ordered so that (near - a) / bv <= (far - a) / bv
            faces.append((bu, bv, t, t + rho) if bv > 0 else
                         (bu, bv, t + rho, t))
    # the basis is invertible, so at least one face bounds v
    for u in us:
        lo, hi = -math.inf, math.inf
        for bu, bv, near, far in faces:
            a = bu * u
            w = (near - a) / bv
            if w > lo:
                lo = w
            w = (far - a) / bv
            if w < hi:
                hi = w
        yield lo, hi, all(t < bu * u < top for bu, t, top in walls)


def _columns(K: QuadraticField, box: BoxSpec):
    """Yield (u, v_min, v_max) for each u whose column meets the open box.

    Face k of the box is sigma (p_k U + q_k V + e_k V sqrt(m)) + c sqrt(R) > 0
    with U = S u - n_1, V = S v - n_2 for the translate's common denominator
    S. Each face is monotone in v, so a column's points are a v-interval
    found by stepping from the float guess. The columns come from the
    u-range of _u_span, which holds every point of the box.
    """
    rows, m = _integer_basis(K)
    R = _reach(K, box.r, box.G)
    if box.shift is None:
        S, n1, n2, c0 = 2, 0, 0, 1  # 4 (x + rho/2) = 4 x + sqrt(R)
    else:
        s1, s2 = box.shift
        S = math.lcm(s1.denominator, s2.denominator)
        n1, n2, c0 = int(s1 * S), int(s2 * S), 0
    faces = {-1: [], 0: [], 1: []}  # by the sign of their slope in v
    for p, q, e in rows:
        slope = _sign(q, e, m)
        for sigma, c in ((1, c0), (-1, S - c0)):
            faces[sigma * slope].append((sigma * p, sigma * q, sigma * e, c))

    def inside(group, u, v):
        U, V = S * u - n1, S * v - n2
        return all(_face_sign(p * U + q * V, e * V, m, c, R) > 0
                   for p, q, e, c in faces[group])

    lo, hi = _u_span(K, box.r, box.G)
    if box.shift is None:
        lo, hi = (lo - hi) / 2, (hi - lo) / 2
    else:
        lo, hi = lo + box.shift[0], hi + box.shift[0]
    us = range(math.floor(lo), math.ceil(hi) + 1)
    guesses = _float_columns(make_embedding(K), *_box_floats(K, box), us)
    for u, (lo, hi, _) in zip(us, guesses):
        if not inside(0, u, 0):
            continue
        lo = _first_true(lambda v: inside(1, u, v), math.ceil(lo + 1e-12))
        hi = -_first_true(lambda w: inside(-1, u, -w),
                          -math.floor(hi - 1e-12))
        if lo <= hi:
            yield u, lo, hi


def _points(columns) -> int:
    return sum(hi - lo + 1 for _, lo, hi in columns)


def _grid_scores(bf, rho: float, us, g: int):
    """Float point counts of the boxes at the g x g grid translates, cell
    (i, j) at index i g + j, over the columns u of the range us.

    Cell (i, j) puts the box at s = (i/g + o, j/g + o), o = _GRID_OFFSET,
    and holds (u, v) exactly when B (u - s_1, v - s_2) lies in the open box
    at the origin. With a = g u - i and b = g v - j, that is the fine point
    (a/g - o, b/g - o), and each fine point lands in one cell, the one with
    i = -a, j = -b (mod g). So row i is one pass over its columns u: the
    float v-range (lo, hi) of the box at (s_1, 0) gives the fine b-interval
    g (o + lo, o + hi), and its L points add L // g to every cell of the
    row and 1 more to a cyclic run of L % g cells, kept as a difference
    array. The work is g len(us) columns and g^2 cells.
    """
    off = float(_GRID_OFFSET)
    score = array("q")
    for i in range(g):
        si = i / g + off
        diff = [0] * g
        for lo, hi, alive in _float_columns(bf, bf[0] * si, bf[2] * si, rho,
                                            us):
            if not alive:
                continue
            b = math.ceil(g * (off + lo + 1e-12))
            full, part = divmod(math.floor(g * (off + hi - 1e-12)) - b + 1, g)
            if full < 0:
                continue
            diff[0] += full
            if part:  # b .. b + part - 1 land in j = -b - part + 1 .. -b
                start = (1 - b - part) % g
                diff[start] += 1
                if start + part < g:
                    diff[start + part] -= 1
                else:
                    diff[0] += 1
                    diff[start + part - g] -= 1
        score.extend(accumulate(diff))
    return score


def find_tau(K: QuadraticField, r: int, G: int, start_grid: int = 64,
             max_grid: int = 1024) -> BoxSpec:
    """Certified translate: the open box holds >= ceil(r^G/sqrt|disc|) points.

    Deterministic: grid translates of the basis cell are ranked by a float
    estimate, the best six and the centred box are counted exactly, and a
    later candidate wins only with a strictly larger count. Exhausting every
    grid up to max_grid raises TauSearchError (retry with a larger
    max_grid); an under-counted box is never returned. A grid of more than
    GRID_CELL_CAP cells raises CapacityError before it is scored.
    """
    if start_grid < 1:
        raise DomainError("start grid must be >= 1, got %r" % (start_grid,))
    if start_grid > max_grid:
        raise DomainError("start grid %d exceeds max grid %d"
                          % (start_grid, max_grid))
    _check_point_cap(r, G, K.disc)
    target = minkowski_target(r, G, abs(K.disc))
    centred = box_at(r, G, None)
    centred_count = _points(_columns(K, centred))
    rho_f = _box_floats(K, centred)[2]
    bf = make_embedding(K)
    # every grid cell has 0 < s_1 < 1, so one u-range serves them all
    lo, hi = _u_span(K, r, G)
    us = range(math.floor(lo), math.ceil(hi + 1) + 1)
    g = start_grid
    while g <= max_grid:
        if g * g > GRID_CELL_CAP:
            raise CapacityError("translate grid %d has %d cells, cap %d"
                                % (g, g * g, GRID_CELL_CAP))
        score = _grid_scores(bf, rho_f, us, g)
        best, best_count = None, -1
        # nlargest is stable, so equal scores keep row-major order
        for c in heapq.nlargest(6, range(g * g), key=score.__getitem__):
            if score[c] < target and best is not None:
                break
            i, j = divmod(c, g)
            box = box_at(r, G, (Fraction(i, g) + _GRID_OFFSET,
                                Fraction(j, g) + _GRID_OFFSET), g, (i, j))
            count = _points(_columns(K, box))
            if count > best_count:
                best, best_count = box, count
        # the centred box covers sparse boxes the coarse grid misses
        if centred_count > best_count:
            best, best_count = box_at(r, G, None, g), centred_count
        if best_count >= target:
            return best
        g *= 2
    raise TauSearchError(
        "no translate certified %d points up to grid %d; retry with a finer grid"
        % (target, max_grid))


def enumerate_omega(K: QuadraticField, box: BoxSpec) -> list:
    """Exact sorted list of lattice (u, v) strictly inside the box."""
    return [(u, v) for u, lo, hi in _columns(K, box) for v in range(lo, hi + 1)]


def box_columns(K: QuadraticField, box: BoxSpec):
    """(columns, M): the columns (u, lo, hi) of the box's points, in the
    order of _columns, and their number M of points; M > OMEGA_CAP raises
    CapacityError. The columns take O(sqrt M) memory."""
    columns = list(_columns(K, box))
    M = _points(columns)
    if M > OMEGA_CAP:
        raise CapacityError("omega size %d exceeds cap %d" % (M, OMEGA_CAP))
    return columns, M


def _column_reader(P: PrimeIdealRecord, name, points: int, longest: int):
    """A function from a column (u, lo, hi), the points u + v omega for
    lo <= v <= hi, to the list of name(s) for the residue s in [0, N(P))
    modulo P of each of its points, in order.

    Split and ramified ideals send omega to residue_root c in F_p, so a
    column reads (u + v c) mod p = T[(v + u / c) mod p] for the table
    T[j] = name(j c mod p): one slice of T repeated, built here once, when
    c is a unit and p is at most the number of points; otherwise each
    residue is computed. Inert ideals keep both coordinates, packed as
    (u mod p) p + (v mod p): a column reads row u mod p of the table whose
    row a holds name(a p + j) for j in [0, p), repeated, when that table
    has no more entries than there are points. No column read is longer
    than longest + 1.
    """
    p, c = P.p, P.residue_root
    reps = longest // p + 2
    if P.split_type == INERT:
        if p * p * reps > points:
            return lambda u, lo, hi: [name(u % p * p + v % p)
                                      for v in range(lo, hi + 1)]
        width = p * reps
        rows = []
        for a in range(0, p * p, p):
            rows += [name(a + j) for j in range(p)] * reps

        def read_row(u, lo, hi):
            start = u % p * width + lo % p
            return rows[start:start + hi - lo + 1]
        return read_row
    if c % p == 0:
        return lambda u, lo, hi: [name(u % p)] * (hi - lo + 1)
    if p > points:
        return lambda u, lo, hi: [name((u + v * c) % p)
                                  for v in range(lo, hi + 1)]
    inv = pow(c, -1, p)
    table = [name(j * c % p) for j in range(p)] * reps

    def read(u, lo, hi):
        start = (lo + u * inv) % p
        return table[start:start + hi - lo + 1]
    return read


def code_words(columns, ideals, q: int, name=int):
    """Yield the word of each point of columns, (u, lo, hi) each holding
    u + v omega for lo <= v <= hi, in order: the tuple of name(s) for its
    residue s in [0, N(P)) modulo each of ideals. This is the one
    generator of a box's words, made one column at a time; N(P) > q
    raises DomainError."""
    for P in ideals:
        if P.norm > q:
            raise DomainError("ideal norm %d exceeds alphabet bound q=%d"
                              % (P.norm, q))
    points = _points(columns)
    longest = max((hi - lo for _, lo, hi in columns), default=0)
    readers = [_column_reader(P, name, points, longest) for P in ideals]
    for col in columns:
        yield from zip(*[read(*col) for read in readers])


def code_lines(columns, ideals, q: int):
    """Yield the line, without its newline, of each word of code_words:
    its symbols in decimal, separated by single spaces. This is the one
    definition of a code file's rows: construct writes them and verify
    compares them. The symbols come from one table of str(s) for s below
    the largest norm when it has no more entries than there are points.
    """
    top = max((P.norm for P in ideals), default=0)
    name = ([str(s) for s in range(top)].__getitem__
            if top <= _points(columns) else str)
    yield from map(" ".join, code_words(columns, ideals, q, name))


def plan_code(K: QuadraticField, r: int, q: int, G: int,
              start_grid: int = 64, max_grid: int = 1024) -> LenstraCode:
    """build_code's code with empty omega and codewords: box_columns and
    code_file_lines give them.

    Requires 2 <= r <= q, 1 <= G <= n for the n prime ideals with norm in
    [r, q], and r^(2G) >= |disc|, so the box out-volumes the lattice cell.
    A box expected to hold more than OMEGA_CAP points is refused before the
    ideals are listed, since listing them sieves up to q.
    """
    if r <= q:  # past q, the listing below reports the domain error
        _check_point_cap(r, G, K.disc)
    ideals = prime_ideals_in_norm_range(K, r, q)
    n = len(ideals)
    _check_domain(r, q, G, n, K.disc)
    box = find_tau(K, r, G, start_grid=start_grid, max_grid=max_grid)
    return LenstraCode(disc=K.disc, q=q, r=r, G=G, n=n,
                       tau=_box_floats(K, box)[:2], ideals=tuple(ideals),
                       omega=(), codewords=(), box=box)


def build_code(K: QuadraticField, r: int, q: int, G: int,
               start_grid: int = 64, max_grid: int = 1024) -> LenstraCode:
    """Construct the length-n code over [0, q) from the field K: the code of
    plan_code with the points of its box (omega) and their words."""
    code = plan_code(K, r, q, G, start_grid=start_grid, max_grid=max_grid)
    columns, _ = box_columns(K, code.box)
    omega = tuple((u, v) for u, lo, hi in columns for v in range(lo, hi + 1))
    return code._replace(omega=omega,
                         codewords=tuple(code_words(columns, code.ideals, q)))


def _header(code: LenstraCode) -> str:
    """Line 1 of code's file. It ends with the box's exact basis shift,
    'shift=a/b,c/d' or 'shift=none' for the centred box, when the code
    knows its box."""
    head = "# lenstra q=%d r=%d G=%d disc=%d n=%d tau=%r,%r" % (
        code.q, code.r, code.G, code.disc, code.n, code.tau[0], code.tau[1])
    if code.box is not None:
        shift = code.box.shift
        head += " shift=" + ("none" if shift is None else "%s,%s" % shift)
    return head


def code_file_lines(code: LenstraCode, columns):
    """Yield the lines of the file of code's box, without newlines: the
    header, then code_lines of columns under code's ideals."""
    yield _header(code)
    yield from code_lines(columns, code.ideals, code.q)


def format_code_file(code: LenstraCode) -> str:
    """Text form: the header, then one codeword of code.codewords per line,
    its symbols in decimal separated by single spaces."""
    lines = [_header(code)]
    lines.extend(" ".join(map(str, w)) for w in code.codewords)
    return "\n".join(lines) + "\n"


def _read_header(lines):
    """(code, K): the code, with no words, that the next of lines, a code
    file's header, describes, and the field of its disc, whose validation
    factorizes disc once; a header shift gives the box without its grid
    and cell. A malformed header raises DomainError for line 1."""
    line = next(lines, "")
    if not line.startswith("# lenstra "):
        raise DomainError("line 1: missing '# lenstra' header")
    fields = {}
    for tok in line[len("# lenstra "):].split():
        if "=" not in tok:
            raise DomainError("line 1: bad header token %r" % tok)
        key, val = tok.split("=", 1)
        if key in fields:
            raise DomainError("line 1: duplicate header key %r" % key)
        fields[key] = val
    try:
        q = int(fields["q"])
        r = int(fields["r"])
        G = int(fields["G"])
        disc = int(fields["disc"])
        n = int(fields["n"])
        tau = tuple(float(t) for t in fields["tau"].split(","))
    except (KeyError, ValueError) as e:
        raise DomainError("line 1: bad header (%s)" % e) from None
    if len(tau) != 2:
        raise DomainError("line 1: tau must have two coordinates")
    try:
        K = make_field(disc)
    except DomainError:
        raise DomainError("line 1: disc=%d is not a fundamental discriminant"
                          % disc) from None
    try:
        _check_domain(r, q, G, n, disc)
    except DomainError as e:
        raise DomainError("line 1: %s" % e) from None
    box = None
    if "shift" in fields:
        box = box_at(r, G, _parse_shift(fields["shift"]))
    return LenstraCode(disc=disc, q=q, r=r, G=G, n=n, tau=tau,
                       ideals=(), omega=(), codewords=(), box=box), K


def _read_code(lines) -> LenstraCode:
    """The code of a code file given as an iterator of its lines."""
    return _read_rows(_read_header(lines)[0], lines)


def _read_rows(code: LenstraCode, lines) -> LenstraCode:
    """code with the words of lines, the rows that follow its header: one
    word per line from line 2 on, blank lines skipped. Malformed structure
    raises DomainError with the offending line number.
    """
    words = []
    for idx, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            word = tuple(map(int, line.split()))
        except ValueError:
            raise DomainError("line %d: non-integer symbol" % idx) from None
        if len(word) != code.n:
            raise DomainError("line %d: expected %d symbols, got %d"
                              % (idx, code.n, len(word)))
        words.append(word)
    return code._replace(codewords=tuple(words))


def parse_code_file(text: str) -> LenstraCode:
    """Inverse of format_code_file; ideals and omega are not serialized."""
    return _read_code(iter(text.splitlines()))


def _parse_shift(text: str):
    """The basis shift of a header: None for 'none', else two rationals
    written 'a/b' or 'a'."""
    if text == "none":
        return None
    shift = tuple(parse_rational(t, decimals=False) for t in text.split(","))
    if len(shift) != 2 or None in shift:
        raise DomainError("line 1: bad shift %r" % text)
    return shift


def _file_lines(fp):
    """The lines of the text file fp, as str.splitlines of its whole text
    gives them, read one at a time."""
    for line in fp:
        yield from line.splitlines()


def read_code_file(path) -> LenstraCode:
    """parse_code_file of the file at path, read line by line."""
    with open(path) as fp:
        return _read_code(_file_lines(fp))


def _distance_scan(words, n: int, block: int = 0):
    """Exact min Hamming distance over all pairs of rows of words (at least
    two, of length n), and the lexicographically least pair at it.

    The later rows are taken in blocks of `block` rows, from the last block
    to the first; by default a block is as large as keeps its masks within
    _SCAN_BITS bits. For each block, every row i before its end is visited
    from last to first, block row j standing for bit hi - 1 - j, so that the
    least j is the highest bit. For each column a dict maps a symbol to the
    mask of the block rows after i that hold it; a symbol that occurs once
    in its column agrees with no other row and gets no entry. level[k] is
    the mask of those rows that agree with row i in at least k of the
    columns seen so far, kept for k <= top + 1, where top is the most
    agreement any pair has reached. level[top + 1] starts empty, and a
    column adds at most one agreement, so when it fills, top rises by one
    and the level above it is still empty.
    """
    m = len(words)
    repeated = [[s for s, c in Counter(col).items() if c > 1]
                for col in zip(*words)]
    if not block:
        block = m
        while block > 1 and block * sum(min(len(r), block)
                                        for r in repeated) > _SCAN_BITS:
            block = (block + 1) // 2
    top, pair = 0, None
    for hi in range(m, 0, -block):
        lo = max(hi - block, 0)
        cols = [dict.fromkeys(r, 0) for r in repeated]
        for i in range(hi - 1, -1, -1):
            bit = 1 << (hi - 1 - i) if i >= lo else 0
            level = [(bit or 1 << (hi - lo)) - 1] + [0] * (top + 1)
            start = top
            for col, s in zip(cols, words[i]):
                mask = col.get(s)
                if mask is None:
                    continue
                if bit:
                    col[s] = mask | bit
                if mask:
                    for k in range(top + 1, 0, -1):
                        level[k] |= level[k - 1] & mask
                    if level[top + 1]:
                        top += 1
                        level.append(0)
            if level[top]:
                cand = (i, hi - level[top].bit_length())
                if top > start or pair is None or cand < pair:
                    pair = cand
    return n - top, pair


# x -> x + 1 on bytes, saturating at 255
_INCREMENT = bytes(range(1, 256)) + b"\xff"


def _difference_distance(columns, ideals, n: int):
    """(d, worst pair) of the words of the points of columns, (u, lo, hi)
    each in order, under ideals: rows i < j agree at P exactly when P
    divides a_j - a_i = (du, dv), and du >= 0, with dv > 0 when du = 0.

    For each du the realised dv form intervals: [lo' - hi, hi' - lo] for
    the columns u and u + du, and [1, hi - lo] within a column. Merged one
    du at a time, so that only the merged intervals are kept, they are laid
    out one du after another in one bytearray of hit counts.
    Each ideal adds one hit along a progression of each interval:
    dv = -du / c (mod p) for a root c of P that is a unit, every dv when
    c = 0 and p | du, and p | dv when P = (p) is inert and p | du. A hit
    count saturates at 255, and then the scan decides. d = n - top for
    the most hits top. The worst pair is the least (i, j) at a difference
    with top hits: the first column that starts such a pair holds the
    least i, and for each later column the least j, or else the least i,
    is found with one find over the realised interval.
    """
    span = {u: (lo, hi) for u, lo, hi in columns}
    rows, size = {}, 0  # du -> (index of dv minus dv, merged intervals)
    for du in range(columns[-1][0] - columns[0][0] + 1):
        found = []
        for u, lo, hi in columns:
            if u + du in span:
                lo2, hi2 = span[u + du]
                found.append((lo2 - hi if du else 1, hi2 - lo))
        merged = []
        for x, y in sorted(found):
            if x > y:  # a column of one point pairs with no other in it
                continue
            if merged and x <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], y)
            else:
                merged.append([x, y])
        if merged:
            rows[du] = (size - merged[0][0], merged)
            size += merged[-1][1] - merged[0][0] + 1
    hits = bytearray(size)
    for P in ideals:
        p, c = P.p, P.residue_root
        unit = c is not None and c % p != 0
        step = 1 if c is not None and not unit else p
        inv = pow(c, -1, p) if unit else 0
        for du, (o, merged) in rows.items():
            if not unit and du % p:
                continue
            t = -du * inv % p
            for x, y in merged:
                s = o + x + (t - x) % step
                hits[s:o + y + 1:step] = hits[s:o + y + 1:step].translate(
                    _INCREMENT)
    top = max(hits)
    if top == 255:
        return None
    starts = list(accumulate((hi - lo + 1 for _, lo, hi in columns),
                             initial=0))
    best = None
    for a, (u, lo, hi) in enumerate(columns):
        for b, (u2, lo2, hi2) in enumerate(columns[a:], a):
            x, y = (1, hi - lo) if a == b else (lo2 - hi, hi2 - lo)
            if x > y:
                continue
            o = rows[u2 - u][0]
            pivot = lo2 - lo  # dv >= pivot pairs (u, lo) with (u2, lo + dv)
            k = hits.find(top, o + max(x, pivot), o + y + 1)
            if k >= 0:
                cand = (starts[a], starts[b] + k - o - pivot)
            else:
                k = hits.rfind(top, o + x, o + min(y + 1, pivot)) \
                    if x < pivot else -1
                if k < 0:
                    continue
                cand = (starts[a] + pivot + o - k, starts[b])
            if best is None or cand < best:
                best = cand
        if best is not None:
            break
    return n - top, best


def _derived_check(code: LenstraCode, K: QuadraticField,
                   fp) -> Optional[CodeCheck]:
    """The verdict on a code file, open as fp past its header line, derived
    from the box its header code names in its field K; None unless the rest
    of the file is, byte for byte, the code_lines of the box's points, each
    ended by a newline, and deriving costs no more than reading the file.

    That needs a box in the basis cell (a grid shift or the centred box)
    with M points, max(target, 2) <= M <= OMEGA_CAP; a file of at least
    2 M n bytes, as each of its M rows holds n symbols of at least one
    digit and a separator, checked with the target for M before the box is
    enumerated, so a short file costs no enumeration, and with M before
    the ideals are listed; q <= M n, so sieving to q costs less than
    reading the file; at most 8 sqrt(M) columns, so the O(columns^2) steps
    of _difference_distance stay within O(M); and n ideals. Such a file's
    symbols are residues modulo ideals of norm at most q, and its rows are
    distinct: two points of the box agree at fewer than G <= n ideals, as
    their difference has a nonzero norm below r^G.
    """
    box, q, n = code.box, code.q, code.n
    size = os.fstat(fp.fileno()).st_size
    if (box is None or not all(0 <= s < 1 for s in box.shift or ())
            or q > OMEGA_CAP * n
            or _pow_above(code.r, 2 * code.G, OMEGA_CAP ** 2 * abs(code.disc))):
        return None
    target = minkowski_target(code.r, code.G, abs(code.disc))
    if 2 * max(target, 2) * n > size:
        return None
    try:
        columns, M = box_columns(K, box)
    except CapacityError:
        return None
    if (M < max(target, 2) or 2 * M * n > size or q > M * n
            or len(columns) ** 2 > 64 * M):
        return None
    ideals = prime_ideals_in_norm_range(K, code.r, q)
    if len(ideals) != n:
        return None
    for line in code_lines(columns, ideals, q):
        if fp.readline() != line + "\n":
            return None
    found = None if fp.read(1) else _difference_distance(columns, ideals, n)
    if found is None:
        return None
    return _verdict(code, target, M, *found)


def check_code_file(path):
    """(code, check): the code file at path and verify's verdict on it.

    Line 1 is read first. When _derived_check accepts the file, code is
    its header, with no words. Any other file has its rows counted, past
    PAIRWISE_CAP raising CapacityError before any is parsed, and is then
    parsed line by line and scanned by verify_code, which gives the same
    verdict on a file that _derived_check accepts. Only a regular file is
    derived; it is read again through its handle from the start, and any
    other file, such as a pipe, is read whole once into memory.
    """
    with open(path, newline="") as fp:
        first = fp.readline()
        head = first.splitlines()
        code, K = _read_header(iter(head))
        text = fp
        if not stat.S_ISREG(os.fstat(fp.fileno()).st_mode):
            text = io.StringIO(first + fp.read())
        elif len(head) == 1:
            check = _derived_check(code, K, fp)
            if check is not None:
                return code, check
        text.seek(0)
        rows = sum(1 for line in _file_lines(text) if line.strip()) - 1
        if rows > PAIRWISE_CAP:
            raise CapacityError("M=%d exceeds pairwise cap %d"
                                % (rows, PAIRWISE_CAP))
        text.seek(0)
        rest = _file_lines(text)
        next(rest)  # the header, read above
        code = _read_rows(code, rest)
    return code, verify_code(code)


def verify_code(code: LenstraCode, threads: int = 1) -> CodeCheck:
    """Exact verification by the pairwise scan: symbol range, distinct
    count, min distance, and the two bounds, judged by _verdict.

    A single word has d = n by convention. A target above PAIRWISE_CAP
    fails without being computed, since M <= PAIRWISE_CAP. One dict pass
    gives M, injectivity and the least pair of equal rows, at which
    repeated rows give d = 0 without a scan. The least and greatest
    symbols decide the range, and only a file with a bad symbol is
    searched for the first one. A code file whose rows are its box's lines
    is verified without a scan by check_code_file. threads has no effect;
    the scan is serial.
    """
    words = code.codewords
    total = len(words)
    if total > PAIRWISE_CAP:
        raise CapacityError("M=%d exceeds pairwise cap %d" % (total, PAIRWISE_CAP))
    target = None
    if not _pow_above(code.r, 2 * code.G, PAIRWISE_CAP ** 2 * abs(code.disc)):
        target = minkowski_target(code.r, code.G, abs(code.disc))
    bad_symbol = None
    if code.n and words and not (min(map(min, words)) >= 0
                                 and max(map(max, words)) < code.q):
        bad_symbol = next((i, s) for i, w in enumerate(words) for s in w
                          if not 0 <= s < code.q)
    first, pair = {}, None  # word -> its first row; the least equal pair
    for j, w in enumerate(words):
        i = first.setdefault(w, j)
        if i < j and (pair is None or i < pair[0]):
            pair = (i, j)
    d = code.n if pair is None else 0
    if pair is None and total >= 2:
        d, pair = _distance_scan(words, code.n)
    return _verdict(code, target, len(first), d, pair,
                    injective=len(first) == total, bad_symbol=bad_symbol)


def _verdict(code: LenstraCode, target: Optional[int], M: int, d: int,
             pair: Optional[tuple], injective: bool = True,
             bad_symbol: Optional[tuple] = None) -> CodeCheck:
    """The CodeCheck of code with M distinct words at least distance d
    apart, worst at pair, and volume target target. ok requires every
    symbol in [0, q), an injective word map, M >= target (a target of None
    fails) and d >= n + 1 - G; no other function decides ok."""
    ok = (bad_symbol is None and injective and target is not None
          and M >= target and d >= code.n + 1 - code.G)
    return CodeCheck(M=M, d=d, ok=ok, injective=injective, min_target=target,
                     worst_pair=pair, bad_symbol=bad_symbol)
