"""Quadratic-field lattices in a box, and the words of their points.

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
pure Python: the words are read off the box's points column by column, as
the text lines of a code file (code_lines) that construct writes and
verify compares as they stream, so neither holds more than a column of
words.

This module holds what construct and verify both run. The translate
search is in translate, which only construct loads, and reading and
verifying code files is in codefile, which only verify loads, so neither
command compiles the other's half. The public functions of those two
modules that this one held, _MOVED, are still its attributes: each is
resolved from its module on first use.
"""

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import CapacityError, DomainError
from .quadfield import INERT, PrimeIdealRecord, QuadraticField

OMEGA_CAP = 10 ** 6
_MOVED = {"find_tau": "translate", "plan_code": "translate",
          "build_code": "translate", "read_code_file": "codefile",
          "parse_code_file": "codefile", "check_code_file": "codefile",
          "verify_code": "codefile"}


def __getattr__(name: str):
    """The function name of _MOVED, imported from its module (PEP 562)."""
    if name not in _MOVED:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    import importlib
    return getattr(importlib.import_module("." + _MOVED[name], __package__),
                   name)


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
