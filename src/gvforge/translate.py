"""The translate search, and the codes that construct builds.

find_tau ranks the translates of a grid over the basis cell by a float
count of their boxes' points, scored in one pass over a fine lattice, and
certifies the best by exact counts; the grid doubles from 64 to 1024 until
a box is certified. plan_code lists the prime ideals and places the box,
and build_code adds the box's points and their words. Only construct
loads this module; the geometry and the words are lenstra's.
"""

import heapq
import math
from array import array
from fractions import Fraction
from itertools import accumulate

from .errors import CapacityError
from .lenstra import (OMEGA_CAP, BoxSpec, LenstraCode, _box_floats,
                      _check_domain, _columns, _float_columns, _points,
                      _pow_above, _u_span, box_at, box_columns, code_words,
                      make_embedding, minkowski_target)
from .quadfield import QuadraticField, prime_ideals_in_norm_range

_GRID_OFFSET = Fraction(1, 1 << 20)
# the translate grids find_tau tries in turn; 1024^2 = 2^20 cells at most
_GRIDS = (64, 128, 256, 512, 1024)


def _check_point_cap(r: int, G: int, disc: int) -> None:
    """Refuse r^G past OMEGA_CAP (isqrt|disc| + 1) points without building
    r^G; r < 2 is left to the domain checks."""
    if r >= 2 and _pow_above(r, G, OMEGA_CAP * math.isqrt(abs(disc)) + OMEGA_CAP):
        raise CapacityError("expected point count exceeds cap %d" % OMEGA_CAP)


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


def find_tau(K: QuadraticField, r: int, G: int) -> BoxSpec:
    """Certified translate: the open box holds >= ceil(r^G/sqrt|disc|) points.

    Deterministic: for each grid of _GRIDS in turn, the grid translates of
    the basis cell are ranked by a float estimate, the best six and the
    centred box are counted exactly, and a later candidate wins only with a
    strictly larger count. If no grid certifies the target, CapacityError
    is raised; an under-counted box is never returned.
    """
    _check_point_cap(r, G, K.disc)
    target = minkowski_target(r, G, abs(K.disc))
    centred = box_at(r, G, None)
    centred_count = _points(_columns(K, centred))
    rho_f = _box_floats(K, centred)[2]
    bf = make_embedding(K)
    # every grid cell has 0 < s_1 < 1, so one u-range serves them all
    lo, hi = _u_span(K, r, G)
    us = range(math.floor(lo), math.ceil(hi + 1) + 1)
    for g in _GRIDS:
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
    raise CapacityError("no translate certified %d points up to grid %d"
                        % (target, _GRIDS[-1]))


def plan_code(K: QuadraticField, r: int, q: int, G: int) -> LenstraCode:
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
    box = find_tau(K, r, G)
    return LenstraCode(disc=K.disc, q=q, r=r, G=G, n=n,
                       tau=_box_floats(K, box)[:2], ideals=tuple(ideals),
                       omega=(), codewords=(), box=box)


def build_code(K: QuadraticField, r: int, q: int, G: int) -> LenstraCode:
    """Construct the length-n code over [0, q) from the field K: the code of
    plan_code with the points of its box (omega) and their words."""
    code = plan_code(K, r, q, G)
    columns, _ = box_columns(K, code.box)
    omega = tuple((u, v) for u, lo, hi in columns for v in range(lo, hi + 1))
    return code._replace(omega=omega,
                         codewords=tuple(code_words(columns, code.ideals, q)))
