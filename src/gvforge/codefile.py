"""Code files read back, and the verdict of verify.

check_code_file reads a code file's header first, and derives the verdict
from the box the header names when the rest of the file is that box's
code_lines, byte for byte; any other file is parsed and scanned by
verify_code, the exact pairwise distance scan. Only verify loads this
module; the box, its words and their lines are lenstra's.
"""

import io
import os
import stat
from collections import Counter
from itertools import accumulate
from typing import NamedTuple, Optional

from .errors import CapacityError, DomainError
from .lenstra import (OMEGA_CAP, LenstraCode, _check_domain, _pow_above,
                      box_at, box_columns, code_lines, minkowski_target)
from .numtheory import parse_rational
from .quadfield import QuadraticField, make_field, prime_ideals_in_norm_range

PAIRWISE_CAP = 10 ** 5
# mask bits one block of the distance scan may hold: 128 MiB
_SCAN_BITS = 1 << 30


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


def _read_rows(code: LenstraCode, lines, word=tuple) -> LenstraCode:
    """code with the words of lines, the rows that follow its header: one
    word per line from line 2 on, blank lines skipped, each word(symbols)
    of the list of its symbols. Malformed structure raises DomainError
    with the offending line number.
    """
    words = []
    for idx, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            symbols = list(map(int, line.split()))
        except ValueError:
            raise DomainError("line %d: non-integer symbol" % idx) from None
        if len(symbols) != code.n:
            raise DomainError("line %d: expected %d symbols, got %d"
                              % (idx, code.n, len(symbols)))
        words.append(word(symbols))
    return code._replace(codewords=tuple(words))


def _byte_row(symbols: list):
    """symbols as bytes, a byte each, when each lies in [0, 256), else as a
    tuple. Either iterates as its symbols, and a tuple row holds a symbol
    outside [0, 256), so equal rows are both bytes or both tuples."""
    try:
        return bytes(symbols)
    except ValueError:
        return tuple(symbols)


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
    parsed line by line, each row held by _byte_row, and scanned by
    verify_code, which gives the same verdict on a file that _derived_check
    accepts, and on the file's rows as tuples. Only a regular file is
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
        code = _read_rows(code, rest, _byte_row)
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
    is verified without a scan by check_code_file. A row may be any
    sequence of integers, such as the bytes rows of check_code_file; rows
    equal as sequences must be equal as objects. threads has no effect;
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
