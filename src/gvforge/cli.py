"""Command-line front end.

Subcommands: bounds (rate-bound sweeps), construct (emit a code file),
verify (re-check a code file), certify (parameter certificate at q), and
tower (class-field-tower criterion for a discriminant).

Exit codes: 0 success, 1 argument or domain error, 2 failed or undecidable
check, 3 capacity refusal or running out of memory. Given identical
arguments the output bytes are identical.

Each command imports what it uses when it runs, so `import gvforge.cli`
loads neither numpy nor mpmath. `bounds` and `certify` load bounds and
enclosure (and so mpmath) but not numpy; `construct` loads lenstra,
quadfield and numpy but not mpmath; `verify` loads lenstra and quadfield
and neither numpy nor mpmath; `tower` loads quadfield, numpy and enclosure.
"""

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import Optional

from .errors import (CapacityError, ConditionFailure, DomainError,
                     IndeterminateError)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK = 2
EXIT_CAPACITY = 3

# rows in one --delta-grid: 10^4 rows take about 3 s at q = 4 (2-vCPU VM)
DELTA_GRID_CAP = 10 ** 4


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("bad rational %r" % text)


def _delta_grid(text: str):
    """(start, stop, step) of a start:stop:step grid; cmd_bounds lists its
    rows once it has checked their number against DELTA_GRID_CAP."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be start:stop:step")
    start, stop, step = (_fraction(p) for p in parts)
    if step <= 0 or start > stop:
        raise argparse.ArgumentTypeError("need start <= stop and step > 0")
    return start, stop, step


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to the documented code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print("error: %s" % message, file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="gvforge",
        description="codes from quadratic-field lattices and certified rate bounds")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted (>= 1) but has no effect: the distance "
                        "scan of verify runs in one thread")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="rate-bound sweep to CSV or JSON")
    b.add_argument("--q", type=int, action="append", required=True,
                   help="alphabet size (repeatable)")
    b.add_argument("--delta", type=_fraction, action="append", default=None,
                   help="relative distance (repeatable)")
    b.add_argument("--delta-grid", type=_delta_grid, default=None,
                   help="start:stop:step over relative distances")
    b.add_argument("--budget", type=int, default=6,
                   help="witness search budget (eps halvings)")
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    b.add_argument("--output", default=None)

    c = sub.add_parser("construct", help="build a code file from a field")
    c.add_argument("--disc", type=int, required=True)
    c.add_argument("--factors", default=None,
                   help="comma-separated prime divisors of disc (for large disc)")
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--G", type=int, required=True)
    c.add_argument("--grid", type=int, default=64,
                   help="initial translate-search grid")
    c.add_argument("--max-grid", type=int, default=1024)
    c.add_argument("--output", default=None,
                   help="code file path (default: stdout)")

    v = sub.add_parser("verify", help="re-check a code file")
    v.add_argument("path")

    t = sub.add_parser("certify", help="parameter certificate at q")
    t.add_argument("--q", type=int, required=True)
    t.add_argument("--schedule", choices=("theorem2", "theorem1"),
                   default="theorem2")
    t.add_argument("--C0", type=_fraction, default=None,
                   help="leading constant for the theorem1 schedule")
    t.add_argument("--format", choices=("json", "text"), default="json")
    t.add_argument("--output", default=None)

    w = sub.add_parser("tower", help="class-field-tower criterion")
    w.add_argument("--disc", type=int, required=True)
    w.add_argument("--factors", default=None,
                   help="comma-separated prime divisors of disc")
    w.add_argument("--sc-size", type=int, default=0)
    w.add_argument("--genus-only", action="store_true",
                   help="use the genus lower bound even when the exact "
                        "class group is in reach")
    return p


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _parse_factors(text: Optional[str]):
    if text is None:
        return None
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise DomainError("bad --factors list %r" % text)


def cmd_bounds(args) -> int:
    from . import bounds as bd
    from . import enclosure as enc
    deltas = []
    if args.delta:
        deltas.extend(args.delta)
    if args.delta_grid:
        start, stop, step = args.delta_grid
        count = (stop - start) // step + 1
        if count > DELTA_GRID_CAP:
            raise CapacityError("delta grid has %d rows, cap %d"
                                % (count, DELTA_GRID_CAP))
        deltas.extend(start + i * step for i in range(count))
    if not deltas:
        raise DomainError("provide --delta or --delta-grid")
    rows = []
    for q in args.q:
        for pt in bd.bound_points(q, deltas, budget=args.budget):
            w = pt.witness
            rows.append({
                "q": q,
                "delta": "%s" % float(pt.delta),
                "gv": enc.fmt(pt.gv, 15),
                "plotkin": enc.fmt(pt.plotkin, 15),
                "nfc": enc.fmt(pt.nfc, 15) if pt.nfc is not None else "",
                "r": w.r if w else "",
                "ell": w.ell if w else "",
                "k": w.k if w else "",
            })
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), args.output)
    else:
        _emit(json.dumps(rows, indent=2) + "\n", args.output)
    return EXIT_OK


def cmd_construct(args) -> int:
    from . import lenstra as ln
    from . import quadfield as qf
    K = qf.make_field(args.disc, prime_divisors=_parse_factors(args.factors))
    code = ln.build_code(K, args.r, args.q, args.G,
                         start_grid=args.grid, max_grid=args.max_grid)
    text = ln.format_code_file(code)
    summary = ("n=%d M=%d d_bound=%d target=%d\n"
               % (code.n, len(code.codewords), code.n + 1 - code.G,
                  ln.minkowski_target(code.r, code.G, abs(code.disc))))
    if args.output:
        _emit(text, args.output)
        sys.stdout.write(summary)
    else:
        sys.stdout.write(text)
        sys.stderr.write(summary)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import lenstra as ln
    code = ln.read_code_file(args.path)
    check = ln.verify_code(code)
    required_d = code.n + 1 - code.G
    # a target past the pairwise cap may be too long to print in decimal
    target = ("%d" % check.min_target if check.min_target is not None
              else "ceil(%d^%d/sqrt(%d))" % (code.r, code.G, abs(code.disc)))
    print("M=%d d=%d n=%d" % (check.M, check.d, code.n))
    print("required: M >= %s, d >= %d, injective, symbols in [0, %d)"
          % (target, required_d, code.q))
    if check.bad_symbol is not None:
        print("fail: word %d has symbol %d outside [0, %d)"
              % (check.bad_symbol[0], check.bad_symbol[1], code.q))
    if not check.injective:
        print("fail: duplicate codewords (M=%d of %d rows)"
              % (check.M, len(code.codewords)))
    if check.d < required_d and check.worst_pair is not None:
        print("fail: words %d and %d at distance %d < %d"
              % (check.worst_pair[0], check.worst_pair[1], check.d, required_d))
    if check.min_target is None or check.M < check.min_target:
        print("fail: M=%d below the volume target %s" % (check.M, target))
    print("ok" if check.ok else "FAILED")
    return EXIT_OK if check.ok else EXIT_CHECK


def _certificate_text(cert) -> str:
    lines = ["q=%d schedule=%s overall=%s" % (cert.q, cert.schedule, cert.overall)]
    if cert.witness:
        w = cert.witness
        lines.append("witness: r=%d ell=%d k=%d Nq=%d" % (w.r, w.ell, w.k, w.Nq))
    for c in cert.checks:
        lines.append("%-40s %-13s lhs=%s rhs=%s margin=%s width=%s"
                     % (c.name, c.status, c.lhs, c.rhs, c.margin, c.width))
    return "\n".join(lines) + "\n"


def cmd_certify(args) -> int:
    from . import bounds as bd
    from . import enclosure as enc
    if args.C0 is not None and args.schedule != "theorem1":
        raise DomainError("--C0 applies only to --schedule theorem1")
    cert = bd.certify(args.q, schedule=args.schedule, C0=args.C0)
    if args.format == "json":
        _emit(json.dumps(cert.as_dict(), indent=2) + "\n", args.output)
    else:
        _emit(_certificate_text(cert), args.output)
    if cert.overall == enc.PASS:
        return EXIT_OK
    return EXIT_CHECK


def cmd_tower(args) -> int:
    from . import enclosure as enc
    from . import quadfield as qf
    K = qf.make_field(args.disc, prime_divisors=_parse_factors(args.factors))
    if not args.genus_only and K.disc < 0 and -K.disc <= qf.CLASS_GROUP_CAP:
        summary = qf.class_group_imaginary(K)
        d2, d2_kind = summary.two_rank, "exact (h=%d)" % summary.h
    else:
        d2, d2_kind = qf.genus_two_rank_lower(K), "genus lower bound"
    cert = qf.golod_shafarevich_check(K, d2, args.sc_size)
    print("disc=%d d2=%d (%s) S_c=%d" % (K.disc, d2, d2_kind, args.sc_size))
    print("threshold: 2 + 2*sqrt(%d) = %s (width %s)"
          % (args.sc_size + K.archimedean_places + 1,
             enc.fmt(cert.threshold, 12), enc.fmt_width(cert.threshold)))
    print("tower certified" if cert.passes else "criterion FAILED")
    return EXIT_OK if cert.passes else EXIT_CHECK


_DISPATCH = {
    "bounds": cmd_bounds,
    "construct": cmd_construct,
    "verify": cmd_verify,
    "certify": cmd_certify,
    "tower": cmd_tower,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    try:
        return _DISPATCH[args.command](args)
    except (DomainError, OSError, UnicodeDecodeError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except (ConditionFailure, IndeterminateError) as e:
        print("check failed: %s" % e, file=sys.stderr)
        return EXIT_CHECK
    except CapacityError as e:
        print("capacity: %s" % e, file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError:
        print("capacity: out of memory", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
