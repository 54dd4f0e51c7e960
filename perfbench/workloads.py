"""Seeded workloads: which gvforge commands one round runs, and their checks.

A round is a fixed list of operations, each one fresh `python -m gvforge.cli`
process. Seed 0 picks the reference instances; any other seed draws each
instance from a pool of about equal cost (same field, radius and genus
with an alphabet that leaves the ideal count unchanged; q within 5% of each
ladder rung; discriminants of the same size). Every workload also runs one
small probe of each command it is not about, so every per-command metric
is measured on every workload; those probes cost mostly interpreter start
and import, and run once a round.
"""

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import oracles

WORKLOADS = ("code", "certify")
COMMANDS = ("construct", "verify", "certify", "tower", "bounds")

# (disc, r, G) with alphabets that all give the same n; q = 200 and 300
# are the reference alphabets (complex field with the uint8 scan, real
# field with the int64 scan for q > 255). r = 15 keeps one construct near
# 1.5 s, so a run repeats each operation several times; the ROADMAP row
# (disc -4, r 30) takes about 13 s for construct plus verify.
CODE_A = (-4, 15, 3, (200, 197, 199, 202, 204, 206, 208, 210))
CODE_B = (5, 15, 3, (300, 289, 292, 295, 298, 302, 305, 308))
PROBE_CODE = (-4, 9, 13, 1)  # disc, r, q, G

CEIL_EXP29 = oracles.EXP29_CEIL
CERTIFY_RUNGS = (CEIL_EXP29 - 1, 2 ** 42, 10 ** 15, 10 ** 16)
# The bounds sweep of the certify workload. 2^42 and 10^15 are left out:
# their nine rows take about 2 and 6 s.
SWEEP_QS = (2 ** 20, 2 ** 30)
SWEEP_DELTAS = tuple(Fraction(i, 10) for i in range(1, 10))

# Fundamental discriminants just inside the class-group cap of 10^8: six or
# more prime divisors (2-rank >= 5, criterion holds) and at most two
# (criterion fails).
TOWER_PASS = (-99999768, -99999627, -99999123, -99998580, -99998520,
              -99997095, -99996715, -99996495, -99996468, -99995720)
TOWER_FAIL = (-99999971, -99999995, -99999992, -99999987, -99999967,
              -99999959, -99999947, -99999931, -99999911, -99999899)
PROBE_TOWER = -19399380
PROBE_CERTIFY = 2 ** 42
PROBE_BOUNDS = (2 ** 20, Fraction(1, 2))


@dataclass
class Op:
    """One process: `python <prefix> <argv>`, run in the round's work
    directory, and the oracle that judges its result."""

    cmd: str
    label: str
    argv: list
    check: Callable  # (exit_code, stdout, workdir) -> optional note
    prepare: Optional[Callable] = None  # untimed, before the op
    extras: dict = field(default_factory=dict)  # traced run only
    prefix: tuple = ("-m", "gvforge.cli")


def _setup_ok(rc, out, wd):
    if rc != 0:
        raise oracles.OracleError("import gvforge.cli exited %d" % rc)


# A fresh interpreter that imports the CLI and stops: the set-up cost every
# command pays. Its samples are spread over the round like the probes.
SETUP = Op("setup", "setup", [], _setup_ok, prefix=("-c", "import gvforge.cli"))
SETUP_PER_ROUND = 2


def _read(workdir, name):
    with open(os.path.join(workdir, name)) as fp:
        return fp.read()


def _construct(label, disc, r, q, G, path):
    def check(rc, out, wd):
        oracles.check_construct(rc, out, _read(wd, path), disc, r, q, G)
    return Op("construct", label,
              ["construct", "--disc", str(disc), "--r", str(r), "--q", str(q),
               "--G", str(G), "--output", path], check)


def _verify(label, disc, r, q, G, path, threads, prepare=None, t1=True):
    def check(rc, out, wd):
        oracles.check_verify(rc, out, _read(wd, path), disc, r, q, G)
    return Op("verify", label, ["--threads", str(threads), "verify", path],
              check, prepare, {"verify_t1": path} if t1 else {})


def _certify(label, q):
    return Op("certify", label, ["certify", "--q", str(q)],
              lambda rc, out, wd: oracles.check_certify(rc, out, q),
              extras={"certify_warm": q})


def _tower(label, disc):
    return Op("tower", label, ["tower", "--disc", str(disc)],
              lambda rc, out, wd: oracles.check_tower(rc, out, disc))


def _bounds(label, qs, deltas, grid=None):
    argv = ["bounds"]
    for q in qs:
        argv += ["--q", str(q)]
    argv += ["--delta-grid", grid] if grid else ["--delta", str(deltas[0])]
    return Op("bounds", label, argv,
              lambda rc, out, wd: oracles.check_bounds(rc, out, qs, deltas))


def tamper(src, dst, i, j):
    """Copy code file src to dst with row j replaced by row i."""
    def prepare(wd):
        lines = _read(wd, src).splitlines(keepends=True)
        lines[1 + j] = lines[1 + i]
        with open(os.path.join(wd, dst), "w") as fp:
            fp.writelines(lines)
    return prepare


def _near(rng, q, lo=-0.05, hi=0.05):
    return int(q * (1 + rng.uniform(lo, hi)))


def instances(workload, seed):
    """The instances a seed picks for a workload, as a JSON-able dict."""
    rng = random.Random(seed)
    pick = (lambda pool: pool[0]) if seed == 0 else rng.choice
    if workload == "code":
        a, b = pick(CODE_A[3]), pick(CODE_B[3])
        m_a = oracles.volume_target(CODE_A[1], CODE_A[2], abs(CODE_A[0]))
        i, j = (0, 1) if seed == 0 else rng.sample(range(m_a), 2)
        return {"A": [CODE_A[0], CODE_A[1], a, CODE_A[2]],
                "B": [CODE_B[0], CODE_B[1], b, CODE_B[2]],
                "tamper_rows": [i, j]}
    if workload == "certify":
        if seed == 0:
            qs = list(CERTIFY_RUNGS)
        else:
            qs = [_near(rng, CEIL_EXP29, -0.05, 0.0)]
            qs += [_near(rng, q) for q in CERTIFY_RUNGS[1:]]
        bqs = list(SWEEP_QS) if seed == 0 else [_near(rng, q) for q in SWEEP_QS]
        return {"certify_q": qs, "tower_pass": pick(TOWER_PASS),
                "tower_fail": pick(TOWER_FAIL), "bounds_q": bqs,
                "deltas": [str(d) for d in SWEEP_DELTAS]}
    raise ValueError("unknown workload %r" % workload)


def build_round(workload, inst, threads):
    """The operation list of one round of `workload` on instances `inst`."""
    p_disc, p_r, p_q, p_G = PROBE_CODE
    probe = {
        "construct": [_construct("construct probe", p_disc, p_r, p_q, p_G,
                                 "P.code")],
        "verify": [_verify("verify probe", p_disc, p_r, p_q, p_G, "P.code",
                           threads)],
        "certify": [_certify("certify probe 2^42", PROBE_CERTIFY)],
        "tower": [_tower("tower probe", PROBE_TOWER)],
        "bounds": [_bounds("bounds probe", [PROBE_BOUNDS[0]],
                           [PROBE_BOUNDS[1]])],
    }
    if workload == "code":
        (da, ra, qa, ga), (db, rb, qb, gb) = inst["A"], inst["B"]
        i, j = inst["tamper_rows"]
        main = [
            _construct("construct A", da, ra, qa, ga, "A.code"),
            _verify("verify A", da, ra, qa, ga, "A.code", threads),
            _construct("construct B", db, rb, qb, gb, "B.code"),
            _verify("verify B", db, rb, qb, gb, "B.code", threads),
            _verify("verify tampered A", da, ra, qa, ga, "T.code", threads,
                    prepare=tamper("A.code", "T.code", i, j), t1=False),
        ]
        extra = ("certify", "tower", "bounds")
    elif workload == "certify":
        main = [_certify("certify q=%d" % q, q) for q in inst["certify_q"]]
        main += [_bounds("bounds sweep", inst["bounds_q"], SWEEP_DELTAS,
                         grid="1/10:9/10:1/10"),
                 _tower("tower pass", inst["tower_pass"]),
                 _tower("tower fail", inst["tower_fail"])]
        extra = ("construct", "verify")
    else:
        raise ValueError("unknown workload %r" % workload)
    probes = [op for cmd in extra for op in probe[cmd]]
    fill = list(probes)
    for k in range(SETUP_PER_ROUND):
        fill.insert(k * (len(probes) + SETUP_PER_ROUND) // SETUP_PER_ROUND,
                    SETUP)
    # Spread set-up samples and probes over the round, before and between
    # the main ops: the machine's speed drifts over seconds, and medians of
    # short samples taken together would follow the drift.
    slots = len(main) + 1
    out = []
    for k in range(slots):
        out += fill[k * len(fill) // slots:(k + 1) * len(fill) // slots]
        out += main[k:k + 1]
    return out
