"""Traced run: spans around calls into gvforge's modules, kept in memory.

As a script, `python perfbench/tracer.py SPEC.json` is one traced
operation. It imports gvforge, wraps the public functions listed in WRAP
wherever a gvforge module refers to them, runs `gvforge.cli.main` on the
spec's argv exactly as the CLI would, restores the originals, runs the
spec's extra untraced calls, and writes its spans (name, start, end,
parent) and counts to the spec's output file. gvforge itself is unchanged;
every span comes from this file.

As a module, layer_metrics() turns the spans of one round into the
per-layer metrics of BENCHMARK.json, and op_figures() gives each
operation's tracing overhead and the share of its traced wall time that
the spans cover (the import span plus the layer spans directly under
cli.main); the rest is interpreter start and code outside the wrapped
functions. Layer times are inclusive: a sieve run while listing ideals counts
in both numtheory.sieve_s and quadfield.ideals_s.
"""

import json
import sys
import time
from collections import defaultdict

# (module, function, span name or None for a count-only wrapper)
WRAP = (
    ("numtheory", "sieve_primes", "numtheory.sieve"),
    ("numtheory", "table_for", None),
    ("quadfield", "prime_ideals_in_norm_range", "quadfield.ideals"),
    ("quadfield", "class_group_imaginary", "quadfield.class_group"),
    ("lenstra", "build_code", "lenstra.build_code"),
    ("lenstra", "make_embedding", "lenstra.embedding"),
    ("lenstra", "find_tau", "lenstra.find_tau"),
    ("lenstra", "enumerate_omega", "lenstra.omega"),
    ("lenstra", "format_code_file", "lenstra.format"),
    ("lenstra", "read_code_file", "lenstra.read"),
    ("lenstra", "verify_code", "lenstra.verify"),
    ("bounds", "certify", "bounds.certify"),
    ("bounds", "search_params", "bounds.search"),
    ("bounds", "nfc_bound", "bounds.nfc_bound"),
    ("cli", "_emit", "cli.emit"),
)

PER_LAYER = (
    ("lenstra.find_tau_s", "s"), ("lenstra.find_tau_grid", "count"),
    ("lenstra.find_tau_bumps", "count"), ("lenstra.omega_s", "s"),
    ("lenstra.omega_points", "count"), ("lenstra.residue_s", "s"),
    ("lenstra.write_s", "s"), ("lenstra.read_s", "s"),
    ("lenstra.verify_s", "s"), ("lenstra.verify_t1_s", "s"),
    ("lenstra.scan_pair_symbols", "count"), ("lenstra.scan_rate", "1/s"),
    ("quadfield.ideals_s", "s"), ("quadfield.ideals_n", "count"),
    ("quadfield.class_group_s", "s"), ("quadfield.class_group_h", "count"),
    ("numtheory.sieve_s", "s"), ("numtheory.sieve_limit", "count"),
    ("numtheory.sieve_overshoot", "ratio"), ("bounds.certify_warm_s", "s"),
    ("bounds.search_s", "s"), ("bounds.nfc_bound_us", "us"),
    ("cli.interp_s", "s"), ("cli.import_s", "s"),
    ("trace.overhead", "ratio"), ("trace.coverage", "ratio"),
)


class Recorder:
    """Spans and counts of one traced operation."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(int)
        self.saved = []

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _count(self, fn, args, res):
        c = self.counts
        if fn == "table_for":
            c["sieve_request"] = max(c["sieve_request"], int(args[0]))
        elif fn == "sieve_primes":
            c["sieve_limit"] = max(c["sieve_limit"], int(args[0]))
        elif fn == "find_tau":
            c["find_tau_grid"] = max(c["find_tau_grid"], res.grid)
            c["find_tau_bumps"] += res.bumps
        elif fn == "enumerate_omega":
            c["omega_points"] += len(res)
        elif fn == "prime_ideals_in_norm_range":
            c["ideals_n"] += len(res)
        elif fn == "class_group_imaginary":
            c["class_group_h"] += res.h
        elif fn == "verify_code":
            m, n = len(args[0].codewords), args[0].n
            c["scan_pair_symbols"] += m * (m - 1) // 2 * n

    def wrap(self, fn_name, span, fn):
        def traced(*args, **kwargs):
            idx = self.open(span) if span else None
            try:
                res = fn(*args, **kwargs)
            finally:
                if span:
                    self.close(idx)
            self._count(fn_name, args, res)
            return res
        return traced

    def install(self, modules):
        """Replace each WRAP function in every module that refers to it."""
        for mod_name, fn_name, span in WRAP:
            orig = getattr(modules[mod_name], fn_name)
            new = self.wrap(fn_name, span, orig)
            for mod in modules.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, new)
                        self.saved.append((mod, attr, orig))

    def restore(self):
        for mod, attr, orig in self.saved:
            setattr(mod, attr, orig)
        self.saved = []


def child(spec_path):
    with open(spec_path) as fp:
        spec = json.load(fp)
    rec = Recorder()
    idx = rec.open("cli.import")
    import gvforge
    from gvforge import bounds, cli, lenstra, numtheory, quadfield
    rec.close(idx)
    modules = {"gvforge": gvforge, "bounds": bounds, "cli": cli,
               "lenstra": lenstra, "numtheory": numtheory,
               "quadfield": quadfield}
    rec.install(modules)
    idx = rec.open("cli.main")
    try:
        rc = cli.main(spec["argv"])
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    finally:
        rec.close(idx)
        rec.restore()
    sys.stdout.flush()
    extras = {}
    if "verify_t1" in spec["extras"]:
        code = lenstra.read_code_file(spec["extras"]["verify_t1"])
        t0 = time.perf_counter()
        lenstra.verify_code(code, threads=1)
        extras["verify_t1_s"] = time.perf_counter() - t0
    if "certify_warm" in spec["extras"]:
        t0 = time.perf_counter()
        bounds.certify(int(spec["extras"]["certify_warm"]))
        extras["certify_warm_s"] = time.perf_counter() - t0
    with open(spec["out"], "w") as fp:
        json.dump({"spans": rec.spans, "counts": rec.counts,
                   "extras": extras, "exit": rc}, fp)
    return rc


def _span_sums(trace):
    """Per span name: (total seconds, calls); plus build_code self time and
    the time covered by the import span and the top-level layer spans."""
    spans = trace["spans"]
    total, calls = defaultdict(float), defaultdict(int)
    inner = [0.0] * len(spans)
    main = next(i for i, s in enumerate(spans) if s[0] == "cli.main")
    covered = 0.0
    for name, t0, t1, parent in spans:
        total[name] += t1 - t0
        calls[name] += 1
        if parent >= 0:
            inner[parent] += t1 - t0
        if parent == main or name == "cli.import":
            covered += t1 - t0
    residue = sum(s[2] - s[1] - inner[i] for i, s in enumerate(spans)
                  if s[0] == "lenstra.build_code")
    return total, calls, residue, covered


def op_figures(plain, traced, trace):
    """Untraced and traced seconds, overhead and span coverage of one op."""
    _, _, _, covered = _span_sums(trace)
    extra = sum(trace["extras"].values())
    return {"label": plain["label"], "untraced_s": plain["seconds"],
            "traced_s": traced["seconds"] - extra, "extras_s": extra,
            "overhead": (traced["seconds"] - extra) / plain["seconds"] - 1,
            "coverage": covered / (traced["seconds"] - extra)}


def layer_metrics(ops, plain, traced, traces, interp_s, import_s):
    """PER_LAYER metrics of one traced round: {name: (value, unit)}."""
    t, n = defaultdict(float), defaultdict(int)
    counts = defaultdict(int)
    residue = write = 0.0
    overshoot = (0, 1.0)  # (largest sieve, its overshoot)
    for op, trace in zip(ops, traces):
        total, calls, res, _ = _span_sums(trace)
        for k, v in total.items():
            t[k] += v
        for k, v in calls.items():
            n[k] += v
        residue += res
        if op.cmd == "construct":
            write += total["lenstra.format"] + total["cli.emit"]
        c = trace["counts"]
        for k in ("find_tau_bumps", "omega_points", "ideals_n",
                  "class_group_h", "scan_pair_symbols"):
            counts[k] += c.get(k, 0)
        for k in ("find_tau_grid", "sieve_limit"):
            counts[k] = max(counts[k], c.get(k, 0))
        if c.get("sieve_limit", 0) > overshoot[0]:
            asked = c.get("sieve_request") or c["sieve_limit"]
            overshoot = (c["sieve_limit"], c["sieve_limit"] / asked)
        for k, v in trace["extras"].items():
            t[k] += v
    figs = [op_figures(p, q, tr) for p, q, tr in zip(plain, traced, traces)]
    untraced = sum(f["untraced_s"] for f in figs)
    values = {
        "lenstra.find_tau_s": t["lenstra.find_tau"],
        "lenstra.find_tau_grid": counts["find_tau_grid"],
        "lenstra.find_tau_bumps": counts["find_tau_bumps"],
        "lenstra.omega_s": t["lenstra.omega"],
        "lenstra.omega_points": counts["omega_points"],
        "lenstra.residue_s": residue,
        "lenstra.write_s": write,
        "lenstra.read_s": t["lenstra.read"],
        "lenstra.verify_s": t["lenstra.verify"],
        "lenstra.verify_t1_s": t["verify_t1_s"],
        "lenstra.scan_pair_symbols": counts["scan_pair_symbols"],
        "lenstra.scan_rate": counts["scan_pair_symbols"] / t["lenstra.verify"]
        if t["lenstra.verify"] else 0.0,
        "quadfield.ideals_s": t["quadfield.ideals"],
        "quadfield.ideals_n": counts["ideals_n"],
        "quadfield.class_group_s": t["quadfield.class_group"],
        "quadfield.class_group_h": counts["class_group_h"],
        "numtheory.sieve_s": t["numtheory.sieve"],
        "numtheory.sieve_limit": counts["sieve_limit"],
        "numtheory.sieve_overshoot": overshoot[1],
        "bounds.certify_warm_s": t["certify_warm_s"],
        "bounds.search_s": t["bounds.search"],
        "bounds.nfc_bound_us": 1e6 * t["bounds.nfc_bound"] / n["bounds.nfc_bound"]
        if n["bounds.nfc_bound"] else 0.0,
        "cli.interp_s": interp_s,
        "cli.import_s": import_s - interp_s,
        "trace.overhead": sum(f["traced_s"] for f in figs) / untraced - 1,
        "trace.coverage": sum(f["coverage"] * f["traced_s"] for f in figs)
        / sum(f["traced_s"] for f in figs),
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER}, figs


if __name__ == "__main__":
    sys.exit(child(sys.argv[1]))
