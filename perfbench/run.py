"""gvforge benchmark: closed-loop CLI timings, with an optional traced run.

    python3 perfbench/run.py --workload code --seed 0 --seconds 55 --trace 0

Run from the root of a gvforge checkout; gvforge is imported from ./src.
One client runs the operations of a round one after another, each as a
fresh `python -m gvforge.cli` process, and starts another round while the
measured time plus half a round is within --seconds (at least one round).
Each operation is timed from spawn to exit; its peak RSS comes from
os.wait4 and its exit code and output are judged by the oracles in
oracles.py, outside the timed region.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced round,
then the same round again under tracer.py, and prints the per-layer
metrics. Either way the last line of stdout is the JSON result; the line
before it, starting with "record ", holds the seed, the instances, the
environment and per-operation figures.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import mpmath
import numpy as np

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACER = os.path.join(HERE, "tracer.py")
SPAWNER = os.path.join(HERE, "spawner.py")
TRACE_DIR = os.path.join(HERE, ".traces")
OP_TIMEOUT = 60.0
SETUP_SAMPLES = 7
# The end-to-end metrics of the result line. The per-command times are
# printed too, but a command a workload only probes takes a few tenths of a
# second, mostly interpreter start, and its median moves with the machine's
# drift by more than any useful bound.
RESULT_METRICS = ("setup_s", "wall_s", "peak_rss_mb")


class Spawner:
    """Client of spawner.py, which runs and times every operation."""

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("GVFORGE_SIEVE_LIMIT", None)
        self.proc = subprocess.Popen([sys.executable, SPAWNER], env=env,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv, cwd, stdout_path):
        """Run argv to completion: the spawner's answer plus "stdout"."""
        self.proc.stdin.write(json.dumps({
            "argv": argv, "cwd": cwd, "stdout": stdout_path,
            "timeout": OP_TIMEOUT}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("spawner exited")
        res = json.loads(line)
        with open(stdout_path) as fp:
            res["stdout"] = fp.read()
        return res

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=30)


def interpreter_times(sp, code, samples, workdir):
    """Median wall time of `python -c code`, after one untimed warm-up run
    (which also writes the bytecode cache)."""
    out = os.path.join(workdir, "setup.out")
    times = []
    for i in range(samples + 1):
        res = sp.run([sys.executable, "-c", code], workdir, out)
        if res["exit"] != 0:
            raise SystemExit("python -c %r exited %d" % (code, res["exit"]))
        if i:
            times.append(res["seconds"])
    return statistics.median(times)


def run_op(sp, op, workdir, argv, tag):
    """Prepare, spawn argv and check it as op: a dict of its figures."""
    if op.prepare:
        op.prepare(workdir)
    res = sp.run(argv, workdir, os.path.join(workdir, tag + ".out"))
    rec = {"label": op.label, "cmd": op.cmd, "seconds": res["seconds"],
           "exit": res["exit"], "rss_mb": res["rss_mb"],
           "error": None, "note": None}
    try:
        rec["note"] = op.check(res["exit"], res["stdout"], workdir)
    except Exception as e:  # any oracle complaint fails the op, not the run
        rec["error"] = "%s: %s" % (type(e).__name__, e)
    return rec


def measure(sp, ops, workdir, seconds):
    """Closed loop of rounds: a list of rounds, each a list of op records."""
    rounds, measured = [], 0.0
    while True:
        recs = [run_op(sp, op, workdir, [sys.executable, *op.prefix, *op.argv],
                       "op%d" % i) for i, op in enumerate(ops)]
        rounds.append(recs)
        took = sum(r["seconds"] for r in recs)
        measured += took
        if measured + took / 2 > seconds:
            return rounds


def traced_run(sp, ops, workdir, args):
    """One untraced round, then each op again under tracer.py: the rounds,
    the per-layer metrics and the per-op tracing figures."""
    interp_s = interpreter_times(sp, "pass", SETUP_SAMPLES, workdir)
    import_s = interpreter_times(sp, "import gvforge.cli", SETUP_SAMPLES, workdir)
    ops = list({op.label: op for op in ops if op.cmd != "setup"}.values())
    plain = measure(sp, ops, workdir, 0.0)[0]
    traced, traces = [], []
    for i, op in enumerate(ops):
        spec = os.path.join(workdir, "trace%d.spec" % i)
        spans = os.path.join(workdir, "trace%d.spans" % i)
        with open(spec, "w") as fp:
            json.dump({"argv": op.argv, "extras": op.extras, "out": spans}, fp)
        traced.append(run_op(sp, op, workdir, [sys.executable, TRACER, spec],
                             "trace%d" % i))
        with open(spans) as fp:
            traces.append(json.load(fp))
    metrics, figs = tracer.layer_metrics(ops, plain, traced, traces, interp_s,
                                         import_s)
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))
    with open(path, "w") as fp:
        json.dump([dict(op=i, label=op.label, **tr)
                   for i, (op, tr) in enumerate(zip(ops, traces))], fp)
    for f in figs:
        print("trace op %-24s untraced %8.3f s  traced %8.3f s  overhead %+6.1f%%"
              "  spans cover %5.1f%%" % (f["label"], f["untraced_s"],
                                         f["traced_s"], 100 * f["overhead"],
                                         100 * f["coverage"]))
    return [plain, traced], metrics, {"trace_ops": figs,
                                      "trace_file": os.path.relpath(path, ROOT)}


def op_summary(recs):
    """Median and all seconds, peak RSS, command and count of each op label."""
    out = {}
    for r in recs:
        o = out.setdefault(r["label"], {"cmd": r["cmd"], "secs": [],
                                        "rss_mb": 0.0})
        o["secs"].append(r["seconds"])
        o["rss_mb"] = max(o["rss_mb"], r["rss_mb"])
    return {label: {"cmd": o["cmd"], "median_s": statistics.median(o["secs"]),
                    "secs": o["secs"],
                    "rss_mb": o["rss_mb"], "n": len(o["secs"])}
            for label, o in out.items()}


def end_to_end(summary):
    """setup_s is the median set-up sample; wall_s and each <command>_s sum
    the median times of the distinct gvforge operations."""
    summary = dict(summary)
    setup = summary.pop("setup")
    metrics = {"setup_s": (setup["median_s"], "s"),
               "wall_s": (sum(o["median_s"] for o in summary.values()), "s")}
    for cmd in workloads.COMMANDS:
        metrics[cmd + "_s"] = (sum(o["median_s"] for o in summary.values()
                                   if o["cmd"] == cmd), "s")
    metrics["peak_rss_mb"] = (max(o["rss_mb"] for o in summary.values()), "MB")
    return metrics


def git_commit():
    """HEAD of the checkout's own .git, or None when it is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fp:
                return fp.read().strip()
        with open(os.path.join(git, "packed-refs")) as fp:
            for line in fp:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads):
    return {
        "nproc": os.cpu_count(), "verify_threads": threads,
        "python": platform.python_version(), "numpy": np.__version__,
        "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
        "git_commit": git_commit(),
        "GVFORGE_SIEVE_LIMIT": "unset for every operation",
        "GVFORGE_SIEVE_LIMIT_in_caller": os.environ.get("GVFORGE_SIEVE_LIMIT"),
        "platform": platform.platform(), "closed_loop_clients": 1,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gvforge", "cli.py")):
        print("no gvforge sources under %s" % SRC, file=sys.stderr)
        return 2
    threads = os.cpu_count() or 1
    inst = workloads.instances(args.workload, args.seed)
    ops = workloads.build_round(args.workload, inst, threads)
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir)
    sp = Spawner()
    try:
        if args.trace:
            rounds, metrics, extra = traced_run(sp, ops, workdir, args)
        else:
            # untimed warm-up: writes the bytecode cache of a fresh checkout
            sp.run([sys.executable, "-c", "import gvforge.cli"], workdir,
                   os.path.join(workdir, "warmup.out"))
            rounds = measure(sp, ops, workdir, args.seconds)
            metrics, extra = end_to_end(op_summary(sum(rounds, []))), {}
    finally:
        sp.close()
        shutil.rmtree(workdir, ignore_errors=True)

    recs = [r for recs in rounds for r in recs]
    failed = [r for r in recs if r["error"]]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "instances": inst,
              "environment": environment(threads), "rounds": len(rounds),
              "ops": op_summary(rounds[0] if args.trace else recs),
              "fail_ratio": len(failed) / len(recs),
              "failures": [(r["label"], r["error"]) for r in failed],
              "notes": sorted({r["note"] for r in recs if r["note"]})}
    record.update(extra)
    for name, (value, unit) in metrics.items():
        print("%-28s %14.6f %s" % (name, value, unit))
    print("%-28s %14.6f ratio (%d of %d operations failed)"
          % ("fail_ratio", record["fail_ratio"], len(failed), len(recs)))
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not failed, "attempted": len(recs), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if args.trace or k in RESULT_METRICS},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
