"""Runs the benchmark's operations from a small process of its own.

Linux counts in a child's peak RSS the memory it shared with its parent
before exec, so a child spawned straight from run.py, which holds numpy and
the oracles' sieves, would report run.py's size. This process imports
almost nothing and spawns every timed operation instead.

Reads one JSON request per line on stdin, {"argv", "cwd", "stdout",
"timeout"}, and answers each with one JSON line, {"seconds", "exit",
"rss_mb"}: wall time from spawn to exit, exit code, and the peak RSS from
os.wait4. The operation's stdout goes to the named file, its stderr is
dropped. Exits at end of input.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time


def run(req):
    with open(req["stdout"], "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out,
                                stderr=subprocess.DEVNULL)
        fd = os.pidfd_open(proc.pid)
        try:
            if not select.select([fd], [], [], req["timeout"])[0]:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(fd)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "exit": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0}


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
