"""Spawns the benchmark's commands from a small process and times them.

A child's max-RSS as the kernel reports it includes the memory of the
process it was forked from, so commands are not spawned by the
benchmark itself, whose memory grows while it checks outputs.  This
process imports no more than it needs and stays small.  It reads one
JSON request per line on stdin:

    {"argv": [...], "cwd": DIR, "stdout": PATH, "stderr": PATH, "timeout": SECONDS}

runs the command, and answers one JSON line on stdout:

    {"returncode": int, "wall_s": float, "maxrss_kb": int}

wall_s runs from just before the spawn to the return of wait4.  A
command that outlives its timeout is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(request["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "returncode": proc.returncode,
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
