"""Starts, times and measures the CLI processes of a run, one at a time.

Linux charges a child the peak resident set of the address space it was
created from, so a child started straight from the driver, which holds
parsed outputs of up to a few hundred MB, would report the driver's peak as
its own.  The driver therefore starts this small process once and has it
start every CLI process.

One request per stdin line, one reply per stdout line (JSON):

    {"argv": [...], "stdout": PATH, "stderr": PATH, "timeout": SECONDS}
    -> {"wall_s", "cpu_s", "rss_mb", "code", "timed_out"}

The process stops at the end of its input.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
from time import perf_counter


def spawn(argv, stdout_path, stderr_path, timeout) -> dict:
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], timeout)[0]
            if timed_out:
                os.kill(proc.pid, signal.SIGKILL)  # not reaped yet, so the pid is still ours
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode, "timed_out": timed_out}


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = spawn(request["argv"], request["stdout"], request["stderr"], request["timeout"])
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
