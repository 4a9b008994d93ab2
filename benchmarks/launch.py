"""Run one command and print its wall time, exit code and peak RSS as one JSON line.

    python3 launch.py TIMEOUT_S STDOUT_PATH COMMAND [ARG ...]

The benchmark starts a fresh launcher for every timed command.  A process's
``ru_maxrss`` also counts the memory of the process it was forked from, so
forking the command from the benchmark itself, which holds numpy and the
outputs it checks, would inflate the figure; this launcher imports nothing
heavy.  The peak comes from ``RUSAGE_CHILDREN`` after the command is reaped,
so it covers the command and every process it reaped, pool workers included.
"""

import json
import os
import resource
import signal
import subprocess
import sys
import threading
from time import perf_counter


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def main() -> int:
    timeout, stdout_path, command = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    timed_out = threading.Event()

    def expire(pgid: int) -> None:
        timed_out.set()
        _kill_group(pgid)

    with open(stdout_path, "wb") as out:
        start = perf_counter()
        proc = subprocess.Popen(command, stdout=out, start_new_session=True)
        timer = threading.Timer(timeout, expire, (proc.pid,))
        timer.start()
        try:
            returncode = proc.wait()
        finally:
            timer.cancel()
            timer.join()
        wall = perf_counter() - start
    _kill_group(proc.pid)  # anything the command left behind in its session
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"wall_s": wall, "returncode": returncode,
                      "peak_rss_mb": peak_kb / 1024.0, "timed_out": timed_out.is_set()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
