"""Starts children on request; reports each one's wall time, exit code and peak RSS.

Linux carries a process's peak RSS across fork and exec, so a child forked
from the benchmark would report at least the benchmark's own peak.  This
small process forks the children instead.  It reads one JSON request per
line on stdin, ``{"argv": [...], "log": path, "timeout": seconds}``, runs
the child to exit with stdout and stderr in ``log``, and answers with one
JSON line ``{"wall_s": ..., "rc": ..., "rss_mb": ..., "killed": ...}``, where
``killed`` says that the child was still running at its timeout.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=subprocess.STDOUT)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            watchdog = threading.Timer(req["timeout"], kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "rc": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
                 "killed": killed.is_set()}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
