"""Run a job list inside one interpreter, optionally with spans installed.

    python3 perfbench/worker.py JOBS.json RESULT.json {0|1}

Imports ``percut``, installs the wrappers when the last argument is 1, then
calls ``percut.cli.main`` for each job in turn.  Spans stay in memory and are
written to RESULT.json with the per-job walls when the last job ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    jobs_path, result_path, traced = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    jobs = json.loads(Path(jobs_path).read_text())
    import percut.cli as cli

    tracer = None
    if traced:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    results = []
    for job in jobs:
        argv = job["argv"] + ["--output-file", job["out"]]
        start = time.perf_counter()
        rc = tracer.run_job(job["id"], cli.main, argv) if tracer else cli.main(argv)
        results.append({"id": job["id"], "rc": rc, "wall_s": time.perf_counter() - start})
    record = {"jobs": results}
    if tracer:
        record["nodes"] = [n.as_dict() for n in tracer.nodes]
        record["counters"] = tracer.counters
    Path(result_path).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
