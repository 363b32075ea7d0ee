"""Benchmark of the percut command line, end to end and per layer.

    python3 perfbench/run.py --workload {exact,sampled,bulk} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src`` and nothing is installed.  Jobs are ``percut`` processes run one at a
time (a closed loop with one client).  With ``--trace 0`` the workload's job
list is repeated for about S seconds, every output is checked, and the
end-to-end metrics are printed.  With ``--trace 1`` the jobs run once as
processes, once in one untraced interpreter and once in one traced
interpreter, and the per-layer metrics and the tracing overhead are
printed.  The last line of standard output is always one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import check_pass, read_output
from layers import PER_LAYER, census_reuse, check_tree, summarize
from workloads import WORKLOADS, build_jobs

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
BLAS_THREADS = 1
# `percut --help` samples per run, spread evenly over the run's time.
SETUP_REPS = 15
# Every child is killed by then, which keeps a run inside three minutes.
DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "rss_peak_mb": "MB",
}


class Runner:
    """Runs children through the spawner, with a pinned environment and a deadline."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        self.spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], env=env,
                                        cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True)

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()

    def spawn(self, argv: list[str], log: Path) -> tuple[float | None, int, float]:
        """(wall seconds, exit code, peak RSS in MB) of one child run to exit.

        The wall is None for a child refused or killed at the deadline.
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return None, -1, 0.0
        request = {"argv": argv, "log": str(log), "timeout": remaining}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        return None if reply["killed"] else reply["wall_s"], reply["rc"], reply["rss_mb"]

    def cli(self, args: list[str], log: Path) -> tuple[float | None, int, float]:
        return self.spawn([sys.executable, "-m", "percut.cli", *args], log)


def output_path(work: Path, job: dict) -> Path:
    return work / "out" / f"{job['id']}.{job['fmt']}"


def record_body(path: Path) -> bytes:
    """A job's output without the header lines that change on every run."""
    if not path.exists():
        return b"<missing>"
    data = path.read_bytes()
    if data.startswith(b"#"):
        return b"\n".join(line for line in data.split(b"\n") if not line.startswith(b"#"))
    rows = data.find(b'"rows"')
    return data if rows < 0 else data[rows:]


class Checker:
    """Checks each pass's outputs once per distinct content."""

    def __init__(self, workload: str, jobs: list[dict], work: Path):
        self.workload, self.jobs, self.work = workload, jobs, work
        self.refs = json.loads(REFERENCES.read_text())
        self.seen: dict[str, dict] = {}

    def __call__(self, exit_codes: dict[str, int]) -> dict[str, list[str]]:
        outputs = {job["id"]: output_path(self.work, job) for job in self.jobs}
        digest = hashlib.sha256()
        for path in outputs.values():
            digest.update(record_body(path))
            digest.update(b"\0")
        key = digest.hexdigest()
        if key not in self.seen:
            self.seen[key] = check_pass(self.workload, self.jobs, outputs, self.refs)
        problems = {k: list(v) for k, v in self.seen[key].items()}
        for job_id, rc in exit_codes.items():
            if rc != 0:
                problems[job_id].insert(0, f"exit code {rc}")
        return problems


def run_pass(runner: Runner, jobs: list[dict], before_job=None) -> list[dict]:
    results = []
    for job in jobs:
        if before_job:
            before_job()
        out = output_path(runner.work, job)
        out.unlink(missing_ok=True)
        wall, rc, rss = runner.cli([*job["argv"], "--output-file", str(out.relative_to(runner.root))],
                                   runner.work / "log" / f"{job['id']}.log")
        results.append({"id": job["id"], "wall_s": wall, "rc": rc, "rss_mb": rss})
    return results


def run_worker(runner: Runner, jobs: list[dict], traced: bool) -> dict:
    spec = [{**job, "out": str(output_path(runner.work, job).relative_to(runner.root))} for job in jobs]
    for job in jobs:
        output_path(runner.work, job).unlink(missing_ok=True)
    jobs_file = runner.work / "worker_jobs.json"
    jobs_file.write_text(json.dumps(spec))
    result_file = runner.work / f"spans_{int(traced)}.json"
    result_file.unlink(missing_ok=True)
    _, rc, _ = runner.spawn([sys.executable, str(HERE / "worker.py"), str(jobs_file),
                             str(result_file), str(int(traced))],
                            runner.work / "log" / f"worker_{int(traced)}.log")
    if rc != 0 or not result_file.exists():
        return {"jobs": [{"id": job["id"], "rc": rc or -1, "wall_s": 0.0} for job in jobs],
                "nodes": [], "counters": {}}
    return json.loads(result_file.read_text())


def tally(problems: dict[str, list[str]], failures: list[str], label: str) -> int:
    bad = 0
    for job_id, items in problems.items():
        if items:
            bad += 1
            failures.append(f"{label} {job_id}: " + "; ".join(items[:3]))
    return bad


def measure(runner, jobs, check, seconds) -> tuple[dict, int, int, list[str], dict]:
    """Cycle through the job list for about ``seconds``; end-to-end metrics.

    The first pass always completes; after it, the next job starts only if
    its last wall still fits in the time left.  ``wall_s`` sums each job's
    mean wall, so jobs repeated more often than others weigh the same.  The
    mean, not the median: the noise here is CPU speed wandering over
    seconds, not rare outliers, and the mean of all samples is steadier.
    A job that never finished within the deadline counts as the whole
    deadline.  ``setup_s`` is the median of ``percut --help`` processes
    taken between jobs, one at most every ``seconds / SETUP_REPS``, so they
    sample the whole run rather than one stretch of it.
    """
    help_log = runner.work / "log" / "help.log"
    runner.cli(["--help"], help_log)  # compile bytecode, warm the file cache
    setup: list[float] = []
    start = time.monotonic()

    def sample_setup() -> None:
        due = start + len(setup) * seconds / SETUP_REPS
        if len(setup) < SETUP_REPS and time.monotonic() >= due:
            wall = runner.cli(["--help"], help_log)[0]
            if wall is not None:
                setup.append(wall)

    walls: dict[str, list[float]] = {job["id"]: [] for job in jobs}
    rss, failures, attempted, failed, passes = 0.0, [], 0, 0, 0
    while True:
        todo = jobs
        if passes:
            now = time.monotonic()
            todo, left = [], min(seconds - (now - start), runner.deadline - now)
            for job in jobs:
                left -= walls[job["id"]][-1]
                if left < 0:
                    break
                todo.append(job)
        if not todo:
            break
        passes += 1
        results = run_pass(runner, todo, sample_setup)
        # Jobs left out of a partial pass keep their last output, so the
        # pass-wide identities still apply; only the jobs just run are tallied.
        problems = check({r["id"]: r["rc"] for r in results})
        attempted += len(results)
        failed += tally({r["id"]: problems[r["id"]] for r in results}, failures, f"pass {passes}")
        for r in results:
            if r["wall_s"] is not None:
                walls[r["id"]].append(r["wall_s"])
            rss = max(rss, r["rss_mb"])
        if len(todo) < len(jobs) or any(r["wall_s"] is None for r in results):
            break
    metrics = {
        "wall_s": sum(statistics.mean(w) if w else DEADLINE_S for w in walls.values()),
        "setup_s": statistics.median(setup) if setup else DEADLINE_S,
        "rss_peak_mb": rss,
    }
    extra = {"passes": passes, "walls_s": walls, "setup_walls_s": setup}
    return metrics, attempted, failed, failures, extra


def trace(runner, jobs, check) -> tuple[dict, int, int, list[str], dict]:
    """Per-layer metrics from one traced interpreter, plus the process metrics."""
    runner.cli(["--help"], runner.work / "log" / "help.log")
    failures, attempted, failed = [], 0, 0

    results = run_pass(runner, jobs)
    attempted += len(results)
    failed += tally(check({r["id"]: r["rc"] for r in results}), failures, "processes")
    handler = bytes_out = 0.0
    for job in jobs:
        path = output_path(runner.work, job)
        if path.exists():
            handler += read_output(path, job["fmt"])["wall_time_s"]
            bytes_out += path.stat().st_size
    process_wall = sum(DEADLINE_S if r["wall_s"] is None else r["wall_s"] for r in results)

    walls = {}
    for traced in (False, True):
        record = run_worker(runner, jobs, traced)
        attempted += len(record["jobs"])
        label = "traced" if traced else "in-process"
        failed += tally(check({r["id"]: r["rc"] for r in record["jobs"]}), failures, label)
        walls[traced] = sum(r["wall_s"] for r in record["jobs"])
    tree_problems = check_tree(record["nodes"])
    if tree_problems or not record["nodes"]:
        failures.append("span tree: " + "; ".join(tree_problems[:3] or ["no spans"]))
        failed += 1
    metrics = summarize(record["nodes"], record["counters"])
    metrics.update({
        "cli.handler_s": handler,
        "cli.overhead_s": process_wall - handler,
        "cli.bytes_out": bytes_out,
        "trace.overhead_s": walls[True] - walls[False],
    })
    extra = {"process_wall_s": process_wall, "untraced_in_process_s": walls[False],
             "traced_in_process_s": walls[True], "jobs": results,
             "census_reuse": census_reuse(record["nodes"], record["counters"])}
    return metrics, attempted, failed, failures, extra


def commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree; benchmark copies are not."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    root = Path.cwd()
    if not (root / "src" / "percut" / "cli.py").is_file():
        print(f"error: no percut sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    work = HERE / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("out", "log", "inputs"):
        (work / sub).mkdir(parents=True)
    jobs = build_jobs(args.workload, args.seed, (work / "inputs").relative_to(root))
    check = Checker(args.workload, jobs, work)
    runner = Runner(root, work)
    try:
        if args.trace:
            metrics, attempted, failed, failures, extra = trace(runner, jobs, check)
            units = {k: u for k, (u, _) in PER_LAYER.items()}
        else:
            metrics, attempted, failed, failures, extra = measure(runner, jobs, check, args.seconds)
            units = END_TO_END
    finally:
        runner.close()
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "commit": commit(root), "python": platform.python_version(),
            "numpy": np.__version__, "cores": os.cpu_count(), "blas_threads": BLAS_THREADS}
    (work / "result.json").write_text(json.dumps({"meta": meta, "metrics": metrics,
                                                  "failures": failures, **extra}, indent=1))
    print("meta " + json.dumps(meta))
    for line in failures:
        print("FAILED " + line)
    for name in units:
        print(f"{args.workload:8s} {name:32s} {metrics[name]:>16.6g} {units[name]}")
    for job_id, row in extra.get("census_reuse", {}).items():
        print(f"{args.workload:8s} {job_id}: " + ", ".join(f"{k} {v:.6g}" for k, v in row.items()))
    print(f"{args.workload:8s} {'fail_ratio':32s} {failed / attempted:>16.6g} 1 "
          f"({failed} of {attempted} jobs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
