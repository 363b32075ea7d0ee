"""Harness self-test: wrong output, failed exits and broken spans are all caught.

    python3 perfbench/selftest.py

Run from a checkout root (about 30 s on 2 cores).  Runs one pass of the
``exact`` workload and a small traced job list, then checks that

* a clean pass has no failures, and a corrupted stored reference or a
  corrupted output fails exactly the job it belongs to;
* a job that exits non-zero counts as failed;
* spans nest, every self time is at least 0, self times add up to each job
  span even when a wrapped call raises, and a misplaced span is reported;
* jobs refused at the deadline fail and count as the whole deadline in
  ``wall_s``, never as 0.

Prints one line per expectation and exits 1 if any does not hold.
"""

from __future__ import annotations

import copy
import shutil
import sys
import time
from pathlib import Path

from layers import check_tree
from run import DEADLINE_S, HERE, Checker, Runner, measure, output_path, run_pass, run_worker
from workloads import build_jobs

failures = 0


def expect(what: str, ok: bool) -> None:
    global failures
    failures += not ok
    print(f"{'ok  ' if ok else 'FAIL'} {what}")


def failed_ids(problems: dict[str, list[str]]) -> set[str]:
    return {job_id for job_id, items in problems.items() if items}


def main() -> int:
    root = Path.cwd()
    work = HERE / "_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("out", "log", "inputs"):
        (work / sub).mkdir(parents=True)
    jobs = build_jobs("exact", 7, (work / "inputs").relative_to(root))
    runner = Runner(root, work)
    check = Checker("exact", jobs, work)

    exit_codes = {r["id"]: r["rc"] for r in run_pass(runner, jobs)}
    expect("a clean pass has no failed job", failed_ids(check(exit_codes)) == set())

    good = copy.deepcopy(check.refs)
    check.refs["exact"]["enum_7x6"][0]["count"] = "2"
    check.seen.clear()
    expect("a corrupted stored reference fails its job and no other",
           failed_ids(check(exit_codes)) == {"enum_7x6"})
    check.refs = good
    check.seen.clear()

    out = output_path(work, jobs[0])
    out.write_text(out.read_text().replace("infinite,,,0.", "infinite,,,0.1"))
    expect("a corrupted output fails its job",
           "census_exact" in failed_ids(check(exit_codes)))

    _, rc, _ = runner.cli(["cutsets", "enum", "--graph", "grid:1,1", "--vertex", "0",
                           "--nmax", "3"], work / "log" / "bad.log")
    expect("a bad invocation exits non-zero", rc != 0)
    problems = check({**exit_codes, "enum_6x6": rc})
    expect("a non-zero exit fails its job", problems["enum_6x6"][:1] == [f"exit code {rc}"])

    small = [job for job in jobs if job["id"] in ("enum_components_17", "cover_verify_11")]
    # 40 edges exceed the exact cap: the error is raised inside wrapped calls.
    small.append({"id": "raises", "fmt": "csv", "argv": ["perc", "theta", "--graph", "grid:5,5",
                                                         "--vertex", "12", "--p", "0.5", "--exact"]})
    record = run_worker(runner, small, traced=True)
    codes = {r["id"]: r["rc"] for r in record["jobs"]}
    expect("traced jobs keep their exit codes",
           codes == {"enum_components_17": 0, "cover_verify_11": 0, "raises": 1})
    nodes = record["nodes"]
    expect("spans nest and self times add up to each job span", check_tree(nodes) == [])
    expect("every self time is at least 0", all(n["self_ns"] >= 0 for n in nodes))
    expect("spans of the raising job are recorded",
           any(n["job"] == "raises" and n["name"] == "percolation.theta" for n in nodes))
    broken = copy.deepcopy(nodes)
    child = next(n for n in broken if n["parent"] is not None)
    child["last_ns"] = max(n["last_ns"] for n in broken) + 1
    expect("a span ending after its parent is reported", check_tree(broken) != [])

    runner.deadline = time.monotonic()
    metrics, attempted, failed, _, _ = measure(runner, jobs, check, 1)
    expect("jobs refused at the deadline fail", attempted == failed == len(jobs))
    expect("jobs refused at the deadline count as the whole deadline",
           metrics["wall_s"] == DEADLINE_S * len(jobs))

    runner.close()
    print(f"{failures} expectation(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
