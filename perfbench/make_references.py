"""Regenerate ``references.json``, the stored answers the checks compare against.

    python3 perfbench/make_references.py

Run from a checkout root.  Exact rows are stored as the CLI prints them;
the crossing matrix of the bulk workload; and, for each sampled job,
frequencies from a run with many more trials than the workload uses
(reference seed 0).  Takes about two minutes on 2 cores.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from checks import census_counts, canon_rows, read_output
from run import REFERENCES, Runner
from workloads import build_jobs, derive_seed

# job id -> reference trials, and how a row maps to a counted key.
SAMPLED = {
    "rw_census_5x5": (200_000, ("kind", "label", "edge_ids")),
    "rw_census_ladder": (50_000, ("kind", "label", "edge_ids")),
    "theta_mc_30x30": (200_000, None),
    "census_mc_4x4": (1_000_000, ("kind", "edge_ids")),
    "gff_pipeline_6x6": (400_000, ("event",)),
}


def run(runner: Runner, job: dict, argv: list[str]) -> dict:
    out = runner.work / f"{job['id']}.{job['fmt']}"
    _, rc, _ = runner.cli([*argv, "--output-file", str(out)], runner.work / "log.txt")
    if rc != 0:
        raise SystemExit(f"{job['id']} exited with {rc}")
    return read_output(out, job["fmt"])


def replace_flag(argv: list[str], flag: str, value) -> list[str]:
    argv = list(argv)
    argv[argv.index(flag) + 1] = str(value)
    return argv


def main() -> int:
    root = Path.cwd()
    work = Path(__file__).resolve().parent / "_work" / "references"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work)
    runner.deadline = time.monotonic() + 3600
    refs = {"exact": {}, "crossing": {}, "sampled": {}}

    for job in build_jobs("exact", 0, work / "inputs"):
        if "matrix" not in job:
            refs["exact"][job["id"]] = canon_rows(run(runner, job, job["argv"])["rows"])
            print("exact", job["id"], file=sys.stderr)

    crossing = next(j for j in build_jobs("bulk", 0, work / "inputs") if j["id"] == "crossing_7x7")
    refs["crossing"] = run(runner, crossing, crossing["argv"])["rows"][0]
    print("crossing", file=sys.stderr)

    for job in build_jobs("sampled", 0, work / "inputs"):
        if job["id"] not in SAMPLED:
            continue
        trials, key_fields = SAMPLED[job["id"]]
        argv = replace_flag(replace_flag(job["argv"], "--trials", trials), "--seed",
                            derive_seed(0, "reference"))
        rows = run(runner, job, argv)["rows"]
        if key_fields is None:
            counts = {"value": round(float(rows[0]["value"]) * trials)}
        else:
            counts = census_counts(rows, key_fields)
        refs["sampled"][job["id"]] = {"trials": trials,
                                      "freq": {k: c / trials for k, c in counts.items()}}
        print("sampled", job["id"], file=sys.stderr)

    runner.close()
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
