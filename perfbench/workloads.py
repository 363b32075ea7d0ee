"""The three workloads: fixed lists of ``percut`` CLI jobs built from a seed.

A job is a dict with an ``id``, the CLI arguments after ``percut``, the
output format and, for seeded inputs, the generated files it reads.  The
same workload seed always yields the same jobs and the same files.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

WORKLOADS = ("exact", "sampled", "bulk")

# The crossing job's origin on grid:7,7; the 12 edges leaving the 3x3 block
# around it are its cutset.
CROSSING_ORIGIN = 24


def derive_seed(seed: int, name: str) -> int:
    """A 63-bit seed for one job, from the workload seed and the job id."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def cover_matrix(n: int, seed: int) -> np.ndarray:
    """Symmetric, zero diagonal, every entry positive, row sums at most 0.97."""
    rng = np.random.default_rng(derive_seed(seed, f"matrix{n}"))
    w = np.triu(rng.random((n, n)) + 0.2, 1)
    w = w + w.T
    return w * (0.97 / w.sum(axis=1).max())


def write_matrix(path: Path, p: np.ndarray) -> None:
    lines = [str(p.shape[0])] + [" ".join(repr(float(x)) for x in row) for row in p]
    path.write_text("\n".join(lines) + "\n")


def block_cutset(width: int, center: int) -> list[int]:
    """Edge ids leaving the 3x3 block around ``center`` of a width x width grid."""
    block = {center + dy * width + dx for dy in (-1, 0, 1) for dx in (-1, 0, 1)}
    ids = []
    for eid, (u, v) in enumerate(grid_edges(width, width)):
        if (u in block) != (v in block):
            ids.append(eid)
    return ids


def grid_edges(width: int, height: int) -> list[tuple[int, int]]:
    """Row-major grid edges in the package's id order (right, then down)."""
    edges = []
    for y in range(height):
        for x in range(width):
            v = y * width + x
            if x + 1 < width:
                edges.append((v, v + 1))
            if y + 1 < height:
                edges.append((v, v + width))
    return edges


def _job(job_id: str, argv: str, fmt: str, **extra) -> dict:
    return {"id": job_id, "argv": argv.split(), "fmt": fmt, **extra}


def _exact(seed: int, inputs: Path) -> list[dict]:
    m12, m11 = inputs / "cover12.txt", inputs / "cover11.txt"
    write_matrix(m12, cover_matrix(12, seed))
    write_matrix(m11, cover_matrix(11, seed))
    g17 = "--graph grid:3,4 --horizon 0,11"
    region = "1,2,3,4,5,6,7,8,9,10,11"
    return [
        _job("census_exact", f"perc census {g17} --vertex 5 --p 0.5 --exact", "csv"),
        _job("theta_exact_17", f"perc theta {g17} --vertex 5 --p 0.5 --exact", "csv"),
        _job("theta_exact_19", "perc theta --graph grid:2,7 --horizon 0,13 --vertex 6 --p 0.5 --exact", "csv"),
        _job("enum_7x6", "cutsets enum --graph grid:7,6 --vertex 24 --nmax 12", "csv"),
        _job("enum_brute_17", f"cutsets enum {g17} --vertex 5 --nmax 17 --algo brute", "csv"),
        _job("enum_components_17", f"cutsets enum {g17} --vertex 5 --nmax 17", "csv"),
        _job("peierls_6x6", "perc peierls --graph grid:6,6 --vertex 14 --p 0.7 --nmax 12", "csv"),
        _job("enum_6x6", "cutsets enum --graph grid:6,6 --vertex 14 --nmax 12", "csv"),
        _job("chain_exact", f"chain build {g17} --setA {region} --setB {region} --origin 1 --p 0.3 --exact", "json"),
        _job("cover_exact_12", f"cover exact --matrix {m12}", "json", matrix=str(m12)),
        _job("cover_verify_11", f"cover verify --matrix {m11}", "json", matrix=str(m11)),
    ]


def _sampled(seed: int, inputs: Path) -> list[dict]:
    m10 = inputs / "cover10.txt"
    write_matrix(m10, cover_matrix(10, seed))

    def s(name: str) -> int:
        return derive_seed(seed, name)

    # Walk ranges repeat often on the small grid and seldom on the long ladder,
    # whose far horizon makes most walks return to the start many times.
    return [
        _job("rw_census_5x5", f"rw census --graph grid:5,5 --origin 12 --trials 20000 --seed {s('rw5')}",
             "csv", census=[5, 5, 12, None]),
        _job("rw_census_ladder", "rw census --graph grid:30,2 --horizon 0,29,30,59 --origin 15 "
             f"--trials 2500 --seed {s('ladder')}", "csv", census=[30, 2, 15, [0, 29, 30, 59]]),
        _job("theta_mc_30x30", f"perc theta --graph grid:30,30 --vertex 465 --p 0.6 --trials 20000 --seed {s('theta')}", "csv"),
        _job("census_mc_4x4", f"perc census --graph grid:4,4 --vertex 5 --p 0.6 --trials 50000 --seed {s('census')}", "csv"),
        _job("gff_pipeline_6x6", f"gff pipeline --graph grid:6,6 --origin 20 --cutset 27,35,37,38 --trials 20000 --seed {s('gff')}", "csv"),
        _job("cover_exact_10", f"cover exact --matrix {m10}", "json", matrix=str(m10)),
        _job("cover_mc_10", f"cover mc --matrix {m10} --trials 200000 --seed {s('cover')}", "json", matrix=str(m10)),
        _job("karger_5x5", f"cutsets karger --graph grid:5,5 --seed {s('karger')}", "json"),
    ]


def _bulk(seed: int, inputs: Path) -> list[dict]:
    cutset = ",".join(map(str, block_cutset(7, CROSSING_ORIGIN)))
    return [
        _job("green_30x30", "gff green --graph grid:30,30", "json"),
        _job("green_24x24_csv", "gff green --graph grid:24,24 --out csv", "csv"),
        _job("escape_30x30", "rw escape --graph grid:30,30", "csv"),
        _job("crossing_7x7", f"rw crossing --graph grid:7,7 --origin {CROSSING_ORIGIN} --cutset {cutset}", "json"),
        _job("green_10x10", "gff green --graph grid:10,10", "json"),
    ]


def build_jobs(workload: str, seed: int, inputs: Path) -> list[dict]:
    """The workload's jobs; writes any generated input files under ``inputs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    return {"exact": _exact, "sampled": _sampled, "bulk": _bulk}[workload](seed, inputs)
