"""Output checks for every job of a pass.

``check_pass`` returns, per job id, the list of problems found; a job with
any problem counts as failed.  Three kinds of check:

* exact rows equal stored references at the CLI's 12 significant digits;
* identities between jobs of the same pass, and independent oracles
  (a product-chain sparse solve for covering sums, a Laplacian residual for
  Green matrices, networkx for cutset minimality and global minimum cuts);
* sampled counts are judged against a reference probability by a two-sided
  binomial tail test at 1e-7 per side, never bit for bit, so a reseeding
  that keeps the law passes.  A literal "99% interval contains the
  reference" rule would fail about one seed in a hundred per row.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

from workloads import grid_edges

TAIL = 1e-7
REL = 1e-9

# A CSV Green matrix is one cell of megabytes.
csv.field_size_limit(1 << 30)


def canon(v) -> str:
    """A value as the CLI prints it, at 12 significant digits."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return format(float(v), ".12g")
    if isinstance(v, list):
        return ";".join(canon(x) for x in v)
    try:
        return format(float(v), ".12g")
    except ValueError:
        return {"True": "true", "False": "false"}.get(v, v)


def canon_rows(rows: list[dict]) -> list[dict]:
    return [{k: canon(v) for k, v in row.items()} for row in rows]


def read_output(path: Path, fmt: str) -> dict:
    """The record a job wrote: ``rows`` plus ``wall_time_s``."""
    text = path.read_text()
    if fmt == "json":
        return json.loads(text)
    header = dict(
        line[2:].split("=", 1) for line in text.splitlines() if line.startswith("# ")
    )
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    rows = list(csv.DictReader(io.StringIO(body)))
    return {"wall_time_s": float(header["wall_time_s"]), "rows": rows}


def floats(v) -> list[float]:
    if isinstance(v, list):
        return [float(x) for x in np.ravel(np.array(v, dtype=float))]
    return [float(x) for x in v.split(";")] if v else []


def close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---- independent oracles ----


def grid_laplacian(width: int, height: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Interior ids, degrees and the interior block of D - A (outer ring absorbs)."""
    n = width * height
    interior = [v for v in range(n) if 0 < v % width < width - 1 and 0 < v // width < height - 1]
    index = {v: i for i, v in enumerate(interior)}
    deg = np.zeros(n)
    lap = np.zeros((len(interior), len(interior)))
    for u, v in grid_edges(width, height):
        deg[u] += 1
        deg[v] += 1
        if u in index and v in index:
            lap[index[u], index[v]] = lap[index[v], index[u]] = -1.0
    for v, i in index.items():
        lap[i, i] = deg[v]
    return interior, deg, lap


def covering_sum(p: np.ndarray) -> float:
    """P(chain from 0 visits every state, then returns to 0, before death).

    Solved on the product chain of (state, visited set) as one sparse
    system, a different route from the package's per-set recursion.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve

    n = p.shape[0]
    full = (1 << n) - 1
    sets = np.arange(1 << n)
    sets = sets[sets & 1 == 1]
    us = np.concatenate([np.full(int(((sets >> u) & 1).sum()), u) for u in range(n)])
    ms = np.concatenate([sets[(sets >> u) & 1 == 1] for u in range(n)])
    size = us.size
    index = np.full((n, 1 << n), -1)
    index[us, ms] = np.arange(size)
    rows, cols, vals = [], [], []
    rhs = np.zeros(size)
    for v in range(n):
        w = p[us, v]
        win = (ms == full) if v == 0 else np.zeros(size, dtype=bool)
        rhs += np.where(win, w, 0.0)
        keep = ~win & (w > 0)
        rows.append(np.nonzero(keep)[0])
        cols.append(index[v, (ms | (1 << v))[keep]])
        vals.append(w[keep])
    t = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(size, size)
    )
    f = spsolve((sp.identity(size, format="csr") - t).tocsc(), rhs)
    return float(f[index[0, 1]])


def min_split(p: np.ndarray) -> float:
    n = p.shape[0]
    masks = np.arange(1, (1 << n) - 1)
    inside = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
    return float(((inside @ p) * (1.0 - inside)).sum(axis=1).min())


def load_matrix(path: str) -> np.ndarray:
    lines = Path(path).read_text().split("\n")
    n = int(lines[0])
    return np.array([[float(x) for x in ln.split()] for ln in lines[1 : n + 1]])


def _nx_grid(width: int, height: int):
    import networkx as nx

    g = nx.MultiGraph()
    g.add_nodes_from(range(width * height))
    for eid, (u, v) in enumerate(grid_edges(width, height)):
        g.add_edge(u, v, key=eid)
    return g


def minimal_cutset(width: int, height: int, ids: list[int], origin: int,
                   horizon: list[int] | None = None) -> bool:
    """Does removing ``ids`` strand ``origin`` from the horizon, with no edge to spare?

    The horizon is the outer ring unless ``horizon`` lists its vertices.
    """
    import networkx as nx

    g = _nx_grid(width, height)
    edges = grid_edges(width, height)
    ring = horizon if horizon is not None else \
        {v for v in g if not (0 < v % width < width - 1 and 0 < v // width < height - 1)}
    for v in ring:
        g.add_edge(v, "H", key=-1 - v)
    g.remove_edges_from((*edges[e], e) for e in ids)
    side = nx.node_connected_component(g, origin)
    if "H" in side:
        return False
    escaping = nx.node_connected_component(g, "H")
    # Minimal: every removed edge joins the origin's side to the horizon's.
    return all((edges[e][0] in side and edges[e][1] in escaping)
               or (edges[e][1] in side and edges[e][0] in escaping) for e in ids)


def global_min_cuts(width: int, height: int) -> tuple[int, int]:
    """(size, number) of minimum edge cuts of the grid, ignoring the horizon."""
    import networkx as nx

    g = nx.Graph(grid_edges(width, height))
    size = int(nx.stoer_wagner(g)[0])
    edges = list(g.edges)
    count = 0
    for combo in itertools.combinations(edges, size):
        h = g.copy()
        h.remove_edges_from(combo)
        count += not nx.is_connected(h)
    return size, count


def tail_ok(count: int, trials: int, p_low: float, p_high: float) -> bool:
    """Is ``count`` of ``trials`` plausible for some probability in [p_low, p_high]?"""
    from scipy.stats import binom

    upper_tail = binom.sf(count - 1, trials, min(p_high, 1.0))
    lower_tail = binom.cdf(count, trials, max(p_low, 0.0))
    return upper_tail >= TAIL and lower_tail >= TAIL


def ref_band(freq: float, trials: int) -> tuple[float, float]:
    """A 5-sigma Wilson band around a reference frequency from ``trials`` draws."""
    z2 = 25.0
    centre = (freq + z2 / (2 * trials)) / (1 + z2 / trials)
    half = math.sqrt(freq * (1 - freq) / trials + z2 / (4 * trials * trials)) * 5.0 / (1 + z2 / trials)
    return max(0.0, centre - half), min(1.0, centre + half)


def compare_counts(counts: dict[str, int], trials: int, ref: dict) -> list[str]:
    problems = []
    for key in sorted(set(counts) | set(ref["freq"])):
        lo, hi = ref_band(ref["freq"].get(key, 0.0), ref["trials"])
        if not tail_ok(counts.get(key, 0), trials, lo, hi):
            problems.append(f"{key}: {counts.get(key, 0)} of {trials} against reference "
                            f"{ref['freq'].get(key, 0.0):.6g}")
    return problems


# ---- per-workload checks ----


def _exact(jobs, recs, refs) -> dict[str, list[str]]:
    bad = {job["id"]: [] for job in jobs}
    for job_id, rows in refs["exact"].items():
        if job_id in recs and canon_rows(recs[job_id]["rows"]) != rows:
            bad[job_id].append("rows differ from the stored reference")
    census = canon_rows(recs["census_exact"]["rows"])
    total = sum(float(r["probability"]) for r in census)
    if not close(total, 1.0):
        bad["census_exact"].append(f"census probabilities sum to {total}")
    infinite = [r["probability"] for r in census if r["kind"] == "infinite"]
    if infinite != [canon(recs["theta_exact_17"]["rows"][0]["value"])]:
        bad["theta_exact_17"].append("theta differs from the census infinite row")
    if canon_rows(recs["enum_brute_17"]["rows"]) != canon_rows(recs["enum_components_17"]["rows"]):
        bad["enum_components_17"].append("component route differs from the powerset route")
    peierls = recs["peierls_6x6"]["rows"][0]
    p = float(peierls["p"])
    union = sum(int(r["count"]) * (1 - p) ** int(r["n"]) for r in recs["enum_6x6"]["rows"])
    if not close(float(peierls["bound"]), union):
        bad["peierls_6x6"].append(f"bound {peierls['bound']} != sum over cutsets {union}")
    for job in jobs:
        if "matrix" in job:
            bad[job["id"]] += _cover_exact(job, recs[job["id"]]["rows"][0])
    return bad


def _cover_exact(job, row) -> list[str]:
    p = load_matrix(job["matrix"])
    problems = []
    want = covering_sum(p)
    if not close(row["sum"], want, 1e-8):
        problems.append(f"covering sum {row['sum']} != product-chain solve {want}")
    eps = min_split(p)
    if not close(row["epsilon"], eps):
        problems.append(f"epsilon {row['epsilon']} != {eps}")
    delta = (eps * eps / (16 * math.e**2)) ** p.shape[0]
    if not close(row["delta_n"], delta):
        problems.append(f"delta_n {row['delta_n']} != {delta}")
    if "ok" in row and row["ok"] is not True:
        problems.append("verify did not report ok")
    return problems


def census_counts(rows, key_fields) -> dict[str, int]:
    return {":".join(canon(r[f]) for f in key_fields): int(r["count"]) for r in rows}


def _rw_census(rec, job, trials, ref) -> list[str]:
    width, height, origin, horizon = job["census"]
    rows = rec["rows"]
    problems = []
    outcomes = {r["label"]: int(r["count"]) for r in rows if r["kind"] == "outcome"}
    cutsets = [r for r in rows if r["kind"] == "cutset"]
    if sum(outcomes.values()) != trials:
        problems.append(f"outcome counts sum to {sum(outcomes.values())}, not {trials}")
    if sum(int(r["count"]) for r in cutsets) != outcomes.get("decoded"):
        problems.append("cutset counts do not sum to the decoded count")
    for r in cutsets:
        if not minimal_cutset(width, height, [int(x) for x in r["edge_ids"].split(";")], origin,
                              horizon):
            problems.append(f"decoded cutset {r['edge_ids']} is not minimal")
    counts = census_counts(rows, ("kind", "label", "edge_ids"))
    return problems + compare_counts(counts, trials, ref)


def _sampled(jobs, recs, refs) -> dict[str, list[str]]:
    bad = {job["id"]: [] for job in jobs}
    ref = refs["sampled"]
    trials = {job["id"]: int(job["argv"][job["argv"].index("--trials") + 1])
              for job in jobs if "--trials" in job["argv"]}
    for job in jobs:
        if "census" in job:
            bad[job["id"]] += _rw_census(recs[job["id"]], job, trials[job["id"]], ref[job["id"]])

    row = recs["theta_mc_30x30"]["rows"][0]
    n = trials["theta_mc_30x30"]
    if not float(row["ci_low"]) <= float(row["value"]) <= float(row["ci_high"]):
        bad["theta_mc_30x30"].append("value outside its own interval")
    bad["theta_mc_30x30"] += compare_counts({"value": round(float(row["value"]) * n)}, n,
                                            ref["theta_mc_30x30"])

    rows = recs["census_mc_4x4"]["rows"]
    n = trials["census_mc_4x4"]
    if sum(int(r["count"]) for r in rows) != n:
        bad["census_mc_4x4"].append("census counts do not sum to the trial count")
    bad["census_mc_4x4"] += compare_counts(census_counts(rows, ("kind", "edge_ids")), n,
                                           ref["census_mc_4x4"])

    events = {r["event"]: int(r["count"]) for r in recs["gff_pipeline_6x6"]["rows"]}
    if not events["clamp_and_connect"] <= min(events["clamp"], events["connect"], events["boundary_match"]):
        bad["gff_pipeline_6x6"].append("clamp_and_connect exceeds one of its parts")
    bad["gff_pipeline_6x6"] += compare_counts(events, trials["gff_pipeline_6x6"],
                                              ref["gff_pipeline_6x6"])

    exact_row = recs["cover_exact_10"]["rows"][0]
    bad["cover_exact_10"] += _cover_exact(next(j for j in jobs if j["id"] == "cover_exact_10"), exact_row)
    mc = recs["cover_mc_10"]["rows"][0]
    if mc["aborted"] != 0:
        bad["cover_mc_10"].append(f"{mc['aborted']} aborted trials")
    exact = float(exact_row["sum"])
    if not tail_ok(round(mc["sum"] * mc["trials"]), mc["trials"], exact, exact):
        bad["cover_mc_10"].append(f"estimate {mc['sum']} implausible for exact sum {exact}")

    karger = recs["karger_5x5"]["rows"][0]
    want = global_min_cuts(5, 5)
    if (karger["min_cut_size"], karger["distinct_min_cuts"]) != want:
        bad["karger_5x5"].append(f"found {karger}, networkx gives (size, count) {want}")
    return bad


def _green(rec, width) -> list[str]:
    row = rec["rows"][0]
    interior, deg, lap = grid_laplacian(width, width)
    if [int(v) for v in floats(row["interior"])] != interior:
        return ["interior vertex list is wrong"]
    g = np.array(floats(row["matrix"])).reshape(len(interior), len(interior))
    residual = float(np.max(np.abs(lap @ g - np.eye(len(interior)))))
    return [] if residual <= 1e-8 else [f"(D - A) G - I residual {residual:.3e}"]


def _escape(rec, width) -> list[str]:
    interior, deg, lap = grid_laplacian(width, width)
    diag = np.diag(np.linalg.inv(lap))
    escape = {v: 1.0 / (deg[v] * diag[i]) for i, v in enumerate(interior)}
    constant = min(deg[v] * e for v, e in escape.items())
    problems = []
    rows = rec["rows"]
    if [int(r["vertex"]) for r in rows] != interior:
        problems.append("vertex list is wrong")
    for r in rows:
        v = int(r["vertex"])
        if not (close(float(r["escape"]), escape.get(v, -1.0))
                and close(float(r["weighted"]), deg[v] * escape.get(v, -1.0))
                and close(float(r["constant"]), constant)):
            problems.append(f"escape row for vertex {v} disagrees with the Laplacian solve")
            break
    return problems


def _bulk(jobs, recs, refs) -> dict[str, list[str]]:
    bad = {job["id"]: [] for job in jobs}
    bad["green_30x30"] += _green(recs["green_30x30"], 30)
    bad["green_24x24_csv"] += _green(recs["green_24x24_csv"], 24)
    bad["green_10x10"] += _green(recs["green_10x10"], 10)
    bad["escape_30x30"] += _escape(recs["escape_30x30"], 30)
    row = recs["crossing_7x7"]["rows"][0]
    want = refs["crossing"]
    got = np.array(row["matrix"], dtype=float)
    if (row["vertices"] != want["vertices"]
            or not all(close(row[k], want[k]) for k in ("eps_base", "eps1", "eps2", "min_cut"))
            or not np.allclose(got, np.array(want["matrix"]), rtol=REL, atol=REL)):
        bad["crossing_7x7"].append("crossing matrix differs from the stored reference")
    if not np.allclose(got, got.T, atol=1e-9) or got.sum(axis=1).max() > 1 + 1e-9:
        bad["crossing_7x7"].append("crossing matrix is not symmetric sub-stochastic")
    return bad


CHECKS = {"exact": _exact, "sampled": _sampled, "bulk": _bulk}


def check_pass(workload: str, jobs: list[dict], outputs: dict[str, Path], refs: dict) -> dict[str, list[str]]:
    """Problems per job id; unreadable or missing output is itself a problem."""
    recs, bad = {}, {}
    for job in jobs:
        try:
            recs[job["id"]] = read_output(outputs[job["id"]], job["fmt"])
        except (OSError, ValueError, KeyError, csv.Error) as exc:
            bad[job["id"]] = [f"unreadable output: {exc}"]
    if bad:
        return {job["id"]: bad.get(job["id"], ["another job of the pass has no output"]) for job in jobs}
    try:
        return CHECKS[workload](jobs, recs, refs)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return {job["id"]: [f"malformed output: {exc!r}"] for job in jobs}
