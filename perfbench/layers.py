"""Per-layer metrics from a traced pass: the calling-context tree and counters.

``incl`` is the time spent inside any of the named functions, counting a
call nested in another named call once.  Self times are per layer: a node's
total minus what its children covered.
"""

from __future__ import annotations

from tracer import LAYERS

NS = 1e-9

# name -> (unit, better); the order is the order printed.
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in (*LAYERS, "trace")},
    "graph_core.subsets": ("count", "lower"),
    "graph_core.subsets_s": ("s", "lower"),
    "graph_core.reach_calls": ("count", "lower"),
    "graph_core.reach_s": ("s", "lower"),
    "graph_core.build_s": ("s", "lower"),
    "cutsets.enum_s": ("s", "lower"),
    "cutsets.found": ("count", "higher"),
    "cutsets.yield": ("1", "higher"),
    "cutsets.exposed_calls": ("count", "lower"),
    "cutsets.exposed_s": ("s", "lower"),
    "cutsets.minimal_calls": ("count", "lower"),
    "cutsets.minimal_s": ("s", "lower"),
    "cutsets.karger_s": ("s", "lower"),
    "percolation.configs": ("count", "lower"),
    "percolation.cluster_calls": ("count", "lower"),
    "percolation.cluster_s": ("s", "lower"),
    "percolation.sweep_s": ("s", "lower"),
    "percolation.mc_s": ("s", "lower"),
    "fkg_chain.oracle_configs": ("count", "lower"),
    "fkg_chain.oracle_s": ("s", "lower"),
    "fkg_chain.queries": ("count", "lower"),
    "fkg_chain.chain_s": ("s", "lower"),
    "cover_lemma.dp_masks": ("count", "lower"),
    "cover_lemma.dp_s": ("s", "lower"),
    "cover_lemma.min_cut_s": ("s", "lower"),
    "cover_lemma.mc_trials": ("count", "higher"),
    "cover_lemma.mc_s": ("s", "lower"),
    "rw_cutsets.walks": ("count", "higher"),
    "rw_cutsets.steps": ("count", "lower"),
    "rw_cutsets.walk_s": ("s", "lower"),
    "rw_cutsets.decode_s": ("s", "lower"),
    "rw_cutsets.distinct_ranges": ("count", "lower"),
    "rw_cutsets.range_reuse": ("1", "higher"),
    "rw_cutsets.decoded_ratio": ("1", "lower"),
    "rw_cutsets.solve_s": ("s", "lower"),
    "gff.green_s": ("s", "lower"),
    "gff.green_check_s": ("s", "lower"),
    "gff.factor_s": ("s", "lower"),
    "gff.fields": ("count", "higher"),
    "gff.sample_s": ("s", "lower"),
    "gff.scan_s": ("s", "lower"),
    "util.solves": ("count", "lower"),
    "util.solve_s": ("s", "lower"),
    "util.residual_max": ("1", "lower"),
    "cli.handler_s": ("s", "lower"),
    "cli.overhead_s": ("s", "lower"),
    "cli.emit_s": ("s", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

BUILD = ("graph_core.Graph.__post_init__", "graph_core.subdivide", "graph_core.grid_graph",
         "graph_core.path_graph", "graph_core.cycle_graph", "graph_core.box3d_graph",
         "graph_core.star_graph", "graph_core.load_graph", "graph_core.contract_subdivision")
REACH = ("graph_core.horizon_reachable_within", "graph_core.connected_in")
CLUSTER = ("percolation.cluster_report", "percolation.config_connects")
RW_SOLVE = ("rw_cutsets.fundamental_matrix", "rw_cutsets.escape_probabilities",
            "rw_cutsets.crossing_matrix", "rw_cutsets.subdivision_escape_check")


class Tree:
    def __init__(self, nodes: list[dict]):
        self.nodes = nodes
        self.by_id = {n["id"]: n for n in nodes}

    def ancestors(self, node: dict):
        parent = node["parent"]
        while parent is not None:
            node = self.by_id[parent]
            yield node
            parent = node["parent"]

    def incl(self, *names: str, within: str | None = None) -> float:
        total = 0
        for n in self.nodes:
            if n["name"] in names:
                above = {a["name"] for a in self.ancestors(n)}
                if not above & set(names) and (within is None or within in above):
                    total += n["total_ns"]
        return total * NS

    def count(self, *names: str, parent: str | None = None) -> int:
        return sum(n["count"] for n in self.nodes if n["name"] in names
                   and (parent is None or self.by_id[n["parent"]]["name"] == parent))

    def self_s(self, layer: str) -> float:
        return sum(n["self_ns"] for n in self.nodes if n["layer"] == layer) * NS


def summarize(nodes: list[dict], counters: dict) -> dict[str, float]:
    """Every traced per-layer metric; the ``cli`` process metrics come from elsewhere."""
    t = Tree(nodes)
    c = counters.get
    m = {f"{layer}.self_s": t.self_s(layer) for layer in (*LAYERS, "trace")}
    subsets = c("graph_core.connected_subsets_containing.yields", 0)
    walks = t.count("rw_cutsets.sample_walk")
    distinct = c("rw_cutsets.distinct_ranges", 0)
    m.update({
        "graph_core.subsets": subsets,
        "graph_core.subsets_s": t.incl("graph_core.connected_subsets_containing"),
        "graph_core.reach_calls": t.count(*REACH),
        "graph_core.reach_s": t.incl(*REACH),
        "graph_core.build_s": t.incl(*BUILD),
        "cutsets.enum_s": t.incl("cutsets.enumerate_minimal_cutsets_bruteforce",
                                 "cutsets.enumerate_minimal_cutsets_by_components"),
        "cutsets.found": c("cutsets.found", 0),
        "cutsets.yield": c("cutsets.found", 0) / subsets if subsets else 0.0,
        "cutsets.exposed_calls": t.count("cutsets.exposed_boundary"),
        "cutsets.exposed_s": t.incl("cutsets.exposed_boundary"),
        "cutsets.minimal_calls": t.count("cutsets.is_minimal_cutset"),
        "cutsets.minimal_s": t.incl("cutsets.is_minimal_cutset"),
        "cutsets.karger_s": t.incl("cutsets.karger_count_min_cuts"),
        "percolation.configs": c("percolation.configs", 0),
        "percolation.cluster_calls": t.count(*CLUSTER),
        "percolation.cluster_s": t.incl(*CLUSTER),
        "percolation.sweep_s": t.incl("percolation.event_popcount_profile",
                                      "percolation.boundary_census_exact"),
        "percolation.mc_s": t.incl("percolation.mc_prob", "percolation.boundary_census_mc"),
        "fkg_chain.oracle_configs": c("fkg_chain.oracle_configs", 0),
        "fkg_chain.oracle_s": t.incl("fkg_chain.ConnectivityOracle.__init__"),
        "fkg_chain.queries": t.count("fkg_chain.ConnectivityOracle.connect_prob",
                                     "fkg_chain.ConnectivityOracle.all_connected_prob"),
        "fkg_chain.chain_s": t.incl("fkg_chain.build_chain"),
        "cover_lemma.dp_masks": c("cover_lemma.dp_masks", 0),
        "cover_lemma.dp_s": t.incl("cover_lemma.covering_sum_exact"),
        "cover_lemma.min_cut_s": t.incl("cover_lemma.min_cut"),
        "cover_lemma.mc_trials": c("cover_lemma.mc_trials", 0),
        "cover_lemma.mc_s": t.incl("cover_lemma.covering_sum_mc"),
        "rw_cutsets.walks": walks,
        "rw_cutsets.steps": c("rw_cutsets.steps", 0),
        "rw_cutsets.walk_s": t.incl("rw_cutsets.sample_walk"),
        "rw_cutsets.decode_s": t.incl("rw_cutsets.sample_cluster_boundary")
        - t.incl("rw_cutsets.sample_walk", within="rw_cutsets.sample_cluster_boundary"),
        "rw_cutsets.distinct_ranges": distinct,
        "rw_cutsets.range_reuse": 1 - distinct / walks if walks else 0.0,
        "rw_cutsets.decoded_ratio": t.count("cutsets.exposed_boundary",
                                            parent="rw_cutsets.sample_cluster_boundary") / walks
        if walks else 0.0,
        "rw_cutsets.solve_s": t.incl(*RW_SOLVE),
        "gff.green_s": t.incl("gff.green"),
        "gff.green_check_s": t.incl("rw_cutsets.escape_probabilities", within="gff.green"),
        "gff.factor_s": t.incl("gff.GreenMatrix.__init__"),
        "gff.fields": c("gff.fields", 0),
        "gff.sample_s": t.incl("gff.GreenMatrix.sample_block", "gff.sample_field"),
        "gff.scan_s": sum(n["self_ns"] for n in nodes if n["name"] == "gff.section8_pipeline") * NS,
        "util.solves": t.count("util.checked_solve"),
        "util.solve_s": t.incl("util.checked_solve"),
        "util.residual_max": c("util.residual_max", 0.0),
        "cli.emit_s": t.incl("cli._emit"),
    })
    return m


def census_reuse(nodes: list[dict], counters: dict) -> dict[str, dict[str, float]]:
    """Walks, distinct ranges, range reuse and decoded ratio of each job that walks."""
    t = Tree(nodes)
    per_job: dict[str, dict[str, float]] = {}
    for n in nodes:
        walked = n["name"] == "rw_cutsets.sample_walk"
        decoded = (n["name"] == "cutsets.exposed_boundary"
                   and t.by_id[n["parent"]]["name"] == "rw_cutsets.sample_cluster_boundary")
        if walked or decoded:
            job = per_job.setdefault(n["job"], {"walks": 0, "decoded": 0})
            job["walks" if walked else "decoded"] += n["count"]
    for job_id, job in per_job.items():
        distinct = counters.get(f"rw_cutsets.distinct_ranges@{job_id}", 0)
        job.update({"distinct_ranges": distinct, "range_reuse": 1 - distinct / job["walks"],
                    "decoded_ratio": job.pop("decoded") / job["walks"]})
    return per_job


def check_tree(nodes: list[dict]) -> list[str]:
    """Spans nest, self times are non-negative and add up to each job span."""
    problems = []
    t = Tree(nodes)
    roots = {n["id"]: 0 for n in nodes if n["parent"] is None}
    for n in nodes:
        if n["self_ns"] < 0 or n["count"] < 1:
            problems.append(f"{n['name']}: self {n['self_ns']} ns over {n['count']} calls")
        if n["parent"] is not None:
            p = t.by_id[n["parent"]]
            if n["first_ns"] < p["first_ns"] or n["last_ns"] > p["last_ns"] or n["job"] != p["job"]:
                problems.append(f"{n['name']} is not inside its parent {p['name']}")
        root = n if n["parent"] is None else list(t.ancestors(n))[-1]
        roots[root["id"]] += n["self_ns"]
    for rid, self_sum in roots.items():
        if self_sum != t.by_id[rid]["total_ns"]:
            problems.append(f"job {t.by_id[rid]['job']}: self times {self_sum} ns != span "
                            f"{t.by_id[rid]['total_ns']} ns")
    return problems
