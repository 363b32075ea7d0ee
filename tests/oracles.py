"""Independent routes and checks that only the tests run.

No command reaches anything here.  Each definition is an oracle a
command's route is checked against (the one-at-a-time search, exposed
boundary and minimality test, the min-label component labeller, the
chain oracle's column-gather queries and sweep weights, the
configuration sweep, the component walk over cutsets, the
subset-at-a-time cutset and cover-lemma sweeps, the one-step walk, the
per-sample field pipeline, the explicit cover-and-return enumeration, the
whole-matrix solve, band recurrence, Green matrix and Green certificate,
and the CSV writer), a traced memory peak,
or a check of one step of the paper's argument (the closed-ring and strong percolation bounds, the two-tree
Eulerian construction, the subdivision escape floors, the free-field
endpoints).  Every 2^m configuration sweep goes through
``event_popcount_profile`` under ``_util.SWEEP_EDGES``.
"""

from __future__ import annotations

import csv
import dataclasses
import gc
import itertools
import math
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import AbstractSet, Callable, Iterable, Iterator, Sequence

import numpy as np

from percut import _util
from percut.cli import _csv_value
from percut._util import EventProbability, _check_p, _derived_seeds, check_sweep, checked_solve
from percut.cover_lemma import SubStochasticMatrix, _positive_adjacency, _reaches
from percut.cutsets import (
    Cutset, KargerResult, QnTable, _pack_table, _require_cutset_context, decompose,
)
from percut.errors import (
    CapExceededError, GraphStructureError, PreconditionError, TheoremViolationError,
)
from percut.fkg_chain import ConnectivityOracle, fkg_lower_bound
from percut.gff import (
    GreenMatrix, Section8Report, _field_blocks, _green_check, cutset_frame, green,
    section8_pipeline,
)
from percut.graph_core import (
    Graph, SubdivisionMap, UnionFind, boundary_edges, connected_subsets_containing, set_weight,
)
from percut.percolation import boundary_census_exact, profile_probability
from percut.rw_cutsets import (
    ABORTED, DECODED, NON_MIDPOINT, NOT_MINIMAL, _BandFactor, _decode, escape_constant,
    escape_probabilities, origin_midpoint,
)

# Most connected sets the component walk may visit before it gives up.
MAX_SUBSETS = 2_000_000
# Largest connected set the strong percolation experiment prices.
STRONG_SET_SIZE = 6
# Most states the explicit sequence enumeration accepts.
MAX_ENUM_STATES = 4


def derive_seed(seed: int, index: int) -> int:
    """Trial ``index``'s 64-bit seed, the one ``_util.trial_generators`` uses."""
    return int(_derived_seeds(seed, index, index + 1)[0])


# ---- one search at a time ----


def search(
    graph: Graph,
    sources: Iterable[int],
    is_open: Sequence[bool] | None = None,
    avoid: AbstractSet[int] = frozenset(),
    stop_at_horizon: bool = False,
) -> tuple[set[int], bool]:
    """Vertices reached from ``sources``, and whether the horizon was touched.

    ``graph_core.flood`` for one trial, on sets: the reference it is
    checked against.  The search never crosses an edge whose
    ``is_open[eid]`` is false (with ``is_open`` None every edge is open)
    and never enters a vertex of ``avoid``.  Horizon vertices absorb:
    reaching one sets ``touched`` but the vertex is neither expanded nor
    returned, and with ``stop_at_horizon`` the search ends there,
    returning the part reached so far.  The sources are always reached
    and expanded.
    """
    horizon = graph.horizon
    adjacency = graph.adjacency
    reached = set(sources)
    stack = list(reached)
    touched = False
    while stack:
        for w, eid in adjacency[stack.pop()]:
            if w in reached or w in avoid or (is_open is not None and not is_open[eid]):
                continue
            if w in horizon:
                if stop_at_horizon:
                    return reached, True
                touched = True
            else:
                reached.add(w)
                stack.append(w)
    return reached, touched


def exposed_boundary_by_search(graph: Graph, s: Iterable[int]) -> tuple[int, ...]:
    """``cutsets.exposed_boundary``, scanning only the edges around ``s``.

    Each outside endpoint not yet classified gets one search that avoids
    ``s`` and stops at the horizon, and everything that search reached
    shares its verdict.
    """
    inside = set(s)
    horizon = graph.horizon
    if inside & horizon:
        raise PreconditionError("set under study intersects the horizon")
    escapes: dict[int, bool] = {}
    out = []
    for u in inside:
        if not 0 <= u < graph.n_vertices:
            continue  # not a vertex, so no edge leaves it
        for w, eid in graph.adjacency[u]:
            if w in inside:
                continue
            escape = escapes.get(w)
            if escape is None:
                if w in horizon:
                    escape = True
                else:
                    reached, escape = search(graph, (w,), avoid=inside, stop_at_horizon=True)
                    escapes.update(dict.fromkeys(reached, escape))
            if escape:
                out.append(eid)
    return tuple(sorted(out))


def is_minimal_cutset_by_edges(graph: Graph, edge_ids: Iterable[int], v: int) -> bool:
    """``cutsets.is_minimal_cutset``, one search per edge put back."""
    _require_cutset_context(graph, v)
    removed = frozenset(edge_ids)
    m = graph.n_edges
    if not all(0 <= eid < m for eid in removed):
        return False  # an edge the graph lacks is never needed to strand v
    is_open = [eid not in removed for eid in range(m)]
    # Removing the set strands v, and putting back any one edge frees it.
    if search(graph, (v,), is_open, stop_at_horizon=True)[1]:
        return False
    for eid in removed:
        is_open[eid] = True
        freed = search(graph, (v,), is_open, stop_at_horizon=True)[1]
        is_open[eid] = False
        if not freed:
            return False
    return True


def component_labels(
    k: int, ends: Sequence[tuple[int, int]], open_rows: np.ndarray
) -> np.ndarray:
    """Component labels of vertices 0..k-1 under many edge configurations.

    ``ends[i]`` holds the endpoints of edge i, and row r of the bool
    matrix ``open_rows`` marks the edges open in configuration r.  Entry
    (r, x) of the result is the smallest vertex in x's open component,
    found for all rows at once by passing minimum labels along open
    edges until no edge changes one: the reference that
    ``fkg_chain.ConnectivityOracle``'s flood labels are checked against.
    """
    open_cols = np.ascontiguousarray(np.asarray(open_rows, dtype=bool).T)
    labels = np.repeat(np.arange(k, dtype=np.int16)[:, None], open_cols.shape[1], axis=1)
    changed = True
    while changed:
        changed = False
        for (a, b), is_open in zip(ends, open_cols):
            la, lb = labels[a], labels[b]
            stale = is_open & (la != lb)
            if stale.any():
                low = np.minimum(la, lb)
                np.copyto(la, low, where=stale)
                np.copyto(lb, low, where=stale)
                changed = True
    return labels.T


def sweep_weights(m: int, p: float) -> np.ndarray:
    """p^|x| (1 - p)^(m - |x|) for every configuration x of m edges, in sweep order.

    The power runs over every configuration's open-edge count, taken from
    a uint64 ``arange``: the rule ``ConnectivityOracle``'s table of m + 1
    weights is checked against, bit for bit.
    """
    pop = np.bitwise_count(np.arange(1 << m, dtype=np.uint64))
    return p**pop * (1.0 - p) ** (m - pop)


def gathered_query(
    labels: np.ndarray, weights: np.ndarray, u: int, targets: Iterable[int], every: bool
) -> float:
    """The weight of the rows where column u's label equals any (or every) target column's.

    The target columns are gathered into one block and compared with u's
    at once: the rule ``ConnectivityOracle.connect_prob`` (any) and
    ``all_connected_prob`` (every) are checked against, bit for bit.
    """
    hit = labels[:, sorted(targets)] == labels[:, [u]]
    return float(weights @ (hit.all(axis=1) if every else hit.any(axis=1)))


# ---- graphs: text, subdivisions, isoperimetry ----


def dump_graph(graph: Graph) -> str:
    lines = [f"v {graph.n_vertices}"]
    if graph.horizon:
        lines.append("z " + " ".join(str(z) for z in sorted(graph.horizon)))
    lines.extend(f"e {u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def contract_subdivision(sd: SubdivisionMap) -> Graph:
    """Undo a subdivision; the round trip must reproduce the base exactly."""
    k = sd.order
    pairs = []
    for eid in range(sd.base.n_edges):
        ends = []
        for did in range(k * eid, k * eid + k):
            for x in sd.derived.edges[did]:
                if not sd.is_midpoint(x):
                    ends.append(x)
        if len(ends) != 2:
            raise TheoremViolationError("subdivision path lost its endpoints")
        pairs.append((min(ends), max(ends)))
    return Graph(sd.base.n_vertices, tuple(pairs), sd.base.horizon)


def iso_profile(graph: Graph, n: int) -> float:
    """Smallest boundary over sets of degree-weighted size at least ``n``.

    Sets range over non-empty proper vertex subsets disjoint from the
    horizon; all 2^k of them are tried, so at most ``SWEEP_EDGES``
    non-horizon vertices are accepted.  Returns ``inf`` when no admissible
    set is heavy enough.
    """
    if n < 1:
        raise PreconditionError("weight threshold must be at least 1")
    interior = graph.interior
    if len(interior) > _util.SWEEP_EDGES:
        raise CapExceededError(
            f"{len(interior)} non-horizon vertices exceed the exhaustive cap {_util.SWEEP_EDGES}"
        )
    best = float("inf")
    degrees = [graph.degree(v) for v in interior]
    for mask in range(1, 1 << len(interior)):
        s = [interior[i] for i in range(len(interior)) if mask >> i & 1]
        if len(s) == graph.n_vertices:
            continue
        if sum(degrees[i] for i in range(len(interior)) if mask >> i & 1) >= n:
            size = len(boundary_edges(graph, s))
            if size < best:
                best = size
    return best


# ---- multigraphs and Eulerian circuits ----


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph; loops and parallel edges allowed."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise GraphStructureError(f"edge endpoint out of range: {(u, v)}")

    def degree(self, v: int) -> int:
        d = 0
        for u, w in self.edges:
            if u == v:
                d += 1
            if w == v:
                d += 1
        return d

    def is_spanning_tree(self, edge_ids: Iterable[int]) -> bool:
        ids = list(edge_ids)
        if len(ids) != self.n_vertices - 1:
            return False
        sets = UnionFind(self.n_vertices)
        for eid in ids:
            u, v = self.edges[eid]
            if u == v or not sets.union(u, v):
                return False
        return True


def eulerian_from_two_trees(
    mg: Multigraph, tree1: Iterable[int], tree2: Iterable[int]
) -> tuple[int, ...]:
    """Even connected spanning edge set from two edge-disjoint spanning trees.

    Pair up the odd-degree vertices of the first tree and add, over
    GF(2), the second-tree paths joining each pair.  The first tree
    survives intact, so the result is spanning and connected; the path
    endpoints fix the parity, so every degree is even.
    """
    t1 = sorted(set(tree1))
    t2 = sorted(set(tree2))
    if set(t1) & set(t2):
        raise PreconditionError("tree edge id sets must be disjoint")
    if not mg.is_spanning_tree(t1) or not mg.is_spanning_tree(t2):
        raise PreconditionError("both inputs must be spanning trees of the multigraph")

    deg1 = [0] * mg.n_vertices
    for eid in t1:
        u, v = mg.edges[eid]
        deg1[u] += 1
        deg1[v] += 1
    odd = [v for v in range(mg.n_vertices) if deg1[v] % 2 == 1]

    adj2: list[list[tuple[int, int]]] = [[] for _ in range(mg.n_vertices)]
    for eid in t2:
        u, v = mg.edges[eid]
        adj2[u].append((v, eid))
        adj2[v].append((u, eid))

    def tree_path(a: int, b: int) -> list[int]:
        prev: dict[int, tuple[int, int]] = {a: (-1, -1)}
        stack = [a]
        while stack:
            u = stack.pop()
            if u == b:
                break
            for w, eid in adj2[u]:
                if w not in prev:
                    prev[w] = (u, eid)
                    stack.append(w)
        path = []
        x = b
        while x != a:
            x, eid = prev[x]
            path.append(eid)
        return path

    parity: dict[int, int] = {}
    for i in range(0, len(odd), 2):
        for eid in tree_path(odd[i], odd[i + 1]):
            parity[eid] = parity.get(eid, 0) ^ 1
    result = sorted(set(t1) | {eid for eid, bit in parity.items() if bit})

    deg = [0] * mg.n_vertices
    for eid in result:
        u, v = mg.edges[eid]
        deg[u] += 1
        deg[v] += 1
    if any(d == 0 or d % 2 for d in deg):
        raise TheoremViolationError("two-tree sum is not spanning with even degrees")
    return tuple(result)


def euler_circuit_edges(
    mg: Multigraph, edge_ids: Iterable[int], root: int
) -> tuple[list[int], list[int]]:
    """Closed walk from ``root`` using each listed edge exactly once.

    Returns (vertex sequence, edge id sequence); the vertex sequence has
    one more entry than the edge sequence and starts and ends at root.
    """
    ids = sorted(set(edge_ids))
    deg = [0] * mg.n_vertices
    adj: list[list[tuple[int, int]]] = [[] for _ in range(mg.n_vertices)]
    for eid in ids:
        u, v = mg.edges[eid]
        deg[u] += 1
        deg[v] += 1
        adj[u].append((v, eid))
        if u != v:
            adj[v].append((u, eid))
    if any(d % 2 for d in deg):
        raise PreconditionError("odd degree vertex; no Euler circuit")
    if not ids:
        return [root], []
    if deg[root] == 0:
        raise PreconditionError("root touches no chosen edge")

    used = [False] * (max(ids) + 1)
    ptr = [0] * mg.n_vertices
    stack: list[tuple[int, int]] = [(root, -1)]
    out_v: list[int] = []
    out_e: list[int] = []
    while stack:
        v, via = stack[-1]
        found = False
        while ptr[v] < len(adj[v]):
            w, eid = adj[v][ptr[v]]
            if used[eid]:
                ptr[v] += 1
                continue
            used[eid] = True
            stack.append((w, eid))
            found = True
            break
        if not found:
            stack.pop()
            out_v.append(v)
            out_e.append(via)
    out_v.reverse()
    out_e.reverse()
    out_e = [e for e in out_e if e != -1]
    if len(out_e) != len(ids):
        raise PreconditionError("chosen edges are not connected through the root")
    return out_v, out_e


# ---- cutsets by component walk ----


def enumerate_minimal_cutsets_by_components(graph: Graph, v: int, n_max: int) -> QnTable:
    """Component walk: exposed boundaries of connected sets around v.

    Every minimal cutset is the exposed boundary of the source component
    it cuts out, so sweeping connected sets and deduplicating boundaries
    by edge ids recovers the same table as the powerset sweep.
    """
    _require_cutset_context(graph, v)
    if n_max < 1:
        raise PreconditionError("n_max must be at least 1")
    seen: set[tuple[int, ...]] = set()
    found: dict[int, list[Cutset]] = {}
    for s in connected_subsets_containing(graph, v, allowed=graph.interior, max_count=MAX_SUBSETS):
        ids = exposed_boundary_by_search(graph, s)
        if len(ids) > n_max or ids in seen:
            continue
        seen.add(ids)
        found.setdefault(len(ids), []).append(Cutset(ids, v))
    return _pack_table(v, found)


# ---- cutsets by subset ----


def enumerate_minimal_cutsets_by_subsets(graph: Graph, v: int, n_max: int) -> QnTable:
    """Powerset sweep one subset at a time: ``is_minimal_cutset_by_edges`` on each.

    Every edge subset of size up to ``n_max`` is tested in
    ``itertools.combinations`` order.
    """
    _require_cutset_context(graph, v)
    check_sweep(graph.n_edges)
    if n_max < 1:
        raise PreconditionError("n_max must be at least 1")
    found: dict[int, list[Cutset]] = {}
    for size in range(1, min(n_max, graph.n_edges) + 1):
        for combo in itertools.combinations(range(graph.n_edges), size):
            if is_minimal_cutset_by_edges(graph, combo, v):
                found.setdefault(size, []).append(Cutset(combo, v))
    return _pack_table(v, found)


# ---- contraction cuts, one trial at a time ----


def karger_by_trials(graph: Graph, rng: np.random.Generator, trials: int) -> KargerResult:
    """``cutsets.karger_count_min_cuts``, contracting one trial at a time on a union-find."""
    n, m = graph.n_vertices, graph.n_edges
    best: int | None = None
    cuts: set[frozenset[int]] = set()
    for _ in range(trials):
        sets = UnionFind(n)
        for ei in rng.permutation(m):
            if sets.components == 2:
                break
            u, v = graph.edges[ei]
            sets.union(u, v)
        roots = [sets.find(x) for x in range(n)]
        cut = frozenset(
            eid for eid, (u, v) in enumerate(graph.edges) if roots[u] != roots[v]
        )
        size = len(cut)
        if best is None or size < best:
            best = size
            cuts = {cut}
        elif size == best:
            cuts.add(cut)
    assert best is not None
    return KargerResult(best, frozenset(cuts), trials)


# ---- the configuration sweep ----


def config_from_mask(graph: Graph, mask: int) -> tuple[bool, ...]:
    return tuple(bool(mask >> i & 1) for i in range(graph.n_edges))


def _connects(graph: Graph, a: int, b: int | None, is_open: tuple[bool, ...]) -> bool:
    """Open path from a to b, or to the horizon when b is None; the horizon absorbs."""
    if b is None:
        return a in graph.horizon or search(graph, (a,), is_open, stop_at_horizon=True)[1]
    if a == b:
        return True
    reached, _ = search(graph, (a,), is_open)
    if b in graph.horizon:
        return any(is_open[eid] and w in reached for w, eid in graph.adjacency[b])
    return b in reached


def event_popcount_profile(graph: Graph, event: Callable[[tuple[bool, ...]], object]) -> dict:
    """Configurations counted by the value ``event`` takes and by open-edge count.

    One sweep of all 2^m configurations, refused at once past the sweep
    cap.  Value x maps to an int64 array whose entry k counts the
    configurations with k open edges where ``event`` is x; a value never
    taken reads as zeros.  ``profile_probability`` prices a profile at
    any p.
    """
    m = graph.n_edges
    check_sweep(m)
    profiles: dict = defaultdict(lambda: np.zeros(m + 1, dtype=np.int64))
    for mask in range(1 << m):
        profiles[event(config_from_mask(graph, mask))][mask.bit_count()] += 1
    return profiles


def exact_prob(
    graph: Graph, p: float, event: Callable[[tuple[bool, ...]], bool]
) -> EventProbability:
    profile = event_popcount_profile(graph, event)[True]
    return EventProbability(profile_probability(profile, p), "exact")


def census_by_sweep(graph: Graph, v: int):
    """Boundary census by sweeping all 2^m edge configurations."""
    if v in graph.horizon:
        raise PreconditionError("cluster source must be off the horizon")

    def exposed(config: tuple[bool, ...]) -> tuple[int, ...] | None:
        cluster, touched = search(graph, (v,), config, stop_at_horizon=True)
        return None if touched else exposed_boundary_by_search(graph, cluster)

    profiles = event_popcount_profile(graph, exposed)
    return profiles, profiles.pop(None)


def sampled_rows(n_edges: int, p: float, trials: int, seed: int) -> list[list[bool]]:
    """The configurations ``_util._config_blocks`` samples, drawn in one call."""
    return (np.random.Generator(np.random.PCG64(seed)).random((trials, n_edges)) < p).tolist()


def mc_prob_by_rows(graph: Graph, p: float, v: int, trials: int, seed: int) -> int:
    """``percolation.mc_prob``'s hit count, searching one sampled row at a time."""
    return sum(
        search(graph, (v,), row, stop_at_horizon=True)[1]
        for row in sampled_rows(graph.n_edges, p, trials, seed)
    )


def census_by_rows(graph: Graph, v: int, p: float, trials: int, seed: int):
    """``percolation.boundary_census_mc``, searching one sampled row at a time."""
    counts: dict[tuple[int, ...], int] = {}
    infinite = 0
    for row in sampled_rows(graph.n_edges, p, trials, seed):
        cluster, touched = search(graph, (v,), row, stop_at_horizon=True)
        if touched:
            infinite += 1
        else:
            key = exposed_boundary_by_search(graph, cluster)
            counts[key] = counts.get(key, 0) + 1
    return counts, infinite


def boundary_hit_probability(graph: Graph, p: float, cutset: Cutset) -> EventProbability:
    """Exact probability that the source cluster's exposed boundary is this cutset."""
    _check_p(p)
    profiles, _ = boundary_census_exact(graph, cutset.source)
    profile = profiles.get(cutset.edge_ids)
    return EventProbability(0.0 if profile is None else profile_probability(profile, p), "exact")


@dataclass(frozen=True)
class FkgCheck:
    joint: float
    product: float


def fkg_spot_check(
    graph: Graph,
    p: float,
    event_pairs: Iterable[tuple[tuple[int, int | None], tuple[int, int | None]]],
) -> list[FkgCheck]:
    """Exact P(A and B) >= P(A) P(B) for pairs of connection events.

    Events are (a, b) descriptors with b a vertex, or None for the
    horizon.  Both are increasing, so a violation beyond float noise is
    an implementation bug and raises.
    """
    checks = []
    for (a1, b1), (a2, b2) in event_pairs:
        e1 = partial(_connects, graph, a1, b1)
        e2 = partial(_connects, graph, a2, b2)
        joint = exact_prob(graph, p, lambda c: e1(c) and e2(c)).value
        product = exact_prob(graph, p, e1).value * exact_prob(graph, p, e2).value
        if joint < product - 1e-12:
            raise TheoremViolationError(
                f"positive association failed: {joint} < {product} for "
                f"({a1},{b1}) vs ({a2},{b2})"
            )
        checks.append(FkgCheck(joint, product))
    return checks


@dataclass(frozen=True)
class StrongPercRow:
    vertices: tuple[int, ...]
    weight: int
    psi: float
    miss_probability: float
    minus_log: float
    satisfied: bool


@dataclass(frozen=True)
class StrongPercReport:
    p: float
    c_fit: float
    rows: tuple[StrongPercRow, ...]
    all_satisfied: bool


def strong_percolation_experiment(graph: Graph, p: float, c_fit: float) -> StrongPercReport:
    """Compare -ln P(S misses the horizon) against c_fit x boundary profile.

    S ranges over connected horizon-free sets of at most
    ``STRONG_SET_SIZE`` vertices.  Rows with miss probability zero are
    omitted (their log diverges).
    """
    if not graph.horizon:
        raise PreconditionError("experiment needs a horizon to miss")
    _check_p(p)
    pool: set[frozenset[int]] = set()
    for root in graph.interior:
        for s in connected_subsets_containing(
            graph, root, allowed={u for u in graph.interior if u >= root}
        ):
            if len(s) <= STRONG_SET_SIZE:
                pool.add(s)
    chosen = sorted(tuple(sorted(s)) for s in pool)
    rows = []
    for s in chosen:
        members = list(s)

        def miss(config: tuple[bool, ...], members=members) -> bool:
            return all(not _connects(graph, u, None, config) for u in members)

        prob = exact_prob(graph, p, miss).value
        if prob == 0.0:
            continue
        weight = set_weight(graph, members)
        psi = iso_profile(graph, weight)
        minus_log = -math.log(prob)
        rows.append(
            StrongPercRow(s, weight, psi, prob, minus_log, minus_log >= c_fit * psi - 1e-12)
        )
    return StrongPercReport(p, c_fit, tuple(rows), all(r.satisfied for r in rows))


# ---- the chain bound, checked exactly ----


@dataclass(frozen=True)
class FullConnectivityResult:
    exact: float
    bound: float
    theta: float


def verify_full_connectivity(
    graph: Graph,
    region: Iterable[int],
    targets: Iterable[int],
    origin: int,
    p: float,
) -> FullConnectivityResult:
    """Exact P(origin <-> all targets) against the chain lower bound."""
    region = tuple(sorted(set(region)))
    targets = tuple(sorted(set(targets)))
    oracle = ConnectivityOracle(graph, region, p)
    if not oracle.region_connected():
        raise PreconditionError("induced region is not connected")
    theta = min(oracle.connect_prob(u, targets) for u in region)
    if theta <= 0.0:
        raise PreconditionError("hypothesis fails: theta = 0")
    exact = oracle.all_connected_prob(origin, targets)
    bound = fkg_lower_bound(theta, p, len(targets))
    if exact < bound - 1e-12:
        raise TheoremViolationError(f"connection bound failed: {exact} < {bound}")
    return FullConnectivityResult(exact, bound, theta)


@dataclass(frozen=True)
class Theorem1Report:
    exact: float
    bound: float
    theta: float
    n: int
    configs_checked: int
    implication_failures: int


def theorem1_lower_bound_check(
    graph: Graph,
    p: float,
    cutset: Cutset,
    theta: float | None = None,
) -> Theorem1Report:
    """Boundary-hit probability against the closed-ring lower bound.

    Decomposes the cutset, prices P(exposed boundary = cutset) by the
    exact cluster law, and checks it is at least (c (1-p))^n with c from
    the chain bound at the computed (or supplied, if weaker) hypothesis
    level.  Also sweeps every configuration and confirms the defining
    implication: targets all reached inside the component and the cutset
    fully closed force the exposed boundary to be exactly the cutset.
    """
    if not 0.0 < p < 1.0:
        raise PreconditionError("theorem check needs p strictly inside (0, 1)")
    check_sweep(graph.n_edges)  # before any work
    decomp = decompose(graph, cutset)
    region = tuple(sorted(decomp.component_a))
    targets = set(decomp.inner_b)
    origin = cutset.source
    oracle = ConnectivityOracle(graph, region, p)
    computed = min(oracle.connect_prob(u, targets) for u in region)
    if theta is None:
        theta = computed
    elif theta > computed + 1e-12:
        raise PreconditionError(
            f"supplied theta {theta} exceeds the valid hypothesis level {computed}"
        )
    if theta <= 0.0:
        raise PreconditionError("hypothesis fails: theta = 0")

    n = cutset.size
    bound = fkg_lower_bound(theta, p, n) * (1.0 - p) ** n
    outside = frozenset(range(graph.n_vertices)) - decomp.component_a

    def implied(config: tuple[bool, ...]) -> bool | None:
        """None off the premise; on it, whether the exposed boundary is the cutset."""
        if any(config[e] for e in cutset.edge_ids):
            return None
        # Keeping out of ``outside`` confines the search to induced edges.
        if not targets <= search(graph, (origin,), config, avoid=outside)[0]:
            return None
        cluster, touched = search(graph, (origin,), config, stop_at_horizon=True)
        return not touched and exposed_boundary_by_search(graph, cluster) == cutset.edge_ids

    profiles = event_popcount_profile(graph, implied)
    failures = int(profiles[False].sum())
    exact = boundary_hit_probability(graph, p, cutset).value
    if failures:
        raise TheoremViolationError(
            f"{failures} configurations broke the closed-ring implication"
        )
    if exact < bound - 1e-15:
        raise TheoremViolationError(f"boundary-hit bound failed: {exact} < {bound}")
    return Theorem1Report(exact, bound, theta, n, int(profiles[True].sum()), failures)


# ---- cover-lemma sweeps, one subset at a time ----


def min_cut_by_splits(sub: SubStochasticMatrix) -> float:
    """``min_cut`` split by split: the crossing mass of each proper subset summed alone."""
    n = sub.n
    best = float("inf")
    for mask in range(1, (1 << n) - 1):
        inside = [i for i in range(n) if mask >> i & 1]
        outside = [j for j in range(n) if not mask >> j & 1]
        best = min(best, float(sub.p[np.ix_(inside, outside)].sum()))
    return best


def covering_sum_by_masks(sub: SubStochasticMatrix) -> float:
    """``covering_sum_exact`` mask by mask: one solve over each set's live states.

    Masks holding state 0 go largest first; a state that cannot leak out
    of its set gets zero without entering a solve.
    """
    n = sub.n
    p = sub.p
    full = (1 << n) - 1
    adj = _positive_adjacency(p)
    others = [v for v in range(n) if v != 0]
    gate = [v for v in others if p[v, 0] > 0.0]
    reach = _reaches(adj, others, gate) if others else set()
    x = np.zeros(n)
    order = sorted(reach)
    if order:
        sul = np.eye(len(order)) - p[np.ix_(order, order)]
        sol = checked_solve(sul, p[order, 0], "covering hit system")
        for i, v in enumerate(order):
            x[v] = sol[i]
    g_full = p[:, 0] + p[:, others] @ x[others] if others else p[:, 0].copy()

    h: dict[tuple[int, int], float] = {(u, full): float(g_full[u]) for u in range(n)}
    masks = sorted((m for m in range(1, full) if m & 1), key=lambda m: -m.bit_count())
    for mask in masks:
        states = [u for u in range(n) if mask >> u & 1]
        outside = [v for v in range(n) if not mask >> v & 1]
        b = np.zeros(len(states))
        for i, u in enumerate(states):
            b[i] = sum(p[u, v] * h[(v, mask | (1 << v))] for v in outside if p[u, v] > 0.0)
        leaking = [
            u
            for u in states
            if p[u].sum() < 1.0 - 1e-12 or any(p[u, v] > 0.0 for v in outside)
        ]
        live = _reaches(adj, states, leaking)
        order = sorted(live)
        vals = np.zeros(len(states))
        if order:
            idx = {u: i for i, u in enumerate(states)}
            sul = np.eye(len(order)) - p[np.ix_(order, order)]
            sol = checked_solve(sul, np.array([b[idx[u]] for u in order]), "covering set system")
            for i, u in enumerate(order):
                vals[idx[u]] = sol[i]
        for i, u in enumerate(states):
            h[(u, mask)] = float(vals[i])
    return h[(0, 1)] if n > 1 else float(g_full[0])


# ---- explicit cover-and-return enumeration ----


@dataclass(frozen=True)
class GammaPath:
    """A cover-and-return state sequence starting at 0, with its weight."""

    states: tuple[int, ...]
    weight: float


def is_gamma_sequence(n: int, states) -> bool:
    """Definitional membership test for cover-and-return sequences.

    Among indices i >= 1 where the state is 0 and the prefix through i
    covers all n states, there must be exactly one, and it must be the
    final index.  Pre-coverage visits to 0 are allowed.
    """
    seq = tuple(states)
    if len(seq) < 2 or seq[0] != 0:
        return False
    if any(not 0 <= s < n for s in seq):
        return False
    covered = {0}
    qualifying = []
    for i, s in enumerate(seq):
        covered.add(s)
        if i >= 1 and s == 0 and len(covered) == n:
            qualifying.append(i)
    return qualifying == [len(seq) - 1]


def gamma_sequences(sub: SubStochasticMatrix, k_max: int) -> Iterator[GammaPath]:
    """Positive-weight cover-and-return sequences of at most k_max steps.

    Depth-first over transitions with positive weight; a branch stops at
    its first qualifying return, since any extension would make that
    return non-unique.
    """
    n = sub.n
    if n > MAX_ENUM_STATES:
        raise CapExceededError(f"{n} states exceed the enumeration cap {MAX_ENUM_STATES}")
    if k_max < 1 or k_max > 20:
        raise PreconditionError("k_max must be in [1, 20]")
    p = sub.p.tolist()
    full = (1 << n) - 1
    # One frame per state of ``seq``: (visited mask, weight, next candidates).
    seq = [0]
    stack = [(1, 1.0, iter(range(n)))]
    while stack:
        mask, weight, candidates = stack[-1]
        v = next(candidates, None)
        if v is None:
            stack.pop()
            seq.pop()
            continue
        w = weight * p[seq[-1]][v]
        if w <= 0.0:
            continue
        if v == 0 and mask == full:
            yield GammaPath((*seq, v), w)
        elif len(seq) < k_max:
            seq.append(v)
            stack.append((mask | (1 << v), w, iter(range(n))))


def covering_sum_bruteforce(sub: SubStochasticMatrix, k_max: int) -> float:
    """Partial covering sum over sequences of at most k_max steps."""
    return sum(g.weight for g in gamma_sequences(sub, k_max))


def bruteforce_tail_bound(sub: SubStochasticMatrix, k_max: int) -> float:
    """Weight unaccounted for by length-limited enumeration.

    All mass still alive after k_max steps is at most (largest row
    sum)^k_max.
    """
    return float(sub.p.sum(axis=1).max()) ** k_max


# ---- the two-tree sampling construction ----


@dataclass(frozen=True)
class HGraphSample:
    """One sample of the paired random edge multisets.

    ``slots`` holds 2n-2 independent draws: an ordered pair (u, v) with
    probability p(u, v)/n each, or None for the leftover mass.  When the
    first n-1 and last n-1 slots both connect all states, the two-tree
    Eulerian construction produces a cover-and-return sequence whose
    steps use distinct slots.
    """

    slots: tuple[tuple[int, int] | None, ...]
    h1_connected: bool
    h2_connected: bool
    gamma: GammaPath | None
    gamma_slots: tuple[int, ...] | None


def _slots_connect(n: int, slots) -> bool:
    sets = UnionFind(n)
    for pair in slots:
        if pair is not None:
            sets.union(*pair)
    return sets.components == 1


def sample_h_graphs(sub: SubStochasticMatrix, rng: np.random.Generator) -> HGraphSample:
    """Draw the 2n-2 edge slots and, when both halves connect, the sequence."""
    n = sub.n
    if n == 1:
        return HGraphSample((), True, True, None, None)
    flat = (sub.p / n).reshape(-1)
    cum = np.cumsum(flat)
    slots: list[tuple[int, int] | None] = []
    for u in rng.random(2 * n - 2):
        k = int(np.searchsorted(cum, u, side="right"))
        slots.append((k // n, k % n) if k < n * n else None)
    h1 = _slots_connect(n, slots[: n - 1])
    h2 = _slots_connect(n, slots[n - 1 :])
    gamma = None
    gamma_slots = None
    if h1 and h2:
        mg = Multigraph(n, tuple(slots))  # type: ignore[arg-type]
        t1 = tuple(range(n - 1))
        t2 = tuple(range(n - 1, 2 * n - 2))
        even = eulerian_from_two_trees(mg, t1, t2)
        verts, eids = euler_circuit_edges(mg, even, 0)
        covered = {0}
        cut = None
        for i in range(1, len(verts)):
            covered.add(verts[i])
            if verts[i] == 0 and len(covered) == n:
                cut = i
                break
        assert cut is not None, "full circuit must qualify"
        seq = tuple(verts[: cut + 1])
        weight = 1.0
        for i in range(1, len(seq)):
            weight *= float(sub.p[seq[i - 1], seq[i]])
        gamma = GammaPath(seq, weight)
        gamma_slots = tuple(eids[:cut])
    return HGraphSample(tuple(slots), h1, h2, gamma, gamma_slots)


# ---- walks ----


def walk_by_steps(graph: Graph, start: int, rng: np.random.Generator, max_steps: int):
    """Scalar simple random walk from start to the horizon.

    Returns ``(steps, end, tau, range_c)``: the absorbing step, the horizon
    vertex reached, the last step at the start and the vertices visited up
    to then.  Raises ``CapExceededError`` after ``max_steps`` steps.  Draws
    come from ``rng`` 64 doubles at a time, and step t takes entry
    ``int(u * degree)`` of the adjacency list for the t-th double u.
    """
    path = [start]
    x = start
    tau = 0
    for step in range(1, max_steps + 1):
        if (step - 1) % 64 == 0:
            draws = rng.random(64)
        nbrs = graph.adjacency[x]
        x = nbrs[int(draws[(step - 1) % 64] * len(nbrs))][0]
        path.append(x)
        if x == start:
            tau = step
        if x in graph.horizon:
            return step, x, tau, frozenset(path[: tau + 1])
    raise CapExceededError("walk exceeded the step cap without absorption")


def census_by_walks(sd: SubdivisionMap, origin: int, walks: int, seed: int):
    """``rw_cutsets.qn_census_rw``, walking one scalar walk and decoding one range at a time.

    Returns (outcome counts, hits per cutset, every walk's range).
    """
    start = origin_midpoint(sd, origin)
    outcomes = {DECODED: 0, NON_MIDPOINT: 0, NOT_MINIMAL: 0, ABORTED: 0}
    hits: dict[Cutset, int] = {}
    ranges = []
    for rng in _util.trial_generators(seed, 0, walks):
        c = walk_by_steps(sd.derived, start, rng, _util.MAX_STEPS)[3]
        ranges.append(c)
        outcome, cutset = _decode(sd, origin, c, exposed_boundary_by_search(sd.derived, c))
        outcomes[outcome] += 1
        if cutset is not None:
            hits[cutset] = hits.get(cutset, 0) + 1
    return outcomes, hits, ranges


@dataclass(frozen=True)
class SubdivisionEscapeReport:
    eps_base: float
    eps_derived_floor: float
    weighted_escape: dict[int, float]
    min_over_midpoints: float
    min_over_originals: float
    max_identity_residual: float


def subdivision_escape_check(sd: SubdivisionMap) -> SubdivisionEscapeReport:
    """Degree-weighted escape on an order-2 subdivision, with the floors.

    Every derived vertex must clear 2 eps / (4 + eps); original vertices
    must clear eps / 2 (their walk is the lazy base walk).  Midpoint
    no-return is also re-derived through the visit-count identity
    E[visits to z] = 1 + E[visits to u]/d_u + E[visits to v]/d_v, which
    must hold to 1e-9.
    """
    if sd.order != 2:
        raise PreconditionError("escape check runs on order-2 subdivisions")
    eps = escape_constant(sd.base, escape_probabilities(sd.base))
    floor_all = 2.0 * eps / (4.0 + eps)
    floor_orig = eps / 2.0
    interior = sd.derived.interior
    n = fundamental_matrix_by_solve(sd.derived)
    weighted = {v: sd.derived.degree(v) / float(n[i, i]) for i, v in enumerate(interior)}
    index = {v: i for i, v in enumerate(interior)}
    worst = 0.0
    for eid in range(sd.base.n_edges):
        (z,) = sd.midpoints[eid]
        u, v = sd.base.edges[eid]
        lhs = float(n[index[z], index[z]])
        rhs = 1.0
        for end in (u, v):
            if end in index:
                rhs += float(n[index[z], index[end]]) / sd.derived.degree(end)
        worst = max(worst, abs(lhs - rhs))
    if worst > 1e-9:
        raise TheoremViolationError(f"midpoint visit identity residual {worst:.3e}")

    mins_mid = min(weighted[v] for v in weighted if sd.is_midpoint(v))
    originals = [v for v in weighted if not sd.is_midpoint(v)]
    mins_orig = min((weighted[v] for v in originals), default=float("inf"))
    for v, value in weighted.items():
        floor = floor_orig if not sd.is_midpoint(v) else floor_all
        if value < floor - 1e-12:
            raise TheoremViolationError(
                f"derived vertex {v}: weighted escape {value} below floor {floor}"
            )
    return SubdivisionEscapeReport(eps, floor_all, weighted, mins_mid, mins_orig, worst)


# ---- whole-matrix solves and records ----


def fundamental_matrix_by_solve(graph: Graph) -> np.ndarray:
    """Expected visits N = (I - Q)^-1 between interior vertices, by a dense solve.

    ``np.linalg.solve`` against a built identity, Q summed step by step:
    the dense route that the band routes of ``escape_probabilities`` and
    ``green`` must agree with.
    """
    interior = graph.interior
    index = {x: i for i, x in enumerate(interior)}
    k = len(interior)
    q = np.zeros((k, k))
    for x in interior:
        for w, _ in graph.adjacency[x]:
            if w in index:
                q[index[x], index[w]] += 1.0 / graph.degree(x)
    return np.linalg.solve(np.eye(k) - q, np.eye(k))


def green_by_whole_matrices(graph: Graph) -> np.ndarray:
    """The Green matrix (g + g.T) / 2 of g = N / target degree, each step a new matrix."""
    degrees = np.array([graph.degree(v) for v in graph.interior], dtype=float)
    g = fundamental_matrix_by_solve(graph) / degrees[None, :]
    return (g + g.T) / 2.0


def band_inverse_by_whole_rows(f: _BandFactor, interior: tuple[int, ...]) -> np.ndarray:
    """P^-1 indexed by ``interior``, by the Takahashi recurrence over one k x k matrix.

    Row j of Z is formed from the last row up over every column after j and
    mirrored into column j, so Z is exactly symmetric; an entry with no path
    between its ends is +0.0.  Rows, then columns, are then moved from
    elimination order to ``interior`` order in place.
    """
    k = len(f.order)
    g = np.empty((k, k))
    for j in reversed(range(k)):
        l = f.lower[j, : k - 1 - j]
        row = 0.0 - (l[:, None] * g[j + 1 : j + 1 + len(l), j + 1 :]).sum(axis=0)
        g[j, j + 1 :] = g[j + 1 :, j] = row
        g[j, j] = 1.0 / f.d[j] - (l * row[: len(l)]).sum()
    if f.order != interior:
        index = {v: i for i, v in enumerate(interior)}
        dest = [index[v] for v in f.order]
        for m in (g, g.T):
            scatter_rows(m, dest)
    return g


def scatter_rows(m: np.ndarray, dest: list[int]) -> None:
    """Move row p of ``m`` to row dest[p] for every p, in place, cycle by cycle."""
    moved = [False] * len(dest)
    for start in range(len(dest)):
        if moved[start]:
            continue
        held, p = m[start].copy(), start
        while not moved[start]:
            p = dest[p]
            moved[p] = True
            held, m[p] = m[p].copy(), held


def green_matrix(gm: GreenMatrix) -> np.ndarray:
    """G = P^-1 in ``interior`` order, assembled from ``gm.row_blocks()``.

    Each row is a band solve, so G is symmetric only to rounding (within
    1e-14 relative).
    """
    k = len(gm.interior)
    g = np.empty((k, k))
    lo = 0
    for block in gm.row_blocks():
        g[lo : lo + len(block)] = block
        lo += len(block)
    return g


def check_green_in_blocks(graph: Graph, g: np.ndarray) -> None:
    """``gff._green_check`` over g's row blocks, as many rows each as ``GreenMatrix.row_blocks`` yields."""
    check = _green_check(graph)
    rows = len(next(GreenMatrix(graph).row_blocks()))
    for lo in range(0, len(g), rows):
        check(lo, g[lo : lo + rows])


def scaled_by_a_millionth(module, name: str, field: str | None = None):
    """``module.name`` with its result, or that field of it, scaled by 1 + 1e-6."""
    exact = getattr(module, name)

    def patched(*args):
        out = exact(*args)
        if field is None:
            return out * (1.0 + 1e-6)
        return dataclasses.replace(out, **{field: getattr(out, field) * (1.0 + 1e-6)})

    return patched


def csv_rows_by_writer(stream, rows: list[dict]) -> None:
    """A record's CSV header and rows through ``csv.writer``, each cell's text built whole."""
    writer = csv.writer(stream, lineterminator="\n")
    header = list(rows[0])
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_value(row.get(k)) for k in header])


# ---- free fields ----


@dataclass(frozen=True)
class GaussianField:
    """One sampled field; values align with the generator's interior."""

    values: tuple[float, ...]
    generator: GreenMatrix
    seed: int | None

    def value(self, v: int) -> float:
        return self.values[self.generator.index(v)]

    def as_dict(self) -> dict[int, float]:
        return dict(zip(self.generator.interior, self.values))


def sample_field(gm: GreenMatrix, rng: np.random.Generator | int) -> GaussianField:
    """Draw one field; an integer is treated as a recorded seed."""
    seed = None
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        rng = np.random.Generator(np.random.PCG64(seed))
    row = gm.sample_block(rng, 1)[0]
    return GaussianField(tuple(float(x) for x in row), gm, seed)


def _below(interior: np.ndarray, values: np.ndarray, level: float) -> set[int]:
    """Interior vertices whose field value is not at or above ``level``."""
    return set(interior[~(values >= level)].tolist())


def section8_by_samples(base: Graph, cutset: Cutset, trials: int, seed: int) -> Section8Report:
    """``gff.section8_pipeline``, two searches and one exposed boundary per sample."""
    if trials < 1:
        raise PreconditionError("trials must be positive")
    frame = cutset_frame(base, cutset)
    derived = frame.sd.derived
    gm = green(derived)
    origin = cutset.source
    o_idx = gm.index(origin)
    x_idx = np.array([gm.index(v) for v in frame.x_vertices])
    y_idx = np.array([gm.index(v) for v in frame.y_vertices])
    x_set = set(frame.x_vertices)
    pairs = tuple(zip(frame.x_vertices, frame.y_vertices))
    in_component = [u in frame.component and v in frame.component for u, v in derived.edges]
    mids = frame.mid_edge_ids
    interior = np.array(gm.interior)

    f_count = e_count = fe_count = boundary_count = 0
    for block in _field_blocks(gm, seed, trials):
        fx = block[:, x_idx]
        fy = block[:, y_idx]
        f_mask = (
            (fx >= 1.0).all(axis=1)
            & (fx <= 2.0).all(axis=1)
            & (fy >= -2.0).all(axis=1)
            & (fy <= -1.0).all(axis=1)
        )
        f_count += int(f_mask.sum())
        for t in range(block.shape[0]):
            comp_a = cluster = set()
            if block[t, o_idx] >= 0.0:
                below = _below(interior, block[t], 0.0)
                comp_a, _ = search(derived, (origin,), in_component, avoid=below)
                cluster, _ = search(derived, (origin,), avoid=below)
            e_hit = x_set <= comp_a
            if e_hit:
                e_count += 1
            hit = False
            if cluster and all(x in cluster or y in cluster for x, y in pairs):
                hit = exposed_boundary_by_search(derived, cluster) == mids
            if hit:
                boundary_count += 1
            if f_mask[t] and e_hit:
                fe_count += 1
                if not hit:
                    raise TheoremViolationError(
                        "clamped and connected sample missed the target boundary"
                    )
    return Section8Report(cutset, mids, trials, f_count, e_count, fe_count, boundary_count)


def excursion_cluster(field: GaussianField, origin: int, level: float = 0.0) -> frozenset[int]:
    """Component of the origin among interior vertices at or above level."""
    gm = field.generator
    gm.index(origin)
    if not field.value(origin) >= level:
        return frozenset()
    below = _below(np.array(gm.interior), np.array(field.values), level)
    return frozenset(search(gm.graph, (origin,), avoid=below)[0])


def markov_check(gm: GreenMatrix, conditioned: set[int] | frozenset[int]) -> float:
    """Conditional covariance given a vertex set, against the slit domain.

    Conditioning the field on a vertex set must leave the covariance of
    the killed walk that treats those vertices as additional horizon.
    Returns the max entrywise residual; above 1e-9 raises.
    """
    conditioned = set(conditioned)
    extra = conditioned - set(gm.interior)
    if extra:
        raise PreconditionError(f"conditioning on non-interior vertices {sorted(extra)}")
    keep = [v for v in gm.interior if v not in conditioned]
    if not keep:
        return 0.0
    ki = [gm.index(v) for v in keep]
    ci = [gm.index(v) for v in sorted(conditioned)]
    g = green_matrix(gm)
    g_kk = g[np.ix_(ki, ki)]
    if ci:
        g_kc = g[np.ix_(ki, ci)]
        g_cc = g[np.ix_(ci, ci)]
        schur = g_kk - g_kc @ checked_solve(g_cc, g_kc.T, "conditioning block")
    else:
        schur = g_kk
    slit = Graph(
        gm.graph.n_vertices, gm.graph.edges, gm.graph.horizon | frozenset(conditioned)
    )
    other = green(slit)
    if other.interior != tuple(keep):
        raise TheoremViolationError("interior mismatch in the conditioned graph")
    residual = float(np.max(np.abs(schur - green_matrix(other))))
    if residual > 1e-9:
        raise TheoremViolationError(f"markov residual {residual:.3e}")
    return residual


@dataclass(frozen=True)
class SignBoundReport:
    """Connection frequency versus mean sign at the -1 level.

    ``margin_mean`` is the per-sample mean of indicator minus sign; the
    inequality predicts it is non-negative up to sampling error.
    """

    trials: int
    connect_count: int
    sign_mean: float
    margin_mean: float
    margin_se: float

    @property
    def connect_prob(self) -> EventProbability:
        return EventProbability.sampled(self.connect_count, self.trials)


def sign_bound_check(graph: Graph, origin: int, trials: int, seed: int) -> SignBoundReport:
    """Compare P(origin reaches the horizon side at level -1) to E[sgn].

    The horizon plays the killed boundary, whose field value is zero and
    so always clears the -1 level; the connection event therefore asks
    the origin's level-set cluster to touch a horizon-adjacent vertex.
    Both quantities come from the same samples.
    """
    if trials < 1:
        raise PreconditionError("trials must be positive")
    gm = green(graph)
    o_idx = gm.index(origin)
    interior = np.array(gm.interior)
    connect = 0
    sign_total = 0.0
    margins: list[np.ndarray] = []
    for block in _field_blocks(gm, seed, trials):
        signs = np.sign(block[:, o_idx] + 1.0)
        sign_total += float(signs.sum())
        hits = np.zeros(block.shape[0])
        for t in range(block.shape[0]):
            # The cluster meets a horizon-adjacent vertex iff its search touches the horizon.
            if block[t, o_idx] >= -1.0:
                below = _below(interior, block[t], -1.0)
                hits[t] = search(graph, (origin,), avoid=below, stop_at_horizon=True)[1]
        connect += int(hits.sum())
        margins.append(hits - signs)
    margin = np.concatenate(margins)
    se = float(margin.std(ddof=1) / np.sqrt(trials)) if trials > 1 else float("inf")
    return SignBoundReport(
        trials, connect, sign_total / trials, float(margin.mean()), se
    )


@dataclass(frozen=True)
class DominationReport:
    """The two measurable ends of the conditioned-field comparison.

    ``conditional`` is the connection frequency among clamped samples on
    the full subdivision; ``killed`` is the same connection frequency
    under the field killed at the inner midpoints, shifted to level -1.
    Domination predicts conditional >= killed; with no clamped samples
    the comparison is vacuous.
    """

    f_count: int
    fe_count: int
    conditional: EventProbability | None
    killed: EventProbability
    vacuous: bool

    @property
    def ordering_consistent(self) -> bool:
        if self.vacuous:
            return True
        return self.conditional.ci_high >= self.killed.ci_low


def domination_endpoint_check(
    base: Graph, cutset: Cutset, trials: int, seed: int
) -> DominationReport:
    """Estimate both sides of the domination step and compare their CIs."""
    report = section8_pipeline(base, cutset, trials, seed)
    frame = cutset_frame(base, cutset)
    derived = frame.sd.derived
    x_set = frozenset(frame.x_vertices)
    killed_horizon = (
        frozenset(range(derived.n_vertices)) - frame.component
    ) | x_set
    killed_graph = Graph(derived.n_vertices, derived.edges, killed_horizon)
    gm = green(killed_graph)
    origin = cutset.source
    o_idx = gm.index(origin)
    interior = np.array(gm.interior)
    targets = set(frame.inner_vertices)
    k_seed = derive_seed(seed, 1 << 32)
    hits = 0
    for block in _field_blocks(gm, k_seed, trials):
        for t in range(block.shape[0]):
            if block[t, o_idx] >= -1.0:
                below = _below(interior, block[t], -1.0)
                hits += targets <= search(killed_graph, (origin,), avoid=below)[0]
    killed = EventProbability.sampled(hits, trials)
    if report.f_count == 0:
        return DominationReport(0, 0, None, killed, True)
    conditional = EventProbability.sampled(report.fe_count, report.f_count)
    return DominationReport(
        report.f_count, report.fe_count, conditional, killed, False
    )


# ---- memory ----


def traced_peak(run: Callable[[], object]) -> int:
    """Bytes at the tracemalloc peak of one ``run()``.

    A full collection first empties the interpreter's free lists, so objects
    they would hand out untraced are counted, whatever ran before.
    """
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def blocks_over_one(run: Callable[[int], object], block: int) -> float:
    """Traced peak of ``run(5 * block)`` over that of ``run(block)``.

    ``run(trials)`` samples in blocks of ``block`` trials, so the ratio is
    what four more blocks cost on top of one: 1.0 when a spent block is
    gone before the next is drawn.  A warm-up ``run(1)`` keeps lazy imports
    and caches out of both peaks.
    """
    run(1)
    return traced_peak(lambda: run(5 * block)) / traced_peak(lambda: run(block))
