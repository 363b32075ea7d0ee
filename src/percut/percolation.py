"""Bernoulli bond percolation on horizon graphs.

Exact probabilities are counts of edge configurations grouped by
open-edge count, so one profile prices every p.  The source cluster's
law (theta, boundary censuses) is summed over the connected sets the
cluster can be.  Every sampled estimate draws its configurations from
one ``PCG64(seed)`` stream (``_util._config_blocks``) and carries a
Wilson 99% interval.  Sampled configurations come in blocks of trial
bits, one Python int per edge, and one ``flood`` per block searches all
of its trials at once; one ``exposed_bits`` pass then gives the
boundaries of the block's distinct clusters.
Horizon vertices absorb: open paths may end on them but never pass
through.
"""

from __future__ import annotations

import math
from typing import Sequence

from ._util import EventProbability, _bit_rows, _check_p, _config_blocks
from .errors import CapExceededError, PreconditionError
from .cutsets import QnTable, _exposed_boundaries
from .graph_core import Graph, connected_subsets_containing, exposed_bits, flood, set_weight

# Connected sets the exact cluster law may walk before it refuses.
EXACT_SET_BUDGET = 200_000
# Edges of the exact cluster law: its coefficients reach 2^m, priced as floats.
EXACT_EDGE_CAP = 1000


def profile_probability(profile: Sequence[int], p: float) -> float:
    """Probability at p of the configurations a popcount profile counts.

    ``profile[k]`` counts configurations with k of the m edges open, as a
    list of Python ints or an integer array of length m + 1.
    """
    _check_p(p)
    m = len(profile) - 1
    total = 0.0
    for k in range(m + 1):
        if profile[k]:
            total += float(profile[k]) * p**k * (1.0 - p) ** (m - k)
    return total


def mc_prob(graph: Graph, p: float, v: int, trials: int, seed: int) -> EventProbability:
    """Share of ``trials`` sampled configurations where v's open cluster touches the horizon."""
    hits = 0
    for count, bits in _config_blocks(graph.n_edges, p, trials, seed):
        hits += flood(graph, (v,), bits, (1 << count) - 1)[1].bit_count()
        del bits  # before the next block is drawn
    return EventProbability.sampled(hits, trials)


# ---- named quantities ----


def theta(
    graph: Graph,
    p: float,
    v: int,
    trials: int = 100_000,
    seed: int | None = None,
) -> EventProbability:
    """Probability that v reaches the horizon through open edges.

    Exact by the cluster law; with a seed, sampled from ``trials``
    configurations instead.
    """
    _check_p(p)
    if seed is not None and trials < 1:
        raise PreconditionError("trials must be positive")
    if v in graph.horizon:
        return EventProbability(1.0, "exact")
    if seed is not None:
        return mc_prob(graph, p, v, trials, seed)
    _, infinite = boundary_census_exact(graph, v)
    return EventProbability(profile_probability(infinite, p), "exact")


def peierls_bound(table: QnTable, p: float, v: int | None = None) -> float:
    """Sum of (cutset count) x (all-closed probability) over recorded sizes."""
    _check_p(p)
    if v is None:
        vertices = list(table.counts)
        if len(vertices) != 1:
            raise PreconditionError("table covers several vertices; name one")
        v = vertices[0]
    by_size = table.counts.get(v, {})
    return sum(_peierls_term(count, 1.0 - p, n) for n, count in by_size.items())


def _peierls_term(count: int, q: float, n: int) -> float:
    """``count * q**n``, in log space when ``count`` is too large for a float.

    Such a term is 0 at q = 0 and ``inf`` when the product itself is too
    large for a float.
    """
    try:
        return count * q**n
    except OverflowError:
        if q == 0.0:
            return 0.0
        try:
            return math.exp(math.log(count) + n * math.log(q))
        except OverflowError:
            return math.inf


def _inner_edge_count(graph: Graph, s: frozenset[int]) -> int:
    return sum(1 for u in s for w, _ in graph.adjacency[u] if w in s) // 2


def boundary_census_exact(
    graph: Graph, v: int
) -> tuple[dict[tuple[int, ...], list[int]], list[int]]:
    """Popcount profile of every realized exposed boundary, by connected sets.

    The cluster of v is finite and equal to S exactly when S is a
    connected interior set containing v, the open edges of G[S] connect
    S, and every edge leaving S is closed; all other edges are free.  So
    with c_S(x) the generating polynomial of connected spanning edge
    subsets of G[S], the configurations with C(v) = S count as
    c_S(x) (1+x)^free by open edges.  c_S comes from the all-terminal
    reliability recurrence: every edge subset of G[S] leaves v an open
    component T, connected and containing v, with the edges between T
    and S - T closed, so

        c_S = (1+x)^e(S) - sum over T proper of c_T (1+x)^e(S - T).

    Returns (per-boundary profiles, profile of the infinite-cluster
    event), each a list of m + 1 Python ints indexed by open-edge count;
    summing a boundary profile at p gives the exact hit probability of
    that boundary.  Raises past ``EXACT_EDGE_CAP`` edges, or past
    ``EXACT_SET_BUDGET`` connected sets, counting both the walk over S
    and the walks over each T.
    """
    if v in graph.horizon:
        raise PreconditionError("cluster source must be off the horizon")
    m = graph.n_edges
    if m > EXACT_EDGE_CAP:
        raise CapExceededError(f"{m} edges exceed the {EXACT_EDGE_CAP}-edge cap of the cluster law")
    # Polynomials are evaluated at x = 2**w with w = m + 1, so coefficient k
    # sits in bits wk..wk+w-1.  Integer arithmetic on these values is exact,
    # and every polynomial read back (c_S, the profiles) has coefficients in
    # [0, 2**m], so its value decodes slot by slot.
    w = m + 1
    x1 = 1 + (1 << w)
    sets = sorted(
        connected_subsets_containing(graph, v, graph.interior, max_count=EXACT_SET_BUDGET),
        key=len,
    )
    walked = len(sets)
    # Bit j of each vertex's int marks set j: one exposed_bits pass keys every set.
    marks = [bytearray(b"0" * len(sets)) for _ in range(graph.n_vertices)]
    for j, s in enumerate(sets):
        for u in s:
            marks[u][-1 - j] = ord("1")
    exposed = exposed_bits(graph, [int(row, 2) for row in marks], (1 << len(sets)) - 1)
    rows = [format(bits, f"0{len(sets)}b")[::-1] for bits in exposed]
    keys = [tuple(eid for eid, row in enumerate(rows) if row[j] == "1") for j in range(len(sets))]
    spanning: dict[frozenset[int], int] = {}
    packed: dict[tuple[int, ...], int] = {}
    for s, key in zip(sets, keys):
        e_s = _inner_edge_count(graph, s)
        c = x1**e_s
        for t in connected_subsets_containing(graph, v, s):
            walked += 1
            if walked > EXACT_SET_BUDGET:
                raise CapExceededError(
                    f"more than {EXACT_SET_BUDGET} connected sets in the cluster law"
                )
            if len(t) < len(s):
                c -= spanning[t] * x1 ** _inner_edge_count(graph, s - t)
        spanning[s] = c
        leaving = set_weight(graph, s) - 2 * e_s
        packed[key] = packed.get(key, 0) + c * x1 ** (m - e_s - leaving)

    slot = (1 << w) - 1

    def unpack(value: int) -> list[int]:
        return [value >> w * k & slot for k in range(m + 1)]

    infinite = x1**m - sum(packed.values())
    return {key: unpack(value) for key, value in packed.items()}, unpack(infinite)


def boundary_census_mc(
    graph: Graph, v: int, p: float, trials: int, seed: int
) -> tuple[dict[tuple[int, ...], int], int]:
    """Sampled tally of realized exposed boundaries from one source.

    Returns (hit counts per boundary, count of horizon-touching
    clusters); the two sides add up to the trial count.  The exposed
    boundaries of a block's distinct clusters come from one
    ``exposed_bits`` pass.
    """
    import numpy as np

    blocks = _config_blocks(graph.n_edges, p, trials, seed)
    if v in graph.horizon:
        raise PreconditionError("cluster source must be off the horizon")
    n = graph.n_vertices
    counts: dict[tuple[int, ...], int] = {}
    infinite = 0
    for count, bits in blocks:
        reach, touched = flood(graph, (v,), bits, (1 << count) - 1)
        infinite += touched.bit_count()
        # A row per vertex and a last one for the touched trials; the
        # untouched trials' columns, packed, are their clusters.
        cells = _bit_rows(reach + [touched], count)
        clusters = np.packbits(cells[:n, cells[n] == 0].T, axis=1)
        rows, hits = np.unique(clusters, axis=0, return_counts=True)
        del bits, reach, cells, clusters  # before the next block is drawn
        sets = np.unpackbits(rows, axis=1, count=n)
        for key, hit in zip(_exposed_boundaries(graph, sets), hits.tolist()):
            counts[key] = counts.get(key, 0) + hit
    return counts, infinite
