"""Shared graph corpus for the test suite.

Small named graphs, every one connected with a non-empty horizon and a
non-empty interior, all within the exact-enumeration caps.  Cutset
tables and boundary censuses are cached per (graph, vertex) because
several suites sweep the same pairs.  ``census_by_sweep`` is the
configuration-sweep oracle the connected-set census is checked against;
``walk_by_steps`` is the one-step-at-a-time walk the lockstep walk kernel
is checked against.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from percut import Graph, QnTable
from percut.errors import CapExceededError
from percut.cutsets import enumerate_minimal_cutsets_by_components
from percut.graph_core import (
    box3d_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from percut.percolation import boundary_census_exact, cluster_report, config_from_mask


def _random_graph(seed: int, n: int, extra: int, horizon_size: int) -> Graph:
    rng = np.random.default_rng(seed)
    perm = [int(x) for x in rng.permutation(n)]
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        a, b = perm[i], perm[j]
        edges.add((min(a, b), max(a, b)))
    while len(edges) < n - 1 + extra:
        a, b = (int(x) for x in rng.integers(0, n, 2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    horizon = frozenset(int(x) for x in rng.choice(n, horizon_size, replace=False))
    return Graph(n, tuple(sorted(edges)), horizon)


CORPUS: dict[str, Graph] = {
    "path3": path_graph(3),
    "path4": path_graph(4),
    "path5": path_graph(5),
    "path7": path_graph(7),
    "path9": path_graph(9),
    "star3": star_graph(3),
    "star5": star_graph(5),
    "cycle4": cycle_graph(4, horizon=(0,)),
    "cycle5": cycle_graph(5, horizon=(0,)),
    "cycle6": cycle_graph(6, horizon=(0, 3)),
    "grid3x3": grid_graph(3, 3),
    "grid3x3_corners": grid_graph(3, 3, horizon=(0, 2, 6, 8)),
    "grid2x3_corners": grid_graph(2, 3, horizon=(0, 1, 4, 5)),
    "cube_corner": box3d_graph(2, 2, 2, horizon=(7,)),
    "k4": Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), frozenset({3})),
    "k4_pair": Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), frozenset({2, 3})),
    "pendant3": Graph(4, ((0, 1), (1, 2), (1, 3)), frozenset({0, 2})),
    "pendant_path": Graph(6, ((0, 1), (1, 2), (2, 3), (2, 5), (3, 4)), frozenset({0, 4})),
    "theta6": Graph(6, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (4, 5), (1, 5)), frozenset({0})),
    "diamond": Graph(4, ((0, 1), (0, 3), (1, 2), (1, 3), (2, 3)), frozenset({0})),
    "bowtie": Graph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)), frozenset({0})),
    "wheel5": Graph(
        5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (3, 4)), frozenset({1, 3})
    ),
    "tree7": Graph(
        7, ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)), frozenset({3, 4, 5, 6})
    ),
    "rand11": _random_graph(101, 7, 5, 2),
    "rand14": _random_graph(202, 7, 8, 2),
    "rand16": _random_graph(303, 8, 9, 2),
}

for _name, _g in CORPUS.items():
    assert _g.n_edges <= 16, _name
    assert _g.horizon and _g.interior, _name


def broom(k: int) -> Graph:
    """Vertex 0 joined to 1..k, each i joined to horizon vertex k + i.

    Its minimal cutsets from 0 take one edge of each of the k paths, so
    there are 2^k of them, all of size k: past the float range for k >= 1024.
    """
    edges = tuple((0, i) for i in range(1, k + 1)) + tuple((i, k + i) for i in range(1, k + 1))
    return Graph(2 * k + 1, edges, frozenset(range(k + 1, 2 * k + 1)))


def interior_vertices(name: str) -> tuple[int, ...]:
    return CORPUS[name].interior


@lru_cache(maxsize=None)
def table_for(name: str, v: int) -> QnTable:
    graph = CORPUS[name]
    return enumerate_minimal_cutsets_by_components(graph, v, graph.n_edges)


@lru_cache(maxsize=None)
def census_for(name: str, v: int):
    return boundary_census_exact(CORPUS[name], v)


def census_by_sweep(graph: Graph, v: int):
    """Boundary census by sweeping all 2^m edge configurations."""
    m = graph.n_edges
    profiles: dict[tuple[int, ...], np.ndarray] = {}
    infinite = np.zeros(m + 1, dtype=np.int64)
    for mask in range(1 << m):
        report = cluster_report(graph, config_from_mask(graph, mask), v)
        if report.finite:
            profile = profiles.get(report.exposed)
            if profile is None:
                profile = profiles[report.exposed] = np.zeros(m + 1, dtype=np.int64)
        else:
            profile = infinite
        profile[mask.bit_count()] += 1
    return profiles, infinite


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


def all_pairs() -> list[tuple[str, int]]:
    return [(name, v) for name in CORPUS for v in CORPUS[name].interior]
