"""Shared graph corpus for the test suite.

Small named graphs, every one connected with a non-empty horizon and a
non-empty interior, all within the exact-enumeration caps.  Cutset
tables and boundary censuses are cached per (graph, vertex) because
several suites sweep the same pairs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from oracles import enumerate_minimal_cutsets_by_components
from percut import Cutset, Graph, QnTable
from percut.graph_core import (
    box3d_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
    subdivide,
)
from percut.percolation import boundary_census_exact


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


# The band routes' checks against the dense route: the corpus, grids, a cube,
# the `gff pipeline` frame (reverse Cuthill-McKee narrows it from 107 to 10)
# and the band's edge cases, no interior edge and a single interior vertex.
BAND_CASES: dict[str, Graph] = {
    **CORPUS,
    "grid12x12": grid_graph(12, 12),
    "grid30x30": grid_graph(30, 30),
    "box12": box3d_graph(12, 12, 12),
    "pipeline_frame": subdivide(grid_graph(6, 6), 3).derived,
    "no_interior_edges": path_graph(5, horizon=(0, 2, 4)),
    "one_interior_vertex": grid_graph(3, 3),
}


def broom(k: int) -> Graph:
    """Vertex 0 joined to 1..k, each i joined to horizon vertex k + i.

    Its minimal cutsets from 0 take one edge of each of the k paths, so
    there are 2^k of them, all of size k: past the float range for k >= 1024.
    """
    edges = tuple((0, i) for i in range(1, k + 1)) + tuple((i, k + i) for i in range(1, k + 1))
    return Graph(2 * k + 1, edges, frozenset(range(k + 1, 2 * k + 1)))


def complete_tree(d: int, depth: int) -> Graph:
    """The complete d-ary tree of the given depth, ids depth first from root 0.

    The leaves are the horizon.  Unlike the grids it is non-amenable, and its
    minimal cutset counts from the root have a closed form.
    """
    edges: list[tuple[int, int]] = []
    leaves: list[int] = []

    def grow(u: int, level: int) -> int:
        """Add u's subtree; return the next unused id."""
        if level == depth:
            leaves.append(u)
            return u + 1
        nxt = u + 1
        for _ in range(d):
            edges.append((u, nxt))
            nxt = grow(nxt, level + 1)
        return nxt

    return Graph(grow(0, 0), tuple(edges), frozenset(leaves))


def interior_vertices(name: str) -> tuple[int, ...]:
    return CORPUS[name].interior


@lru_cache(maxsize=None)
def table_for(name: str, v: int) -> QnTable:
    graph = CORPUS[name]
    return enumerate_minimal_cutsets_by_components(graph, v, graph.n_edges)


def cutsets_for(name: str, v: int) -> list[Cutset]:
    """Every minimal cutset from v, smallest first, as ``table_for`` lists them."""
    return [c for by_size in table_for(name, v).cutsets[v].values() for c in by_size]


@lru_cache(maxsize=None)
def census_for(name: str, v: int):
    return boundary_census_exact(CORPUS[name], v)


def all_pairs() -> list[tuple[str, int]]:
    return [(name, v) for name in CORPUS for v in CORPUS[name].interior]
