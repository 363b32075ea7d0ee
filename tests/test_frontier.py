import math

import numpy as np
import pytest

from percut import Graph, grid_graph, path_graph
from percut import frontier
from percut.cutsets import QnTable
from percut.errors import CapExceededError, PreconditionError, TheoremViolationError
from percut.frontier import count_minimal_cutsets

from corpus import _random_graph, complete_tree
from oracles import enumerate_minimal_cutsets_by_components


# ---- agreement with the component walk ----


def test_matches_component_walk_on_random_graphs():
    rng = np.random.default_rng(8)
    graphs = 0
    for seed in range(240):
        n = int(rng.integers(2, 11))
        extra = int(rng.integers(0, min(8, (n - 1) * (n - 2) // 2) + 1))
        graph = _random_graph(1000 + seed, n, extra, int(rng.integers(1, n)))
        graphs += 1
        for v in graph.interior:
            walk = enumerate_minimal_cutsets_by_components(graph, v, graph.n_edges)
            assert count_minimal_cutsets(graph, v, graph.n_edges).counts == walk.counts
            n_max = int(rng.integers(1, graph.n_edges + 1))
            walk = enumerate_minimal_cutsets_by_components(graph, v, n_max)
            assert count_minimal_cutsets(graph, v, n_max).counts == walk.counts
    assert graphs >= 200


# ---- pinned values ----


def test_grid6x6_center():
    # n = 10 reads 83 if two A components may close in one step.
    table = count_minimal_cutsets(grid_graph(6, 6), 14, 12)
    assert table.counts == {14: {4: 1, 6: 4, 8: 20, 10: 82, 12: 292}}


def test_grid7x7_center_to_twelve():
    table = count_minimal_cutsets(grid_graph(7, 7), 24, 12)
    assert table.counts == {24: {4: 1, 6: 4, 8: 22, 10: 120, 12: 590}}
    assert sum(table.counts[24].values()) == 737


def test_grid9x9_center():
    counts = count_minimal_cutsets(grid_graph(9, 9), 40, 16).counts[40]
    assert counts[14] == 4144
    assert counts[16] == 22422


def _tree_cutset_counts(d: int, depth: int, n_max: int) -> dict[int, int]:
    """Q_depth truncated at x^n_max, where Q_R = (x + Q_(R-1))^d and Q_0 = 0.

    Each of the root's d child edges is either cut (x) or passed, and then
    the child's subtree of depth R - 1 is cut below it; a leaf child cannot
    be passed.  Polynomials are coefficient lists.
    """
    q = [0] * (n_max + 1)
    for _ in range(depth):
        branch = q.copy()
        branch[1] += 1
        q = [1] + [0] * n_max
        for _ in range(d):
            q = [sum(q[i] * branch[n - i] for i in range(n + 1)) for n in range(n_max + 1)]
    return {n: count for n, count in enumerate(q) if count}


@pytest.mark.parametrize("d, depth, n_max", [(2, 9, 40), (3, 6, 30)])
def test_complete_trees_match_the_closed_form(d, depth, n_max):
    # Binary depth 9 has 1,023 vertices, ternary depth 6 has 1,093.
    tree = complete_tree(d, depth)
    assert tree.n_vertices == (d ** (depth + 1) - 1) // (d - 1)
    want = _tree_cutset_counts(d, depth, n_max)
    assert count_minimal_cutsets(tree, 0, n_max).counts == {0: want}
    if d == 2:
        # From 2 to the depth, the binary counts are the Catalan numbers C_(n-1).
        sizes = range(2, depth + 1)
        assert [want[n] for n in sizes] == [math.comb(2 * n - 2, n - 1) // n for n in sizes]


def test_counts_past_64_bits_stay_exact():
    # v = 0 joined to 70 middle vertices, each joined to the horizon 71: every
    # subset of middles on v's side is a bond, and every bond cuts 70 edges.
    k = 70
    edges = [(0, i) for i in range(1, k + 1)] + [(i, k + 1) for i in range(1, k + 1)]
    graph = Graph(k + 2, tuple(edges), frozenset({k + 1}))
    assert count_minimal_cutsets(graph, 0, graph.n_edges).counts == {0: {k: 2**k}}


# ---- refusals and the state cap ----


def test_refusals():
    with pytest.raises(PreconditionError):
        count_minimal_cutsets(path_graph(5), 2, 0)
    with pytest.raises(PreconditionError):
        count_minimal_cutsets(path_graph(5), 0, 4)
    with pytest.raises(PreconditionError):
        count_minimal_cutsets(path_graph(5, horizon=()), 2, 4)


def test_state_cap(monkeypatch):
    monkeypatch.setattr(frontier, "STATE_CAP", 3)
    with pytest.raises(CapExceededError):
        count_minimal_cutsets(grid_graph(5, 5), 12, 8)


def test_smallest_size_is_checked_against_edge_connectivity(monkeypatch):
    graph = grid_graph(5, 5)
    assert frontier._edge_connectivity(graph, 12, 8) == 4
    assert frontier._edge_connectivity(graph, 12, 2) == 3
    monkeypatch.setattr(frontier, "_edge_connectivity", lambda graph, v, limit: 3)
    with pytest.raises(TheoremViolationError):
        count_minimal_cutsets(graph, 12, 8)


def test_counts_only_table_refuses_listing():
    table = count_minimal_cutsets(path_graph(5), 2, 4)
    assert table.cutsets is None
    assert table.counts[2][2] == 4
    assert QnTable({2: {2: 4}}).cutsets is None
