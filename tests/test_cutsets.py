import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from percut import Graph, _util, grid_graph, path_graph
from percut.cutsets import (
    Cutset,
    KargerResult,
    decompose,
    default_karger_trials,
    enumerate_minimal_cutsets_bruteforce,
    exposed_boundary,
    is_minimal_cutset,
    karger_count_min_cuts,
    verified_cutset,
)
from percut.errors import PreconditionError
from percut.graph_core import connected_subsets_containing, cycle_graph

from corpus import CORPUS, cutsets_for, table_for
from oracles import (
    blocks_over_one, enumerate_minimal_cutsets_by_components, enumerate_minimal_cutsets_by_subsets,
    is_minimal_cutset_by_edges, karger_by_trials,
)


# ---- exposed boundaries ----


def test_exposed_boundary_p5_singleton():
    p5 = path_graph(5)
    assert exposed_boundary(p5, {2}) == (1, 2)
    # Ids that are not vertices have no edges; a horizon vertex is refused.
    assert exposed_boundary(p5, {-1, 2, 5}) == (1, 2)
    with pytest.raises(PreconditionError):
        exposed_boundary(p5, {0, 2})


def test_exposed_boundary_p5_interval():
    assert exposed_boundary(path_graph(5), {1, 2, 3}) == (0, 3)


def test_exposed_boundary_drops_trapped_edges():
    # Far endpoint 2 of both middle edges is walled in by {1, 3}.
    assert exposed_boundary(path_graph(5), {1, 3}) == (0, 3)


def test_exposed_boundary_pendant():
    g = CORPUS["pendant3"]
    assert exposed_boundary(g, {1}) == (0, 1)
    assert exposed_boundary(g, {1, 3}) == (0, 1)


def test_exposed_sets_with_same_hull_share_boundary():
    g = CORPUS["pendant3"]
    assert exposed_boundary(g, {1}) == exposed_boundary(g, {1, 3})


# ---- minimality and decomposition ----


def test_is_minimal_cutset_p5():
    p5 = path_graph(5)
    assert is_minimal_cutset(p5, (1, 2), 2)
    assert is_minimal_cutset(p5, (0, 3), 2)
    assert not is_minimal_cutset(p5, (0, 1, 2, 3), 2)
    assert not is_minimal_cutset(p5, (0,), 2)
    assert not is_minimal_cutset(p5, (), 2)


def test_is_minimal_cutset_agrees_with_the_sweep():
    """The one-search-per-edge test says yes exactly to the subsets the sweep lists."""
    rng = np.random.default_rng(11)
    for name, g in CORPUS.items():
        for v in g.interior:
            table = enumerate_minimal_cutsets_bruteforce(g, v, g.n_edges)
            listed = {c.edge_ids for by_size in table.cutsets[v].values() for c in by_size}
            randoms = [
                tuple(int(e) for e in np.flatnonzero(rng.random(g.n_edges) < rng.random()))
                for _ in range(40)
            ]
            for ids in sorted(listed) + randoms:
                assert is_minimal_cutset_by_edges(g, ids, v) == (ids in listed), (name, v, ids)
                assert is_minimal_cutset(g, ids, v) == (ids in listed), (name, v, ids)


@pytest.mark.parametrize("n_max", [1, 3, None], ids=["nmax1", "nmax3", "nmax_m"])
def test_bit_parallel_sweep_matches_subset_oracle(n_max):
    for name, g in CORPUS.items():
        size = g.n_edges if n_max is None else n_max
        for v in g.interior:
            want = enumerate_minimal_cutsets_by_subsets(g, v, size)
            got = enumerate_minimal_cutsets_bruteforce(g, v, size)
            assert got.counts == want.counts, (name, v)
            assert got.cutsets == want.cutsets, (name, v)


def test_verified_cutset_normalizes_and_rejects():
    p5 = path_graph(5)
    c = verified_cutset(p5, (3, 0), 2)
    assert c.edge_ids == (0, 3)
    assert c.size == 2
    with pytest.raises(PreconditionError):
        verified_cutset(p5, (0, 1, 2, 3), 2)
    with pytest.raises(PreconditionError):
        verified_cutset(p5, (0, 3), 0)


def test_decompose_p5():
    p5 = path_graph(5)
    d = decompose(p5, verified_cutset(p5, (1, 2), 2))
    assert d.component_a == frozenset({2})
    assert d.inner_b == frozenset({2})
    d = decompose(p5, verified_cutset(p5, (0, 3), 2))
    assert d.component_a == frozenset({1, 2, 3})
    assert d.inner_b == frozenset({1, 3})


def test_decompose_every_corpus_cutset():
    for name, g in CORPUS.items():
        for v in g.interior:
            for c in cutsets_for(name, v):
                d = decompose(g, c)
                assert v in d.component_a
                assert d.inner_b <= d.component_a
                assert not d.component_a & g.horizon


# ---- finite-set boundaries are minimal cutsets ----


def test_exposed_boundary_is_minimal_on_sampled_sets():
    rng = np.random.default_rng(11)
    for name in ("path7", "cycle6", "grid3x3_corners", "bowtie", "rand11"):
        g = CORPUS[name]
        root = g.interior[0]
        subsets = list(
            connected_subsets_containing(g, root, set(g.interior), 1 << 18)
        )
        for idx in rng.choice(len(subsets), size=min(40, len(subsets)), replace=False):
            s = subsets[idx]
            assert is_minimal_cutset(g, exposed_boundary(g, s), root)


def test_sandwiched_sets_share_exposed_boundary():
    # Everything between the inner endpoints and the full component has
    # the same exposed boundary.
    rng = np.random.default_rng(12)
    for name in ("path9", "theta6", "k4_pair", "rand14"):
        g = CORPUS[name]
        for v in g.interior:
            for c in cutsets_for(name, v):
                d = decompose(g, c)
                free = sorted(d.component_a - d.inner_b - {v})
                for _ in range(8):
                    take = [u for u in free if rng.random() < 0.5]
                    s = d.inner_b | {v} | set(take)
                    assert exposed_boundary(g, s) == c.edge_ids


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 9))
def test_exposed_boundary_minimal_on_random_trees(seed, n):
    rng = np.random.default_rng(seed)
    edges = tuple(sorted((int(rng.integers(0, i)), i) for i in range(1, n)))
    leaves = [v for v in range(n) if sum(v in e for e in edges) == 1]
    g = Graph(n, edges, frozenset(leaves))
    if not g.interior:
        return
    root = g.interior[int(rng.integers(len(g.interior)))]
    s = {root}
    for u in g.interior:
        if u != root and rng.random() < 0.5:
            s.add(u)
    # Keep only the connected piece around the root.
    comp = {root}
    stack = [root]
    while stack:
        x = stack.pop()
        for w, _ in g.adjacency[x]:
            if w in s and w not in comp:
                comp.add(w)
                stack.append(w)
    assert is_minimal_cutset(g, exposed_boundary(g, comp), root)


# ---- enumeration ----


def test_counts_p5_center():
    assert table_for("path5", 2).counts[2] == {2: 4}


def test_counts_star3_center():
    assert table_for("star3", 0).counts[0] == {3: 1}


def test_counts_grid3x3_center():
    assert table_for("grid3x3", 4).counts[4] == {4: 1}


def test_kappa_estimates():
    assert table_for("path5", 2).kappa_estimate == pytest.approx(2.0)
    assert table_for("star3", 0).kappa_estimate == pytest.approx(1.0)


def test_bruteforce_matches_components_small():
    for name in ("path5", "star5", "cycle6", "pendant_path", "diamond"):
        g = CORPUS[name]
        for v in g.interior:
            brute = enumerate_minimal_cutsets_bruteforce(g, v, g.n_edges)
            comp = enumerate_minimal_cutsets_by_components(g, v, g.n_edges)
            assert brute.cutsets == comp.cutsets


def test_enumeration_outputs_are_minimal_and_sorted():
    for name in ("k4", "wheel5", "cube_corner"):
        g = CORPUS[name]
        v = g.interior[0]
        for c in cutsets_for(name, v):
            assert is_minimal_cutset(g, c.edge_ids, v)
            assert c.edge_ids == tuple(sorted(c.edge_ids))
            assert c.source == v


def test_n_max_truncates():
    g = CORPUS["path5"]
    table = enumerate_minimal_cutsets_by_components(g, 2, 1)
    assert table.counts.get(2, {}) == {}


# ---- contraction-based counting ----


def test_karger_four_cycle():
    result = karger_count_min_cuts(cycle_graph(4), np.random.default_rng(0))
    assert result.min_cut_size == 2
    assert result.distinct_count == 6


def test_karger_deterministic_under_seed():
    g = CORPUS["wheel5"]
    a = karger_count_min_cuts(g, np.random.default_rng(7), trials=500)
    b = karger_count_min_cuts(g, np.random.default_rng(7), trials=500)
    assert a == b


def test_karger_counts_never_exceed_pair_bound():
    for name in ("cycle5", "k4", "theta6", "diamond", "bowtie"):
        g = CORPUS[name]
        result = karger_count_min_cuts(g, np.random.default_rng(3))
        n = g.n_vertices
        assert result.distinct_count <= n * (n - 1) // 2


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_karger_min_cut_size_matches_stoer_wagner(name):
    g = CORPUS[name]
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n_vertices))
    nxg.add_edges_from(g.edges)
    want, _ = nx.stoer_wagner(nxg)
    # A trial keeps a given minimum cut with probability at least 2/(n(n-1)),
    # 1/36 on these graphs of at most 9 vertices, so 600 trials all miss it
    # with probability below 5e-8.
    assert g.n_vertices <= 9
    result = karger_count_min_cuts(g, np.random.default_rng(11), trials=600)
    assert result.min_cut_size == want
    for cut in result.cuts:
        assert len(cut) == want
        rest = nx.Graph(nxg)
        rest.remove_edges_from(g.edges[e] for e in cut)
        assert not nx.is_connected(rest)


@pytest.mark.parametrize(
    "graph",
    [grid_graph(5, 5), grid_graph(4, 6), grid_graph(3, 3), cycle_graph(7), path_graph(2)]
    + [CORPUS[name] for name in ("bowtie", "k4", "rand16", "theta6", "tree7")],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_karger_lockstep_matches_the_trial_oracle(graph, seed):
    # The same best size, cuts and trial count, and the generator left in
    # the same state, as contracting one trial at a time.
    lockstep, by_trials = np.random.default_rng(seed), np.random.default_rng(seed)
    got = karger_count_min_cuts(graph, lockstep, 301)
    assert got == karger_by_trials(graph, by_trials, 301)
    assert lockstep.random() == by_trials.random()


def test_karger_tiles_are_alive_one_at_a_time(monkeypatch):
    """Five tiles of trials peak within 10% of one tile's traced peak (1.23 with the spent tile held)."""
    g = grid_graph(8, 8)
    block = 1000
    monkeypatch.setattr(_util, "_BLOCK_CELLS", block * max(g.n_vertices, g.n_edges))

    def run(trials):
        return karger_count_min_cuts(g, np.random.default_rng(3), trials)

    assert blocks_over_one(run, block) <= 1.1


def test_karger_trials_grow_with_size():
    assert default_karger_trials(4) < default_karger_trials(16)


def test_cutset_sorts_ids():
    assert Cutset((2, 1), 0).edge_ids == (1, 2)


def test_karger_result_shape():
    r = KargerResult(2, frozenset({frozenset({0, 1})}), 10)
    assert r.distinct_count == 1
