import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import reverse_cuthill_mckee as scipy_rcm

from percut import Graph, _util
from percut.cutsets import exposed_boundary
from percut.errors import CapExceededError, GraphStructureError, ParseError, PreconditionError
from percut.graph_core import (
    UnionFind,
    bandwidth,
    boundary_edges,
    box3d_graph,
    connected_subsets_containing,
    cycle_graph,
    exposed_bits,
    flood,
    grid_graph,
    load_graph,
    path_graph,
    reverse_cuthill_mckee,
    set_weight,
    star_graph,
    subdivide,
)

from corpus import BAND_CASES, CORPUS
from oracles import (
    Multigraph, component_labels, contract_subdivision, dump_graph, euler_circuit_edges,
    eulerian_from_two_trees, exposed_boundary_by_search, iso_profile, search,
)


# ---- construction and validation ----


def test_edges_normalized_and_adjacency_consistent():
    g = Graph(3, ((1, 0), (2, 1)), frozenset({0}))
    assert g.edges == ((0, 1), (1, 2))
    for v in range(3):
        assert g.degree(v) == len(g.adjacency[v])
    assert [w for w, _ in g.adjacency[1]] == [0, 2]


def test_rejects_self_loop():
    with pytest.raises(GraphStructureError):
        Graph(2, ((0, 0), (0, 1)), frozenset())


def test_rejects_duplicate_edge():
    with pytest.raises(GraphStructureError):
        Graph(2, ((0, 1), (1, 0)), frozenset())


def test_rejects_out_of_range_endpoint():
    with pytest.raises(GraphStructureError):
        Graph(2, ((0, 2),), frozenset())


def test_rejects_disconnected():
    with pytest.raises(GraphStructureError):
        Graph(4, ((0, 1), (2, 3)), frozenset())


def test_rejects_bad_horizon_member():
    with pytest.raises(GraphStructureError):
        Graph(2, ((0, 1),), frozenset({5}))


# ---- parsing ----


def test_load_graph_p5_with_slash_separators():
    g = load_graph("v 5 / z 0 4 / e 0 1 / e 1 2 / e 2 3 / e 3 4")
    assert g == path_graph(5)


def test_load_graph_multiline_with_comments():
    text = """# a path
v 3
z 0 2
e 0 1
e 1 2
"""
    g = load_graph(text)
    assert g == path_graph(3)
    assert load_graph(dump_graph(g)) == g


def test_load_graph_self_loop_reports_line():
    with pytest.raises(ParseError) as err:
        load_graph("v 2\ne 1 1\ne 0 1")
    assert "line 2" in str(err.value)


def test_load_graph_disconnected_rejected():
    with pytest.raises(GraphStructureError):
        load_graph("v 4 / e 0 1 / e 2 3")


def test_load_graph_garbage_rejected():
    with pytest.raises(ParseError):
        load_graph("v 2 / q 0 1")
    with pytest.raises(ParseError):
        load_graph("e 0 1")


def test_dump_round_trip_on_corpus():
    for g in CORPUS.values():
        assert load_graph(dump_graph(g)) == g


# ---- the traversal kernel and its one-search reference ----


def test_search_p5_cases():
    p5 = path_graph(5)
    # Horizon vertices absorb: touched, never returned.
    assert search(p5, (2,)) == ({1, 2, 3}, True)
    assert search(p5, (2,), avoid={1, 3}) == ({2}, False)
    assert 2 in search(p5, (1,), avoid={3})[0]
    assert 3 not in search(p5, (1,), avoid={2})[0]
    assert 4 not in search(p5, (1,))[0]
    assert search(p5, (1,), is_open=(True, True, False, True)) == ({1, 2}, True)
    assert search(p5, (1,), is_open=(False, True, False, True)) == ({1, 2}, False)


def test_search_avoid_p5():
    p5 = path_graph(5)
    assert search(p5, (1, 2, 3)) == ({1, 2, 3}, True)
    assert search(p5, (1, 3), avoid={2}) == ({1, 3}, True)
    assert search(p5, (1,), avoid={2}) == ({1}, True)
    assert search(p5, (3,), avoid={1, 2}) == ({3}, True)


def test_search_stops_at_the_horizon():
    p5 = path_graph(5)
    reached, touched = search(p5, (1,), stop_at_horizon=True)
    assert touched and 1 in reached and reached <= {1, 2, 3}
    assert search(p5, (2,), avoid={1, 3}, stop_at_horizon=True) == ({2}, False)


def test_search_expands_its_sources_even_on_the_horizon():
    p5 = path_graph(5)
    assert search(p5, (0,)) == ({0, 1, 2, 3}, True)
    assert search(p5, (0,), is_open=(False, True, True, True)) == ({0}, False)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_flood_is_search_in_every_trial(name):
    # Bit t of each edge's int is trial t's open bit; every untouched trial's
    # bits are its whole cluster, and the touched bits are the touched trials.
    # Sources: each vertex, the horizon (passed through, never touched) and
    # random seed sets; they start with the trials of ``full`` only.
    g = CORPUS[name]
    rng = np.random.default_rng(len(name))
    rows = (rng.random((70, g.n_edges)) < rng.random((70, 1))).tolist()
    bits = [sum(row[eid] << t for t, row in enumerate(rows)) for eid in range(g.n_edges)]
    full = sum(1 << t for t in range(70) if rng.random() < 0.8)
    seed_sets = [(v,) for v in range(g.n_vertices)] + [tuple(g.horizon)] + [
        tuple(rng.choice(g.n_vertices, size, replace=False).tolist())
        for size in rng.integers(1, g.n_vertices + 1, 6)
    ]
    for sources in seed_sets:
        reach, touched = flood(g, sources, bits, full)
        if sources == tuple(g.horizon):
            assert touched == 0
        for t, row in enumerate(rows):
            if not full >> t & 1:
                assert not touched >> t & 1 and not any(r >> t & 1 for r in reach)
                continue
            cluster, hit = search(g, sources, row, stop_at_horizon=True)
            assert bool(touched >> t & 1) == hit
            if not hit:
                assert {u for u in range(g.n_vertices) if reach[u] >> t & 1} == cluster


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_exposed_bits_is_exposed_boundary_in_every_trial(name):
    # Trial t's set is sets[t]: every singleton off the horizon, then random sets.
    g = CORPUS[name]
    rng = np.random.default_rng(len(name) + 2)
    sets = [{v} for v in g.interior] + [
        {v for v in g.interior if rng.random() < q} for q in rng.random(60)
    ]
    inside = [sum(1 << t for t, s in enumerate(sets) if u in s) for u in range(g.n_vertices)]
    exposed = exposed_bits(g, inside, (1 << len(sets)) - 1)
    for t, s in enumerate(sets):
        got = tuple(eid for eid, bits in enumerate(exposed) if bits >> t & 1)
        assert got == exposed_boundary_by_search(g, s) == exposed_boundary(g, s), (t, s)


def test_exposed_bits_refuses_a_set_on_the_horizon():
    p5 = path_graph(5)
    with pytest.raises(PreconditionError):
        exposed_bits(p5, [0, 0, 0, 0, 1], 1)


def test_union_find_counts_components():
    sets = UnionFind(5)
    assert sets.union(0, 1) and sets.union(3, 4)
    assert not sets.union(1, 0)
    assert sets.components == 3
    assert sets.find(0) == sets.find(1) != sets.find(2)
    assert sets.find(3) == sets.find(4)


def test_component_labels_p5_region():
    # Region (1, 2, 3) of path:5 as indices 0..2, induced edges 1-2 and 2-3.
    ends = [(0, 1), (1, 2)]
    rows = np.array([[True, False], [True, True], [False, False], [False, True]])
    labels = component_labels(3, ends, rows)
    assert labels.tolist() == [[0, 0, 2], [0, 0, 0], [0, 1, 2], [0, 1, 1]]
    assert component_labels(2, [], np.ones((3, 0), dtype=bool)).tolist() == [[0, 1]] * 3


def _random_graph(rng, n):
    # A random spanning tree plus a few extra edges, with a random horizon.
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    for _ in range(int(rng.integers(0, n))):
        u, v = sorted(int(x) for x in rng.choice(n, 2, replace=False))
        edges.add((u, v))
    size = int(rng.integers(0, n // 2 + 1))
    horizon = frozenset(int(z) for z in rng.choice(n, size, replace=False))
    return Graph(n, tuple(sorted(edges)), horizon)


def _partition(labels):
    groups = {}
    for x, label in enumerate(labels):
        groups.setdefault(int(label), set()).add(x)
    return sorted(map(sorted, groups.values()))


def test_search_matches_networkx_components():
    rng = np.random.default_rng(17)
    for _ in range(300):
        g = _random_graph(rng, int(rng.integers(2, 16)))
        is_open = tuple(bool(b) for b in rng.random(g.n_edges) < 0.7)
        avoid = frozenset(int(x) for x in rng.choice(g.n_vertices, int(rng.integers(0, 4))))
        free = [v for v in range(g.n_vertices) if v not in avoid and v not in g.horizon]
        if not free:
            continue
        sources = {int(x) for x in rng.choice(free, int(rng.integers(1, 3)))}
        # Oracle: open edges between free vertices; the horizon is reached, never crossed.
        h = nx.Graph()
        h.add_nodes_from(free)
        h.add_edges_from(e for e, ok in zip(g.edges, is_open) if ok and set(e) <= set(free))
        expected = set().union(*(nx.node_connected_component(h, s) for s in sources))
        targets = g.horizon - avoid
        touched = any(
            ok and ((u in expected and v in targets) or (v in expected and u in targets))
            for (u, v), ok in zip(g.edges, is_open)
        )
        assert search(g, sources, is_open, avoid) == (expected, touched)
        partial, stopped = search(g, sources, is_open, avoid, stop_at_horizon=True)
        assert stopped == touched and sources <= partial <= expected
        if not touched:
            assert partial == expected


def test_union_find_and_component_labels_match_scipy():
    rng = np.random.default_rng(23)
    for _ in range(100):
        k = int(rng.integers(1, 12))
        n_edges = int(rng.integers(0, 2 * k))
        ends = [tuple(int(x) for x in rng.integers(0, k, 2)) for _ in range(n_edges)]
        rows = rng.random((8, len(ends))) < 0.5
        labels = component_labels(k, ends, rows)
        for row, got in zip(rows, labels):
            picked = [e for e, ok in zip(ends, row) if ok]
            heads, tails = [a for a, _ in picked], [b for _, b in picked]
            adj = csr_matrix((np.ones(len(picked)), (heads, tails)), shape=(k, k))
            n_comp, expected = connected_components(adj, directed=False)
            assert _partition(got) == _partition(expected)
            # Each label is the smallest vertex of its component.
            assert all(got[x] == np.flatnonzero(expected == expected[x])[0] for x in range(k))
            sets = UnionFind(k)
            for a, b in picked:
                sets.union(a, b)
            assert sets.components == n_comp
            assert _partition([sets.find(x) for x in range(k)]) == _partition(expected)


# ---- subdivision ----


def test_subdivide_order2_p5():
    sd = subdivide(path_graph(5), 2)
    assert sd.derived.n_vertices == 9
    assert sd.derived.horizon == frozenset({0, 4})
    for eid in range(4):
        (mid,) = sd.midpoints[eid]
        assert sd.derived.degree(mid) == 2
        assert sd.is_midpoint(mid)
        assert sd.base_edge_of(mid) == eid
    for v in range(5):
        assert sd.derived.degree(v) == path_graph(5).degree(v)


def test_subdivide_order3_triangle():
    tri = cycle_graph(3, horizon=(0,))
    sd = subdivide(tri, 3)
    assert sd.derived.n_vertices == 9
    assert sd.derived.n_edges == 9
    for eid in range(3):
        m1, m2 = sd.midpoints[eid]
        u, v = tri.edges[eid]
        assert (min(u, m1), max(u, m1)) in sd.derived.edges
        assert sd.derived.edges.index((m1, m2)) == sd.mid_edge_id(eid)
        assert (min(m2, v), max(m2, v)) in sd.derived.edges


def test_subdivide_rejects_other_orders():
    with pytest.raises(PreconditionError):
        subdivide(path_graph(3), 4)


def test_contract_round_trip_on_corpus():
    for g in CORPUS.values():
        for order in (2, 3):
            assert contract_subdivision(subdivide(g, order)) == g


def test_projected_walks_respect_base_adjacency():
    g = CORPUS["grid3x3_corners"]
    sd = subdivide(g, 3)
    rng = np.random.default_rng(4)
    x = 4
    originals = [x]
    for _ in range(4000):
        nbrs = sd.derived.adjacency[x]
        x = nbrs[rng.integers(len(nbrs))][0]
        if not sd.is_midpoint(x) and x != originals[-1]:
            originals.append(x)
    for a, b in zip(originals, originals[1:]):
        assert (min(a, b), max(a, b)) in g.edges


# ---- multigraphs, trees, euler circuits ----


def test_multigraph_loops_and_degrees():
    mg = Multigraph(2, ((0, 0), (0, 1), (0, 1)))
    assert mg.degree(0) == 4
    assert mg.degree(1) == 2


def test_spanning_tree_detection():
    mg = Multigraph(3, ((0, 1), (1, 2), (0, 2)))
    assert mg.is_spanning_tree((0, 1))
    assert not mg.is_spanning_tree((0,))
    assert not mg.is_spanning_tree((0, 1, 2))


def test_two_trees_parallel_pair():
    mg = Multigraph(2, ((0, 1), (0, 1)))
    assert eulerian_from_two_trees(mg, (0,), (1,)) == (0, 1)


def test_two_trees_path_pair_degrees():
    mg = Multigraph(3, ((0, 1), (1, 2), (0, 1), (1, 2)))
    out = eulerian_from_two_trees(mg, (0, 1), (2, 3))
    assert out == (0, 1, 2, 3)
    degree = [0, 0, 0]
    for eid in out:
        for end in mg.edges[eid]:
            degree[end] += 1
    assert degree == [2, 4, 2]


def test_two_trees_star_symmetric_difference():
    # T1 star at 0; odd vertices are the leaves 1 and 2.
    mg = Multigraph(3, ((0, 1), (0, 2), (1, 2), (0, 1)))
    out = eulerian_from_two_trees(mg, (0, 1), (2, 3))
    degree = [0, 0, 0]
    for eid in out:
        for end in mg.edges[eid]:
            degree[end] += 1
    assert all(d % 2 == 0 for d in degree)
    assert all(d > 0 for d in degree)


def test_two_trees_rejects_overlap_and_non_trees():
    mg = Multigraph(3, ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(PreconditionError):
        eulerian_from_two_trees(mg, (0, 1), (1, 2))
    mg4 = Multigraph(3, ((0, 1), (1, 2), (0, 2), (0, 1)))
    with pytest.raises(PreconditionError):
        eulerian_from_two_trees(mg4, (0, 1), (2,))


def test_euler_circuit_triangle():
    mg = Multigraph(3, ((0, 1), (1, 2), (0, 2)))
    walk = euler_circuit_edges(mg, (0, 1, 2), 0)[0]
    assert walk[0] == walk[-1] == 0
    assert len(walk) == 4
    assert set(walk) == {0, 1, 2}


def test_euler_circuit_parallel_pair():
    mg = Multigraph(2, ((0, 1), (0, 1)))
    assert euler_circuit_edges(mg, (0, 1), 0)[0] == [0, 1, 0]


def test_euler_circuit_figure_eight_uses_each_edge_once():
    mg = Multigraph(
        5, ((0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4))
    )
    vertices, eids = euler_circuit_edges(mg, tuple(range(6)), 0)
    assert vertices[0] == vertices[-1] == 0
    assert sorted(eids) == list(range(6))
    for i, eid in enumerate(eids):
        assert set(mg.edges[eid]) == {vertices[i], vertices[i + 1]}


def test_euler_circuit_rejects_odd_degrees():
    mg = Multigraph(2, ((0, 1),))
    with pytest.raises(PreconditionError):
        euler_circuit_edges(mg, (0,), 0)


# ---- subset enumeration and isoperimetry ----


def _nx_graph(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.n_vertices))
    g.add_edges_from(graph.edges)
    return g


def _brute_connected_subsets(graph, root, allowed):
    allowed = frozenset(allowed)
    g = _nx_graph(graph)
    found = []
    members = sorted(allowed - {root})
    for k in range(len(members) + 1):
        for combo in itertools.combinations(members, k):
            s = frozenset(combo) | {root}
            if nx.is_connected(g.subgraph(s)):
                found.append(s)
    return found


def test_connected_subset_enumeration_matches_bruteforce():
    for name in ("path5", "cycle5", "k4", "grid2x3_corners", "bowtie"):
        g = CORPUS[name]
        root = g.interior[0]
        enum = list(connected_subsets_containing(g, root, set(g.interior), 1 << 20))
        brute = _brute_connected_subsets(g, root, g.interior)
        assert sorted(map(sorted, enum)) == sorted(map(sorted, brute))
        assert len(enum) == len(set(map(frozenset, enum)))


def test_set_weight_and_boundary():
    p5 = path_graph(5)
    assert set_weight(p5, {2}) == 2
    assert set_weight(p5, {1, 2, 3}) == 6
    assert boundary_edges(p5, {1, 2, 3}) == (0, 3)


def test_iso_profile_cycle4_no_horizon():
    assert iso_profile(cycle_graph(4), 2) == 2


def test_iso_profile_p5():
    assert iso_profile(path_graph(5), 2) == 2


def test_iso_profile_star_leaf():
    assert iso_profile(star_graph(3, horizon=()), 1) == 1


def test_iso_profile_threshold_too_high():
    assert iso_profile(path_graph(5), 100) == float("inf")


def _iso_profile_reversed(graph, n):
    # Same exhaustive minimum, iterating subsets in the reverse order.
    interior = list(graph.interior)
    best = float("inf")
    for mask in range((1 << len(interior)) - 1, 0, -1):
        s = {interior[i] for i in range(len(interior)) if mask >> i & 1}
        if len(s) == graph.n_vertices:
            continue
        if set_weight(graph, s) >= n:
            best = min(best, len(boundary_edges(graph, s)))
    return best


def test_iso_profile_agrees_with_independent_order():
    for name in ("path5", "cycle6", "k4_pair", "grid2x3_corners"):
        g = CORPUS[name]
        for n in (1, 2, 4):
            assert iso_profile(g, n) == _iso_profile_reversed(g, n)


def test_iso_profile_cap(monkeypatch):
    monkeypatch.setattr(_util, "SWEEP_EDGES", 3)
    assert iso_profile(path_graph(5), 2) == 2
    monkeypatch.setattr(_util, "SWEEP_EDGES", 2)
    with pytest.raises(CapExceededError, match="3 non-horizon vertices"):
        iso_profile(path_graph(5), 2)


# ---- generators ----


def test_grid_boundary_and_torus():
    g = grid_graph(3, 3)
    assert sorted(g.horizon) == [0, 1, 2, 3, 5, 6, 7, 8]
    t = grid_graph(3, 3, torus=True)
    assert t.horizon == frozenset()
    assert all(t.degree(v) == 4 for v in range(9))
    with pytest.raises(PreconditionError):
        grid_graph(2, 3, torus=True)


def test_box3d_shell():
    b = box3d_graph(3, 3, 3)
    assert len(b.horizon) == 26
    assert b.interior == (13,)
    assert b.degree(13) == 6


def test_star_and_cycle():
    s = star_graph(4)
    assert s.degree(0) == 4
    assert s.horizon == frozenset({1, 2, 3, 4})
    c = cycle_graph(5)
    assert c.horizon == frozenset()


@given(st.integers(2, 30))
def test_path_generator_shape(n):
    g = path_graph(n)
    assert g.n_edges == n - 1
    assert g.horizon == frozenset({0, n - 1})


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_random_connected_subsets_have_connected_members(seed, n):
    # Enumeration output on a random tree-plus-extras graph stays connected.
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    g = Graph(n, tuple(sorted(edges)), frozenset({0}))
    subsets = list(connected_subsets_containing(g, g.interior[0], set(g.interior), 1 << 16))
    nx_g = _nx_graph(g)
    for s in subsets:
        assert nx.is_connected(nx_g.subgraph(s))


# ---- vertex orders ----


@pytest.mark.parametrize("name", list(BAND_CASES))
def test_reverse_cuthill_mckee_is_a_breadth_first_order(name):
    """A permutation in which every vertex but a component's last has a later neighbour.

    Read backwards it is a breadth-first order, so each vertex's parent comes
    after it; its bandwidth is no wider than scipy's reverse Cuthill-McKee.
    """
    g = BAND_CASES[name]
    order = reverse_cuthill_mckee(g, g.interior)
    assert sorted(order) == list(g.interior)
    assert order == reverse_cuthill_mckee(g, g.interior)
    pos = {v: i for i, v in enumerate(order)}
    inner = {v: [w for w, _ in g.adjacency[v] if w in pos] for v in order}
    roots = [v for v in order if not any(pos[w] > pos[v] for w in inner[v])]
    index = {v: i for i, v in enumerate(g.interior)}
    rows = [index[v] for v in g.interior for _ in inner[v]]
    cols = [index[w] for v in g.interior for w in inner[v]]
    m = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(index), len(index)))
    n_parts = connected_components(m, directed=False)[0]
    assert len(roots) == n_parts
    theirs = [g.interior[i] for i in scipy_rcm(m, symmetric_mode=True)]
    assert bandwidth(g, order) <= bandwidth(g, theirs)


def test_bandwidth_counts_only_edges_inside_the_order():
    g = path_graph(5)
    assert bandwidth(g, (1, 2, 3)) == 1
    assert bandwidth(g, (2, 1, 3)) == 2
    assert bandwidth(g, (1, 3)) == 0
    assert bandwidth(grid_graph(30, 30), grid_graph(30, 30).interior) == 28
