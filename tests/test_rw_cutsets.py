import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from percut import _util, path_graph
from percut._util import EventProbability, trial_generators
from percut.cutsets import verified_cutset
from percut.errors import CapExceededError, PreconditionError
from percut.graph_core import grid_graph, subdivide
from percut.rw_cutsets import (
    ABORTED,
    DECODED,
    NON_MIDPOINT,
    NOT_MINIMAL,
    _walk_block,
    crossing_matrix,
    escape_constant,
    escape_probabilities,
    escape_probability_mc,
    fundamental_matrix,
    origin_midpoint,
    qn_census_rw,
)

from corpus import CORPUS, cutsets_for
from oracles import (
    blocks_over_one, census_by_walks, fundamental_matrix_by_solve, subdivision_escape_check,
    walk_by_steps,
)


# ---- escape probabilities ----


def test_escape_p3():
    got = escape_probabilities(path_graph(3))
    assert got == pytest.approx({1: 1.0})
    assert escape_constant(path_graph(3), got) == pytest.approx(2.0, abs=1e-12)


def test_escape_p5():
    got = escape_probabilities(path_graph(5))
    assert got == pytest.approx({1: 2 / 3, 2: 1 / 2, 3: 2 / 3}, abs=1e-12)
    assert escape_constant(path_graph(5), got) == pytest.approx(1.0, abs=1e-12)


def test_escape_routes_agree_everywhere():
    for name, g in CORPUS.items():
        a = escape_probabilities(g, method="fundamental")
        b = escape_probabilities(g, method="absorbing")
        assert set(a) == set(b) == set(g.interior)
        for v in a:
            assert a[v] == pytest.approx(b[v], abs=1e-10), (name, v)
            assert 0.0 < a[v] <= 1.0


def test_escape_unknown_method():
    with pytest.raises(PreconditionError):
        escape_probabilities(path_graph(5), method="bogus")


def test_fundamental_matrix_p5():
    interior, n_mat = fundamental_matrix(path_graph(5))
    assert interior == (1, 2, 3)
    # Expected visits to the start itself: 1 / escape.
    assert n_mat[0, 0] == pytest.approx(3 / 2, abs=1e-12)
    assert n_mat[1, 1] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("block_cells", [1 << 20, 8 * 7])
def test_fundamental_matrix_is_the_whole_solve_bit_for_bit(monkeypatch, block_cells):
    """The in-place I - Q and the checked inverse change no entry, whatever the row blocks."""
    monkeypatch.setattr(_util, "_BLOCK_CELLS", block_cells)
    graphs = {**CORPUS, "grid12x12": grid_graph(12, 12)}
    for name, g in graphs.items():
        interior, n = fundamental_matrix(g)
        assert interior == g.interior, name
        want = fundamental_matrix_by_solve(g)
        assert np.array_equal(n, want), name
        assert np.array_equal(np.signbit(n), np.signbit(want)), name


def test_escape_mc_p5():
    est = escape_probability_mc(path_graph(5), 2, 20_000, seed=7)
    assert est.ci_low <= 0.5 <= est.ci_high
    assert est == escape_probability_mc(path_graph(5), 2, 20_000, seed=7)


def test_escape_mc_rejects_horizon_start():
    with pytest.raises(PreconditionError):
        escape_probability_mc(path_graph(5), 0, 100, seed=1)


@pytest.mark.parametrize("trials", [0, -3])
def test_escape_mc_rejects_bad_trials(trials):
    with pytest.raises(PreconditionError, match="trials must be positive"):
        escape_probability_mc(path_graph(5), 2, trials, seed=5)


# (name, graph, start, walks) for the escape oracle: path:5, grid:5,5 and the ladder.
ESCAPE_CASES = [
    ("path5", path_graph(5), 2, 3000),
    ("grid5x5", grid_graph(5, 5), 12, 1500),
    ("ladder", grid_graph(30, 2, horizon=(0, 29, 30, 59)), 15, 400),
]


@pytest.mark.parametrize("name, graph, v, walks", ESCAPE_CASES, ids=[c[0] for c in ESCAPE_CASES])
def test_escape_mc_counts_walks_that_never_return(name, graph, v, walks):
    # A walk escapes exactly when the walk to the horizon never comes back to
    # its start (tau == 0); the scalar oracle walks on equal streams.
    est = escape_probability_mc(graph, v, walks, seed=4)
    taus = [walk_by_steps(graph, v, rng, 10_000_000)[2] for rng in trial_generators(4, 0, walks)]
    escaped = taus.count(0)
    assert 0 < escaped < walks
    assert est == EventProbability.sampled(escaped, walks)


def test_escape_mc_step_cap(monkeypatch):
    # From the middle of path:9 the horizon is 4 steps away and a return takes
    # an even number of steps, so a walk not back after 2 steps is out after 3.
    monkeypatch.setattr(_util, "MAX_STEPS", 3)
    with pytest.raises(CapExceededError):
        escape_probability_mc(path_graph(9), 4, 100, seed=1)
    # On path:5 every walk from 2 returns or is absorbed within 2 steps.
    monkeypatch.setattr(_util, "MAX_STEPS", 2)
    assert escape_probability_mc(path_graph(5), 2, 100, seed=1).trials == 100


# ---- order-2 subdivision floors ----


def test_subdivision_escape_p3():
    report = subdivision_escape_check(subdivide(path_graph(3), 2))
    assert report.eps_base == pytest.approx(2.0, abs=1e-12)
    assert report.eps_derived_floor == pytest.approx(2 / 3, abs=1e-12)
    assert report.min_over_originals == pytest.approx(1.0, abs=1e-12)
    assert report.min_over_midpoints == pytest.approx(4 / 3, abs=1e-12)
    assert report.max_identity_residual <= 1e-9


def test_subdivision_escape_originals_exactly_halved():
    # The derived walk at an original vertex is the lazy base walk, so
    # its weighted escape is exactly half the base value.
    for name in ("path5", "star5", "grid3x3_corners", "theta6", "cube_corner"):
        g = CORPUS[name]
        base = escape_probabilities(g)
        report = subdivision_escape_check(subdivide(g, 2))
        for v in g.interior:
            weighted = report.weighted_escape[v]
            assert weighted == pytest.approx(g.degree(v) * base[v] / 2, abs=1e-9)


def test_subdivision_escape_floors_hold_on_corpus():
    for name in ("path7", "cycle6", "k4", "pendant_path", "rand11"):
        report = subdivision_escape_check(subdivide(CORPUS[name], 2))
        floor = report.eps_derived_floor
        for value in report.weighted_escape.values():
            assert value >= floor - 1e-9
        assert report.max_identity_residual <= 1e-9


def test_subdivision_escape_rejects_order3():
    with pytest.raises(PreconditionError):
        subdivision_escape_check(subdivide(path_graph(3), 3))


# ---- crossing matrices ----


def test_crossing_matrix_p5():
    p5 = path_graph(5)
    sd = subdivide(p5, 2)
    cm = crossing_matrix(sd, verified_cutset(p5, (1, 2), 2))
    assert cm.vertices == (6, 7)
    assert cm.p == pytest.approx(np.full((2, 2), 0.25), abs=1e-12)
    assert cm.eps_base == pytest.approx(1.0, abs=1e-12)
    assert cm.eps1 == pytest.approx(0.4, abs=1e-12)
    assert cm.eps2 == pytest.approx(0.0025, abs=1e-12)
    assert cm.min_cut_value == pytest.approx(0.25, abs=1e-12)


def test_crossing_matrix_symmetry_and_floor_on_corpus():
    for name in ("path7", "theta6", "grid3x3_corners", "k4_pair"):
        g = CORPUS[name]
        sd = subdivide(g, 2)
        for v in g.interior:
            for cutset in cutsets_for(name, v)[:3]:
                cm = crossing_matrix(sd, cutset)
                assert np.max(np.abs(cm.p - cm.p.T)) <= 1e-9
                if len(cm.vertices) > 1:
                    assert cm.min_cut_value >= cm.eps2 - 1e-12


def test_origin_midpoint():
    sd = subdivide(path_graph(5), 2)
    assert origin_midpoint(sd, 2) == 6
    assert origin_midpoint(sd, 1) == 5


# ---- walks and the decoded census ----


# (name, base graph, origin, walks, a step cap that aborts some walks): the
# perfbench census graphs and path:5.
WALK_CASES = [
    ("grid5x5", grid_graph(5, 5), 12, 1500, 40),
    ("ladder", grid_graph(30, 2, horizon=(0, 29, 30, 59)), 15, 60, 1000),
    ("path5", path_graph(5), 2, 1500, 10),
]
WALK_IDS = [c[0] for c in WALK_CASES]


@pytest.mark.parametrize("capped", [False, True])
@pytest.mark.parametrize("name, base, origin, walks, cap", WALK_CASES, ids=WALK_IDS)
def test_walks_match_scalar_oracle(name, base, origin, walks, cap, capped):
    # Walk for walk: one lockstep block of every walk against a walk taken one
    # scalar step at a time on an equal generator.
    max_steps = cap if capped else 10_000_000
    sd = subdivide(base, 2)
    start = origin_midpoint(sd, origin)
    rngs = trial_generators(3, 0, walks)
    tau, steps, end, first = _walk_block(sd.derived, start, rngs, max_steps)
    aborted = 0
    for t, (rng, ref) in enumerate(zip(rngs, trial_generators(3, 0, walks))):
        try:
            want = walk_by_steps(sd.derived, start, ref, max_steps)
        except CapExceededError:
            aborted += 1
            assert end[t] == -1, t
        else:
            range_c = frozenset(np.flatnonzero(first[t] <= tau[t]).tolist())
            assert (int(steps[t]), int(end[t]), int(tau[t]), range_c) == want, t
        assert rng.bit_generator.state == ref.bit_generator.state, t
    assert (0 < aborted < walks) if capped else aborted == 0


@pytest.mark.parametrize("name, base, origin, walks, cap", WALK_CASES, ids=WALK_IDS)
def test_census_matches_per_walk_samples_at_any_block_size(name, base, origin, walks, cap, monkeypatch):
    sd = subdivide(base, 2)
    want_outcomes, want_hits, ranges = census_by_walks(sd, origin, walks, 9)
    # Some range recurs in a later block of 7 walks, so the small blocks read
    # the cross-block cache as well as decoding fresh ranges together.
    blocks_of = {}
    for t, c in enumerate(ranges):
        blocks_of.setdefault(c, set()).add(t // 7)
    assert any(len(blocks) > 1 for blocks in blocks_of.values())
    one_block = qn_census_rw(sd, origin, walks, seed=9)
    assert _util._BLOCK_CELLS // (sd.derived.n_vertices + 256) >= walks
    monkeypatch.setattr(_util, "_BLOCK_CELLS", 7 * (sd.derived.n_vertices + 256))
    small_blocks = qn_census_rw(sd, origin, walks, seed=9)
    for census in (one_block, small_blocks):
        assert census.outcome_counts == want_outcomes
        assert list(census.hits.items()) == list(want_hits.items())


@pytest.mark.parametrize("route", ["census", "escape"])
def test_walk_blocks_are_alive_one_at_a_time(monkeypatch, route):
    """Five blocks of walks peak within 10% of one block's traced peak.

    The bound is tighter than the 1.25 that would do: with the spent block
    still held while the next one walked, the census read 1.33 and escape
    1.19 here.
    """
    sd, g9 = subdivide(grid_graph(5, 5), 2), grid_graph(9, 9)
    graph = sd.derived if route == "census" else g9

    def run(trials):
        if route == "census":
            return qn_census_rw(sd, 12, trials, seed=3)
        return escape_probability_mc(g9, 40, trials, seed=3)

    block = 1000
    # _walk_blocks gives each walk n + 64 + 192 cells.
    monkeypatch.setattr(_util, "_BLOCK_CELLS", block * (graph.n_vertices + 256))
    assert blocks_over_one(run, block) <= 1.1


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_census_matches_the_range_oracle_on_the_corpus(name):
    g = CORPUS[name]
    sd = subdivide(g, 2)
    origin = g.interior[0]
    want_outcomes, want_hits, _ = census_by_walks(sd, origin, 150, len(name))
    census = qn_census_rw(sd, origin, 150, seed=len(name))
    assert census.outcome_counts == want_outcomes
    assert list(census.hits.items()) == list(want_hits.items())


def test_sample_cluster_boundary_outcomes():
    # Every decoded walk is a hit on a cutset from the origin, made of base
    # edges (midpoints 5..8 of path:5's subdivision are its edges 0..3).
    census = qn_census_rw(subdivide(path_graph(5), 2), 2, trials=200, seed=5)
    assert census.outcome_counts[DECODED] > 0
    assert sum(census.hits.values()) == census.outcome_counts[DECODED]
    for cutset in census.hits:
        assert cutset.source == 2
        assert set(cutset.edge_ids) <= set(range(4))


def test_census_p5_recovers_exact_table():
    p5 = path_graph(5)
    census = qn_census_rw(subdivide(p5, 2), 2, trials=4_000, seed=11)
    assert census.trials == 4_000
    assert sum(census.outcome_counts.values()) == 4_000
    want = {c.edge_ids for c in cutsets_for("path5", 2)}
    got = {c.edge_ids for c in census.hits}
    assert got == want
    assert [c.size for c in census.hits] == [2] * 4
    for c, count in census.hits.items():
        assert census.hits[c] / census.trials == count / 4_000
    assert census.outcome_counts[ABORTED] == 0


def test_census_reproducible():
    sd = subdivide(path_graph(5), 2)
    a = qn_census_rw(sd, 2, trials=500, seed=21)
    b = qn_census_rw(sd, 2, trials=500, seed=21)
    assert a.outcome_counts == b.outcome_counts
    assert a.hits == b.hits


def test_census_outcome_names():
    sd = subdivide(path_graph(5), 2)
    census = qn_census_rw(sd, 2, trials=300, seed=2)
    assert set(census.outcome_counts) == {DECODED, NON_MIDPOINT, NOT_MINIMAL, ABORTED}


def test_census_rejects_bad_trials():
    with pytest.raises(PreconditionError):
        qn_census_rw(subdivide(path_graph(5), 2), 2, trials=0, seed=1)


# ---- properties ----


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 9))
def test_escape_symmetric_on_paths(n):
    got = escape_probabilities(path_graph(n))
    for v in range(1, n - 1):
        assert got[v] == pytest.approx(got[n - 1 - v], abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_decoded_boundaries_always_minimal(seed):
    from percut.cutsets import is_minimal_cutset

    g = CORPUS["theta6"]
    sd = subdivide(g, 2)
    origin = g.interior[seed % len(g.interior)]
    census = qn_census_rw(sd, origin, trials=20, seed=seed)
    for cutset in census.hits:
        assert is_minimal_cutset(g, cutset.edge_ids, origin)
