import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from percut import path_graph, percolation
from percut._util import trial_generators
from percut.cutsets import verified_cutset
from percut.errors import CapExceededError, PreconditionError
from percut.graph_core import grid_graph, subdivide
from percut.rw_cutsets import (
    ABORTED,
    DECODED,
    NON_MIDPOINT,
    NOT_MINIMAL,
    crossing_matrix,
    escape_constant,
    escape_probabilities,
    escape_probability_mc,
    fundamental_matrix,
    origin_midpoint,
    qn_census_rw,
    sample_cluster_boundary,
    sample_walk,
    subdivision_escape_check,
)

from corpus import CORPUS, table_for, walk_by_steps


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


def test_escape_mc_p5():
    est = escape_probability_mc(path_graph(5), 2, 20_000, seed=7)
    assert est.ci_low <= 0.5 <= est.ci_high
    assert est == escape_probability_mc(path_graph(5), 2, 20_000, seed=7)


def test_escape_mc_rejects_horizon_start():
    with pytest.raises(PreconditionError):
        escape_probability_mc(path_graph(5), 0, 100, seed=1)


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
            for cutset in list(table_for(name, v).all_cutsets())[:3]:
                cm = crossing_matrix(sd, cutset)
                assert np.max(np.abs(cm.p - cm.p.T)) <= 1e-9
                if len(cm.vertices) > 1:
                    assert cm.min_cut_value >= cm.eps2 - 1e-12


def test_origin_midpoint():
    sd = subdivide(path_graph(5), 2)
    assert origin_midpoint(sd, 2) == 6
    assert origin_midpoint(sd, 1) == 5


# ---- walks and the decoded census ----


def test_sample_walk_p5():
    trace = sample_walk(path_graph(5), 2, np.random.default_rng(0))
    assert trace.end in (0, 4)
    assert 0 <= trace.tau < trace.steps
    assert 2 in trace.range_c
    assert trace == sample_walk(path_graph(5), 2, np.random.default_rng(0))


def test_sample_walk_step_cap():
    with pytest.raises(CapExceededError):
        sample_walk(path_graph(9), 4, np.random.default_rng(0), max_steps=3)


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
    # Walk for walk: the lockstep kernel, behind both public samplers, against
    # a walk taken one scalar step at a time on an equal generator.
    max_steps = cap if capped else 10_000_000
    sd = subdivide(base, 2)
    start = origin_midpoint(sd, origin)
    aborted = 0
    for t, (rng, ref) in enumerate(zip(trial_generators(3, 0, walks), trial_generators(3, 0, walks))):
        try:
            want = walk_by_steps(sd.derived, start, ref, max_steps)
        except CapExceededError:
            aborted += 1
            with pytest.raises(CapExceededError):
                sample_walk(sd.derived, start, rng, max_steps)
        else:
            trace = sample_walk(sd.derived, start, rng, max_steps)
            assert (trace.steps, trace.end, trace.tau, trace.range_c) == want, t
        assert rng.bit_generator.state == ref.bit_generator.state, t
    assert (0 < aborted < walks) if capped else aborted == 0


@pytest.mark.parametrize("name, base, origin, walks, cap", WALK_CASES, ids=WALK_IDS)
def test_census_matches_per_walk_samples_at_any_block_size(name, base, origin, walks, cap, monkeypatch):
    sd = subdivide(base, 2)
    want_outcomes = {DECODED: 0, NON_MIDPOINT: 0, NOT_MINIMAL: 0, ABORTED: 0}
    want_hits = {}
    for rng in trial_generators(9, 0, walks):
        s = sample_cluster_boundary(sd, origin, rng)
        want_outcomes[s.outcome] += 1
        if s.decoded is not None:
            want_hits[s.decoded] = want_hits.get(s.decoded, 0) + 1
    one_block = qn_census_rw(sd, origin, walks, seed=9)
    assert percolation._BLOCK_CELLS // (sd.derived.n_vertices + 256) >= walks
    monkeypatch.setattr(percolation, "_BLOCK_CELLS", 7 * (sd.derived.n_vertices + 256))
    small_blocks = qn_census_rw(sd, origin, walks, seed=9)
    for census in (one_block, small_blocks):
        assert census.outcome_counts == want_outcomes
        assert list(census.hits.items()) == list(want_hits.items())


def test_sample_cluster_boundary_outcomes():
    sd = subdivide(path_graph(5), 2)
    rng = np.random.default_rng(5)
    outcomes = set()
    for _ in range(200):
        s = sample_cluster_boundary(sd, 2, rng, 1_000_000)
        outcomes.add(s.outcome)
        if s.outcome == DECODED:
            assert s.decoded is not None
            assert s.decoded.source == 2
            assert set(s.boundary) <= set(range(5, 9))
        else:
            assert s.decoded is None
    assert DECODED in outcomes


def test_census_p5_recovers_exact_table():
    p5 = path_graph(5)
    census = qn_census_rw(subdivide(p5, 2), 2, trials=4_000, seed=11)
    assert census.trials == 4_000
    assert sum(census.outcome_counts.values()) == 4_000
    want = {c.edge_ids for c in table_for("path5", 2).all_cutsets()}
    got = {c.edge_ids for c in census.hits}
    assert got == want
    assert census.table.counts[2] == {2: 4}
    for c, count in census.hits.items():
        assert census.frequency(c) == count / 4_000
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
    g = CORPUS["theta6"]
    sd = subdivide(g, 2)
    rng = np.random.default_rng(seed)
    origin = g.interior[int(rng.integers(len(g.interior)))]
    s = sample_cluster_boundary(sd, origin, rng, 1_000_000)
    if s.outcome == DECODED:
        from percut.cutsets import is_minimal_cutset

        assert is_minimal_cutset(g, s.decoded.edge_ids, origin)
