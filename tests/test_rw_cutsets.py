import ast
import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from percut import Graph, _util, path_graph, rw_cutsets
from percut._util import EventProbability, trial_generators
from percut.cutsets import verified_cutset
from percut.errors import (
    CapExceededError, NumericalError, PreconditionError, TheoremViolationError,
)
from percut.gff import GreenMatrix, green
from percut.graph_core import bandwidth, box3d_graph, grid_graph, subdivide
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
    origin_midpoint,
    qn_census_rw,
)

from corpus import BAND_CASES, CORPUS, complete_tree, cutsets_for
from oracles import (
    band_inverse_by_whole_rows, blocks_over_one, census_by_walks, fundamental_matrix_by_solve,
    green_matrix, scaled_by_a_millionth, subdivision_escape_check, traced_peak, walk_by_steps,
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


@pytest.mark.parametrize("order", ["narrower", "id"])
def test_escape_agrees_with_the_dense_route(monkeypatch, order):
    """The band route's escape probabilities are 1 / N_vv of the dense solve, within 1e-12.

    "narrower" lets the factor take RCM where it narrows the band; "id"
    holds every graph to the interior id order, the wider band.
    """
    if order == "id":
        monkeypatch.setattr(rw_cutsets, "reverse_cuthill_mckee", lambda graph, vertices: vertices)
    for name, g in BAND_CASES.items():
        if order == "id":
            assert rw_cutsets._band_factor(g).order == g.interior, name
        n = fundamental_matrix_by_solve(g)
        got = escape_probabilities(g)
        assert list(got) == list(g.interior), name
        for i, v in enumerate(g.interior):
            want = 1.0 / n[i, i]
            assert abs(got[v] - want) <= 1e-12 * want, (name, v)


@pytest.mark.parametrize(
    "name, field, match",
    [
        ("_band_factor", "d", "selected inverse"),
        ("_band_factor", "lower", "selected inverse"),
        ("_horizon_counts", None, "absorption identity"),
    ],
    ids=["pivots", "band", "horizon_counts"],
)
def test_escape_certificates_refuse_a_perturbed_factor(monkeypatch, name, field, match):
    """A 1e-6 relative change to the pivots, to L's band or to h is refused, not returned.

    The selected-inverse certificate multiplies by P's band rebuilt from the
    graph, so a factor whose pivots or L no longer factor P is refused there.
    """
    g = grid_graph(11, 11)
    escape_probabilities(g)
    monkeypatch.setattr(rw_cutsets, name, scaled_by_a_millionth(rw_cutsets, name, field))
    with pytest.raises(TheoremViolationError, match=match):
        escape_probabilities(g)


def test_band_factor_refuses_a_pivot_that_is_not_positive(monkeypatch):
    """With every degree one short, D - A is indefinite and elimination meets a pivot <= 0."""
    g = grid_graph(6, 6)
    monkeypatch.setattr(Graph, "degree", lambda self, v: len(self.adjacency[v]) - 1)
    with pytest.raises(NumericalError, match="pivot"):
        escape_probabilities(g)


def test_band_routes_take_an_empty_interior():
    g = path_graph(2)
    assert escape_probabilities(g) == {}
    assert green_matrix(green(g)).shape == (0, 0)


def test_band_kernel_calls_no_blas():
    """The band kernels and the field draw use elementwise numpy only: no np.linalg, no matrix product."""
    for fn in (rw_cutsets._band_factor, rw_cutsets._band_solve, rw_cutsets._band_diagonal,
               rw_cutsets._green_rows, GreenMatrix.sample_block):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree)), fn.__name__
        assert "linalg" not in {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def green_rows_in_blocks(monkeypatch, g, rows: int | None) -> np.ndarray:
    """``_green_rows`` of g's factor, ``rows`` rows a block (None: the default), stacked.

    The (k + b) x rows solve buffer takes at most half of ``_BLOCK_CELLS`` bytes.
    """
    f = rw_cutsets._band_factor(g)
    k, b = f.lower.shape
    if rows is not None:
        monkeypatch.setattr(_util, "_BLOCK_CELLS", 16 * rows * (k + b))
    blocks = [block.copy() for block in rw_cutsets._green_rows(f, g.interior)]
    assert [len(x) for x in blocks[:-1]] == [len(blocks[0])] * (len(blocks) - 1)
    assert rows is None or len(blocks[0]) == min(rows, k)
    assert all(16 * len(x) * (k + b) <= _util._BLOCK_CELLS for x in blocks)
    monkeypatch.undo()
    return np.concatenate(blocks)


@pytest.mark.parametrize("rows", [37, 1])
def test_green_rows_do_not_depend_on_the_block_size(monkeypatch, rows):
    """Rows in blocks of ``rows`` rows are bit for bit those in the default blocks.

    On the corpus, grid:30,30 and two interiors taken in reverse
    Cuthill-McKee order (the pipeline frame and box3d:12,12,12).
    """
    for name, g in BAND_CASES.items():
        want = green_rows_in_blocks(monkeypatch, g, None)
        got = green_rows_in_blocks(monkeypatch, g, rows)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
    assert rw_cutsets._band_factor(BAND_CASES["box12"]).order != BAND_CASES["box12"].interior


def test_green_rows_agree_with_the_whole_recurrence(monkeypatch):
    """Streamed rows are within 1e-12 relative of one Takahashi pass over the whole matrix."""
    for name, g in BAND_CASES.items():
        got = green_rows_in_blocks(monkeypatch, g, None)
        want = band_inverse_by_whole_rows(rw_cutsets._band_factor(g), g.interior)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), name


def test_band_order_is_no_wider_than_id_order():
    """RCM is taken only when it narrows the band: on the cube and the pipeline frame it does."""
    sd = subdivide(grid_graph(6, 6), 3)
    for g, id_width in [(box3d_graph(12, 12, 12), 100), (sd.derived, 107), (grid_graph(30, 30), 28)]:
        f = rw_cutsets._band_factor(g)
        assert sorted(f.order) == list(g.interior)
        assert bandwidth(g, g.interior) == id_width
        assert f.lower.shape[1] == bandwidth(g, f.order) <= id_width
    assert rw_cutsets._band_factor(grid_graph(30, 30)).order == grid_graph(30, 30).interior


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


def test_escape_block_holds_no_first_visit_matrix():
    """Escape reads only where each walk ends.

    One block of 907 walks on grid:30,30 peaks at about half of the walks x
    vertices int32 first-visit matrix that the census keeps; holding it, the
    block read 1.47 matrices.
    """
    g = grid_graph(30, 30)
    block = _util._BLOCK_CELLS // (g.n_vertices + 256)
    escape_probability_mc(g, 465, 1, seed=5)
    peak = traced_peak(lambda: escape_probability_mc(g, 465, block, seed=5))
    assert peak < block * g.n_vertices * 4
    # The walks that kept first visits escaped as often.
    assert escape_probability_mc(g, 465, block, seed=5) == EventProbability.sampled(351, block)


def test_escape_mc_step_cap(monkeypatch):
    # From the middle of path:9 the horizon is 4 steps away and a return takes
    # an even number of steps, so a walk not back after 2 steps is out after 3.
    monkeypatch.setattr(_util, "MAX_STEPS", 3)
    with pytest.raises(CapExceededError):
        escape_probability_mc(path_graph(9), 4, 100, seed=1)
    # On path:5 every walk from 2 returns or is absorbed within 2 steps.
    monkeypatch.setattr(_util, "MAX_STEPS", 2)
    assert escape_probability_mc(path_graph(5), 2, 100, seed=1).trials == 100


@pytest.mark.parametrize("d, depth", [(2, 9), (3, 6)])
def test_complete_tree_root_escape_matches_the_closed_form(d, depth):
    # Level r is d^r unit resistors in parallel, so R_eff = sum of d^-r and escape = 1 / (d R_eff).
    want = 1.0 / (d * sum(float(d) ** -r for r in range(1, depth + 1)))
    assert escape_probabilities(complete_tree(d, depth))[0] == pytest.approx(want, abs=1e-12)


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
def test_walks_match_scalar_oracle(name, base, origin, walks, cap, capped, monkeypatch):
    # Walk for walk: one lockstep block of every walk against a walk taken one
    # scalar step at a time on an equal generator.
    if capped:
        monkeypatch.setattr(_util, "MAX_STEPS", cap)
    sd = subdivide(base, 2)
    start = origin_midpoint(sd, origin)
    rngs = trial_generators(3, 0, walks)
    tau, end, first = _walk_block(sd.derived, start, rngs, first_visits=True)
    # Without first visits the walks, their ends and their taus are the same.
    bare = _walk_block(sd.derived, start, trial_generators(3, 0, walks), first_visits=False)
    assert bare[2] is None
    assert np.array_equal(bare[0], tau) and np.array_equal(bare[1], end)
    aborted = 0
    for t, (rng, ref) in enumerate(zip(rngs, trial_generators(3, 0, walks))):
        try:
            _, *want = walk_by_steps(sd.derived, start, ref, _util.MAX_STEPS)
        except CapExceededError:
            aborted += 1
            assert end[t] == -1, t
        else:
            range_c = frozenset(np.flatnonzero(first[t] <= tau[t]).tolist())
            assert [int(end[t]), int(tau[t]), range_c] == want, t
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
