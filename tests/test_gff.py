import math
import tracemalloc

import numpy as np
import pytest

from percut import _util, grid_graph, path_graph
from percut._util import EventProbability
from percut.cutsets import verified_cutset
from percut.errors import PreconditionError, TheoremViolationError
from percut.gff import GreenMatrix, cutset_frame, green, section8_pipeline
from percut.rw_cutsets import escape_probabilities

from corpus import CORPUS
import oracles
from oracles import (
    GaussianField, domination_endpoint_check, excursion_cluster, green_by_whole_matrices,
    markov_check, sample_field, section8_by_samples, sign_bound_check,
)


P5_GREEN = np.array([[0.75, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 0.75]])


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# ---- covariance assembly ----


def test_green_p3():
    gm = green(path_graph(3))
    assert gm.interior == (1,)
    assert gm.g == pytest.approx(np.array([[0.5]]), abs=1e-12)


def test_green_p5():
    gm = green(path_graph(5))
    assert gm.interior == (1, 2, 3)
    assert gm.g == pytest.approx(P5_GREEN, abs=1e-12)
    assert gm.g[gm.index(2), gm.index(2)] == pytest.approx(1.0, abs=1e-12)
    assert gm.g[gm.index(1), gm.index(3)] == pytest.approx(0.25, abs=1e-12)
    assert not gm.jitter_used


def test_green_diagonal_identity_on_corpus():
    for name, g in CORPUS.items():
        gm = green(g)
        escape = escape_probabilities(g)
        for v in gm.interior:
            product = gm.g[gm.index(v), gm.index(v)] * g.degree(v) * escape[v]
            assert abs(product - 1.0) <= 1e-9, name
        assert float(np.max(np.abs(gm.g - gm.g.T))) <= 1e-9


def test_green_check_fires_above_64_interior_vertices(monkeypatch):
    # grid:11,11 has 81 interior vertices, past the independent escape route.
    import percut.gff
    import percut.rw_cutsets

    exact = percut.rw_cutsets.fundamental_matrix

    def scaled(graph):
        interior, n = exact(graph)
        return interior, n * (1.0 + 1e-6)

    g = grid_graph(11, 11)
    assert len(green(g).interior) == 81
    monkeypatch.setattr(percut.gff, "fundamental_matrix", scaled)
    monkeypatch.setattr(percut.rw_cutsets, "fundamental_matrix", scaled)
    with pytest.raises(TheoremViolationError):
        green(g)


@pytest.mark.parametrize("block_cells", [1 << 20, 8 * 5])
def test_green_is_the_whole_matrix_route_bit_for_bit(monkeypatch, block_cells):
    """Dividing in place and symmetrizing by strips change no entry, whatever the strips."""
    monkeypatch.setattr(_util, "_BLOCK_CELLS", block_cells)
    graphs = {**CORPUS, "grid12x12": grid_graph(12, 12)}
    for name, g in graphs.items():
        got, want = green(g).g, green_by_whole_matrices(g)
        assert np.array_equal(got, want), name
        assert np.array_equal(np.signbit(got), np.signbit(want)), name


@pytest.mark.parametrize("route", [green, escape_probabilities])
def test_dense_routes_hold_at_most_three_matrices(route):
    """green and escape_probabilities on grid:30,30 trace at most 3 k x k float matrices."""
    g = grid_graph(30, 30)
    k = len(g.interior)
    route(grid_graph(4, 4))  # lazy imports before tracing
    tracemalloc.start()
    try:
        route(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * k * k * 8


def test_pipeline_holds_one_field_block_at_a_time():
    """Three blocks on the benchmark cutset trace below 2.5 field blocks.

    Drawing a block holds its normals z and z @ factor.T, two blocks; the
    spent block still held besides took the peak to 3.4.
    """
    g = grid_graph(6, 6)
    cutset = verified_cutset(g, (27, 35, 37, 38), 20)
    section8_pipeline(g, cutset, 1, seed=5)  # lazy imports before tracing
    k = len(green(cutset_frame(g, cutset).sd.derived).interior)
    peak = oracles.traced_peak(lambda: section8_pipeline(g, cutset, 3 * 4096, seed=5))
    assert peak <= 2.5 * 4096 * k * 8


def test_green_index_rejects_horizon():
    gm = green(path_graph(5))
    with pytest.raises(PreconditionError):
        gm.index(0)


def test_green_matrix_asymmetry_guard():
    g5 = path_graph(5)
    bad = P5_GREEN.copy()
    bad[0, 2] += 1e-6
    with pytest.raises(TheoremViolationError):
        GreenMatrix(g5, (1, 2, 3), bad)


@pytest.mark.parametrize(
    "g",
    [np.array([[np.nan]]), np.array([[np.inf]]), np.array([[2.0, np.nan], [np.nan, 2.0]])],
    ids=["nan", "inf", "nan_off_diagonal"],
)
def test_green_matrix_refuses_a_non_finite_asymmetry_gap(g):
    with pytest.raises(TheoremViolationError, match="asymmetry nan"):
        GreenMatrix(path_graph(2 + len(g)), tuple(range(1, 1 + len(g))), g)


def test_green_matrix_owns_and_symmetrizes_its_array():
    off = P5_GREEN.copy()
    off[0, 2] += 1e-12
    kept = off.copy()
    gm = GreenMatrix(path_graph(5), (1, 2, 3), off)
    assert gm.g is off
    assert np.array_equal(off, (kept + kept.T) / 2.0)


def test_green_matrix_jitters_a_copy_of_the_diagonal():
    """A singular PSD matrix factors once 1e-12 is on its diagonal; g itself keeps no jitter.

    The matrix keeps the array it is given, so the bump must land in either layout.
    """
    for order in "CF":
        gm = GreenMatrix(path_graph(4), (1, 2), np.ones((2, 2), order=order))
        assert gm.jitter_used
        assert np.array_equal(gm.g, np.ones((2, 2)))
        assert np.array_equal(gm.factor, np.linalg.cholesky(np.ones((2, 2)) + 1e-12 * np.eye(2)))


def test_green_matrix_rejects_indefinite():
    from percut.errors import NumericalError

    with pytest.raises(NumericalError):
        GreenMatrix(path_graph(3), (1,), np.array([[-1.0]]))


# ---- sampling ----


def test_sample_field_seeded():
    gm = green(path_graph(5))
    a = sample_field(gm, 42)
    b = sample_field(gm, 42)
    assert a.values == b.values
    assert a.seed == 42
    assert set(a.as_dict()) == {1, 2, 3}
    assert a.value(2) == a.values[1]


def test_sample_field_generator_input():
    gm = green(path_graph(5))
    f = sample_field(gm, np.random.default_rng(1))
    assert f.seed is None
    assert len(f.values) == 3


def test_sample_block_covariance_close():
    gm = green(path_graph(5))
    rng = np.random.default_rng(99)
    block = gm.sample_block(rng, 60_000)
    emp = block.T @ block / block.shape[0]
    # SE of each entry is about sqrt((g_xx g_yy + g_xy^2) / n) <= 0.006.
    assert np.max(np.abs(emp - gm.g)) <= 5 * math.sqrt(2.0 / 60_000)


def test_variance_bounded_by_escape_floor():
    # Diagonal of the covariance is 1 / (degree x escape) <= 1 / eps.
    from percut.rw_cutsets import escape_constant, escape_probabilities

    for name, g in CORPUS.items():
        gm = green(g)
        eps = escape_constant(g, escape_probabilities(g))
        for v in gm.interior:
            assert gm.g[gm.index(v), gm.index(v)] <= 1.0 / eps + 1e-9


# ---- level-set clusters ----


def test_excursion_cluster_explicit_values():
    gm = green(path_graph(5))
    field = GaussianField((0.5, -0.2, 0.3), gm, None)
    assert excursion_cluster(field, 1) == frozenset({1})
    assert excursion_cluster(field, 2) == frozenset()
    assert excursion_cluster(field, 3) == frozenset({3})
    assert excursion_cluster(field, 1, level=-1.0) == frozenset({1, 2, 3})


def test_excursion_cluster_rejects_horizon_origin():
    gm = green(path_graph(5))
    field = sample_field(gm, 7)
    with pytest.raises(PreconditionError):
        excursion_cluster(field, 0)


# ---- markov property ----


def test_markov_check_p5():
    gm = green(path_graph(5))
    assert markov_check(gm, {2}) <= 1e-9
    assert markov_check(gm, {1, 3}) <= 1e-9
    assert markov_check(gm, set()) == 0.0
    assert markov_check(gm, {1, 2, 3}) == 0.0


def test_markov_check_wider_corpus():
    for name in ("theta6", "k4_pair", "grid3x3_corners", "cube_corner", "rand11"):
        g = CORPUS[name]
        gm = green(g)
        interior = list(gm.interior)
        if len(interior) >= 2:
            assert markov_check(gm, {interior[0]}) <= 1e-9
        if len(interior) >= 3:
            assert markov_check(gm, set(interior[:2])) <= 1e-9


def test_markov_check_rejects_outsiders():
    gm = green(path_graph(5))
    with pytest.raises(PreconditionError):
        markov_check(gm, {0})


# ---- order-3 frames ----


def test_cutset_frame_p5_singleton_component():
    p5 = path_graph(5)
    frame = cutset_frame(p5, verified_cutset(p5, (1, 2), 2))
    assert frame.mid_edge_ids == (4, 7)
    assert frame.x_vertices == (8, 9)
    assert frame.y_vertices == (7, 10)
    assert frame.inner_vertices == (2, 2)
    assert frame.component == frozenset({2, 8, 9})


def test_cutset_frame_p5_wide_component():
    p5 = path_graph(5)
    frame = cutset_frame(p5, verified_cutset(p5, (0, 3), 2))
    assert frame.mid_edge_ids == (1, 10)
    assert frame.x_vertices == (6, 11)
    assert frame.y_vertices == (5, 12)
    assert frame.inner_vertices == (1, 3)
    assert frame.component == frozenset({1, 2, 3, 6, 7, 8, 9, 10, 11})


def test_cutset_frame_structure_on_corpus():
    from corpus import cutsets_for

    for name in ("pendant3", "theta6", "k4"):
        g = CORPUS[name]
        v = g.interior[0]
        for cutset in cutsets_for(name, v)[:3]:
            frame = cutset_frame(g, cutset)
            assert len(frame.x_vertices) == cutset.size
            assert v in frame.component
            for x, y, inner in zip(
                frame.x_vertices, frame.y_vertices, frame.inner_vertices
            ):
                assert x in frame.component
                assert y not in frame.component
                assert (min(inner, x), max(inner, x)) in frame.sd.derived.edges
                assert (min(x, y), max(x, y)) in frame.sd.derived.edges


# ---- clamped-field pipeline ----


def test_pipeline_pendant():
    g = CORPUS["pendant3"]
    report = section8_pipeline(g, verified_cutset(g, (2,), 3), trials=30_000, seed=77)
    assert report.trials == 30_000
    assert report.f_count > 0
    assert report.fe_count <= report.f_count
    assert report.fe_count <= report.e_count
    assert report.boundary_count >= report.fe_count
    f_prob = EventProbability.sampled(report.f_count, report.trials)
    assert f_prob.ci_low <= f_prob.value <= f_prob.ci_high


def test_pipeline_reproducible():
    g = CORPUS["pendant3"]
    c = verified_cutset(g, (2,), 3)
    a = section8_pipeline(g, c, trials=5_000, seed=3)
    b = section8_pipeline(g, c, trials=5_000, seed=3)
    assert (a.f_count, a.e_count, a.fe_count, a.boundary_count) == (
        b.f_count,
        b.e_count,
        b.fe_count,
        b.boundary_count,
    )


def test_pipeline_p5():
    p5 = path_graph(5)
    report = section8_pipeline(p5, verified_cutset(p5, (1, 2), 2), trials=20_000, seed=5)
    assert report.fe_count <= min(report.f_count, report.e_count)
    assert report.boundary_count >= report.fe_count


def _counts(report):
    return report.f_count, report.e_count, report.fe_count, report.boundary_count


# (base graph, cutset, origin, trials, seed): the benchmark's grid:6,6 cutset,
# and grid:5,5's four edges around its centre; both take three field blocks.
PIPELINE_CASES = [
    (CORPUS["pendant3"], (2,), 3, 30_000, 77),
    (path_graph(5), (1, 2), 2, 20_000, 5),
    (grid_graph(5, 5), (14, 20, 22, 23), 12, 10_000, 11),
    (grid_graph(6, 6), (27, 35, 37, 38), 20, 10_000, 7),
]


@pytest.mark.parametrize(
    "base, edge_ids, origin, trials, seed", PIPELINE_CASES,
    ids=["pendant3", "path5", "grid5x5_centre", "grid6x6_bench"],
)
def test_pipeline_matches_the_per_sample_oracle(base, edge_ids, origin, trials, seed):
    cutset = verified_cutset(base, edge_ids, origin)
    report = section8_pipeline(base, cutset, trials, seed)
    assert _counts(report) == _counts(section8_by_samples(base, cutset, trials, seed))
    assert report.boundary_count > 0


def test_pipeline_self_check_fires_on_a_wrong_frame(monkeypatch):
    # pendant3's cutset (2,) from 3 has clamped and connected samples; with
    # its one mid-edge dropped from the frame, those miss the target boundary.
    import dataclasses

    import percut.gff

    g = CORPUS["pendant3"]
    cutset = verified_cutset(g, (2,), 3)
    assert section8_pipeline(g, cutset, 30_000, seed=77).fe_count > 0

    def dropped(base, c):
        frame = cutset_frame(base, c)
        return dataclasses.replace(frame, mid_edge_ids=frame.mid_edge_ids[1:])

    monkeypatch.setattr(percut.gff, "cutset_frame", dropped)
    monkeypatch.setattr(oracles, "cutset_frame", dropped)
    for route in (section8_pipeline, section8_by_samples):
        with pytest.raises(TheoremViolationError, match="missed the target boundary"):
            route(g, cutset, 30_000, 77)


# ---- sign bound and domination endpoints ----


def test_sign_bound_p3():
    report = sign_bound_check(path_graph(3), 1, trials=20_000, seed=13)
    # Interior vertex touching the horizon: connection iff the value
    # clears -1, so the margin is exactly indicator minus sign.
    want = normal_cdf(1.0 / math.sqrt(0.5))
    assert report.connect_prob.ci_low <= want <= report.connect_prob.ci_high
    assert report.margin_mean >= -5 * report.margin_se


def test_sign_bound_p5():
    report = sign_bound_check(path_graph(5), 2, trials=20_000, seed=29)
    assert report.margin_mean >= -5 * report.margin_se
    assert -1.0 <= report.sign_mean <= 1.0


def test_domination_pendant():
    g = CORPUS["pendant3"]
    report = domination_endpoint_check(g, verified_cutset(g, (2,), 3), 30_000, seed=77)
    assert not report.vacuous
    assert report.killed.value == pytest.approx(normal_cdf(1.0), abs=0.01)
    assert report.ordering_consistent
    assert report.conditional is not None
    assert report.conditional.value >= report.killed.ci_low - 0.2


def test_domination_vacuous_when_f_unseen():
    g = CORPUS["pendant3"]
    report = domination_endpoint_check(g, verified_cutset(g, (2,), 3), 5, seed=1)
    if report.f_count == 0:
        assert report.vacuous
        assert report.ordering_consistent
        assert report.conditional is None
