import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import percut.gff
from percut import _util, grid_graph, path_graph, rw_cutsets
from percut._util import EventProbability
from percut.cutsets import verified_cutset
from percut.errors import NumericalError, PreconditionError, TheoremViolationError
from percut.gff import GreenMatrix, cutset_frame, green, section8_pipeline
from percut.graph_core import Graph, subdivide
from percut.rw_cutsets import escape_probabilities

from corpus import BAND_CASES, CORPUS
import oracles
from oracles import (
    GaussianField, domination_endpoint_check, excursion_cluster, green_by_whole_matrices,
    green_matrix, markov_check, sample_field, scaled_by_a_millionth, section8_by_samples,
    sign_bound_check,
)


P5_GREEN = np.array([[0.75, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 0.75]])


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# ---- covariance assembly ----


def test_green_p3():
    gm = green(path_graph(3))
    assert gm.interior == (1,)
    assert green_matrix(gm) == pytest.approx(np.array([[0.5]]), abs=1e-12)


def test_green_p5():
    gm = green(path_graph(5))
    assert gm.interior == (1, 2, 3)
    g = green_matrix(gm)
    assert g == pytest.approx(P5_GREEN, abs=1e-12)
    assert g[gm.index(2), gm.index(2)] == pytest.approx(1.0, abs=1e-12)
    assert g[gm.index(1), gm.index(3)] == pytest.approx(0.25, abs=1e-12)


def test_green_diagonal_identity_on_corpus():
    for name, g in CORPUS.items():
        gm = green(g)
        m = green_matrix(gm)
        escape = escape_probabilities(g)
        for v in gm.interior:
            product = m[gm.index(v), gm.index(v)] * g.degree(v) * escape[v]
            assert abs(product - 1.0) <= 1e-9, name
        assert float(np.max(np.abs(m - m.T))) <= 1e-9


def refused_before_any_row_or_field(gm: GreenMatrix, match: str) -> None:
    """Neither the first row block nor a field is handed out, and no normal is drawn."""
    with pytest.raises(TheoremViolationError, match=match):
        next(gm.row_blocks())
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(TheoremViolationError, match=match):
        gm.sample_block(rng, 2)
    assert rng.bit_generator.state == state


def test_green_check_fires_above_64_interior_vertices(monkeypatch):
    """Band pivots scaled by 1 + 1e-6 pass the residual check but not the absorption identity."""
    # grid:11,11 has 81 interior vertices, past the independent escape route.
    g = grid_graph(11, 11)
    assert len(green(g).interior) == 81
    monkeypatch.setattr(percut.gff, "_band_factor", scaled_by_a_millionth(percut.gff, "_band_factor", "d"))
    refused_before_any_row_or_field(green(g), "absorption identity")


def test_green_matrix_checks_the_absorption_identity_before_any_row_or_field(monkeypatch):
    """Horizon counts 1e-6 off are refused before a row block is yielded or a field is drawn."""
    scaled = scaled_by_a_millionth(rw_cutsets, "_horizon_counts")
    monkeypatch.setattr(rw_cutsets, "_horizon_counts", scaled)
    monkeypatch.setattr(percut.gff, "_horizon_counts", scaled)
    refused_before_any_row_or_field(GreenMatrix(grid_graph(6, 6)), "absorption identity")


def test_pipeline_refuses_a_factor_off_the_absorption_identity(monkeypatch):
    """The pipeline's fields come through ``sample_block``, so a tampered factor stops it."""
    monkeypatch.setattr(percut.gff, "_band_factor", scaled_by_a_millionth(percut.gff, "_band_factor", "d"))
    g = path_graph(5)
    with pytest.raises(TheoremViolationError, match="absorption identity"):
        section8_pipeline(g, verified_cutset(g, (1, 2), 2), 10, seed=1)


def test_pipeline_checks_the_absorption_identity_once(monkeypatch):
    """Three field blocks from one ``GreenMatrix`` make one band solve for the identity."""
    calls = []

    def counted(*args):
        calls.append(args)
        return rw_cutsets._check_absorption(*args)

    monkeypatch.setattr(percut.gff, "_check_absorption", counted)
    g = path_graph(5)
    report = section8_pipeline(g, verified_cutset(g, (1, 2), 2), 2 * percut.gff._BLOCK + 1, seed=1)
    assert report.trials == 2 * percut.gff._BLOCK + 1
    assert len(calls) == 1


@pytest.mark.parametrize("block_cells", [1 << 20, 8 * 5])
def test_green_agrees_with_the_dense_route(monkeypatch, block_cells):
    """Entries within 1e-12 relative of the dense solve, symmetric within 1e-14, whatever the row blocks.

    A row is one band solve, so G and G^T differ by rounding: at most
    2.0e-15 relative (17 ulps, grid:30,30).
    """
    monkeypatch.setattr(_util, "_BLOCK_CELLS", block_cells)
    for name, g in BAND_CASES.items():
        if block_cells < 1 << 20 and len(g.interior) > 200:
            continue  # a 5-cell block checks one row at a time; the small graphs show it
        got, want = green_matrix(green(g)), green_by_whole_matrices(g)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), name
        assert np.all(np.abs(got - got.T) <= 1e-14 * np.abs(got)), name
        assert not np.signbit(got).any(), name


def test_sample_block_leaves_g_unformed():
    """Fields come from the band factor: drawing them on grid:30,30 traces below one k x k matrix."""
    gm = GreenMatrix(grid_graph(30, 30))
    k = len(gm.interior)
    gm.sample_block(np.random.default_rng(1), 2)
    assert oracles.traced_peak(lambda: gm.sample_block(np.random.default_rng(1), 2)) < k * k * 8


def test_green_rows_hold_no_more_than_their_buffer():
    """Streaming grid:40,40's rows traces under 3 row blocks: one buffer, no saved windows.

    With a saved window per later block the stream traced 6.14 MB.
    """
    gm = GreenMatrix(grid_graph(40, 40))

    def stream():
        for _ in gm.row_blocks():
            pass

    stream()
    assert oracles.traced_peak(stream) < 3 * _util._BLOCK_CELLS


@pytest.mark.parametrize("block_cells", [1 << 20, 8 * 7])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_green_certificates_refuse_a_non_finite_entry(monkeypatch, block_cells, bad):
    """A NaN or inf in any row block fails the absorption identity or the residual."""
    monkeypatch.setattr(_util, "_BLOCK_CELLS", block_cells)
    g = grid_graph(6, 6)
    for row in (0, 7, 15):
        m = green_matrix(green(g))
        m[row, 3] = bad
        with pytest.raises((TheoremViolationError, NumericalError)):
            oracles.check_green_in_blocks(g, m)


@pytest.mark.parametrize("block_cells", [1 << 20, 8 * 6 * 16])
def test_green_residual_is_refused_in_any_row_block(monkeypatch, block_cells):
    """1e-6 off in the last row, in a column h does not weigh, fails G P - I only."""
    monkeypatch.setattr(_util, "_BLOCK_CELLS", block_cells)
    g = grid_graph(6, 6)
    m = green_matrix(green(g))
    oracles.check_green_in_blocks(g, m)
    m[-1, g.interior.index(14)] += 1e-6  # vertex 14 has no horizon neighbour
    with pytest.raises(NumericalError, match="residual 4.000e-06"):
        oracles.check_green_in_blocks(g, m)


@pytest.mark.parametrize("route", [green, escape_probabilities])
def test_dense_routes_hold_at_most_three_matrices(route):
    """On grid:30,30, green traces at most 2 k x k float matrices and escape 0.14 of one.

    The band routes hold G and one row block (green, G assembled by
    ``green_matrix``) or the O(k b) band (escape); the dense inverse they
    replaced held four.
    Escape holds the band, the factor and Z's band, three k x (b + 1)
    arrays: 0.121 of a matrix, and 0.159 when diag(P Z) was summed from a
    fourth.  A first call on the graph itself keeps lazy imports and the
    graph's cached adjacency out of the peak.
    """
    bound = {green: 2.0, escape_probabilities: 0.14}[route]
    run = {green: lambda g: green_matrix(green(g)), escape_probabilities: escape_probabilities}[route]
    g = grid_graph(30, 30)
    k = len(g.interior)
    run(g)
    tracemalloc.start()
    try:
        run(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * k * k * 8


def test_pipeline_holds_one_field_block_at_a_time():
    """Three blocks on the benchmark cutset trace below 1.35 field blocks.

    A block is drawn and back-substituted in place, so the peak is one
    block (1.24 with its trial bits); normals and their product held side
    by side took it to 2.08, and the spent block held besides to 3.4.
    """
    g = grid_graph(6, 6)
    cutset = verified_cutset(g, (27, 35, 37, 38), 20)
    section8_pipeline(g, cutset, 1, seed=5)  # lazy imports before tracing
    k = len(green(cutset_frame(g, cutset).sd.derived).interior)
    peak = oracles.traced_peak(lambda: section8_pipeline(g, cutset, 3 * 4096, seed=5))
    assert peak <= 1.35 * 4096 * k * 8


def test_green_index_rejects_horizon():
    gm = green(path_graph(5))
    with pytest.raises(PreconditionError):
        gm.index(0)


def test_green_matrix_rejects_indefinite(monkeypatch):
    """With every degree one short, D - A is indefinite: construction refuses it, before any draw."""
    monkeypatch.setattr(Graph, "degree", lambda self, v: len(self.adjacency[v]) - 1)
    with pytest.raises(NumericalError, match="pivot"):
        GreenMatrix(grid_graph(6, 6))


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
    assert np.max(np.abs(emp - green_matrix(gm))) <= 5 * math.sqrt(2.0 / 60_000)


def test_sample_block_covariance_where_the_band_order_is_not_id_order():
    """On the pipeline frame RCM reorders the interior; fields come back in interior order.

    Every entry of the sample covariance lies within 5 standard errors of G.
    """
    derived = subdivide(grid_graph(6, 6), 3).derived
    gm = green(derived)
    assert gm._factor.order != gm.interior
    n = 20_000
    block = gm.sample_block(np.random.default_rng(12), n)
    assert block.shape == (n, len(gm.interior))
    emp = block.T @ block / n
    g = green_matrix(gm)
    diag = np.diag(g)
    se = np.sqrt((np.outer(diag, diag) + g**2) / n)
    assert np.max(np.abs(emp - g) / se) <= 5.0


class _FixedNormals:
    """Hands out the columns of one normal array in turn, as ``standard_normal((k, size))``."""

    def __init__(self, z):
        self.z, self.used = z, 0

    def standard_normal(self, shape):
        size = shape[1]
        self.used += size
        return self.z[:, self.used - size : self.used].copy()


def test_sample_block_does_not_depend_on_the_block_size():
    """The same normals give bit-identical fields drawn whole or in slices of 7 samples."""
    gm = GreenMatrix(subdivide(grid_graph(6, 6), 3).derived)
    z = np.random.default_rng(4).standard_normal((len(gm.interior), 100))
    whole = gm.sample_block(_FixedNormals(z), 100)
    normals = _FixedNormals(z)
    sliced = np.vstack([gm.sample_block(normals, size) for size in [7] * 14 + [2]])
    assert np.array_equal(whole, sliced)


# Draws one pipeline-frame block at seed 7 and prints the SHA-256 of the fields' bytes.
_FIELD_DIGEST = """
import hashlib
import numpy as np
from percut.gff import GreenMatrix
from percut.graph_core import grid_graph, subdivide
gm = GreenMatrix(subdivide(grid_graph(6, 6), 3).derived)
fields = gm.sample_block(np.random.default_rng(7), 4096)
print(fields.shape, hashlib.sha256(fields.tobytes()).hexdigest())
"""


def test_sample_block_does_not_depend_on_the_blas_thread_count():
    """The fields' bytes, not only the counts drawn from them, match at 1 and 2 threads."""
    src = str(Path(percut.gff.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _FIELD_DIGEST],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                 "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0].startswith("(4096, 136) ")
    assert digests[0] == digests[1]


def test_variance_bounded_by_escape_floor():
    # Diagonal of the covariance is 1 / (degree x escape) <= 1 / eps.
    from percut.rw_cutsets import escape_constant, escape_probabilities

    for name, g in CORPUS.items():
        gm = green(g)
        m = green_matrix(gm)
        eps = escape_constant(g, escape_probabilities(g))
        for v in gm.interior:
            assert m[gm.index(v), gm.index(v)] <= 1.0 / eps + 1e-9


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
