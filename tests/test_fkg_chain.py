import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from percut import Graph, _util, grid_graph, path_graph
from percut.cutsets import verified_cutset
from percut.errors import PreconditionError
from percut.fkg_chain import ConnectivityOracle, build_chain, fkg_lower_bound

from corpus import CORPUS, cutsets_for
from oracles import (
    component_labels, gathered_query, sampled_rows, sweep_weights, theorem1_lower_bound_check,
    traced_peak, verify_full_connectivity,
)


def spider(legs: int = 3) -> Graph:
    # Center 0 with legs of length two; tips are 2, 4, 6, ...
    edges = []
    for leg in range(legs):
        a, b = 1 + 2 * leg, 2 + 2 * leg
        edges.extend([(0, a), (a, b)])
    return Graph(1 + 2 * legs, tuple(edges), frozenset())


# ---- declared dependencies ----


def test_declared_numpy_bound_has_bitwise_count():
    # ConnectivityOracle and covering_sum_exact call np.bitwise_count, added in numpy 2.0.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'"numpy>=(\d+)', text)
    assert match and int(match.group(1)) >= 2


# ---- lower bound constant ----


def test_fkg_lower_bound_values():
    assert fkg_lower_bound(1.0, 1.0, 1) == pytest.approx(1 / 8, abs=1e-15)
    assert fkg_lower_bound(1.0, 1.0, 2) == pytest.approx(1 / 64, abs=1e-15)
    assert fkg_lower_bound(0.5, 0.5, 0) == 1.0


def test_fkg_lower_bound_rejects():
    with pytest.raises(PreconditionError):
        fkg_lower_bound(0.0, 0.5, 1)
    with pytest.raises(PreconditionError):
        fkg_lower_bound(1.5, 0.5, 1)
    with pytest.raises(PreconditionError):
        fkg_lower_bound(0.5, 0.0, 1)
    with pytest.raises(PreconditionError):
        fkg_lower_bound(0.5, 0.5, -1)


# ---- oracle ----


def test_oracle_exact_p5():
    oracle = ConnectivityOracle(path_graph(5), (1, 2, 3), 0.5)
    assert oracle.connect_prob(2, [1, 3]) == pytest.approx(3 / 4, abs=1e-12)
    assert oracle.connect_prob(1, [1, 3]) == 1.0
    assert oracle.all_connected_prob(2, [1, 3]) == pytest.approx(1 / 4, abs=1e-12)
    assert oracle.region_connected()
    assert oracle.noise == 0.0


def test_oracle_disconnected_region():
    oracle = ConnectivityOracle(path_graph(5), (1, 3), 0.5)
    assert not oracle.region_connected()


def test_oracle_rejects_outside_vertex():
    oracle = ConnectivityOracle(path_graph(5), (1, 2, 3), 0.5)
    with pytest.raises(PreconditionError):
        oracle.connect_prob(4, [1])


def test_oracle_mc_matches_exact():
    exact = ConnectivityOracle(path_graph(5), (1, 2, 3), 0.5)
    mc = ConnectivityOracle(path_graph(5), (1, 2, 3), 0.5, trials=40_000, seed=5)
    assert mc.noise > 0
    want = exact.all_connected_prob(2, [1, 3])
    got = mc.all_connected_prob(2, [1, 3])
    assert abs(got - want) <= 3 * mc.noise


@pytest.mark.parametrize("seed", [None, 11])
def test_oracle_labels_match_the_min_label_reference(seed):
    # The oracle's rows: configuration x opens induced edge i when bit i of x
    # is set, or the seeded sampler's draws, one row per trial.  Ids -1 and n
    # are not vertices, so each is a component of its own.  Labels are uint8
    # (no region here has 256 vertices), and every weight and query equals
    # the column-gather reference bit for bit.
    p, trials = 0.4, 300
    rng = np.random.default_rng(31)
    disconnected = with_horizon = 0
    for name, g in sorted(CORPUS.items()):
        regions = [range(-1, g.n_vertices + 1), g.interior]
        regions += [rng.choice(g.n_vertices, int(rng.integers(1, g.n_vertices + 1)), replace=False)
                    for _ in range(4)]
        for region in regions:
            index = {v: i for i, v in enumerate(sorted({int(v) for v in region}))}
            ends = [(index[a], index[b]) for a, b in g.edges if a in index and b in index]
            m = len(ends)
            if seed is None:
                rows = np.arange(1 << m)[:, None] >> np.arange(m) & 1 == 1
                weights = sweep_weights(m, p)
            else:
                rows = np.array(sampled_rows(m, p, trials, seed), dtype=bool).reshape(trials, m)
                weights = np.full(trials, 1 / trials)
            oracle = ConnectivityOracle(g, region, p, trials=trials, seed=seed)
            want = component_labels(len(index), ends, rows)
            assert oracle._labels.dtype == np.uint8, name
            assert oracle._labels.shape == (len(rows), len(index)), name
            assert np.array_equal(oracle._labels, want), (name, sorted(index))
            assert oracle._weights.tobytes() == weights.tobytes(), name
            ids = sorted(index)
            for u in range(len(ids)):
                others = [t for t in range(len(ids)) if t != u]
                for targets in (others[:1], others[::2], others):
                    if not targets:
                        continue
                    query = [ids[t] for t in targets]
                    for every, got in ((False, oracle.connect_prob), (True, oracle.all_connected_prob)):
                        assert got(ids[u], query) == gathered_query(want, weights, u, targets, every), (
                            name, ids[u], query, every)
            disconnected += not oracle.region_connected()
            with_horizon += bool(g.horizon & index.keys())
    assert disconnected and with_horizon


@pytest.mark.parametrize("block_cells", [8 * 64, 7])
def test_oracle_labels_do_not_depend_on_the_block_size(monkeypatch, block_cells):
    # 512 cells stack 8 rows of path7's 64 configurations in a block, and
    # slice cube_corner's 2^12 and rand16's 2^16 into column blocks; 7 cells
    # write 7 configurations of one row at a time, off byte boundaries, and
    # 300 seeded trials end on a part block.
    cases = [(CORPUS["path7"], None), (CORPUS["cube_corner"], None), (CORPUS["theta6"], 11)]
    if block_cells > 7:
        cases.append((CORPUS["rand16"], None))
    for g, seed in cases:
        region = range(-1, g.n_vertices + 1)
        want = ConnectivityOracle(g, region, 0.4, trials=300, seed=seed)._labels
        monkeypatch.setattr(_util, "_BLOCK_CELLS", block_cells)
        got = ConnectivityOracle(g, region, 0.4, trials=300, seed=seed)._labels
        monkeypatch.undo()
        assert np.array_equal(got, want)


def test_oracle_at_the_sweep_cap_holds_no_per_query_copies():
    """A 20-edge sweep with queries on 13 targets traces below 36 bytes a configuration.

    Those are 14 uint8 labels, the 8-byte weight, the 8-byte float copy of
    the hit vector that ``weights @ hit`` makes, two hit bytes and the
    flood's trial bits (31.0 MiB in all).  Gathering the 13 target columns
    per query, with int16 labels and weights built over uint64 counts, took
    77 MiB.
    """
    g = grid_graph(3, 5)
    g = Graph(g.n_vertices, g.edges, frozenset({0}))
    region = tuple(range(1, 15))

    def run() -> None:
        oracle = ConnectivityOracle(g, region, 0.5)
        assert len(oracle.induced_edges) == _util.SWEEP_EDGES
        oracle.connect_prob(1, region[1:])
        oracle.all_connected_prob(1, region[1:])

    assert traced_peak(run) < 36 << 20


def test_oracle_connect_monotone_in_targets():
    oracle = ConnectivityOracle(CORPUS["theta6"], CORPUS["theta6"].interior, 0.4)
    region = oracle.region
    u = region[0]
    rest = [v for v in region if v != u]
    for k in range(1, len(rest)):
        smaller = oracle.connect_prob(u, rest[:k])
        larger = oracle.connect_prob(u, rest[: k + 1])
        assert larger >= smaller - 1e-12


def test_all_connected_below_each_single_connection():
    oracle = ConnectivityOracle(path_graph(7), (1, 2, 3, 4, 5), 0.45)
    joint = oracle.all_connected_prob(3, [1, 5])
    assert joint <= oracle.connect_prob(3, [1]) + 1e-12
    assert joint <= oracle.connect_prob(3, [5]) + 1e-12


# ---- chain construction ----


def test_chain_trivial_on_p5():
    chain = build_chain(path_graph(5), (1, 2, 3), (1, 3), 2, p=0.9)
    assert chain.vertices == (2,)
    assert chain.probs == (1.0,)
    assert chain.theta == pytest.approx(0.99, abs=1e-12)
    assert chain.p2_certificate == pytest.approx(0.9, abs=1e-12)
    assert chain.n_targets == 2


def test_chain_grows_on_spider():
    g = spider()
    chain = build_chain(g, range(7), (2, 4, 6), 0, p=0.3)
    assert chain.vertices == (0, 2, 4, 6)
    assert chain.probs[0] == 1.0
    for step in chain.probs[1:]:
        assert step == pytest.approx(0.09, abs=1e-12)
    theta = 1 - (1 - 0.09) ** 3
    assert chain.theta == pytest.approx(theta, abs=1e-12)
    # Step window and termination certificate.
    for step in chain.probs[1:]:
        assert 0.3 * theta / 2 - 1e-12 <= step <= theta / 2 + 1e-12
    assert chain.p2_certificate >= theta / 2 - 1e-12
    assert len(chain.vertices) <= 2 * chain.n_targets / theta + 1e-9


def test_chain_respects_supplied_theta():
    chain = build_chain(path_graph(5), (1, 2, 3), (1, 3), 2, theta=0.5, p=0.9)
    assert chain.theta == 0.5
    with pytest.raises(PreconditionError):
        build_chain(path_graph(5), (1, 2, 3), (1, 3), 2, theta=0.999, p=0.5)


def test_chain_rejects_bad_inputs():
    p5 = path_graph(5)
    with pytest.raises(PreconditionError):
        build_chain(p5, (1, 2, 3), (1, 3), 0, p=0.5)
    with pytest.raises(PreconditionError):
        build_chain(p5, (1, 2, 3), (), 2, p=0.5)
    with pytest.raises(PreconditionError):
        build_chain(p5, (1, 2, 3), (4,), 2, p=0.5)
    with pytest.raises(PreconditionError):
        build_chain(p5, (1, 3), (1,), 1, p=0.5)


def test_chain_guarantees_on_corpus_decompositions():
    from percut.cutsets import decompose

    for name in ("path7", "theta6", "grid3x3_corners"):
        g = CORPUS[name]
        v = g.interior[0]
        for cutset in cutsets_for(name, v)[:4]:
            d = decompose(g, cutset)
            for p in (0.3, 0.7):
                chain = build_chain(g, d.component_a, d.inner_b, v, p=p)
                theta = chain.theta
                assert chain.probs[0] == 1.0
                for step in chain.probs[1:]:
                    assert p * theta / 2 - 1e-12 <= step <= theta / 2 + 1e-12
                assert chain.p2_certificate >= theta / 2 - 1e-12
                assert len(chain.vertices) <= 2 * chain.n_targets / theta + 1e-9


# ---- full connectivity and the boundary-hit bound ----


def test_verify_full_connectivity_p5():
    out = verify_full_connectivity(path_graph(5), (1, 2, 3), (1, 3), 2, 0.9)
    assert out.exact == pytest.approx(0.81, abs=1e-12)
    assert out.theta == pytest.approx(0.99, abs=1e-12)
    assert out.exact >= out.bound


def test_theorem1_p5_interval_cutset():
    p5 = path_graph(5)
    report = theorem1_lower_bound_check(p5, 0.5, verified_cutset(p5, (0, 3), 2))
    assert report.exact == pytest.approx(1 / 16, abs=1e-12)
    assert report.theta == pytest.approx(3 / 4, abs=1e-12)
    assert report.n == 2
    assert report.implication_failures == 0
    assert report.configs_checked > 0
    assert report.exact >= report.bound


def test_theorem1_rejects_excess_theta():
    p5 = path_graph(5)
    with pytest.raises(PreconditionError):
        theorem1_lower_bound_check(p5, 0.5, verified_cutset(p5, (0, 3), 2), theta=0.99)


def test_theorem1_needs_interior_p():
    p5 = path_graph(5)
    with pytest.raises(PreconditionError):
        theorem1_lower_bound_check(p5, 1.0, verified_cutset(p5, (0, 3), 2))


# ---- properties ----


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 0.9), st.integers(1, 4))
def test_lower_bound_monotone_in_n(p, n):
    theta = 0.6
    assert fkg_lower_bound(theta, p, n + 1) <= fkg_lower_bound(theta, p, n)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.2, 0.95))
def test_spider_chain_bound_holds_exactly(p):
    # The chain bound stays below the exact all-targets probability.
    g = spider(2)
    out = verify_full_connectivity(g, range(5), (2, 4), 0, p)
    assert out.exact >= out.bound - 1e-12
