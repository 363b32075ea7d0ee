import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from percut import Graph, QnTable, _util, fkg_chain, grid_graph, path_graph, percolation, star_graph
from percut._util import SWEEP_EDGES, EventProbability
from percut.cutsets import (
    Cutset, enumerate_minimal_cutsets_bruteforce, exposed_boundary, karger_count_min_cuts,
    verified_cutset,
)
from percut.errors import CapExceededError, PreconditionError
from percut.frontier import count_minimal_cutsets
from percut.fkg_chain import ConnectivityOracle
from percut.percolation import (
    _config_blocks,
    boundary_census_exact,
    boundary_census_mc,
    mc_prob,
    peierls_bound,
    profile_probability,
    theta,
)

from corpus import CORPUS, broom, cutsets_for, table_for
from oracles import (
    _connects, boundary_hit_probability, census_by_sweep, config_from_mask, event_popcount_profile,
    exact_prob, fkg_spot_check, search, strong_percolation_experiment, theorem1_lower_bound_check,
    verify_full_connectivity,
)


# ---- configurations and clusters ----


def test_config_from_mask_bit_order():
    c = config_from_mask(path_graph(5), 0b0101)
    assert c == (True, False, True, False)
    assert sum(c) == 2
    assert c[0] and not c[1]


def test_sampled_configs_shape():
    # One block of 3 trials: bit t of edge eid's int is row t's entry eid.
    [(count, bits)] = _config_blocks(4, 0.5, 3, seed=0)
    rows = oracles.sampled_rows(4, 0.5, 3, 0)
    assert count == 3 and len(bits) == 4
    assert bits == [sum(row[eid] << t for t, row in enumerate(rows)) for eid in range(4)]


def test_cluster_report_p5_all_open():
    p5 = path_graph(5)
    _, touched = search(p5, (2,), config_from_mask(p5, 0b1111))
    assert touched


def test_cluster_report_p5_island():
    p5 = path_graph(5)
    cluster, touched = search(p5, (2,), config_from_mask(p5, 0b0110))
    assert not touched
    assert cluster == {1, 2, 3}
    assert exposed_boundary(p5, cluster) == (0, 3)


def test_cluster_report_isolated_source():
    p5 = path_graph(5)
    cluster, touched = search(p5, (2,), config_from_mask(p5, 0b1001))
    assert not touched
    assert cluster == {2}
    assert exposed_boundary(p5, cluster) == (1, 2)


def test_config_connects():
    p5 = path_graph(5)
    c = config_from_mask(p5, 0b0011)
    assert _connects(p5, 2, 0, c)
    assert not _connects(p5, 2, 4, c)
    assert _connects(p5, 2, None, c)


# ---- exact probabilities ----


def test_theta_p5_half():
    assert theta(path_graph(5), 0.5, 2).value == pytest.approx(7 / 16, abs=1e-12)


def test_theta_p5_point_seven():
    assert theta(path_graph(5), 0.7, 2).value == pytest.approx(0.7399, abs=1e-12)


def test_theta_horizon_vertex_is_one():
    assert theta(path_graph(5), 0.3, 0).value == 1.0


@pytest.mark.parametrize(
    "p, trials, seed, message",
    [(-0.2, 100, 1, "outside"), (1.5, 100, None, "outside"), (0.5, 0, 1, "trials must be positive")],
)
def test_theta_checks_its_arguments_on_a_horizon_vertex(p, trials, seed, message):
    with pytest.raises(PreconditionError, match=message):
        theta(path_graph(5), p, 0, trials, seed=seed)


def test_finite_cluster_star3():
    g = CORPUS["star3"]
    finite = exact_prob(g, 0.5, lambda c: not _connects(g, 0, None, c))
    assert finite.value == pytest.approx(1 / 8, abs=1e-15)


def test_profile_probability_single_edge_event():
    # "Edge 0 open" has probability p for every p; the profile route
    # must reproduce that exactly.
    p5 = path_graph(5)
    profile = event_popcount_profile(p5, lambda c: c[0])[True]
    for p in (0.1, 0.5, 0.9):
        assert profile_probability(profile, p) == pytest.approx(p, abs=1e-12)


# grid:4,4 has 24 edges, over the sweep cap; all its vertices but 1 induce 21.
_REGION_44 = tuple(v for v in range(16) if v != 1)

SWEEP_ENTRY_POINTS = {
    "event_popcount_profile": lambda g: event_popcount_profile(g, lambda c: True),
    "exact_prob": lambda g: exact_prob(g, 0.5, lambda c: True),
    "fkg_spot_check": lambda g: fkg_spot_check(g, 0.5, [((5, None), (6, None))]),
    "strong_percolation_experiment": lambda g: strong_percolation_experiment(g, 0.5, 0.1),
    "ConnectivityOracle": lambda g: ConnectivityOracle(g, _REGION_44, 0.5),
    "verify_full_connectivity": lambda g: verify_full_connectivity(g, _REGION_44, (0, 15), 5, 0.5),
    "theorem1_lower_bound_check": lambda g: theorem1_lower_bound_check(
        g, 0.5, verified_cutset(g, g.incident_edges(5), 5)
    ),
    "enumerate_minimal_cutsets_bruteforce": lambda g: enumerate_minimal_cutsets_bruteforce(g, 5, 2),
}


@pytest.mark.parametrize("entry", sorted(SWEEP_ENTRY_POINTS))
def test_sweep_cap(entry, monkeypatch):
    g = grid_graph(4, 4)
    assert g.n_edges > SWEEP_EDGES

    # A sweep that got past the cap fails here rather than running 2^21+ configurations.
    def runaway(*args):
        raise AssertionError("swept past the cap")

    monkeypatch.setattr(oracles, "config_from_mask", runaway)
    monkeypatch.setattr(fkg_chain, "_open_bits", runaway)
    with pytest.raises(CapExceededError, match="sweep cap"):
        SWEEP_ENTRY_POINTS[entry](g)


def test_complementary_profiles_sum_to_one():
    p5 = path_graph(5)
    ev = partial(_connects, p5, 2, None)
    a = event_popcount_profile(p5, ev)[True]
    b = event_popcount_profile(p5, lambda c: not ev(c))[True]
    for p in (0.2, 0.5, 0.8):
        total = profile_probability(a, p) + profile_probability(b, p)
        assert total == pytest.approx(1.0, abs=1e-12)


# ---- monte carlo ----


def test_mc_prob_reproducible_and_calibrated():
    p5 = path_graph(5)
    got = mc_prob(p5, 0.5, 2, 20_000, seed=101)
    again = mc_prob(p5, 0.5, 2, 20_000, seed=101)
    assert got == again
    assert got.method == "monte_carlo"
    assert got.trials == 20_000
    assert got.ci_low <= 7 / 16 <= got.ci_high


def test_sampled_theta_is_the_readme_record():
    # The README's seeded theta example, pinned to the configuration stream.
    got = theta(grid_graph(4, 4), 0.6, 5, 20_000, seed=7)
    assert (got.value, got.method, got.trials) == (0.97005, "monte_carlo", 20_000)
    assert f"{got.ci_low:.12g}" == "0.966786175952"
    assert f"{got.ci_high:.12g}" == "0.973002054161"


def test_mc_prob_rejects_bad_args():
    p5 = path_graph(5)
    with pytest.raises(PreconditionError):
        mc_prob(p5, 1.5, 2, 10, seed=0)
    with pytest.raises(PreconditionError):
        mc_prob(p5, 0.5, 2, 0, seed=0)


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_flood_routes_match_the_row_oracles(name, p):
    g = CORPUS[name]
    for v in g.interior:
        hits = oracles.mc_prob_by_rows(g, p, v, 203, v)
        assert mc_prob(g, p, v, 203, seed=v) == EventProbability.sampled(hits, 203)
        assert boundary_census_mc(g, v, p, 203, seed=v) == oracles.census_by_rows(g, v, p, 203, v)


def test_flood_theta_matches_the_row_oracle_on_a_large_grid():
    g = grid_graph(12, 12)
    for p in (0.4, 0.6):
        hits = oracles.mc_prob_by_rows(g, p, 78, 1500, 4)
        assert mc_prob(g, p, 78, 1500, seed=4) == EventProbability.sampled(hits, 1500)


def test_sampled_results_do_not_depend_on_block_size(monkeypatch):
    g = grid_graph(4, 4)
    region = (5, 6, 9, 10, 11)
    trials = 1003  # not a multiple of 8 or 64: every block size leaves a ragged last block

    def draw():
        oracle = ConnectivityOracle(g, region, 0.6, trials=trials, seed=3)
        return (
            mc_prob(g, 0.6, 5, trials, seed=11),
            boundary_census_mc(g, 5, 0.6, trials, seed=12),
            karger_count_min_cuts(g, np.random.default_rng(13), trials),
            oracle._labels.tolist(),
            [oracle.connect_prob(u, (11,)) for u in region],
        )

    assert _util._BLOCK_CELLS >= trials * g.n_edges  # the default draws one block
    default = draw()
    # 1 and 50 cells: 8-row draws, blocks of 8 and 16 trials and Karger
    # blocks of 1 and 2 trials; 13 and 40 rows' worth: 8- and 40-row draws,
    # blocks of 104 and 320 trials and Karger blocks of 13 and 40 trials.
    for cells in (1, 50, 24 * 13, 24 * 40):
        monkeypatch.setattr(_util, "_BLOCK_CELLS", cells)
        assert draw() == default, cells


# ---- peierls ----


def test_peierls_p5_half_is_one():
    table = table_for("path5", 2)
    assert peierls_bound(table, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_peierls_star3_tight():
    g = CORPUS["star3"]
    table = table_for("star3", 0)
    bound = peierls_bound(table, 0.5)
    exact = exact_prob(g, 0.5, lambda c: not _connects(g, 0, None, c)).value
    assert bound == pytest.approx(1 / 8, abs=1e-12)
    assert exact == pytest.approx(bound, abs=1e-12)


def test_peierls_dominates_on_sample():
    for name in ("path7", "cycle6", "diamond", "pendant_path"):
        g = CORPUS[name]
        for v in g.interior:
            table = table_for(name, v)
            for p in (0.3, 0.6, 0.9):
                exact = exact_prob(g, p, lambda c: not _connects(g, v, None, c)).value
                assert exact <= peierls_bound(table, p, v) + 1e-12


def test_counts_past_the_float_range():
    table = count_minimal_cutsets(broom(1100), 0, 2200)
    assert table.counts == {0: {1100: 2**1100}}
    assert table.kappa_estimate == pytest.approx(2.0, rel=1e-9)
    assert peierls_bound(table, 0.6) == pytest.approx(0.8**1100, rel=1e-9)
    assert peierls_bound(table, 1.0) == 0.0
    assert peierls_bound(table, 0.0) == math.inf


def test_peierls_multi_vertex_table_needs_vertex():
    merged = QnTable({1: table_for("path5", 1).counts[1], 2: table_for("path5", 2).counts[2]})
    with pytest.raises(PreconditionError):
        peierls_bound(merged, 0.5)
    assert peierls_bound(merged, 0.5, 2) == pytest.approx(1.0)


# ---- boundary censuses ----


def test_boundary_hit_p5():
    p5 = path_graph(5)
    c = verified_cutset(p5, (1, 2), 2)
    assert boundary_hit_probability(p5, 0.5, c).value == pytest.approx(0.25, abs=1e-12)


def test_census_p5_totals():
    p5 = path_graph(5)
    profiles, infinite = boundary_census_exact(p5, 2)
    assert set(profiles) == {(1, 2), (0, 3), (0, 2), (1, 3)}
    for p in (0.3, 0.5, 0.8):
        finite_total = sum(profile_probability(pr, p) for pr in profiles.values())
        assert finite_total + profile_probability(infinite, p) == pytest.approx(
            1.0, abs=1e-12
        )
    assert profile_probability(profiles[(1, 2)], 0.5) == pytest.approx(0.25, abs=1e-12)


def test_census_every_boundary_is_minimal():
    for name in ("path5", "star5", "theta6", "k4_pair", "grid3x3"):
        g = CORPUS[name]
        for v in g.interior:
            profiles, _ = boundary_census_exact(g, v)
            recorded = {c.edge_ids for c in cutsets_for(name, v)}
            assert set(profiles) <= recorded


# Besides the corpus, the exact-workload benchmark graphs (17 and 19
# edges, 12 interior vertices) at their benchmark sources.
LAW_CASES = {name: (g, g.interior) for name, g in CORPUS.items()}
LAW_CASES["grid3x4_ends"] = (grid_graph(3, 4, horizon=(0, 11)), (5,))
LAW_CASES["grid2x7_ends"] = (grid_graph(2, 7, horizon=(0, 13)), (6,))


@pytest.mark.parametrize("name", sorted(LAW_CASES))
def test_census_law_matches_sweep_oracle(name):
    g, sources = LAW_CASES[name]
    for v in sources:
        profiles, infinite = boundary_census_exact(g, v)
        ref_profiles, ref_infinite = census_by_sweep(g, v)
        assert profiles.keys() == ref_profiles.keys()
        for key, ref in ref_profiles.items():
            assert all(type(c) is int for c in profiles[key])
            assert profiles[key] == ref.tolist()
        assert all(type(c) is int for c in infinite)
        assert infinite == ref_infinite.tolist()
        for p in (0.3, 0.7):
            assert theta(g, p, v).value == profile_probability(ref_infinite, p)
        if name in CORPUS:
            for key, ref in ref_profiles.items():
                hit = boundary_hit_probability(g, 0.3, Cutset(key, v)).value
                assert hit == profile_probability(ref, 0.3)


def _absorbing_reduction(g: Graph) -> Graph:
    """Same source law: each horizon edge gets its own horizon leaf, horizon-horizon edges go."""
    index = {u: i for i, u in enumerate(g.interior)}
    edges = []
    horizon = []
    for a, b in g.edges:
        if a in index and b in index:
            edges.append((index[a], index[b]))
        elif a in index or b in index:
            leaf = len(index) + len(horizon)
            horizon.append(leaf)
            edges.append((index[a if a in index else b], leaf))
    return Graph(len(index) + len(horizon), tuple(edges), frozenset(horizon))


@pytest.mark.parametrize("width,height,v", [(3, 5, 7), (4, 4, 5)])
def test_theta_exact_past_twenty_edges(width, height, v):
    g = grid_graph(width, height)
    assert g.n_edges > 20
    small = _absorbing_reduction(g)
    _, ref_infinite = census_by_sweep(small, g.interior.index(v))
    for p in (0.3, 0.6):
        priced = theta(g, p, v)
        assert priced.method == "exact"
        assert priced.value == pytest.approx(profile_probability(ref_infinite, p), abs=1e-12)


def test_census_law_past_sixty_two_edges():
    # 69 edges: each profile slot needs 70 bits, more than a 64-bit slot holds.
    g = path_graph(70)
    profiles, infinite = boundary_census_exact(g, 3)
    assert sum(map(sum, profiles.values())) + sum(infinite) == 2**69
    p = 0.9
    assert theta(g, p, 3).value == pytest.approx(p**3 + p**66 - p**69, abs=1e-15)


def test_census_law_caps(monkeypatch):
    with pytest.raises(CapExceededError, match="1000-edge cap"):
        boundary_census_exact(path_graph(1002), 3)
    p9 = path_graph(9)
    # 16 intervals contain vertex 4; the recurrence walks more on top.
    monkeypatch.setattr(percolation, "EXACT_SET_BUDGET", 1000)
    assert len(boundary_census_exact(p9, 4)[0]) == 16
    for budget in (15, 16):
        monkeypatch.setattr(percolation, "EXACT_SET_BUDGET", budget)
        with pytest.raises(CapExceededError):
            boundary_census_exact(p9, 4)
    with pytest.raises(PreconditionError):
        boundary_census_exact(p9, 0)


def test_census_mc_agrees_with_exact():
    p5 = path_graph(5)
    counts, infinite = boundary_census_mc(p5, 2, 0.5, 20_000, seed=33)
    assert sum(counts.values()) + infinite == 20_000
    assert counts[(1, 2)] / 20_000 == pytest.approx(0.25, abs=0.02)
    assert infinite / 20_000 == pytest.approx(7 / 16, abs=0.02)


def test_census_mc_stream_is_pinned():
    counts, infinite = boundary_census_mc(path_graph(5), 2, 0.5, 20_000, seed=33)
    assert counts == {(1, 2): 4986, (0, 2): 2521, (1, 3): 2458, (0, 3): 1252}
    assert infinite == 8783


# ---- positive association ----


def test_fkg_spot_check_p5():
    p5 = path_graph(5)
    checks = fkg_spot_check(
        p5,
        0.5,
        [((1, None), (3, None)), ((2, 0), (2, 4)), ((1, 3), (2, None))],
    )
    assert len(checks) == 3
    for check in checks:
        assert check.joint >= check.product - 1e-12


# ---- strong percolation experiment ----


def test_strong_percolation_p5():
    report = strong_percolation_experiment(path_graph(5), 0.5, c_fit=0.1)
    assert report.rows
    assert report.all_satisfied
    singleton = next(r for r in report.rows if r.vertices == (2,))
    assert singleton.weight == 2
    assert singleton.psi == 2
    assert singleton.miss_probability == pytest.approx(9 / 16, abs=1e-12)
    assert singleton.minus_log == pytest.approx(math.log(16 / 9), abs=1e-12)


def test_strong_percolation_detects_overfit_constant():
    report = strong_percolation_experiment(path_graph(5), 0.5, c_fit=5.0)
    assert not report.all_satisfied


def test_strong_percolation_needs_horizon():
    from percut.graph_core import cycle_graph

    with pytest.raises(PreconditionError):
        strong_percolation_experiment(cycle_graph(4), 0.5, 0.1)


# ---- properties ----


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 7), st.floats(0.05, 0.95), st.floats(0.0, 0.9))
def test_theta_monotone_in_p(n, p, bump):
    g = path_graph(n)
    v = n // 2
    lo = theta(g, p, v).value
    hi = theta(g, min(1.0, p + bump), v).value
    assert hi >= lo - 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.floats(0.1, 0.9))
def test_star_finite_probability_closed_form(leaves, p):
    g = star_graph(leaves)
    exact = exact_prob(g, p, lambda c: not _connects(g, 0, None, c)).value
    assert exact == pytest.approx((1 - p) ** leaves, abs=1e-12)
