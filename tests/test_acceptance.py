"""Release checklist: one test and one printed verdict per criterion.

Each test prints a single ``CRITERION NN PASS/FAIL`` line on the real
stdout, bypassing pytest capture, so a full run doubles as the sign-off
report.  Randomized criteria fix their seeds and state their margins in
the printed line; timed criteria measure wall clock against the stated
budget.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from corpus import CORPUS, all_pairs, census_for, cutsets_for, interior_vertices, table_for
from oracles import (
    Multigraph, bruteforce_tail_bound, covering_sum_bruteforce, derive_seed,
    eulerian_from_two_trees, green_matrix, markov_check, subdivision_escape_check,
)
from percut import (
    ConnectivityOracle,
    SubStochasticMatrix,
    build_chain,
    covering_sum_exact,
    covering_sum_mc,
    count_minimal_cutsets,
    crossing_matrix,
    decompose,
    delta_bound,
    enumerate_minimal_cutsets_bruteforce,
    escape_probabilities,
    exposed_boundary,
    fkg_lower_bound,
    green,
    is_minimal_cutset,
    karger_count_min_cuts,
    min_cut,
    peierls_bound,
    qn_census_rw,
    section8_pipeline,
    subdivide,
)
from percut.percolation import profile_probability

SEED = 20260823


@pytest.fixture
def verdict(capfd):
    """Print one CRITERION line on the real stdout, then enforce it."""

    def emit(num: int, ok: bool, detail: str) -> None:
        line = f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


# ---- 1: exposed boundaries of random connected sets ----


def _grow_random_set(graph, interior, rng):
    """Connected interior set from a random root, random target size."""
    inside_only = set(interior)
    root = int(interior[int(rng.integers(len(interior)))])
    target = 1 + int(rng.integers(len(interior)))
    inside = {root}
    frontier = [root]
    while frontier and len(inside) < target:
        u = frontier.pop(int(rng.integers(len(frontier))))
        for w, _ in graph.adjacency[u]:
            if w in inside_only and w not in inside:
                inside.add(w)
                frontier.append(w)
    return root, inside


def test_criterion_01_random_set_boundaries_are_minimal_cutsets(verdict):
    names = sorted(name for name, g in CORPUS.items() if g.n_edges <= 16)
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    bad = 0
    for i in range(1000):
        name = names[i % len(names)]
        graph = CORPUS[name]
        root, inside = _grow_random_set(graph, interior_vertices(name), rng)
        if not is_minimal_cutset(graph, exposed_boundary(graph, inside), root):
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and len(names) >= 20 and elapsed < 10.0
    verdict(
        1,
        ok,
        f"1000 random connected sets over {len(names)} graphs, "
        f"{1000 - bad} minimal exposed boundaries, {elapsed:.2f} s (< 10 s)",
    )


# ---- 2: sandwiched sets share the boundary ----


def test_criterion_02_sandwiched_sets_share_the_exposed_boundary(verdict):
    rng = np.random.default_rng(4096)
    checked = 0
    bad = 0
    for name, v in all_pairs():
        graph = CORPUS[name]
        for cs in cutsets_for(name, v):
            decomp = decompose(graph, cs)
            core = set(decomp.inner_b) | {v}
            free = sorted(decomp.component_a - core)
            for _ in range(20):
                s = set(core)
                for u in free:
                    if rng.random() < 0.5:
                        s.add(u)
                if exposed_boundary(graph, s) != cs.edge_ids:
                    bad += 1
                checked += 1
    verdict(2, bad == 0, f"{checked} sandwiched sets, {bad} boundary mismatches")


# ---- 3: enumeration routes agree ----


def test_criterion_03_powerset_and_component_enumerations_agree(verdict):
    sources = 0
    mismatches = 0
    for name, v in all_pairs():
        graph = CORPUS[name]
        brute = enumerate_minimal_cutsets_bruteforce(graph, v, graph.n_edges)
        walk = table_for(name, v)
        frontier = count_minimal_cutsets(graph, v, graph.n_edges)
        if brute.cutsets != walk.cutsets or not brute.counts == walk.counts == frontier.counts:
            mismatches += 1
        sources += 1
    verdict(
        3,
        mismatches == 0,
        f"{sources} (graph, source) tables identical by powerset sweep, component walk "
        f"and frontier counts, {mismatches} mismatches",
    )


# ---- 4: union bound over closed cutsets ----


def test_criterion_04_finite_cluster_probability_respects_the_union_bound(verdict):
    ps = [k / 10 for k in range(1, 10)]
    checked = 0
    worst_slack = float("inf")
    for name, v in all_pairs():
        profiles, _ = census_for(name, v)
        table = table_for(name, v)
        for p in ps:
            finite = sum(profile_probability(prof, p) for prof in profiles.values())
            bound = peierls_bound(table, p, v)
            worst_slack = min(worst_slack, bound - finite)
            checked += 1
    tight_ok = False
    star = CORPUS["star3"]
    v_star = interior_vertices("star3")[0]
    star_profiles, _ = census_for("star3", v_star)
    star_finite = sum(profile_probability(prof, 0.5) for prof in star_profiles.values())
    star_bound = peierls_bound(table_for("star3", v_star), 0.5, v_star)
    tight_ok = abs(star_finite - 0.125) <= 1e-12 and abs(star_bound - 0.125) <= 1e-12
    ok = worst_slack >= -1e-12 and tight_ok
    verdict(
        4,
        ok,
        f"{checked} (source, p) pairs, worst bound slack {worst_slack:.3e}; "
        f"star3 at p=1/2 both sides 1/8 within 1e-12",
    )


# ---- 5 and 6 share the per-cutset decomposition sweep ----


def _chain_respects_guarantees(cert, p):
    lo = p * cert.theta / 2 - 1e-12
    hi = cert.theta / 2 + 1e-12
    if any(not lo <= q <= hi for q in cert.probs[1:]):
        return False
    if cert.p2_certificate < cert.theta / 2 - 1e-12:
        return False
    return len(cert.vertices) <= 2 * cert.n_targets / cert.theta + 1e-9


def test_criterion_05_joint_connection_beats_the_chain_bound(verdict):
    instances = 0
    bad = 0
    for name, v in all_pairs():
        graph = CORPUS[name]
        for cs in cutsets_for(name, v):
            decomp = decompose(graph, cs)
            region = tuple(sorted(decomp.component_a))
            targets = tuple(sorted(decomp.inner_b))
            for p in (0.3, 0.7):
                oracle = ConnectivityOracle(graph, region, p)
                theta = min(oracle.connect_prob(u, targets) for u in region)
                exact = oracle.all_connected_prob(v, targets)
                bound = fkg_lower_bound(theta, p, len(targets))
                cert = build_chain(graph, region, targets, v, p=p)
                if exact < bound - 1e-12 or not _chain_respects_guarantees(cert, p):
                    bad += 1
                instances += 1
    verdict(
        5,
        bad == 0,
        f"{instances} (region, targets, origin, p) instances: exact joint "
        f"connection above the bound and every chain within its guarantees",
    )


def test_criterion_06_boundary_hit_probability_beats_the_closed_ring_bound(verdict):
    priced = 0
    bad = 0
    mass_bad = 0
    sweeps = 0
    for name, v in all_pairs():
        graph = CORPUS[name]
        profiles, infinite = census_for(name, v)
        decomps = [decompose(graph, cs) for cs in cutsets_for(name, v)]
        for p in (0.3, 0.7):
            total = 0.0
            for decomp in decomps:
                region = tuple(sorted(decomp.component_a))
                targets = tuple(sorted(decomp.inner_b))
                oracle = ConnectivityOracle(graph, region, p)
                theta = min(oracle.connect_prob(u, targets) for u in region)
                n = decomp.cutset.size
                hit = profile_probability(profiles[decomp.cutset.edge_ids], p)
                bound = fkg_lower_bound(theta, p, n) * (1.0 - p) ** n
                if hit < bound - 1e-12:
                    bad += 1
                total += hit
                priced += 1
            escaped = profile_probability(infinite, p)
            if total > 1.0 + 1e-12 or abs(total + escaped - 1.0) > 1e-9:
                mass_bad += 1
            sweeps += 1
    ok = bad == 0 and mass_bad == 0
    verdict(
        6,
        ok,
        f"{priced} (cutset, p) hit probabilities above (c(1-p))^n; boundary "
        f"mass <= 1 and complements the escape event in all {sweeps} sweeps",
    )


# ---- 7: cover-and-return weight ----


def _random_substochastic(index: int) -> SubStochasticMatrix:
    rng = np.random.default_rng(derive_seed(SEED, index))
    n = 2 + index % 7
    raw = rng.random((n, n))
    sym = (raw + raw.T) / 2.0
    scale = float(sym.sum(axis=1).max()) * (1.0 + float(rng.random()))
    return SubStochasticMatrix(sym / scale)


_BRUTE_DEPTH = {2: 12, 3: 10, 4: 8}


def test_criterion_07_covering_sum_floor_bruteforce_and_mc_agreement(verdict):
    floor_bad = 0
    brute_bad = 0
    brute_checked = 0
    for i in range(200):
        sub = _random_substochastic(i)
        eps = min_cut(sub)
        dp = covering_sum_exact(sub)
        if not (eps > 0.0 and dp >= delta_bound(eps, sub.n) - 1e-15):
            floor_bad += 1
        if sub.n <= 4:
            k_max = _BRUTE_DEPTH[sub.n]
            partial = covering_sum_bruteforce(sub, k_max)
            tail = bruteforce_tail_bound(sub, k_max)
            if not partial - 1e-12 <= dp <= partial + tail + 1e-12:
                brute_bad += 1
            brute_checked += 1
    ci_hits = 0
    for i in range(100):
        sub = _random_substochastic(i)
        dp = covering_sum_exact(sub)
        est = covering_sum_mc(sub, trials=100_000, seed=derive_seed(SEED, 10_000 + i))
        if est.ci_low <= dp <= est.ci_high:
            ci_hits += 1
    ok = floor_bad == 0 and brute_bad == 0 and ci_hits >= 99
    verdict(
        7,
        ok,
        f"200 matrices above the (eps^2/16e^2)^n floor; {brute_checked} "
        f"partial sums bracket the DP value; MC inside the 99% CI on "
        f"{ci_hits}/100 matrices (need >= 99)",
    )


# ---- 8: doubled trees close into even subgraphs ----


def test_criterion_08_two_random_trees_yield_even_connected_spanning_subgraphs(verdict):
    bad = 0
    for trial in range(1000):
        rng = np.random.default_rng(900 + trial)
        n = 2 + int(rng.integers(11))
        tree_a = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        tree_b = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        mg = Multigraph(n, tuple(tree_a + tree_b))
        chosen = eulerian_from_two_trees(
            mg, tuple(range(n - 1)), tuple(range(n - 1, 2 * n - 2))
        )
        degree = [0] * n
        adj = [[] for _ in range(n)]
        for eid in chosen:
            u, w = mg.edges[eid]
            degree[u] += 1
            degree[w] += 1
            adj[u].append(w)
            adj[w].append(u)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if any(d % 2 for d in degree) or any(d == 0 for d in degree) or len(seen) != n:
            bad += 1
    verdict(8, bad == 0, f"1000 doubled-tree instances, {bad} failed even/spanning/connected")


# ---- 9: split-edge walk identities ----


def test_criterion_09_subdivision_identities_and_crossing_floors(verdict):
    worst_residual = 0.0
    floor_bad = 0
    sym_bad = 0
    cut_bad = 0
    crossings = 0
    for name in sorted(CORPUS):
        graph = CORPUS[name]
        sd = subdivide(graph, 2)
        rep = subdivision_escape_check(sd)
        worst_residual = max(worst_residual, rep.max_identity_residual)
        if any(w < rep.eps_derived_floor - 1e-12 for w in rep.weighted_escape.values()):
            floor_bad += 1
        for v in interior_vertices(name):
            for cs in cutsets_for(name, v):
                cm = crossing_matrix(sd, cs)
                if float(np.max(np.abs(cm.p - cm.p.T))) > 1e-9:
                    sym_bad += 1
                if len(cm.vertices) > 1 and cm.min_cut_value < cm.eps2 - 1e-12:
                    cut_bad += 1
                crossings += 1
    ok = worst_residual <= 1e-9 and floor_bad == 0 and sym_bad == 0 and cut_bad == 0
    verdict(
        9,
        ok,
        f"visit identity residual {worst_residual:.2e} (<= 1e-9), every derived "
        f"vertex above 2e/(4+e), {crossings} crossing matrices symmetric with "
        f"splits above e1^2/64",
    )


# ---- 10: walk census recovers the exact tables ----


def test_criterion_10_walk_census_recovers_exact_cutset_tables(verdict):
    jobs = [("path5", 2), ("star3", None), ("grid3x3", None)]
    start = time.perf_counter()
    bad = []
    for name, v in jobs:
        graph = CORPUS[name]
        if v is None:
            v = interior_vertices(name)[0]
        census = qn_census_rw(subdivide(graph, 2), v, 100_000, SEED)
        exact_ids = {cs.edge_ids for cs in cutsets_for(name, v)}
        decoded_ids = {cs.edge_ids for cs in census.hits}
        if decoded_ids != exact_ids:
            bad.append(f"{name}: decoded {sorted(decoded_ids)} != exact {sorted(exact_ids)}")
        if any(not is_minimal_cutset(graph, cs.edge_ids, v) for cs in census.hits):
            bad.append(f"{name}: non-minimal decode")
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60.0
    verdict(
        10,
        ok,
        f"1e5-trial censuses recover all exact tables on path5/star3/grid3x3, "
        f"every decode minimal, {elapsed:.1f} s (< 60 s)" + ("; " + "; ".join(bad) if bad else ""),
    )


# ---- 11: field identities and the excursion pipeline ----


def test_criterion_11_field_identities_covariance_and_pipeline(verdict):
    diag_bad = 0
    markov_bad = 0
    for name in sorted(CORPUS):
        graph = CORPUS[name]
        if not interior_vertices(name):
            continue
        gm = green(graph)
        g = green_matrix(gm)
        esc = escape_probabilities(graph)
        for x in gm.interior:
            d_x = len(graph.adjacency[x])
            if abs(g[gm.index(x), gm.index(x)] * d_x * esc[x] - 1.0) > 1e-9:
                diag_bad += 1
        subsets = [{x} for x in gm.interior]
        if len(gm.interior) >= 2:
            subsets.append(set(gm.interior[:2]))
        for conditioned in subsets:
            if markov_check(gm, conditioned) > 1e-9:
                markov_bad += 1

    gm = green(CORPUS["grid3x3_corners"])
    samples = gm.sample_block(np.random.default_rng(SEED), 100_000)
    emp = samples.T @ samples / 100_000
    g = green_matrix(gm)
    diag = np.diag(g)
    se = np.sqrt((np.outer(diag, diag) + g**2) / 100_000)
    cov_sigma = float(np.max(np.abs(emp - g) / se))

    qualifying = 0
    pipeline_bad = 0
    for name, v, trials, seed in [("pendant3", 3, 30_000, 77), ("path5", 2, 20_000, 78)]:
        graph = CORPUS[name]
        for cs in cutsets_for(name, v):
            try:
                rep = section8_pipeline(graph, cs, trials, seed)
            except Exception:
                pipeline_bad += 1
                continue
            qualifying += rep.fe_count
    ok = (
        diag_bad == 0
        and markov_bad == 0
        and cov_sigma <= 5.0
        and pipeline_bad == 0
        and qualifying > 0
    )
    verdict(
        11,
        ok,
        f"diagonal and slit-graph residuals <= 1e-9, covariance within "
        f"{cov_sigma:.1f} SE (<= 5) at 1e5 samples, boundary implication held "
        f"on all {qualifying} clamp-and-connect samples",
    )


# ---- 12: contraction cuts ----


def test_criterion_12_contraction_finds_all_cycle_cuts_within_the_pair_bound(verdict):
    rng = np.random.default_rng(SEED)
    cycle = karger_count_min_cuts(CORPUS["cycle4"], rng, trials=2000)
    over_cap = 0
    for name in sorted(CORPUS):
        graph = CORPUS[name]
        result = karger_count_min_cuts(graph, rng)
        if result.distinct_count > graph.n_vertices * (graph.n_vertices - 1) // 2:
            over_cap += 1
    ok = cycle.min_cut_size == 2 and cycle.distinct_count == 6 and over_cap == 0
    verdict(
        12,
        ok,
        f"cycle4 yields {cycle.distinct_count}/6 distinct minimum cuts; "
        f"distinct count within n(n-1)/2 on all {len(CORPUS)} graphs",
    )
