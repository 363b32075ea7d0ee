import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from percut import _util, cover_lemma
from percut.cover_lemma import (
    SubStochasticMatrix,
    covering_sum_exact,
    covering_sum_mc,
    delta_bound,
    load_matrix_file,
    min_cut,
)
from percut.errors import CapExceededError, PreconditionError

from oracles import (
    bruteforce_tail_bound, covering_sum_bruteforce, covering_sum_by_masks, gamma_sequences,
    is_gamma_sequence, min_cut_by_splits, sample_h_graphs,
)


def uniform_matrix(n: int, value: float) -> SubStochasticMatrix:
    return SubStochasticMatrix(np.full((n, n), value))


THREE = SubStochasticMatrix(
    [[0.0, 1 / 3, 1 / 6], [1 / 3, 0.0, 1 / 3], [1 / 6, 1 / 3, 0.0]]
)


# ---- matrix wrapper ----


def test_matrix_basics():
    m = uniform_matrix(2, 0.25)
    assert m.n == 2
    assert 1.0 - m.p[0].sum() == pytest.approx(0.5)
    assert 1.0 - m.p[1].sum() == pytest.approx(0.5)


def test_matrix_averages_tiny_asymmetry():
    m = SubStochasticMatrix([[0.0, 0.25 + 4e-10], [0.25 - 4e-10, 0.0]])
    assert m.p[0, 1] == pytest.approx(0.25, abs=1e-10)
    assert m.p[0, 1] == m.p[1, 0]


def test_matrix_rejects():
    with pytest.raises(PreconditionError):
        SubStochasticMatrix([[0.0, 0.3], [0.1, 0.0]])
    with pytest.raises(PreconditionError):
        SubStochasticMatrix([[0.6, 0.6], [0.6, 0.6]])
    with pytest.raises(PreconditionError):
        SubStochasticMatrix([[-0.2]])
    with pytest.raises(PreconditionError):
        SubStochasticMatrix([[0.1, 0.2]])
    # NaN passes every comparison guard, so it is refused as non-finite.
    with pytest.raises(PreconditionError, match="finite"):
        SubStochasticMatrix([[math.nan]])
    with pytest.raises(PreconditionError, match="finite"):
        SubStochasticMatrix([[math.nan, 0.1], [0.1, 0.2]])


# ---- matrix files ----


def test_load_matrix_file():
    m = load_matrix_file("# demo\n2\n0 0.25\n0.25 0  # trailing\n")
    assert m.n == 2
    assert m.p[0, 1] == 0.25


def test_load_matrix_file_rejects():
    for text in ("", "x\n1 2", "2\n0 0.25", "1\n0.1 0.2", "1\nfoo"):
        with pytest.raises(PreconditionError):
            load_matrix_file(text)


# ---- cuts and the guaranteed floor ----


def test_min_cut_values():
    assert min_cut(uniform_matrix(2, 0.25)) == pytest.approx(0.25, abs=1e-15)
    assert min_cut(uniform_matrix(3, 1 / 6)) == pytest.approx(1 / 3, abs=1e-15)
    assert min_cut(uniform_matrix(1, 0.5)) == float("inf")


def ring(n: int) -> np.ndarray:
    """Half a step each way round a cycle: every row sums to exactly one."""
    p = np.zeros((n, n))
    for i in range(n):
        p[i, (i + 1) % n] += 0.5
        p[i, (i - 1) % n] += 0.5
    return p


def seeded_matrices(n: int) -> dict[str, SubStochasticMatrix]:
    """Dense, sparse, exactly stochastic, and split off an exactly stochastic block.

    The ring never dies.  In the split matrix the states past state 0's
    block form a closed stochastic class, so every set holding all of
    them has states that cannot leak.
    """
    rng = np.random.default_rng(1000 + n)
    raw = rng.random((n, n))
    dense = (raw + raw.T) / 2.0
    keep = np.triu(rng.random((n, n)) < 0.35, 1)
    sparse = dense * (keep | keep.T)
    head = max(1, n // 2)
    split = np.zeros((n, n))
    split[:head, :head] = dense[:head, :head] / (2.0 * dense[:head, :head].sum(axis=1).max())
    split[head:, head:] = ring(n - head)

    def scaled(p: np.ndarray) -> SubStochasticMatrix:
        top = p.sum(axis=1).max()
        return SubStochasticMatrix(p / (top * (1.0 + rng.random())) if top else p)

    return {
        "dense": scaled(dense),
        "sparse": scaled(sparse),
        "ring": SubStochasticMatrix(ring(n)),
        "split": SubStochasticMatrix(split),
    }


@pytest.mark.parametrize("n", range(1, 13))
def test_min_cut_matches_split_loop(n):
    for label, sub in seeded_matrices(n).items():
        want = min_cut_by_splits(sub)
        got = min_cut(sub)
        assert got == want if math.isinf(want) else abs(got - want) <= 1e-14, (label, got, want)


def test_min_cut_at_the_cap():
    # The sampler's 62 states, the most any cover command reads a cut for.
    n = 62
    sub = uniform_matrix(n, 1.0 / n)
    # A single state is the lightest split: n - 1 targets of mass 1/n each.
    assert min_cut(sub) == pytest.approx((n - 1) / n, abs=1e-14)


def two_blocks(n: int, bridges: dict[tuple[int, int], float]) -> SubStochasticMatrix:
    """Two uniform blocks of a third and two thirds of n states, ids shuffled, joined by ``bridges``.

    Each block's lightest inner split is a single state, far heavier
    than the bridges, so the bridges are the minimum cut.
    """
    order = np.random.default_rng(n).permutation(n)
    blocks = (order[: n // 3], order[n // 3 :])
    p = np.zeros((n, n))
    for block in blocks:
        p[np.ix_(block, block)] = 0.5 / block.size
    for (a, b), weight in bridges.items():
        i, j = blocks[0][a], blocks[1][b]
        p[i, j] = p[j, i] = weight
    return SubStochasticMatrix(p)


@pytest.mark.parametrize("n", [40, 51, 62])
def test_min_cut_closed_forms_up_to_62_states(n):
    v = 0.9 / n
    assert min_cut(uniform_matrix(n, v)) == pytest.approx((n - 1) * v, abs=1e-14)
    # Dyadic bridge weights add exactly, in any order.
    bridges = {(0, 0): 2.0**-10, (1, 0): 2.0**-9, (1, 5): 2.0**-8}
    assert min_cut(two_blocks(n, bridges)) == 7 * 2.0**-10
    assert min_cut(two_blocks(n, {})) == 0.0


def test_delta_bound_value():
    want = (0.25 / (16 * math.e**2)) ** 2
    assert delta_bound(0.5, 2) == pytest.approx(want, rel=1e-12)
    assert delta_bound(0.5, 2) == pytest.approx(4.4716e-6, rel=1e-4)


def test_delta_bound_rejects():
    with pytest.raises(PreconditionError):
        delta_bound(0.0, 1)
    with pytest.raises(PreconditionError):
        delta_bound(1.5, 1)
    with pytest.raises(PreconditionError):
        delta_bound(0.5, 0)


# ---- exact covering sum ----


def test_covering_sum_single_state():
    assert covering_sum_exact(uniform_matrix(1, 0.5)) == pytest.approx(0.5, abs=1e-12)


def test_covering_sum_two_state_quarter():
    assert covering_sum_exact(uniform_matrix(2, 0.25)) == pytest.approx(1 / 9, abs=1e-12)


def test_covering_sum_no_kill_is_one():
    assert covering_sum_exact(uniform_matrix(2, 0.5)) == pytest.approx(1.0, abs=1e-12)
    swap = SubStochasticMatrix([[0.0, 1.0], [1.0, 0.0]])
    assert covering_sum_exact(swap) == pytest.approx(1.0, abs=1e-12)


def test_covering_sum_cap(monkeypatch):
    monkeypatch.setattr(cover_lemma, "MAX_EXACT_STATES", 2)
    with pytest.raises(CapExceededError):
        covering_sum_exact(uniform_matrix(3, 0.1))


@pytest.mark.parametrize("n", range(1, 13))
def test_stacked_dp_matches_mask_recursion(n):
    for label, sub in seeded_matrices(n).items():
        want = covering_sum_by_masks(sub)
        got = covering_sum_exact(sub)
        assert abs(got - want) <= 1e-12 * abs(want), (label, got, want)


def test_covering_sum_ring_and_split_values():
    # The ring never dies, so it covers and returns surely; state 0 never
    # reaches the split matrix's stochastic block, so it never covers.
    for n in (3, 6, 9):
        subs = seeded_matrices(n)
        assert covering_sum_exact(subs["ring"]) == pytest.approx(1.0, abs=1e-12)
        assert covering_sum_exact(subs["split"]) == 0.0


def test_covering_sum_beats_delta_floor():
    for m in (uniform_matrix(2, 0.25), uniform_matrix(3, 1 / 6), THREE):
        eps = min(min_cut(m), 1.0)
        assert covering_sum_exact(m) >= delta_bound(eps, m.n) - 1e-15


def test_covering_sum_matches_bruteforce_tail():
    for m, k in ((uniform_matrix(2, 0.25), 14), (THREE, 14)):
        exact = covering_sum_exact(m)
        brute = covering_sum_bruteforce(m, k)
        assert brute <= exact + 1e-12
        assert exact - brute <= bruteforce_tail_bound(m, k) + 1e-12


def test_bruteforce_partial_value():
    # Length-three paths only: 0-1-0 plus the two one-lazy variants.
    assert covering_sum_bruteforce(uniform_matrix(2, 0.25), 3) == pytest.approx(
        1 / 16 + 2 / 64, abs=1e-15
    )


def test_covering_sum_exact_does_not_depend_on_the_slice(monkeypatch):
    subs = [m for n in range(1, 13) for m in seeded_matrices(n).values()]
    want = [covering_sum_exact(sub) for sub in subs]
    monkeypatch.setattr(_util, "_BLOCK_CELLS", 1)
    assert [covering_sum_exact(sub) for sub in subs] == want


def positive_matrix(n: int, seed: int, top: float) -> SubStochasticMatrix:
    """Every entry off the diagonal positive, the largest row sum ``top``."""
    rng = np.random.default_rng(seed)
    w = np.triu(rng.random((n, n)) + 0.2, 1)
    w = w + w.T
    return SubStochasticMatrix(w * (top / w.sum(axis=1).max()))


def test_covering_sum_exact_at_18_states_meets_the_chain_and_the_floor():
    sub = positive_matrix(18, 1, 0.99)
    exact = covering_sum_exact(sub)
    assert exact >= delta_bound(min_cut(sub), sub.n)
    est = covering_sum_mc(sub, 100_000, seed=5)
    assert est.value * est.trials >= 20
    assert est.ci_low <= exact <= est.ci_high


# ---- sampled covering sum ----


def test_covering_sum_mc_two_state():
    m = uniform_matrix(2, 0.25)
    est = covering_sum_mc(m, 40_000, seed=17)
    assert est.trials == 40_000
    assert est.aborted == 0
    assert est.ci_low <= 1 / 9 <= est.ci_high
    assert est == covering_sum_mc(m, 40_000, seed=17)


def test_covering_sum_mc_certain_cover():
    swap = SubStochasticMatrix([[0.0, 1.0], [1.0, 0.0]])
    est = covering_sum_mc(swap, 500, seed=3)
    assert est.value == 1.0


def test_covering_sum_mc_three_state():
    est = covering_sum_mc(THREE, 60_000, seed=23)
    exact = covering_sum_exact(THREE)
    assert est.ci_low <= exact <= est.ci_high
    # Every state reaches every state, so no trial is retired and the stream
    # is the one drawn before retirement existed.
    assert round(est.value * 60_000) == 4477


@pytest.mark.parametrize(
    "rows",
    [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.5]]],
    ids=["identity", "pair_beside_a_lazy_state"],
)
def test_covering_sum_mc_retires_chains_that_cannot_cover(monkeypatch, rows):
    # Neither chain can die before covering nor cover; unretired, every
    # trial would walk to the step cap and count as aborted.
    monkeypatch.setattr(_util, "MAX_STEPS", 1000)
    sub = SubStochasticMatrix(rows)
    est = covering_sum_mc(sub, 10, seed=1)
    assert (est.value, est.trials, est.aborted) == (0.0, 10, 0)
    assert covering_sum_exact(sub) == 0.0


def test_covering_sum_mc_does_not_depend_on_the_slice(monkeypatch):
    subs = [m for n in (2, 5, 8) for m in seeded_matrices(n).values()]
    subs += [SubStochasticMatrix([[1.0, 0.0], [0.0, 1.0]]), SubStochasticMatrix(
        [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.5]])]
    want = [covering_sum_mc(sub, 2_000, seed=11) for sub in subs]
    for sub, est in zip(subs, want):
        # Slices of three trials.
        monkeypatch.setattr(_util, "_BLOCK_CELLS", 8 * 3 * sub.n)
        assert covering_sum_mc(sub, 2_000, seed=11) == est


def test_covering_sum_mc_memory_does_not_grow_with_trials_times_states():
    sub = positive_matrix(10, 7, 0.97)
    tracemalloc.start()
    try:
        covering_sum_mc(sub, 200_000, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Only live trials are held: state (int8), visited (int16) and a bool
    # keep mask, 0.8 MB at the first step, beside one slice's 1 MB draw
    # matrix (2.4 MB traced).  An int64 index per live trial took 5.3 MB in
    # all; one (trials, n) float matrix would take 16 MB.
    assert peak < 3e6


def test_covering_sum_mc_rejects():
    with pytest.raises(PreconditionError):
        covering_sum_mc(uniform_matrix(2, 0.25), 0, seed=1)


# ---- explicit sequences ----


def test_is_gamma_sequence_cases():
    assert is_gamma_sequence(2, (0, 1, 0))
    assert is_gamma_sequence(2, (0, 0, 1, 0))
    assert is_gamma_sequence(2, (0, 1, 1, 0))
    assert is_gamma_sequence(1, (0, 0))
    assert not is_gamma_sequence(2, (0, 1))
    assert not is_gamma_sequence(2, (0, 0))
    assert not is_gamma_sequence(2, (1, 0))
    assert not is_gamma_sequence(2, (0, 1, 0, 1, 0))
    assert not is_gamma_sequence(2, (0, 2, 0))


def test_gamma_sequences_structure():
    m = uniform_matrix(2, 0.25)
    paths = list(gamma_sequences(m, 6))
    assert paths
    seen = set()
    for g in paths:
        assert is_gamma_sequence(2, g.states)
        assert g.weight > 0
        assert len(g.states) <= 7
        assert g.states not in seen
        seen.add(g.states)


def test_gamma_sequences_caps():
    with pytest.raises(PreconditionError):
        list(gamma_sequences(uniform_matrix(2, 0.25), 0))
    with pytest.raises(PreconditionError):
        list(gamma_sequences(uniform_matrix(2, 0.25), 21))
    with pytest.raises(CapExceededError):
        list(gamma_sequences(uniform_matrix(5, 0.1), 4))


# ---- paired random edge multisets ----


def test_h_graph_two_state_connection_rate():
    m = uniform_matrix(2, 0.5)
    rng = np.random.default_rng(9)
    hits = sum(sample_h_graphs(m, rng).h1_connected for _ in range(2000))
    assert hits / 2000 == pytest.approx(0.5, abs=0.05)


def test_h_graph_gamma_when_both_connect():
    m = uniform_matrix(2, 0.5)
    rng = np.random.default_rng(1)
    produced = 0
    for _ in range(400):
        s = sample_h_graphs(m, rng)
        assert len(s.slots) == 2
        if s.h1_connected and s.h2_connected:
            produced += 1
            assert s.gamma is not None
            assert is_gamma_sequence(2, s.gamma.states)
            assert s.gamma.weight > 0
            assert s.gamma_slots is not None
            assert len(set(s.gamma_slots)) == len(s.gamma_slots)
            assert len(s.gamma_slots) == len(s.gamma.states) - 1
        else:
            assert s.gamma is None
    assert produced > 0


def test_h_graph_single_state():
    s = sample_h_graphs(uniform_matrix(1, 0.3), np.random.default_rng(2))
    assert s.h1_connected and s.h2_connected
    assert s.slots == ()


# ---- properties ----


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3))
def test_random_matrix_exact_between_brute_and_one(seed, n):
    rng = np.random.default_rng(seed)
    raw = rng.random((n, n))
    sym = (raw + raw.T) / 2
    m = SubStochasticMatrix(sym / (sym.sum(axis=1).max() * (1.0 + rng.random())))
    exact = covering_sum_exact(m)
    assert 0.0 <= exact <= 1.0
    brute = covering_sum_bruteforce(m, 10)
    assert brute <= exact + 1e-12
    assert exact - brute <= bruteforce_tail_bound(m, 10) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_gamma_paths_weighted_consistently(seed):
    rng = np.random.default_rng(seed)
    raw = rng.random((3, 3))
    sym = (raw + raw.T) / 2
    m = SubStochasticMatrix(sym / (2.0 * sym.sum(axis=1).max()))
    for g in gamma_sequences(m, 5):
        weight = 1.0
        for a, b in zip(g.states, g.states[1:]):
            weight *= m.p[a, b]
        assert g.weight == pytest.approx(weight, rel=1e-12)
