import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from percut import _util
from percut._util import _seed_words, checked_solve, trial_generators, wilson_interval
from percut.cli import _fmt12 as fmt12
from percut.errors import NumericalError

from oracles import derive_seed


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**20))
def test_derive_seed_is_64_bit(seed, index):
    out = derive_seed(seed, index)
    assert 0 <= out < 2**64


def test_derive_seed_distinct_across_indices():
    seen = {derive_seed(12345, i) for i in range(10_000)}
    assert len(seen) == 10_000


def test_derive_seed_distinct_across_seeds():
    assert derive_seed(1, 0) != derive_seed(2, 0)


def test_derive_seed_is_splitmix64():
    # splitmix64's first outputs from state 0: derive_seed(0, i) is output i.
    want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert [derive_seed(0, i) for i in range(3)] == want


def test_trial_generator_reproducible():
    a = trial_generators(7, 3, 4)[0].random(5)
    b = trial_generators(7, 0, 5)[3].random(5)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("entropy", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_seed_words_match_seed_sequence(entropy):
    want = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
    assert np.array_equal(_seed_words(np.array([entropy], dtype=np.uint64))[0], want)


@pytest.mark.parametrize("seed, start, stop", [(5, 0, 10_000), (2**64 - 1, 2**32 - 50, 2**32 + 50)])
def test_trial_generators_match_seeded_pcg64(seed, start, stop):
    got = trial_generators(seed, start, stop)
    assert len(got) == stop - start
    for t, gen in zip(range(start, stop), got):
        assert gen.bit_generator.state == np.random.PCG64(derive_seed(seed, t)).state


def test_wilson_zero_trials():
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_wilson_endpoints_exact():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.1
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo > 0.9


@given(st.integers(1, 10_000), st.data())
def test_wilson_contains_point_estimate(trials, data):
    successes = data.draw(st.integers(0, trials))
    lo, hi = wilson_interval(successes, trials)
    assert 0.0 <= lo <= successes / trials <= hi <= 1.0


def test_checked_solve_accepts_well_conditioned():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    x = checked_solve(a, np.array([1.0, 2.0]))
    assert np.allclose(a @ x, [1.0, 2.0])


def test_checked_solve_refuses_singular():
    with pytest.raises(NumericalError):
        checked_solve(np.zeros((2, 2)), np.ones(2))


def test_checked_solve_matches_scipy():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(1, 40))
        # Diagonally dominant, so every system is well conditioned.
        a = rng.normal(size=(n, n)) + 2 * n * np.eye(n)
        b = rng.normal(size=(n, int(rng.integers(1, 4))))
        want = scipy.linalg.solve(a, b)
        np.testing.assert_allclose(checked_solve(a, b), want, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(checked_solve(a, b[:, 0]), want[:, 0], rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("a", [[[1.0, 2.0], [2.0, 4.0]], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]])
def test_checked_solve_refuses_what_scipy_calls_singular(a):
    a = np.array(a)
    b = np.ones(len(a))
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.solve(a, b)
    with pytest.raises(NumericalError):
        checked_solve(a, b)


def test_checked_solve_stacked_matches_one_at_a_time():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 4, 4)) + 8 * np.eye(4)
    b = rng.normal(size=(6, 4, 1))
    x = checked_solve(a, b)
    assert x.shape == (6, 4, 1)
    for l in range(6):
        np.testing.assert_allclose(x[l, :, 0], checked_solve(a[l], b[l, :, 0]), rtol=1e-13)


def test_checked_solve_stacked_refuses_one_singular_system():
    a = np.stack([np.eye(3), np.ones((3, 3)), 2 * np.eye(3)])
    with pytest.raises(NumericalError):
        checked_solve(a, np.ones((3, 3, 1)))


def test_checked_solve_holds_each_system_to_its_own_rhs(monkeypatch):
    """A residual the largest right-hand side would forgive is refused in a small system."""
    a = np.stack([np.eye(2), np.eye(2)])
    b = np.array([[[1e7], [1e7]], [[1.0], [1.0]]])
    solve = np.linalg.solve

    def off_in_the_second(a, b):
        x = solve(a, b)
        x[1] += 1e-3
        return x

    assert checked_solve(a, b)[1, 0, 0] == 1.0
    monkeypatch.setattr(np.linalg, "solve", off_in_the_second)
    with pytest.raises(NumericalError, match="residual 1.000e-03"):
        checked_solve(a, b)


NOT_FINITE = [
    # LAPACK answers [nan, 0] and [0, 0.5] here, and a @ x - b is NaN.
    np.array([[np.nan, 1.0], [1.0, 2.0]]),
    np.array([[np.inf, 1.0], [1.0, 2.0]]),
]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("a", NOT_FINITE, ids=["nan", "inf"])
def test_checked_solve_refuses_a_residual_that_is_not_finite(a):
    with pytest.raises(NumericalError, match="residual nan"):
        checked_solve(a, np.ones(2))
    with pytest.raises(NumericalError, match="residual nan"):
        checked_solve(a[None], np.ones((1, 2, 1)))


def test_fmt12():
    assert fmt12(0.4375) == "0.4375"
    assert fmt12(1 / 3) == "0.333333333333"
