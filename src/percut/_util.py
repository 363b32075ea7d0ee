"""Shared numeric helpers: seed mixing, Wilson intervals, checked solves, the sweep cap."""

from __future__ import annotations

import numpy as np

from .errors import CapExceededError, NumericalError

# 99% two-sided normal quantile, used by every Wilson interval in the package.
Z99 = 2.5758293035489004

# Largest max-norm residual of a linear solve, relative to max(1, |b|), that
# checked_solve accepts; anything above it is refused.
SOLVE_RESIDUAL_REFUSE = 1e-6

# Most edges a route may sweep; a sweep visits all 2^m edge configurations
# (or edge subsets).
SWEEP_EDGES = 20

_MASK64 = (1 << 64) - 1


def check_sweep(m: int) -> None:
    """Refuse a 2^m sweep over more than ``SWEEP_EDGES`` edges."""
    if m > SWEEP_EDGES:
        raise CapExceededError(f"{m} edges exceed the {SWEEP_EDGES}-edge sweep cap")


def derive_seed(seed: int, index: int) -> int:
    """Mix a base seed with a trial index into a fresh 64-bit seed.

    The mix is splitmix64 applied to ``seed + index * golden`` so that
    serial and fanned-out runs of the same experiment agree on the stream
    assigned to each trial.
    """
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trial_generator(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one trial of a seeded experiment."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, index)))


class UniformBuffer:
    """Block-buffered U(0,1) draws from a numpy generator.

    Single scalar draws dominate the cost of long random walks; pulling
    blocks of 64 amortizes the generator call overhead about tenfold.
    """

    __slots__ = ("_gen", "_block", "_buf", "_pos")

    def __init__(self, gen: np.random.Generator, block: int = 64):
        self._gen = gen
        self._block = block
        self._buf = gen.random(block)
        self._pos = 0

    def uniform(self) -> float:
        if self._pos == self._block:
            self._buf = self._gen.random(self._block)
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return u

    def index(self, n: int) -> int:
        """Uniform draw from range(n); bias is O(2^-53), ignorable here."""
        return int(self.uniform() * n)


def wilson_interval(successes: int, trials: int, z: float = Z99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Returns (low, high). With zero trials the interval is the full unit
    interval.
    """
    if trials <= 0:
        return 0.0, 1.0
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (z / denom) * np.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def checked_solve(a: np.ndarray, b: np.ndarray, what: str = "linear system") -> np.ndarray:
    """Solve a x = b and refuse the answer when the residual is untrustworthy."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what}: singular matrix ({exc})") from exc
    residual = np.max(np.abs(a @ x - b)) if b.size else 0.0
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    if residual > SOLVE_RESIDUAL_REFUSE * scale:
        raise NumericalError(f"{what}: solve residual {residual:.3e} above refusal threshold")
    return x


def fmt12(x: float) -> str:
    """Format a float with 12 significant digits, the package-wide contract."""
    return f"{float(x):.12g}"
