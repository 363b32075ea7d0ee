"""Shared helpers: seeds, trial bits, Wilson intervals, event probabilities, checked solves, caps.

Both sources of edge configurations, as trial bits, live here: ``_open_bits``
(the 2^m sweep) and ``_config_blocks`` (the seeded sampler).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING, Iterator

from .errors import CapExceededError, NumericalError, PreconditionError

if TYPE_CHECKING:
    import numpy as np

# 99% two-sided normal quantile, used by every Wilson interval in the package.
Z99 = 2.5758293035489004

# Largest max-norm residual of a linear solve, relative to max(1, |b|), that
# checked_solve accepts; anything above it is refused.
SOLVE_RESIDUAL_REFUSE = 1e-6

# Most edges a route may sweep; a sweep visits all 2^m edge configurations
# (or edge subsets).
SWEEP_EDGES = 20

# Most steps a sampled walk or killed chain may take before it stops.
MAX_STEPS = 10_000_000

# Cells per block: random doubles drawn for sampled percolation, a walk's
# row, buffer and generator in rw_cutsets; bytes per block of a dense
# matrix pass (solve residuals, the Green matrix's symmetry) and of a
# streamed CSV matrix cell.  It bounds memory and never changes a result.
_BLOCK_CELLS = 1 << 20

_MASK64 = (1 << 64) - 1


def check_sweep(m: int) -> None:
    """Refuse a 2^m sweep over more than ``SWEEP_EDGES`` edges."""
    if m > SWEEP_EDGES:
        raise CapExceededError(f"{m} edges exceed the {SWEEP_EDGES}-edge sweep cap")


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise PreconditionError(f"p={p} outside [0, 1]")


def _open_bits(eid: int, m: int) -> int:
    """The subsets x of m edges that keep edge ``eid``: bit eid of x clear.

    A periodic pattern of period 2^(eid+1) whose low half is set.
    """
    period = 2 << eid
    bits = (1 << (period >> 1)) - 1
    while period < 1 << m:
        bits |= bits << period
        period <<= 1
    return bits


def _config_blocks(
    n_edges: int, p: float, trials: int, seed: int
) -> Iterator[tuple[int, list[int]]]:
    """``trials`` configurations from one ``PCG64(seed)`` stream, as blocks of trial bits.

    A block is (count, bits) with ``bits[eid]`` a Python int whose bit t is
    set when edge eid is open in the block's trial t; trial i of the joined
    blocks is configuration i.  A block holds at most ``_BLOCK_CELLS``
    bytes of bits, drawn at most ``_BLOCK_CELLS // 8`` doubles (as many
    bytes as the block) at a time in multiples of 8 trials (at least 8).
    ``Generator.random`` yields the same doubles however a draw is split,
    so the sizes never change a result.
    Arguments are checked at the call, draws made lazily.
    """
    import numpy as np

    _check_p(p)
    if trials < 1:
        raise PreconditionError("trials must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = max(8, _BLOCK_CELLS // 8 // max(n_edges, 1) & -8)
    size = max(1, 8 * _BLOCK_CELLS // max(n_edges, 1) // rows) * rows

    def draw(count: int) -> tuple[int, list[int]]:
        packed = np.empty((n_edges, count + 7 >> 3), dtype=np.uint8)
        for done in range(0, count, rows):
            block = rng.random((min(rows, count - done), n_edges)) < p
            # Packing along a contiguous last axis is about 3x faster.
            packed[:, done >> 3 : done + rows >> 3] = np.packbits(
                np.ascontiguousarray(block.T), axis=1, bitorder="little"
            )
            del block  # before the next draw
        return count, [int.from_bytes(row.tobytes(), "little") for row in packed]

    return (draw(min(size, trials - done)) for done in range(0, trials, size))


def _bit_rows(values: list[int], count: int) -> np.ndarray:
    """Bits 0..count-1 of each int, one uint8 row of zeros and ones per int."""
    import numpy as np

    width = count + 7 >> 3
    data = b"".join(x.to_bytes(width, "little") for x in values)
    packed = np.frombuffer(data, np.uint8).reshape(len(values), width)
    return np.unpackbits(packed, axis=1, count=count, bitorder="little")


def _row_ints(cells: np.ndarray) -> list[int]:
    """Each row of a 2-D bool array as an int whose bit t is the row's entry t.

    ``_bit_rows`` undoes it.
    """
    import numpy as np

    packed = np.packbits(np.ascontiguousarray(cells), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _derived_seeds(seed: int, start: int, stop: int) -> np.ndarray:
    """Trial t's 64-bit seed for every t in ``range(start, stop)``, as uint64.

    The seed is splitmix64 of ``seed + (t + 1) * golden``, so serial and
    fanned-out runs of one experiment agree on each trial's stream.
    """
    import numpy as np

    z = np.arange(stop - start, dtype=np.uint64) + np.uint64((start + 1) & _MASK64)
    z = z * np.uint64(0x9E3779B97F4A7C15) + np.uint64(seed & _MASK64)
    z = (z ^ z >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ z >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    return z ^ z >> np.uint64(31)


# numpy.random.SeedSequence's hash constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for each 64-bit entropy e.

    numpy's documented hash (a pool of four 32-bit words, ``hashmix`` and
    ``mix``) in wrapping uint32 arithmetic, vectorised over ``entropy``.  An
    entropy below 2^32 pads its pool with the hash of 0, the same word a zero
    high half hashes to, so every entropy is hashed as two words.
    """
    import numpy as np

    e = np.asarray(entropy, dtype=np.uint64)
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ r >> np.uint32(16)

    zero = np.zeros(e.shape, dtype=np.uint32)
    low = (e & np.uint64(_MASK32)).astype(np.uint32)
    high = (e >> np.uint64(32)).astype(np.uint32)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    const = _INIT_B
    state = np.empty(e.shape + (8,), dtype="<u4")
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state[..., i] = value ^ value >> np.uint32(16)
    return state.view("<u8").astype(np.uint64)


@cache
def _hashed_words_type() -> type:
    """A seed sequence type that hands ``PCG64`` words ``_seed_words`` computed.

    ``PCG64`` asks its seed sequence for four uint64 words once, at
    construction; this one returns them without hashing again.  The type is
    built on first use because importing ``numpy.random`` costs every
    command about 3 MB and 50 ms at start-up.
    """
    import numpy as np
    from numpy.random.bit_generator import ISeedSequence

    class HashedWords(ISeedSequence):
        __slots__ = ("_words",)

        def __init__(self, words: np.ndarray):
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self._words

    return HashedWords


def trial_generators(seed: int, start: int, stop: int) -> list[np.random.Generator]:
    """Independent generators for trials ``start .. stop - 1`` of a seeded experiment.

    Trial t's generator is ``Generator(PCG64(s))`` bit for bit, with s the
    trial's ``_derived_seeds`` entry; deriving a block of them at once skips
    building a ``SeedSequence`` per trial, which costs most of a generator's
    construction.
    """
    import numpy as np

    words = _seed_words(_derived_seeds(seed, start, stop))
    hashed = _hashed_words_type()
    return [np.random.Generator(np.random.PCG64(hashed(row))) for row in words]


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval at 99% (``Z99``) for a binomial proportion.

    Returns (low, high). With zero trials the interval is the full unit
    interval.
    """
    if trials <= 0:
        return 0.0, 1.0
    phat = successes / trials
    z2 = Z99 * Z99
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (Z99 / denom) * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


@dataclass(frozen=True)
class EventProbability:
    value: float
    method: str
    trials: int | None = None
    ci_low: float | None = None
    ci_high: float | None = None

    def __post_init__(self):
        if self.method not in ("exact", "monte_carlo"):
            raise PreconditionError(f"unknown method {self.method!r}")
        if (self.method == "monte_carlo") != (self.trials is not None):
            raise PreconditionError("trial count present iff monte_carlo")

    @classmethod
    def sampled(cls, hits: int, trials: int) -> EventProbability:
        """Hit frequency over ``trials`` draws with its Wilson 99% interval."""
        lo, hi = wilson_interval(hits, trials)
        return cls(hits / trials, "monte_carlo", trials, lo, hi)


def checked_solve(a: np.ndarray, b: np.ndarray, what: str = "linear system") -> np.ndarray:
    """Solve a x = b and refuse the answer when the residual is untrustworthy.

    ``b`` is one right-hand side or a matrix of them.  A 3-D ``a`` is a
    stack of systems with ``b`` stacked the same way (one column matrix
    each, as ``np.linalg.solve`` takes them); each system's residual is
    held to the rule against its own right-hand side.
    """
    import numpy as np

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what}: singular matrix ({exc})") from exc
    per_system = tuple(range(a.ndim - 2, b.ndim))
    residual = np.abs(a @ x - b).max(axis=per_system, initial=0.0)
    scale = np.maximum(1.0, np.abs(b).max(axis=per_system, initial=0.0))
    refused = residual > SOLVE_RESIDUAL_REFUSE * scale
    if refused.any():
        worst = float(residual[refused].max())
        raise NumericalError(f"{what}: solve residual {worst:.3e} above refusal threshold")
    return x


def checked_inverse(a: np.ndarray, what: str = "linear system") -> np.ndarray:
    """``checked_solve(a, I)``, bit for bit, without holding I or the full residual.

    ``np.linalg.inv`` solves a x = I by the LAPACK routine ``np.linalg.solve``
    calls, so the answers agree bit for bit.  The residual a x - I is held to
    the same rule (the scale max(1, |I|) is 1), one block of rows of at most
    ``_BLOCK_CELLS`` bytes at a time.  ``a`` is left as it was.
    """
    import numpy as np

    a = np.asarray(a, dtype=float)
    try:
        x = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what}: singular matrix ({exc})") from exc
    k = len(a)
    rows = max(1, _BLOCK_CELLS // 8 // max(k, 1))
    block_max = [0.0]
    for lo in range(0, k, rows):
        r = a[lo : lo + rows] @ x
        diag = np.arange(len(r))
        r[diag, lo + diag] -= 1.0
        block_max.append(np.abs(r, out=r).max())
    # np.max, not max: a NaN residual passes here as it passes checked_solve.
    residual = float(np.max(block_max))
    if residual > SOLVE_RESIDUAL_REFUSE:
        raise NumericalError(f"{what}: solve residual {residual:.3e} above refusal threshold")
    return x
