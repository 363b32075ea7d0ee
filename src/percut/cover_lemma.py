"""Cover-and-return sums for symmetric sub-stochastic matrices.

The central quantity: starting from state 0, the total weight of killed
chains that visit every state and end at their first return to 0 after
coverage is complete.  Whenever every nontrivial state split has
crossing mass at least epsilon, this sum is at least
(epsilon^2 / (16 e^2))^n.  Two routes compute it: an exact dynamic
program over (state, visited) with linear solves, and a vectorized
simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _util
from ._util import checked_solve, wilson_interval
from .errors import CapExceededError, PreconditionError

# Largest input asymmetry that SubStochasticMatrix averages away.
ASYMMETRY_TOL = 1e-9
# Most states the (state, visited-set) recursion accepts.
MAX_EXACT_STATES = 20


class SubStochasticMatrix:
    """Symmetric non-negative matrix with row sums at most one.

    Entries must be finite.  Input asymmetry up to ``ASYMMETRY_TOL`` is
    averaged away; anything larger is refused.  Entries are clipped to zero
    from tiny negatives.
    """

    def __init__(self, matrix):
        p = np.asarray(matrix, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 1:
            raise PreconditionError("matrix must be square and non-empty")
        # NaN fails every comparison below, so it is refused here.
        if not np.isfinite(p).all():
            raise PreconditionError("matrix entries must be finite")
        gap = float(np.max(np.abs(p - p.T))) if p.size else 0.0
        if gap > ASYMMETRY_TOL:
            raise PreconditionError(f"asymmetry {gap:.3e} above tolerance {ASYMMETRY_TOL:.1e}")
        p = (p + p.T) / 2.0
        if float(p.min(initial=0.0)) < -1e-12:
            raise PreconditionError("negative entry")
        p = np.clip(p, 0.0, None)
        sums = p.sum(axis=1)
        if float(sums.max(initial=0.0)) > 1.0 + 1e-12:
            raise PreconditionError(f"row sum {sums.max():.12g} exceeds 1")
        self.p = p
        self.n = p.shape[0]


def load_matrix_file(text: str) -> SubStochasticMatrix:
    """Parse a matrix file: first line the order, then that many rows."""
    lines = [ln for ln in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise PreconditionError("empty matrix file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise PreconditionError(f"bad matrix order {lines[0]!r}") from exc
    if len(lines) != n + 1:
        raise PreconditionError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = [float(x) for x in ln.split()]
        except ValueError as exc:
            raise PreconditionError(f"bad matrix row {ln!r}") from exc
        if len(row) != n:
            raise PreconditionError(f"row of length {len(row)}, expected {n}")
        rows.append(row)
    return SubStochasticMatrix(np.array(rows))


def min_cut(sub: SubStochasticMatrix) -> float:
    """Smallest one-directional crossing mass over nontrivial state splits.

    For each non-empty proper subset I, sum p(i, j) over i in I, j
    outside.  A single state has no nontrivial split; the minimum over
    the empty collection is infinity.

    As p is symmetric this is the global minimum cut of the weights
    p(i, j), i != j, found by Stoer and Wagner's n - 1 maximum-adjacency
    phases (J. ACM 44, 1997).  Each phase adds the alive state most
    heavily joined to those added so far, ties to the lowest index; the
    last state's join is a cut, and the last two states are then merged.
    Only elementwise sums enter, so no value depends on a BLAS build.
    """
    n = sub.n
    # A state's own entry (the diagonal, or the join of two merged states)
    # is added only to its own key, once the state is taken, so it never counts.
    w = sub.p.copy()
    alive = np.ones(n, dtype=bool)
    best = float("inf")
    for size in range(n, 1, -1):
        key = np.where(alive, 0.0, -np.inf)
        t = -1
        for _ in range(size):
            s, t = t, int(np.argmax(key))
            join = float(key[t])
            key[t] = -np.inf
            key += w[t]
        best = min(best, join)
        w[s] += w[t]
        w[:, s] += w[:, t]
        alive[t] = False
    return best


def delta_bound(epsilon: float, n: int) -> float:
    """(epsilon^2 / (16 e^2)) ** n."""
    if not 0.0 < epsilon <= 1.0:
        raise PreconditionError(f"epsilon={epsilon} outside (0, 1]")
    if n < 1:
        raise PreconditionError("n must be at least 1")
    return (epsilon**2 / (16.0 * math.e**2)) ** n


# ---- exact dynamic program ----


def _positive_adjacency(p: np.ndarray) -> list[list[int]]:
    n = p.shape[0]
    return [[j for j in range(n) if p[i, j] > 0.0] for i in range(n)]


def _reaches(adj: list[list[int]], inside: list[int], seeds: list[int]) -> set[int]:
    """States of ``inside`` with a positive-probability path to a seed."""
    inside_set = set(inside)
    seen = set(seeds) & inside_set
    stack = list(seen)
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in inside_set and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def covering_sum_exact(sub: SubStochasticMatrix) -> float:
    """Exact cover-and-return weight by a (state, visited-set) recursion.

    With the visited set complete the remaining weight is the hitting
    probability of state 0, a single linear solve; incomplete sets feed
    on the completed ones.  States that cannot leak out of the current
    set contribute zero, which also keeps every solve non-singular.

    The sets holding state 0 are taken a size at a time, largest first;
    only the size above, found by ``np.searchsorted`` on its sorted masks,
    is kept.  Stacked solves of at most ``_util._BLOCK_CELLS`` cells (k * k
    + n per set of k states) never change a value.  A state that cannot
    leak gets an identity row and a zero right-hand side, and its value is
    then set to exactly zero.
    """
    n = sub.n
    if n > MAX_EXACT_STATES:
        raise CapExceededError(f"{n} states exceed the exact covering cap {MAX_EXACT_STATES}")
    p = sub.p
    full = (1 << n) - 1
    adj = _positive_adjacency(p)

    # Hitting state 0 before death, from every state, ignoring coverage.
    others = [v for v in range(n) if v != 0]
    gate = [v for v in others if p[v, 0] > 0.0]
    reach = _reaches(adj, others, gate) if others else set()
    x = np.zeros(n)
    order = sorted(reach)
    if order:
        sul = np.eye(len(order)) - p[np.ix_(order, order)]
        sol = checked_solve(sul, p[order, 0], "covering hit system")
        for i, v in enumerate(order):
            x[v] = sol[i]
    g_full = p[:, 0] + p[:, others] @ x[others] if others else p[:, 0].copy()

    # h_upper[j, u]: the weight still to come from state u with upper[j] visited.
    upper, h_upper = np.array([full]), g_full[None, :]
    states = np.arange(n)
    positive = p > 0.0
    stochastic = p.sum(axis=1) >= 1.0 - 1e-12
    masks = np.arange(1, full, 2)
    sizes = np.bitwise_count(masks)
    for k in range(n - 1, 0, -1):
        level = masks[sizes == k]
        h = np.zeros((level.size, n))
        step = max(1, _util._BLOCK_CELLS // (k * k + n))
        for start in range(0, level.size, step):
            sets = level[start : start + step]
            inside = (sets[:, None] >> states & 1).astype(bool)
            members = np.nonzero(inside)[1].reshape(-1, k)
            rows = np.arange(sets.size)[:, None]
            # Weight through each first step out of the set, to every state.
            above = np.searchsorted(upper, sets[:, None] | 1 << states)
            above[inside] = 0  # no row above; zeroed below
            onward = h_upper[above, states]
            onward[inside] = 0.0
            rhs = np.zeros((sets.size, k))
            for s in range(n):  # in a fixed order, so no value depends on the slice
                rhs += onward[:, s, None] * p[members, s]
            exits = (~inside).astype(float) @ positive.T > 0.0
            leaking = ~stochastic[members] | exits[rows, members]
            within = positive[members[:, :, None], members[:, None, :]]
            live = leaking
            while True:
                grown = live | (within & live[:, None, :]).any(axis=2)
                if (grown == live).all():
                    break
                live = grown
            a = np.eye(k) - p[members[:, :, None], members[:, None, :]]
            a[~live] = np.eye(k)[np.nonzero(~live)[1]]
            rhs[~live] = 0.0
            vals = checked_solve(a, rhs[:, :, None], "covering set system")[:, :, 0]
            vals[~live] = 0.0
            h[start + rows, members] = vals
        upper, h_upper = level, h
    return float(h_upper[0, 0])


# ---- simulation ----


@dataclass(frozen=True)
class CoveringEstimate:
    value: float
    trials: int
    ci_low: float
    ci_high: float
    aborted: int


def covering_sum_mc(sub: SubStochasticMatrix, trials: int, seed: int) -> CoveringEstimate:
    """Simulate killed chains from state 0 and count cover-and-return hits.

    A live trial whose state reaches (by a positive path of one step or
    more) neither state 0 nor every state it has not visited can never
    hit; it is retired as a miss before its next step, so a chain that can
    neither die nor cover ends at once.  When every state reaches every
    state no trial is ever retired and the check is skipped.  Trials still
    alive after ``_util.MAX_STEPS`` steps are counted as misses and
    reported in ``aborted``; retired trials are not.

    Only live trials are held, in trial order: after each step the trials
    that died, hit or were retired are dropped, so no per-trial index is
    made.  They step together in slices of ``_util._BLOCK_CELLS // 8 // n``,
    drawing from one ``PCG64(seed)`` stream in trial order; the slice size
    never changes a result.
    """
    if trials < 1:
        raise PreconditionError("trials must be positive")
    n = sub.n
    if n > 62:
        raise CapExceededError("visited bitmask supports at most 62 states")
    rng = np.random.Generator(np.random.PCG64(seed))
    cum = np.cumsum(sub.p, axis=1)
    full = (1 << n) - 1
    adj = _positive_adjacency(sub.p)
    everything = list(range(n))
    # The narrowest signed integers that hold an n-bit set of states.
    bits = np.int16 if n <= 15 else np.int32 if n <= 31 else np.int64
    reach = np.array(
        [sum(1 << v for v in _reaches(adj, everything, adj[u])) for u in everything],
        dtype=bits,
    )
    retire = bool((reach != full).any())
    state = np.zeros(trials, dtype=np.int8)  # n <= 62
    visited = np.ones(trials, dtype=bits)
    chunk = max(1, _util._BLOCK_CELLS // 8 // n)
    hits = steps = 0
    while steps < _util.MAX_STEPS and state.size:
        steps += 1
        keep = np.ones(state.size, dtype=bool)
        for lo in range(0, state.size, chunk):
            here, vis, stay = state[lo : lo + chunk], visited[lo : lo + chunk], keep[lo : lo + chunk]
            if retire:
                r = reach[here]
                stay &= ((r & 1) != 0) & ((~vis & ~r & full) == 0)
            go = np.flatnonzero(stay)
            u = rng.random(go.size)
            nxt = (u[:, None] >= cum[here[go]]).sum(axis=1)
            wins = (nxt == 0) & (vis[go] == full)
            hits += int(wins.sum())
            moved = (nxt < n) & ~wins
            stay[go] = moved
            go, nxt = go[moved], nxt[moved]
            here[go] = nxt
            vis[go] |= np.left_shift(bits(1), nxt, dtype=bits)
        state, visited = state[keep], visited[keep]
    aborted = state.size
    lo, hi = wilson_interval(hits, trials)
    return CoveringEstimate(hits / trials, trials, lo, hi, aborted)
