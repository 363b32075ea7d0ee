"""Killed random walks: escape probabilities and walks that discover minimal cutsets.

Exact hitting probabilities solve one killed system (``_killed_system``);
escape probabilities and the Green matrix come from one band factor of the
interior precision D - A (``_band_factor``), the Green matrix's rows a block
of band solves at a time (``_band_solve``); sampled quantities run on one
lockstep walk kernel (``_walk_block``).  Sampled escape walks on
the graph killed also at its start.  The walk census walks on the order-2
subdivision of a uniformly transient horizon graph from a fixed midpoint
neighbor of the origin, keeps the range up to the last visit to the start,
and reads off the inner endpoints of its exposed boundary.  When those are
all midpoints of a minimal base cutset, the walk has certified that cutset.
The exposed boundaries of a walk block's new distinct ranges come from one
``graph_core.exposed_bits`` pass.
The crossing matrix of excursion probabilities between the relevant
midpoints is symmetric sub-stochastic with a guaranteed cut lower bound,
which feeds the covering machinery.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import _util
from ._util import EventProbability, checked_solve, trial_generators
from .errors import CapExceededError, NumericalError, PreconditionError, TheoremViolationError
from .cutsets import Cutset, _exposed_boundaries, decompose, is_minimal_cutset
from .graph_core import Graph, SubdivisionMap, bandwidth, reverse_cuthill_mckee

DECODED = "decoded"
NON_MIDPOINT = "non_midpoint"
NOT_MINIMAL = "not_minimal"
ABORTED = "aborted"


# ---- killed systems ----


def _killed_system(
    graph: Graph, inside: tuple[int, ...], target: frozenset[int]
) -> tuple[dict[int, int], np.ndarray, np.ndarray]:
    """The walk killed off ``inside``: index, I - Q, one-step mass b into ``target``.

    Q holds the steps within ``inside``.  I - Q is built in place: each
    step's 1/degree is taken off a zero matrix, then 1 is added on the
    diagonal, so every entry, down to the sign of a zero, is that of
    ``np.eye(k) - q`` with q summed step by step.
    """
    index = {x: i for i, x in enumerate(inside)}
    k = len(inside)
    a = np.zeros((k, k))
    b = np.zeros(k)
    for x in inside:
        for w, _ in graph.adjacency[x]:
            if w in index:
                a[index[x], index[w]] -= 1.0 / graph.degree(x)
            elif w in target:
                b[index[x]] += 1.0 / graph.degree(x)
    a.reshape(-1)[:: k + 1] += 1.0
    return index, a, b


def _hit_probability(
    graph: Graph, start: int, inside: tuple[int, ...], target: frozenset[int], what: str
) -> float:
    """P(walk from ``start`` hits ``target`` inside ``inside``): one solve, then one first step."""
    index, a, b = _killed_system(graph, inside, target)
    h = checked_solve(a, b, what) if inside else b
    total = 0.0
    for w, _ in graph.adjacency[start]:
        if w in target:
            total += 1.0
        elif w in index:
            total += float(h[index[w]])
    return total / graph.degree(start)


# ---- the interior precision's band ----


@dataclass(frozen=True)
class _BandFactor:
    """P = L diag(d) L^T for the interior precision P = D - A of the killed walk.

    ``order`` is the interior in elimination order: id order, or reverse
    Cuthill-McKee when that narrows the band.  With b the bandwidth in that
    order, row j of ``lower`` holds L[j + 1 : j + b + 1, j], 0 past the last
    row.  P itself is not kept: ``_precision_band`` rebuilds it from the graph.
    """

    order: tuple[int, ...]
    d: np.ndarray
    lower: np.ndarray


def _precision_band(graph: Graph, order: tuple[int, ...], b: int) -> np.ndarray:
    """P's band in elimination ``order``: row j holds P[j, j : j + b + 1].

    That is the degree, then -1 per interior edge to a later vertex, 0 past
    the last row; b + 1 zero rows below the matrix let every window exist.
    """
    k = len(order)
    pos = {v: i for i, v in enumerate(order)}
    band = np.zeros((k + b + 1, b + 1))
    for i, v in enumerate(order):
        band[i, 0] = graph.degree(v)
        for w, _ in graph.adjacency[v]:
            if pos.get(w, -1) > i:
                band[i, pos[w] - i] = -1.0
    return band


def _band_factor(graph: Graph) -> _BandFactor:
    """LDL^T of the interior precision over its band; a pivot not > 0 is refused.

    A window of rows j .. j + b is eliminated one column at a time, and the
    row entering below it has not been touched by any earlier column.  The
    kernels on the factor run elementwise numpy only, in a fixed order, so
    no value depends on BLAS or its thread count.  Positive pivots certify
    that P, and so its inverse, is positive definite.
    """
    if not graph.horizon:
        raise PreconditionError("walks need a horizon to be absorbed at")
    order, b = graph.interior, bandwidth(graph, graph.interior)
    rcm = reverse_cuthill_mckee(graph, order)
    narrower = bandwidth(graph, rcm)
    if narrower < b:
        order, b = rcm, narrower
    k = len(order)
    band = _precision_band(graph, order, b)
    c = np.arange(b + 1)
    window = band[np.minimum.outer(c, c), np.abs(np.subtract.outer(c, c))]
    spare = np.empty_like(window)
    d, lower = np.empty(k), np.zeros((k, b))
    for j in range(k):
        pivot, col = window[0, 0], window[1:, 0]
        if not pivot > 0.0:
            raise NumericalError(f"precision pivot {pivot} at vertex {order[j]} is not positive")
        d[j] = pivot
        lower[j] = col / pivot
        spare[:b, :b] = window[1:, 1:] - np.multiply.outer(lower[j], col)
        # Row j + 1 + b of P from column j + 1 on: P[j + 1 + c, j + 1 + b] by symmetry.
        spare[b, :] = spare[:, b] = band[j + 1 + c, b - c]
        window, spare = spare, window
    return _BandFactor(order, d, lower)


def _band_solve(f: _BandFactor, x: np.ndarray) -> None:
    """Solve P X = E in place (elimination order) by substitution over the band.

    ``x`` is (k + b) x n, E over zeros; the forward sweep starts at E's first
    non-zero row.  With n >= 2, numpy sums each column's products in row
    order, so no column's values depend on the others.
    """
    k, b = f.lower.shape
    lower = f.lower[:, :, None]
    prod, acc = np.empty((b, x.shape[1])), np.empty(x.shape[1])  # reused by every row
    nonzero = np.flatnonzero(x[:k].any(axis=1))
    for j in range(nonzero[0] if nonzero.size else k, k):
        below = x[j + 1 : j + 1 + b]
        np.subtract(below, np.multiply(lower[j], x[j], out=prod), out=below)
    x[:k] /= f.d[:, None]
    for j in reversed(range(k)):
        row = x[j]
        np.multiply(lower[j], x[j + 1 : j + 1 + b], out=prod)
        np.subtract(row, np.add.reduce(prod, axis=0, out=acc), out=row)


def _check_ones(vertices: tuple[int, ...], values: np.ndarray, what: str) -> None:
    """Refuse, as a broken identity, any value not within 1e-9 of 1 (NaN included)."""
    off = np.abs(values - 1.0)
    if off.size and not off.max() <= 1e-9:
        worst = int(np.argmax(off))  # the first NaN, if any
        raise TheoremViolationError(f"{what} off at vertex {vertices[worst]}: {values[worst]}")


def _horizon_counts(graph: Graph, vertices: tuple[int, ...]) -> np.ndarray:
    """Each vertex's neighbours on the horizon: P 1, so P^-1 of it is all ones."""
    return np.array([sum(w in graph.horizon for w, _ in graph.adjacency[v]) for v in vertices], float)


def _band_diagonal(f: _BandFactor, graph: Graph) -> np.ndarray:
    """diag(P^-1) in elimination order, by the Takahashi recurrence over the band.

    From the last row up, Z[j, i] = [i == j] / d[j] - sum_a L[j + 1 + a, j] Z[j + 1 + a, i]
    for i >= j, read off a window of Z's rows j + 1 .. j + b: O(k b^2) time
    and O(k b) memory.  Certificate, refused beyond 1e-9: diag(P Z) = 1 from
    the band entries of Z, multiplied into Z's band once its diagonal is
    copied out, P's band rebuilt from ``graph``.
    """
    k, b = f.lower.shape
    zband = np.empty((k, b + 1))  # row j: Z[j, j : j + b + 1], 0 past the last row
    window, spare = np.zeros((b + 1, b + 1)), np.empty((b + 1, b + 1))
    for j in reversed(range(k)):
        l = f.lower[j]
        row = 0.0 - (l[:, None] * window[:b, :b]).sum(axis=0)
        zband[j, 0] = 1.0 / f.d[j] - (l * row).sum()
        zband[j, 1:] = row
        spare[0, :] = spare[:, 0] = zband[j]
        spare[1:, 1:] = window[:b, :b]
        window, spare = spare, window
    z = zband[:, 0].copy()
    # (P Z)[j, j] = sum_a P[j, j + a] Z[j, j + a] + sum_{a > 0} P[j - a, j] Z[j - a, j]
    zband *= _precision_band(graph, f.order, b)[:k]
    diag = zband.sum(axis=1)
    for a in range(1, b + 1):
        diag[a:] += zband[: k - a, a]
    _check_ones(f.order, diag, "selected inverse")
    return z


def _check_absorption(f: _BandFactor, graph: Graph) -> None:
    """Refuse a factor whose P^-1 h is not all ones, h the horizon neighbours (P 1 = h)."""
    k, b = f.lower.shape
    x = np.zeros((k + b, 2))
    x[:k, 0] = _horizon_counts(graph, f.order)
    _band_solve(f, x)
    _check_ones(f.order, x[:k, 0], "absorption identity")


def _green_rows(f: _BandFactor, interior: tuple[int, ...]) -> Iterator[np.ndarray]:
    """P^-1's rows in ``interior`` order, in blocks within half of ``_util._BLOCK_CELLS`` bytes.

    A block is one band solve P X = E, E the block's unit vectors in
    elimination order; P^-1 is symmetric, so X's columns are its rows, and
    no value depends on the block size.  Blocks share only the buffer X,
    which the next block overwrites, and a block is a view of it.  The
    buffer takes at most half of the budget; in RCM order X's rows are put
    in ``interior`` order in place, through a copy of the block that is
    dropped before the block is yielded.  So the work done on a block has
    the other half.
    """
    k, b = f.lower.shape
    size = max(1, _util._BLOCK_CELLS // 16 // max(k + b, 1))
    pos = {v: p for p, v in enumerate(f.order)}
    perm = np.array([pos[v] for v in interior])
    del pos  # else held for the generator's life
    ordered = f.order == interior
    # Two columns at least: numpy sums a single column's products pairwise, not in row order.
    x = np.empty((k + b, max(min(size, k), 2)))
    for lo in range(0, k, size):
        n = min(size, k - lo)
        x[:] = 0.0
        x[perm[lo : lo + n], np.arange(n)] = 1.0
        _band_solve(f, x)
        if not ordered:
            x[:k, :n] = x[perm, :n]
        yield x[:k, :n].T


# ---- escape probabilities ----


def escape_probabilities(graph: Graph, method: str = "fundamental") -> dict[int, float]:
    """P_v(never return to v before absorption), for every interior vertex.

    The fundamental route reads G = P^-1's diagonal off the band factor of
    the interior precision (``_band_diagonal``), checks the factor by the
    absorption identity (``_check_absorption``) and uses 1 / (expected
    visits to the start) = 1 / (degree G_vv).  The absorbing route solves,
    per vertex, for the probability of reaching the horizon before the
    vertex; the two must agree to solver precision.
    """
    if method == "fundamental":
        f = _band_factor(graph)
        z = dict(zip(f.order, _band_diagonal(f, graph).tolist()))
        _check_absorption(f, graph)
        return {v: 1.0 / (graph.degree(v) * z[v]) for v in graph.interior}
    if method != "absorbing":
        raise PreconditionError(f"unknown method {method!r}")
    if not graph.horizon:
        raise PreconditionError("walks need a horizon to be absorbed at")
    return {
        v: _hit_probability(
            graph, v, tuple(x for x in graph.interior if x != v), graph.horizon, "escape system"
        )
        for v in graph.interior
    }


def escape_constant(graph: Graph, probs: dict[int, float]) -> float:
    """Smallest degree-weighted no-return probability over the interior.

    ``probs`` are the graph's escape probabilities, as solved by
    ``escape_probabilities``.
    """
    if not probs:
        raise PreconditionError("graph has no interior vertices")
    return min(graph.degree(v) * p for v, p in probs.items())


def escape_probability_mc(graph: Graph, v: int, trials: int, seed: int) -> EventProbability:
    """Simulated no-return frequency with a Wilson interval.

    Each walk is killed on the horizon and at ``v`` itself, the system the
    absorbing route of ``escape_probabilities`` solves, and escapes when it
    is killed on the horizon.  A walk still out after ``_util.MAX_STEPS``
    steps raises.
    """
    if trials < 1:
        raise PreconditionError("trials must be positive")
    if v in graph.horizon:
        raise PreconditionError("escape is defined for interior vertices")
    killed = Graph(graph.n_vertices, graph.edges, graph.horizon | {v})
    hits = 0
    for _, end, _ in _walk_blocks(killed, v, trials, seed, first_visits=False):
        if (end < 0).any():
            raise CapExceededError("walk exceeded the step cap")
        hits += int(np.count_nonzero(end != v))
        del _, end  # before the next block is walked
    return EventProbability.sampled(hits, trials)


# ---- crossing matrices ----


@dataclass(frozen=True)
class CrossingMatrix:
    """Excursion probabilities between the watched midpoints.

    ``vertices``: midpoints of the cutset edges in edge order, then the
    start midpoint if distinct.  ``p[i, j]`` is the probability that the
    walk from vertices[i] reaches vertices[j] while keeping every
    strictly intermediate vertex inside the component region.
    """

    vertices: tuple[int, ...]
    region: frozenset[int]
    p: np.ndarray
    eps_base: float
    eps1: float
    eps2: float
    min_cut_value: float


def origin_midpoint(sd: SubdivisionMap, origin: int) -> int:
    """Midpoint of the origin's lowest-id incident base edge."""
    eid = min(sd.base.incident_edges(origin))
    return sd.midpoints[eid][0]


def _excursion_probability(graph: Graph, region: set[int], u: int, v: int) -> float:
    """P(walk from u reaches v before leaving region - {u} or dying)."""
    inner = tuple(sorted((region - {u, v}) - graph.horizon))
    return _hit_probability(graph, u, inner, frozenset((v,)), "excursion system")


def crossing_matrix(sd: SubdivisionMap, cutset: Cutset) -> CrossingMatrix:
    """Build and certify the excursion matrix for one base cutset.

    The watched set is the cutset's midpoints plus the start midpoint;
    the allowed region is the cut-off component with its internal
    midpoints.  Degrees are all 2, so the matrix must come out symmetric
    to solver precision, and every nontrivial split must cross with mass
    at least eps1^2 / 64.
    """
    if sd.order != 2:
        raise PreconditionError("crossing matrices live on order-2 subdivisions")
    base = sd.base
    decomp = decompose(base, cutset)
    region = set(decomp.component_a)
    for eid, (u, v) in enumerate(base.edges):
        if u in decomp.component_a and v in decomp.component_a:
            region.add(sd.midpoints[eid][0])
    o_prime = origin_midpoint(sd, cutset.source)
    watched = [sd.midpoints[eid][0] for eid in cutset.edge_ids]
    if o_prime not in watched:
        watched.append(o_prime)

    k = len(watched)
    p = np.zeros((k, k))
    for i, u in enumerate(watched):
        for j, v in enumerate(watched):
            p[i, j] = _excursion_probability(sd.derived, region, u, v)
    gap = float(np.max(np.abs(p - p.T)))
    if gap > 1e-9:
        raise TheoremViolationError(f"crossing matrix asymmetry {gap:.3e}")

    from .cover_lemma import SubStochasticMatrix, min_cut

    sub = SubStochasticMatrix(p)
    eps = escape_constant(base, escape_probabilities(base))
    eps1 = 2.0 * eps / (4.0 + eps)
    eps2 = eps1 * eps1 / 64.0
    cut = min_cut(sub)
    if cut < eps2 - 1e-12:
        raise TheoremViolationError(f"crossing cut {cut} below the floor {eps2}")
    return CrossingMatrix(tuple(watched), frozenset(region), sub.p, eps, eps1, eps2, cut)


# ---- walk sampling ----


def _walk_block(
    graph: Graph, start: int, rngs: list[np.random.Generator], first_visits: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """One simple random walk from ``start`` per generator, advanced in lockstep.

    Every walk draws from its own generator 64 doubles at a time and steps
    to entry ``int(u * degree)`` of its vertex's adjacency list, so each walk,
    and the state its generator is left in, match a scalar walk's bit for
    bit.  Walks leave the active set when they land on the horizon.  Returns
    per walk: tau (the last step at the start), the horizon vertex reached
    (-1 for a walk still out after ``_util.MAX_STEPS`` steps) and, with
    ``first_visits``, every vertex's first visit time (``_util.MAX_STEPS + 1``
    when never visited, as int32 to halve the walks x vertices matrix), so
    the range up to tau is ``first <= tau``; without it, None.
    """
    n = graph.n_vertices
    deg = np.array([len(adj) for adj in graph.adjacency], dtype=np.int64)
    nbr = np.zeros((n, int(deg.max())), dtype=np.int64)
    for v, adj in enumerate(graph.adjacency):
        nbr[v, : len(adj)] = [w for w, _ in adj]
    absorbing = np.zeros(n, dtype=bool)
    absorbing[list(graph.horizon)] = True

    w = len(rngs)
    first = visits = None
    if first_visits:
        first = np.full((w, n), _util.MAX_STEPS + 1, dtype=np.int32)
        first[:, start] = 0
        visits = first.reshape(-1)
    tau = np.zeros(w, dtype=np.int64)
    end = np.full(w, -1, dtype=np.int64)
    draws = np.empty((w, 64))
    live = np.arange(w)
    cells = live * n
    x = np.full(w, start, dtype=np.int64)
    for step in range(1, _util.MAX_STEPS + 1):
        col = (step - 1) % 64
        if col == 0:
            for k in live.tolist():
                rngs[k].random(out=draws[k])
        x = nbr[x, (draws[live, col] * deg[x]).astype(np.int64)]
        if visits is not None:
            at = cells + x
            visits[at] = np.minimum(visits[at], step)
        tau[live[x == start]] = step
        out = absorbing[x]
        if out.any():
            done = live[out]
            end[done] = x[out]
            keep = ~out
            live, cells, x = live[keep], cells[keep], x[keep]
            if not live.size:
                break
    return tau, end, first


def _walk_blocks(
    graph: Graph, start: int, trials: int, seed: int, first_visits: bool
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """``_walk_block`` over trials ``0 .. trials - 1``, in ``_util._BLOCK_CELLS`` blocks.

    Trial t walks on its own ``trial_generators`` stream for at most
    ``_util.MAX_STEPS`` steps, so results do not depend on the block size.
    A walk holds a first-visit row (with ``first_visits``), a 64-double
    buffer and a generator, whose objects trace at about 0.78 KB; the block
    allows it the room of 192 doubles.  A block's generators go before it
    is yielded, and callers release a block before they ask for the next,
    so one block is alive at a time.
    """
    block = max(1, _util._BLOCK_CELLS // (graph.n_vertices + 64 + 192))
    for lo in range(0, trials, block):
        # The spent generators go with the call, before the block is yielded.
        yield _walk_block(
            graph, start, trial_generators(seed, lo, min(trials, lo + block)), first_visits
        )


def _start_midpoint(sd: SubdivisionMap, origin: int) -> int:
    """Where boundary walks from ``origin`` start, once the inputs are checked."""
    if sd.order != 2:
        raise PreconditionError("boundary sampling runs on order-2 subdivisions")
    if not 0 <= origin < sd.base.n_vertices:
        raise PreconditionError(f"origin {origin} is not a vertex")
    if origin in sd.base.horizon:
        raise PreconditionError("origin must be off the horizon")
    return origin_midpoint(sd, origin)


def _decode(
    sd: SubdivisionMap, origin: int, c: frozenset[int], boundary: Iterable[int]
) -> tuple[str, Cutset | None]:
    """Outcome and decoded cutset of one walk range c with exposed boundary ``boundary``.

    The inner endpoints of the boundary edges are collected; when all of
    them are midpoints whose base edges form a minimal cutset from the
    origin, the range decodes.  Mixed or non-minimal boundaries are
    distinct outcomes, never dropped.
    """
    inner = set()
    for eid in boundary:
        u, v = sd.derived.edges[eid]
        inner.add(u if u in c else v)
    if all(sd.is_midpoint(x) for x in inner):
        base_ids = tuple(sorted(sd.base_edge_of(x) for x in inner))
        if is_minimal_cutset(sd.base, base_ids, origin):
            return DECODED, Cutset(base_ids, origin)
        return NOT_MINIMAL, None
    return NON_MIDPOINT, None


@dataclass(frozen=True)
class RwCensus:
    """Aggregated walk census: hit counts per decoded cutset and outcome."""

    origin: int
    trials: int
    outcome_counts: dict[str, int]
    hits: dict[Cutset, int]


def qn_census_rw(sd: SubdivisionMap, origin: int, trials: int, seed: int) -> RwCensus:
    """Walk ``trials`` times from the start midpoint and tabulate every outcome.

    Walks run in blocks (``_walk_blocks``), and each distinct range is
    decoded once: walks with equal ranges share one outcome, and the
    exposed boundaries of a block's ranges not decoded in an earlier block
    come from one ``exposed_bits`` pass.  Walks still out after
    ``_util.MAX_STEPS`` steps are counted under their own outcome rather
    than raising.
    """
    if trials < 1:
        raise PreconditionError("trials must be positive")
    start = _start_midpoint(sd, origin)
    outcomes = {DECODED: 0, NON_MIDPOINT: 0, NOT_MINIMAL: 0, ABORTED: 0}
    hits: dict[Cutset, int] = {}
    decoded: dict[bytes, tuple[str, Cutset | None]] = {}
    for tau, end, first in _walk_blocks(sd.derived, start, trials, seed, first_visits=True):
        absorbed = end >= 0
        outcomes[ABORTED] += int(np.count_nonzero(~absorbed))
        ranges = (first <= tau[:, None])[absorbed]
        keys = [row.tobytes() for row in ranges]
        fresh = {key: i for i, key in enumerate(keys) if key not in decoded}
        if fresh:
            rows = ranges[list(fresh.values())]
            for key, row, boundary in zip(fresh, rows, _exposed_boundaries(sd.derived, rows)):
                decoded[key] = _decode(sd, origin, frozenset(np.flatnonzero(row).tolist()), boundary)
            del rows, row
        for key in keys:
            outcome, cutset = decoded[key]
            outcomes[outcome] += 1
            if cutset is not None:
                hits[cutset] = hits.get(cutset, 0) + 1
        del tau, end, first, absorbed, ranges, keys  # before the next block is walked
    return RwCensus(origin, trials, outcomes, hits)
