"""Minimal edge cutsets separating a vertex from the horizon.

Two routes give the table of minimal cutsets by size: a powerset sweep
that lists them, testing all 2^m edge subsets at once on bitsets, and
``frontier``'s bond-state DP, which counts them without listing any and is
the command line's default.  The two must agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

from . import _util
from ._util import _bit_rows, _open_bits, _row_ints, check_sweep
from .errors import PreconditionError, TheoremViolationError
from .graph_core import Graph, boundary_edges, exposed_bits, flood

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class Cutset:
    """A minimal cutset: sorted edge ids whose removal strands the source."""

    edge_ids: tuple[int, ...]
    source: int

    def __post_init__(self):
        object.__setattr__(self, "edge_ids", tuple(sorted(self.edge_ids)))

    @property
    def size(self) -> int:
        return len(self.edge_ids)


@dataclass(frozen=True)
class CutsetDecomposition:
    """Component and inner-vertex data attached to a minimal cutset."""

    cutset: Cutset
    component_a: frozenset[int]
    inner_b: frozenset[int]


def _require_cutset_context(graph: Graph, v: int) -> None:
    if not graph.horizon:
        raise PreconditionError("cutsets need a non-empty horizon")
    if not 0 <= v < graph.n_vertices:
        raise PreconditionError(f"source {v} is not a vertex")
    if v in graph.horizon:
        raise PreconditionError(f"source {v} lies on the horizon")


def exposed_boundary(graph: Graph, s: Iterable[int]) -> tuple[int, ...]:
    """Edges out of ``s`` whose far endpoint still reaches the horizon.

    The far endpoint may itself be a horizon vertex.  ``s`` must not
    touch the horizon.  One ``graph_core.exposed_bits`` pass of one trial.
    """
    inside = [0] * graph.n_vertices
    for u in s:
        if 0 <= u < graph.n_vertices:  # a non-vertex has no edge leaving it
            inside[u] = 1
    return tuple(eid for eid, bits in enumerate(exposed_bits(graph, inside, 1)) if bits)


def _exposed_boundaries(graph: Graph, sets: np.ndarray) -> list[tuple[int, ...]]:
    """``exposed_boundary`` of each row of a bool matrix (row j marks set j's vertices).

    One ``graph_core.exposed_bits`` pass finds them all, bit j of every
    vertex's and edge's int standing for set j.
    """
    import numpy as np

    exposed = exposed_bits(graph, _row_ints(sets.T), (1 << len(sets)) - 1)
    return [tuple(np.flatnonzero(edges).tolist()) for edges in _bit_rows(exposed, len(sets)).T]


def _minimal_bits(graph: Graph, v: int, open_bits: list[int], full: int) -> int:
    """The trials of ``full`` whose closed edges form a minimal cutset from v.

    Bit t of ``open_bits[eid]`` is set when edge eid is open in trial t.
    One ``flood`` from v and one from the whole horizon give, per vertex
    u, ``reach[u]``, the trials in which u is joined to v, and ``esc[u]``,
    those in which u is joined to the horizon.  A trial's closed edges
    strand v when v's flood touches no horizon vertex, and are minimal
    when putting back any one of them, (a, b), frees v: v reaches a and b
    escapes, or the other way round.
    """
    reach, touched = flood(graph, (v,), open_bits, full)
    esc, _ = flood(graph, graph.horizon, open_bits, full)
    minimal = full & ~touched
    for bits, (a, b) in zip(open_bits, graph.edges):
        minimal &= bits | reach[a] & esc[b] | reach[b] & esc[a]
    return minimal


def is_minimal_cutset(graph: Graph, edge_ids: Iterable[int], v: int) -> bool:
    """Does removing exactly this edge set, and no proper subset, strand v?

    ``_minimal_bits`` with one trial.
    """
    _require_cutset_context(graph, v)
    removed = frozenset(edge_ids)
    m = graph.n_edges
    if not all(0 <= eid < m for eid in removed):
        return False  # an edge the graph lacks is never needed to strand v
    return bool(_minimal_bits(graph, v, [int(eid not in removed) for eid in range(m)], 1))


def verified_cutset(graph: Graph, edge_ids: Iterable[int], source: int) -> Cutset:
    """Construct a Cutset, refusing anything that is not minimal."""
    ids = tuple(sorted(edge_ids))
    if not is_minimal_cutset(graph, ids, source):
        raise PreconditionError(f"{ids} is not a minimal cutset from {source}")
    return Cutset(ids, source)


def decompose(graph: Graph, cutset: Cutset) -> CutsetDecomposition:
    """Component of the source after removal, plus the inner endpoints.

    Also re-derives the component's boundary both ways (all boundary
    edges, and boundary edges with an escaping far endpoint) and demands
    that both coincide with the cutset.
    """
    if not is_minimal_cutset(graph, cutset.edge_ids, cutset.source):
        raise PreconditionError("decompose needs a minimal cutset")
    removed = frozenset(cutset.edge_ids)
    kept = [int(eid not in removed) for eid in range(graph.n_edges)]
    reach, _ = flood(graph, (cutset.source,), kept, 1)
    comp = {u for u, bits in enumerate(reach) if bits}
    inner = set()
    for eid in cutset.edge_ids:
        u, v = graph.edges[eid]
        side = (u in comp) + (v in comp)
        if side != 1:
            raise TheoremViolationError(f"cutset edge {eid} does not straddle the component")
        inner.add(u if u in comp else v)
    if tuple(sorted(boundary_edges(graph, comp))) != cutset.edge_ids:
        raise TheoremViolationError("component boundary differs from the cutset")
    if exposed_boundary(graph, comp) != cutset.edge_ids:
        raise TheoremViolationError("exposed component boundary differs from the cutset")
    return CutsetDecomposition(cutset, frozenset(comp), frozenset(inner))


# ---- enumeration ----


@dataclass(frozen=True)
class QnTable:
    """Minimal cutset counts of each size, per source vertex.

    ``counts[v][n]`` is the number of size-n minimal cutsets from v, with
    sizes ascending.  The listing routes also keep ``cutsets[v][n]``, the
    sorted tuple of those cutsets; the counting route keeps none.  The
    growth estimate is the largest count^(1/n) over recorded sizes.
    """

    counts: dict[int, dict[int, int]]
    cutsets: dict[int, dict[int, tuple[Cutset, ...]]] | None = None

    @cached_property
    def kappa_estimate(self) -> float:
        best = 0.0
        for by_size in self.counts.values():
            for n, count in by_size.items():
                if count:
                    best = max(best, _nth_root(count, n))
        return best


def _nth_root(count: int, n: int) -> float:
    """``count ** (1 / n)``, in log space when ``count`` is too large for a float."""
    try:
        return count ** (1.0 / n)
    except OverflowError:
        return math.exp(math.log(count) / n)


def _pack_table(v: int, found: dict[int, list[Cutset]]) -> QnTable:
    packed = {
        n: tuple(sorted(items, key=lambda c: c.edge_ids))
        for n, items in sorted(found.items())
        if items
    }
    return QnTable({v: {n: len(items) for n, items in packed.items()}}, {v: packed})


def enumerate_minimal_cutsets_bruteforce(graph: Graph, v: int, n_max: int) -> QnTable:
    """Powerset sweep: test every edge subset of size up to ``n_max``.

    All 2^m subsets are tested at once by ``_minimal_bits``, the rule
    ``is_minimal_cutset`` applies to one subset.  A bitset is one Python
    int of 2^m bits, bit x standing for "edge subset x removed", so the
    flood from v and the one from the whole horizon search every subset.
    """
    _require_cutset_context(graph, v)
    m = graph.n_edges
    check_sweep(m)
    if n_max < 1:
        raise PreconditionError("n_max must be at least 1")
    is_open = [_open_bits(eid, m) for eid in range(m)]
    minimal = _minimal_bits(graph, v, is_open, (1 << (1 << m)) - 1)
    found: dict[int, list[Cutset]] = {}
    data = minimal.to_bytes((1 << m) + 7 >> 3, "little")
    for i, byte in enumerate(data):
        if not byte:
            continue
        for j in range(8):
            if byte >> j & 1:
                x = i << 3 | j
                size = x.bit_count()
                if size <= n_max:
                    ids = tuple(eid for eid in range(m) if x >> eid & 1)
                    found.setdefault(size, []).append(Cutset(ids, v))
    return _pack_table(v, found)


# ---- randomized global minimum cuts ----


@dataclass(frozen=True)
class KargerResult:
    min_cut_size: int
    cuts: frozenset[frozenset[int]]
    trials: int

    @property
    def distinct_count(self) -> int:
        return len(self.cuts)


def default_karger_trials(n_vertices: int) -> int:
    pairs = n_vertices * (n_vertices - 1) // 2
    if pairs <= 1:
        return 1
    return math.ceil(10 * pairs * math.log(pairs))


def karger_count_min_cuts(
    graph: Graph, rng: np.random.Generator, trials: int | None = None
) -> KargerResult:
    """Repeated random contraction; collect the distinct best cuts seen.

    The horizon plays no role here.  Each trial contracts edges in a
    uniformly random order until two super-vertices remain, which is
    equivalent to contracting a uniform surviving edge at every step.
    Trial t's order is the t-th ``rng.permutation(m)``.  Trials run in
    lockstep blocks (``_karger_tile``, one alive at a time) whose label and
    order matrices hold at most ``_util._BLOCK_CELLS`` cells each.  A label
    is the smallest vertex of a super-vertex; step j contracts the j-th
    edge of each trial's order while the trial has more than two
    super-vertices, relabelling the higher label to the lower one.  The
    block size never changes a result.
    """
    import numpy as np

    n = graph.n_vertices
    if n < 2:
        raise PreconditionError("global cuts need at least two vertices")
    if trials is None:
        trials = default_karger_trials(n)
    if trials < 1:
        raise PreconditionError("trials must be positive")
    m = graph.n_edges
    ends = np.array(graph.edges, dtype=np.intp).T
    block = max(1, _util._BLOCK_CELLS // max(n, m))
    best: int | None = None
    keys: set[bytes] = set()  # the best cuts seen, as packed cut rows
    for done in range(0, trials, block):
        # Each tile's matrices die in _karger_tile, before the next is built.
        size, tile_keys = _karger_tile(rng, min(block, trials - done), n, ends)
        if best is None or size < best:
            best, keys = size, tile_keys
        elif size == best:
            keys |= tile_keys
    assert best is not None
    cuts = frozenset(
        frozenset(np.flatnonzero(np.unpackbits(np.frombuffer(key, np.uint8), count=m)).tolist())
        for key in keys
    )
    return KargerResult(best, cuts, trials)


def _karger_tile(
    rng: np.random.Generator, rows: int, n: int, ends: np.ndarray
) -> tuple[int, set[bytes]]:
    """The next ``rows`` trials of ``karger_count_min_cuts`` in lockstep.

    Returns the tile's smallest cut size and its cuts of that size, as
    packed cut rows.
    """
    import numpy as np

    m = ends.shape[1]
    # Row r shuffled in place draws what the r-th ``rng.permutation(m)``
    # would; the narrowest dtypes keep a tile's matrices small.
    order = np.tile(np.arange(m, dtype=np.min_scalar_type(m - 1)), (rows, 1))
    rng.permuted(order, axis=1, out=order)
    labels = np.tile(np.arange(n, dtype=np.min_scalar_type(n - 1)), (rows, 1))
    parts = np.full(rows, n)
    for step in order.T:
        live = np.flatnonzero(parts > 2)
        if not live.size:
            break
        e = step[live]
        a, b = labels[live, ends[0, e]], labels[live, ends[1, e]]
        join = a != b
        live, low, high = live[join], np.minimum(a, b)[join], np.maximum(a, b)[join]
        sub = labels[live]
        labels[live] = np.where(sub == high[:, None], low[:, None], sub)
        parts[live] -= 1
    cut = labels[:, ends[0]] != labels[:, ends[1]]
    sizes = cut.sum(axis=1)
    size = int(sizes.min())
    return size, {row.tobytes() for row in np.packbits(cut[sizes == size], axis=1)}
