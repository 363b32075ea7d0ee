"""Gaussian free fields with an absorbing horizon.

The field's covariance is the degree-normalized visit-count matrix of
the killed walk, so variances are reciprocal degree-weighted escape
probabilities.  It is the inverse of the precision D - A, and both that
matrix and the fields come from one band factor of the precision.  On
order-3 subdivisions, clamping the two midpoints of every cutset edge to
opposite signs and connecting the origin to the inner midpoints inside
the excursion set forces the cluster boundary to be exactly the
subdivided cutset; the pipeline here samples those
events and checks the implication on every hit.  It searches a whole
block of field samples at once on trial bits (``graph_core.flood`` and
``graph_core.exposed_bits``), bit t of every per-vertex and per-edge int
standing for sample t.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import _util
from ._util import _row_ints, trial_generators
from .errors import NumericalError, PreconditionError, TheoremViolationError
from .cutsets import Cutset, decompose, is_minimal_cutset
from .graph_core import Graph, SubdivisionMap, exposed_bits, flood, subdivide
from .rw_cutsets import (
    _band_factor, _check_absorption, _check_ones, _green_rows, _horizon_counts,
    escape_probabilities,
)

_BLOCK = 4096


class GreenMatrix:
    """The field absorbed at the horizon, as a view of one band factor of its precision.

    The precision P = D - A is factored as L diag(d) L^T over its band
    (``rw_cutsets._band_factor``); positive pivots certify P, and so the
    covariance G = P^-1, positive definite.  G itself, expected visits over
    target degree, is streamed in checked row blocks by ``row_blocks``, each
    block one band solve of P X = E over unit vectors E;
    ``sample_block`` checks the absorption identity P^-1 h = 1 by one band
    solve before its first draw, then draws from the factor and never forms G.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.interior = graph.interior
        self._factor = _band_factor(graph)
        self._index = {v: i for i, v in enumerate(self.interior)}
        self._absorbed = False  # the factor passed the absorption identity

    def row_blocks(self) -> Iterator[np.ndarray]:
        """G's rows in ``interior`` order, a checked block at a time (``rw_cutsets._green_rows``).

        Each block holds at most ``_util._BLOCK_CELLS`` bytes and is refused,
        before it is yielded, unless it passes ``_green_check``.  A block may
        be overwritten by the next one: copy it to keep it.
        """
        check = _green_check(self.graph)
        lo = 0
        for block in _green_rows(self._factor, self.interior):
            check(lo, block)
            yield block
            lo += len(block)

    def index(self, v: int) -> int:
        if v not in self._index:
            raise PreconditionError(f"vertex {v} is not interior")
        return self._index[v]

    def sample_block(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` fields (size x k, ``interior`` order): x = L^-T diag(d)^-1/2 z (Rue 2001).

        The absorption identity is checked first (``_check_absorption``), once
        per ``GreenMatrix`` as the factor never changes, so a factor off it
        is refused before any normal is drawn.  Then
        k x size normals are drawn, and row j of the elimination order is
        scaled by d[j]^-1/2 and back-substituted in place, from the last row
        up, one axpy per band entry of L.  Every sample column sees the
        same operations, so a field does not depend on the block size, and
        no BLAS call is made.  Row j is held at the interior position of
        its vertex, so the result needs no permutation.
        """
        f = self._factor
        if not self._absorbed:
            _check_absorption(f, self.graph)
            self._absorbed = True
        k = len(f.order)
        rows = [self._index[v] for v in f.order]
        x = rng.standard_normal((k, size))
        for j in reversed(range(k)):
            acc = x[rows[j]]
            acc /= math.sqrt(f.d[j])
            for a, l in enumerate(f.lower[j, : k - 1 - j].tolist()):
                acc -= l * x[rows[j + 1 + a]]
        return x.T


def _green_check(graph: Graph) -> Callable[[int, np.ndarray], None]:
    """A check of G's rows lo .. lo + n - 1 (``graph.interior`` order) against G = P^-1.

    ``check(lo, block)`` needs only the block's own rows.  It refuses the
    absorption identity G h = 1 off by more than 1e-9, h holding each
    vertex's horizon neighbours (TheoremViolationError); the residual
    G P - I above ``SOLVE_RESIDUAL_REFUSE`` (NumericalError); and, up to 64
    interior vertices, a diagonal entry whose product with the degree and
    the escape probability of the independent absorbing route is more than
    1e-9 off 1 (TheoremViolationError).  A NaN is refused by the first two.
    The block's columns are checked in slices of ``_util._BLOCK_CELLS // 32``
    bytes, read off ``block.T``, which is contiguous for the blocks
    ``_green_rows`` yields.  At most two arrays of a slice's size are alive
    at a time (its residual and a neighbour row taken off ``block.T``), a
    sixteenth of the budget, so they fit beside the half that
    ``_green_rows``'s buffer takes.
    """
    interior = graph.interior
    k = len(interior)
    index = {v: i for i, v in enumerate(interior)}
    degrees = np.array([graph.degree(v) for v in interior], dtype=float)
    inner = [[index[w] for w, _ in graph.adjacency[v] if w in index] for v in interior]
    slots = np.full((k, max(map(len, inner), default=0)), -1, dtype=np.int64)
    for i, nbrs in enumerate(inner):
        slots[i, : len(nbrs)] = nbrs
    inside, slots = slots >= 0, np.maximum(slots, 0)
    h = _horizon_counts(graph, interior)
    escape = escape_probabilities(graph, "absorbing") if k <= 64 else None

    def check(lo: int, block: np.ndarray) -> None:
        t = block.T  # t[c, i] = G[lo + i, c]
        n = t.shape[1]
        step = max(1, _util._BLOCK_CELLS // 256 // max(n, 1))
        gh, peaks = np.zeros(n), []
        for s in range(0, k, step):
            part = t[s : s + step]
            e = s + len(part)
            gh += (part * h[s:e, None]).sum(axis=0)
            # (G P)[i, c] = degree(c) G[i, c] - the sum of G[i, w] over c's interior neighbours w.
            r = part * degrees[s:e, None]
            for a in range(slots.shape[1]):
                np.subtract(r, t[slots[s:e, a]], out=r, where=inside[s:e, a, None])
            d = np.arange(max(s, lo), min(e, lo + n))
            r[d - s, d - lo] -= 1.0
            peaks.append(np.abs(r, out=r).max())
            del r
        _check_ones(interior[lo:], gh, "absorption identity")
        worst = float(np.max(peaks))  # np.max keeps a NaN, which is refused
        if not worst <= _util.SOLVE_RESIDUAL_REFUSE:
            raise NumericalError(f"green matrix: residual {worst:.3e} above refusal threshold")
        if escape is not None:
            for i, v in enumerate(interior[lo : lo + n]):
                product = block[i, lo + i] * graph.degree(v) * escape[v]
                if abs(product - 1.0) > 1e-9:
                    raise TheoremViolationError(f"diagonal identity off at vertex {v}: {product}")

    return check


def green(graph: Graph) -> GreenMatrix:
    """Covariance matrix of the field absorbed at the horizon: G = P^-1, P = D - A.

    The ``GreenMatrix`` is returned with its factor checked; G is streamed
    in checked row blocks by ``row_blocks``.
    """
    return GreenMatrix(graph)


# ---- order-3 cutset frame ----


@dataclass(frozen=True)
class CutsetFrame:
    """The order-3 subdivision data attached to one base cutset.

    ``x_vertices`` are the midpoints on the component side of each
    cutset edge, ``y_vertices`` their mates across the mid-edge,
    ``inner_vertices`` the original endpoints next to each x, and
    ``component`` the origin's side of the derived graph once the
    mid-edges are removed.
    """

    sd: SubdivisionMap
    cutset: Cutset
    mid_edge_ids: tuple[int, ...]
    x_vertices: tuple[int, ...]
    y_vertices: tuple[int, ...]
    inner_vertices: tuple[int, ...]
    component: frozenset[int]


def cutset_frame(base: Graph, cutset: Cutset) -> CutsetFrame:
    sd = subdivide(base, 3)
    decomp = decompose(base, cutset)
    a_base = set(decomp.component_a)
    xs, ys, inners, mids = [], [], [], []
    for eid in cutset.edge_ids:
        u, v = base.edges[eid]
        inner = u if u in a_base else v
        m_u, m_v = sd.midpoints[eid]
        xs.append(m_u if inner == u else m_v)
        ys.append(m_v if inner == u else m_u)
        inners.append(inner)
        mids.append(sd.mid_edge_id(eid))
    region = set(a_base)
    for eid, (u, v) in enumerate(base.edges):
        if u in a_base and v in a_base:
            region.update(sd.midpoints[eid])
    region.update(xs)
    if not is_minimal_cutset(sd.derived, tuple(mids), cutset.source):
        raise TheoremViolationError("mid-edges fail to form a minimal cutset")
    blocked = set(mids)
    kept = [int(eid not in blocked) for eid in range(sd.derived.n_edges)]
    reach, touched = flood(sd.derived, (cutset.source,), kept, 1)
    if touched or {u for u, bits in enumerate(reach) if bits} != region:
        raise TheoremViolationError("component reconstruction mismatch")
    return CutsetFrame(
        sd, cutset, tuple(mids), tuple(xs), tuple(ys), tuple(inners), frozenset(region)
    )


# ---- the sampling pipeline ----


@dataclass(frozen=True)
class Section8Report:
    cutset: Cutset
    mid_edge_ids: tuple[int, ...]
    trials: int
    f_count: int
    e_count: int
    fe_count: int
    boundary_count: int


def _field_blocks(gm: GreenMatrix, seed: int, trials: int):
    sizes = [min(_BLOCK, trials - done) for done in range(0, trials, _BLOCK)]
    for rng, size in zip(trial_generators(seed, 0, len(sizes)), sizes):
        yield gm.sample_block(rng, size)


def section8_pipeline(
    base: Graph, cutset: Cutset, trials: int, seed: int
) -> Section8Report:
    """Sample fields on the order-3 subdivision and tally the events.

    Per sample: F clamps every outer midpoint into [-2,-1] and every
    inner midpoint into [1,2]; E connects the origin to each inner
    midpoint inside the non-negative excursion restricted to the
    component side; the boundary event asks for the exposed boundary of
    the full non-negative cluster to be exactly the mid-edges.  Every
    F-and-E sample must satisfy the boundary event or the run aborts.
    Fields are drawn in blocks of 4096, one derived seed per block, so
    block-parallel runs agree with serial ones.

    A block is searched at once on trial bits (bit t for its sample t):
    per vertex the samples at or above 0 (horizon vertices always are),
    per edge those where both ends are.  Two ``flood`` calls from the
    origin, over the component's edges and over all edges, give E and the
    cluster; one ``exposed_bits`` pass over the untouched clusters that
    meet every mid-edge gives the boundary event.
    """
    if trials < 1:
        raise PreconditionError("trials must be positive")
    frame = cutset_frame(base, cutset)
    derived = frame.sd.derived
    gm = GreenMatrix(derived)
    origin = cutset.source
    x_idx = np.array([gm.index(v) for v in frame.x_vertices])
    y_idx = np.array([gm.index(v) for v in frame.y_vertices])
    pairs = tuple(zip(frame.x_vertices, frame.y_vertices))
    in_component = [u in frame.component and v in frame.component for u, v in derived.edges]
    mids = frame.mid_edge_ids

    f_count = e_count = fe_count = boundary_count = 0
    for block in _field_blocks(gm, seed, trials):
        fx = block[:, x_idx]
        fy = block[:, y_idx]
        f_mask = (
            (fx >= 1.0).all(axis=1)
            & (fx <= 2.0).all(axis=1)
            & (fy >= -2.0).all(axis=1)
            & (fy <= -1.0).all(axis=1)
        )
        full = (1 << block.shape[0]) - 1
        up = [full] * derived.n_vertices
        for v, bits in zip(gm.interior, _row_ints((block >= 0.0).T)):
            up[v] = bits
        open_bits = [up[a] & up[b] for a, b in derived.edges]
        seeded = up[origin]
        comp_a, _ = flood(
            derived, (origin,), [b if keep else 0 for b, keep in zip(open_bits, in_component)],
            seeded,
        )
        cluster, touched = flood(derived, (origin,), open_bits, seeded)
        e_bits, candidate = seeded, seeded & ~touched
        for x in frame.x_vertices:
            e_bits &= comp_a[x]
        for x, y in pairs:
            candidate &= cluster[x] | cluster[y]
        match = candidate
        exposed = exposed_bits(derived, [bits & candidate for bits in cluster], candidate)
        for eid, bits in enumerate(exposed):
            match &= bits if eid in mids else ~bits
        f_bits = _row_ints(f_mask[None, :])[0]
        fe_bits = f_bits & e_bits
        if fe_bits & ~match:
            raise TheoremViolationError(
                "clamped and connected sample missed the target boundary"
            )
        f_count += f_bits.bit_count()
        e_count += e_bits.bit_count()
        fe_count += fe_bits.bit_count()
        boundary_count += match.bit_count()
        # One block alive: this one goes before the next is drawn.
        del block, fx, fy, f_mask, up, open_bits, comp_a, cluster, exposed
    return Section8Report(
        cutset, mids, trials, f_count, e_count, fe_count, boundary_count
    )
