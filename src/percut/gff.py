"""Gaussian free fields with an absorbing horizon.

The field's covariance is the degree-normalized visit-count matrix of
the killed walk, so variances are reciprocal degree-weighted escape
probabilities.  On order-3 subdivisions, clamping the two midpoints of
every cutset edge to opposite signs and connecting the origin to the
inner midpoints inside the excursion set forces the cluster boundary to
be exactly the subdivided cutset; the pipeline here samples those
events and checks the implication on every hit.  It searches a whole
block of field samples at once on trial bits (``graph_core.flood`` and
``graph_core.exposed_bits``), bit t of every per-vertex and per-edge int
standing for sample t.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _util
from ._util import _row_ints, trial_generators
from .errors import NumericalError, PreconditionError, TheoremViolationError
from .cutsets import Cutset, decompose, is_minimal_cutset
from .graph_core import Graph, SubdivisionMap, exposed_bits, flood, subdivide
from .rw_cutsets import (
    _band_factor, _band_inverse, _check_ones, _horizon_counts, escape_probabilities,
)

_BLOCK = 4096


class GreenMatrix:
    """Covariance of the field: expected visits over target degree.

    Symmetric within 1e-9 (then symmetrized), positive definite, and on
    the diagonal the reciprocal of degree times no-return probability.
    The matrix owns ``np.asarray(g, dtype=float)``: a float array is
    symmetrized in place and kept, not copied, so the caller hands over an
    array no one else changes.  The Cholesky factor is formed on first use.
    """

    def __init__(self, graph: Graph, interior: tuple[int, ...], g: np.ndarray):
        g = np.asarray(g, dtype=float)
        k = len(interior)
        if g.shape != (k, k):
            raise PreconditionError("matrix shape does not match the interior")
        gap = _symmetrize(g)
        # A non-finite entry leaves a NaN or infinite gap; `not <=` refuses both.
        if not gap <= 1e-9:
            raise TheoremViolationError(f"green matrix asymmetry {gap:.3e}")
        self.graph = graph
        self.interior = interior
        self.g = g
        self._index = {v: i for i, v in enumerate(interior)}
        self.jitter_used = False

    @cached_property
    def factor(self) -> np.ndarray:
        """Cholesky factor of g, formed on first use.

        A single 1e-12 diagonal jitter, on a copy, is attempted before
        giving up; ``jitter_used`` says whether it was needed.
        """
        try:
            return np.linalg.cholesky(self.g)
        except np.linalg.LinAlgError:
            try:
                # g + 1e-12 I entry by entry: + 0.0 turns a -0.0 to 0.0 as it does.
                # The diagonal is indexed, not reshaped, so g of any layout takes the bump.
                bumped = self.g + 0.0
                bumped[np.diag_indices(len(bumped))] += 1e-12
                factor = np.linalg.cholesky(bumped)
            except np.linalg.LinAlgError as exc:
                raise NumericalError("covariance is not positive definite") from exc
        self.jitter_used = True
        return factor

    def index(self, v: int) -> int:
        if v not in self._index:
            raise PreconditionError(f"vertex {v} is not interior")
        return self._index[v]

    def sample_block(self, rng: np.random.Generator, size: int) -> np.ndarray:
        z = rng.standard_normal((size, len(self.interior)))
        return z @ self.factor.T


def _symmetrize(g: np.ndarray) -> float:
    """Replace square ``g`` by (g + g.T) / 2 in place; return max |g - g.T| before.

    Row strip i of the upper triangle and column strip i of the lower are
    averaged together, a strip of at most ``_util._BLOCK_CELLS`` bytes at a
    time, with the same operations as the whole-matrix expressions, so every
    entry and the gap come out bit for bit as they would.  An infinite entry
    gives a NaN gap, quietly: the caller refuses it.
    """
    k = len(g)
    rows = max(1, _util._BLOCK_CELLS // 8 // max(k, 1))
    gaps = [0.0]
    with np.errstate(invalid="ignore"):
        for lo in range(0, k, rows):
            upper = g[lo : lo + rows, lo:]
            lower = g[lo:, lo : lo + rows].T
            diff = upper - lower
            gaps.append(np.abs(diff, out=diff).max())
            del diff
            mean = upper + lower
            mean /= 2.0
            upper[...] = mean
            lower[...] = mean
    # np.max keeps a NaN gap, as the whole-matrix max does, for the guard to refuse.
    return float(np.max(gaps))


def _check_green(graph: Graph, g: np.ndarray) -> None:
    """Refuse a Green matrix g (``graph.interior`` order) that is not P^-1.

    In row blocks, with no k x k temporary: the residual P g - I against
    ``SOLVE_RESIDUAL_REFUSE`` (NumericalError), and the absorption identity
    g h = 1 within 1e-9, h holding each vertex's horizon neighbours
    (TheoremViolationError).  A NaN is refused by both.  A block of the
    residual and the block of neighbour rows taken off it hold at most
    ``_util._BLOCK_CELLS`` bytes together.
    """
    interior = graph.interior
    k = len(interior)
    index = {v: i for i, v in enumerate(interior)}
    degrees = np.array([graph.degree(v) for v in interior], dtype=float)
    inner = [[index[w] for w in graph.neighbors(v) if w in index] for v in interior]
    slots = np.full((k, max(map(len, inner), default=0)), -1, dtype=np.int64)
    for i, nbrs in enumerate(inner):
        slots[i, : len(nbrs)] = nbrs
    h = _horizon_counts(graph, interior)
    rows = max(1, _util._BLOCK_CELLS // 16 // max(k, 1))
    residual = [0.0]
    for lo in range(0, k, rows):
        block = g[lo : lo + rows]
        _check_ones(interior[lo:], (block * h).sum(axis=1), "absorption identity")
        r = block * degrees[lo : lo + rows, None]
        for nbr in slots[lo : lo + rows].T:
            np.subtract(r, g[np.maximum(nbr, 0)], out=r, where=(nbr >= 0)[:, None])
        r[np.arange(len(r)), lo + np.arange(len(r))] -= 1.0
        residual.append(np.abs(r, out=r).max())
        del block, r
    worst = float(np.max(residual))
    if not worst <= _util.SOLVE_RESIDUAL_REFUSE:
        raise NumericalError(f"green matrix: residual {worst:.3e} above refusal threshold")


def green(graph: Graph) -> GreenMatrix:
    """Covariance matrix of the field absorbed at the horizon: G = P^-1, P = D - A.

    G comes from the band factor of the interior precision
    (``rw_cutsets._band_inverse``), exactly symmetric, with no dense
    inverse; positive pivots certify it positive definite.  The residual
    P G - I and the absorption identity G h = 1 are checked in row blocks
    (``_check_green``).  Up to 64 interior vertices the diagonal is also
    cross-checked against escape probabilities from the independent
    absorbing route.
    """
    interior = graph.interior
    g = _band_inverse(_band_factor(graph), interior)
    _check_green(graph, g)
    gm = GreenMatrix(graph, interior, g)
    if len(interior) <= 64:
        escape = escape_probabilities(graph, "absorbing")
        for i, v in enumerate(interior):
            product = gm.g[i, i] * graph.degree(v) * escape[v]
            if abs(product - 1.0) > 1e-9:
                raise TheoremViolationError(
                    f"diagonal identity off at vertex {v}: {product}"
                )
    return gm


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
    gm = green(derived)
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
