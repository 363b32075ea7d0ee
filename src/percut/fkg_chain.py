"""Chained vertex sequences and connection lower bounds.

Given percolation on an induced region where every vertex reaches a
target set B with probability at least theta, a short greedy chain of
vertices certifies that the origin connects to all of B simultaneously
with probability at least ((p theta / 2)^(3/theta))^|B|.  This module
builds such chains and carries the exact or sampled connection oracle
they query.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _util
from ._util import Z99, _bit_rows, _check_p, _config_blocks, _open_bits, check_sweep
from .errors import PreconditionError, TheoremViolationError
from .graph_core import Graph, UnionFind, flood


class ConnectivityOracle:
    """Answers P(u <-> X) inside one induced subgraph at one p.

    Without a seed it sweeps all configurations of the induced edges
    once and caches per-configuration component labels, so each query is
    a vectorized scan.  With a seed it does the same over ``trials``
    sampled configurations and reports a noise half-width.  Either way the
    configurations are one block of trial bits per induced edge, and
    ``flood`` labels their components.
    """

    def __init__(
        self,
        graph: Graph,
        region: Iterable[int],
        p: float,
        trials: int = 20_000,
        seed: int | None = None,
    ):
        _check_p(p)
        self.graph = graph
        self.region = tuple(sorted(set(region)))
        self.p = p
        self._index = {v: i for i, v in enumerate(self.region)}
        self.induced_edges = tuple(
            eid
            for eid, (u, v) in enumerate(graph.edges)
            if u in self._index and v in self._index
        )
        m = len(self.induced_edges)
        self._ends = [
            (self._index[graph.edges[eid][0]], self._index[graph.edges[eid][1]])
            for eid in self.induced_edges
        ]
        if seed is None:
            check_sweep(m)
            count = 1 << m
            # Configuration x opens induced edge i when bit i of x is set.
            full = (1 << count) - 1
            bits = [full ^ _open_bits(i, m) for i in range(m)]
            self.noise = 0.0
        else:
            count, bits = 0, [0] * m
            for size, block in _config_blocks(m, p, trials, seed):
                bits = [b | x << count for b, x in zip(bits, block)]
                count += size
            self.noise = Z99 * 0.5 / np.sqrt(trials)
        self._labels = self._flood_labels(bits, count)
        self._weights = _sweep_weights(m, p) if seed is None else np.full(trials, 1.0 / trials)

    def _flood_labels(self, bits: list[int], count: int) -> np.ndarray:
        """Entry (t, x): the smallest region index in x's component in configuration t.

        ``bits[i]`` holds the configurations that open induced edge i.  On a
        horizon-free copy with every other edge closed, region vertex i
        labels what it reaches in the configurations where no smaller one
        reached it.  Region ids that are not vertices sort to either end and
        stay alone.  Labels are the narrowest type that holds a region index
        (uint8 up to 256 vertices), and the (k, count) array is returned
        transposed, so a query's columns are contiguous.
        """
        graph, region = self.graph, self.region
        induced = dict(zip(self.induced_edges, bits))
        open_bits = [induced.get(eid, 0) for eid in range(graph.n_edges)]
        free = Graph(graph.n_vertices, graph.edges)
        k = len(region)
        labels = np.repeat(np.arange(k, dtype=np.min_scalar_type(k - 1))[:, None], count, axis=1)
        left = [(1 << count) - 1] * k
        lo, hi = bisect_left(region, 0), bisect_left(region, graph.n_vertices)
        for i in range(lo, hi):
            if left[i]:
                reach, _ = flood(free, (region[i],), open_bits, left[i])
                got = [reach[v] for v in region[i + 1 : hi]]
                _write_label(labels[i + 1 : hi], got, i, count)
                for j, gained in enumerate(got, i + 1):
                    left[j] &= ~gained
        return labels.T

    def _idx(self, v: int) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise PreconditionError(f"vertex {v} outside the oracle region") from None

    def connect_prob(self, u: int, targets: Iterable[int]) -> float:
        """P(u <-> targets) within the region; membership connects trivially."""
        tset = {self._idx(t) for t in targets}
        ui = self._idx(u)
        if not tset:
            raise PreconditionError("empty target set")
        if ui in tset:
            return 1.0
        return self._joined(ui, tset, every=False)

    def all_connected_prob(self, origin: int, targets: Iterable[int]) -> float:
        """P(origin <-> every target simultaneously)."""
        tset = {self._idx(t) for t in targets}
        oi = self._idx(origin)
        tset.discard(oi)
        if not tset:
            return 1.0
        return self._joined(oi, tset, every=True)

    def _joined(self, ui: int, tset: set[int], every: bool) -> float:
        """Weight of the configurations joining ui to any (or every) target, one column at a time."""
        labels = self._labels
        own = labels[:, ui]
        hit = np.full(len(labels), every)
        join = np.logical_and if every else np.logical_or
        for t in sorted(tset):
            join(hit, labels[:, t] == own, out=hit)
        return float(self._weights @ hit)

    def region_connected(self) -> bool:
        """Is the induced region connected when every edge is open?"""
        sets = UnionFind(len(self.region))
        for a, b in self._ends:
            sets.union(a, b)
        return sets.components == 1


def _sweep_weights(m: int, p: float) -> np.ndarray:
    """p^|x| (1 - p)^(m - |x|) for every configuration x of m edges, in sweep order.

    The open-edge counts |x| are doubled up bit by bit in uint8, and each
    weight is read off a table over the m + 1 counts, computed by the same
    numpy power as over the counts themselves.
    """
    pop = np.zeros(1 << m, dtype=np.uint8)
    for i in range(m):
        np.add(pop[: 1 << i], 1, out=pop[1 << i : 2 << i])
    j = np.arange(m + 1, dtype=np.uint8)
    return (p**j * (1.0 - p) ** (m - j))[pop]


def _write_label(rows: np.ndarray, got: list[int], label: int, count: int) -> None:
    """Set row r of ``rows`` to ``label`` at the configurations whose bits ``got[r]`` sets.

    The bits become cells a block of rows and columns at a time, at most
    ``_util._BLOCK_CELLS`` cells a block.
    """
    cols = max(1, min(count, _util._BLOCK_CELLS))
    step = max(1, _util._BLOCK_CELLS // cols)
    for a in range(0, len(got), step):
        for c in range(0, count, cols):
            size = min(cols, count - c)
            hit = _bit_rows([x >> c & (1 << size) - 1 for x in got[a : a + step]], size)
            np.copyto(rows[a : a + step, c : c + size], label, where=hit.view(bool))
            del hit  # one block alive at a time


@dataclass(frozen=True)
class ChainedSequence:
    """Greedy chain certificate.

    ``probs[i]`` is the connection probability of ``vertices[i]`` to the
    preceding prefix (1.0 by convention at index 0).  The three recorded
    guarantees: each appended step lands in [p theta/2, theta/2]; at
    termination every region vertex connects to the chain with
    probability at least theta/2; the length respects 2|B|/theta.
    """

    vertices: tuple[int, ...]
    probs: tuple[float, ...]
    theta: float
    p_min: float
    n_targets: int
    p2_certificate: float


def fkg_lower_bound(theta: float, p: float, n: int) -> float:
    """((p theta / 2) ** (3 / theta)) ** n."""
    if not 0.0 < theta <= 1.0:
        raise PreconditionError(f"theta={theta} outside (0, 1]")
    if not 0.0 < p <= 1.0:
        raise PreconditionError(f"p={p} outside (0, 1]")
    if n < 0:
        raise PreconditionError("n must be non-negative")
    c = (p * theta / 2.0) ** (3.0 / theta)
    return c**n


def build_chain(
    graph: Graph,
    region: Iterable[int],
    targets: Iterable[int],
    origin: int,
    theta: float | None = None,
    p: float = 0.5,
    trials: int = 20_000,
    seed: int | None = None,
) -> ChainedSequence:
    """Grow the greedy chain from the origin until no vertex is isolated.

    While some vertex connects to the chain with probability below
    theta/2, append the bad endpoint of the lexicographically smallest
    (bad, good) adjacent pair.  With theta omitted, the largest valid
    hypothesis level min_u P(u <-> B) is used.  Connection probabilities
    come from an oracle on the region: exact, or sampled when a seed is
    given.
    """
    region = tuple(sorted(set(region)))
    targets = tuple(sorted(set(targets)))
    if origin not in region:
        raise PreconditionError("origin must lie in the region")
    if not targets or not set(targets) <= set(region):
        raise PreconditionError("targets must be a non-empty subset of the region")
    oracle = ConnectivityOracle(graph, region, p, trials=trials, seed=seed)
    if not oracle.region_connected():
        raise PreconditionError("induced region is not connected")
    tol = 1e-12 + oracle.noise

    def fail(message: str) -> None:
        # Past the tolerance an exact oracle has found a bug; a sampled one may be noisy.
        if not oracle.noise:
            raise TheoremViolationError(message)
        warnings.warn(message)

    hypothesis = min(oracle.connect_prob(u, targets) for u in region)
    if theta is None:
        theta = hypothesis
        if theta <= 0:
            raise PreconditionError("hypothesis fails: some vertex never reaches the targets")
    else:
        if not 0.0 < theta <= 1.0:
            raise PreconditionError(f"theta={theta} outside (0, 1]")
        if hypothesis < theta - tol:
            raise PreconditionError(
                f"hypothesis violation: min_u P(u <-> B) = {hypothesis} below theta = {theta}"
            )

    chain = [origin]
    probs = [1.0]
    half = theta / 2.0
    region_set = set(region)
    adjacency = {v: sorted(w for w, _ in graph.adjacency[v] if w in region_set) for v in region}
    while True:
        connect = {v: oracle.connect_prob(v, chain) for v in region}
        bad = [v for v in region if connect[v] < half]
        if not bad:
            p2 = min(connect.values())
            break
        pair = None
        for v in sorted(bad):
            for u in adjacency[v]:
                if connect[u] >= half:
                    pair = (v, u)
                    break
            if pair:
                break
        if pair is None:
            raise TheoremViolationError(
                "no crossing edge from the well-connected set; region connectivity broken"
            )
        v, u = pair
        step = connect[v]
        lower = p * half
        if step < lower - tol:
            fail(f"step probability {step} below p theta/2 = {lower} when appending {v}")
        chain.append(v)
        probs.append(step)
        if len(chain) > len(region):
            raise TheoremViolationError("chain exceeded the region size without terminating")

    n = len(targets)
    k_bound = 2.0 * n / theta
    if len(chain) > k_bound + 1e-9:
        fail(f"chain length {len(chain)} exceeds 2|B|/theta = {k_bound}")
    if p2 < half - tol:
        fail(f"termination certificate {p2} below theta/2 = {half}")
    return ChainedSequence(tuple(chain), tuple(probs), theta, p, n, p2)
