"""Finite graphs with a horizon vertex set standing in for infinity.

A graph here is simple, connected and undirected, with edges carrying
stable integer ids (their position in the edge list).  The horizon is a
distinguished set of absorbing vertices: "connected to infinity" always
means "reaches some horizon vertex".  Reachability under closed edges
goes through one kernel here: ``flood`` (the vertices reached over open
edges from a seed set, the horizon absorbing, in many trials at once, one
bit per trial), with ``exposed_bits`` (the exposed boundaries of many
vertex sets at once, by one flood from the horizon) on top of it, plus
``UnionFind``.  Every sampled, swept or single cluster is a block of
trial bits: bit t of each per-vertex or per-edge int belongs to trial t,
and a single question is a block of one trial.
Graph parsing, the built-in families, edge subdivisions, connected
vertex sets and vertex orders (bandwidth, reverse Cuthill-McKee) live here
as well.  The module loads no numpy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    CapExceededError,
    GraphStructureError,
    ParseError,
    PreconditionError,
)


@dataclass(frozen=True)
class Graph:
    """Simple connected graph with ordered edges and a horizon set.

    Edge ids are positions in ``edges``; each pair is stored as
    (min, max).  The horizon may be empty, in which case no vertex is
    connected to infinity and cutset operations are undefined.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    horizon: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.n_vertices < 1:
            raise GraphStructureError("graph needs at least one vertex")
        norm = []
        seen = set()
        for eid, pair in enumerate(self.edges):
            u, v = pair
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise GraphStructureError(f"edge {eid} endpoint out of range: {pair}")
            if u == v:
                raise GraphStructureError(f"edge {eid} is a self-loop at {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphStructureError(f"edge {eid} duplicates {key}")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "horizon", frozenset(self.horizon))
        for z in self.horizon:
            if not 0 <= z < self.n_vertices:
                raise GraphStructureError(f"horizon vertex {z} out of range")
        if self.n_vertices > 1:
            sets = UnionFind(self.n_vertices)
            for u, v in self.edges:
                sets.union(u, v)
            if sets.components != 1:
                raise GraphStructureError("graph is not connected")

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, the tuple of (neighbor, edge id) pairs."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_vertices)]
        for eid, (u, v) in enumerate(self.edges):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        return tuple(tuple(a) for a in adj)

    @cached_property
    def interior(self) -> tuple[int, ...]:
        """Non-horizon vertices in ascending order."""
        return tuple(v for v in range(self.n_vertices) if v not in self.horizon)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(w for w, _ in self.adjacency[v])

    def incident_edges(self, v: int) -> tuple[int, ...]:
        return tuple(eid for _, eid in self.adjacency[v])

    @property
    def n_edges(self) -> int:
        return len(self.edges)


# ---- the traversal kernel ----


def flood(
    graph: Graph, sources: Iterable[int], open_bits: Sequence[int], full: int
) -> tuple[list[int], int]:
    """Vertices reached from ``sources`` over open edges, in many trials at once.

    Bit t of ``open_bits[eid]`` is set when edge eid is open in trial t,
    and the sources start with every trial of ``full``.  Returns, per
    vertex, the trials that reach it, and the trials that touch the
    horizon.  A trial stops spreading once it touches the horizon, so
    only untouched trials' bits are whole clusters.  Horizon vertices
    absorb, but a source is never newly reached, so a flood from the
    horizon passes through it.  A FIFO worklist passes on only the bits a
    vertex gained since it last passed some on.
    """
    horizon = graph.horizon
    adjacency = graph.adjacency
    reach = [0] * graph.n_vertices
    pending = [0] * graph.n_vertices
    queue = deque(sources)
    for s in queue:
        reach[s] = pending[s] = full
    alive = full
    while queue:
        u = queue.popleft()
        here = pending[u] & alive
        pending[u] = 0
        for w, eid in adjacency[u]:
            new = here & open_bits[eid] & ~reach[w]
            if new:
                reach[w] |= new
                if w in horizon:
                    alive &= ~new
                else:
                    if not pending[w]:
                        queue.append(w)
                    pending[w] |= new
    return reach, full & ~alive


def exposed_bits(graph: Graph, inside: Sequence[int], full: int) -> list[int]:
    """Exposed boundaries of many vertex sets at once, one bit per trial.

    The exposed boundary of a set is the edges out of it whose far
    endpoint still reaches the horizon (or is a horizon vertex) without
    entering the set.  Bit t of ``inside[u]`` is set when u is in trial
    t's set, and ``full`` sets every trial's bit; no set may hold a
    horizon vertex.  Returns, per edge, the trials in which it is exposed.
    One flood from the whole horizon over the edges with neither end in
    the trial's set gives the vertices that escape; edge (a, b) is exposed
    when a is inside and b escapes, or the other way round, the rule of
    ``cutsets._minimal_bits``.
    """
    if any(inside[z] for z in graph.horizon):
        raise PreconditionError("set under study intersects the horizon")
    outside = [full & ~bits for bits in inside]
    ends = graph.edges
    esc, _ = flood(graph, graph.horizon, [outside[a] & outside[b] for a, b in ends], full)
    return [inside[a] & esc[b] | inside[b] & esc[a] for a, b in ends]


class UnionFind:
    """Disjoint sets over 0..n-1 with path halving and a component count."""

    __slots__ = ("parent", "components")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.components = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; False when they were already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        self.components -= 1
        return True


# ---- text format ----


def load_graph(text: str) -> Graph:
    """Parse the edge-list text format.

    Lines: ``v <count>``, ``z <id> ...`` (horizon), ``e <u> <v>`` (edge
    id = occurrence index), ``#`` comments.  A ``/`` also separates
    records, so the compact one-line form parses too.
    """
    n: int | None = None
    horizon: set[int] = set()
    edges: list[tuple[int, int]] = []
    seen_pairs: set[tuple[int, int]] = set()
    lineno = 0
    for raw_line in text.replace("/", "\n").split("\n"):
        lineno += 1
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag, args = parts[0], parts[1:]
        try:
            values = [int(a) for a in args]
        except ValueError:
            raise ParseError(f"non-integer argument in {line!r}", lineno) from None
        if tag == "v":
            if n is not None:
                raise ParseError("duplicate vertex-count line", lineno)
            if len(values) != 1 or values[0] < 1:
                raise ParseError("v expects one positive count", lineno)
            n = values[0]
        elif tag == "z":
            if n is None:
                raise ParseError("horizon before vertex count", lineno)
            for z in values:
                if not 0 <= z < n:
                    raise ParseError(f"horizon vertex {z} out of range", lineno)
            horizon.update(values)
        elif tag == "e":
            if n is None:
                raise ParseError("edge before vertex count", lineno)
            if len(values) != 2:
                raise ParseError("e expects two endpoints", lineno)
            u, v = values
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge endpoint out of range in {line!r}", lineno)
            if u == v:
                raise ParseError(f"self-loop at {u}", lineno)
            key = (min(u, v), max(u, v))
            if key in seen_pairs:
                raise ParseError(f"duplicate edge {key}", lineno)
            seen_pairs.add(key)
            edges.append(key)
        else:
            raise ParseError(f"unknown directive {tag!r}", lineno)
    if n is None:
        raise ParseError("missing vertex-count line")
    return Graph(n, tuple(edges), frozenset(horizon))


# ---- subdivision ----


@dataclass(frozen=True)
class SubdivisionMap:
    """Order 2 or 3 subdivision with the base-edge-to-midpoint map.

    Base vertices keep their ids in the derived graph; midpoints are
    appended in base edge order.  For order 3 the first midpoint of an
    edge is adjacent to the smaller base endpoint.
    """

    base: Graph
    derived: Graph
    order: int
    midpoints: tuple[tuple[int, ...], ...]

    def is_midpoint(self, v: int) -> bool:
        return v >= self.base.n_vertices

    def base_edge_of(self, v: int) -> int:
        if not self.is_midpoint(v):
            raise PreconditionError(f"{v} is a base vertex, not a midpoint")
        return (v - self.base.n_vertices) // (self.order - 1)

    def mid_edge_id(self, base_eid: int) -> int:
        """Derived id of the middle segment of a base edge (order 3 only)."""
        if self.order != 3:
            raise PreconditionError("mid edges exist only at order 3")
        return 3 * base_eid + 1


def subdivide(graph: Graph, order: int) -> SubdivisionMap:
    """Replace every edge by a path with ``order`` segments (order 2 or 3)."""
    if order not in (2, 3):
        raise PreconditionError("subdivision order must be 2 or 3")
    n = graph.n_vertices
    derived_edges: list[tuple[int, int]] = []
    midpoints: list[tuple[int, ...]] = []
    for eid, (u, v) in enumerate(graph.edges):
        if order == 2:
            m = n + eid
            midpoints.append((m,))
            derived_edges += [(u, m), (m, v)]
        else:
            m1 = n + 2 * eid
            m2 = m1 + 1
            midpoints.append((m1, m2))
            derived_edges += [(u, m1), (m1, m2), (m2, v)]
    derived = Graph(n + (order - 1) * graph.n_edges, tuple(derived_edges), graph.horizon)
    return SubdivisionMap(graph, derived, order, tuple(midpoints))


# ---- subset machinery ----


def connected_subsets_containing(
    graph: Graph,
    root: int,
    allowed: Iterable[int] | None = None,
    max_count: int | None = None,
) -> Iterator[frozenset[int]]:
    """All connected vertex sets containing ``root`` inside ``allowed``.

    Each set is produced exactly once (include/exclude branching with a
    banned list).  Raises when more than ``max_count`` sets appear.
    """
    allow = set(range(graph.n_vertices)) if allowed is None else set(allowed)
    if root not in allow:
        raise PreconditionError("root must be allowed")
    produced = 0

    def rec(current: set[int], ext: list[int], banned: set[int]) -> Iterator[frozenset[int]]:
        nonlocal produced
        produced += 1
        if max_count is not None and produced > max_count:
            raise CapExceededError(f"more than {max_count} connected subsets")
        yield frozenset(current)
        local_banned = set(banned)
        while ext:
            v = ext.pop()
            extra = [
                w
                for w, _ in graph.adjacency[v]
                if w in allow and w not in current and w not in local_banned and w not in ext
            ]
            current.add(v)
            yield from rec(current, ext + extra, local_banned)
            current.remove(v)
            local_banned.add(v)

    first_ext = [w for w, _ in graph.adjacency[root] if w in allow]
    yield from rec({root}, first_ext, set())


def boundary_edges(graph: Graph, s: Iterable[int]) -> tuple[int, ...]:
    """Ids of edges with exactly one endpoint in ``s``."""
    inside = set(s)
    return tuple(
        eid for eid, (u, v) in enumerate(graph.edges) if (u in inside) != (v in inside)
    )


def set_weight(graph: Graph, s: Iterable[int]) -> int:
    """Degree-weighted size: the sum of full-graph degrees over the set."""
    return sum(graph.degree(v) for v in s)


# ---- vertex orders ----


def bandwidth(graph: Graph, order: Sequence[int]) -> int:
    """Largest distance in ``order`` between the ends of an edge with both ends in it."""
    pos = {v: i for i, v in enumerate(order)}
    return max(
        (abs(pos[u] - pos[v]) for u, v in graph.edges if u in pos and v in pos), default=0
    )


def reverse_cuthill_mckee(graph: Graph, vertices: Sequence[int]) -> tuple[int, ...]:
    """``vertices`` in reverse Cuthill-McKee order of the subgraph they induce.

    Each component is searched breadth first from a pseudo-peripheral vertex
    (George & Liu): from its lowest-degree vertex, restart at the
    lowest-degree vertex of the last level while that deepens the levels.
    The search visits neighbours by increasing degree, ties going to the
    lower id, so the order depends on the graph alone.
    """
    inside = set(vertices)
    nbrs = {v: [w for w in graph.neighbors(v) if w in inside] for v in vertices}
    rank = {v: (len(nbrs[v]), v) for v in vertices}
    for adj in nbrs.values():
        adj.sort(key=rank.__getitem__)

    def levels(root: int) -> list[list[int]]:
        seen, layers = {root}, [[root]]
        while True:
            nxt = []
            for v in layers[-1]:
                for w in nbrs[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            if not nxt:
                return layers
            layers.append(nxt)

    order: list[int] = []
    placed: set[int] = set()
    for v in sorted(vertices, key=rank.__getitem__):
        if v in placed:
            continue
        layers = levels(v)
        while True:
            deeper = levels(min(layers[-1], key=rank.__getitem__))
            if len(deeper) <= len(layers):
                break
            layers = deeper
        for layer in layers:
            order += layer
            placed.update(layer)
    return tuple(reversed(order))


# ---- built-in families ----


def _resolve_horizon(spec, boundary: Iterable[int]) -> frozenset[int]:
    if spec == "boundary":
        return frozenset(boundary)
    if spec is None:
        return frozenset()
    return frozenset(int(v) for v in spec)


def path_graph(length: int, horizon="boundary") -> Graph:
    """Path on ``length`` vertices; boundary horizon is the two endpoints."""
    if length < 2:
        raise PreconditionError("path needs at least 2 vertices")
    edges = tuple((i, i + 1) for i in range(length - 1))
    return Graph(length, edges, _resolve_horizon(horizon, (0, length - 1)))


def cycle_graph(length: int, horizon=None) -> Graph:
    """Cycle on ``length`` vertices; it has no natural boundary."""
    if length < 3:
        raise PreconditionError("cycle needs at least 3 vertices")
    edges = tuple((i, (i + 1) % length) for i in range(length))
    boundary: tuple[int, ...] = ()
    return Graph(length, edges, _resolve_horizon(horizon, boundary))


def grid_graph(width: int, height: int, torus: bool = False, horizon="boundary") -> Graph:
    """Rectangular grid, row-major ids; boundary horizon is the outer ring."""
    if width < 1 or height < 1 or width * height < 2:
        raise PreconditionError("grid needs at least 2 vertices")
    if torus and (width < 3 or height < 3):
        raise PreconditionError("torus wrap needs both sides at least 3")
    edges = []
    for y in range(height):
        for x in range(width):
            v = y * width + x
            if x + 1 < width:
                edges.append((v, v + 1))
            elif torus:
                edges.append((v, y * width))
            if y + 1 < height:
                edges.append((v, v + width))
            elif torus:
                edges.append((v, x))
    boundary = () if torus else tuple(
        y * width + x
        for y in range(height)
        for x in range(width)
        if x in (0, width - 1) or y in (0, height - 1)
    )
    return Graph(width * height, tuple(edges), _resolve_horizon(horizon, boundary))


def box3d_graph(width: int, height: int, depth: int, horizon="boundary") -> Graph:
    """Box grid in three dimensions; boundary horizon is the outer shell."""
    if min(width, height, depth) < 1 or width * height * depth < 2:
        raise PreconditionError("box needs at least 2 vertices")

    def vid(x: int, y: int, z: int) -> int:
        return (z * height + y) * width + x

    edges = []
    for z in range(depth):
        for y in range(height):
            for x in range(width):
                if x + 1 < width:
                    edges.append((vid(x, y, z), vid(x + 1, y, z)))
                if y + 1 < height:
                    edges.append((vid(x, y, z), vid(x, y + 1, z)))
                if z + 1 < depth:
                    edges.append((vid(x, y, z), vid(x, y, z + 1)))
    boundary = tuple(
        vid(x, y, z)
        for z in range(depth)
        for y in range(height)
        for x in range(width)
        if x in (0, width - 1) or y in (0, height - 1) or z in (0, depth - 1)
    )
    n = width * height * depth
    return Graph(n, tuple(edges), _resolve_horizon(horizon, boundary))


def star_graph(leaves: int, horizon="boundary") -> Graph:
    """Star with center 0; boundary horizon is the leaf set."""
    if leaves < 1:
        raise PreconditionError("star needs at least one leaf")
    edges = tuple((0, i) for i in range(1, leaves + 1))
    return Graph(leaves + 1, edges, _resolve_horizon(horizon, range(1, leaves + 1)))


FAMILY_BUILDERS = {
    "path": path_graph,
    "cycle": cycle_graph,
    "grid": grid_graph,
    "box3d": box3d_graph,
    "star": star_graph,
}
