"""Minimal cutset counts by size, from a frontier DP over bond states.

With the horizon contracted to one vertex h, the minimal cutsets from v
are exactly the bonds of the graph: splits (A, B) of the interior with
v in A, A connected, and every vertex of B joined to the horizon inside
B.  The cutset is every edge from A to B or to h.  The DP places the
interior vertices in id order; its cost is exponential only in the
frontier width, not in the number of connected sets around v.

A state labels each frontier vertex (a placed vertex with an unplaced
interior neighbour) with its side and component: 0 for a B component
joined to h, a positive label for any other B component, a negative
label for an A component.  "v seen" is a property of the step and
"A closed" means v has been seen and no A label remains, so both flags
are read off the step and the labels instead of being stored.  Each
state carries a polynomial in x whose exponent counts the cut edges so
far, packed into one Python int with a slot of ``|interior| + 1`` bits
per power.  No slot can carry into the next, because a coefficient
counts assignments of placed vertices, of which there are at most
2^|interior|.
"""

from __future__ import annotations

from collections import deque

from .cutsets import QnTable, _require_cutset_context
from .errors import CapExceededError, PreconditionError, TheoremViolationError
from .graph_core import Graph

# Most live states any one step may hold before the count is refused.
STATE_CAP = 200_000


def _canonical(labels: list[int]) -> tuple[int, ...]:
    """Relabel components in order of first appearance, keeping sides."""
    names: dict[int, int] = {0: 0}
    out = []
    for label in labels:
        name = names.get(label)
        if name is None:
            name = names[label] = len(names) if label > 0 else -len(names)
        out.append(name)
    return tuple(out)


def _edge_connectivity(graph: Graph, v: int, limit: int) -> int:
    """Edge-disjoint paths from v to the horizon, counted up to ``limit + 1``.

    Unit-capacity augmenting paths; by Menger's theorem the count equals
    the size of the smallest cutset from v.
    """
    flow = [0] * graph.n_edges  # +1: one unit from the lower id to the higher
    paths = 0
    while paths <= limit:
        parent: dict[int, tuple[int, int, int] | None] = {v: None}
        queue = deque([v])
        end = None
        while queue and end is None:
            x = queue.popleft()
            for y, eid in graph.adjacency[x]:
                sign = 1 if x < y else -1
                if y in parent or flow[eid] * sign >= 1:
                    continue
                parent[y] = (x, eid, sign)
                if y in graph.horizon:
                    end = y
                    break
                queue.append(y)
        if end is None:
            break
        while parent[end] is not None:
            end, eid, sign = parent[end]
            flow[eid] += sign
        paths += 1
    return paths


def count_minimal_cutsets(graph: Graph, v: int, n_max: int) -> QnTable:
    """Number of minimal cutsets from ``v`` of each size up to ``n_max``.

    The table holds counts only, keyed by size in ascending order; sizes
    with no cutset are left out, as in the listing routes.  Raises
    ``CapExceededError`` when a step holds more than ``STATE_CAP`` states,
    and ``TheoremViolationError`` when the smallest counted size is not the
    edge connectivity from v to the horizon.
    """
    _require_cutset_context(graph, v)
    if n_max < 1:
        raise PreconditionError("n_max must be at least 1")
    order = graph.interior
    pos = {u: i for i, u in enumerate(order)}
    top = min(n_max, graph.n_edges)
    width = len(order) + 1
    mask = (1 << (top + 1) * width) - 1
    # The step after which each vertex leaves the frontier.
    last = [
        max([i] + [pos[w] for w, _ in graph.adjacency[u] if w in pos])
        for i, u in enumerate(order)
    ]
    v_step = pos[v]

    frontier: list[int] = []
    states: dict[tuple[int, ...], int] = {(): 1}
    for i, u in enumerate(order):
        slot = {w: k for k, w in enumerate(frontier)}
        back = [slot[w] for w, _ in graph.adjacency[u] if w in slot]
        to_horizon = sum(w in graph.horizon for w, _ in graph.adjacency[u])
        keep = [k for k, w in enumerate(frontier) if last[pos[w]] > i]
        gone = [k for k, w in enumerate(frontier) if last[pos[w]] == i]
        u_stays = last[i] > i
        v_seen = v_step <= i
        fresh = len(frontier) + 1
        nxt: dict[tuple[int, ...], int] = {}
        for labels, poly in states.items():
            closed = v_step < i and not any(label < 0 for label in labels)
            near = {labels[k] for k in back}
            for in_a in (True, False):
                if (in_a and closed) or (not in_a and i == v_step):
                    continue
                if in_a:
                    cut = to_horizon + sum(labels[k] >= 0 for k in back)
                    merged = {label for label in near if label < 0}
                    own = -fresh
                else:
                    cut = sum(labels[k] < 0 for k in back)
                    merged = {label for label in near if label >= 0}
                    own = 0 if to_horizon or 0 in merged else fresh
                full = [own if label in merged else label for label in labels]
                after = [full[k] for k in keep]
                if u_stays:
                    after.append(own)
                remaining = set(after)
                ending = {full[k] for k in gone} - remaining
                if not u_stays and own not in remaining:
                    ending.add(own)
                if any(label > 0 for label in ending):
                    continue  # a B component cut off from the horizon
                a_ending = sum(label < 0 for label in ending)
                if a_ending > 1 or (a_ending and (not v_seen or any(label < 0 for label in remaining))):
                    continue  # A would end disconnected, or without v
                shifted = (poly << cut * width) & mask if cut else poly
                if shifted:
                    key = _canonical(after)
                    nxt[key] = nxt.get(key, 0) + shifted
        if len(nxt) > STATE_CAP:
            raise CapExceededError(f"more than {STATE_CAP} frontier states")
        frontier = [frontier[k] for k in keep] + ([u] if u_stays else [])
        states = nxt
    total = states.get((), 0)
    slot_mask = (1 << width) - 1
    counts = {}
    for n in range(1, top + 1):
        count = (total >> n * width) & slot_mask
        if count:
            counts[n] = count
    smallest = _edge_connectivity(graph, v, top)
    if min(counts, default=top + 1) != smallest:
        raise TheoremViolationError(
            f"smallest counted cutset size differs from the {smallest} edge-disjoint paths"
        )
    return QnTable({v: counts})
