"""Spans around the package's public functions, installed from outside.

``install`` replaces every public function of every ``percut`` module (and
a few named methods and private CLI steps) with a timing wrapper, in the
defining module and in every module that imported the name.  Calls are
kept as a calling-context tree: one node per (parent node, function), with
its call count, total time and the time its children covered, so the
hundreds of thousands of per-configuration calls of an exact sweep cost a
counter increment each and memory stays bounded.  A node seen once is an
ordinary span; its first start and last end are recorded either way.
Times are integer nanoseconds, so self times add up to the job span
exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter_ns

# Layer label -> module.  Metric names must start with a letter, hence "util".
LAYERS = {"graph_core": "graph_core", "cutsets": "cutsets", "percolation": "percolation",
          "fkg_chain": "fkg_chain", "cover_lemma": "cover_lemma", "rw_cutsets": "rw_cutsets",
          "gff": "gff", "util": "_util", "cli": "cli"}

# Per-element helpers: a span around each would time the wrapper, not the layer.
SKIP = {"util.fmt12", "util.derive_seed", "util.trial_generator",
        "util.wilson_interval", "percolation.config_from_mask", "cli.main"}

METHODS = {
    "graph_core": ("Graph.__post_init__",),
    "fkg_chain": ("ConnectivityOracle.__init__", "ConnectivityOracle.connect_prob",
                  "ConnectivityOracle.all_connected_prob"),
    "cover_lemma": ("SubStochasticMatrix.__init__",),
    "gff": ("GreenMatrix.__init__", "GreenMatrix.sample_block"),
}


class Node:
    __slots__ = ("id", "parent", "name", "layer", "job", "count", "total", "child",
                 "first", "last", "children")

    def __init__(self, nid, parent, name, layer, job):
        self.id, self.parent, self.name, self.layer, self.job = nid, parent, name, layer, job
        self.count = self.total = self.child = 0
        self.first = self.last = None
        self.children = {}

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent.id if self.parent else None,
                "name": self.name, "layer": self.layer, "job": self.job,
                "count": self.count, "total_ns": self.total,
                "self_ns": self.total - self.child, "first_ns": self.first,
                "last_ns": self.last}


class Tracer:
    """Open-span stack plus the counters that observers fill in."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.current: Node | None = None
        self.counters: dict[str, float] = {}
        self.ranges: set = set()

    def _child(self, name: str, layer: str) -> Node:
        parent = self.current
        node = parent.children.get(name)
        if node is None:
            node = Node(len(self.nodes), parent, name, layer, parent.job)
            parent.children[name] = node
            self.nodes.append(node)
        return node

    def _close(self, node: Node, start: int, end: int) -> None:
        dur = end - start
        node.count += 1
        node.total += dur
        if node.first is None:
            node.first = start
        node.last = end
        if node.parent is not None:
            node.parent.child += dur

    def add(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def run_job(self, job_id: str, fn, *args):
        """Run one job under a root span; returns fn's result."""
        root = Node(len(self.nodes), None, "cli.main", "cli", job_id)
        self.nodes.append(root)
        self.current = root
        self.ranges = set()
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._close(root, start, perf_counter_ns())
            self.current = None
            self.add("rw_cutsets.distinct_ranges", len(self.ranges))
            if self.ranges:
                self.counters[f"rw_cutsets.distinct_ranges@{job_id}"] = len(self.ranges)

    def wrap(self, fn, name: str, layer: str, observe=None):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    parent = tracer.current
                    node = tracer._child(name, layer)
                    tracer.current = node
                    start = perf_counter_ns()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(node, start, perf_counter_ns())
                        tracer.current = parent
                    tracer.add(name + ".yields")
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.current
            if parent is None:
                return fn(*args, **kwargs)
            node = tracer._child(name, layer)
            tracer.current = node
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(node, start, perf_counter_ns())
                tracer.current = parent
            if observe is not None:
                obs = tracer._child("trace.observe", "trace")
                tracer.current = obs
                start = perf_counter_ns()
                try:
                    observe(tracer, result, *args, **kwargs)
                finally:
                    tracer._close(obs, start, perf_counter_ns())
                    tracer.current = parent
            return result
        return wrapper


# ---- observers: counts read off arguments and results ----


def _sweep(t, result, graph, *a, **k):
    t.add("percolation.configs", 1 << graph.n_edges)


def _mc(t, result, graph, x, p, trials, *a, **k):
    t.add("percolation.configs", trials)


def _found(t, table, *a, **k):
    t.add("cutsets.found", sum(len(items) for by_n in table.cutsets.values() for items in by_n.values()))


def _oracle(t, result, self, *a, **k):
    t.add("fkg_chain.oracle_configs", self._labels.shape[0])


def _dp(t, result, sub, *a, **k):
    t.add("cover_lemma.dp_masks", (1 << (sub.n - 1)) - 1)


def _cover_mc(t, result, sub, trials, *a, **k):
    t.add("cover_lemma.mc_trials", trials)


def _walk(t, trace, *a, **k):
    t.add("rw_cutsets.steps", len(trace.vertices) - 1)
    t.ranges.add(trace.range_c)


def _block(t, result, self, rng, size):
    t.add("gff.fields", size)


def _field(t, *a, **k):
    t.add("gff.fields", 1)


def _solve(t, x, a, b, *rest, **k):
    import numpy as np

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.size:
        scale = max(1.0, float(np.max(np.abs(b))))
        residual = float(np.max(np.abs(a @ x - b))) / scale
        t.counters["util.residual_max"] = max(t.counters.get("util.residual_max", 0.0), residual)


OBSERVERS = {
    "percolation.event_popcount_profile": _sweep,
    "percolation.boundary_census_exact": _sweep,
    "percolation.mc_prob": _mc,
    "percolation.boundary_census_mc": _mc,
    "cutsets.enumerate_minimal_cutsets_bruteforce": _found,
    "cutsets.enumerate_minimal_cutsets_by_components": _found,
    "fkg_chain.ConnectivityOracle.__init__": _oracle,
    "cover_lemma.covering_sum_exact": _dp,
    "cover_lemma.covering_sum_mc": _cover_mc,
    "rw_cutsets.sample_walk": _walk,
    "gff.GreenMatrix.sample_block": _block,
    "gff.sample_field": _field,
    "util.checked_solve": _solve,
}


def _traced(layer: str, attr: str) -> bool:
    """Public names, plus the CLI's emit step and per-command handlers."""
    if not attr.startswith("_"):
        return True
    return layer == "cli" and (attr == "_emit" or attr.startswith("_run_"))


def install(tracer: Tracer) -> None:
    """Wrap the package's functions in place."""
    package = importlib.import_module("percut")
    modules = {label: importlib.import_module(f"percut.{mod}") for label, mod in LAYERS.items()}
    wrapped: dict[int, object] = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if (_traced(layer, attr) and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__ and name not in SKIP):
                new = tracer.wrap(obj, name, layer, OBSERVERS.get(name))
                wrapped[id(obj)] = new
                setattr(mod, attr, new)
        for dotted in METHODS.get(layer, ()):
            cls_name, meth = dotted.split(".")
            cls = getattr(mod, cls_name)
            name = f"{layer}.{dotted}"
            setattr(cls, meth, tracer.wrap(getattr(cls, meth), name, layer, OBSERVERS.get(name)))
    # Names imported from elsewhere, including the package namespace and
    # dispatch tables such as FAMILY_BUILDERS.
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if id(value) in wrapped:
                        obj[key] = wrapped[id(value)]
