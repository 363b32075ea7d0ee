"""Command line front end for the experiments.

Every command resolves a graph (file path or family spec such as
``path:5``, ``grid:3,3,torus``, ``star:3``), runs one operation, and
emits a result record as CSV or JSON.  Randomized commands require an
explicit seed and are pure functions of (config, seed).

Commands with an exact and a sampled route (``perc theta``, ``perc
census``, ``chain build``, ``rw escape``) follow one rule: they sample
when ``--trials`` or ``--seed`` is given without ``--exact``, and are
exact otherwise.  Sampling needs ``--seed``; ``--trials`` defaults to
``DEFAULT_TRIALS``.

Exit codes: 0 success, 1 usage or input problems, 2 a violated
mathematical invariant (so batch pipelines can tell bugs from typos).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
import time
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    CapExceededError,
    GraphStructureError,
    NumericalError,
    ParseError,
    PreconditionError,
    TheoremViolationError,
)

if TYPE_CHECKING:
    import numpy as np

    from .cutsets import QnTable
    from .graph_core import Graph

_USAGE_ERRORS = (ParseError, GraphStructureError, PreconditionError, CapExceededError)
_HASH_SKIP = {"fmt", "output_file", "config"}
# Trials drawn by a sampled command that names no --trials.
DEFAULT_TRIALS = 100_000


class _Parser(argparse.ArgumentParser):
    """argparse reserves status 2 for usage; here that signals violated math."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


# ---- argument helpers ----


def _int_list(text: str) -> tuple[int, ...]:
    if text.strip().lower() in ("", "none"):
        return ()
    try:
        return tuple(int(t) for t in re.split(r"[\s,;]+", text.strip()) if t)
    except ValueError as exc:
        raise PreconditionError(f"bad id list {text!r}") from exc


def resolve_graph(spec: str, horizon: str | None) -> Graph:
    """A file path, or a family name with parameters after ':' or spaces."""
    from .graph_core import FAMILY_BUILDERS, Graph, grid_graph, load_graph

    path = Path(spec)
    if path.is_file():
        graph = load_graph(path.read_text())
        if horizon is None:
            return graph
        if horizon.strip().lower() == "boundary":
            raise PreconditionError("boundary horizon applies to generated families only")
        return Graph(graph.n_vertices, graph.edges, frozenset(_int_list(horizon)))
    tokens = [t for t in re.split(r"[\s:,]+", spec.strip()) if t]
    if not tokens or tokens[0] not in FAMILY_BUILDERS:
        raise PreconditionError(f"graph {spec!r} is neither a file nor a known family")
    name, *rest = tokens
    torus = False
    if name == "grid" and rest and rest[-1].lower() == "torus":
        torus = True
        rest = rest[:-1]
    try:
        nums = [int(t) for t in rest]
    except ValueError as exc:
        raise PreconditionError(f"bad parameters for family {name!r} in {spec!r}") from exc
    arity = {"path": 1, "cycle": 1, "star": 1, "grid": 2, "box3d": 3}[name]
    if len(nums) != arity:
        raise PreconditionError(f"family {name!r} takes {arity} size parameters")
    if horizon is None or horizon.strip().lower() == "boundary":
        hz = "boundary"
    else:
        hz = _int_list(horizon)
    if name == "grid":
        return grid_graph(nums[0], nums[1], torus, hz)
    return FAMILY_BUILDERS[name](*nums, horizon=hz)


def _graph(args) -> Graph:
    """The command's graph, refusing a ``--vertex``, ``--origin``, ``--setA`` or ``--setB`` id past it."""
    graph = resolve_graph(args.graph, args.horizon)
    for flag in ("vertex", "origin", "setA", "setB"):
        value = getattr(args, _FLAGS[flag].get("dest", flag), None)
        for v in (value,) if isinstance(value, int) else _int_list(value or ""):
            if not 0 <= v < graph.n_vertices:
                raise PreconditionError(f"--{flag} {v} is not a vertex id in 0..{graph.n_vertices - 1}")
    return graph


def _check_seed(args) -> None:
    seed = getattr(args, "seed", None)
    if seed is not None and not 0 <= seed < 1 << 64:
        raise PreconditionError("seed must fit in 64 unsigned bits")


def _require_seed(args) -> int:
    if getattr(args, "seed", None) is None:
        raise PreconditionError("--seed is required for randomized commands")
    return args.seed


def _route(args) -> tuple[int, int | None]:
    """The exact-or-sampled rule of the module docstring, as library ``(trials, seed)``.

    A seed of None selects the exact route, as it does in the library.
    """
    sampled = not args.exact and (args.trials is not None or args.seed is not None)
    trials = DEFAULT_TRIALS if args.trials is None else args.trials
    return trials, _require_seed(args) if sampled else None


# ---- emission ----


def _numpy_type(name: str) -> tuple[type, ...]:
    """``(numpy.<name>,)`` for ``isinstance``, or ``()`` while numpy is not loaded.

    Only a command that loaded numpy can hand the emitter a numpy value, so
    the emitter never imports numpy itself.
    """
    np = sys.modules.get("numpy")
    return () if np is None else (getattr(np, name),)


def _json_value(v):
    """A scalar as ``json.dumps`` takes it: floats to 12 digits, non-finite floats as strings."""
    if isinstance(v, float):
        return float(_fmt12(v)) if math.isfinite(v) else str(v)
    if isinstance(v, _numpy_type("integer")):
        return int(v)
    if isinstance(v, _numpy_type("floating")):
        return _json_value(float(v))
    return v


def _fmt12(x: float) -> str:
    """A float with 12 significant digits, as every record writes it."""
    return f"{float(x):.12g}"


def _fmt12_join(values: list[float], sep: str) -> str:
    """``sep.join(map(_fmt12, values))`` in one C-level format call."""
    return sep.join(["%.12g"] * len(values)) % tuple(values)


def _json_float_row(row: np.ndarray, level: int) -> str:
    """The indent-2 JSON text of a 1-D float array, each entry under ``_json_value``.

    The 12-digit text of a float equals the shortest repr of the float it
    parses to, except in layout (no ``.``, an exponent of e+12..e+15, or
    non-finite) or for subnormals (``e-3``); only those entries are redone.
    """
    values = row.tolist()
    sep = ",\n" + "  " * (level + 1)
    body = _fmt12_join(values, sep)
    if body.count(".") != len(values) or "e+1" in body or "e-3" in body:
        body = sep.join(
            t if "." in t and "e+1" not in t and "e-3" not in t else json.dumps(_json_value(x))
            for t, x in zip(body.split(sep), values)
        )
    return "[" + sep[1:] + body + "\n" + "  " * level + "]"


def _json_chunks(v, level: int = 0):
    """``json.dump(v, indent=2)`` in pieces, every scalar under ``_json_value``.

    A float matrix is one piece per row, so no nested list of it is built.
    An iterator stands for a matrix given as row blocks (arrays of two or
    more dimensions), read a block at a time; an array of two or more
    dimensions is one such block.
    """
    if isinstance(v, _numpy_type("ndarray")):
        if v.ndim == 1 and v.dtype.kind == "f" and v.size:
            yield _json_float_row(v, level)
            return
        v = iter((v,)) if v.ndim > 1 else v.tolist()
    if isinstance(v, dict):
        items, brackets = ((json.dumps(k) + ": ", x) for k, x in v.items()), "{}"
    elif isinstance(v, Iterator):
        items, brackets = (("", row) for block in v for row in block), "[]"
    elif isinstance(v, (list, tuple)):
        items, brackets = (("", x) for x in v), "[]"
    else:
        yield json.dumps(_json_value(v))
        return
    inner = "\n" + "  " * (level + 1)
    sep = brackets[0] + inner
    for key, x in items:
        yield sep + key
        yield from _json_chunks(x, level + 1)
        sep = "," + inner
    yield brackets if sep[0] == brackets[0] else "\n" + "  " * level + brackets[1]


def _float_blocks(v):
    """The blocks of a CSV cell that ``_write_floats`` streams, or None.

    A non-empty float array is one block; an iterator is a matrix's row
    blocks.
    """
    if isinstance(v, Iterator):
        return v
    if isinstance(v, _numpy_type("ndarray")) and v.dtype.kind == "f" and v.size > 0:
        return (v,)
    return None


def _write_floats(stream, blocks: Iterable[np.ndarray]) -> None:
    """Float arrays' CSV cell: their entries in ``%.12g``, joined by ``;``.

    The text is written a slice of at most ``_util._BLOCK_CELLS // 512``
    entries of a block at a time.  A slice's copy, Python floats, their list
    and tuple and its text take about 72 bytes an entry, so a slice holds
    under a sixth of the budget and fits beside a Green row block's solve
    buffer, which holds half.  No character of it needs quoting.
    """
    from . import _util

    step = max(1, _util._BLOCK_CELLS // 512)
    sep = ""
    for block in blocks:
        for lo in range(0, block.size, step):
            stream.write(sep)
            stream.write(_fmt12_join(block.flat[lo : lo + step].tolist(), ";"))
            sep = ";"


def _csv_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return _fmt12(v)
    if isinstance(v, _numpy_type("ndarray")):
        return _csv_value(v.tolist())
    if isinstance(v, (list, tuple)):
        return ";".join(_csv_value(x) for x in v)
    return str(v)


def _csv_quote(text: str) -> str:
    """A cell of a row of several as ``csv.writer`` with ``\\n`` line ends quotes it."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv_rows(stream, rows: list[dict]) -> None:
    """The header and rows, quoted as ``csv.writer`` with ``\\n`` line ends quotes them.

    Every line is written cell by cell, so a float array's or a matrix's
    row blocks' text is streamed (``_write_floats``) rather than built whole.
    """
    header = list(rows[0])
    for cells in itertools.chain([header], ([row.get(k) for k in header] for row in rows)):
        for i, v in enumerate(cells):
            if i:
                stream.write(",")
            blocks = _float_blocks(v)
            if blocks is not None:
                _write_floats(stream, blocks)
                continue
            text = _csv_value(v)
            # A lone empty cell is quoted, so its line is not blank.
            stream.write(_csv_quote(text) if text or len(cells) > 1 else '""')
        stream.write("\n")


def _emit(args, echo: str, cfg_hash: str, wall: float, rows: list[dict]) -> None:
    """Write the record: JSON streamed piece by piece, or CSV with header lines."""
    stream = sys.stdout
    close = False
    if getattr(args, "output_file", None):
        stream = open(args.output_file, "w", encoding="utf-8")
        close = True
    try:
        if args.fmt == "json":
            record = {
                "command": echo,
                "config_hash": cfg_hash,
                "wall_time_s": float(f"{wall:.6f}"),
                "rows": rows,
            }
            for chunk in _json_chunks(record):
                stream.write(chunk)
            stream.write("\n")
        else:
            stream.write(f"# command={echo}\n")
            stream.write(f"# config_hash={cfg_hash}\n")
            stream.write(f"# wall_time_s={wall:.6f}\n")
            if rows:
                _write_csv_rows(stream, rows)
    finally:
        if close:
            stream.close()


def _config_hash(args) -> str:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in _HASH_SKIP}
    blob = json.dumps(cfg, sort_keys=True, default=str)
    return _sha256(blob.encode()).hex()


def _builtin_sha256():
    """The interpreter's built-in SHA-256 constructor, or None if it was built without one."""
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            return None
    return sha256


def _sha256(data: bytes) -> bytes:
    """SHA-256 digest of ``data`` from the built-in module, else from ``hashlib``.

    Both give the same digest.  ``hashlib``, the route only for an
    interpreter built without the built-in module, loads OpenSSL's
    libcrypto; ``main`` blocks it only where the built-in module exists.
    """
    sha256 = _builtin_sha256()
    if sha256 is None:
        from hashlib import sha256
    return sha256(data).digest()


# ---- handlers, one per action ----

# Each handler imports the library functions it runs when it runs, so a
# command loads only their modules, and numpy only if one of them needs it.


def _cutset_table(args) -> QnTable:
    """Minimal cutset counts from ``--vertex`` up to ``--nmax`` by the ``--algo`` route."""
    graph = _graph(args)
    if args.algo == "brute":
        from .cutsets import enumerate_minimal_cutsets_bruteforce

        return enumerate_minimal_cutsets_bruteforce(graph, args.vertex, args.nmax)
    from .frontier import count_minimal_cutsets

    return count_minimal_cutsets(graph, args.vertex, args.nmax)


def _run_cutsets_enum(args) -> list[dict]:
    table = _cutset_table(args)
    kappa = table.kappa_estimate
    return [
        {"vertex": args.vertex, "n": n, "count": count, "kappa_estimate": kappa}
        for n, count in sorted(table.counts.get(args.vertex, {}).items())
    ]


def _run_cutsets_karger(args) -> list[dict]:
    import numpy as np

    from .cutsets import karger_count_min_cuts

    graph = _graph(args)
    seed = _require_seed(args)
    rng = np.random.Generator(np.random.PCG64(seed))
    result = karger_count_min_cuts(graph, rng, args.trials)
    return [
        {
            "min_cut_size": result.min_cut_size,
            "distinct_min_cuts": result.distinct_count,
            "trials": result.trials,
        }
    ]


def _run_perc_theta(args) -> list[dict]:
    from .percolation import theta

    graph = _graph(args)
    trials, seed = _route(args)
    result = theta(graph, args.p, args.vertex, trials, seed)
    return [
        {
            "vertex": args.vertex,
            "p": args.p,
            "value": result.value,
            "method": result.method,
            "trials": result.trials,
            "ci_low": result.ci_low,
            "ci_high": result.ci_high,
        }
    ]


def _run_perc_peierls(args) -> list[dict]:
    from .percolation import peierls_bound

    table = _cutset_table(args)
    bound = peierls_bound(table, args.p, args.vertex)
    return [{"vertex": args.vertex, "p": args.p, "nmax": args.nmax, "bound": bound}]


def _run_perc_census(args) -> list[dict]:
    from .percolation import boundary_census_exact, boundary_census_mc, profile_probability

    graph = _graph(args)
    trials, seed = _route(args)
    # Either route maps each cutset, and the infinite cluster, to its value
    # columns: an exact profile priced at p, or a sampled count.
    if seed is None:
        found, infinite = boundary_census_exact(graph, args.vertex)

        def values(profile) -> dict:
            return {"probability": profile_probability(profile, args.p)}
    else:
        found, infinite = boundary_census_mc(graph, args.vertex, args.p, trials, seed)

        def values(count) -> dict:
            return {"count": count, "frequency": count / trials}

    rows = [
        {"kind": "cutset", "edge_ids": list(ids), "n": len(ids), **values(found[ids])}
        for ids in sorted(found, key=lambda t: (len(t), t))
    ]
    rows.append({"kind": "infinite", "edge_ids": None, "n": None, **values(infinite)})
    return rows


def _run_chain_build(args) -> list[dict]:
    from .fkg_chain import build_chain, fkg_lower_bound

    graph = _graph(args)
    region = _int_list(args.set_a)
    targets = _int_list(args.set_b)
    trials, seed = _route(args)
    chain = build_chain(
        graph, region, targets, args.origin, theta=args.theta, p=args.p, trials=trials, seed=seed
    )
    return [
        {
            "vertices": list(chain.vertices),
            "probs": list(chain.probs),
            "theta": chain.theta,
            "k_bound": 2.0 * chain.n_targets / chain.theta,
            "c": fkg_lower_bound(chain.theta, args.p, 1),
        }
    ]


def _cover_row(sub, value: float) -> dict:
    """n, epsilon, delta_n and the sum; the cut is taken after the route passed its state cap."""
    from .cover_lemma import delta_bound, min_cut

    eps = min_cut(sub)
    delta = delta_bound(eps, sub.n) if 0.0 < eps <= 1.0 else None
    return {"n": sub.n, "epsilon": eps, "delta_n": delta, "sum": value}


def _cover_exact_row(args) -> dict:
    """The exact covering sum, refused when it falls below its delta_n certificate."""
    from .cover_lemma import covering_sum_exact, load_matrix_file

    sub = load_matrix_file(Path(args.matrix).read_text())
    row = _cover_row(sub, covering_sum_exact(sub))
    if row["delta_n"] is not None and row["sum"] < row["delta_n"] - 1e-15:
        raise TheoremViolationError(
            f"cover sum {_fmt12(row['sum'])} below the guarantee {_fmt12(row['delta_n'])}"
        )
    return {**row, "method": "exact"}


def _run_cover_exact(args) -> list[dict]:
    return [{**_cover_exact_row(args), "ci_low": None, "ci_high": None}]


def _run_cover_mc(args) -> list[dict]:
    from .cover_lemma import covering_sum_mc, load_matrix_file

    sub = load_matrix_file(Path(args.matrix).read_text())
    seed = _require_seed(args)
    trials = DEFAULT_TRIALS if args.trials is None else args.trials
    est = covering_sum_mc(sub, trials, seed)
    return [
        {
            **_cover_row(sub, est.value),
            "method": "monte_carlo",
            "trials": est.trials,
            "ci_low": est.ci_low,
            "ci_high": est.ci_high,
            "aborted": est.aborted,
        }
    ]


def _run_cover_verify(args) -> list[dict]:
    return [{**_cover_exact_row(args), "ok": True}]


def _run_rw_escape(args) -> list[dict]:
    from .rw_cutsets import escape_constant, escape_probabilities, escape_probability_mc

    graph = _graph(args)
    trials, seed = _route(args)
    if seed is not None:
        if args.vertex is None:
            raise PreconditionError("sampled escape needs --vertex")
        est = escape_probability_mc(graph, args.vertex, trials, seed)
        return [
            {
                "vertex": args.vertex,
                "escape": est.value,
                "method": "monte_carlo",
                "trials": est.trials,
                "ci_low": est.ci_low,
                "ci_high": est.ci_high,
            }
        ]
    if args.vertex is not None and args.vertex in graph.horizon:
        raise PreconditionError("escape is defined for interior vertices")
    probs = escape_probabilities(graph)
    constant = escape_constant(graph, probs)
    rows = []
    for v in sorted(probs):
        if args.vertex is not None and v != args.vertex:
            continue
        rows.append(
            {
                "vertex": v,
                "escape": probs[v],
                "weighted": graph.degree(v) * probs[v],
                "constant": constant,
            }
        )
    return rows


def _run_rw_census(args) -> list[dict]:
    from .graph_core import subdivide
    from .rw_cutsets import qn_census_rw

    graph = _graph(args)
    seed = _require_seed(args)
    sd = subdivide(graph, 2)
    census = qn_census_rw(sd, args.origin, args.trials, seed)
    found = [
        ("outcome", label, None, None, census.outcome_counts[label])
        for label in sorted(census.outcome_counts)
    ]
    found += [
        ("cutset", None, list(cs.edge_ids), cs.size, census.hits[cs])
        for cs in sorted(census.hits, key=lambda c: (c.size, c.edge_ids))
    ]
    return [
        {"kind": kind, "label": label, "edge_ids": ids, "n": n, "count": count,
         "frequency": count / census.trials}
        for kind, label, ids, n, count in found
    ]


def _run_rw_crossing(args) -> list[dict]:
    from .cutsets import verified_cutset
    from .graph_core import subdivide
    from .rw_cutsets import crossing_matrix

    graph = _graph(args)
    cs = verified_cutset(graph, _int_list(args.cutset), args.origin)
    sd = subdivide(graph, 2)
    cm = crossing_matrix(sd, cs)
    return [
        {
            "vertices": list(cm.vertices),
            "eps_base": cm.eps_base,
            "eps1": cm.eps1,
            "eps2": cm.eps2,
            "min_cut": cm.min_cut_value,
            "matrix": cm.p,
        }
    ]


def _run_gff_green(args) -> list[dict]:
    from .gff import green

    gm = green(_graph(args))
    return [{"interior": list(gm.interior), "matrix": gm.row_blocks()}]


def _run_gff_pipeline(args) -> list[dict]:
    from ._util import EventProbability
    from .cutsets import verified_cutset
    from .gff import section8_pipeline

    graph = _graph(args)
    seed = _require_seed(args)
    cs = verified_cutset(graph, _int_list(args.cutset), args.origin)
    report = section8_pipeline(graph, cs, args.trials, seed)
    rows = []
    for label, count in (
        ("clamp", report.f_count),
        ("connect", report.e_count),
        ("clamp_and_connect", report.fe_count),
        ("boundary_match", report.boundary_count),
    ):
        prob = EventProbability.sampled(count, report.trials)
        rows.append(
            {
                "event": label,
                "trials": report.trials,
                "count": count,
                "frequency": prob.value,
                "ci_low": prob.ci_low,
                "ci_high": prob.ci_high,
            }
        )
    return rows


# ---- parser wiring ----

# Each flag's add_argument keywords, declared once; a command row below may
# override them.
_FLAGS: dict[str, dict] = {
    "graph": {"required": True},
    "horizon": {"default": None, "help": "'boundary' or comma ids"},
    "matrix": {"required": True},
    "setA": {"dest": "set_a", "required": True, "help": "region vertex ids"},
    "setB": {"dest": "set_b", "required": True, "help": "target vertex ids"},
    "cutset": {"required": True, "help": "base edge ids"},
    "p": {"type": float, "required": True},
    "theta": {"type": float, "default": None},
    "vertex": {"type": int, "required": True},
    "origin": {"type": int, "required": True},
    "nmax": {"type": int, "required": True},
    "algo": {"choices": ("brute", "frontier"), "default": "frontier"},
    "exact": {"action": "store_true"},
    "trials": {"type": int, "default": None},
    "seed": {"type": int, "default": None},
    "out": {"dest": "fmt", "choices": ("csv", "json")},
    "output-file": {"default": None},
    "config": {"default": None, "help": "JSON file mirroring the flags"},
}

_GRAPH = ("graph", "horizon")
# The flags of a command with an exact and a sampled route (module docstring).
_ROUTES = ("exact", "trials", "seed")
_TRIALS_REQUIRED = ("trials", {"required": True})

# (group, action) -> default --out and the flags in --help order; the
# handler is ``_run_<group>_<action>``.
_COMMANDS: dict[tuple[str, str], tuple[str, tuple]] = {
    ("cutsets", "enum"): ("csv", (*_GRAPH, "vertex", "nmax", "algo")),
    ("cutsets", "karger"): ("json", (*_GRAPH, "trials", "seed")),
    ("perc", "theta"): ("csv", (*_GRAPH, "p", "vertex", *_ROUTES)),
    ("perc", "peierls"): ("csv", (*_GRAPH, "p", "vertex", "nmax", "algo")),
    ("perc", "census"): ("csv", (*_GRAPH, "p", "vertex", *_ROUTES)),
    ("chain", "build"): (
        "json",
        (*_GRAPH, "setA", "setB", "origin", ("p", {"required": False, "default": 0.5}), "theta", *_ROUTES),
    ),
    ("cover", "exact"): ("json", ("matrix",)),
    ("cover", "mc"): ("json", ("matrix", "trials", "seed")),
    ("cover", "verify"): ("json", ("matrix",)),
    ("rw", "escape"): ("csv", (*_GRAPH, ("vertex", {"required": False}), *_ROUTES)),
    ("rw", "census"): ("csv", (*_GRAPH, "origin", _TRIALS_REQUIRED, "seed")),
    ("rw", "crossing"): ("json", (*_GRAPH, "cutset", "origin")),
    ("gff", "green"): ("json", _GRAPH),
    ("gff", "pipeline"): ("csv", (*_GRAPH, "origin", "cutset", _TRIALS_REQUIRED, "seed")),
}


@functools.cache
def build_parser() -> _Parser:
    """The parser of ``_COMMANDS``, built once per process.

    argparse's parsers and help formatters hold reference cycles, so a
    parser built per call would be left to the cyclic collector by every
    in-process ``main`` call.  It names no handler: ``main`` looks up
    ``_run_<group>_<action>`` when the command runs, so a wrapper bound to
    that name after import (as perfbench's tracer does) is the one called.
    """
    top = _Parser(prog="percut", description=__doc__)
    groups = top.add_subparsers(dest="group", required=True, parser_class=_Parser)
    actions: dict[str, argparse._SubParsersAction] = {}
    for (group, action), (fmt, flags) in _COMMANDS.items():
        if group not in actions:
            actions[group] = groups.add_parser(group).add_subparsers(
                dest="action", required=True, parser_class=_Parser
            )
        ap = actions[group].add_parser(action)
        for flag in (*flags, ("out", {"default": fmt}), "output-file", "config"):
            name, override = flag if isinstance(flag, tuple) else (flag, {})
            ap.add_argument("--" + name, **{**_FLAGS[name], **override})
    return top


def _inject_config(argv: list[str]) -> list[str]:
    """Splice config-file entries in as flags at the --config position.

    Flags written after --config therefore override the file; unknown
    keys turn into unrecognized flags and fail as usage errors.
    """
    for i, tok in enumerate(argv):
        if tok == "--config" or tok.startswith("--config="):
            if tok == "--config":
                if i + 1 >= len(argv):
                    raise PreconditionError("--config needs a file path")
                path, skip = argv[i + 1], 2
            else:
                path, skip = tok.split("=", 1)[1], 1
            try:
                data = json.loads(Path(path).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise PreconditionError(f"unreadable config {path!r}: {exc}") from exc
            if not isinstance(data, dict):
                raise PreconditionError("config file must hold a JSON object")
            injected: list[str] = []
            for key, value in data.items():
                flag = "--" + str(key).replace("_", "-")
                if isinstance(value, bool):
                    if value:
                        injected.append(flag)
                elif value is None:
                    continue
                elif isinstance(value, float) and value.is_integer():
                    injected.extend([flag, str(int(value))])
                elif isinstance(value, (list, tuple)):
                    injected.extend([flag, ",".join(str(x) for x in value)])
                else:
                    injected.extend([flag, str(value)])
            return argv[:i] + injected + argv[i + skip :]
    return argv


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code.

    With ``argv`` None the process is the command's own (``percut``,
    ``python -m percut``), and the command line is ``sys.argv``.  If the
    interpreter has a built-in SHA-256, ``_hashlib`` is then blocked before
    the handler imports anything, so ``hashlib``, ``hmac`` and ``secrets``
    bind the built-in digests and ``numpy.random``, which imports
    ``secrets``, never maps OpenSSL's libcrypto (about 3.5 MB of peak
    memory).  No draw changes: seeds are explicit and ``SeedSequence``
    hashes in numpy's own code.  A caller that passes ``argv`` finds
    ``sys.modules`` as it left it.
    """
    raw = list(sys.argv[1:] if argv is None else argv)
    try:
        expanded = _inject_config(raw)
        args = build_parser().parse_args(expanded)
        _check_seed(args)
        if argv is None and _builtin_sha256() is not None:
            sys.modules.setdefault("_hashlib", None)
        echo = " ".join(["percut"] + raw)
        cfg_hash = _config_hash(args)
        start = time.perf_counter()
        rows = globals()[f"_run_{args.group}_{args.action}"](args)
        wall = time.perf_counter() - start
        _emit(args, echo, cfg_hash, wall, rows)
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TheoremViolationError, NumericalError) as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
