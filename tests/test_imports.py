"""What a command or ``import percut`` loads: the lazy namespace and the import guard."""

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import percut

# Every public name of the package, by the module that defines it.
PUBLIC = {
    "errors": (
        "CapExceededError", "GraphStructureError", "NumericalError", "ParseError",
        "PercutError", "PreconditionError", "TheoremViolationError",
    ),
    "graph_core": (
        "FAMILY_BUILDERS", "Graph", "SubdivisionMap", "box3d_graph", "cycle_graph",
        "grid_graph", "load_graph", "path_graph", "star_graph", "subdivide",
    ),
    "cutsets": (
        "Cutset", "CutsetDecomposition", "KargerResult", "QnTable", "decompose",
        "enumerate_minimal_cutsets_bruteforce", "exposed_boundary", "is_minimal_cutset",
        "karger_count_min_cuts", "verified_cutset",
    ),
    "frontier": ("count_minimal_cutsets",),
    "_util": ("EventProbability",),
    "percolation": ("boundary_census_exact", "boundary_census_mc", "peierls_bound", "theta"),
    "fkg_chain": ("ChainedSequence", "ConnectivityOracle", "build_chain", "fkg_lower_bound"),
    "cover_lemma": (
        "SubStochasticMatrix", "covering_sum_exact", "covering_sum_mc", "delta_bound",
        "load_matrix_file", "min_cut",
    ),
    "rw_cutsets": (
        "CrossingMatrix", "RwCensus", "crossing_matrix", "escape_constant",
        "escape_probabilities", "qn_census_rw",
    ),
    "gff": ("GreenMatrix", "green", "section8_pipeline"),
}


# ---- the lazy namespace ----


def test_public_names_are_their_home_objects():
    names = [name for names in PUBLIC.values() for name in names]
    assert len(names) == len(set(names)) == 52
    for module, names in PUBLIC.items():
        home = import_module(f"percut.{module}")
        for name in names:
            assert getattr(percut, name) is getattr(home, name), name


def test_dir_and_star_import_list_the_public_names():
    names = {name for names in PUBLIC.values() for name in names}
    assert names <= set(dir(percut))
    namespace: dict = {}
    exec("from percut import *", namespace)
    assert set(namespace) - {"__builtins__"} == names


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        percut.no_such_name
    assert not hasattr(percut, "count_minimal_cutsetz")


# ---- the import guard ----

# Runs one command line in a fresh interpreter, then prints the loaded modules.
_PROBE = """
import json, sys
from percut.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _loaded(argv: list[str], tmp_path: Path) -> set[str]:
    # The subprocess must import the package under test, not an installed copy.
    src = str(Path(percut.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0, proc.stderr
    return set(report["modules"])


@pytest.mark.parametrize(
    "argv",
    [
        "--help",
        "cutsets enum --graph grid:4,4 --vertex 5 --nmax 8 --output-file o.csv",
        "cutsets enum --graph grid:3,3 --vertex 4 --nmax 6 --algo brute --output-file o.csv",
        "perc peierls --graph grid:4,4 --vertex 5 --p 0.7 --nmax 8 --output-file o.csv",
        "perc theta --graph grid:3,3 --vertex 4 --p 0.5 --output-file o.csv",
        "perc census --graph grid:3,3 --vertex 4 --p 0.5 --out json --output-file o.json",
    ],
)
def test_counting_routes_never_load_numpy(argv, tmp_path):
    loaded = _loaded(argv.split(), tmp_path)
    assert "numpy" not in loaded and "_hashlib" not in loaded
    assert "percut.cli" in loaded


@pytest.mark.parametrize(
    "argv",
    [
        "gff green --graph grid:3,3 --output-file o.json",
        "rw escape --graph grid:4,4 --output-file o.csv",
        "rw crossing --graph path:5 --cutset 1,2 --origin 2 --output-file o.json",
        "cover exact --matrix m.txt --output-file o.json",
        "cover verify --matrix m.txt --output-file o.json",
        "chain build --graph grid:3,4 --horizon 0,11 --setA 1,2,3,4,5,6,7,8,9,10,11"
        " --setB 1,2,3,4,5,6,7,8,9,10,11 --origin 1 --p 0.3 --exact --output-file o.json",
    ],
)
def test_commands_that_do_not_sample_never_load_openssl(argv, tmp_path):
    # The config hash comes from the interpreter's built-in SHA-256 module;
    # only numpy.random's seeding loads libcrypto.
    (tmp_path / "m.txt").write_text("2\n0.25 0.25\n0.25 0.25\n")
    loaded = _loaded(argv.split(), tmp_path)
    assert "numpy" in loaded
    assert "_hashlib" not in loaded and "numpy.random" not in loaded


def test_cover_exact_loads_only_the_cover_lemma(tmp_path):
    (tmp_path / "m.txt").write_text("2\n0.25 0.25\n0.25 0.25\n")
    loaded = _loaded(["cover", "exact", "--matrix", "m.txt", "--output-file", "o.json"], tmp_path)
    assert "percut.cover_lemma" in loaded and "numpy" in loaded
    for module in ("gff", "rw_cutsets", "fkg_chain", "percolation", "graph_core"):
        assert f"percut.{module}" not in loaded, module


@pytest.mark.parametrize(
    "argv",
    [
        "rw escape --graph grid:4,4 --output-file o.csv",
        "gff green --graph grid:3,3 --output-file o.json",
        "rw census --graph grid:4,4 --origin 5 --trials 200 --seed 1 --output-file o.csv",
        "gff pipeline --graph path:5 --origin 2 --cutset 1,2 --trials 500 --seed 1"
        " --output-file o.csv",
    ],
)
def test_walk_and_field_commands_never_load_percolation(argv, tmp_path):
    loaded = _loaded(argv.split(), tmp_path)
    assert "percut.rw_cutsets" in loaded
    assert "percut.percolation" not in loaded


def test_exact_chain_build_loads_only_the_chain_and_graph_modules(tmp_path):
    # The seeded route draws its configurations from _util, as the exact one sweeps them there.
    for route in ("--exact", "--trials 200 --seed 1"):
        argv = (
            "chain build --graph grid:3,4 --horizon 0,11 --setA 1,2,3,4,5,6,7,8,9,10,11"
            f" --setB 1,2,3,4,5,6,7,8,9,10,11 --origin 1 --p 0.3 {route} --output-file o.json"
        )
        loaded = _loaded(argv.split(), tmp_path)
        assert {"percut.fkg_chain", "percut.graph_core", "numpy"} <= loaded, route
        for module in ("percolation", "cutsets"):
            assert f"percut.{module}" not in loaded, (route, module)


# ---- the benchmark's traced pass ----

# One small job per command family, both chain routes among them.
_TRACED_JOBS = [
    "cutsets enum --graph grid:3,3 --vertex 4 --nmax 6 --algo brute",
    "perc census --graph grid:3,3 --vertex 4 --p 0.5 --exact",
    "chain build --graph grid:3,4 --horizon 0,11 --setA 1,2,4,5 --setB 1,2,4,5 --origin 1"
    " --p 0.3 --exact",
    "chain build --graph grid:3,4 --horizon 0,11 --setA 1,2,4,5 --setB 1,2,4,5 --origin 1"
    " --p 0.3 --trials 200 --seed 1",
    "cover exact --matrix m.txt",
    "rw census --graph grid:4,4 --origin 5 --trials 200 --seed 1",
    "gff pipeline --graph path:5 --origin 2 --cutset 1,2 --trials 500 --seed 1",
]


def test_traced_jobs_run_under_the_benchmark_worker(tmp_path, monkeypatch):
    """perfbench's worker runs each job with its tracer installed and its observers reading.

    The tracer wraps the package's modules in place, so the worker runs in
    its own interpreter.
    """
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    src = str(Path(percut.__file__).resolve().parents[1])
    (tmp_path / "m.txt").write_text("2\n0.25 0.25\n0.25 0.25\n")
    jobs = [
        {"id": f"job{i}", "argv": argv.split(), "out": f"out{i}"}
        for i, argv in enumerate(_TRACED_JOBS)
    ]
    (tmp_path / "jobs.json").write_text(json.dumps(jobs))
    proc = subprocess.run(
        [sys.executable, str(perfbench / "worker.py"), "jobs.json", "result.json", "1"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join((src, str(perfbench)))},
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "result.json").read_text())
    assert [job["rc"] for job in record["jobs"]] == [0] * len(jobs)
    monkeypatch.syspath_prepend(str(perfbench))
    assert import_module("layers").check_tree(record["nodes"]) == []
    # gff.factor_s times the factor as the GreenMatrix.__init__ span.
    pipeline = next(job["id"] for job in jobs if job["argv"][:2] == ["gff", "pipeline"])
    assert any(
        node["name"] == "gff.GreenMatrix.__init__" and node["job"] == pipeline
        for node in record["nodes"]
    )
    # The exact chain job's 4 induced edges sweep 16 configurations; the seeded one samples 200.
    assert record["counters"]["fkg_chain.oracle_configs"] == 16 + 200


# ---- the package is what its commands run ----


def _top_level(tree: ast.Module):
    """(name, node) for each top-level function, class and assignment of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                yield from ((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))


def _is_member(node: ast.AST) -> bool:
    return isinstance(node, ast.FunctionDef) and not node.name.startswith("__")


def _members(tree: ast.Module):
    """(Class.member, node) for each method and property of a top-level class without bases.

    A subclass's overrides are called through its base, so only base-less
    classes are looked at.
    """
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.bases:
            yield from ((f"{node.name}.{m.name}", m) for m in node.body if _is_member(m))


def _traced_methods() -> set[str]:
    """The Class.member names perfbench's tracer wraps, read from its ``METHODS`` table."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    for node in ast.parse(tracer.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "METHODS":
            return {name for names in ast.literal_eval(node.value).values() for name in names}
    raise AssertionError("perfbench/tracer.py has no METHODS table")


def _names_in(node: ast.AST):
    """(name, is an attribute) for every name, attribute and imported name in ``node``.

    The members of a class without bases are left out: each is followed
    once it is read as an attribute.
    """
    todo = [node]
    while todo:
        n = todo.pop()
        if isinstance(n, ast.Name):
            yield n.id, False
        elif isinstance(n, ast.Attribute):
            yield n.attr, True
        elif isinstance(n, ast.alias):
            yield n.name, False
        children = ast.iter_child_nodes(n)
        if isinstance(n, ast.ClassDef) and not n.bases:
            children = (c for c in children if not _is_member(c))
        todo.extend(children)


def test_every_definition_is_reached_from_the_command_line():
    """Follow names from ``cli.py``'s definitions through every module, importing nothing.

    A top-level definition counts as reached when its name is, bare or as
    an attribute; a method or property only when it is read as an attribute
    (``obj.name``), so a local variable of the same name cannot keep it.
    The ones perfbench's tracer wraps by name must stay even when no command
    calls them.
    """
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in Path(percut.__file__).parent.glob("*.py")
    }
    definitions: dict[str, list[ast.AST]] = {}
    members: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for name, node in _top_level(tree):
            definitions.setdefault(name, []).append(node)
        for _, node in _members(tree):
            members.setdefault(node.name, []).append(node)
    todo = [(name, False) for name, _ in _top_level(trees["cli"])]
    reached: set[tuple[str, bool]] = set()
    while todo:
        name, attribute = todo.pop()
        if (name, attribute) not in reached:
            reached.add((name, attribute))
            nodes = definitions.get(name, []) + (members.get(name, []) if attribute else [])
            todo.extend(n for node in nodes for n in _names_in(node))
    attributes = {name for name, attribute in reached if attribute}
    reached_names = {name for name, _ in reached}
    unreached = [
        f"{module}.{name}"
        for module, tree in sorted(trees.items())
        for name, node in _top_level(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and name not in reached_names
        and not name.startswith("__")
    ]
    traced = _traced_methods()
    unreached += [
        f"{module}.{dotted}"
        for module, tree in sorted(trees.items())
        for dotted, node in _members(tree)
        if node.name not in attributes and dotted not in traced
    ]
    assert not unreached, f"no command reaches: {', '.join(unreached)}"
