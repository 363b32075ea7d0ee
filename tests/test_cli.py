import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import percut
from percut import _util, cli
from percut.cli import _fmt12 as fmt12, main, resolve_graph
from percut.cover_lemma import covering_sum_exact, load_matrix_file
from percut.errors import CapExceededError, NumericalError, TheoremViolationError
from percut.gff import green

from corpus import CORPUS, broom
from oracles import csv_rows_by_writer, dump_graph, green_matrix, traced_peak


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    meta = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line.strip():
            body.append(line)
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    return meta, rows


QUARTER = "2\n0.25 0.25\n0.25 0.25\n"


# ---- happy paths ----


def test_theta_csv_default(capsys):
    code, out, _ = run_cli(capsys, ["perc", "theta", "--graph", "path:5", "--p", "0.5", "--vertex", "2"])
    assert code == 0
    meta, rows = parse_csv(out)
    assert meta["command"].startswith("percut perc theta")
    assert "config_hash" in meta and "wall_time_s" in meta
    assert len(rows) == 1
    assert rows[0]["value"] == "0.4375"
    assert rows[0]["method"] == "exact"


def test_theta_json(capsys):
    code, out, _ = run_cli(
        capsys,
        ["perc", "theta", "--graph", "path:5", "--p", "0.5", "--vertex", "2", "--out", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"].startswith("percut perc theta")
    assert payload["rows"][0]["value"] == 0.4375
    assert set(payload) == {"command", "config_hash", "wall_time_s", "rows"}


def test_repeat_runs_share_hash_and_rows(capsys):
    argv = ["perc", "theta", "--graph", "path:5", "--p", "0.5", "--vertex", "2", "--out", "json"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    a, b = json.loads(out1), json.loads(out2)
    assert a["config_hash"] == b["config_hash"]
    assert a["rows"] == b["rows"]


def test_threads_flag_is_unrecognised(capsys):
    code, _, err = run_cli(
        capsys,
        ["rw", "census", "--graph", "path:5", "--origin", "2", "--trials", "200", "--seed", "9",
         "--threads", "4"],
    )
    assert code == 1
    assert "unrecognized arguments: --threads 4" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["rw", "census", "--graph", "path:5", "--origin", "2", "--trials", "20", "--seed", "9",
          "--max-steps", "5"], "--max-steps 5"),
        (["cutsets", "enum", "--graph", "path:5", "--vertex", "2", "--nmax", "4",
          "--format", "json"], "--format json"),
    ],
)
def test_removed_flags_are_unrecognised(capsys, argv, flag):
    code, _, err = run_cli(capsys, argv)
    assert code == 1
    assert f"unrecognized arguments: {flag}" in err


def test_karger_cycle4(capsys):
    code, out, _ = run_cli(
        capsys, ["cutsets", "karger", "--graph", "cycle:4", "--seed", "3", "--out", "json"]
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["min_cut_size"] == 2
    assert row["distinct_min_cuts"] == 6


def test_cutsets_enum(capsys):
    code, out, _ = run_cli(
        capsys,
        ["cutsets", "enum", "--graph", "path:5", "--vertex", "2", "--nmax", "4", "--out", "json"],
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    match = [r for r in rows if r["n"] == 2]
    assert match and match[0]["count"] == 4


def test_perc_census_exact(capsys):
    code, out, _ = run_cli(
        capsys,
        ["perc", "census", "--graph", "path:5", "--p", "0.5", "--vertex", "2", "--out", "json"],
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    kinds = [r["kind"] for r in rows]
    assert kinds.count("cutset") == 4
    assert kinds.count("infinite") == 1
    assert sum(r["probability"] for r in rows) == pytest.approx(1.0, abs=1e-9)


def _theta_row(capsys, argv):
    code, out, err = run_cli(capsys, ["perc", "theta", *argv, "--out", "json"])
    assert code == 0, err
    return json.loads(out)["rows"][0]


def test_theta_exact_grid5x5_inside_mc_interval(capsys):
    base = ["--graph", "grid:5,5", "--vertex", "12", "--p", "0.6"]
    exact = _theta_row(capsys, [*base, "--exact"])
    assert exact["method"] == "exact"
    assert exact["value"] == pytest.approx(0.958654, abs=5e-7)
    mc = _theta_row(capsys, [*base, "--trials", "20000", "--seed", "5"])
    assert mc["ci_low"] <= exact["value"] <= mc["ci_high"]


@pytest.mark.parametrize("spec,vertex", [("grid:3,5", "7"), ("grid:4,4", "5"), ("path:70", "3")])
def test_perc_theta_exact_past_twenty_edges(capsys, spec, vertex):
    row = _theta_row(capsys, ["--graph", spec, "--vertex", vertex, "--p", "0.6", "--exact"])
    assert row["method"] == "exact"


def test_theta_exact_set_budget_is_usage_error(capsys):
    # 16 interior vertices overrun the set budget.
    code, _, err = run_cli(
        capsys, ["perc", "theta", "--graph", "grid:6,6", "--vertex", "14", "--p", "0.5", "--exact"]
    )
    assert code == 1
    assert "connected sets" in err


def test_theta_exact_edge_cap_is_usage_error(capsys):
    # Three interior sets hold vertex 3, but 1099 edges are past the edge cap.
    argv = ["--graph", "path:1100", "--horizon", "0,4", "--vertex", "3", "--p", "0.5"]
    code, _, err = run_cli(capsys, ["perc", "theta", *argv])
    assert code == 1
    assert "1000-edge cap" in err


def test_perc_census_mc(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "perc", "census", "--graph", "path:5", "--p", "0.5", "--vertex", "2",
            "--trials", "2000", "--seed", "4", "--out", "json",
        ],
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert sum(r["count"] for r in rows) == 2000


def test_peierls(capsys):
    code, out, _ = run_cli(
        capsys,
        ["perc", "peierls", "--graph", "path:5", "--p", "0.5", "--vertex", "2", "--nmax", "4", "--out", "json"],
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["bound"] == pytest.approx(1.0)


def test_peierls_routes_give_the_same_bound(capsys):
    argv = ["perc", "peierls", "--graph", "grid:3,4", "--horizon", "0,11", "--vertex", "5",
            "--p", "0.7", "--nmax", "17", "--out", "json", "--algo"]
    bounds = []
    for algo in ("frontier", "brute"):
        code, out, _ = run_cli(capsys, [*argv, algo])
        assert code == 0
        bounds.append(json.loads(out)["rows"][0]["bound"])
    assert bounds[0] == bounds[1]


def test_enum_counts_grid7x7_by_default(capsys):
    code, out, _ = run_cli(
        capsys, ["cutsets", "enum", "--graph", "grid:7,7", "--vertex", "24", "--nmax", "12"]
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert [int(r["n"]) for r in rows] == [4, 6, 8, 10, 12]
    assert sum(int(r["count"]) for r in rows) == 737


@pytest.mark.parametrize("argv", [["cutsets", "enum"], ["perc", "peierls", "--p", "0.6"]])
def test_counts_past_the_float_range(capsys, tmp_path, argv):
    # 2^1100 minimal cutsets of size 1100; neither a count nor a term fits a float.
    path = tmp_path / "broom.txt"
    path.write_text(dump_graph(broom(1100)))
    code, out, err = run_cli(
        capsys, [*argv, "--graph", str(path), "--vertex", "0", "--nmax", "2200", "--out", "json"]
    )
    assert code == 0, err
    row = json.loads(out)["rows"][0]
    if argv[0] == "cutsets":
        assert row["count"] == 2**1100
        assert row["kappa_estimate"] == pytest.approx(2.0, rel=1e-9)
    else:
        assert row["bound"] == pytest.approx(0.8**1100, rel=1e-9)


def test_chain_build(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "chain", "build", "--graph", "path:5", "--setA", "1,2,3", "--setB", "1,3",
            "--origin", "2", "--p", "0.9",
        ],
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["vertices"] == [2]
    assert row["theta"] == pytest.approx(0.99)
    assert row["k_bound"] == pytest.approx(4 / 0.99, rel=1e-9)


def test_cover_exact_and_verify(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(QUARTER)
    code, out, _ = run_cli(capsys, ["cover", "exact", "--matrix", str(path)])
    assert code == 0
    assert json.loads(out)["rows"][0]["sum"] == pytest.approx(1 / 9, abs=1e-9)
    code, out, _ = run_cli(capsys, ["cover", "verify", "--matrix", str(path)])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["ok"] is True
    assert row["epsilon"] == pytest.approx(0.25)


@pytest.mark.parametrize("n", [20, 21])
def test_cover_exact_state_cap(capsys, tmp_path, n):
    # Uniform rows of total 0.9: the exact route runs up to the 20-state cap.
    path = tmp_path / "m.txt"
    path.write_text(f"{n}\n" + f"{' '.join([repr(0.9 / n)] * n)}\n" * n)
    code, out, err = run_cli(capsys, ["cover", "exact", "--matrix", str(path)])
    if n == 20:
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["epsilon"] == pytest.approx(0.9 * 19 / 20, abs=1e-14)
        assert row["delta_n"] <= row["sum"] < 1.0
    else:
        assert code == 1
        assert "21 states exceed the exact covering cap 20" in err
        with pytest.raises(CapExceededError):
            covering_sum_exact(load_matrix_file(path.read_text()))


def test_cover_mc(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(QUARTER)
    code, out, _ = run_cli(
        capsys, ["cover", "mc", "--matrix", str(path), "--trials", "5000", "--seed", "8"]
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["ci_low"] <= 1 / 9 <= row["ci_high"]


def test_cover_mc_past_the_cut_cap(capsys, tmp_path):
    # 23 uniform states: one past min_cut's cap, well within the sampler's 62.
    path = tmp_path / "m.txt"
    path.write_text("23\n" + f"{' '.join([repr(0.9 / 23)] * 23)}\n" * 23)
    code, out, _ = run_cli(
        capsys, ["cover", "mc", "--matrix", str(path), "--trials", "1000", "--seed", "1"]
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert (row["n"], row["epsilon"], row["delta_n"], row["trials"]) == (23, None, None, 1000)
    assert 0.0 <= row["ci_low"] <= row["sum"] <= row["ci_high"] <= 1.0
    for action in ("exact", "verify"):
        code, _, err = run_cli(capsys, ["cover", action, "--matrix", str(path)])
        assert code == 1
        assert "23 states exceed the exhaustive cut cap 22" in err


def test_rw_escape_table(capsys):
    code, out, _ = run_cli(capsys, ["rw", "escape", "--graph", "path:5", "--out", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["vertex"] for r in rows] == [1, 2, 3]
    assert rows[1]["escape"] == pytest.approx(0.5)
    assert rows[0]["constant"] == pytest.approx(1.0)


def test_rw_escape_mc(capsys):
    code, out, _ = run_cli(
        capsys,
        ["rw", "escape", "--graph", "path:5", "--vertex", "2", "--trials", "3000", "--seed", "6", "--out", "json"],
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["method"] == "monte_carlo"
    assert row["ci_low"] <= 0.5 <= row["ci_high"]


def test_rw_census(capsys):
    code, out, _ = run_cli(
        capsys,
        ["rw", "census", "--graph", "path:5", "--origin", "2", "--trials", "400", "--seed", "12", "--out", "json"],
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    outcome_total = sum(r["count"] for r in rows if r["kind"] == "outcome")
    assert outcome_total == 400
    assert any(r["kind"] == "cutset" for r in rows)


def test_rw_crossing(capsys):
    code, out, _ = run_cli(
        capsys,
        ["rw", "crossing", "--graph", "path:5", "--cutset", "1,2", "--origin", "2"],
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["vertices"] == [6, 7]
    assert row["eps1"] == pytest.approx(0.4)
    assert row["eps2"] == pytest.approx(0.0025)
    assert row["min_cut"] == pytest.approx(0.25)
    assert row["matrix"] == [[0.25, 0.25], [0.25, 0.25]]


def test_gff_green(capsys):
    code, out, _ = run_cli(capsys, ["gff", "green", "--graph", "path:3"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["interior"] == [1]
    assert row["matrix"] == [[0.5]]


def test_gff_pipeline_from_file(capsys, tmp_path):
    path = tmp_path / "pendant.graph"
    path.write_text(dump_graph(CORPUS["pendant3"]))
    code, out, _ = run_cli(
        capsys,
        ["gff", "pipeline", "--graph", str(path), "--origin", "3", "--cutset", "2",
         "--trials", "2000", "--seed", "19", "--out", "json"],
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["event"] for r in rows] == ["clamp", "connect", "clamp_and_connect", "boundary_match"]
    assert all(r["trials"] == 2000 for r in rows)


def test_horizon_override(capsys):
    code, out, _ = run_cli(
        capsys,
        ["rw", "escape", "--graph", "cycle:6", "--horizon", "0,3", "--out", "json"],
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["vertex"] for r in rows] == [1, 2, 4, 5]


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys,
        ["gff", "green", "--graph", "path:3", "--output-file", str(target)],
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["rows"][0]["matrix"] == [[0.5]]


def test_non_finite_floats_are_text(capsys, tmp_path):
    # One state has no split, so its epsilon is infinite.
    path = tmp_path / "one.txt"
    path.write_text("1\n0.5\n")
    code, out, _ = run_cli(capsys, ["cover", "exact", "--matrix", str(path)])
    assert code == 0
    assert '"epsilon": "inf"' in out
    assert json.loads(out)["rows"][0]["epsilon"] == "inf"
    code, out, _ = run_cli(capsys, ["cover", "exact", "--matrix", str(path), "--out", "csv"])
    assert code == 0
    assert parse_csv(out)[1][0]["epsilon"] == "inf"


def test_green_matrix_round_trips_at_twelve_digits(capsys):
    gm = green(resolve_graph("grid:6,6", None))
    expected = [[float(fmt12(x)) for x in row] for row in green_matrix(gm).tolist()]
    code, out, _ = run_cli(capsys, ["gff", "green", "--graph", "grid:6,6"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["interior"] == list(gm.interior)
    assert row["matrix"] == expected
    code, out, _ = run_cli(capsys, ["gff", "green", "--graph", "grid:6,6", "--out", "csv"])
    assert code == 0
    cell = parse_csv(out)[1][0]["matrix"]
    assert [float(t) for t in cell.split(";")] == [x for r in expected for x in r]


# ---- emission against the whole-record conversion ----


def _reference_json_value(v):
    """Each scalar converted in a nested copy of the record, for ``json.dumps(indent=2)``."""
    if isinstance(v, float):
        return float(fmt12(v)) if math.isfinite(v) else str(v)
    if isinstance(v, (list, tuple)):
        return [_reference_json_value(x) for x in v]
    if isinstance(v, np.ndarray):
        return _reference_json_value(v.tolist())
    if isinstance(v, dict):
        return {k: _reference_json_value(x) for k, x in v.items()}
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return _reference_json_value(float(v))
    return v


def _reference_csv_value(v) -> str:
    """A CSV cell formatted one element at a time."""
    if v is None:
        return ""
    if isinstance(v, float):
        return fmt12(v) if math.isfinite(v) else str(v)
    if isinstance(v, (list, tuple)):
        return ";".join(_reference_csv_value(x) for x in v)
    if isinstance(v, np.ndarray):
        return _reference_csv_value(v.tolist())
    return str(v)


# Floats whose 12-digit text is laid out unlike their repr, or whose digits
# differ from it: integer values, e+12..e+16, signed zeros and subnormals.
AWKWARD = [0.0, -0.0, 3.0, -7.0, 1e12, 1e13, 1e14, 1e15, 1e16, 1.5e12, -2.5e15,
           123456789012345.0, 999999999999.9, 9.9999999999995e15, 0.99999999999996,
           1e-5, 0.1, 1 / 3, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308, 1.7e308]
NON_FINITE = [math.nan, math.inf, -math.inf]


def _random_floats(n: int) -> np.ndarray:
    """Every bit pattern of a double is equally likely: all exponents, some nan."""
    rng = np.random.default_rng(11)
    return rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)


def test_json_chunks_equal_json_dump_of_the_converted_record():
    row = np.array(AWKWARD)
    record = {
        "command": "percut gff green --graph grid:3,3",
        "rows": [
            {
                "row": row,
                # Rows in which every text has a '.', so only the exponent shows.
                "subnormal_row": np.array([5e-324, -1.2345678901234e-312, 0.1]),
                "large_row": np.array([1.5e12, -2.5e15, 0.1]),
                "matrix": np.array([AWKWARD[:3], [0.5, math.nan, 0.25], NON_FINITE]),
                "random": _random_floats(4000).reshape(40, 100),
                "floats": AWKWARD + NON_FINITE,
                "empty_list": [],
                "empty_dict": {},
                "empty_array": np.zeros(0),
                "hollow": np.zeros((2, 0)),
                "ints": np.arange(6).reshape(2, 3),
                "np_int": np.int64(7),
                "np_float": np.float32(0.1),
                "nested": {"inner": [1.0, math.inf, {"deep": 1e15}], "none": None},
                "text": "Grüße ∞ \"q\"",
                "flag": True,
            },
            {},
        ],
    }
    assert "".join(cli._json_chunks(record)) == json.dumps(_reference_json_value(record), indent=2)


def test_csv_cells_equal_per_element_formatting():
    cells = [
        np.array(AWKWARD),
        np.array(AWKWARD + NON_FINITE).reshape(2, 13),
        _random_floats(2000),
        np.zeros(0),
        np.zeros((2, 0)),
        np.arange(5),
        AWKWARD + NON_FINITE,
    ]
    for cell in cells:
        assert cli._csv_value(cell) == _reference_csv_value(cell)


_CSV_TEXT = st.text(st.sampled_from('ab,"\n\r ;\u00e9'), max_size=5)
_CSV_CELLS = st.one_of(
    _CSV_TEXT,
    st.none(),
    st.integers(-(10**20), 10**20),
    st.floats(),
    st.lists(st.integers(0, 9), max_size=3),
    arrays(
        np.float64,
        st.one_of(st.integers(0, 30), st.tuples(st.integers(1, 4), st.integers(1, 9))),
        elements=st.floats(),
    ),
)


def _csv_text(write, rows: list[dict]) -> str:
    out = io.StringIO()
    write(out, rows)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda c: st.tuples(
            st.lists(_CSV_TEXT, min_size=c, max_size=c, unique=True),
            st.lists(st.lists(_CSV_CELLS, min_size=c, max_size=c), min_size=1, max_size=4),
        )
    )
)
def test_csv_rows_equal_the_csv_writer_path(table):
    """Streamed array cells and hand-quoted cells write what csv.writer writes."""
    header, cells = table
    rows = [dict(zip(header, row)) for row in cells]
    # Slices of 4 entries, so arrays span several.
    with patch.object(_util, "_BLOCK_CELLS", 64 * 4):
        assert _csv_text(cli._write_csv_rows, rows) == _csv_text(csv_rows_by_writer, rows)


@pytest.mark.parametrize(
    "rows",
    [
        [{"": ""}],
        [{"a": ""}, {"a": None}],
        [
            {
                "interior": list(range(3)),
                "matrix": _random_floats(40_000).reshape(200, 200),
                "text": 'a,"b"\n',
                "tail": np.array(NON_FINITE),
            }
        ],
    ],
    ids=["one_empty_cell", "empty_cells", "large_matrix"],
)
def test_csv_rows_equal_the_csv_writer_path_on_fixed_rows(rows):
    assert _csv_text(cli._write_csv_rows, rows) == _csv_text(csv_rows_by_writer, rows)


class _MatchingStream:
    """A stream that takes only ``text``, in order, and holds none of it."""

    def __init__(self, text: str):
        self.text, self.pos = text, 0

    def write(self, part: str) -> None:
        assert self.text.startswith(part, self.pos)
        self.pos += len(part)


def test_csv_cell_of_an_f_ordered_block_copies_no_whole_block():
    """An F-ordered 1000 x 1000 block is written a slice at a time, as its C-ordered copy is.

    It traces under 2 MB, where a whole-block copy takes 8 MB, and gives the same text.
    """
    c_block = _random_floats(1_000_000).reshape(1000, 1000)
    out = io.StringIO()
    cli._write_floats(out, (c_block,))
    stream = _MatchingStream(out.getvalue())
    f_block = np.asfortranarray(c_block)
    assert traced_peak(lambda: cli._write_floats(stream, (f_block,))) < 2_000_000
    assert stream.pos == len(stream.text)


def test_csv_green_record_peaks_below_four_matrices(tmp_path):
    """The grid:24,24 Green matrix record is written without building its text whole."""
    argv = ["gff", "green", "--graph", "grid:24,24", "--out", "csv"]
    out = tmp_path / "o.csv"
    assert main([*argv, "--graph", "grid:4,4", "--output-file", str(out)]) == 0  # lazy imports
    matrix_bytes = 22 * 22 * 22 * 22 * 8
    tracemalloc.start()
    try:
        assert main([*argv, "--output-file", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * matrix_bytes


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_green_record_peaks_below_one_matrix(tmp_path, fmt):
    """grid:30,30's Green record is written from checked row blocks: no k x k array is held.

    It traced 1.50 (JSON) and 1.45 (CSV) matrices while G was formed whole
    for the record, 0.79 and 0.78 from a windowed recurrence's row blocks,
    and 0.67 and 0.66 with one band solve per block.
    """
    argv = ["gff", "green", "--out", fmt, "--output-file", str(tmp_path / f"o.{fmt}")]
    assert main([*argv, "--graph", "grid:4,4"]) == 0  # lazy imports
    codes = []
    peak = traced_peak(lambda: codes.append(main([*argv, "--graph", "grid:30,30"])))
    assert codes == [0]
    assert peak < 28**4 * 8


# ---- config files ----


def test_config_file_equivalent(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": "path:5", "p": 0.5, "vertex": 2, "out": "json"}))
    _, inline, _ = run_cli(
        capsys, ["perc", "theta", "--graph", "path:5", "--p", "0.5", "--vertex", "2", "--out", "json"]
    )
    code, from_cfg, _ = run_cli(capsys, ["perc", "theta", "--config", str(cfg)])
    assert code == 0
    a, b = json.loads(inline), json.loads(from_cfg)
    assert a["rows"] == b["rows"]
    assert a["config_hash"] == b["config_hash"]


def test_config_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": "path:5", "p": 0.5, "vertex": 2, "out": "json"}))
    code, out, _ = run_cli(capsys, ["perc", "theta", "--config", str(cfg), "--p", "0.7"])
    assert code == 0
    assert json.loads(out)["rows"][0]["value"] == 0.7399


def test_config_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": "path:5", "p": 0.5, "vertex": 2, "bogus": 1}))
    code, _, err = run_cli(capsys, ["perc", "theta", "--config", str(cfg)])
    assert code == 1


def test_config_max_steps_is_unknown(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": "path:5", "origin": 2, "trials": 20, "seed": 9,
                               "max_steps": 5}))
    code, _, err = run_cli(capsys, ["rw", "census", "--config", str(cfg)])
    assert code == 1
    assert "unrecognized arguments: --max-steps 5" in err


def test_config_missing_file(capsys):
    code, _, _ = run_cli(capsys, ["perc", "theta", "--config", "/nonexistent.json", "--p", "0.5"])
    assert code == 1


# One argv per command, other flags at their defaults, with its config hash;
# the two cutsets enum rows are the records README.md publishes.
_PINNED_HASHES = [
        ("cutsets enum --graph path:5 --vertex 2 --nmax 4 --out csv", "901b0e4309319fa99e9bbc1aa7968b85db81fba1863b2a969528799af1c22657"),
        ("cutsets enum --graph grid:7,7 --vertex 24 --nmax 12", "9be2ba1823ad0ac9aa983ea9e6cd24de6d0a976d4a2d69656bc13aae329d0721"),
        ("cutsets karger --graph cycle:4 --trials 50 --seed 3", "727fa6f0570902e5bd70844f18af7a5ed01cfde3f98342f581c7b35745689aff"),
        ("perc theta --graph grid:4,4 --p 0.6 --vertex 5", "6352209f8d8dd04a07b88f19e3b8bdcf5cf03af3f8b1fce9a47587c6415d6831"),
        ("perc peierls --graph path:5 --p 0.3 --vertex 2 --nmax 4", "5f2627cc83b961afffa713bf4b076c94a59ba2a4748bed92c96aad66f57c2362"),
        ("perc census --graph path:5 --p 0.5 --vertex 2", "9bbd542175bd4ee3d95788f62498f3e407bb78febe5d098027e7d005d1c61179"),
        ("chain build --graph path:5 --setA 1,2 --setB 1,2 --origin 1", "a7adc1b497ccb2af4aa9f9d921abf7ae9faec3404b3a243d1be5f814ae45f224"),
        ("cover exact --matrix m.txt", "be7029b36b2b3aae65694f650847bac0ead270d896b04121a607c9907537a650"),
        ("cover mc --matrix m.txt --trials 5 --seed 2", "ab1abe0c6bb2b0449c35c497ec2ebf1148f67cea5e4736be2e98ed65f7db3af5"),
        ("cover verify --matrix m.txt", "384ae4b12bcadf5a965fb95ad94d07a4c63cf42e839aebc84d0b2f54eb3e43e3"),
        ("rw escape --graph path:5", "bfbff7dfce33b4e73ab0d8c1bd59c9b5bf332303fa4f4172682c3c44eef04563"),
        ("rw census --graph path:5 --origin 2 --trials 10", "fd6830d72dca852320f9e2f63978ce56d4ba88b00104b66ba3ce316587acdf70"),
        ("rw crossing --graph path:5 --cutset 1 --origin 2", "77f4b27d0911e1ffcffb85be415beb2275e028051f2369324c28631cd4e858c1"),
        ("gff green --graph path:5", "97eb21acf365e13d42dae35b80bcebc9cb8e611a96f437ff580ecd058d1e8b08"),
        ("gff pipeline --graph path:5 --origin 2 --cutset 1 --trials 10", "966bce7bceeade7d17a427c4a04884b1ca4ec8980ae9a154cb6a7999f11a9e0c"),
]


@pytest.mark.parametrize("argv, digest", _PINNED_HASHES)
def test_config_hash_is_pinned(argv, digest, monkeypatch):
    # A changed flag default or dest changes the hash of records already written.
    args = cli.build_parser().parse_args(argv.split())
    assert cli._config_hash(args) == digest
    # An interpreter built without the built-in digest module hashes through hashlib, alike.
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    blobs = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda data: blobs.append(data) or sha256(data))
    assert cli._config_hash(args) == digest
    assert len(blobs) == 1


def test_pinned_hashes_cover_every_command():
    assert {tuple(argv.split()[:2]) for argv, _ in _PINNED_HASHES} == set(cli._COMMANDS)


@pytest.mark.parametrize("argv, digest", _PINNED_HASHES)
def test_config_hash_is_the_sha256_of_the_config_blob(argv, digest, monkeypatch):
    blobs = []
    sha256 = cli._sha256
    monkeypatch.setattr(cli, "_sha256", lambda data: blobs.append(data) or sha256(data))
    assert cli._config_hash(cli.build_parser().parse_args(argv.split())) == digest
    assert hashlib.sha256(blobs[0]).hexdigest() == digest


@pytest.mark.parametrize(
    "data, digest",
    [
        # FIPS 180-4's examples: "" and "abc" pad to one block, the 56-byte message to two.
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ],
)
def test_sha256_matches_the_standard_vectors(data, digest):
    assert cli._sha256(data).hex() == digest


@pytest.mark.parametrize("length", [55, 56, 63, 64, 119, 120])
def test_sha256_pads_at_every_block_edge(length):
    # With the 0x80 byte and the 8-byte length, up to 55 bytes pad to one
    # block, 56 to 119 to two and 120 to three.
    data = bytes(range(7, 7 + length))
    assert cli._sha256(data) == hashlib.sha256(data).digest()


# ---- failure modes ----


# Each dual-route command with the first row its exact record starts with.
_DUAL_ROUTE = {
    "perc-theta": (
        ["perc", "theta", "--graph", "grid:5,5", "--vertex", "12", "--p", "0.6"],
        {"value": 0.958654334454, "method": "exact"},
    ),
    "perc-census": (
        ["perc", "census", "--graph", "path:5", "--p", "0.5", "--vertex", "2"],
        {"edge_ids": [0, 2], "probability": 0.125},
    ),
    "chain-build": (
        ["chain", "build", "--graph", "path:5", "--setA", "1,2,3", "--setB", "1,3",
         "--origin", "2", "--p", "0.9"],
        {"vertices": [2], "theta": 0.99},
    ),
    "rw-escape": (
        ["rw", "escape", "--graph", "path:5", "--vertex", "2"],
        {"vertex": 2, "escape": 0.5},
    ),
}


@pytest.mark.parametrize("argv,first", _DUAL_ROUTE.values(), ids=_DUAL_ROUTE)
def test_seed_selects_sampling(capsys, monkeypatch, argv, first):
    monkeypatch.setattr(cli, "DEFAULT_TRIALS", 3000)

    def rows(*flags):
        code, out, err = run_cli(capsys, [*argv, *flags, "--out", "json"])
        assert code == 0, err
        return json.loads(out)["rows"]

    exact = rows()
    assert exact[0].items() >= first.items()
    assert rows("--exact", "--trials", "300", "--seed", "5") == exact
    sampled = rows("--seed", "5")
    assert sampled != exact
    assert sampled == rows("--trials", "3000", "--seed", "5")
    code, _, err = run_cli(capsys, [*argv, "--trials", "300"])
    assert code == 1
    assert "--seed" in err


def test_sampled_escape_needs_vertex(capsys):
    code, _, err = run_cli(capsys, ["rw", "escape", "--graph", "path:5", "--seed", "5"])
    assert code == 1
    assert "--vertex" in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_sampled_escape_refuses_bad_trials(capsys, trials):
    argv = ["rw", "escape", "--graph", "path:5", "--vertex", "2", "--seed", "5", "--trials", trials]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert err.startswith("error:") and "trials must be positive" in err
    assert out == ""


@pytest.mark.parametrize("vertex", ["0", "4"])
def test_theta_checks_p_on_a_horizon_vertex_as_inside(capsys, vertex):
    # Vertex 0 of grid:3,3 is on the horizon, where theta is 1 for every p.
    argv = ["perc", "theta", "--graph", "grid:3,3", "--p", "1.5", "--vertex", vertex]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert err.startswith("error:") and "p=1.5 outside [0, 1]" in err
    assert out == ""


# Every command with a --vertex or --origin flag, on grid:4,4 (16 vertices);
# the id goes last.  Sampled routes are listed beside exact ones because they
# index per-vertex arrays.
_VERTEX_COMMANDS = {
    "cutsets-enum": ["cutsets", "enum", "--graph", "grid:4,4", "--nmax", "3", "--vertex"],
    "perc-theta": ["perc", "theta", "--graph", "grid:4,4", "--p", "0.5", "--vertex"],
    "perc-theta-seed": ["perc", "theta", "--graph", "grid:4,4", "--p", "0.5", "--seed", "1",
                        "--trials", "10", "--vertex"],
    "perc-peierls": ["perc", "peierls", "--graph", "grid:4,4", "--p", "0.5", "--nmax", "3", "--vertex"],
    "perc-census": ["perc", "census", "--graph", "grid:4,4", "--p", "0.5", "--vertex"],
    "perc-census-seed": ["perc", "census", "--graph", "grid:4,4", "--p", "0.5", "--seed", "1",
                         "--trials", "10", "--vertex"],
    "chain-build": ["chain", "build", "--graph", "grid:4,4", "--setA", "5,6", "--setB", "6", "--origin"],
    "rw-escape": ["rw", "escape", "--graph", "grid:4,4", "--vertex"],
    "rw-escape-seed": ["rw", "escape", "--graph", "grid:4,4", "--seed", "3", "--trials", "10", "--vertex"],
    "rw-census": ["rw", "census", "--graph", "grid:4,4", "--seed", "1", "--trials", "10", "--origin"],
    "rw-crossing": ["rw", "crossing", "--graph", "grid:4,4", "--cutset", "0,1", "--origin"],
    "gff-pipeline": ["gff", "pipeline", "--graph", "grid:4,4", "--cutset", "0,1", "--seed", "1",
                     "--trials", "10", "--origin"],
}


@pytest.mark.parametrize("vertex", ["-1", "16"])
@pytest.mark.parametrize("argv", _VERTEX_COMMANDS.values(), ids=_VERTEX_COMMANDS)
def test_vertex_ids_out_of_range_are_usage_errors(capsys, argv, vertex):
    code, out, err = run_cli(capsys, [*argv, vertex])
    assert code == 1
    assert err.startswith("error:") and f" {vertex} is not a vertex id in 0..15" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("vertex", ["9", "-1"])
@pytest.mark.parametrize("flag", ["--setA", "--setB"])
def test_chain_build_set_ids_out_of_range_are_usage_errors(capsys, flag, vertex):
    sets = {"--setA": "1,2", "--setB": "1,2"}
    sets[flag] += f",{vertex}"
    code, out, err = run_cli(
        capsys,
        ["chain", "build", "--graph", "path:5", "--setA", sets["--setA"], "--setB", sets["--setB"],
         "--origin", "1", "--p", "0.5", "--exact"],
    )
    assert code == 1
    assert err.startswith("error:") and f"{flag} {vertex} is not a vertex id in 0..4" in err
    assert "Traceback" not in err
    assert out == ""


def test_exact_escape_refuses_horizon_vertex(capsys):
    code, out, err = run_cli(capsys, ["rw", "escape", "--graph", "path:5", "--vertex", "0"])
    assert code == 1
    assert err.startswith("error:") and "interior" in err
    assert "Traceback" not in err
    assert out == ""


def test_missing_seed_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["cutsets", "karger", "--graph", "cycle:4"])
    assert code == 1
    assert "seed" in err


def test_seed_out_of_range(capsys):
    code, _, _ = run_cli(
        capsys,
        ["cutsets", "karger", "--graph", "cycle:4", "--seed", str(2**64)],
    )
    assert code == 1


def test_unknown_group(capsys):
    assert run_cli(capsys, ["frobnicate"])[0] == 1


def test_unknown_flag(capsys):
    code, _, _ = run_cli(
        capsys, ["perc", "theta", "--graph", "path:5", "--p", "0.5", "--vertex", "2", "--wat", "1"]
    )
    assert code == 1


def test_bad_family(capsys):
    code, _, _ = run_cli(capsys, ["gff", "green", "--graph", "klein:4"])
    assert code == 1


def test_missing_graph_file(capsys):
    code, _, _ = run_cli(capsys, ["gff", "green", "--graph", "/no/such/file.graph"])
    assert code == 1


def test_malformed_graph_file(capsys, tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("v 2\ne 1 1\n")
    code, _, _ = run_cli(capsys, ["gff", "green", "--graph", str(path)])
    assert code == 1


def test_bad_matrix_file(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2\n0 0.3\n0.1 0\n")
    code, _, _ = run_cli(capsys, ["cover", "exact", "--matrix", str(path)])
    assert code == 1


@pytest.mark.parametrize("text", ["1\nnan\n", "2\nnan 0.1\n0.1 0.2\n"], ids=["1x1", "2x2"])
@pytest.mark.parametrize(
    "command",
    [["exact"], ["verify"], ["mc", "--trials", "100", "--seed", "1"]],
    ids=["exact", "verify", "mc"],
)
def test_non_finite_matrix_file_is_an_input_error(capsys, tmp_path, text, command):
    path = tmp_path / "m.txt"
    path.write_text(text)
    code, _, err = run_cli(capsys, ["cover", *command, "--matrix", str(path)])
    assert code == 1
    assert "matrix entries must be finite" in err


def test_nonminimal_cutset_rejected(capsys):
    code, _, _ = run_cli(
        capsys,
        ["rw", "crossing", "--graph", "path:5", "--cutset", "0,1,2,3", "--origin", "2"],
    )
    assert code == 1


def test_theorem_violation_exits_two(capsys, monkeypatch, tmp_path):
    import percut.cover_lemma

    path = tmp_path / "m.txt"
    path.write_text(QUARTER)
    # The handler imports the function when it runs, so patch its home module.
    monkeypatch.setattr(
        percut.cover_lemma,
        "covering_sum_exact",
        lambda sub, **kw: (_ for _ in ()).throw(TheoremViolationError("forced")),
    )
    code, _, err = run_cli(capsys, ["cover", "exact", "--matrix", str(path)])
    assert code == 2
    assert "invariant" in err


@pytest.mark.parametrize("action", ["exact", "verify"])
def test_cover_sum_below_the_certificate_exits_two(capsys, monkeypatch, tmp_path, action):
    import percut.cover_lemma

    path = tmp_path / "m.txt"
    path.write_text(QUARTER)
    monkeypatch.setattr(percut.cover_lemma, "covering_sum_exact", lambda sub: 0.0)
    code, out, err = run_cli(capsys, ["cover", action, "--matrix", str(path)])
    assert code == 2
    assert out == ""
    assert "below the guarantee" in err


def test_numerical_error_exits_two(capsys, monkeypatch):
    import percut.gff

    monkeypatch.setattr(
        percut.gff,
        "green",
        lambda graph: (_ for _ in ()).throw(NumericalError("forced")),
    )
    code, _, _ = run_cli(capsys, ["gff", "green", "--graph", "path:3"])
    assert code == 2


def test_green_block_refused_while_the_record_is_written_exits_two(capsys, monkeypatch):
    """Rows go out as they pass their checks: a refused block stops the record with exit 2."""
    import percut.gff

    good = green_matrix(green(resolve_graph("grid:6,6", None)))
    monkeypatch.setattr(percut.gff, "_green_rows", lambda f, interior: iter([good[:8], good[8:] * np.nan]))
    code, out, err = run_cli(capsys, ["gff", "green", "--graph", "grid:6,6"])
    assert code == 2
    assert "absorption identity off" in err
    assert out.count("\n" + " " * 10) == 8 * 16  # the first block's entries, one a line


# ---- installed entry point ----


def _run_module(module):
    # The subprocess must import the package under test, not an installed copy.
    src = str(Path(percut.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", module, "perc", "theta", "--graph", "path:5",
         "--p", "0.5", "--vertex", "2", "--out", "json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )


@pytest.mark.parametrize(
    "argv, floor",
    [
        (["rw", "escape", "--graph", "grid:30,30"], 10_000),
        (["gff", "green", "--graph", "grid:30,30", "--out", "csv"], 10_000),
        (["gff", "pipeline", "--graph", "grid:6,6", "--origin", "20", "--cutset", "27,35,37,38",
          "--trials", "10000", "--seed", "7"], 200),
    ],
    ids=["rw-escape", "gff-green", "gff-pipeline"],
)
def test_records_do_not_depend_on_the_blas_thread_count(argv, floor):
    """The band routes and the field draw call no BLAS, so 1 and 2 threads write the same record body."""
    src = str(Path(percut.__file__).resolve().parents[1])
    bodies = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "percut", *argv],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                 "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        bodies.append([line for line in proc.stdout.split(b"\n") if not line.startswith(b"#")])
    assert sum(map(len, bodies[0])) > floor
    assert bodies[0] == bodies[1]


def test_console_script_runs():
    proc = _run_module("percut.cli")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"][0]["value"] == 0.4375


def test_package_runs_as_module():
    proc = _run_module("percut")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"][0]["value"] == 0.4375
