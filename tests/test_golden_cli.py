"""The CLI's trace and compare output on the committed fixtures, byte for byte.

``tests/golden/`` holds, for each fixture under ``fixtures/``, the standard
output of ``rstknn query --trace --out`` in every mode with the JSON-lines
trace it writes, and the standard output of ``rstknn compare``, each run with
the fixture's recorded query, k, alpha and fanout, and the standard output
of ``scripts/demo_traces.py`` on the hand-laid-out two-cluster tree, and
the digests ``scripts/trace_digest.py`` prints over seeded sweeps of random
instances in all three modes, on the integer grid, off it (``--offgrid``)
and at extreme magnitudes (``--extreme``), and over the set-up of the grid
and off-grid instances read back from their dataset files (``--setup``:
objects, tree records and normalization statistics);
``trace_digest_300.stdout``, ``trace_digest_offgrid_300.stdout``,
``trace_digest_extreme_300.stdout`` and ``setup_digest_300.stdout``, the
digests over 300 instances, are diffed by CI alone.  A change that alters
any decision, label or column of the snapshot trace, or any bit of a
set-up, shows up here.  To re-record after an intended change, write each
case's output to the file it is compared with.
"""

from __future__ import annotations

import io
import json
import runpy
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from rstknn import nn_lists
from rstknn.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
FIXTURE_NAMES = ("faulty2011", "faulty2014")
QUERY_MODES = ("correct", "faulty2011", "faulty2014", "oracle")


def run_cli(args: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(args)
    return code, out.getvalue()


def _fixture_args(name: str) -> list[str]:
    meta = json.loads((FIXTURES / f"{name}.meta.json").read_text())
    return [
        str(FIXTURES / f"{name}.dataset.jsonl"),
        "--qx", str(meta["query"]["x"]),
        "--qy", str(meta["query"]["y"]),
        "--qterms", ",".join(f"{t}={w}" for t, w in sorted(meta["query"]["terms"].items())),
        "--k", str(meta["k"]),
        "--alpha", str(meta["alpha"]),
        "--fanout", str(meta["fanout"]),
    ]


@pytest.mark.parametrize("mode", QUERY_MODES)
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_query_trace_matches_golden(tmp_path, name, mode):
    out_path = tmp_path / "trace.jsonl"
    # brute force records no trace: it takes neither --trace nor --out
    trace_args = [] if mode == "oracle" else ["--trace", "--out", str(out_path)]
    code, out = run_cli(["query", *_fixture_args(name), "--mode", mode, *trace_args])
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.{mode}.stdout").read_bytes()
    if mode != "oracle":
        assert out_path.read_bytes() == (GOLDEN / f"{name}.{mode}.jsonl").read_bytes()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_compare_matches_golden(name):
    code, out = run_cli(["compare", *_fixture_args(name)])
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.compare.stdout").read_bytes()


def test_demo_traces_match_golden():
    script = runpy.run_path(str(ROOT / "scripts" / "demo_traces.py"))
    out = io.StringIO()
    with redirect_stdout(out):
        script["main"]()
    assert out.getvalue().encode() == (GOLDEN / "demo_traces.stdout").read_bytes()


def test_trace_digest_matches_golden():
    script = runpy.run_path(str(ROOT / "scripts" / "trace_digest.py"))
    out = io.StringIO()
    with redirect_stdout(out):
        code = script["main"](["--instances", "60"])
    assert code == 0
    assert out.getvalue().encode() == (GOLDEN / "trace_digest.stdout").read_bytes()


def test_offgrid_trace_digest_matches_golden():
    script = runpy.run_path(str(ROOT / "scripts" / "trace_digest.py"))
    out = io.StringIO()
    with redirect_stdout(out):
        code = script["main"](["--offgrid", "--instances", "40"])
    assert code == 0
    assert out.getvalue().encode() == (GOLDEN / "trace_digest_offgrid.stdout").read_bytes()


def test_extreme_trace_digest_matches_golden():
    script = runpy.run_path(str(ROOT / "scripts" / "trace_digest.py"))
    out = io.StringIO()
    with redirect_stdout(out):
        code = script["main"](["--extreme", "--instances", "40"])
    assert code == 0
    assert out.getvalue().encode() == (GOLDEN / "trace_digest_extreme.stdout").read_bytes()


def test_setup_digest_matches_golden():
    script = runpy.run_path(str(ROOT / "scripts" / "trace_digest.py"))
    out = io.StringIO()
    with redirect_stdout(out):
        code = script["main"](["--setup", "--instances", "40"])
    assert code == 0
    assert out.getvalue().encode() == (GOLDEN / "setup_digest.stdout").read_bytes()


@pytest.mark.parametrize("tile_rows", [2, 3])
@pytest.mark.parametrize("args,golden", [
    (["--instances", "60"], "trace_digest.stdout"),
    (["--offgrid", "--instances", "40"], "trace_digest_offgrid.stdout"),
    (["--extreme", "--instances", "40"], "trace_digest_extreme.stdout"),
])
def test_trace_digests_do_not_depend_on_the_tile_height(monkeypatch, tile_rows, args, golden):
    # tiles of two and three rows split the owners of every kind, nodes and
    # objects alike, and no decision changes
    monkeypatch.setattr(nn_lists, "_tile_rows", lambda entries: tile_rows)
    script = runpy.run_path(str(ROOT / "scripts" / "trace_digest.py"))
    out = io.StringIO()
    with redirect_stdout(out):
        assert script["main"](args) == 0
    assert out.getvalue().encode() == (GOLDEN / golden).read_bytes()
