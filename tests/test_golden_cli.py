"""The CLI's trace and compare output on the committed fixtures, byte for byte.

``tests/golden/`` holds, for each fixture under ``fixtures/``, the standard
output of ``rstknn query --trace --out`` in every mode with the JSON-lines
trace it writes, and the standard output of ``rstknn compare``, each run with
the fixture's recorded query, k, alpha and fanout.  A change that alters any
decision, label or column of the snapshot trace shows up here.  To re-record
after an intended change, write each case's output to the file it is
compared with.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from rstknn.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
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
    code, out = run_cli(["query", *_fixture_args(name), "--mode", mode,
                            "--trace", "--out", str(out_path)])
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.{mode}.stdout").read_bytes()
    if mode == "oracle":  # brute force records no trace and writes no file
        assert not out_path.exists()
    else:
        assert out_path.read_bytes() == (GOLDEN / f"{name}.{mode}.jsonl").read_bytes()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_compare_matches_golden(name):
    code, out = run_cli(["compare", *_fixture_args(name)])
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.compare.stdout").read_bytes()
