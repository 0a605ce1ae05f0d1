import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from rstknn.cli import EXIT_MISMATCH, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main
from rstknn.core import STObject, TermVector
from rstknn.datasets import (
    ParseError,
    parse_query_terms,
    random_dataset,
    read_dataset,
    read_query,
    serialize_dataset,
    write_dataset,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def _write_collinear(path: Path) -> Path:
    objs = [
        STObject("a", (0.0, 0.0), TermVector()),
        STObject("b", (1.0, 0.0), TermVector()),
        STObject("c", (10.0, 0.0), TermVector()),
    ]
    dataset = path / "collinear.jsonl"
    write_dataset(dataset, objs)
    return dataset


# -- datasets ----------------------------------------------------------------


def test_roundtrip_byte_identical(tmp_path):
    objs = random_dataset(random.Random(7), 20, 6)
    path = tmp_path / "data.jsonl"
    write_dataset(path, objs)
    original = path.read_bytes()
    parsed = read_dataset(path)
    assert serialize_dataset(parsed).encode() == original


def test_read_dataset_error_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "x": 0, "y": 0, "terms": {}}\nnot json\n')
    with pytest.raises(ParseError) as exc:
        read_dataset(path)
    assert exc.value.line_no == 2


def test_read_dataset_rejects_duplicates_and_bad_fields(tmp_path):
    path = tmp_path / "dup.jsonl"
    path.write_text(
        '{"id": "a", "x": 0, "y": 0, "terms": {}}\n{"id": "a", "x": 1, "y": 1, "terms": {}}\n'
    )
    with pytest.raises(ParseError) as exc:
        read_dataset(path)
    assert exc.value.line_no == 2
    path.write_text('{"id": "a", "x": "zero", "y": 0, "terms": {}}\n')
    with pytest.raises(ParseError):
        read_dataset(path)
    path.write_text('{"id": "a", "x": 0, "y": 0, "terms": {"t": -1}}\n')
    with pytest.raises(ParseError):
        read_dataset(path)


@pytest.mark.parametrize("line", [
    '{"id": "b", "x": NaN, "y": 0, "terms": {}}',
    '{"id": "b", "x": 0, "y": -Infinity, "terms": {}}',
    '{"id": "b", "x": 0, "y": 1e400, "terms": {}}',
    '{"id": "b", "x": 0, "y": 0, "terms": {"t": NaN}}',
    '{"id": "b", "x": 0, "y": 0, "terms": {"t": Infinity}}',
])
def test_read_dataset_rejects_non_finite_values(tmp_path, line):
    path = tmp_path / "nonfinite.jsonl"
    path.write_text('{"id": "a", "x": 0, "y": 0, "terms": {}}\n' + line + "\n")
    with pytest.raises(ParseError) as exc:
        read_dataset(path)
    assert exc.value.line_no == 2
    code, out, err = run_cli(["compare", str(path), "--qx", "0", "--qy", "0"])
    assert code == EXIT_PARSE and not out
    assert "nonfinite.jsonl:2" in err


def test_read_dataset_rejects_squared_norm_overflow(tmp_path):
    path = tmp_path / "huge.jsonl"
    path.write_text('{"id": "a", "x": 0, "y": 0, "terms": {}}\n'
                    '{"id": "b", "x": 0, "y": 0, "terms": {"t": 1e200}}\n')
    with pytest.raises(ParseError) as exc:
        read_dataset(path)
    assert exc.value.line_no == 2 and "squared norm" in exc.value.message
    code, out, err = run_cli(["compare", str(path), "--qx", "0", "--qy", "0"])
    assert code == EXIT_PARSE and not out
    assert "huge.jsonl:2" in err


def test_read_query_rejects_squared_norm_overflow(tmp_path):
    path = tmp_path / "q.json"
    path.write_text('{"x": 0, "y": 0, "terms": {"t": 1e200}}')
    with pytest.raises(ParseError) as exc:
        read_query(path)
    assert exc.value.line_no == 1
    dataset = _write_collinear(tmp_path)
    code, out, err = run_cli(["query", str(dataset), "--query-file", str(path)])
    assert code == EXIT_PARSE and not out
    assert "q.json:1" in err


def test_query_rejects_squared_norm_overflow_in_qterms(tmp_path):
    dataset = _write_collinear(tmp_path)
    code, out, err = run_cli(["query", str(dataset), "--qx", "0", "--qy", "0",
                              "--qterms", "t=1e200"])
    assert code == EXIT_USAGE and not out
    assert "squared norm" in err


def test_read_query_rejects_non_finite_values(tmp_path):
    path = tmp_path / "q.json"
    for text in ('{"x": NaN, "y": 0}', '{"x": 0, "y": 0, "terms": {"t": Infinity}}'):
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            read_query(path)
        assert exc.value.line_no == 1
    dataset = _write_collinear(tmp_path)
    code, _, err = run_cli(["query", str(dataset), "--query-file", str(path)])
    assert code == EXIT_PARSE
    assert "q.json:1" in err


def test_read_query(tmp_path):
    path = tmp_path / "q.json"
    path.write_text('{"x": 1.5, "y": 2.0, "terms": {"t1": 2}}')
    q = read_query(path)
    assert q.loc == (1.5, 2.0)
    assert q.vct.weight("t1") == 2.0


def test_parse_query_terms():
    v = parse_query_terms("t1=2,t2=5")
    assert v.as_dict() == {"t1": 2.0, "t2": 5.0}
    assert parse_query_terms("").is_empty
    with pytest.raises(ValueError):
        parse_query_terms("t1")
    with pytest.raises(ValueError):
        parse_query_terms("t1=abc")


# -- gen ----------------------------------------------------------------------


def test_gen_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    code1, _, _ = run_cli(["gen", "--seed", "7", "--n", "6", "--out", str(p1)])
    code2, _, _ = run_cli(["gen", "--seed", "7", "--n", "6", "--out", str(p2)])
    assert code1 == code2 == EXIT_OK
    assert p1.read_bytes() == p2.read_bytes()
    assert len(p1.read_text().splitlines()) == 6


def test_gen_seed_changes_content(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_cli(["gen", "--seed", "1", "--n", "6", "--out", str(p1)])
    run_cli(["gen", "--seed", "2", "--n", "6", "--out", str(p2)])
    assert p1.read_bytes() != p2.read_bytes()
    assert len(read_dataset(p2)) == 6  # same schema either way


def test_gen_rejects_zero_n(tmp_path):
    code, _, err = run_cli(["gen", "--seed", "1", "--n", "0", "--out", str(tmp_path / "x")])
    assert code == EXIT_USAGE
    assert "--n" in err


# -- query ----------------------------------------------------------------------


def test_query_collinear(tmp_path):
    dataset = _write_collinear(tmp_path)
    code, out, _ = run_cli(
        ["query", str(dataset), "--qx", "0.4", "--qy", "0", "--k", "1", "--alpha", "1"]
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "a b"


def test_query_oracle_mode_matches(tmp_path):
    dataset = _write_collinear(tmp_path)
    args = [str(dataset), "--qx", "0.4", "--qy", "0", "--k", "1", "--alpha", "1"]
    _, correct_out, _ = run_cli(["query"] + args + ["--mode", "correct"])
    _, oracle_out, _ = run_cli(["query"] + args + ["--mode", "oracle"])
    assert correct_out.splitlines()[0] == oracle_out.splitlines()[0]


def test_query_rejects_bad_params(tmp_path):
    dataset = _write_collinear(tmp_path)
    code, _, _ = run_cli(["query", str(dataset), "--qx", "0", "--qy", "0", "--k", "0"])
    assert code == EXIT_USAGE
    code, _, _ = run_cli(
        ["query", str(dataset), "--qx", "0", "--qy", "0", "--alpha", "1.5"]
    )
    assert code == EXIT_USAGE
    code, _, _ = run_cli(["query", str(dataset), "--k", "1"])  # no query point
    assert code == EXIT_USAGE
    code, _, _ = run_cli(["query", str(dataset), "--qx", "0", "--qy", "0", "--mode", "bogus"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("extra", [
    ["--qx", "nan", "--qy", "0"],
    ["--qx", "0", "--qy", "inf"],
    ["--qx", "0", "--qy", "0", "--qterms", "t=nan"],
    ["--qx", "0", "--qy", "0", "--qterms", "t=inf"],
])
def test_query_rejects_non_finite_arguments(tmp_path, extra):
    dataset = _write_collinear(tmp_path)
    code, out, err = run_cli(["query", str(dataset)] + extra)
    assert code == EXIT_USAGE and not out
    assert "non-finite" in err


def test_query_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("oops\n")
    code, _, err = run_cli(["query", str(bad), "--qx", "0", "--qy", "0"])
    assert code == EXIT_PARSE
    assert "bad.jsonl:1" in err


def test_query_trace_output(tmp_path):
    dataset = _write_collinear(tmp_path)
    trace_path = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(
        [
            "query", str(dataset), "--qx", "0.4", "--qy", "0", "--k", "1",
            "--alpha", "1", "--trace", "--out", str(trace_path),
        ]
    )
    assert code == EXIT_OK
    assert "Steps" in out and "Actions" in out and "PEL" in out
    rows = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert rows and rows[0]["step"] == 1
    assert set(rows[0]) == {"step", "action", "U", "COL", "ROL", "PEL"}


def test_query_with_query_file(tmp_path):
    dataset = _write_collinear(tmp_path)
    qfile = tmp_path / "q.json"
    qfile.write_text('{"x": 0.4, "y": 0.0, "terms": {}}')
    code, out, _ = run_cli(
        ["query", str(dataset), "--query-file", str(qfile), "--k", "1", "--alpha", "1"]
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "a b"


# -- compare ----------------------------------------------------------------------


def _meta_args(meta: dict, dataset: Path) -> list[str]:
    return [
        "compare",
        str(dataset),
        "--qx", str(meta["query"]["x"]),
        "--qy", str(meta["query"]["y"]),
        "--qterms", ",".join(f"{t}={w}" for t, w in sorted(meta["query"]["terms"].items())),
        "--k", str(meta["k"]),
        "--alpha", str(meta["alpha"]),
        "--fanout", str(meta["fanout"]),
    ]


@pytest.mark.parametrize("name", ["faulty2011", "faulty2014"])
def test_compare_on_committed_fixture(name):
    meta = json.loads((FIXTURES / f"{name}.meta.json").read_text())
    dataset = FIXTURES / f"{name}.dataset.jsonl"
    code, out, _ = run_cli(_meta_args(meta, dataset))
    assert code == EXIT_OK  # the correct mode always agrees with brute force
    lines = out.splitlines()
    assert lines[0] == f"oracle: {' '.join(meta['oracle_result'])}"
    assert "correct: match" in lines
    faulty_line = next(l for l in lines if l.startswith(f"{name}:"))
    assert "extra=" in faulty_line or "missing=" in faulty_line


def test_compare_random_dataset_all_modes_may_match(tmp_path):
    dataset = _write_collinear(tmp_path)
    code, out, _ = run_cli(
        ["compare", str(dataset), "--qx", "0.4", "--qy", "0", "--k", "1", "--alpha", "1"]
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "oracle: a b"


def test_compare_exit_one_when_correct_diverges(tmp_path, monkeypatch):
    # forced negative control: make the correct mode lie
    import rstknn.cli as cli_mod

    def broken(tree, query, params, mode, stats=None):
        return set(), []

    monkeypatch.setattr(cli_mod, "rstknn_query", broken)
    dataset = _write_collinear(tmp_path)
    code, out, _ = run_cli(
        ["compare", str(dataset), "--qx", "0.4", "--qy", "0", "--k", "1", "--alpha", "1"]
    )
    assert code == EXIT_MISMATCH


def test_cli_determinism_across_processes(tmp_path):
    dataset = tmp_path / "d.jsonl"
    subprocess.run(
        [sys.executable, "-m", "rstknn.cli", "gen", "--seed", "11", "--n", "24",
         "--out", str(dataset)],
        check=True, capture_output=True,
    )
    outs = []
    for run in range(2):
        trace = tmp_path / f"trace{run}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "rstknn.cli", "query", str(dataset),
             "--qx", "40", "--qy", "40", "--qterms", "t1=2", "--k", "2",
             "--alpha", "0.4", "--trace", "--out", str(trace)],
            check=True, capture_output=True,
        )
        outs.append((proc.stdout, trace.read_bytes()))
    assert outs[0] == outs[1]
