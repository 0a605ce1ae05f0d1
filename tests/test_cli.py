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
from rstknn.iur_tree import build_tree

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


_GOOD = '{"id": "a", "x": 0, "y": 0, "terms": {"t": 1}}\n'


def _line(x: str = "0", y: str = "0", terms: str = "{}", oid: str = '"b"') -> str:
    return f'{{"id": {oid}, "x": {x}, "y": {y}, "terms": {terms}}}\n'


def _case(name: str, text: str, line_no: int, fragment: str):
    return pytest.param(text, line_no, fragment, id=name)


@pytest.mark.parametrize("text,line_no,fragment", [
    _case("non-object line", _GOOD + "[1, 2]\n", 2, "must be a JSON object"),
    _case("missing id", _GOOD + '{"x": 0, "y": 0, "terms": {}}\n', 2, "'id' must be a string"),
    _case("non-string id", _GOOD + _line(oid="7"), 2, "'id' must be a string"),
    _case("duplicate id", _GOOD + _line(oid='"a"'), 2, "duplicate object id 'a'"),
    _case("bool x", _GOOD + _line(x="true"), 2, "'x' must be a number"),
    _case("string y", _GOOD + _line(y='"0"'), 2, "'y' must be a number"),
    _case("NaN x", _GOOD + _line(x="NaN"), 2, "non-finite coordinate"),
    _case("Infinity y", _GOOD + _line(y="Infinity"), 2, "non-finite coordinate"),
    _case("-Infinity x", _GOOD + _line(x="-Infinity"), 2, "non-finite coordinate"),
    _case("1e400 y", _GOOD + _line(y="1e400"), 2, "non-finite coordinate"),
    _case("400-digit x", _GOOD + _line(x="1" + "0" * 400), 2,
          "'x' is an integer beyond float range"),
    _case("non-object terms", _GOOD + _line(terms="[1]"), 2, "'terms' must be an object"),
    _case("bool weight", _GOOD + _line(terms='{"t": true}'), 2, "bad term entry 't'"),
    _case("string weight", _GOOD + _line(terms='{"t": "1"}'), 2, "bad term entry 't'"),
    _case("negative weight", _GOOD + _line(terms='{"t": -1}'), 2,
          "negative weight for term 't'"),
    _case("NaN weight", _GOOD + _line(terms='{"t": NaN}'), 2,
          "non-finite weight for term 't'"),
    _case("Infinity weight", _GOOD + _line(terms='{"t": Infinity}'), 2,
          "non-finite weight for term 't'"),
    _case("400-digit weight", _GOOD + _line(terms='{"t": 1' + "0" * 400 + "}"), 2,
          "non-finite weight for term 't'"),
    _case("squared norm overflow", _GOOD + _line(terms='{"t": 1e200}'), 2,
          "squared norm out of float range"),
    _case("squared norm underflow", _GOOD + _line(terms='{"t": 1e-170}'), 2,
          "squared norm out of float range"),
    # the whole dataset's checks: the union vector of all objects, which every
    # node's union vector lies under, and the bounding box's diagonal
    _case("union overflow", _line(terms='{"a": 1e154}', oid='"a"') + _line(terms='{"b": 1e154}'),
          0, "union of the objects' term vectors: squared norm out of float range"),
    _case("spread overflow", _line(x="1e308", oid='"a"') + _line(x="-1e308"), 0,
          "diagonal beyond float range"),
    _case("empty file", "", 0, "dataset is empty"),
    _case("only blank lines", "\n  \n\t\n", 0, "dataset is empty"),
    # blank lines are skipped, and counted
    _case("after blank lines", _GOOD + "\n   \n" + _line(x="true"), 4, "'x' must be a number"),
    _case("after a blank line", _GOOD + "\n" + _line(terms='{"t": -2}'), 3, "negative weight"),
])
def test_read_dataset_rejection_table(tmp_path, text, line_no, fragment):
    path = tmp_path / "bad.jsonl"
    path.write_text(text)
    with pytest.raises(ParseError) as exc:
        read_dataset(path)
    assert exc.value.line_no == line_no
    assert fragment in exc.value.message


def test_read_dataset_decodes_each_line_alone(tmp_path):
    # two objects on one line are one invalid line, even where the lines
    # joined into one JSON array would parse
    path = tmp_path / "joined.jsonl"
    path.write_text(_GOOD.strip() + ", " + _line().strip() + "\n" + _line(oid='"c"'))
    with pytest.raises(ParseError) as exc:
        read_dataset(path)
    assert exc.value.line_no == 1 and "invalid JSON" in exc.value.message


def test_a_union_beyond_float_range_is_a_parse_error(tmp_path):
    # each vector's squared norm is 1e308, their union's overflows: every
    # tree over these objects has it as its root's union vector
    path = tmp_path / "union.jsonl"
    path.write_text(_line(terms='{"a": 1e154}', oid='"a"') + _line(x="1", terms='{"b": 1e154}'))
    code, out, err = run_cli(["compare", str(path), "--qx", "0", "--qy", "0", "--k", "1",
                              "--fanout", "2"])
    assert code == EXIT_PARSE and not out
    assert "union.jsonl:0" in err and "squared norm" in err
    objs = [STObject("a", (0.0, 0.0), TermVector({"a": 1e154})),
            STObject("b", (1.0, 0.0), TermVector({"b": 1e154}))]
    with pytest.raises(ValueError, match="squared norm"):  # the library's own error
        build_tree(objs, 2)


def test_an_intersection_below_float_range_is_answered(tmp_path):
    # the leaf of a and b keeps "t" at 1e-160 in both: a squared norm of
    # 1e-320, below the normal range, stored as the empty intersection
    path = tmp_path / "tiny.jsonl"
    path.write_text(_line(terms='{"t": 1e-160, "u": 1}', oid='"a"')
                    + _line(x="1", terms='{"t": 1e-160, "v": 1}'))
    code, out, _ = run_cli(["compare", str(path), "--qx", "0", "--qy", "0", "--qterms", "t=1",
                            "--k", "1", "--alpha", "0.5", "--fanout", "2"])
    assert code == EXIT_OK
    assert out.splitlines()[1] == "correct: match"


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


@pytest.mark.parametrize("flags", [["--trace"], ["--out", "trace.jsonl"],
                                   ["--trace", "--out", "trace.jsonl"]])
def test_query_oracle_rejects_trace_and_out(tmp_path, monkeypatch, flags):
    # brute force records no trace, so asking for one is a usage error, not
    # a silent success that prints no table and writes no file
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["query", str(FIXTURES / "faulty2011.dataset.jsonl"),
                              "--qx", "126.0", "--qy", "44.0", "--mode", "oracle", *flags])
    assert code == EXIT_USAGE and not out
    assert "--trace and --out" in err
    assert not (tmp_path / "trace.jsonl").exists()


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


_DATASET = ('{"id": "a%s", "x": 0, "y": 0, "terms": {"t": 1}}\n'
            '{"id": "c", "x": 2, "y": 1, "terms": {"t": 2}}\n')
_QUERY = '{"x": 1, "y": 0, "note": "%s", "terms": {"t": 1}}'
_DEEP = '", "deep": ' + "[" * 100_000 + "]" * 100_000 + ', "_": "'


def _run_on(tmp_path, command, where, text, encoding):
    """``command`` on a dataset and a query file, ``text`` put into a JSON
    string of the one ``where`` names, and that file written in ``encoding``."""
    dataset, query = tmp_path / "data.jsonl", tmp_path / "q.json"
    dataset.write_bytes((_DATASET % (text if where == "dataset" else "")).encode(encoding))
    query.write_bytes((_QUERY % (text if where == "query" else "")).encode(encoding))
    return run_cli([command, str(dataset), "--query-file", str(query), "--k", "1",
                    "--alpha", "0.5"])


@pytest.mark.parametrize("command", ["query", "compare"])
@pytest.mark.parametrize("where", ["dataset", "query"])
@pytest.mark.parametrize("text,encoding,line,message", [
    # not UTF-8: the file cannot be read
    pytest.param("\xe9", "latin-1", 0, "cannot read {where}: 'utf-8' codec can't decode",
                 id="latin-1"),
    # nested beyond the decoder's recursion
    pytest.param(_DEEP, "utf-8", 1, "invalid JSON: nested too deeply", id="deep"),
    # a raw U+0085 (JSON strings may hold it) ends no record: answered
    pytest.param("\x85", "utf-8", None, None, id="raw-U+0085"),
])
def test_input_that_once_crashed_or_split_is_a_parse_error_or_answered(
        tmp_path, command, where, text, encoding, line, message):
    code, out, err = _run_on(tmp_path, command, where, text, encoding)
    if line is None:
        assert code == EXIT_OK and out
        assert (code, out, err) == _run_on(tmp_path, command, where, "\\u0085", "ascii")
    else:  # never a traceback, and never compare's exit 1
        assert code == EXIT_PARSE and not out
        name = "data.jsonl" if where == "dataset" else "q.json"
        assert f"{name}:{line}: {message.format(where=where)}" in err


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit


@pytest.mark.skipif(not 0 < _DIGIT_LIMIT < 5001, reason="no integer digit limit below 5,001")
@pytest.mark.parametrize("command", ["query", "compare"])
@pytest.mark.parametrize("where", ["dataset", "query"])
def test_an_integer_past_the_digit_limit_is_a_parse_error(tmp_path, command, where):
    # the decoder cannot convert a JSON integer of 5,001 digits: a parse
    # error at its line, never a traceback or compare's exit 1
    big = "1" + "0" * 5000
    dataset, query = tmp_path / "data.jsonl", tmp_path / "q.json"
    dataset.write_text('{"id": "a", "x": %s, "y": 0}\n' % (big if where == "dataset" else 0)
                       + '{"id": "b", "x": 2, "y": 1}\n')
    query.write_text('{"x": %s, "y": 0}' % (big if where == "query" else 0))
    code, out, err = run_cli([command, str(dataset), "--query-file", str(query)])
    assert code == EXIT_PARSE and not out
    path = dataset if where == "dataset" else query
    assert err == f"error: {path}:1: invalid JSON: an integer has too many digits\n"


@pytest.mark.parametrize("command", ["query", "compare"])
@pytest.mark.parametrize("value", [
    pytest.param("[" * 400 + '"x"' + "]" * 400, id="nested"),
    pytest.param('"' + "x" * 100_000 + '"', id="long"),
])
@pytest.mark.parametrize("line,message", [
    pytest.param('{"id": "a", "x": %s, "y": 0}', "'x' must be a number, got ", id="x"),
    pytest.param('{"id": "a", "x": 0, "y": 0, "terms": {"t": %s}}', "bad term entry 't': ",
                 id="weight"),
])
def test_a_parse_error_quotes_a_bad_value_briefly(tmp_path, command, value, line, message):
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(line % value + "\n")
    code, out, err = run_cli([command, str(dataset), "--qx", "0", "--qy", "0"])
    assert code == EXIT_PARSE and not out
    prefix = f"error: {dataset}:1: {message}"
    assert err.startswith(prefix) and len(err) - len(prefix) <= 80


@pytest.mark.filterwarnings("error")
def test_compare_far_query_at_alpha_zero(tmp_path):
    # the query distance overflows to inf, so the spatial score is -inf;
    # at alpha 0 it carries no weight and must not make the similarity NaN
    dataset = tmp_path / "far.jsonl"
    dataset.write_text(
        '{"id":"a","x":-1e308,"y":0,"terms":{"t":1}}\n'
        '{"id":"b","x":-1e308,"y":5,"terms":{"t":2}}\n'
        '{"id":"c","x":-1e308,"y":9,"terms":{"u":1}}\n')
    code, out, _ = run_cli(["compare", str(dataset), "--qx", "1e308", "--qy", "0",
                            "--qterms", "t=1", "--k", "1", "--alpha", "0"])
    assert code == EXIT_OK
    assert out.splitlines()[:2] == ["oracle: a", "correct: match"]


def test_compare_far_query_with_k_at_least_n(tmp_path):
    # the query similarity is -inf, and so is the k-th-neighbour similarity
    # of objects short of k neighbours: -inf is not above -inf, so no object
    # is in the result, in every mode
    dataset = tmp_path / "far.jsonl"
    dataset.write_text(
        '{"id":"a","x":-1e308,"y":0,"terms":{"t":1}}\n'
        '{"id":"b","x":-1e308,"y":5,"terms":{"t":1}}\n'
        '{"id":"c","x":-1e308,"y":9,"terms":{"u":1}}\n')
    for k in ("2", "3", "4"):
        code, out, _ = run_cli(["compare", str(dataset), "--qx", "1e308", "--qy", "0",
                                "--qterms", "t=1", "--k", k, "--alpha", "0.5"])
        assert code == EXIT_OK
        assert out.splitlines() == ["oracle: -", "correct: match", "faulty2011: match",
                                    "faulty2014: match"]


@pytest.mark.filterwarnings("error")
def test_compare_rejects_a_spread_beyond_float_range(tmp_path):
    dataset = tmp_path / "big.jsonl"
    dataset.write_text(
        '{"id":"a","x":1e308,"y":0,"terms":{"t":1}}\n'
        '{"id":"b","x":-1e308,"y":0,"terms":{"t":2}}\n'
        '{"id":"c","x":0,"y":0,"terms":{"u":1}}\n')
    code, out, err = run_cli(["compare", str(dataset), "--qx", "0", "--qy", "0",
                              "--qterms", "t=1", "--k", "1", "--alpha", "0.5"])
    assert code == EXIT_PARSE and not out
    assert "big.jsonl" in err and "beyond float range" in err


@pytest.mark.filterwarnings("error")
def test_compare_rejects_a_text_range_below_the_normal_float_range(tmp_path):
    # psi_t is 5e-321: a normalized text score, up to 1 / 5e-321, overflows,
    # and with the query at x = 1e308 its similarity would be -inf + inf
    dataset = tmp_path / "subnormal.jsonl"
    dataset.write_text(
        '{"id":"a","x":0,"y":0,"terms":{"p":1,"q":1e-160}}\n'
        '{"id":"b","x":1,"y":0,"terms":{"q":1e-160,"r":1}}\n'
        '{"id":"c","x":2,"y":0,"terms":{"s":1}}\n')
    for command, qx in (("compare", "0"), ("compare", "1e308"), ("query", "0")):
        code, out, err = run_cli([command, str(dataset), "--qx", qx, "--qy", "0",
                                  "--qterms", "p=1", "--k", "1", "--alpha", "0.5"])
        assert code == EXIT_PARSE and not out
        assert "subnormal.jsonl:0: the text similarity range 5e-321" in err
    with pytest.raises(ValueError, match="below the normal float range"):  # the library's own
        build_tree(read_dataset(dataset)).norm_stats()


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
