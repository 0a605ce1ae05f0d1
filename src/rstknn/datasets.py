"""Dataset generation and JSON-lines I/O.

One object per line: ``{"id": str, "x": number, "y": number,
"terms": {term: weight, ...}}``.  Queries use the same schema minus the id.
Serialization is canonical (fixed key order, sorted terms, float-typed
numbers), so generate -> parse -> serialize round-trips byte-identically.

Reading checks JSON types and ids only; the values are checked once, where
they are stored (:class:`TermVector` the weights, :class:`STObject` and
:class:`QueryObject` the coordinates), and their ``ValueError`` becomes a
:class:`ParseError` at the line.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Iterator, Sequence

from .core import QueryObject, STObject, TermVector, check_spread, check_union


class ParseError(ValueError):
    """A dataset or query file failed to parse; carries path and line number."""

    def __init__(self, path: str | Path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no
        self.message = message


_decode = json.JSONDecoder().decode
_JSON_NUMBERS = (int, float)  # a JSON bool is neither: its type is bool


def _terms_from_json(raw: object, path: str | Path, line_no: int) -> TermVector:
    """The term vector of a JSON ``terms`` object: this checks the JSON
    types, and :class:`TermVector` the values."""
    if not isinstance(raw, dict):
        raise ParseError(path, line_no, "'terms' must be an object")
    for term, w in raw.items():
        if type(w) not in _JSON_NUMBERS:
            raise ParseError(path, line_no, f"bad term entry {term!r}: {w!r}")
    try:
        return TermVector(raw)
    except ValueError as exc:
        raise ParseError(path, line_no, str(exc)) from exc


def _number(raw: object, name: str, path: str | Path, line_no: int) -> float:
    """A JSON number as a float; :class:`STObject` and :class:`QueryObject`
    check that it is finite."""
    if type(raw) not in _JSON_NUMBERS:
        raise ParseError(path, line_no, f"'{name}' must be a number, got {raw!r}")
    try:
        return float(raw)  # type: ignore[arg-type]
    except OverflowError as exc:
        raise ParseError(path, line_no, f"'{name}' is an integer beyond float range") from exc


def object_to_json_line(obj: STObject) -> str:
    payload = {
        "id": obj.id,
        "x": float(obj.loc[0]),
        "y": float(obj.loc[1]),
        "terms": {t: float(w) for t, w in obj.vct.items},
    }
    return json.dumps(payload)


def serialize_dataset(objects: Sequence[STObject]) -> str:
    return "".join(object_to_json_line(o) + "\n" for o in objects)


def write_dataset(path: str | Path, objects: Sequence[STObject]) -> None:
    Path(path).write_text(serialize_dataset(objects), encoding="utf-8")


def _values(path: str | Path, what: str, lines: bool) -> Iterator[tuple[int, object]]:
    """(line number, JSON value) of each non-blank line of a UTF-8 file, each
    decoded alone, or of its whole text at line 1.  Reading turns CR LF and
    CR into LF, the one place where a record ends: ``str.splitlines`` also
    splits at U+0085, U+2028 and U+2029, which JSON strings may hold raw."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(path, 0, f"cannot read {what}: {exc}") from exc
    try:
        for line_no, line in enumerate(text.split("\n") if lines else [text], start=1):
            if line and not line.isspace() or not lines:
                yield line_no, _decode(line)
    except json.JSONDecodeError as exc:
        raise ParseError(path, line_no, f"invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:  # nested deeper than the decoder recurses
        raise ParseError(path, line_no, "invalid JSON: nested too deeply") from exc


def read_dataset(path: str | Path) -> list[STObject]:
    """The objects of a JSON-lines dataset file, one per non-blank line,
    each decoded alone; the whole dataset's checks are reported at line 0."""
    objects: list[STObject] = []
    seen: set[str] = set()
    for line_no, raw in _values(path, "dataset", lines=True):
        if not isinstance(raw, dict):
            raise ParseError(path, line_no, "each line must be a JSON object")
        oid = raw.get("id")
        if not isinstance(oid, str):
            raise ParseError(path, line_no, "'id' must be a string")
        if oid in seen:
            raise ParseError(path, line_no, f"duplicate object id {oid!r}")
        seen.add(oid)
        loc = (_number(raw.get("x"), "x", path, line_no), _number(raw.get("y"), "y", path, line_no))
        vct = _terms_from_json(raw.get("terms", {}), path, line_no)
        try:
            objects.append(STObject(oid, loc, vct))
        except ValueError as exc:  # a non-finite coordinate
            raise ParseError(path, line_no, str(exc)) from exc
    if not objects:
        raise ParseError(path, 0, "dataset is empty")
    try:
        check_spread(objects)
        check_union(objects)
    except ValueError as exc:
        raise ParseError(path, 0, str(exc)) from exc
    return objects


def read_query(path: str | Path) -> QueryObject:
    [(_, raw)] = _values(path, "query", lines=False)
    if not isinstance(raw, dict):
        raise ParseError(path, 1, "query file must hold a JSON object")
    loc = (_number(raw.get("x"), "x", path, 1), _number(raw.get("y"), "y", path, 1))
    vct = _terms_from_json(raw.get("terms", {}), path, 1)
    try:
        return QueryObject(loc, vct)
    except ValueError as exc:  # a non-finite coordinate
        raise ParseError(path, 1, str(exc)) from exc


def parse_query_terms(spec: str) -> TermVector:
    """Parse a ``"t1=2,t2=5"`` style command-line term list."""
    weights: dict[str, float] = {}
    if not spec.strip():
        return TermVector()
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        term, sep, value = piece.partition("=")
        if not sep or not term.strip():
            raise ValueError(f"bad term spec {piece!r}, expected term=weight")
        try:
            weights[term.strip()] = float(value)
        except ValueError as exc:
            raise ValueError(f"bad weight in term spec {piece!r}") from exc
    return TermVector(weights)


# -- random generation --------------------------------------------------------

_COORD_MAX = 128
_WEIGHT_MAX = 10


def _random_terms(rng: random.Random, vocab: int) -> TermVector:
    pool = [f"t{i}" for i in range(vocab)]
    n_terms = rng.randint(0, min(vocab, 4))
    chosen = rng.sample(pool, n_terms)
    return TermVector({t: float(rng.randint(1, _WEIGHT_MAX)) for t in chosen})


def random_dataset(rng: random.Random, n: int, vocab: int) -> list[STObject]:
    """Integer-grid random objects; avoids knife-edge float comparisons."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if vocab < 1:
        raise ValueError(f"vocab must be >= 1, got {vocab}")
    return [
        STObject(
            id=f"P{i}",
            loc=(float(rng.randint(0, _COORD_MAX)), float(rng.randint(0, _COORD_MAX))),
            vct=_random_terms(rng, vocab),
        )
        for i in range(n)
    ]


def random_query(rng: random.Random, vocab: int) -> QueryObject:
    return QueryObject(
        loc=(float(rng.randint(0, _COORD_MAX)), float(rng.randint(0, _COORD_MAX))),
        vct=_random_terms(rng, vocab),
    )
