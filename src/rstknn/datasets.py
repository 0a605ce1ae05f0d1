"""Dataset generation and JSON-lines I/O.

One object per line: ``{"id": str, "x": number, "y": number,
"terms": {term: weight, ...}}``.  Queries use the same schema minus the id.
Serialization is canonical (fixed key order, sorted terms, float-typed
numbers), so generate -> parse -> serialize round-trips byte-identically.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Sequence

from .core import QueryObject, STObject, TermVector, is_finite


class ParseError(ValueError):
    """A dataset or query file failed to parse; carries path and line number."""

    def __init__(self, path: str | Path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no
        self.message = message


def _terms_from_json(raw: object, path: str | Path, line_no: int) -> TermVector:
    if not isinstance(raw, dict):
        raise ParseError(path, line_no, "'terms' must be an object")
    weights: dict[str, float] = {}
    for term, w in raw.items():
        if not isinstance(term, str) or not isinstance(w, (int, float)) or isinstance(w, bool):
            raise ParseError(path, line_no, f"bad term entry {term!r}: {w!r}")
        if not is_finite(w):
            raise ParseError(path, line_no, f"non-finite weight for term {term!r}: {w!r}")
        if w < 0:
            raise ParseError(path, line_no, f"negative weight for term {term!r}")
        weights[term] = float(w)
    try:
        return TermVector(weights)
    except ValueError as exc:  # a squared norm beyond float range
        raise ParseError(path, line_no, str(exc)) from exc


def _number(raw: object, name: str, path: str | Path, line_no: int) -> float:
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise ParseError(path, line_no, f"'{name}' must be a number, got {raw!r}")
    if not is_finite(raw):
        raise ParseError(path, line_no, f"'{name}' must be finite, got {raw!r}")
    return float(raw)


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


def read_dataset(path: str | Path) -> list[STObject]:
    objects: list[STObject] = []
    seen: set[str] = set()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read dataset: {exc}") from exc
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(path, line_no, f"invalid JSON: {exc.msg}") from exc
        if not isinstance(raw, dict):
            raise ParseError(path, line_no, "each line must be a JSON object")
        if not isinstance(raw.get("id"), str):
            raise ParseError(path, line_no, "'id' must be a string")
        oid = raw["id"]
        if oid in seen:
            raise ParseError(path, line_no, f"duplicate object id {oid!r}")
        seen.add(oid)
        objects.append(
            STObject(
                id=oid,
                loc=(
                    _number(raw.get("x"), "x", path, line_no),
                    _number(raw.get("y"), "y", path, line_no),
                ),
                vct=_terms_from_json(raw.get("terms", {}), path, line_no),
            )
        )
    if not objects:
        raise ParseError(path, 0, "dataset is empty")
    return objects


def read_query(path: str | Path) -> QueryObject:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read query: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, 1, f"invalid JSON: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError(path, 1, "query file must hold a JSON object")
    return QueryObject(
        loc=(_number(raw.get("x"), "x", path, 1), _number(raw.get("y"), "y", path, 1)),
        vct=_terms_from_json(raw.get("terms", {}), path, 1),
    )


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
