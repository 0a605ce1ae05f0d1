"""Seeded workload generators.

The benchmark owns these generators so that a change to the program's own
``random_dataset`` cannot silently change a workload.  Each generator writes
JSON-lines datasets in the program's documented schema; the program only
ever sees them through ``read_dataset``.  Queries are plain dicts
``{"x", "y", "terms"}`` that the runner turns into ``QueryObject``s.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    n: int               # objects per dataset
    alpha: float
    k: int
    fanout: int
    legacy_queries: int  # queries per round for each legacy mode; the first one runs in all modes
    datasets: int        # dataset pool of one run; each round takes the next one
    trace_datasets: int  # datasets in one pass of the traced run
    make_dataset: Callable[[random.Random, int], tuple[list[dict], dict]]
    make_query: Callable[[random.Random, dict], dict]


# -- uniform integer grid ------------------------------------------------------

_SIDE = 128
_VOCAB8 = [f"t{i}" for i in range(8)]


def _grid_terms(rng: random.Random) -> dict[str, float]:
    chosen = rng.sample(_VOCAB8, rng.randint(0, 4))
    return {t: float(rng.randint(1, 10)) for t in sorted(chosen)}


def _grid_point(rng: random.Random) -> dict:
    return {"x": float(rng.randint(0, _SIDE)), "y": float(rng.randint(0, _SIDE)),
            "terms": _grid_terms(rng)}


def _grid_dataset(rng: random.Random, n: int) -> tuple[list[dict], dict]:
    return [{"id": f"P{i}", **_grid_point(rng)} for i in range(n)], {}


def _grid_query(rng: random.Random, _info: dict) -> dict:
    return _grid_point(rng)


# -- Gaussian clusters with per-cluster topics ----------------------------------

_GRID_COLS, _GRID_ROWS = 3, 2
_CLUSTERS = _GRID_COLS * _GRID_ROWS
_TOPIC_TERMS = 3
_NOISE_VOCAB = [f"w{i}" for i in range(12)]


def _topic(c: int) -> list[str]:
    return [f"c{c}_{j}" for j in range(_TOPIC_TERMS)]


def _cluster_terms(rng: random.Random, c: int) -> dict[str, float]:
    terms = {t: rng.uniform(1.0, 3.0) for t in _topic(c)}
    for t in rng.sample(_NOISE_VOCAB, rng.randint(0, 2)):
        terms[t] = rng.uniform(0.1, 1.0)
    return dict(sorted(terms.items()))


def _clustered_dataset(rng: random.Random, n: int) -> tuple[list[dict], dict]:
    # one cluster per 400 x 400 cell of a grid, so clusters never overlap
    centers = [(400.0 * (c % _GRID_COLS) + rng.uniform(150.0, 250.0),
                400.0 * (c // _GRID_COLS) + rng.uniform(150.0, 250.0))
               for c in range(_CLUSTERS)]
    objects = []
    for i in range(n):
        c = i % _CLUSTERS
        cx, cy = centers[c]
        objects.append({
            "id": f"P{i}",
            "x": rng.gauss(cx, 30.0),
            "y": rng.gauss(cy, 30.0),
            "terms": _cluster_terms(rng, c),
        })
    return objects, {"centers": centers}


def _clustered_query(rng: random.Random, info: dict) -> dict:
    c = rng.randrange(_CLUSTERS)
    cx, cy = info["centers"][c]
    return {"x": rng.gauss(cx, 30.0), "y": rng.gauss(cy, 30.0), "terms": _cluster_terms(rng, c)}


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("uniform-mixed", n=64, alpha=0.4, k=4, fanout=8, legacy_queries=6,
                 datasets=64, trace_datasets=6,
                 make_dataset=_grid_dataset, make_query=_grid_query),
        Workload("clustered-text", n=96, alpha=0.0, k=4, fanout=8, legacy_queries=2,
                 datasets=128, trace_datasets=12,
                 make_dataset=_clustered_dataset, make_query=_clustered_query),
    )
}


def generate(workload: Workload, seed: int, out_dir: Path,
             count: int) -> list[tuple[Path, list[dict]]]:
    """Write ``count`` datasets as JSON lines; return (path, queries) pairs.

    Dataset ``i`` and its queries come from their own generator, seeded with
    the workload name, the run seed and ``i``, so they do not depend on how
    many datasets a run uses.
    """
    made = []
    for i in range(count):
        rng = random.Random(f"{workload.name}/{seed}/{i}")
        objects, info = workload.make_dataset(rng, workload.n)
        path = out_dir / f"{workload.name}-{seed}-{i}.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in objects), encoding="utf-8")
        made.append((path, [workload.make_query(rng, info) for _ in range(workload.legacy_queries)]))
    return made
