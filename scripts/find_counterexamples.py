#!/usr/bin/env python3
"""Search for datasets where the legacy query modes contradict brute force.

Writes each discovered fixture as a dataset JSONL plus a metadata JSON next
to it (query, parameters, seed, expected results).  The committed copies
under fixtures/ were produced by this script with its default arguments; the
pinned seeds make the outcome reproducible, so CI never depends on search
luck.  The search lives here, not in the package, so that the oracle
module imports nothing of what it certifies; the tests load this file to
call it.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from rstknn import (
    Mode,
    QueryObject,
    STObject,
    SimParams,
    build_tree,
    rknn_bruteforce,
    rstknn_query,
)
from rstknn.datasets import random_dataset, random_query, serialize_dataset

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "fixtures"
SEEDS = {Mode.FAULTY2011: 42, Mode.FAULTY2014: 1042}


@dataclass
class CounterexampleFixture:
    """A dataset/query on which some query mode disagrees with brute force."""

    objects: list[STObject]
    query: QueryObject
    params: SimParams
    fanout: int
    seed: int
    trial: int
    mode: Mode
    mode_result: set[str]
    oracle_result: set[str]


def counterexample_search(mode: Mode, seed: int, trials: int) -> CounterexampleFixture | None:
    """Hunt for a small random instance where ``mode`` contradicts brute force.

    Integer coordinates and weights keep every comparison knife-edge free and
    the quadratic oracle instant.  Deterministic for a given seed; returns the
    first mismatching fixture, or None when all trials agree (as they must
    when ``mode`` is the correct one).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        n = rng.randint(4, 14)
        objects = random_dataset(rng, n, 6)
        query = random_query(rng, 6)
        params = SimParams(alpha=rng.choice((0.0, 0.4, 0.7, 1.0)), k=rng.choice((1, 2, 3)))
        fanout = rng.choice((2, 4))
        tree = build_tree(objects, fanout)
        stats = tree.norm_stats()
        got, _ = rstknn_query(tree, query, params, mode, stats=stats)
        want = rknn_bruteforce(objects, query, params, stats)
        if got != want:
            return CounterexampleFixture(
                objects=list(objects),
                query=query,
                params=params,
                fanout=fanout,
                seed=seed,
                trial=trial,
                mode=mode,
                mode_result=got,
                oracle_result=want,
            )
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    failures = 0
    for mode, seed in SEEDS.items():
        fx = counterexample_search(mode, seed=seed, trials=args.trials)
        if fx is None:
            print(f"{mode.value}: no mismatch in {args.trials} trials (seed {seed})")
            failures += 1
            continue
        stem = args.out / mode.value
        stem.with_suffix(".dataset.jsonl").write_text(
            serialize_dataset(fx.objects), encoding="utf-8"
        )
        meta = {
            "mode": mode.value,
            "seed": fx.seed,
            "trial": fx.trial,
            "fanout": fx.fanout,
            "k": fx.params.k,
            "alpha": fx.params.alpha,
            "query": {
                "x": fx.query.loc[0],
                "y": fx.query.loc[1],
                "terms": fx.query.vct.as_dict(),
            },
            "mode_result": sorted(fx.mode_result),
            "oracle_result": sorted(fx.oracle_result),
        }
        stem.with_suffix(".meta.json").write_text(
            json.dumps(meta, indent=2) + "\n", encoding="utf-8"
        )
        print(
            f"{mode.value}: trial {fx.trial}, n={len(fx.objects)}, "
            f"k={fx.params.k}, alpha={fx.params.alpha}, fanout={fx.fanout} -> "
            f"{stem.with_suffix('.dataset.jsonl').name}"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
