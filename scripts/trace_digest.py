#!/usr/bin/env python3
"""One digest over the results and traces of every query mode on a seeded sweep.

Instance i draws a `random_dataset` of 1 to 48 objects and a query from
`random.Random(i)`, builds an STR tree with fanout 2, 3, 4 or 8 in turn, and
runs every engine mode at alpha 0, 0.4 and 1 with k drawn from
{1, 2, 4, n, n + 1}.  The script prints the number of correct-mode runs that
differ from `rknn_bruteforce`, and one SHA-256 over each run's sorted result
ids and `trace_to_jsonl` output.  Two versions of the program that print the
same digest decide alike on every run of the sweep, step for step.

    PYTHONPATH=src python3 scripts/trace_digest.py --instances 200
"""

from __future__ import annotations

import argparse
import hashlib
import random

from rstknn import Mode, SimParams, build_tree, rknn_bruteforce, rstknn_query, trace_to_jsonl
from rstknn.datasets import random_dataset, random_query

ALPHAS = (0.0, 0.4, 1.0)
FANOUTS = (2, 3, 4, 8)
VOCAB = 6


def digest(instances: int) -> tuple[int, int, str]:
    """(runs, correct-mode mismatches, hex SHA-256) over the sweep."""
    sha = hashlib.sha256()
    runs = mismatches = 0
    for i in range(instances):
        rng = random.Random(i)
        objects = random_dataset(rng, rng.randint(1, 48), VOCAB)
        query = random_query(rng, VOCAB)
        n = len(objects)
        tree = build_tree(objects, FANOUTS[i % len(FANOUTS)])
        stats = tree.norm_stats()
        for alpha in ALPHAS:
            params = SimParams(alpha, rng.choice([1, 2, 4, n, n + 1]))
            for mode in Mode:
                result, trace = rstknn_query(tree, query, params, mode, stats=stats)
                if mode is Mode.CORRECT:
                    mismatches += result != rknn_bruteforce(objects, query, params, stats)
                sha.update(f"{i} {alpha} {params.k} {mode.value}\n".encode())
                sha.update(" ".join(sorted(result)).encode() + b"\n")
                sha.update(trace_to_jsonl(trace).encode() + b"\n")
                runs += 1
    return runs, mismatches, sha.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--instances", type=int, default=200)
    args = parser.parse_args(argv)
    runs, mismatches, hexdigest = digest(args.instances)
    print(f"instances {args.instances}  runs {runs}  mismatches {mismatches}")
    print(f"sha256 {hexdigest}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
