#!/usr/bin/env python3
"""One digest over the results and traces of every query mode on a seeded sweep.

Instance i draws a `random_dataset` of 1 to 48 objects and a query from
`random.Random(i)`, builds an STR tree with fanout 2, 3, 4 or 8 in turn, and
runs every engine mode at alpha 0, 0.4 and 1 with k drawn from
{1, 2, 4, n, n + 1}.  The script prints the number of correct-mode runs that
differ from `rknn_bruteforce`, and one SHA-256 over each run's sorted result
ids and `trace_to_jsonl` output.  Two versions of the program that print the
same digest decide alike on every run of the sweep, step for step.

With ``--offgrid`` the instances leave the integer grid: Gaussian
coordinates in which about 30% of the objects repeat an earlier object's
location (half of those its term vector too), fractional term weights, and
k drawn from {1, 2, 3, n, n + 1}.  Even instances are laid out by a random
nesting with single-child chains and single-object leaves, odd ones by STR.

With ``--extreme`` the instances (`extreme_instance`) reach the ends of the
float range: coordinates scaled by 1e-300 to 1e300, weights by 1e-150 to
1e150, far queries whose similarity may be -inf, k drawn from 1 to n + 1.

With ``--setup`` the script runs no query.  It writes the objects of each
grid and each off-grid instance through `write_dataset`, reads them back with
`read_dataset`, builds the instance's tree from what it read, and hashes the
set-up: the `NormStats` as `float.hex`, and every entry record's span, depth,
parent, children, covering entries, the box's four corner floats and both
vectors (items and `norm_sq`).  Two versions that print the same set-up
digest read, pack and normalize every instance bit for bit alike.

    PYTHONPATH=src python3 scripts/trace_digest.py --instances 200
    PYTHONPATH=src python3 scripts/trace_digest.py --offgrid --instances 300
    PYTHONPATH=src python3 scripts/trace_digest.py --extreme --instances 300
    PYTHONPATH=src python3 scripts/trace_digest.py --setup --instances 300
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
import tempfile
from pathlib import Path
from typing import Callable, Sequence

from rstknn import (
    Mode,
    QueryObject,
    SimParams,
    STObject,
    TermVector,
    build_tree,
    object_entry,
    rknn_bruteforce,
    rstknn_query,
    trace_to_jsonl,
    tree_from_layout,
)
from rstknn.datasets import random_dataset, random_query, read_dataset, write_dataset

ALPHAS = (0.0, 0.4, 1.0)
FANOUTS = (2, 3, 4, 8)
VOCAB = 6


Load = Callable[[Sequence[STObject]], Sequence[STObject]]


def grid_instance(i: int, load: Load = list):
    """(objects, query, tree, rng) of instance i on the integer grid; the
    tree is built over ``load(objects)``."""
    rng = random.Random(i)
    objects = load(random_dataset(rng, rng.randint(1, 48), VOCAB))
    query = random_query(rng, VOCAB)
    return objects, query, build_tree(objects, FANOUTS[i % len(FANOUTS)]), rng


def _terms(rng: random.Random) -> TermVector:
    chosen = rng.sample(range(VOCAB), rng.randint(0, 4))
    return TermVector({f"t{j}": rng.uniform(0.01, 5.0) for j in chosen})


def _chain_layout(rng: random.Random, ids: list[str]) -> list:
    """A random nesting of ``ids`` with single-child chain nodes and
    single-object leaves."""
    if len(ids) == 1 or (len(ids) <= 3 and rng.random() < 0.6):
        layout: list = list(ids)
    else:
        cuts = sorted(rng.sample(range(1, len(ids)), min(len(ids) - 1, rng.randint(1, 3))))
        edges = [0, *cuts, len(ids)]
        layout = [_chain_layout(rng, ids[a:b]) for a, b in zip(edges, edges[1:])]
    while rng.random() < 0.3:
        layout = [layout]
    return layout


def offgrid_instance(i: int, load: Load = list):
    """(objects, query, tree, rng) of instance i off the grid; the tree is
    built over ``load(objects)``."""
    rng = random.Random(f"offgrid/{i}")
    objects: list[STObject] = []
    for j in range(rng.randint(1, 40)):
        if objects and rng.random() < 0.3:
            twin = rng.choice(objects)
            loc, vct = twin.loc, twin.vct if rng.random() < 0.5 else _terms(rng)
        else:
            loc, vct = (rng.gauss(0.0, 10.0), rng.gauss(0.0, 10.0)), _terms(rng)
        objects.append(STObject(f"P{j}", loc, vct))
    query = QueryObject((rng.gauss(0.0, 10.0), rng.gauss(0.0, 10.0)), _terms(rng))
    objects = load(objects)
    if i % 2 == 0:
        tree = tree_from_layout(objects, _chain_layout(rng, [o.id for o in objects]))
    else:
        tree = build_tree(objects, FANOUTS[i // 2 % len(FANOUTS)])
    return objects, query, tree, rng


FAR = 0.9 * sys.float_info.max  # two coordinates this far apart on either side overflow


def extreme_instance(i: int):
    """(objects, query, tree, rng) of instance i at extreme magnitudes.

    Gaussian coordinates scaled by 1e-300 to 1e300, a fifth of the objects
    on an earlier object's location, and weights from (0.01, 5) scaled by
    1e-150 to 1e150, the same factor for the whole dataset, so that the
    text range, which does not depend on it, is never subnormal.  Two
    instances in five ask a far query, at -``FAR`` or ``FAR`` in x, and
    half of those shift the data to the other side, where the query
    distance overflows to inf.  Fanout 2, 3 or 8 in turn.
    """
    rng = random.Random(f"extreme/{i}")
    scale, weight = 10.0 ** rng.uniform(-300, 300), 10.0 ** rng.uniform(-150, 150)
    far = rng.choice([-FAR, FAR]) if rng.random() < 0.4 else 0.0
    shift = -far if rng.random() < 0.5 else 0.0
    objects: list[STObject] = []
    for j in range(rng.randint(1, 16)):
        if objects and rng.random() < 0.2:
            loc = rng.choice(objects).loc
        else:
            loc = (shift + scale * rng.gauss(0.0, 10.0), scale * rng.gauss(0.0, 10.0))
        terms = rng.sample(range(VOCAB), rng.randint(0, 3))
        objects.append(STObject(f"P{j}", loc, TermVector(
            {f"t{t}": weight * rng.uniform(0.01, 5.0) for t in terms})))
    loc = (far or scale * rng.gauss(0.0, 10.0), scale * rng.gauss(0.0, 10.0))
    query = QueryObject(loc, TermVector({f"t{t}": weight * rng.uniform(0.01, 5.0)
                                         for t in rng.sample(range(VOCAB), rng.randint(0, 3))}))
    return objects, query, build_tree(objects, (2, 3, 8)[i % 3]), rng


def digest(instances: int, kind: str = "grid") -> tuple[int, int, str]:
    """(runs, correct-mode mismatches, hex SHA-256) over the sweep of one
    kind of instance: grid, offgrid or extreme."""
    sha = hashlib.sha256()
    runs = mismatches = 0
    for i in range(instances):
        objects, query, tree, rng = INSTANCES[kind](i)
        n = len(objects)
        ks = {"grid": [1, 2, 4, n, n + 1], "offgrid": [1, 2, 3, n, n + 1]}.get(
            kind, range(1, n + 2))
        stats = tree.norm_stats()
        for alpha in ALPHAS:
            params = SimParams(alpha, rng.choice(ks))
            for mode in Mode:
                result, trace = rstknn_query(tree, query, params, mode, stats=stats)
                if mode is Mode.CORRECT:
                    mismatches += result != rknn_bruteforce(objects, query, params, stats)
                sha.update(f"{i} {alpha} {params.k} {mode.value}\n".encode())
                sha.update(" ".join(sorted(result)).encode() + b"\n")
                sha.update(trace_to_jsonl(trace).encode() + b"\n")
                runs += 1
    return runs, mismatches, sha.hexdigest()


INSTANCES = {"grid": grid_instance, "offgrid": offgrid_instance, "extreme": extreme_instance}


def _vector(v: TermVector) -> str:
    return " ".join(f"{t}={w.hex()}" for t, w in v.items) + f" |{v.norm_sq.hex()}"


def setup_digest(instances: int) -> str:
    """Hex SHA-256 over the set-up of every grid and off-grid instance read
    back from its dataset file."""
    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.jsonl"

        def load(objects: Sequence[STObject]) -> list[STObject]:
            write_dataset(path, objects)
            return read_dataset(path)

        for i in range(instances):
            for name, instance in (("grid", grid_instance), ("offgrid", offgrid_instance)):
                tree = instance(i, load)[2]
                stats = tree.norm_stats()
                sha.update(f"{name} {i} {' '.join(x.hex() for x in vars(stats).values())}\n"
                           .encode())
                entries = [*tree.iter_node_entries(), *map(object_entry, tree.objects)]
                for e in entries:
                    r = tree.record(e)
                    sha.update(" ".join([
                        e.label, str(r.span), str(r.depth),
                        r.parent.label if r.parent else "-",
                        ",".join(c.label for c in r.children),
                        ",".join(c.label for c in r.covering),
                        *(c.hex() for c in r.box),
                        _vector(r.int_vct), _vector(r.union_vct),
                    ]).encode() + b"\n")
    return sha.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--instances", type=int, default=200)
    parser.add_argument("--offgrid", action="store_true",
                        help="Gaussian data with duplicate locations and chain layouts")
    parser.add_argument("--extreme", action="store_true",
                        help="coordinates and weights at extreme magnitudes, far queries, "
                             "k from 1 to n + 1")
    parser.add_argument("--setup", action="store_true",
                        help="hash the read-back objects, tree records and statistics "
                             "of grid and off-grid instances; run no query")
    args = parser.parse_args(argv)
    if args.setup:
        print(f"instances {args.instances}  setup")
        print(f"sha256 {setup_digest(args.instances)}")
        return 0
    kind = "extreme" if args.extreme else "offgrid" if args.offgrid else "grid"
    runs, mismatches, hexdigest = digest(args.instances, kind)
    print(f"instances {args.instances}  runs {runs}  mismatches {mismatches}")
    print(f"sha256 {hexdigest}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
