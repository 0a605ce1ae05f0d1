"""Command-line interface.

Subcommands:
  gen      write a seeded random JSON-lines dataset
  query    run a reverse spatio-textual k-NN query in any mode
  compare  run every mode plus brute force and diff the results

Exit codes: 0 ok, 1 the correct mode disagreed with brute force (should never
happen), 2 usage error, 3 parse error.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from .core import QueryObject, SimParams
from .datasets import (
    ParseError,
    parse_query_terms,
    random_dataset,
    read_dataset,
    read_query,
    write_dataset,
)
from .engine import Mode, format_trace_table, rstknn_query, trace_to_jsonl
from .iur_tree import build_tree
from .oracle import rknn_bruteforce

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_PARSE = 3

MODES = ("correct", "faulty2011", "faulty2014", "oracle")


class UsageError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rstknn",
        description="Reverse spatio-textual k-NN queries over an intersection/union R-tree.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random JSON-lines dataset")
    gen.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    gen.add_argument("--n", type=int, required=True, help="number of objects (>= 1)")
    gen.add_argument("--vocab", type=int, default=6, help="vocabulary size (default 6)")
    gen.add_argument("--out", type=Path, required=True, help="output path")

    def add_query_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("dataset", type=Path, help="JSON-lines dataset path")
        p.add_argument("--qx", type=float, help="query x coordinate")
        p.add_argument("--qy", type=float, help="query y coordinate")
        p.add_argument("--qterms", default="", help='query terms, e.g. "t1=2,t2=5"')
        p.add_argument("--query-file", type=Path, help="query as JSON ({x, y, terms})")
        p.add_argument("--k", type=int, default=1, help="neighbor count (default 1)")
        p.add_argument("--alpha", type=float, default=1.0,
                       help="spatial/textual weight in [0, 1] (default 1)")
        p.add_argument("--fanout", type=int, default=4, help="tree fanout (default 4)")

    query = sub.add_parser("query", help="run one query")
    add_query_args(query)
    query.add_argument("--mode", choices=MODES, default="correct")
    query.add_argument("--trace", action="store_true",
                       help="print the step-by-step trace table")
    query.add_argument("--out", type=Path,
                       help="write the trace as JSON lines to this path")

    compare = sub.add_parser("compare", help="diff every mode against brute force")
    add_query_args(compare)
    return parser


def _parse_query(args: argparse.Namespace) -> QueryObject:
    if args.query_file is not None:
        return read_query(args.query_file)
    if args.qx is None or args.qy is None:
        raise UsageError("provide either --query-file or both --qx and --qy")
    try:
        return QueryObject((args.qx, args.qy), parse_query_terms(args.qterms))
    except ValueError as exc:  # malformed terms, negative or non-finite values
        raise UsageError(str(exc)) from exc


def _parse_params(args: argparse.Namespace) -> SimParams:
    try:
        return SimParams(alpha=args.alpha, k=args.k)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if not 1 <= args.vocab <= 8:
        raise UsageError(f"--vocab must be in [1, 8], got {args.vocab}")
    objects = random_dataset(random.Random(args.seed), args.n, args.vocab)
    try:
        write_dataset(args.out, objects)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {len(objects)} objects to {args.out}")
    return EXIT_OK


def _cmd_query(args: argparse.Namespace) -> int:
    params = _parse_params(args)
    if args.fanout < 2:
        raise UsageError(f"--fanout must be >= 2, got {args.fanout}")
    objects = read_dataset(args.dataset)
    query = _parse_query(args)
    tree = build_tree(objects, args.fanout)
    stats = tree.norm_stats()
    if args.mode == "oracle":
        result = rknn_bruteforce(objects, query, params, stats)
        trace = []
    else:
        result, trace = rstknn_query(tree, query, params, Mode(args.mode), stats=stats)
    print(" ".join(sorted(result)))
    if args.trace and trace:
        print(format_trace_table(trace))
    if args.out is not None and trace:
        try:
            args.out.write_text(trace_to_jsonl(trace) + "\n", encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from exc
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    params = _parse_params(args)
    if args.fanout < 2:
        raise UsageError(f"--fanout must be >= 2, got {args.fanout}")
    objects = read_dataset(args.dataset)
    query = _parse_query(args)
    tree = build_tree(objects, args.fanout)
    stats = tree.norm_stats()
    want = rknn_bruteforce(objects, query, params, stats)
    print(f"oracle: {' '.join(sorted(want)) or '-'}")
    status = EXIT_OK
    for mode in (Mode.CORRECT, Mode.FAULTY2011, Mode.FAULTY2014):
        got, _ = rstknn_query(tree, query, params, mode, stats=stats)
        if got == want:
            print(f"{mode.value}: match")
        else:
            extra = ",".join(sorted(got - want)) or "-"
            missing = ",".join(sorted(want - got)) or "-"
            print(f"{mode.value}: extra={extra} missing={missing}")
            if mode is Mode.CORRECT:
                status = EXIT_MISMATCH
    return status


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "compare":
            return _cmd_compare(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
