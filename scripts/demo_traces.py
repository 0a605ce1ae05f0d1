#!/usr/bin/env python3
"""Run every query mode on the hand-built two-cluster fixture.

Prints the step-by-step trace table per mode plus the diff against brute
force, showing the node wrongly accepted by each legacy mode.
"""

from __future__ import annotations

from rstknn import Mode, format_trace_table, rknn_bruteforce, rstknn_query
from rstknn.demo import two_cluster_fixture


def main() -> None:
    fx = two_cluster_fixture()
    tree = fx.build_tree()
    stats = tree.norm_stats()
    want = rknn_bruteforce(list(fx.objects), fx.query, fx.params, stats)
    print(f"brute force: {' '.join(sorted(want))}\n")
    for mode in Mode:
        got, trace = rstknn_query(tree, fx.query, fx.params, mode, stats=stats)
        verdict = "matches brute force" if got == want else (
            f"WRONG (extra: {' '.join(sorted(got - want)) or '-'})"
        )
        print(f"== {mode.value}: {' '.join(sorted(got))}  [{verdict}]")
        print(format_trace_table(trace))
        print()


if __name__ == "__main__":
    main()
