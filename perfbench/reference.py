"""Run the benchmark over several seeds and summarise each metric.

Usage, from the repository root:

    python3 perfbench/reference.py --workload uniform-mixed --seeds 1-10 --seconds 50 --trace 0

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median of the per-run values, their first and third quartiles and
the spread (third minus first quartile, as a share of the median), followed
by the correctness verdicts and the attempted and failed operation counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", default="50")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append((seed, result["correct"], result["attempted"], result["failed"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print(f"{'metric':44s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:44s} {units[name]:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f}")
    for seed, correct, attempted, failed in runs:
        print(f"seed {seed}: correct={correct} attempted={attempted} failed={failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
