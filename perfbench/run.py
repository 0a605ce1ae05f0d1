"""Seeded end-to-end benchmark of the rstknn query modes.

Usage, from the repository root:

    python3 perfbench/run.py --workload uniform-mixed --seed 1 --seconds 50 --trace 0

A run generates a pool of datasets with their queries from ``--seed`` and
certifies the answers with an independent brute force (certify.py).  Load
comes from one process with one thread in a closed loop: each round starts
when the previous one ends, takes the next dataset, sets it up the way
``rstknn compare`` does (``read_dataset``, ``build_tree``, ``norm_stats``)
and runs its first query in the correct mode, ``faulty2011``, ``faulty2014``
and the brute-force oracle.  The legacy modes' latency varies several-fold
from query to query, so they also run the dataset's further queries
(``legacy_queries`` in all).  Rounds continue until ``--seconds`` have passed.

The correct mode, the oracle and the program's normalization statistics must
equal the certifier.  A legacy-mode query fails only if it raises or returns
an id outside the dataset; its wrong answers are by design.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run (see tracing.py).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# one thread: the certifier's NumPy must not leave BLAS threads spinning
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    from rstknn.core import QueryObject, SimParams, TermVector
    from rstknn.datasets import read_dataset
    from rstknn.engine import Mode, rstknn_query
    from rstknn.iur_tree import build_tree
    from rstknn.oracle import rknn_bruteforce
except ImportError as exc:
    sys.exit(f"error: cannot import rstknn from {ROOT / 'src'}: {exc}")

from certify import Certifier  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, generate  # noqa: E402

MODES = ("correct", "faulty2011", "faulty2014", "oracle")
ENGINE_MODES = MODES[:3]
WORK = ROOT / ".perfbench-work"


class Instance:
    """One generated dataset and its queries, with the certified answer."""

    def __init__(self, path: Path, queries: list[dict], workload: Workload):
        self.path = path
        self.fanout = workload.fanout
        self.params = SimParams(workload.alpha, workload.k)
        self.queries = [QueryObject((q["x"], q["y"]), TermVector(q["terms"])) for q in queries]
        cert = Certifier(path, workload.alpha, workload.k)
        self.cert_stats = cert.stats
        self.expected = cert.answer(queries[0])  # only the first query runs in every mode
        self.ids = frozenset(cert.ids)
        self.objects = self.tree = self.stats = None

    def set_up(self, read=read_dataset, build=build_tree) -> None:
        self.objects = read(self.path)
        self.tree = build(self.objects, self.fanout)
        self.stats = self.tree.norm_stats()

    def release(self) -> None:
        self.objects = self.tree = self.stats = None

    def operations(self) -> list[tuple[str, int]]:
        """(mode, query index) pairs of one round, in order."""
        legacy = [(m, qi) for qi in range(len(self.queries)) for m in ("faulty2011", "faulty2014")]
        return [("correct", 0), ("oracle", 0)] + legacy

    def call(self, mode: str, qi: int):
        """(result ids, trace) of query ``qi`` in one mode."""
        query = self.queries[qi]
        if mode == "oracle":
            return rknn_bruteforce(self.objects, query, self.params, self.stats), []
        return rstknn_query(self.tree, query, self.params, Mode(mode), stats=self.stats)


class Outcome:
    """Attempted and failed operations and the correctness verdict of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def check_stats(self, inst: Instance) -> None:
        s = inst.stats
        if (s.phi_s, s.psi_s, s.phi_t, s.psi_t) != inst.cert_stats:
            self.correct = False
            self.problems.append(f"{inst.path.name}: NormStats differ from the certifier")

    def judge(self, inst: Instance, mode: str, qi: int, run) -> bool:
        """Run one query operation and classify it; True when it did not fail."""
        self.attempted += 1
        try:
            result, _trace = run()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.problems.append(f"{inst.path.name} q{qi} {mode}: raised {exc!r}")
            return False
        if not set(result) <= inst.ids:
            self.failed += 1
            self.problems.append(f"{inst.path.name} q{qi} {mode}: returned unknown ids")
            return False
        if mode in ("correct", "oracle") and set(result) != inst.expected:
            self.correct = False
            self.problems.append(f"{inst.path.name} {mode}: differs from the certifier")
        return True


def run_untraced(instances: list[Instance], seconds: float, outcome: Outcome) -> dict:
    setup: list[float] = []
    samples: dict[str, list[float]] = {m: [] for m in MODES}
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        inst = instances[rounds % len(instances)]
        t0 = time.perf_counter()
        inst.set_up()
        setup.append(time.perf_counter() - t0)
        outcome.check_stats(inst)
        for mode, qi in inst.operations():
            t0 = time.perf_counter()
            if outcome.judge(inst, mode, qi, functools.partial(inst.call, mode, qi)):
                samples[mode].append(time.perf_counter() - t0)
        inst.release()
        rounds += 1

    def median(values: list[float]) -> float:
        return statistics.median(values) if values else float("nan")

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (median(setup), "s"),
        "query_s": (median(samples["correct"]), "s"),
        "oracle_s": (median(samples["oracle"]), "s"),
        "faulty2011_s": (median(samples["faulty2011"]), "s"),
        "faulty2014_s": (median(samples["faulty2014"]), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


# per-query values of the engine modes, reported once per mode
_PER_MODE = {
    "iur_tree.pair_bounds.calls": "count",
    "iur_tree.query_bounds.calls": "count",
    "iur_tree.bounds.s": "s",
    "nn_lists.update_with.calls": "count",
    "nn_lists.update_with.s": "s",
    "nn_lists.update_with.scanned": "count",
    "nn_lists.lists_created": "count",
    "nn_lists.is_complete.calls": "count",
    "nn_lists.is_complete.s": "s",
    "engine.dequeues": "count",
    "engine.verifications": "count",
    "engine.decisions.hit.node": "count",
    "engine.decisions.hit.object": "count",
    "engine.decisions.drop.node": "count",
    "engine.decisions.drop.object": "count",
    "engine.decisions.undecided": "count",
    "engine.self.s": "s",
}


def run_traced(instances: list[Instance], seconds: float, outcome: Outcome,
               spans_path: Path) -> dict:
    """Whole passes over the trace datasets, each pass untraced and then traced.

    Every pass repeats the same operations, so per-query counts do not depend
    on how many passes fit in ``seconds``.  The untraced half of each pass is
    the baseline for the tracing overhead.
    """
    tracer = Tracer()

    def timed(name: str, fn):
        def wrapper(*args):
            with tracer.span(name) as record:
                out = fn(*args)
            tracer.add(f"{name}.s", record["end"] - record["start"])
            return out
        return wrapper

    read = timed("datasets.read_dataset", read_dataset)
    build = timed("iur_tree.build_tree", build_tree)
    plain = traced = 0.0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        for inst in instances:
            inst.set_up()
            for mode, qi in inst.operations():
                outcome.judge(inst, mode, qi, functools.partial(inst.call, mode, qi))
            inst.release()
        t1 = time.perf_counter()
        with tracer.installed():
            for inst in instances:
                with tracer.span("setup"):
                    inst.set_up(read, build)
                outcome.check_stats(inst)
                for mode, qi in inst.operations():
                    call = functools.partial(inst.call, mode, qi)
                    if mode == "oracle":
                        with tracer.span("query.oracle"):
                            outcome.judge(inst, mode, qi, call)
                    else:
                        outcome.judge(inst, mode, qi, functools.partial(tracer.query, mode, call))
                inst.release()
        plain += t1 - t0
        traced += time.perf_counter() - t1
        passes += 1
    tracer.write_spans(spans_path)

    v = tracer.values
    rounds = passes * len(instances)
    runs = {mode: rounds * sum(m == mode for m, _ in instances[0].operations()) for mode in MODES}
    metrics: dict[str, tuple[float, str]] = {
        "datasets.read_dataset.s": (v["datasets.read_dataset.s"] / rounds, "s"),
        "iur_tree.build_tree.s": (v["iur_tree.build_tree.s"] / rounds, "s"),
        "core.compute_norm_stats.s": (v["core.compute_norm_stats.s"] / rounds, "s"),
        "core.sim_st.calls": (v["core.sim_st.calls"] / runs["oracle"], "count"),
        "oracle.kth_nn_sim.calls": (v["oracle.kth_nn_sim.calls"] / runs["oracle"], "count"),
        "trace.overhead_pct": (100.0 * (traced / plain - 1.0), "%"),
    }
    for mode in ENGINE_MODES:
        for name, unit in _PER_MODE.items():
            metrics[f"{name}.{mode}"] = (v[f"{name}.{mode}"] / runs[mode], unit)
        peak = f"nn_lists.tuples_live.peak.{mode}"
        metrics[peak] = (v[peak], "count")
        tests = v[f"engine.tests.{mode}"]
        decisive = tests - v[f"engine.decisions.undecided.{mode}"]
        metrics[f"engine.decisive_ratio.{mode}"] = (decisive / tests if tests else 0.0, "ratio")
    return metrics


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Seeded end-to-end benchmark of rstknn.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    try:
        count = workload.trace_datasets if args.trace else workload.datasets
        made = generate(workload, args.seed, work, count)
        instances = [Instance(path, queries, workload) for path, queries in made]
        if args.trace:
            spans = WORK / f"spans-{workload.name}-{args.seed}.jsonl"
            metrics = run_traced(instances, args.seconds, outcome, spans)
        else:
            metrics = run_untraced(instances, args.seconds, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in outcome.problems[:20]:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
