"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines inline.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rstknn.core import SimParams, TermVector, extended_jaccard, fdim_ratio
from rstknn.datasets import random_dataset, random_query
from rstknn.demo import EXPECTED_RESULT, two_cluster_fixture
from rstknn.engine import EngineAudit, Mode, rstknn_query
from rstknn.iur_tree import build_tree
from rstknn.oracle import (
    check_bound_sandwich,
    ej_dominance_counterexample,
    kth_nn_sim,
    rknn_bruteforce,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

SWEEP_SEEDS = range(500)
SWEEP_ALPHAS = (0.0, 0.4, 0.7, 1.0)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _sweep_instance(seed: int, *, max_n: int = 64):
    rng = random.Random(seed)
    n = rng.randint(2, max_n)
    vocab = rng.randint(1, 8)
    objects = random_dataset(rng, n, vocab)
    query = random_query(rng, vocab)
    params = SimParams(alpha=rng.choice(SWEEP_ALPHAS), k=rng.randint(1, 4))
    tree = build_tree(objects, rng.choice([2, 4]))
    return objects, tree, query, params, tree.norm_stats()


@pytest.fixture(scope="module")
def sweep500():
    """The 500-instance equivalence sweep, shared by criteria 2 and 5."""
    audit = EngineAudit()
    mismatches = []
    t0 = time.time()
    for seed in SWEEP_SEEDS:
        objects, tree, query, params, stats = _sweep_instance(seed)
        got, _ = rstknn_query(tree, query, params, stats=stats, audit=audit)
        want = rknn_bruteforce(objects, query, params, stats)
        if got != want:
            mismatches.append((seed, sorted(got), sorted(want)))
    elapsed = time.time() - t0
    return mismatches, audit, elapsed


def test_criterion_1_ej_counterexample_values():
    p = TermVector({"d0": 100.0, "d1": 30.0})
    p1 = TermVector({"d0": 1.0, "d1": 40.0})
    p2 = TermVector({"d0": 1.0, "d1": 50.0})
    e1 = extended_jaccard(p, p1)
    e2 = extended_jaccard(p, p2)
    dominance = all(
        fdim_ratio(a, b) >= fdim_ratio(a, c)
        for a, b, c in zip((100.0, 30.0), (1.0, 40.0), (1.0, 50.0))
    )
    ok = (
        abs(e1 - 0.116) <= 1e-3
        and abs(e2 - 0.135) <= 1e-3
        and dominance
        and ej_dominance_counterexample()
    )
    _report(
        "criterion 1: similarity-ordering counterexample reproduced",
        ok,
        f"EJ values {e1:.4f} / {e2:.4f}, coordinatewise dominance holds",
    )


def test_criterion_2_correct_mode_equals_bruteforce(sweep500):
    mismatches, _, elapsed = sweep500
    _report(
        "criterion 2: correct mode == brute force on 500 seeded instances",
        not mismatches and elapsed < 60.0,
        f"{len(SWEEP_SEEDS)} instances, {len(mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_3_committed_fault_fixtures():
    from rstknn.datasets import read_dataset

    failures = []
    for name, mode in (("faulty2011", Mode.FAULTY2011), ("faulty2014", Mode.FAULTY2014)):
        dataset = read_dataset(FIXTURES / f"{name}.dataset.jsonl")
        meta = json.loads((FIXTURES / f"{name}.meta.json").read_text())
        from rstknn.core import QueryObject

        query = QueryObject(
            (meta["query"]["x"], meta["query"]["y"]), TermVector(meta["query"]["terms"])
        )
        params = SimParams(alpha=meta["alpha"], k=meta["k"])
        tree = build_tree(dataset, meta["fanout"])
        stats = tree.norm_stats()
        oracle = rknn_bruteforce(dataset, query, params, stats)
        faulty, _ = rstknn_query(tree, query, params, mode, stats=stats)
        correct, _ = rstknn_query(tree, query, params, stats=stats)
        if faulty == oracle:
            failures.append(f"{name} agreed with the oracle")
        if correct != oracle:
            failures.append(f"correct mode diverged on the {name} fixture")
        if sorted(oracle) != meta["oracle_result"] or sorted(faulty) != meta["mode_result"]:
            failures.append(f"{name} fixture no longer reproduces its recorded results")
    _report(
        "criterion 3: committed fixtures separate both faulty modes from the oracle",
        not failures,
        "; ".join(failures) or "both fixtures reproduce",
    )


def test_criterion_3_bonus_unbalanced_topology_fixture():
    fx = two_cluster_fixture()
    tree = fx.build_tree()
    stats = tree.norm_stats()
    oracle = rknn_bruteforce(list(fx.objects), fx.query, fx.params, stats)
    correct, _ = rstknn_query(tree, fx.query, fx.params, stats=stats)
    f11, trace11 = rstknn_query(tree, fx.query, fx.params, Mode.FAULTY2011, stats=stats)
    f14, _ = rstknn_query(tree, fx.query, fx.params, Mode.FAULTY2014, stats=stats)
    cluster = {"P2", "P3", "P4", "P5"}
    ok = (
        abs(stats.phi_s - 7.07) <= 5e-3
        and oracle == EXPECTED_RESULT
        and correct == EXPECTED_RESULT
        and cluster <= f11
        and f11 != oracle
        and f14 != oracle
        and set(trace11[0].rol) == cluster  # subtree accepted at the first step
    )
    _report(
        "criterion 3 bonus: unbalanced two-cluster fixture reproduces both faults",
        ok,
        f"correct={sorted(correct)}, faulty2011={sorted(f11)}, faulty2014={sorted(f14)}",
    )


def test_criterion_4_bound_sandwich_50_trees():
    t0 = time.time()
    violations = []
    node_pairs = 0
    for seed in range(50):
        rng = random.Random(9000 + seed)
        n = rng.randint(8, 128)
        objects = random_dataset(rng, n, rng.randint(1, 8))
        tree = build_tree(objects, rng.choice([2, 4]))
        stats = tree.norm_stats()
        params = SimParams(alpha=rng.choice(SWEEP_ALPHAS), k=rng.randint(1, 4))
        report = check_bound_sandwich(tree, params, stats, query=random_query(rng, 8))
        node_pairs += report.node_pairs
        violations.extend(report.violations)
    elapsed = time.time() - t0
    _report(
        "criterion 4: zero bound violations over 50 random trees",
        not violations and elapsed < 30.0,
        f"{node_pairs} node pairs checked, {len(violations)} violations, {elapsed:.1f}s",
    )


def test_criterion_5_completeness_check_always_passes(sweep500):
    _, audit, _ = sweep500
    ok = audit.completeness_evaluations > 0 and audit.completeness_failures == 0
    _report(
        "criterion 5: list-completeness assertion never fired",
        ok,
        f"{audit.completeness_evaluations} evaluations, {audit.completeness_failures} failures",
    )


def test_criterion_6_knn_bound_sandwiches():
    checked = 0
    bad = []
    for seed in range(100):
        objects, tree, query, params, stats = _sweep_instance(20_000 + seed, max_n=32)
        true_kth = {
            o.id: kth_nn_sim(o, objects, params.k, params, stats) for o in objects
        }
        audit = EngineAudit(record_bounds=True)
        rstknn_query(tree, query, params, stats=stats, audit=audit)
        for owner, lower, upper in audit.bound_records:
            for oid in tree.subtree_ids(owner):
                if lower is not None:
                    checked += 1
                    if not true_kth[oid] >= lower:  # exact, no tolerance
                        bad.append((seed, owner.label, oid, "lower", lower, true_kth[oid]))
                if upper is not None:
                    checked += 1
                    if not true_kth[oid] <= upper:
                        bad.append((seed, owner.label, oid, "upper", upper, true_kth[oid]))
    _report(
        "criterion 6: every defined k-NN bound sandwiches the true value exactly",
        checked > 0 and not bad,
        f"{checked} bound comparisons over 100 instances, {len(bad)} violations",
    )


def test_criterion_7_cli_determinism(tmp_path):
    dataset = tmp_path / "d.jsonl"
    gen = [sys.executable, "-m", "rstknn.cli", "gen", "--seed", "11", "--n", "32",
           "--out", str(dataset)]
    subprocess.run(gen, check=True, capture_output=True)
    first_bytes = dataset.read_bytes()
    subprocess.run(gen, check=True, capture_output=True)
    runs = []
    for run in range(2):
        trace = tmp_path / f"trace{run}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "rstknn.cli", "query", str(dataset),
             "--qx", "50", "--qy", "50", "--qterms", "t0=3,t2=1", "--k", "3",
             "--alpha", "0.7", "--fanout", "2", "--trace", "--out", str(trace)],
            check=True, capture_output=True,
        )
        runs.append((proc.stdout, trace.read_bytes()))
    ok = dataset.read_bytes() == first_bytes and runs[0] == runs[1]
    _report(
        "criterion 7: identical seeds and flags give byte-identical outputs",
        ok,
        "gen file, result listing and JSONL trace all stable across runs",
    )
