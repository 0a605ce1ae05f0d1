import json
import math
import random

import pytest

from rstknn.core import QueryObject, STObject, SimParams, TermVector, sim_st
from rstknn.datasets import random_dataset, random_query
from rstknn.demo import EXPECTED_RESULT, two_cluster_fixture
from rstknn.engine import (
    EngineAudit,
    EngineState,
    Mode,
    _run_correct,
    final_verification,
    format_trace_table,
    rstknn_query,
    trace_to_jsonl,
)
from rstknn.iur_tree import build_tree, node_entry, object_entry, tree_from_layout
from rstknn.nn_lists import NNLists
from rstknn.oracle import rknn_bruteforce


def _collinear():
    objs = [
        STObject("a", (0.0, 0.0), TermVector()),
        STObject("b", (1.0, 0.0), TermVector()),
        STObject("c", (10.0, 0.0), TermVector()),
    ]
    q = QueryObject((0.4, 0.0), TermVector())
    return objs, q, SimParams(alpha=1.0, k=1)


def test_singleton_dataset_returns_itself():
    tree = build_tree([STObject("only", (3.0, 4.0), TermVector({"a": 1.0}))])
    for k in (1, 2, 5):
        result, trace = rstknn_query(tree, QueryObject((0.0, 0.0), TermVector()),
                                     SimParams(alpha=0.5, k=k))
        assert result == {"only"}
        assert trace  # at least the root dequeue is recorded


def test_collinear_example():
    objs, q, params = _collinear()
    tree = build_tree(objs)
    result, _ = rstknn_query(tree, q, params)
    assert result == {"a", "b"}
    assert result == rknn_bruteforce(objs, q, params, tree.norm_stats())


def test_subtree_objects():
    fx = two_cluster_fixture()
    tree = fx.build_tree()
    assert tree.subtree_objects(object_entry("P3")) == ["P3"]
    assert tree.subtree_objects(tree.root_entry()) == sorted(o.id for o in fx.objects)
    assert tree.subtree_objects(node_entry(2)) == ["P2", "P3", "P4", "P5"]


def test_two_cluster_fixture_correct_mode_matches_oracle():
    fx = two_cluster_fixture()
    tree = fx.build_tree()
    stats = tree.norm_stats()
    assert stats.phi_s == pytest.approx(7.07, abs=5e-3)  # min pair = sqrt(50)
    result, trace = rstknn_query(tree, fx.query, fx.params, stats=stats)
    assert result == EXPECTED_RESULT
    assert result == rknn_bruteforce(list(fx.objects), fx.query, fx.params, stats)
    # first step mirrors the expected expansion of the root
    assert trace[0].action == "Dequeue N0, Enqueue N1, Enqueue N2"
    assert trace[0].u == ["N1", "N2"]
    # the cluster leaf N4 is pruned whole; its sibling objects survive to the
    # verification pass, where each is settled against exact point bounds
    assert any(ev.action == "Dequeue N4" and "N4" in ev.pel for ev in trace)
    verify_p2 = next(ev for ev in trace if ev.action == "Verify P2")
    assert "P2" in verify_p2.pel and "P2" not in verify_p2.col


def test_two_cluster_fixture_faulty2011_accepts_cluster_subtree():
    fx = two_cluster_fixture()
    tree = fx.build_tree()
    stats = tree.norm_stats()
    result, trace = rstknn_query(tree, fx.query, fx.params, Mode.FAULTY2011, stats=stats)
    oracle = rknn_bruteforce(list(fx.objects), fx.query, fx.params, stats)
    assert result > oracle  # strict superset: the whole N2 subtree is included
    assert {"P2", "P3", "P4", "P5"} <= result
    # the wrong accept happens at the very first step, before N2 knows itself
    assert set(trace[0].rol) == {"P2", "P3", "P4", "P5"}


def test_two_cluster_fixture_faulty2014_accepts_n3_without_n4():
    fx = two_cluster_fixture()
    tree = fx.build_tree()
    stats = tree.norm_stats()
    result, trace = rstknn_query(tree, fx.query, fx.params, Mode.FAULTY2014, stats=stats)
    oracle = rknn_bruteforce(list(fx.objects), fx.query, fx.params, stats)
    assert result != oracle
    assert {"P2", "P3"} <= result  # N3's subtree got in while its list lacked N4
    # N1 survives the first step in this mode (no early mutual hit)
    assert "N1" in trace[0].u


def test_two_cluster_bound_values_drive_the_faults():
    # independently recomputed spatial bounds behind the two wrong accepts
    fx = two_cluster_fixture()
    tree = fx.build_tree()
    stats = tree.norm_stats()
    from rstknn.iur_tree import max_sim_st, min_sim_st

    delta = math.sqrt(6389) - math.sqrt(50)

    def s(dist):
        return 1.0 - (dist - math.sqrt(50)) / delta

    n1, n2 = node_entry(1), node_entry(2)
    assert min_sim_st(tree, n2, fx.query, fx.params, stats) == pytest.approx(
        s(math.sqrt(845)), abs=1e-12
    )
    assert max_sim_st(tree, n2, n1, fx.params, stats) == pytest.approx(
        s(math.sqrt(2525)), abs=1e-12
    )
    # the false accept: optimistic 2-NN evidence from N1 alone is below the
    # pessimistic query similarity of N2
    assert min_sim_st(tree, n2, fx.query, fx.params, stats) > max_sim_st(
        tree, n2, n1, fx.params, stats
    )


def test_final_verification_empty_col_is_noop():
    fx = two_cluster_fixture()
    tree = fx.build_tree()
    stats = tree.norm_stats()
    state = EngineState(u=__import__("collections").deque(), col=[], rol=["P0"],
                        pel=[], lists={}, trace=[])
    final_verification(state, tree, fx.query, fx.params, stats)
    assert state.rol == ["P0"] and not state.trace


def test_trace_partition_invariant():
    # at every recorded step each object sits in exactly one bucket
    for seed in range(25):
        rng = random.Random(seed)
        objs = random_dataset(rng, rng.randint(2, 32), 5)
        q = random_query(rng, 5)
        params = SimParams(alpha=rng.choice([0.0, 0.4, 1.0]), k=rng.randint(1, 3))
        tree = build_tree(objs, rng.choice([2, 4]))
        label_to_ids = {}
        for e in tree.iter_node_entries():
            label_to_ids[e.label] = list(tree.subtree_ids(e))
        for o in objs:
            label_to_ids[o.id] = [o.id]
        _, trace = rstknn_query(tree, q, params)
        for ev in trace:
            seen = []
            for label in ev.u + ev.col + ev.pel:
                seen.extend(label_to_ids[label])
            seen.extend(ev.rol)
            assert sorted(seen) == sorted(o.id for o in objs), f"step {ev.step}"


def _mirror_layout(tree, node_id):
    """The tree's layout with children and leaf objects reversed at every level."""
    node = tree.nodes[node_id]
    if node.is_leaf:
        return list(reversed(node.object_ids))
    return [_mirror_layout(tree, c) for c in reversed(node.child_ids)]


def test_fifo_order_indifference():
    # a tree and its mirror enqueue siblings in opposite orders; the result
    # set must not change
    for seed in range(40):
        rng = random.Random(1000 + seed)
        objs = random_dataset(rng, rng.randint(2, 32), 5)
        q = random_query(rng, 5)
        params = SimParams(alpha=rng.choice([0.0, 0.7, 1.0]), k=rng.randint(1, 3))
        tree = build_tree(objs, rng.choice([2, 4]))
        mirror = tree_from_layout(objs, _mirror_layout(tree, tree.root_id))
        forward, _ = rstknn_query(tree, q, params)
        backward, _ = rstknn_query(mirror, q, params)
        assert forward == backward


def test_correct_mode_keeps_only_candidate_lists():
    # routed and expanded entries free their NN-lists in the main loop; only
    # the candidates settled by final_verification keep theirs
    candidates = 0
    for seed in range(30):
        rng = random.Random(500 + seed)
        objs = random_dataset(rng, rng.randint(1, 40), 5)
        q = random_query(rng, 5)
        params = SimParams(alpha=rng.choice([0.0, 0.4, 1.0]), k=rng.randint(1, 4))
        tree = build_tree(objs, rng.choice([2, 3, 4]))
        state = _run_correct(tree, q, params, tree.norm_stats(), None)
        verified = {ev.action.removeprefix("Verify ") for ev in state.trace
                    if ev.action.startswith("Verify")}
        assert {e.label for e in state.lists} == verified
        candidates += len(verified)
    assert candidates > 0


def _assert_tiles(lists):
    """The tuples' preorder spans tile [0, n) exactly once."""
    end = 0
    for lo, hi in sorted(lists.tree.record(t.entry).span for t in lists.tuples()):
        assert lo == end, f"{lists.owner.label}: gap or overlap at position {end}"
        end = hi
    assert end == lists.tree.size, f"{lists.owner.label}: positions from {end} uncovered"


def test_correct_mode_lists_stay_partitions(monkeypatch, equal_span_trees):
    # every change to a correct-mode list goes through one of these methods,
    # so checking the changed list after each call checks every live list
    # after every refinement
    checks = []

    def checked(method):
        def wrapper(self, *args, **kwargs):
            out = method(self, *args, **kwargs)
            _assert_tiles(self)
            checks.append(method.__name__)
            return out
        return wrapper

    for name in ("split", "update_with", "refine", "add_self"):
        monkeypatch.setattr(NNLists, name, checked(getattr(NNLists, name)))
    inherit = NNLists.__dict__["inherited"].__func__

    def inherited(cls, child, parent_lists):
        lists = inherit(cls, child, parent_lists)
        _assert_tiles(lists)
        return lists

    monkeypatch.setattr(NNLists, "inherited", classmethod(inherited))
    rng = random.Random(4242)
    trees = [build_tree(random_dataset(rng, rng.randint(1, 40), 5), fanout)
             for fanout in (2, 3, 4, 8) for _ in range(6)]
    for tree in trees + equal_span_trees:
        objs = tree.objects_sorted()
        stats = tree.norm_stats()
        for _ in range(3):
            q = random_query(rng, 5)
            params = SimParams(alpha=rng.choice([0.0, 0.4, 1.0]),
                               k=rng.choice([1, 2, 4, len(objs), len(objs) + 1]))
            got, _ = rstknn_query(tree, q, params, stats=stats, audit=EngineAudit())
            assert got == rknn_bruteforce(objs, q, params, stats)
    assert checks.count("refine") > 1000


def test_each_entry_enqueued_at_most_once():
    fx = two_cluster_fixture()
    tree = fx.build_tree()
    _, trace = rstknn_query(tree, fx.query, fx.params)
    dequeued = [ev.action.split(",")[0].removeprefix("Dequeue ").strip()
                for ev in trace if ev.action.startswith("Dequeue")]
    assert len(dequeued) == len(set(dequeued))


def test_audit_counts_and_bound_records():
    fx = two_cluster_fixture()
    tree = fx.build_tree()
    audit = EngineAudit(record_bounds=True)
    result, trace = rstknn_query(tree, fx.query, fx.params, audit=audit)
    assert result == EXPECTED_RESULT
    assert audit.completeness_failures == 0
    # one gate evaluation per dequeue plus one per verified candidate
    assert audit.completeness_evaluations == len(trace)
    assert audit.bound_records
    for owner, lower, upper in audit.bound_records:
        if lower is not None and upper is not None:
            assert lower <= upper or upper == float("-inf")


def test_knn_bound_sandwich_against_bruteforce():
    # every recorded lower/upper k-NN bound must sandwich the true k-th
    # neighbor similarity of every object under the owner, with no tolerance
    for seed in range(60):
        rng = random.Random(7000 + seed)
        objs = random_dataset(rng, rng.randint(2, 24), 5)
        q = random_query(rng, 5)
        params = SimParams(alpha=rng.choice([0.0, 0.4, 1.0]), k=rng.randint(1, 3))
        tree = build_tree(objs, rng.choice([2, 4]))
        stats = tree.norm_stats()
        by_id = {o.id: o for o in objs}
        true_kth = {}
        for o in objs:
            sims = sorted(
                (sim_st(o, other, params, stats) for other in objs if other.id != o.id),
                reverse=True,
            )
            true_kth[o.id] = sims[params.k - 1] if len(sims) >= params.k else float("-inf")
        audit = EngineAudit(record_bounds=True)
        rstknn_query(tree, q, params, stats=stats, audit=audit)
        assert audit.bound_records
        for owner, lower, upper in audit.bound_records:
            for oid in tree.subtree_ids(owner):
                if lower is not None:
                    assert true_kth[oid] >= lower
                if upper is not None:
                    assert true_kth[oid] <= upper


def test_faulty2014_matches_oracle_on_trivial_flat_tree():
    # a root whose children are all points leaves nothing for the missing
    # completeness gate to miss, so the 2014 variant coincides with brute
    # force; the 2011 variant still accepts c early off its weakest neighbor
    objs = [
        STObject("a", (0.0, 0.0), TermVector()),
        STObject("b", (10.0, 0.0), TermVector()),
        STObject("c", (20.0, 0.0), TermVector()),
    ]
    q = QueryObject((1.0, 0.0), TermVector())
    params = SimParams(alpha=1.0, k=1)
    tree = build_tree(objs, 4)  # single leaf root
    assert tree.nodes[tree.root_id].is_leaf
    oracle = rknn_bruteforce(objs, q, params, tree.norm_stats())
    assert oracle == {"a", "b"}
    assert rstknn_query(tree, q, params, Mode.FAULTY2014)[0] == oracle
    assert rstknn_query(tree, q, params, Mode.FAULTY2011)[0] == {"a", "b", "c"}


def test_faulty2011_can_coincide_with_oracle():
    # the bug is conditional: with two objects every similarity degenerates
    # to the same constant and both sides return the empty set
    objs = [
        STObject("a", (0.0, 0.0), TermVector()),
        STObject("b", (10.0, 0.0), TermVector()),
    ]
    q = QueryObject((3.0, 0.0), TermVector())
    params = SimParams(alpha=1.0, k=1)
    tree = build_tree(objs, 4)
    oracle = rknn_bruteforce(objs, q, params, tree.norm_stats())
    assert rstknn_query(tree, q, params, Mode.FAULTY2011)[0] == oracle == set()


def test_trace_table_and_jsonl_round_trip():
    fx = two_cluster_fixture()
    tree = fx.build_tree()
    _, trace = rstknn_query(tree, fx.query, fx.params)
    table = format_trace_table(trace)
    lines = table.splitlines()
    assert lines[0].split(" | ")[0].strip() == "Steps"
    header = [c.strip() for c in lines[0].split("|")]
    assert header == ["Steps", "Actions", "U", "COL", "ROL", "PEL"]
    assert len(lines) == len(trace) + 2  # header + rule + one row per event
    jsonl = trace_to_jsonl(trace)
    rows = [json.loads(line) for line in jsonl.splitlines()]
    assert [r["step"] for r in rows] == [ev.step for ev in trace]
    assert rows[0]["U"] == trace[0].u
    assert all(set(r) == {"step", "action", "U", "COL", "ROL", "PEL"} for r in rows)


def test_steps_strictly_increasing():
    fx = two_cluster_fixture()
    tree = fx.build_tree()
    for mode in Mode:
        _, trace = rstknn_query(tree, fx.query, fx.params, mode)
        steps = [ev.step for ev in trace]
        assert steps == sorted(set(steps))


def test_clustered_data_exercises_node_level_hits():
    # tight clusters make whole-node accepts reachable; the result must still
    # match brute force whenever they fire
    from rstknn.datasets import _random_terms

    node_hits = 0
    for seed in range(120):
        rng = random.Random(80_000 + seed)
        objs = []
        for c in range(rng.randint(2, 6)):
            cx, cy = rng.randint(0, 120) * 3, rng.randint(0, 120) * 3
            for _ in range(rng.randint(2, 4)):
                objs.append(
                    STObject(
                        f"P{len(objs)}",
                        (float(cx + rng.randint(0, 3)), float(cy + rng.randint(0, 3))),
                        _random_terms(rng, 4),
                    )
                )
        q = QueryObject(
            (float(rng.randint(0, 360)), float(rng.randint(0, 360))),
            _random_terms(rng, 4),
        )
        params = SimParams(alpha=rng.choice([0.3, 0.7, 1.0]), k=rng.randint(1, 3))
        tree = build_tree(objs, rng.choice([2, 4]))
        stats = tree.norm_stats()
        got, trace = rstknn_query(tree, q, params, stats=stats)
        assert got == rknn_bruteforce(objs, q, params, stats)
        prev = 0
        for ev in trace:
            if ev.action.split(",")[0].startswith("Dequeue N") and len(ev.rol) - prev > 1:
                node_hits += 1
            prev = len(ev.rol)
    assert node_hits > 0  # the whole-subtree accept path actually ran


def test_correct_mode_random_verification_empties_col():
    for seed in range(30):
        rng = random.Random(333 + seed)
        objs = random_dataset(rng, rng.randint(2, 40), 6)
        q = random_query(rng, 6)
        params = SimParams(alpha=rng.choice([0.0, 0.4, 0.7, 1.0]), k=rng.randint(1, 4))
        tree = build_tree(objs, rng.choice([2, 4]))
        stats = tree.norm_stats()
        result, trace = rstknn_query(tree, q, params, stats=stats)
        assert trace[-1].col == []  # verification always empties the candidates
        assert result == rknn_bruteforce(objs, q, params, stats)
