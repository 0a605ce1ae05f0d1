import itertools
import json
import math
import random

import numpy as np
import pytest
from conftest import extreme_instance, offgrid_instance

from rstknn.core import QueryObject, STObject, SimParams, TermVector, sim_st
from rstknn.datasets import random_dataset, random_query
from rstknn.demo import EXPECTED_RESULT, two_cluster_fixture
from rstknn.engine import (
    CompletenessViolation,
    EngineAudit,
    EngineState,
    Mode,
    _run_correct,
    _run_faulty,
    final_verification,
    format_trace_table,
    rstknn_query,
    trace_to_jsonl,
)
from rstknn.iur_tree import build_tree, node_entry, object_entry, tree_from_layout
from rstknn import engine, iur_tree, nn_lists
from rstknn.nn_lists import Row, Rows, Verdict, is_hit_or_drop
from rstknn.oracle import kth_nn_sim, rknn_bruteforce


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


@pytest.mark.parametrize("mode", list(Mode))
def test_trace_columns_are_label_lists_fixed_at_snapshot_time(monkeypatch, mode):
    # an event keeps the entries it copied and makes the labels on read:
    # each read is a fresh list of strings, equal to the last, and equal to
    # what the event showed when it was taken, however the run went on
    shown = []
    snapshot = EngineState.snapshot

    def recording(self, action):
        snapshot(self, action)
        ev = self.trace[-1]
        shown.append((ev.u, ev.col, ev.rol, ev.pel))

    monkeypatch.setattr(EngineState, "snapshot", recording)
    fx = two_cluster_fixture()
    _, trace = rstknn_query(fx.build_tree(), fx.query, fx.params, mode)
    assert len(trace) == len(shown) > 1
    assert len({tuple(map(tuple, columns)) for columns in shown}) > 1
    for ev, columns in zip(trace, shown):
        for read in (ev.u, ev.col, ev.rol, ev.pel):
            assert type(read) is list and all(type(label) is str for label in read)
        assert ev.u is not ev.u
        ev.u.append("changed")  # the caller's own copy
        assert (ev.u, ev.col, ev.rol, ev.pel) == columns


def test_correct_mode_snapshots_are_windows_into_four_lists():
    # the correct mode only appends to its columns and takes entries off the
    # front of U and COL, so every event's columns are windows into the same
    # four lists: a trace copies no column
    verified = set()
    for seed in range(20):
        rng = random.Random(900 + seed)
        objs = random_dataset(rng, rng.randint(2, 40), 5)
        params = SimParams(alpha=rng.choice([0.0, 0.4, 1.0]), k=rng.randint(1, 4))
        _, trace = rstknn_query(build_tree(objs, rng.choice([2, 4])), random_query(rng, 5), params)
        held = {id(window[0]) for ev in trace for window in (ev._u, ev._col, ev._rol, ev._pel)}
        assert len(held) == 4
        verified.add(any(ev.action.startswith("Verify") for ev in trace))
    assert verified == {True, False}


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
    state = EngineState(u=__import__("collections").deque(), col=[], rol=["P0"],
                        pel=[], trace=[])
    final_verification(state, Rows(tree, fx.query, fx.params, tree.norm_stats()))
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
            label_to_ids[e.label] = tree.subtree_objects(e)
        for o in objs:
            label_to_ids[o.id] = [o.id]
        _, trace = rstknn_query(tree, q, params)
        for ev in trace:
            seen = []
            for label in ev.u + ev.col + ev.pel:
                seen.extend(label_to_ids[label])
            seen.extend(ev.rol)
            assert sorted(seen) == sorted(o.id for o in objs), f"step {ev.step}"


def _mirror_layout(tree, entry):
    """The tree's layout with children and leaf objects reversed at every level."""
    children = tree.children(entry)[::-1]
    if children[0].is_object:
        return [c.ident for c in children]
    return [_mirror_layout(tree, c) for c in children]


def test_fifo_order_indifference():
    # a tree and its mirror enqueue siblings in opposite orders; the result
    # set must not change
    for seed in range(40):
        rng = random.Random(1000 + seed)
        objs = random_dataset(rng, rng.randint(2, 32), 5)
        q = random_query(rng, 5)
        params = SimParams(alpha=rng.choice([0.0, 0.7, 1.0]), k=rng.randint(1, 3))
        tree = build_tree(objs, rng.choice([2, 4]))
        mirror = tree_from_layout(objs, _mirror_layout(tree, tree.root_entry()))
        forward, _ = rstknn_query(tree, q, params)
        backward, _ = rstknn_query(mirror, q, params)
        assert forward == backward


def test_correct_mode_frees_every_list(monkeypatch):
    # every owner, node or object, decides on its row, and an unaudited run
    # makes no NN-list at all, not even for the candidates that
    # final_verification settles: no list outlives the run
    made = []
    init = nn_lists.NNLists.__init__
    monkeypatch.setattr(nn_lists.NNLists, "__init__",
                        lambda lists, owner, *args: made.append(owner) or init(lists, owner, *args))
    candidates = 0
    for seed in range(30):
        rng = random.Random(500 + seed)
        objs = random_dataset(rng, rng.randint(1, 40), 5)
        q = random_query(rng, 5)
        params = SimParams(alpha=rng.choice([0.0, 0.4, 1.0]), k=rng.randint(1, 4))
        tree = build_tree(objs, rng.choice([2, 3, 4]))
        state = _run_correct(tree, q, params, tree.norm_stats(), None)
        assert made == [] and not hasattr(state, "lists")
        candidates += sum(ev.action.startswith("Verify") for ev in state.trace)
    assert candidates > 0


@pytest.mark.parametrize("locality", [False, True], ids=["faulty2011", "faulty2014"])
def test_legacy_modes_keep_only_candidate_lists(monkeypatch, locality):
    # a legacy run frees the list of every routed or expanded entry: only
    # the candidates left for the final verification keep theirs
    kept = []
    verify = engine._faulty_final_verification
    monkeypatch.setattr(engine, "_faulty_final_verification",
                        lambda state, tree, hits, live: kept.append(set(live))
                        or verify(state, tree, hits, live))
    candidates = 0
    for seed in range(60):
        rng = random.Random(500 + seed)
        objs = random_dataset(rng, rng.randint(1, 40), 5)
        q = random_query(rng, 5)
        params = SimParams(alpha=rng.choice([0.0, 0.4, 1.0]), k=rng.randint(1, 4))
        tree = build_tree(objs, rng.choice([2, 3, 4]))
        state = _run_faulty(tree, q, params, tree.norm_stats(), locality=locality)
        verified = {ev.action.removeprefix("Verify ") for ev in state.trace
                    if ev.action.startswith("Verify")}
        assert {e.label for e in kept.pop()} == verified
        candidates += len(verified)
    assert candidates > 0


def _assert_tiles(lists):
    """The tuples' preorder spans tile [0, n) exactly once, but for an object
    owner's own position, which no tuple holds."""
    spans = [lists.tree.record(t[0]).span for t in lists.tuples()]
    if lists.owner.is_object:
        assert lists.owner not in lists
        spans.append(lists.tree.record(lists.owner).span)
    end = 0
    for lo, hi in sorted(spans):
        assert lo == end, f"{lists.owner.label}: gap or overlap at position {end}"
        end = hi
    assert end == lists.tree.size, f"{lists.owner.label}: positions from {end} uncovered"


def test_correct_mode_lists_stay_partitions(monkeypatch, equal_span_trees):
    # every decision of an audited run walks its row's reference list:
    # direct bounds against every other frontier entry, and a node's
    # self-tuple.  Its spans tile [0, n), an object's but for its own
    # position: the frontier partitions the dataset and a node accounts
    # for its own points
    checks = []
    reference = Row.reference

    def checked(row):
        lists = reference(row)
        _assert_tiles(lists)
        checks.append(row.owner)
        return lists

    monkeypatch.setattr(Row, "reference", checked)
    rng = random.Random(4242)
    trees = [build_tree(random_dataset(rng, rng.randint(1, 40), 5), fanout)
             for fanout in (2, 3, 4, 8) for _ in range(6)]
    for tree in trees + equal_span_trees:
        objs = list(tree.objects.values())
        stats = tree.norm_stats()
        for _ in range(3):
            q = random_query(rng, 5)
            params = SimParams(alpha=rng.choice([0.0, 0.4, 1.0]),
                               k=rng.choice([1, 2, 4, len(objs), len(objs) + 1]))
            got, _ = rstknn_query(tree, q, params, stats=stats, audit=EngineAudit())
            assert got == rknn_bruteforce(objs, q, params, stats)
    assert sum(e.is_node for e in checks) > 600 and sum(e.is_object for e in checks) > 600


def test_audited_offgrid_sweep_records_one_bound_per_decision():
    # the off-grid digest's first 100 instances (Gaussian data, duplicate
    # locations, chain layouts), audited: every decision, of a node row, an
    # object row or a verification, walks its reference list and records
    # its bounds, in trace order, and the answer is brute force's
    decisions = 0
    for i in range(100):
        objects, query, tree, rng = offgrid_instance(i)
        n, stats = len(objects), tree.norm_stats()
        for alpha in (0.0, 0.4, 1.0):
            params = SimParams(alpha, rng.choice([1, 2, 3, n, n + 1]))
            audit = EngineAudit()
            got, trace = rstknn_query(tree, query, params, stats=stats, audit=audit)
            assert got == rknn_bruteforce(objects, query, params, stats)
            owners = [ev.action.split(",")[0].split(" ")[1] for ev in trace]
            assert [owner.label for owner, _, _ in audit.bound_records] == owners
            decisions += len(owners)
    assert decisions > 3000


def test_a_query_similarity_of_minus_infinity_is_never_a_hit():
    # far query: every query similarity is -inf at alpha > 0.  With k >= n
    # every k-th-neighbour similarity is -inf too, and -inf > -inf is false,
    # so nothing is in the result; the rule is the lists' and the rows'
    objs = [STObject(i, (-1e308, y), TermVector({t: 1.0}))
            for i, y, t in (("a", 0.0, "t"), ("b", 5.0, "t"), ("c", 9.0, "u"))]
    query = QueryObject((1e308, 0.0), TermVector({"t": 1.0}))
    for layout in ([["a", "b", "c"]], [["a", "b"], ["c"]], [["a"], [["b"], ["c"]]]):
        tree = tree_from_layout(objs, layout)
        stats = tree.norm_stats()
        for alpha, k in itertools.product((0.4, 1.0), (1, 2, 3, 4)):
            params = SimParams(alpha, k)
            assert rknn_bruteforce(objs, query, params, stats) == set()
            assert rstknn_query(tree, query, params, stats=stats, audit=EngineAudit())[0] == set()
            for mode in (Mode.FAULTY2011, Mode.FAULTY2014):
                assert rstknn_query(tree, query, params, mode, stats=stats)[0] == set()
            for entry in (node_entry(1), object_entry("a")):
                lists = nn_lists.NNLists(entry, tree, query, params, stats)
                assert lists.optimistic == lists.pessimistic == -math.inf
                assert is_hit_or_drop(lists) is lists.walked_verdict(gated=False) is Verdict.DROP
                assert lists.walked_verdict() is Verdict.DROP
    # a node whose pessimistic query similarity alone is -inf is no hit: its
    # far object may have a k-th neighbour similarity of -inf
    objs.append(STObject("d", (0.0, 0.0), TermVector({"t": 1.0})))
    tree = tree_from_layout(objs, [["a", "d"], ["b", "c"]])
    lists = nn_lists.NNLists(node_entry(1), tree, query, SimParams(0.5, 4), tree.norm_stats())
    assert lists.pessimistic == -math.inf < lists.optimistic
    assert (is_hit_or_drop(lists) is lists.walked_verdict(gated=False)
            is lists.walked_verdict() is Verdict.UNDECIDED)


def test_audited_extreme_magnitude_sweep_matches_bruteforce():
    # the extreme digest's 300 instances: coordinates from 1e-300 to 1e300,
    # weights from 1e-150 to 1e150, far queries, k from 1 to n + 1 and
    # fanouts 2, 3 and 8.  No similarity is NaN, many are -inf with k >= n,
    # and every audited answer is brute force's
    far_runs = 0
    for i in range(300):
        objects, query, tree, rng = extreme_instance(i)
        n, stats = len(objects), tree.norm_stats()
        for alpha in (0.0, 0.4, 1.0):
            params = SimParams(alpha, rng.choice(range(1, n + 2)))
            sims = [sim_st(o, query, params, stats) for o in objects]
            assert not any(map(math.isnan, sims))
            far_runs += params.k >= n and -math.inf in sims
            got, _ = rstknn_query(tree, query, params, stats=stats, audit=EngineAudit())
            assert got == rknn_bruteforce(objects, query, params, stats)
    assert far_runs > 20


def test_node_rows_decide_alike_in_tiles_of_any_size(monkeypatch, equal_span_trees):
    # tiles taller than the tree bound all owners of a kind in one call;
    # tiles of two rows take many calls, skip the entries under decided
    # ones, and decide every query step for step as one tile per kind does
    rng = random.Random(77)
    trees = [build_tree(random_dataset(rng, rng.randint(1, 40), 5), fanout)
             for fanout in (2, 3, 4) for _ in range(4)] + equal_span_trees
    runs = []
    for tree in trees:
        for _ in range(2):
            q = random_query(rng, 5)
            params = SimParams(rng.choice([0.0, 0.4, 1.0]), rng.choice([1, 2, 4, tree.size]))
            runs.append((tree, q, params))
    calls, decided = [], []
    bounds, decide = iur_tree.EntryArrays.bounds, Rows.decided

    def counted(arrays, owners, *args):
        first, count = arrays.first, arrays.count
        under = [d for d in decided for j in owners.tolist()
                 if first[d] <= first[j] < first[d] + count[d]]
        calls.append((len(owners), bool(owners[0] < arrays.nodes), under))
        return bounds(arrays, owners, *args)

    def recorded(rows, entry):
        decided.append(rows.arrays.index[entry])
        decide(rows, entry)

    monkeypatch.setattr(iur_tree.EntryArrays, "bounds", counted)
    monkeypatch.setattr(Rows, "decided", recorded)
    monkeypatch.setattr(nn_lists, "_TILE_ROWS", 10**6)
    one_tile = []
    for tree, q, params in runs:
        before, decided[:] = len(calls), []
        got, trace = rstknn_query(tree, q, params)
        kinds = {ev.action.split(",")[0].split(" ")[1].startswith("N") for ev in trace}
        assert sorted(kind for _, kind, _ in calls[before:]) == sorted(kinds)
        one_tile.append((got, trace_to_jsonl(trace)))
    calls.clear()
    monkeypatch.setattr(nn_lists, "_TILE_ROWS", 2)
    skipped = 0
    for (tree, q, params), want in zip(runs, one_tile):
        decided[:] = []
        got, trace = rstknn_query(tree, q, params, audit=EngineAudit())
        assert (got, trace_to_jsonl(trace)) == want
        skipped += tree.entry_arrays().nodes - sum(
            ev.action.startswith("Dequeue N") for ev in trace)
    assert max(size for size, _, _ in calls) == 2 and len(calls) > 2 * len(runs)
    assert {kind for _, kind, _ in calls} == {True, False}
    assert all(not under for _, _, under in calls)  # no row for an entry under a decided one
    assert skipped > 0


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
    audit = EngineAudit()
    result, trace = rstknn_query(tree, fx.query, fx.params, audit=audit)
    assert result == EXPECTED_RESULT
    # one gate evaluation per dequeue plus one per verified candidate
    assert len(audit.bound_records) == len(trace)
    assert audit.bound_records
    for owner, lower, upper in audit.bound_records:
        if lower is not None and upper is not None:
            assert lower <= upper or upper == float("-inf")


def test_audit_catches_a_row_that_disagrees_with_its_reference_list(monkeypatch):
    # an audited run walks each row's reference list; an object row whose
    # counts accept where the walks would not is caught there
    decide = Row.counted_verdict

    def flipped(row):
        verdict = decide(row)
        return Verdict.HIT if verdict is Verdict.DROP and row.owner.is_object else verdict

    monkeypatch.setattr(Row, "counted_verdict", flipped)
    fx = two_cluster_fixture()
    tree = fx.build_tree()
    wrong, _ = rstknn_query(tree, fx.query, fx.params)
    assert wrong != EXPECTED_RESULT
    with pytest.raises(AssertionError, match="slot counts and walks disagree on P"):
        rstknn_query(tree, fx.query, fx.params, audit=EngineAudit())


def _off_frontier(rows, owner):
    """A frontier entry that does not overlap ``owner``, an object if the
    owner is one, for a test to take off the frontier."""
    entries = rows.arrays.entries
    return next(j for j in np.flatnonzero(rows.frontier)
                if not rows.tree.overlaps(entries[j], owner)
                and (owner.is_node or entries[j].is_object))


def _incomplete_run(monkeypatch, n, alpha, k, target, take_off):
    """An audited run whose rows, just before ``target``'s row, let
    ``take_off(rows, j)`` lose one entry j of the frontier; the target's
    rows are appended to the returned list."""
    rng = random.Random(0)
    objs = random_dataset(rng, n, 4)
    q = random_query(rng, 4)
    tree = build_tree(objs, 2)
    row, incomplete = Rows.row, []

    def row_less_one(rows, owner):
        if owner.label != target:
            return row(rows, owner)
        take_off(rows, _off_frontier(rows, owner))
        incomplete.append(row(rows, owner))
        return incomplete[-1]

    monkeypatch.setattr(Rows, "row", row_less_one)
    params = SimParams(alpha=alpha, k=k)
    return lambda: rstknn_query(tree, q, params, audit=EngineAudit()), incomplete


@pytest.mark.parametrize("n,alpha,k,target,would_be", [
    (8, 0.0, 1, "P0", Verdict.DROP),
    (8, 0.4, 3, "P5", Verdict.HIT),
    (16, 0.0, 1, "N3", Verdict.UNDECIDED),
])
def test_completeness_assertion_fires_on_an_incomplete_list(monkeypatch, n, alpha, k,
                                                            target, would_be):
    # just before the target's row, the rows take one entry off the
    # frontier, its mask and its covered count together: for a node target
    # one that does not overlap it, for an object target another object.
    # Whatever the slot counts would decide, the decision raises (a would-be
    # hit through the gate, any other verdict through the check)
    run, incomplete = _incomplete_run(monkeypatch, n, alpha, k, target,
                                      lambda rows, j: rows._flip([j]))
    with pytest.raises(CompletenessViolation, match=f"for {target} "):
        run()
    [lists] = incomplete
    assert not lists.is_complete()
    assert lists.counted_verdict() is would_be


@pytest.mark.parametrize("target", ["P0", "N3"])
def test_audit_catches_a_frontier_mask_that_disagrees_with_its_covered_count(monkeypatch,
                                                                           target):
    # only the mask loses the entry: the covered count, which the hot path
    # checks, still reads complete, and the audit's recount from the mask
    # reports the disagreement
    def mask_only(rows, j):
        rows.frontier[j] = False

    run, incomplete = _incomplete_run(monkeypatch, 16, 0.0, 1, target, mask_only)
    with pytest.raises(AssertionError, match=f"covered count disagree at {target}$"):
        run()
    [lists] = incomplete
    assert lists.is_complete()


def _random_partition(rng, rows):
    """Expand random frontier nodes of a fresh ``rows``: a random partition
    of the dataset as its frontier."""
    entries = rows.arrays.entries
    for _ in range(rng.randint(0, 12)):
        nodes = [j for j in np.flatnonzero(rows.frontier).tolist() if entries[j].is_node]
        if nodes:
            rows.expand(entries[rng.choice(nodes)])


def test_tile_verdicts_equal_the_walks_on_random_frontiers():
    # every entry of a random partition frontier, read as a queued owner in
    # FIFO order, decides on its row as the sorted walks of its reference
    # list do; object rows come from one count per tile, on grid, off-grid
    # and exact-tie instances
    rng = random.Random(2024)
    instances = []
    for i in range(40):
        objs = random_dataset(rng, rng.randint(1, 40), 5)
        instances.append((build_tree(objs, rng.choice([2, 3, 4, 8])), random_query(rng, 5)))
        _, query, tree, _ = offgrid_instance(i)
        instances.append((tree, query))
        _, query, tree = _tie_instance(rng)
        instances.append((tree, query))
    owners = {True: 0, False: 0}
    for tree, query in instances:
        stats = tree.norm_stats()
        for alpha in (0.0, 0.4, 1.0):
            params = SimParams(alpha, rng.choice([1, 2, 3, tree.size]))
            for _ in range(2):
                rows = Rows(tree, query, params, stats)
                _random_partition(rng, rows)
                rank, entries = rows.arrays.rank, rows.arrays.entries
                for j in sorted(np.flatnonzero(rows.frontier).tolist(), key=rank.__getitem__):
                    row = rows.row(entries[j])
                    assert nn_lists.is_hit_or_drop(row) is row.reference().walked_verdict()
                    owners[entries[j].is_node] += 1
    assert owners[True] > 500 and owners[False] > 2000


def test_a_tile_verdict_is_never_served_across_a_frontier_change():
    # one object's row counts its tile's queued objects against the
    # frontier; a node expanded before the next of them is read changes
    # that object's verdict, and the verdict served is the one after the
    # expansion, as the walks give it.  A row counted before the expansion
    # and read after it fails an assertion
    rng = random.Random(31)
    changed = 0
    for _ in range(300):
        tree = build_tree(random_dataset(rng, rng.randint(8, 40), 5), rng.choice([2, 3, 4]))
        query, params = random_query(rng, 5), SimParams(rng.choice([0.0, 0.4, 1.0]), 2)
        stats = tree.norm_stats()
        rows, before = Rows(tree, query, params, stats), Rows(tree, query, params, stats)
        seed = rng.random()
        _random_partition(random.Random(seed), rows)
        _random_partition(random.Random(seed), before)
        entries, rank = rows.arrays.entries, rows.arrays.rank
        frontier = sorted(np.flatnonzero(rows.frontier).tolist(), key=rank.__getitem__)
        objects = [entries[j] for j in frontier if entries[j].is_object]
        nodes = [entries[j] for j in frontier if entries[j].is_node]
        if len(objects) < 2 or not nodes:
            continue
        first, later = objects[0], objects[1:]
        stale = rows.row(first)  # counts the masses of the queued objects of its tile
        rows.expand(rng.choice(nodes))
        for read in (nn_lists.is_hit_or_drop, Row.is_complete, Row.reference):
            with pytest.raises(AssertionError, match="read after a frontier change"):
                read(stale)
        for owner in later:
            row = rows.row(owner)
            verdict = nn_lists.is_hit_or_drop(row)
            assert verdict is row.reference().walked_verdict()
            changed += verdict is not nn_lists.is_hit_or_drop(before.row(owner))
    assert changed > 20


def _tie_instance(rng):
    """(objects, query, tree): objects on a few shared locations and term
    vectors, and a query that copies one of each, so that many bounds equal
    their owner's threshold exactly."""
    locs = [(rng.gauss(0, 10), rng.gauss(0, 10)) for _ in range(rng.randint(2, 4))]
    vcts = [TermVector({f"t{j}": rng.uniform(0.01, 5.0)
                        for j in rng.sample(range(5), rng.randint(1, 3))})
            for _ in range(rng.randint(2, 4))]
    objs = [STObject(f"P{i}", rng.choice(locs), rng.choice(vcts))
            for i in range(rng.randint(8, 40))]
    query = QueryObject(rng.choice(locs), rng.choice(vcts))
    return objs, query, build_tree(objs, rng.choice([2, 4, 8]))


@pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
def test_exact_ties_with_the_query_drop_and_recheck_lazily(monkeypatch, alpha):
    # objects share a few locations and a few term vectors, and the query
    # copies one of each, so many similarities equal an owner's query
    # similarity exactly.  A tie drops (the database point wins it), the
    # answer equals brute force, and the audit walks agree with every row.
    # Every element near an object owner's threshold here is an exact tie,
    # which counts, so a row that settles in scalar code only while its
    # verdict is open settles at most k of them
    scalar, decide = nn_lists.pair_sim_bounds, Row.counted_verdict
    settles, per_row, deciding = [], [], []  # settles: the owner of each scalar bound

    def counted(*args):
        if deciding:  # not the audit's reference lists
            settles.append(deciding[-1])
        return scalar(*args)

    def recorded(row):
        before = len(settles)
        deciding.append(row.owner)
        try:
            verdict = decide(row)
        finally:
            deciding.pop()
        if row.owner.is_object:
            per_row.append((len(settles) - before, row.params.k))
        return verdict

    monkeypatch.setattr(nn_lists, "pair_sim_bounds", counted)
    monkeypatch.setattr(Row, "counted_verdict", recorded)
    ties = 0
    for seed in range(20):
        objs, q, tree = _tie_instance(random.Random(seed))
        stats = tree.norm_stats()
        for k in (1, 2, 3):
            params = SimParams(alpha, k)
            got, _ = rstknn_query(tree, q, params, stats=stats, audit=EngineAudit())
            assert got == rknn_bruteforce(objs, q, params, stats)
            for o in objs:
                if sim_st(o, q, params, stats) == kth_nn_sim(o, objs, k, params, stats):
                    ties += 1
                    assert o.id not in got
    assert ties > 100
    assert any(owner.is_object for owner in settles)
    assert all(rechecks <= k for rechecks, k in per_row)


def test_node_rows_settle_elements_within_the_margin_in_scalar_code(monkeypatch):
    # objects share a few grid locations and term vectors, and each query
    # copies one of them, so many node bounds equal their owner's query
    # bounds exactly.  Rows pushed half the margin to either side of their
    # values still decide as the audit's walks do, and answer exactly
    rng = random.Random(5)
    runs = []
    for _ in range(40):
        locs = [(float(rng.randint(0, 3)), float(rng.randint(0, 3))) for _ in range(3)]
        vcts = [TermVector({f"t{j}": float(rng.randint(1, 3))
                            for j in rng.sample(range(4), rng.randint(1, 2))}) for _ in range(3)]
        objs = [STObject(f"P{i}", rng.choice(locs), rng.choice(vcts))
                for i in range(rng.randint(6, 30))]
        source = rng.choice(objs)
        tree = build_tree(objs, rng.choice([2, 3]))
        runs.append((objs, QueryObject(source.loc, source.vct), tree))
    ties = 0
    decide = Row.counted_verdict

    def counting(row):
        nonlocal ties
        tied = (row.lower == row.optimistic) | (row.upper == row.pessimistic)
        ties += int(np.count_nonzero(row.frontier & tied))
        return decide(row)

    monkeypatch.setattr(Row, "counted_verdict", counting)
    for objs, q, tree in runs:
        for alpha in (0.0, 0.4, 1.0):
            rstknn_query(tree, q, SimParams(alpha, 2))
    assert ties > 100
    monkeypatch.setattr(Row, "counted_verdict", decide)
    bounds = iur_tree.EntryArrays.bounds
    noise = np.random.default_rng(5)

    def pushed(arrays, owners, params, stats, *args):
        margin = arrays.tiles.sim_err(params, stats)
        return tuple(row + noise.choice([-0.5, 0.5], row.shape) * margin
                     for row in bounds(arrays, owners, params, stats, *args))

    monkeypatch.setattr(iur_tree.EntryArrays, "bounds", pushed)
    for objs, q, tree in runs:
        stats = tree.norm_stats()
        for alpha in (0.0, 0.4, 1.0):
            for k in (1, 2, 3):
                params = SimParams(alpha, k)
                got, _ = rstknn_query(tree, q, params, stats=stats, audit=EngineAudit())
                assert got == rknn_bruteforce(objs, q, params, stats)


def test_the_scalar_settle_walks_every_row_alike_in_blocks_of_any_size(monkeypatch):
    # a row's settle takes the elements within the margin from the last one
    # back; whatever the block it scans at a time, the correct mode asks for
    # the same scalar bounds in the same order.  A block of 10**9 elements
    # lists the whole row at once
    rng = random.Random(11)
    runs = [offgrid_instance(i)[1:3] for i in range(30)]
    for _ in range(30):  # shared locations and term vectors: many exact ties
        locs = [(float(rng.randint(0, 3)), float(rng.randint(0, 3))) for _ in range(3)]
        vcts = [TermVector({f"t{j}": float(rng.randint(1, 3))}) for j in range(3)]
        objs = [STObject(f"P{i}", rng.choice(locs), rng.choice(vcts))
                for i in range(rng.randint(6, 40))]
        source = rng.choice(objs)
        runs.append((QueryObject(source.loc, source.vct), build_tree(objs, rng.choice([2, 3]))))
    asked: list[tuple] = []

    def recording(tree, a, b, params, stats):
        asked.append((a, b))
        return iur_tree.pair_sim_bounds(tree, a, b, params, stats)

    monkeypatch.setattr(nn_lists, "pair_sim_bounds", recording)
    sequences = []
    for block in (1, 3, 10**9):
        monkeypatch.setattr(nn_lists, "_SETTLE_BLOCK", block)
        asked = []
        for q, tree in runs:
            for alpha in (0.0, 0.4, 1.0):
                for k in (1, 2, 4):
                    rstknn_query(tree, q, SimParams(alpha, k))
        sequences.append(asked)
    assert len(sequences[0]) > 200
    assert sequences[0] == sequences[1] == sequences[2]


def test_an_intersection_below_float_range_is_stored_empty_and_answers_exactly():
    # "t" at 1e-160 in every object of a leaf: the minimum's squared norm,
    # 1e-320, is subnormal, so the leaf stores the empty vector, which lies
    # under it term by term, and the bounds stay sound
    tiny = 1e-160
    objs = [STObject("a", (0.0, 0.0), TermVector({"t": tiny, "u": 1.0})),
            STObject("b", (1.0, 0.0), TermVector({"t": tiny, "v": 1.0})),
            STObject("c", (5.0, 2.0), TermVector({"t": tiny, "v": 2.0})),
            STObject("d", (6.0, 3.0), TermVector({"t": tiny, "w": 1.0}))]
    layouts = ([["a", "b"], ["c", "d"]], [["a", "b", "c", "d"]], [[["a"], ["b"]], ["c", "d"]])
    queries = [QueryObject((x, y), TermVector(terms)) for x, y, terms in (
        (0.0, 0.0, {"t": 1.0}), (5.5, 2.5, {"t": tiny, "v": 1.0}), (3.0, 1.0, {}),
        (1.0, 0.0, {"u": 1.0, "v": 1.0}))]
    for layout in layouts:
        tree = tree_from_layout(objs, layout)
        assert tree.record(node_entry(1)).int_vct.is_empty
        assert not tree.record(object_entry("d")).int_vct.is_empty
        stats = tree.norm_stats()
        for q in queries:
            for alpha in (0.0, 0.4, 1.0):
                for k in (1, 2, 3, 4):
                    params = SimParams(alpha, k)
                    got, _ = rstknn_query(tree, q, params, stats=stats, audit=EngineAudit())
                    assert got == rknn_bruteforce(objs, q, params, stats)


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
        audit = EngineAudit()
        rstknn_query(tree, q, params, stats=stats, audit=audit)
        assert audit.bound_records
        for owner, lower, upper in audit.bound_records:
            for oid in tree.subtree_objects(owner):
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
    assert all(c.is_object for c in tree.children(tree.root_entry()))
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
