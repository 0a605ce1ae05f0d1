import pytest

from rstknn.core import QueryObject, STObject, SimParams, TermVector
from rstknn.datasets import random_dataset, random_query
from rstknn.iur_tree import (
    build_tree,
    max_sim_st,
    min_sim_st,
    node_entry,
    object_entry,
    pair_sim_bounds,
    tree_from_layout,
)
from rstknn.nn_lists import NEG_INF, NNLists, NNTuple, NotInternalNode, Verdict, is_hit_or_drop

PARAMS = SimParams(alpha=1.0, k=2)


def _line_tree():
    """Six points on a line, grouped pairwise; handy ancestry structure."""
    objs = [STObject(f"P{i}", (float(i * 10), 0.0), TermVector()) for i in range(6)]
    tree = tree_from_layout(objs, [["P0", "P1"], [["P2", "P3"], ["P4", "P5"]]])
    return objs, tree, tree.norm_stats()


def test_add_self_sets_count_and_bounds():
    objs, tree, stats = _line_tree()
    n3 = node_entry(3)
    lists = NNLists(n3, tree)
    lists.add_self(PARAMS, stats)
    t = lists.get(n3)
    assert t is not None and t.m == 1  # |N3| - 1
    assert t.min_sim == min_sim_st(tree, n3, n3, PARAMS, stats)
    assert t.max_sim == max_sim_st(tree, n3, n3, PARAMS, stats)
    assert t.min_sim <= t.max_sim
    # idempotent upsert
    lists.add_self(PARAMS, stats)
    assert len(lists) == 1


def test_add_self_zero_slot_singleton_node():
    o = STObject("only", (0.0, 0.0), TermVector())
    tree = build_tree([o])
    lists = NNLists(tree.root_entry(), tree)
    lists.add_self(PARAMS, tree.norm_stats())
    assert lists.get(tree.root_entry()).m == 0


def test_add_self_rejects_object_owner():
    objs, tree, stats = _line_tree()
    lists = NNLists(object_entry("P0"), tree)
    with pytest.raises(NotInternalNode):
        lists.add_self(PARAMS, stats)


def test_update_replaces_proper_ancestor():
    objs, tree, stats = _line_tree()
    owner = object_entry("P0")
    lists = NNLists(owner, tree)
    n2, n3 = node_entry(2), node_entry(3)
    lists.update_with(n2, PARAMS, stats)
    assert n2 in lists
    lists.update_with(n3, PARAMS, stats)  # N3 is a child of N2
    assert n2 not in lists and n3 in lists
    # sibling updates never remove each other
    lists.update_with(node_entry(4), PARAMS, stats)
    assert n3 in lists and node_entry(4) in lists
    lists.check_invariants()


def test_update_upsert_keeps_m():
    objs, tree, stats = _line_tree()
    lists = NNLists(object_entry("P0"), tree)
    n4 = node_entry(4)
    lists.update_with(n4, PARAMS, stats)
    before = lists.get(n4)
    lists.update_with(n4, PARAMS, stats)
    after = lists.get(n4)
    assert after.m == before.m == 2
    assert after.min_sim == before.min_sim and after.max_sim == before.max_sim


def test_update_with_removes_exactly_the_covering_tuples(equal_span_trees, rng):
    # refinement sequences as the engine produces them: an update never adds
    # an entry that strictly contains a held one
    params = SimParams(alpha=0.4, k=2)
    equal_span_removals = 0
    for tree in equal_span_trees:
        stats = tree.norm_stats()
        entries = [*tree.iter_node_entries(), *(object_entry(i) for i in sorted(tree.objects))]
        for _ in range(5):
            owner = rng.choice(entries)
            lists = NNLists(owner, tree)
            for _ in range(25):
                held = {t.entry for t in lists.tuples()}
                options = [
                    b for b in entries
                    if b != owner and not any(
                        tree.is_ancestor_or_equal(b, e) and not tree.is_ancestor_or_equal(e, b)
                        for e in held
                    )
                ]
                if not options:
                    break
                b = rng.choice(options)
                removed = {e for e in held if e != b and tree.is_ancestor_or_equal(e, b)}
                equal_span_removals += sum(tree.is_ancestor_or_equal(b, e) for e in removed)
                lists.update_with(b, params, stats)
                assert {t.entry for t in lists.tuples()} == (held - removed) | {b}
                lists.check_invariants()
    assert equal_span_removals > 0


def test_update_with_stores_and_returns_shared_bounds():
    objs, tree, stats = _line_tree()
    p0, n4 = object_entry("P0"), node_entry(4)
    forward = NNLists(p0, tree).update_with(n4, PARAMS, stats)
    assert forward == pair_sim_bounds(tree, p0, n4, PARAMS, stats)
    reverse = NNLists(n4, tree)
    assert reverse.update_with(p0, PARAMS, stats, forward) == forward
    t = reverse.get(p0)
    assert (t.min_sim, t.max_sim, t.m) == (*forward, 1)


def _manual_lists(tree, owner, rows):
    lists = NNLists(owner, tree)
    for entry, m, lo, hi in rows:
        lists._tuples[entry] = NNTuple(entry, m, lo, hi)
    return lists


def test_split_replaces_the_covering_tuple_by_the_path_pieces():
    objs, tree, stats = _line_tree()
    n1 = node_entry(1)
    lists = _manual_lists(tree, n1, [(node_entry(0), 5, 0.1, 0.9)])
    lists.split(object_entry("P2"))  # path N0 > N2 > N3 > P2
    pieces = {t.entry.label: (t.m, t.min_sim, t.max_sim, t.direct) for t in lists.tuples()}
    assert pieces == {
        "N1": (1, 0.1, 0.9, False),  # overlaps the owner: one slot fewer
        "N4": (2, 0.1, 0.9, False),
        "P3": (1, 0.1, 0.9, False),
        "P2": (1, 0.1, 0.9, False),
    }
    lists.split(object_entry("P2"))  # already has its own tuple
    assert len(lists) == 4
    bounds = lists.refine(object_entry("P3"), PARAMS, stats)
    assert bounds == pair_sim_bounds(tree, n1, object_entry("P3"), PARAMS, stats)
    assert lists.get(object_entry("P3")).direct and len(lists) == 4
    with pytest.raises(ValueError, match="covers"):
        lists.split(node_entry(2))  # finer tuples tile it; no single one covers it


def test_slot_counts_agree_with_the_walks(rng, equal_span_trees):
    # the masses kept through splits, refinements and plain pops equal a
    # recount, and on a partition they give the walks' verdict
    agreements = {v: 0 for v in Verdict}
    trees = [build_tree(random_dataset(rng, rng.randint(2, 30), 5), f) for f in (2, 3, 4, 8)]
    for tree in trees + equal_span_trees:
        stats = tree.norm_stats()
        entries = [*tree.iter_node_entries(), *(object_entry(i) for i in sorted(tree.objects))]
        for _ in range(4):
            params = SimParams(alpha=rng.choice([0.0, 0.4, 1.0]), k=1)
            q = random_query(rng, 5)
            # inherit down to a random owner, as the traversal does
            owner = rng.choice(entries)
            path = [owner]
            while tree.parent(path[-1]) is not None:
                path.append(tree.parent(path[-1]))
            lists = NNLists(path[-1], tree)
            lists.add_self(params, stats)
            for child in reversed(path[:-1]):
                lists = NNLists.inherited(child, lists)
                lists.split(child)
                if child.is_node:
                    lists.add_self(params, stats)
            lists.watch(q, params, stats)
            for _ in range(20):
                options = [e for e in entries if not tree.overlaps(e, owner) and (
                    e in lists or any(c in lists for c in tree.covering(e)))]
                if not options:
                    break
                lists.refine(rng.choice(options), params, stats)
                drop, hit = lists.drop_mass, lists.hit_mass
                assert lists.watch(q, params, stats) and (drop, hit) == (
                    lists.drop_mass, lists.hit_mass)
                for k in range(1, tree.size + 2):
                    params_k = SimParams(params.alpha, k)
                    verdict = is_hit_or_drop(lists, q, params_k, stats)
                    assert lists.counted_verdict(k) is verdict
                    agreements[verdict] += 1
            if len(lists) > 1:  # a plain pop keeps the counts too
                lists.remove(lists.tuples()[-1].entry)
                drop, hit = lists.drop_mass, lists.hit_mass
                lists.watch(q, params, stats)
                assert (drop, hit) == (lists.drop_mass, lists.hit_mass)
    assert min(agreements.values()) > 0


def test_update_overlap_rule_point_inside_node():
    objs, tree, stats = _line_tree()
    lists = NNLists(object_entry("P2"), tree)
    n2 = node_entry(2)  # contains P2
    lists.update_with(n2, PARAMS, stats)
    assert lists.get(n2).m == 3  # |N2| - 1


def test_inherit_copies_and_recomputes_m():
    objs, tree, stats = _line_tree()
    n2, n3 = node_entry(2), node_entry(3)
    parent = NNLists(n2, tree)
    parent.add_self(PARAMS, stats)
    parent.update_with(node_entry(1), PARAMS, stats)
    child = NNLists.inherited(n3, parent)
    assert child.owner == n3
    # the parent's self tuple is an ancestor of the child: slot count stays |N2|-1
    assert child.get(n2).m == 3
    # non-overlapping entries inherit bounds verbatim with full slot count
    assert child.get(node_entry(1)).m == 2
    assert child.get(node_entry(1)).min_sim == parent.get(node_entry(1)).min_sim
    # mutating the child leaves the parent untouched
    child.remove(node_entry(1))
    assert node_entry(1) in parent


def test_inherit_empty_parent():
    objs, tree, stats = _line_tree()
    parent = NNLists(node_entry(2), tree)
    child = NNLists.inherited(node_entry(3), parent)
    assert len(child) == 0


def test_strip_self_and_parent():
    objs, tree, stats = _line_tree()
    n3 = node_entry(3)
    lists = NNLists(n3, tree)
    lists.add_self(PARAMS, stats)
    lists.update_with(node_entry(2), PARAMS, stats)  # would not happen live; forces the case
    lists.update_with(node_entry(1), PARAMS, stats)
    lists.strip_self_and_parent()
    assert n3 not in lists and node_entry(2) not in lists
    assert node_entry(1) in lists
    # no-op when absent
    lists.strip_self_and_parent()
    assert node_entry(1) in lists


def test_knn_lower_cumulative_walk():
    objs, tree, stats = _line_tree()
    owner = object_entry("P0")
    rows = [
        (node_entry(3), 2, 0.9, 0.95),
        (node_entry(4), 3, 0.5, 0.7),
    ]
    lists = _manual_lists(tree, owner, rows)
    assert lists.knn_lower(2) == 0.9
    assert lists.knn_lower(3) == 0.5
    assert lists.knn_lower(6) is None


def test_knn_upper_requires_completeness():
    objs, tree, stats = _line_tree()
    owner = object_entry("P0")
    incomplete = _manual_lists(
        tree, owner, [(node_entry(3), 2, 0.5, 0.9), (node_entry(4), 3, 0.2, 0.5)]
    )
    # P1 is uncovered: no upper bound at any k
    assert incomplete.knn_upper(1) is None
    assert incomplete.knn_upper(4) is None
    complete = _manual_lists(
        tree,
        owner,
        [
            (object_entry("P1"), 1, 1.0, 1.0),
            (node_entry(3), 2, 0.5, 0.9),
            (node_entry(4), 2, 0.2, 0.5),
        ],
    )
    assert complete.is_complete()
    assert complete.knn_upper(2) == 0.9
    assert complete.knn_upper(4) == 0.5
    # complete but fewer than k neighbors exist: unconditional membership
    assert complete.knn_upper(6) == NEG_INF


def test_knn_upper_cumulative_example():
    objs, tree, stats = _line_tree()
    owner = object_entry("P0")
    lists = _manual_lists(
        tree,
        owner,
        [
            (object_entry("P1"), 1, 1.0, 1.0),
            (node_entry(3), 2, 0.5, 0.9),
            (node_entry(4), 2, 0.2, 0.5),
        ],
    )
    assert lists.knn_upper(1) == 1.0
    assert lists.knn_upper(3) == 0.9
    assert lists.knn_upper(5) == 0.5


def test_walk_value_independent_of_insertion_order_on_ties():
    tree, stats = _verdict_fixture()
    owner = object_entry("P0")
    q = QueryObject((5.0, 0.0), TermVector())
    # equal bounds with unequal slot counts, so a tie-break on m or on entry
    # would be visible if it could change a walk's value
    rows = [
        (object_entry("P1"), 1, 0.5, 0.7),
        (node_entry(3), 2, 0.5, 0.7),
        (node_entry(4), 2, 0.3, 0.7),
    ]
    forward = _manual_lists(tree, owner, rows)
    backward = _manual_lists(tree, owner, rows[::-1])
    assert forward.is_complete() and backward.is_complete()
    for k in range(1, 7):
        params = SimParams(alpha=1.0, k=k)
        assert forward.knn_lower(k) == backward.knn_lower(k)
        assert forward.knn_upper(k) == backward.knn_upper(k)
        assert is_hit_or_drop(forward, q, params, stats, gated=False) is is_hit_or_drop(
            backward, q, params, stats, gated=False
        )
    assert [forward.knn_lower(k) for k in range(1, 7)] == [0.5, 0.5, 0.5, 0.3, 0.3, None]
    assert [forward.knn_upper(k) for k in range(1, 7)] == [0.7] * 5 + [NEG_INF]


def _verdict_fixture():
    """Tree plus query where owner bounds can be steered via the query point."""
    objs = [STObject(f"P{i}", (float(i * 10), 0.0), TermVector()) for i in range(6)]
    tree = tree_from_layout(objs, [["P0", "P1"], [["P2", "P3"], ["P4", "P5"]]])
    return tree, tree.norm_stats()


def test_is_hit_or_drop_drop_and_tie():
    tree, stats = _verdict_fixture()
    owner = object_entry("P0")
    q_far = QueryObject((50.0, 40.0), TermVector())
    params = SimParams(alpha=1.0, k=1)
    sim_to_q = max_sim_st(tree, owner, q_far, params, stats)
    # lower bound above the query similarity: prune
    lists = _manual_lists(tree, owner, [(object_entry("P1"), 1, sim_to_q + 0.1, 1.0)])
    assert is_hit_or_drop(lists, q_far, params, stats) is Verdict.DROP
    # exact tie also prunes: database points win ties
    tie = _manual_lists(tree, owner, [(object_entry("P1"), 1, sim_to_q, 1.0)])
    assert is_hit_or_drop(tie, q_far, params, stats) is Verdict.DROP
    # lower bound below, upper bound below: hit
    hit = _manual_lists(
        tree,
        owner,
        [
            (object_entry("P1"), 1, sim_to_q - 0.3, sim_to_q - 0.2),
            (node_entry(3), 2, sim_to_q - 0.5, sim_to_q - 0.4),
            (node_entry(4), 2, sim_to_q - 0.6, sim_to_q - 0.5),
        ],
    )
    assert is_hit_or_drop(hit, q_far, params, stats) is Verdict.HIT
    # upper tie: strict inequality required for a hit
    tie_hit = _manual_lists(
        tree,
        owner,
        [
            (object_entry("P1"), 1, sim_to_q - 0.3, sim_to_q),
            (node_entry(3), 2, sim_to_q - 1.0, sim_to_q - 0.9),
            (node_entry(4), 2, sim_to_q - 1.1, sim_to_q - 1.0),
        ],
    )
    assert tie_hit.knn_upper(1) == sim_to_q
    assert is_hit_or_drop(tie_hit, q_far, params, stats) is Verdict.UNDECIDED


def test_is_hit_or_drop_incomplete_list_cannot_hit():
    tree, stats = _verdict_fixture()
    owner = object_entry("P0")
    q = QueryObject((5.0, 0.0), TermVector())
    params = SimParams(alpha=1.0, k=1)
    # only a low-upper tuple, but P1 and N4 are uncovered: no hit allowed
    lists = _manual_lists(tree, owner, [(node_entry(3), 2, 0.0, 0.1)])
    assert is_hit_or_drop(lists, q, params, stats) is Verdict.UNDECIDED
    # the ungated variant (legacy behavior) accepts on the same evidence
    assert is_hit_or_drop(lists, q, params, stats, gated=False) is Verdict.HIT


def test_operation_sequences_preserve_invariants(rng):
    for trial in range(30):
        n = rng.randint(4, 20)
        objs = random_dataset(rng, n, 5)
        tree = build_tree(objs, rng.choice([2, 4]))
        stats = tree.norm_stats()
        params = SimParams(alpha=rng.choice([0.0, 0.5, 1.0]), k=rng.randint(1, 3))
        root = tree.root_entry()
        lists = NNLists(root, tree)
        lists.add_self(params, stats)
        lists.check_invariants()
        # walk down one branch, inheriting and updating with sibling entries
        current, current_lists = root, lists
        while current.is_node:
            children = tree.children(current)
            nxt = children[rng.randrange(len(children))]
            child_lists = NNLists.inherited(nxt, current_lists)
            child_lists.strip_self_and_parent()
            if nxt.is_node:
                child_lists.add_self(params, stats)
            for sib in children:
                if sib != nxt:
                    child_lists.update_with(sib, params, stats)
            child_lists.check_invariants()
            assert child_lists.coverage() <= tree.size - 1
            current, current_lists = nxt, child_lists
