import random

import pytest
from conftest import _chain_layout, all_entries
from hypothesis import given, settings
from hypothesis import strategies as st
from refimpl import is_ancestor_or_equal, overlaps

from rstknn.core import NormStats, QueryObject, STObject, SimParams, TermVector
from rstknn.datasets import random_dataset, random_query
from rstknn.engine import Mode, rstknn_query
from rstknn.iur_tree import (
    build_tree,
    max_sim_st,
    min_sim_st,
    node_entry,
    object_entry,
    pair_sim_bounds,
    tree_from_layout,
)
from rstknn.nn_lists import NEG_INF, NNLists, NotInternalNode, Verdict, is_hit_or_drop

PARAMS = SimParams(alpha=1.0, k=2)
ORIGIN = QueryObject((0.0, 0.0), TermVector())


def _lists(tree, owner, query=ORIGIN, params=PARAMS, stats=None):
    """An empty list for ``owner`` in one query run; the tree's statistics
    unless others are given."""
    return NNLists(owner, tree, query, params, tree.norm_stats() if stats is None else stats)


def _assert_totals(lists):
    """The kept slot totals equal a recount against the list's query bounds."""
    ts = lists.tuples()
    assert lists.covered_slots == sum(m for _, m, _, _ in ts)
    assert lists.drop_mass == sum(m for _, m, lower, _ in ts if lower >= lists.optimistic)
    assert lists.hit_mass == sum(m for _, m, _, upper in ts if upper >= lists.pessimistic)


def _m_for(lists, entry):
    """The slots ``entry`` holds in the list: its size, less one when it
    overlaps the owner (a point is not its own neighbor)."""
    return lists.tree.count(entry) - overlaps(lists.tree, entry, lists.owner)


def _check_invariants(lists):
    """The list's structural invariants: its totals are a recount, it covers
    at most N - 1 slots, holds no proper descendant of its owner and no two
    overlapping entries, and each entry holds its slots."""
    tree, owner = lists.tree, lists.owner
    _assert_totals(lists)
    assert lists.covered_slots <= tree.size - 1, "over-coverage: sum(m) exceeds N - 1"
    entries = [entry for entry, _, _, _ in lists.tuples()]
    for entry, m, lower, upper in lists.tuples():
        assert m == _m_for(lists, entry) and 0 <= m
        assert not (tree.depth(entry) > tree.depth(owner)
                    and is_ancestor_or_equal(tree, owner, entry)), (
            f"{entry.label} is a proper descendant of the owner {owner.label}")
        assert lower <= upper + 1e-12
    for i, a in enumerate(entries):
        for b in entries[i + 1:]:
            assert not overlaps(tree, a, b), f"overlapping tuples {a.label} / {b.label}"


def _line_tree():
    """Six points on a line, grouped pairwise; handy ancestry structure."""
    objs = [STObject(f"P{i}", (float(i * 10), 0.0), TermVector()) for i in range(6)]
    tree = tree_from_layout(objs, [["P0", "P1"], [["P2", "P3"], ["P4", "P5"]]])
    return objs, tree, tree.norm_stats()


def test_add_self_sets_count_and_bounds():
    objs, tree, stats = _line_tree()
    n3 = node_entry(3)
    lists = _lists(tree, n3)
    lists.add_self()
    entry, m, lower, upper = lists.get(n3)
    assert entry == n3 and m == 1  # |N3| - 1
    assert lower == min_sim_st(tree, n3, n3, PARAMS, stats)
    assert upper == max_sim_st(tree, n3, n3, PARAMS, stats)
    assert lower <= upper
    # idempotent upsert
    lists.add_self()
    assert len(lists) == 1


def test_add_self_zero_slot_singleton_node():
    o = STObject("only", (0.0, 0.0), TermVector())
    tree = build_tree([o])
    lists = _lists(tree, tree.root_entry())
    lists.add_self()
    assert lists.get(tree.root_entry())[1] == 0


def test_add_self_rejects_object_owner():
    objs, tree, stats = _line_tree()
    lists = _lists(tree, object_entry("P0"))
    with pytest.raises(NotInternalNode):
        lists.add_self()


def test_update_replaces_proper_ancestor():
    objs, tree, stats = _line_tree()
    owner = object_entry("P0")
    lists = _lists(tree, owner)
    n2, n3 = node_entry(2), node_entry(3)
    lists.update_with(n2)
    assert n2 in lists
    lists.update_with(n3)  # N3 is a child of N2
    assert n2 not in lists and n3 in lists
    # sibling updates never remove each other
    lists.update_with(node_entry(4))
    assert n3 in lists and node_entry(4) in lists
    _check_invariants(lists)


def test_update_upsert_keeps_m():
    objs, tree, stats = _line_tree()
    lists = _lists(tree, object_entry("P0"))
    n4 = node_entry(4)
    lists.update_with(n4)
    before = lists.get(n4)
    lists.update_with(n4)
    after = lists.get(n4)
    assert after == before and after[1] == 2


def test_update_with_removes_exactly_the_covering_tuples(equal_span_trees, rng):
    # refinement sequences as the engine produces them: an update never adds
    # an entry that strictly contains a held one, nor a proper descendant of
    # the owner
    params = SimParams(alpha=0.4, k=2)
    equal_span_removals = 0
    for tree in equal_span_trees:
        stats = tree.norm_stats()
        entries = all_entries(tree)
        for _ in range(5):
            owner = rng.choice(entries)
            lists = _lists(tree, owner, params=params, stats=stats)
            for _ in range(25):
                held = {t[0] for t in lists.tuples()}
                options = [
                    b for b in entries
                    if b != owner and not (tree.depth(b) > tree.depth(owner)
                                           and is_ancestor_or_equal(tree, owner, b))
                    and not any(
                        is_ancestor_or_equal(tree, b, e) and not is_ancestor_or_equal(tree, e, b)
                        for e in held
                    )
                ]
                if not options:
                    break
                b = rng.choice(options)
                removed = {e for e in held if e != b and is_ancestor_or_equal(tree, e, b)}
                equal_span_removals += sum(is_ancestor_or_equal(tree, b, e) for e in removed)
                lists.update_with(b)
                assert {t[0] for t in lists.tuples()} == (held - removed) | {b}
                _check_invariants(lists)
    assert equal_span_removals > 0


def test_update_with_stores_and_returns_shared_bounds():
    objs, tree, stats = _line_tree()
    p0, n4 = object_entry("P0"), node_entry(4)
    forward = _lists(tree, p0).update_with(n4)
    assert forward == pair_sim_bounds(tree, p0, n4, PARAMS, stats)
    reverse = _lists(tree, n4)
    assert reverse.bounds(p0) == forward
    assert reverse.update_with(p0, forward) == forward
    assert reverse.get(p0) == (p0, 1, *forward)


def _assert_walks(lists):
    """The counted test, on an :class:`NNLists` the legacy one, gives the
    ungated walk's verdict, and the gated walk differs from that only by
    its completeness gate: it never accepts an incomplete list, and accepts
    a complete one short of k slots that it does not drop.  Returns the
    (ungated, gated) walks' verdicts."""
    verdict, gated = lists.walked_verdict(gated=False), lists.walked_verdict()
    assert is_hit_or_drop(lists) is verdict
    if verdict is not Verdict.DROP and not lists.is_complete():
        assert gated is Verdict.UNDECIDED
    elif verdict is not Verdict.DROP and lists.covered_slots < lists.params.k:
        assert gated is (Verdict.HIT if lists.pessimistic > NEG_INF else Verdict.UNDECIDED)
    else:
        assert gated is verdict
    return verdict, gated


def _manual_lists(tree, owner, rows, query=ORIGIN, params=PARAMS):
    lists = _lists(tree, owner, query, params)
    for row in rows:
        lists._put(row)
    return lists


def test_slot_counts_agree_with_the_walks(rng, equal_span_trees):
    # lists of direct bounds against a partition of the dataset, as the
    # correct mode's rows hold them (the owner is one of the partition's
    # entries, and a node owner holds its self-tuple), then refined by
    # expanding a held node into its children through update_with.  The
    # masses equal a recount, the list stays complete, the totals give the
    # ungated walk's verdict, and the gated walk differs from it only on a
    # list short of k slots; one list per k, all built by the same steps
    agreements = {gated: {v: 0 for v in Verdict} for gated in (False, True)}

    def check(family):
        for lists in family:
            _assert_totals(lists)
            assert lists.is_complete()
            for gated, verdict in zip((False, True), _assert_walks(lists)):
                agreements[gated][verdict] += 1

    def expand(entries):
        node = rng.choice([e for e in entries if e.is_node])
        entries.remove(node)
        entries.extend(tree.children(node))
        return tree.children(node)

    trees = [build_tree(random_dataset(rng, rng.randint(2, 30), 5), f) for f in (2, 3, 4, 8)]
    for tree in trees + equal_span_trees:
        stats = tree.norm_stats()
        for _ in range(4):
            alpha = rng.choice([0.0, 0.4, 1.0])
            q = random_query(rng, 5)
            partition = [tree.root_entry()]
            for _ in range(rng.randint(0, tree.size)):
                if any(e.is_node for e in partition):
                    expand(partition)
            owner = rng.choice(partition)
            others = [e for e in partition if e != owner]
            family = []
            for k in range(1, tree.size + 2):
                lists = _lists(tree, owner, q, SimParams(alpha, k), stats)
                for e in others:
                    lists.update_with(e)
                if owner.is_node:
                    lists.add_self()
                family.append(lists)
            check(family)
            for _ in range(20):
                if not any(e.is_node for e in others):
                    break
                children = expand(others)
                for lists in family:
                    for c in children:
                        lists.update_with(c)
                check(family)
            if len(family[0]) > 1:  # a plain pop keeps the counts too
                entry = family[0].tuples()[-1][0]
                for lists in family:
                    lists.remove(entry)
                    _assert_totals(lists)
    assert min(min(counts.values()) for counts in agreements.values()) > 0


def test_slot_counts_agree_with_the_walks_on_popped_lists(rng, equal_span_trees):
    # the legacy modes change lists by update_with alone, whose pops leave
    # them incomplete and sometimes short of k slots: the kept totals equal a
    # recount, the counted test gives the ungated walk's verdict, and the
    # gated walk never accepts an incomplete list; one list per k, all built
    # by the same steps
    agreements = {gated: {v: 0 for v in Verdict} for gated in (False, True)}
    trees = [build_tree(random_dataset(rng, rng.randint(2, 30), 5), f) for f in (2, 3, 4, 8)]
    for tree in trees + equal_span_trees:
        stats = tree.norm_stats()
        entries = all_entries(tree)
        for _ in range(4):
            alpha = rng.choice([0.0, 0.4, 1.0])
            q = random_query(rng, 5)
            owner = rng.choice(entries)
            others = [e for e in entries if e != owner]
            family = [_lists(tree, owner, q, SimParams(alpha, k), stats)
                      for k in range(1, tree.size + 2)]
            if owner.is_node and rng.random() < 0.5:
                for lists in family:
                    lists.add_self()
            for _ in range(12):
                b = rng.choice(others)
                for lists in family:
                    lists.update_with(b)
                    _assert_totals(lists)
                    for gated, verdict in zip((False, True), _assert_walks(lists)):
                        agreements[gated][verdict] += 1
    assert min(min(counts.values()) for counts in agreements.values()) > 0


def test_is_hit_or_drop_recounts_for_another_query_alpha_or_stats(rng):
    # lists for one owner and one sequence of updates, each in its own run
    # with another query, alpha or statistics, give the ungated walk's
    # verdict, and the gated walk differs only by its gate
    verdicts = set()
    for _ in range(20):
        tree = build_tree(random_dataset(rng, rng.randint(2, 20), 5), rng.choice([2, 4]))
        base = tree.norm_stats()
        stats = [base, NormStats(0.0, 2 * base.psi_s + 1, 0.0, 1.0)]
        queries = [random_query(rng, 5) for _ in range(2)]
        entries = all_entries(tree)
        owner = rng.choice(entries)
        others = [e for e in entries if e != owner]
        updates = rng.sample(others, min(4, len(others)))
        for _ in range(12):
            params = SimParams(rng.choice([0.0, 0.4, 1.0]), rng.randint(1, 4))
            q, st = rng.choice(queries), rng.choice(stats)
            lists = _lists(tree, owner, q, params, st)
            for e in updates:
                lists.update_with(e)
            verdicts.update(_assert_walks(lists))
    assert verdicts == set(Verdict)


def test_update_overlap_rule_point_inside_node():
    objs, tree, stats = _line_tree()
    lists = _lists(tree, object_entry("P2"))
    n2 = node_entry(2)  # contains P2
    lists.update_with(n2)
    assert lists.get(n2)[1] == 3  # |N2| - 1


def test_inherit_copies_and_recomputes_m():
    objs, tree, stats = _line_tree()
    n2, n3 = node_entry(2), node_entry(3)
    parent = _lists(tree, n2)
    parent.add_self()
    parent.update_with(node_entry(1))
    child = NNLists.inherited(n3, parent)
    assert child.owner == n3
    # the parent's self tuple is an ancestor of the child: slot count stays |N2|-1
    assert child.get(n2)[1] == 3
    # non-overlapping entries inherit bounds verbatim with full slot count
    assert child.get(node_entry(1)) == (node_entry(1), 2, *parent.get(node_entry(1))[2:])
    # mutating the child leaves the parent untouched
    child.remove(node_entry(1))
    assert node_entry(1) in parent


@pytest.mark.parametrize("mode", [Mode.FAULTY2011, Mode.FAULTY2014])
def test_inherited_lists_share_the_parents_tuples(monkeypatch, mode, equal_span_trees):
    # a child's list holds its parent's very tuples; that is exact because
    # no list holds a proper descendant of its owner, in both legacy modes,
    # so each inherited slot count equals a fresh one.  The tuples change
    # owner here, so the slot totals must be the child's: counted against
    # its own query bounds
    inherit = NNLists.__dict__["inherited"].__func__
    shared = 0

    def inherited(cls, child, parent_lists):
        nonlocal shared
        lists = inherit(cls, child, parent_lists)
        tree = lists.tree
        run = (lists.query, lists.params, lists.stats)
        assert run == (parent_lists.query, parent_lists.params, parent_lists.stats)
        assert (lists.pessimistic, lists.optimistic) == (min_sim_st(tree, child, *run),
                                                         max_sim_st(tree, child, *run))
        _assert_totals(lists)
        for t in lists.tuples():
            entry, m, _, _ = t
            assert t is parent_lists.get(entry)
            assert m == _m_for(lists, entry), (child.label, entry.label)
            assert not (tree.depth(entry) > tree.depth(child)
                        and is_ancestor_or_equal(tree, child, entry))
            shared += 1
        return lists

    monkeypatch.setattr(NNLists, "inherited", classmethod(inherited))
    rng = random.Random(1010)
    trees = [build_tree(random_dataset(rng, rng.randint(1, 40), 5), fanout)
             for fanout in (2, 3, 4, 8) for _ in range(4)]
    for tree in trees + equal_span_trees:
        stats = tree.norm_stats()
        for _ in range(2):
            params = SimParams(alpha=rng.choice([0.0, 0.4, 1.0]),
                               k=rng.choice([1, 2, 4, tree.size + 1]))
            rstknn_query(tree, random_query(rng, 5), params, mode, stats=stats)
    assert shared > 1000


def test_inherit_empty_parent():
    objs, tree, stats = _line_tree()
    parent = _lists(tree, node_entry(2))
    child = NNLists.inherited(node_entry(3), parent)
    assert len(child) == 0


def test_strip_self_and_parent():
    objs, tree, stats = _line_tree()
    n3 = node_entry(3)
    lists = _lists(tree, n3)
    lists.add_self()
    lists.update_with(node_entry(2))  # would not happen live; forces the case
    lists.update_with(node_entry(1))
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
    for k in range(1, 7):
        params = SimParams(alpha=1.0, k=k)
        forward = _manual_lists(tree, owner, rows, q, params)
        backward = _manual_lists(tree, owner, rows[::-1], q, params)
        assert forward.is_complete() and backward.is_complete()
        assert forward.knn_lower(k) == backward.knn_lower(k)
        assert forward.knn_upper(k) == backward.knn_upper(k)
        assert is_hit_or_drop(forward) is is_hit_or_drop(backward)
        assert forward.walked_verdict() is backward.walked_verdict()
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
    lists = _manual_lists(tree, owner, [(object_entry("P1"), 1, sim_to_q + 0.1, 1.0)],
                          q_far, params)
    assert is_hit_or_drop(lists) is Verdict.DROP
    # exact tie also prunes: database points win ties
    tie = _manual_lists(tree, owner, [(object_entry("P1"), 1, sim_to_q, 1.0)], q_far, params)
    assert is_hit_or_drop(tie) is Verdict.DROP
    # lower bound below, upper bound below: hit
    hit = _manual_lists(
        tree,
        owner,
        [
            (object_entry("P1"), 1, sim_to_q - 0.3, sim_to_q - 0.2),
            (node_entry(3), 2, sim_to_q - 0.5, sim_to_q - 0.4),
            (node_entry(4), 2, sim_to_q - 0.6, sim_to_q - 0.5),
        ],
        q_far,
        params,
    )
    assert is_hit_or_drop(hit) is Verdict.HIT
    # upper tie: strict inequality required for a hit
    tie_hit = _manual_lists(
        tree,
        owner,
        [
            (object_entry("P1"), 1, sim_to_q - 0.3, sim_to_q),
            (node_entry(3), 2, sim_to_q - 1.0, sim_to_q - 0.9),
            (node_entry(4), 2, sim_to_q - 1.1, sim_to_q - 1.0),
        ],
        q_far,
        params,
    )
    assert tie_hit.knn_upper(1) == sim_to_q
    assert is_hit_or_drop(tie_hit) is Verdict.UNDECIDED


def test_is_hit_or_drop_incomplete_list_cannot_hit():
    tree, stats = _verdict_fixture()
    owner = object_entry("P0")
    q = QueryObject((5.0, 0.0), TermVector())
    params = SimParams(alpha=1.0, k=1)
    # only a low-upper tuple, but P1 and N4 are uncovered: the gated walk,
    # a row's test, allows no hit
    lists = _manual_lists(tree, owner, [(node_entry(3), 2, 0.0, 0.1)], q, params)
    assert not lists.is_complete()
    assert lists.walked_verdict() is Verdict.UNDECIDED
    # the legacy test, an NNLists' own, accepts on the same evidence
    assert is_hit_or_drop(lists) is lists.walked_verdict(gated=False) is Verdict.HIT


def _complete_by_sets(lists):
    """:meth:`NNLists.is_complete` by its definition: no object is held twice,
    and the set difference of all objects and the held ones is empty, or
    only an object owner itself."""
    tree = lists.tree
    held = [oid for t in lists.tuples() for oid in tree.subtree_objects(t[0])]
    if len(held) != len(set(held)):
        return False
    missing = set(tree.objects).difference(held)
    return not missing or (lists.owner.is_object and missing == {lists.owner.ident})


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_is_complete_is_the_set_difference_definition(data):
    # lists of node and object owners on STR and chain layouts (entries that
    # share a span), changed by random inherit/update_with/add_self/remove
    # steps and expansions of a held node into its children, some of which
    # the engine would never take
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    objects = random_dataset(rng, data.draw(st.integers(1, 16)), 4)
    if data.draw(st.booleans()):
        tree = build_tree(objects, data.draw(st.sampled_from([2, 3, 4, 8])))
    else:
        tree = tree_from_layout(objects, _chain_layout(rng, [o.id for o in objects]))
    entries = all_entries(tree)
    lists = _lists(tree, tree.root_entry(), params=SimParams(0.4, 2))
    if data.draw(st.booleans()):
        lists.add_self()
    assert lists.is_complete() is _complete_by_sets(lists)
    for _ in range(data.draw(st.integers(0, 24))):
        step = data.draw(st.sampled_from(["inherit", "update_with", "add_self", "remove",
                                          "expand"]))
        try:
            if step == "inherit":
                children = tree.children(lists.owner)
                if children:
                    lists = NNLists.inherited(data.draw(st.sampled_from(children)), lists)
            elif step == "add_self":
                lists.add_self()
            elif step == "expand":
                held = [t[0] for t in lists.tuples() if t[0].is_node]
                if held:
                    for child in tree.children(data.draw(st.sampled_from(held))):
                        lists.update_with(child)
            else:
                getattr(lists, step)(data.draw(st.sampled_from(entries)))
        except ValueError:  # an update with the owner, or add_self on an object
            pass
        assert lists.is_complete() is _complete_by_sets(lists)


def test_is_complete_on_a_single_object():
    tree = build_tree([STObject("only", (0.0, 0.0), TermVector())])
    root = _lists(tree, tree.root_entry())
    assert not root.is_complete()  # a node owner covers its own point
    root.add_self()
    assert root.is_complete()
    assert _lists(tree, object_entry("only")).is_complete()  # missing only itself


@pytest.mark.parametrize("owner,rows,complete", [
    # object owners at the first and the last preorder position, missing only themselves
    ("P0", [("P1", 1), ("N2", 4)], True),
    ("P5", [("N1", 2), ("N3", 2), ("P4", 1)], True),
    ("P5", [("N1", 2), ("N3", 2)], False),  # P4 is missing too
    ("P0", [("N1", 1), ("N2", 4)], True),   # its own position covered
    # a node owner missing one of its own objects
    ("N3", [("N1", 2), ("P2", 0), ("N4", 2)], False),
    ("N3", [("N1", 2), ("N3", 1), ("N4", 2)], True),
    # overlapping tuples count a point twice
    ("P0", [("P1", 1), ("N2", 4), ("N3", 2)], False),
    ("N3", [("N0", 5), ("N3", 1)], False),
])
def test_is_complete_pinned_cases(owner, rows, complete):
    objs, tree, stats = _line_tree()
    by_label = {e.label: e for e in all_entries(tree)}
    lists = _manual_lists(tree, by_label[owner], [(by_label[e], m, 0.0, 1.0) for e, m in rows])
    assert lists.is_complete() is complete is _complete_by_sets(lists)


def test_is_complete_rejects_two_tuples_of_one_span():
    # a single-object leaf shares its object's span
    objs = [STObject(f"P{i}", (float(i), 0.0), TermVector()) for i in range(3)]
    tree = tree_from_layout(objs, [["P0"], ["P1", "P2"]])
    n1, n2, p0 = node_entry(1), node_entry(2), object_entry("P0")
    owner = object_entry("P1")
    assert _manual_lists(tree, owner, [(n1, 1, 0.0, 1.0), (n2, 1, 0.0, 1.0)]).is_complete()
    both = _manual_lists(tree, owner, [(n1, 1, 0.0, 1.0), (p0, 1, 0.0, 1.0), (n2, 1, 0.0, 1.0)])
    assert not both.is_complete()


def test_operation_sequences_preserve_invariants(rng):
    for trial in range(30):
        n = rng.randint(4, 20)
        objs = random_dataset(rng, n, 5)
        tree = build_tree(objs, rng.choice([2, 4]))
        stats = tree.norm_stats()
        params = SimParams(alpha=rng.choice([0.0, 0.5, 1.0]), k=rng.randint(1, 3))
        root = tree.root_entry()
        lists = _lists(tree, root, params=params, stats=stats)
        lists.add_self()
        _check_invariants(lists)
        # walk down one branch, inheriting and updating with sibling entries
        current, current_lists = root, lists
        while current.is_node:
            children = tree.children(current)
            nxt = children[rng.randrange(len(children))]
            child_lists = NNLists.inherited(nxt, current_lists)
            child_lists.strip_self_and_parent()
            if nxt.is_node:
                child_lists.add_self()
            for sib in children:
                if sib != nxt:
                    child_lists.update_with(sib)
            _check_invariants(child_lists)
            assert child_lists.covered_slots <= tree.size - 1
            current, current_lists = nxt, child_lists
