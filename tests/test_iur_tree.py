import gc
import itertools
import math
import random
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rstknn.core import (
    QueryObject,
    STObject,
    SimParams,
    TermVector,
    extended_jaccard,
    sim_st,
)
from rstknn.datasets import random_dataset
from rstknn.iur_tree import (
    EmptyDataset,
    Mbr,
    build_tree,
    max_dist,
    max_sim_st,
    max_text_sim,
    min_dist,
    min_sim_st,
    min_text_sim,
    node_entry,
    object_entry,
    pair_sim_bounds,
    tree_from_layout,
    _view,
)

coords = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


@st.composite
def mbrs(draw):
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    return Mbr((x1, y1), (x2, y2))


def _corner_pair_extremes(a: Mbr, b: Mbr):
    """Brute-force oracle: max distance over the 16 corner pairs."""
    ca = [(a.lo[0], a.lo[1]), (a.lo[0], a.hi[1]), (a.hi[0], a.lo[1]), (a.hi[0], a.hi[1])]
    cb = [(b.lo[0], b.lo[1]), (b.lo[0], b.hi[1]), (b.hi[0], b.lo[1]), (b.hi[0], b.hi[1])]
    return max(math.dist(p, q) for p in ca for q in cb)


def test_mbr_dist_examples():
    unit = Mbr((0, 0), (1, 1))
    assert min_dist(unit, unit) == 0.0
    assert max_dist(unit, unit) == pytest.approx(math.sqrt(2))
    other = Mbr((0.5, 0.5), (2, 2))  # overlapping
    assert min_dist(unit, other) == 0.0
    far = Mbr((2, 0), (3, 1))
    assert min_dist(unit, far) == 1.0
    assert max_dist(unit, far) == pytest.approx(math.sqrt(10))
    assert max_dist(unit, far) == pytest.approx(_corner_pair_extremes(unit, far))


@given(mbrs(), mbrs())
@settings(max_examples=200)
def test_mbr_dist_bounds_sampled_points(a, b):
    assert 0.0 <= min_dist(a, b) <= max_dist(a, b) + 1e-12
    assert max_dist(a, b) == pytest.approx(_corner_pair_extremes(a, b), abs=1e-9)
    # interior sample points must fall between the bounds
    for fx, fy, gx, gy in [(0, 0, 1, 1), (0.5, 0.5, 0.5, 0.5), (1, 0, 0, 1)]:
        p = (a.lo[0] + fx * (a.hi[0] - a.lo[0]), a.lo[1] + fy * (a.hi[1] - a.lo[1]))
        q = (b.lo[0] + gx * (b.hi[0] - b.lo[0]), b.lo[1] + gy * (b.hi[1] - b.lo[1]))
        d = math.dist(p, q)
        assert min_dist(a, b) - 1e-9 <= d <= max_dist(a, b) + 1e-9


def test_mbr_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        Mbr((1, 0), (0, 1))


def _scan_subtree(tree, node):
    """Invariant oracle: recompute a node's summary from its objects."""
    ids = sorted(tree.subtree_ids(node_entry(node.node_id)))
    objs = [tree.object(i) for i in ids]
    xs = [o.loc[0] for o in objs]
    ys = [o.loc[1] for o in objs]
    terms = sorted({t for o in objs for t in o.vct.terms()})
    union = {t: max(o.vct.weight(t) for o in objs) for t in terms}
    inter = {
        t: min(o.vct.weight(t) for o in objs)
        for t in terms
        if all(o.vct.weight(t) > 0 for o in objs)
    }
    return len(objs), (min(xs), min(ys)), (max(xs), max(ys)), inter, union


def _check_tree_invariants(tree, fanout=None):
    for nid, node in tree.nodes.items():
        count, lo, hi, inter, union = _scan_subtree(tree, node)
        assert node.count == count
        assert node.mbr.lo == lo and node.mbr.hi == hi
        assert node.int_vct.as_dict() == inter
        assert node.union_vct.as_dict() == union
        if fanout is not None:
            assert len(node.object_ids or node.child_ids) <= fanout
        for oid in tree.subtree_ids(node_entry(nid)):
            o = tree.object(oid)
            for t in set(o.vct.terms()) | set(node.union_vct.terms()):
                assert node.int_vct.weight(t) <= o.vct.weight(t) <= node.union_vct.weight(t)


def test_build_singleton():
    o = STObject("only", (3.0, 4.0), TermVector({"a": 2.0}))
    tree = build_tree([o])
    root = tree.nodes[tree.root_id]
    assert root.is_leaf and root.object_ids == ("only",)
    assert root.mbr == Mbr((3.0, 4.0), (3.0, 4.0))
    assert root.int_vct == o.vct == root.union_vct
    assert tree.norm_stats().phi_s == 0.0  # degenerate single-object stats


def test_build_empty_dataset_rejected():
    with pytest.raises(EmptyDataset):
        build_tree([])


def test_build_duplicate_ids_rejected():
    o = STObject("x", (0.0, 0.0), TermVector())
    with pytest.raises(ValueError):
        build_tree([o, o])


@pytest.mark.parametrize("seed,fanout", [(1, 4), (2, 2), (3, 3), (4, 8)])
def test_str_build_invariants(seed, fanout):
    rng = random.Random(seed)
    objs = random_dataset(rng, 64, 6)
    tree = build_tree(objs, fanout)
    _check_tree_invariants(tree, fanout)
    assert tree.subtree_ids(tree.root_entry()) == tree.all_object_ids


def test_layout_builder_reproduces_unbalanced_shape():
    objs = [STObject(f"P{i}", (float(i * 10), 0.0), TermVector()) for i in range(6)]
    layout = [["P0", "P1"], [["P2", "P3"], ["P4", "P5"]]]
    tree = tree_from_layout(objs, layout)
    root = tree.nodes[tree.root_id]
    assert root.node_id == 0 and root.child_ids == (1, 2)
    n1, n2 = tree.nodes[1], tree.nodes[2]
    assert n1.is_leaf and n1.object_ids == ("P0", "P1")
    assert n2.child_ids == (3, 4)
    assert tree.nodes[3].object_ids == ("P2", "P3")
    assert tree.nodes[4].object_ids == ("P4", "P5")
    _check_tree_invariants(tree)


@pytest.mark.parametrize("depth", range(1, 41))
def test_layout_builder_builds_single_child_chains(depth):
    layout: list = ["P0"]
    for _ in range(depth):
        layout = [layout]
    tree = tree_from_layout([STObject("P0", (0.0, 0.0), TermVector())], layout)
    assert len(tree.nodes) == depth + 1
    assert tree.depth(object_entry("P0")) == depth + 1
    assert len(tree.covering(object_entry("P0"))) == depth + 1


def test_layout_builder_builds_chains_deeper_than_the_recursion_limit():
    depth = sys.getrecursionlimit() + 50
    layout: list = ["P0", "P1"]
    for _ in range(depth):
        layout = [layout]
    objs = [STObject("P0", (0.0, 0.0), TermVector({"a": 1.0})),
            STObject("P1", (1.0, 0.0), TermVector())]
    tree = tree_from_layout(objs, layout)
    assert len(tree.nodes) == depth + 1
    assert tree.nodes[depth].object_ids == ("P0", "P1")
    assert tree.depth(object_entry("P1")) == depth + 1


@pytest.mark.parametrize("make", [
    lambda objs: build_tree(objs, 4),
    lambda objs: tree_from_layout(objs, [[o.id for o in objs[:5]], [[o.id for o in objs[5:]]]]),
])
def test_dropped_tree_is_freed_by_reference_counting(make):
    objs = random_dataset(random.Random(5), 40, 6)
    enabled = gc.isenabled()
    gc.disable()
    try:
        tree = make(objs)
        root = weakref.ref(tree.nodes[tree.root_id])
        leaf = weakref.ref(tree.nodes[max(tree.nodes)])
        del tree
        assert root() is None and leaf() is None
    finally:
        if enabled:
            gc.enable()


def test_layout_builder_rejects_incomplete_layouts():
    objs = [STObject(f"P{i}", (float(i), 0.0), TermVector()) for i in range(3)]
    with pytest.raises(ValueError):
        tree_from_layout(objs, [["P0", "P1"]])
    with pytest.raises(ValueError):
        tree_from_layout(objs, [["P0", "P1"], ["P1", "P2"]])


def test_ancestry_and_overlap():
    objs = [STObject(f"P{i}", (float(i * 10), 0.0), TermVector()) for i in range(6)]
    tree = tree_from_layout(objs, [["P0", "P1"], [["P2", "P3"], ["P4", "P5"]]])
    root, n2, n3 = node_entry(0), node_entry(2), node_entry(3)
    p2, p5 = object_entry("P2"), object_entry("P5")
    assert tree.is_ancestor_or_equal(root, p2)
    assert tree.is_ancestor_or_equal(n2, n3)
    assert not tree.is_ancestor_or_equal(n3, n2)
    assert tree.overlaps(n3, n2)
    assert tree.overlaps(p2, n3)
    assert not tree.overlaps(n3, p5)
    assert not tree.overlaps(object_entry("P0"), n2)
    assert tree.subtree_objects(n2) == ["P2", "P3", "P4", "P5"]
    assert tree.subtree_objects(p2) == ["P2"]


def _all_entries(tree):
    return [*tree.iter_node_entries(), *(object_entry(i) for i in sorted(tree.objects))]


def _descendants(tree, entry):
    out, stack = [], list(tree.children(entry))
    while stack:
        e = stack.pop()
        out.append(e)
        stack.extend(tree.children(e))
    return out


def test_entry_records_match_the_nodes(equal_span_trees):
    str_trees = [build_tree(random_dataset(random.Random(s), 64, 6), f)
                 for s, f in ((1, 2), (2, 3), (3, 4), (4, 8))]
    for tree in str_trees + equal_span_trees:
        root = tree.root_entry()
        assert tree.parent(root) is None and tree.depth(root) == 0
        reached = [root]
        stack = [(root, ())]  # entry, its ancestors
        while stack:
            e, ancestors = stack.pop()
            children = tree.children(e)
            assert tree.count(e) == len(tree.subtree_ids(e))
            equal_below = {d for d in _descendants(tree, e) if tree.count(d) == tree.count(e)}
            assert set(tree.covering(e)) == set(ancestors) | equal_below
            if e.is_node:
                node = tree.nodes[e.ident]
                assert children == tuple(map(object_entry, node.object_ids)) + tuple(
                    map(node_entry, node.child_ids))
                assert sum(tree.count(c) for c in children) == tree.count(e)
                assert frozenset().union(*map(tree.subtree_ids, children)) == tree.subtree_ids(e)
                assert tree.mbr(e) == node.mbr
                assert _view(tree, e) == (node.mbr, node.int_vct, node.union_vct)
            else:
                obj = tree.object(e.ident)
                assert children == ()
                assert tree.subtree_ids(e) == {e.ident}
                assert tree.mbr(e) == Mbr.from_point(obj.loc)
                assert _view(tree, e) == (Mbr.from_point(obj.loc), obj.vct, obj.vct)
            for c in children:
                assert tree.parent(c) == e and tree.depth(c) == tree.depth(e) + 1
                stack.append((c, ancestors + (e,)))
            reached.extend(children)
        assert sorted(reached, key=lambda e: e.order_key) == sorted(
            _all_entries(tree), key=lambda e: e.order_key)


def test_covering_is_every_other_entry_with_a_containing_span(equal_span_trees):
    equal_spans = 0
    for tree in equal_span_trees:
        entries = _all_entries(tree)
        for b in entries:
            covering = tree.covering(b)
            assert len(covering) == len(set(covering))
            assert set(covering) == {
                e for e in entries if e != b and tree.is_ancestor_or_equal(e, b)
            }
            equal_spans += sum(tree.is_ancestor_or_equal(b, e) for e in covering)
    assert equal_spans > 0  # chain nodes and single-object leaves were exercised


def test_pair_sim_bounds_symmetric_bit_for_bit():
    rng = random.Random(31)
    real_valued = [
        STObject(f"R{i}", (rng.gauss(0.0, 50.0), rng.gauss(0.0, 50.0)),
                 TermVector({f"t{j}": rng.uniform(0.01, 3.0)
                             for j in rng.sample(range(6), rng.randint(0, 4))}))
        for i in range(40)
    ]
    trees = [build_tree(real_valued, 3), build_tree(random_dataset(rng, 40, 6), 4)]
    for tree in trees:
        stats = tree.norm_stats()
        entries = _all_entries(tree)
        for _ in range(300):
            a, b = rng.choice(entries), rng.choice(entries)
            params = SimParams(alpha=rng.choice([0.0, 0.4, 0.7, 1.0]), k=1)
            ab = pair_sim_bounds(tree, a, b, params, stats)
            ba = pair_sim_bounds(tree, b, a, params, stats)
            assert [x.hex() for x in ab] == [x.hex() for x in ba], (a, b)


def _group_vectors(vectors):
    """Stand-alone intersection/union used as an oracle for the bound formulas."""
    terms = sorted({t for v in vectors for t in v.terms()})
    union = TermVector({t: max(v.weight(t) for v in vectors) for t in terms})
    inter = TermVector(
        {t: min(v.weight(t) for v in vectors) for t in terms
         if all(v.weight(t) > 0 for v in vectors)}
    )
    return inter, union


def test_text_bounds_published_example():
    # groups <100,30>,<1,40> vs <1,50>: bound 1501/12600, true pairwise min 1600/11801
    a = [TermVector({"d0": 100.0, "d1": 30.0}), TermVector({"d0": 1.0, "d1": 40.0})]
    b = [TermVector({"d0": 1.0, "d1": 50.0})]
    objs = (
        [STObject(f"a{i}", (0.0, float(i)), v) for i, v in enumerate(a)]
        + [STObject(f"b{i}", (10.0, float(i)), v) for i, v in enumerate(b)]
    )
    tree = tree_from_layout(objs, [["a0", "a1"], ["b0"]])
    na, nb = node_entry(1), node_entry(2)
    got = min_text_sim(tree, na, nb)
    assert got == pytest.approx(1501 / 12600, abs=1e-12)
    true_min = min(extended_jaccard(u, v) for u in a for v in b)
    assert got <= true_min
    assert true_min == pytest.approx(0.1356, abs=1e-4)


def test_text_bounds_collapse_for_singletons():
    u = TermVector({"a": 3.0, "b": 1.0})
    v = TermVector({"a": 1.0, "c": 2.0})
    objs = [STObject("x", (0.0, 0.0), u), STObject("y", (5.0, 0.0), v)]
    tree = tree_from_layout(objs, [["x"], ["y"]])
    nx, ny = node_entry(1), node_entry(2)
    assert min_text_sim(tree, nx, ny) == extended_jaccard(u, v)
    assert max_text_sim(tree, nx, ny) == extended_jaccard(u, v)


def test_max_text_sim_degenerate_denominator_is_one():
    # disjoint singletons grouped together: empty intersections, nonempty unions
    objs = [
        STObject("a", (0.0, 0.0), TermVector({"a": 2.0})),
        STObject("b", (1.0, 0.0), TermVector({"b": 2.0})),
        STObject("c", (10.0, 0.0), TermVector({"c": 3.0})),
        STObject("d", (11.0, 0.0), TermVector({"d": 3.0})),
    ]
    tree = tree_from_layout(objs, [["a", "b"], ["c", "d"]])
    e, f = node_entry(1), node_entry(2)
    assert tree.nodes[1].int_vct.is_empty and tree.nodes[2].int_vct.is_empty
    assert max_text_sim(tree, e, f) == 1.0


def test_text_bounds_both_empty_groups_score_zero():
    objs = [
        STObject("a", (0.0, 0.0), TermVector()),
        STObject("b", (1.0, 0.0), TermVector()),
    ]
    tree = tree_from_layout(objs, [["a"], ["b"]])
    assert min_text_sim(tree, node_entry(1), node_entry(2)) == 0.0
    assert max_text_sim(tree, node_entry(1), node_entry(2)) == 0.0
    # matches the point-level convention, so bounds still collapse exactly
    assert extended_jaccard(objs[0].vct, objs[1].vct) == 0.0


def test_text_bounds_sandwich_random_groups(rng):
    for _ in range(200):
        na, nb = rng.randint(1, 4), rng.randint(1, 4)
        vecs = [
            TermVector({f"t{j}": float(rng.randint(1, 10)) for j in range(rng.randint(0, 4))})
            for _ in range(na + nb)
        ]
        ids = [f"o{i}" for i in range(na + nb)]
        objs = [STObject(i, (float(k), 0.0), v) for k, (i, v) in enumerate(zip(ids, vecs))]
        tree = tree_from_layout(objs, [ids[:na], ids[na:]])
        e, f = node_entry(1), node_entry(2)
        lo = min_text_sim(tree, e, f)
        hi = max_text_sim(tree, e, f)
        for u in vecs[:na]:
            for v in vecs[na:]:
                ej = extended_jaccard(u, v)
                assert lo <= ej + 1e-12
                assert hi >= ej - 1e-12


def test_sim_bounds_collapse_to_sim_st_for_points():
    objs = [
        STObject("x", (0.0, 0.0), TermVector({"a": 3.0})),
        STObject("y", (3.0, 4.0), TermVector({"a": 1.0, "b": 2.0})),
        STObject("z", (20.0, 0.0), TermVector()),
    ]
    tree = build_tree(objs, 2)
    stats = tree.norm_stats()
    params = SimParams(alpha=0.6, k=1)
    ex, ey = object_entry("x"), object_entry("y")
    expected = sim_st(objs[0], objs[1], params, stats)
    assert min_sim_st(tree, ex, ey, params, stats) == expected
    assert max_sim_st(tree, ex, ey, params, stats) == expected
    # and against a query object
    q = QueryObject((1.0, 1.0), TermVector({"b": 1.0}))
    assert min_sim_st(tree, ex, q, params, stats) == sim_st(objs[0], q, params, stats)
    assert max_sim_st(tree, ex, q, params, stats) == sim_st(objs[0], q, params, stats)


def test_sim_bounds_sandwich_random_node_pairs():
    rng = random.Random(99)
    checked = 0
    while checked < 200:
        objs = random_dataset(rng, rng.randint(6, 24), 6)
        tree = build_tree(objs, rng.choice([2, 4]))
        stats = tree.norm_stats()
        params = SimParams(alpha=rng.choice([0.0, 0.4, 1.0]), k=1)
        by_id = {o.id: o for o in objs}
        nodes = list(tree.iter_node_entries())
        for e, f in itertools.combinations_with_replacement(nodes, 2):
            lo = min_sim_st(tree, e, f, params, stats)
            hi = max_sim_st(tree, e, f, params, stats)
            pair_sims = [
                sim_st(by_id[i], by_id[j], params, stats)
                for i in tree.subtree_ids(e)
                for j in tree.subtree_ids(f)
            ]
            assert lo <= min(pair_sims) + 1e-12
            assert hi >= max(pair_sims) - 1e-12
            checked += 1
            if checked >= 200:
                return
