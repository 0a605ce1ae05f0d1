import gc
import itertools
import math
import random
import sys
import weakref

import numpy as np
import pytest
from conftest import all_entries, offgrid_instance
from hypothesis import given, settings
from hypothesis import strategies as st
from refimpl import (
    is_ancestor_or_equal,
    max_dist,
    max_text_sim,
    min_dist,
    min_text_sim,
    overlaps,
    view,
)

from rstknn.core import (
    NormStats,
    QueryObject,
    STObject,
    SimParams,
    TermVector,
    combined_similarity,
    euclidean_dist,
    extended_jaccard,
    sim_st,
)
from rstknn.datasets import random_dataset
from rstknn.iur_tree import (
    EmptyDataset,
    build_tree,
    max_sim_st,
    min_sim_st,
    node_entry,
    object_entry,
    pair_sim_bounds,
    tree_from_layout,
    _str_layout,
)

coords = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw):
    """A box as its corners (lo x, lo y, hi x, hi y)."""
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    return x1, y1, x2, y2


def _corner_pair_extremes(a, b):
    """Brute-force oracle: max distance over the 16 corner pairs."""
    ca = [(x, y) for x in (a[0], a[2]) for y in (a[1], a[3])]
    cb = [(x, y) for x in (b[0], b[2]) for y in (b[1], b[3])]
    return max(math.dist(p, q) for p in ca for q in cb)


def test_mbr_dist_examples():
    unit = (0.0, 0.0, 1.0, 1.0)
    assert min_dist(unit, unit) == 0.0
    assert max_dist(unit, unit) == pytest.approx(math.sqrt(2))
    other = (0.5, 0.5, 2.0, 2.0)  # overlapping
    assert min_dist(unit, other) == 0.0
    far = (2.0, 0.0, 3.0, 1.0)
    assert min_dist(unit, far) == 1.0
    assert max_dist(unit, far) == pytest.approx(math.sqrt(10))
    assert max_dist(unit, far) == pytest.approx(_corner_pair_extremes(unit, far))


@given(boxes(), boxes())
@settings(max_examples=200)
def test_mbr_dist_bounds_sampled_points(a, b):
    assert 0.0 <= min_dist(a, b) <= max_dist(a, b) + 1e-12
    assert max_dist(a, b) == pytest.approx(_corner_pair_extremes(a, b), abs=1e-9)
    # interior sample points must fall between the bounds
    (alx, aly, ahx, ahy), (blx, bly, bhx, bhy) = a, b
    for fx, fy, gx, gy in [(0, 0, 1, 1), (0.5, 0.5, 0.5, 0.5), (1, 0, 0, 1)]:
        p = (alx + fx * (ahx - alx), aly + fy * (ahy - aly))
        q = (blx + gx * (bhx - blx), bly + gy * (bhy - bly))
        d = math.dist(p, q)
        assert min_dist(a, b) - 1e-9 <= d <= max_dist(a, b) + 1e-9


def _descendants(tree, entry):
    out, stack = [], list(tree.children(entry))
    while stack:
        e = stack.pop()
        out.append(e)
        stack.extend(tree.children(e))
    return out


def _objects_under(tree, entry):
    """The entry's object ids, found by walking its children."""
    if entry.is_object:
        return [entry.ident]
    return sorted(d.ident for d in _descendants(tree, entry) if d.is_object)


def _scan_subtree(tree, entry):
    """Invariant oracle: recompute an entry's summary from its objects."""
    objs = [tree.object(i) for i in _objects_under(tree, entry)]
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
    for e in tree.iter_node_entries():
        node = tree.record(e)
        count, lo, hi, inter, union = _scan_subtree(tree, e)
        assert tree.count(e) == count
        assert node.box == (*lo, *hi)
        assert node.int_vct.as_dict() == inter
        assert node.union_vct.as_dict() == union
        if fanout is not None:
            assert len(node.children) <= fanout
        assert tree.subtree_objects(e) == _objects_under(tree, e)
        for oid in tree.subtree_objects(e):
            o = tree.object(oid)
            for t in set(o.vct.terms()) | set(node.union_vct.terms()):
                assert node.int_vct.weight(t) <= o.vct.weight(t) <= node.union_vct.weight(t)


def test_build_singleton():
    o = STObject("only", (3.0, 4.0), TermVector({"a": 2.0}))
    tree = build_tree([o])
    root = tree.record(tree.root_entry())
    assert root.children == (object_entry("only"),)
    assert root.box == (3.0, 4.0, 3.0, 4.0)
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
    assert tree.subtree_objects(tree.root_entry()) == sorted(o.id for o in objs)


def test_layout_builder_reproduces_unbalanced_shape():
    objs = [STObject(f"P{i}", (float(i * 10), 0.0), TermVector()) for i in range(6)]
    layout = [["P0", "P1"], [["P2", "P3"], ["P4", "P5"]]]
    tree = tree_from_layout(objs, layout)
    assert tree.root_entry() == node_entry(0)
    assert tree.children(node_entry(0)) == (node_entry(1), node_entry(2))
    assert tree.children(node_entry(1)) == (object_entry("P0"), object_entry("P1"))
    assert tree.children(node_entry(2)) == (node_entry(3), node_entry(4))
    assert tree.children(node_entry(3)) == (object_entry("P2"), object_entry("P3"))
    assert tree.children(node_entry(4)) == (object_entry("P4"), object_entry("P5"))
    _check_tree_invariants(tree)


@pytest.mark.parametrize("depth", range(1, 41))
def test_layout_builder_builds_single_child_chains(depth):
    layout: list = ["P0"]
    for _ in range(depth):
        layout = [layout]
    tree = tree_from_layout([STObject("P0", (0.0, 0.0), TermVector())], layout)
    assert len(list(tree.iter_node_entries())) == depth + 1
    assert tree.depth(object_entry("P0")) == depth + 1
    assert len(tree.record(object_entry("P0")).covering) == depth + 1


def test_layout_builder_builds_chains_deeper_than_the_recursion_limit():
    depth = sys.getrecursionlimit() + 50
    layout: list = ["P0", "P1"]
    for _ in range(depth):
        layout = [layout]
    objs = [STObject("P0", (0.0, 0.0), TermVector({"a": 1.0})),
            STObject("P1", (1.0, 0.0), TermVector())]
    tree = tree_from_layout(objs, layout)
    assert len(list(tree.iter_node_entries())) == depth + 1
    assert tree.children(node_entry(depth)) == (object_entry("P0"), object_entry("P1"))
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
        refs = [weakref.ref(x) for x in (tree, tree.tiles(), tree.entry_arrays())]
        del tree
        assert all(ref() is None for ref in refs)
    finally:
        if enabled:
            gc.enable()


def test_layout_builder_rejects_incomplete_layouts():
    objs = [STObject(f"P{i}", (float(i), 0.0), TermVector()) for i in range(3)]
    with pytest.raises(ValueError):
        tree_from_layout(objs, [["P0", "P1"]])
    with pytest.raises(ValueError):
        tree_from_layout(objs, [["P0", "P1"], ["P1", "P2"]])
    # malformed layouts: ids beside sub-lists, a node that is not a non-empty
    # list, a leaf element that is not an id
    for layout in (
        ["P0", ["P1", "P2"]],
        [["P0", "P1", "P2"], []],
        [["P0", "P1", "P2"], 5],
        [["P0", "P1"], ["P2", 5]],
        [["P0"], ("P1", "P2")],
        "P0P1P2",
    ):
        with pytest.raises(ValueError):
            tree_from_layout(objs, layout)
    # a one-character id iterates as a leaf of itself: still rejected
    abc = [STObject(c, (float(i), 0.0), TermVector()) for i, c in enumerate("abc")]
    with pytest.raises(ValueError):
        tree_from_layout(abc, ["a", ["b", "c"]])


def test_ancestry_and_overlap():
    objs = [STObject(f"P{i}", (float(i * 10), 0.0), TermVector()) for i in range(6)]
    tree = tree_from_layout(objs, [["P0", "P1"], [["P2", "P3"], ["P4", "P5"]]])
    root, n2, n3 = node_entry(0), node_entry(2), node_entry(3)
    p2, p5 = object_entry("P2"), object_entry("P5")
    assert is_ancestor_or_equal(tree, root, p2)
    assert is_ancestor_or_equal(tree, n2, n3)
    assert not is_ancestor_or_equal(tree, n3, n2)
    assert overlaps(tree, n3, n2)
    assert overlaps(tree, p2, n3)
    assert not overlaps(tree, n3, p5)
    assert not overlaps(tree, object_entry("P0"), n2)
    assert tree.subtree_objects(n2) == ["P2", "P3", "P4", "P5"]
    assert tree.subtree_objects(p2) == ["P2"]


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
            assert tree.count(e) == len(tree.subtree_objects(e))
            equal_below = {d for d in _descendants(tree, e) if tree.count(d) == tree.count(e)}
            assert set(tree.record(e).covering) == set(ancestors) | equal_below
            count, lo, hi, inter, union = _scan_subtree(tree, e)
            assert tree.count(e) == count
            assert tree.subtree_objects(e) == _objects_under(tree, e)
            assert view(tree, e) == ((*lo, *hi), TermVector(inter), TermVector(union))
            assert tree.record(e).box == (*lo, *hi)
            if e.is_node:
                assert children and (all(c.is_node for c in children)
                                     or all(c.is_object for c in children))
                assert sum(tree.count(c) for c in children) == tree.count(e)
                assert sorted(itertools.chain.from_iterable(
                    map(tree.subtree_objects, children))) == tree.subtree_objects(e)
            else:
                obj = tree.object(e.ident)
                assert children == ()
                assert tree.subtree_objects(e) == [e.ident]
                x, y = obj.loc
                assert tree.record(e).box == (x, y, x, y)
                assert view(tree, e) == ((x, y, x, y), obj.vct, obj.vct)
            for c in children:
                assert tree.parent(c) == e and tree.depth(c) == tree.depth(e) + 1
                stack.append((c, ancestors + (e,)))
            reached.extend(children)
        assert sorted(reached) == sorted(all_entries(tree))


def _layout_of(tree, entry):
    """The nested layout under ``entry``, rebuilt from the children."""
    children = tree.children(entry)
    if children[0].is_object:
        return [c.ident for c in children]
    return [_layout_of(tree, c) for c in children]


def test_entries_sort_nodes_by_number_then_objects_by_id():
    # the order the engine breaks ties by; node N10 sorts after N9
    tree = build_tree(random_dataset(random.Random(7), 64, 6), 2)
    nodes = len(list(tree.iter_node_entries()))
    assert nodes > 10
    entries = all_entries(tree)
    random.Random(0).shuffle(entries)
    assert sorted(entries) == [*map(node_entry, range(nodes)),
                               *map(object_entry, sorted(tree.objects))]


def test_layout_round_trips_through_the_children(equal_span_layouts):
    cases = list(equal_span_layouts)
    for fanout in (2, 3, 4, 8):
        for n in (1, 5, 17, 64):
            objects = random_dataset(random.Random(n * fanout), n, 6)
            cases.append((objects, _str_layout(objects, fanout)))
    for objects, layout in cases:
        tree = tree_from_layout(objects, layout)
        assert _layout_of(tree, tree.root_entry()) == layout
        # node ids are preorder positions
        preorder, stack = [], [tree.root_entry()]
        while stack:
            e = stack.pop()
            if e.is_node:
                preorder.append(e.ident)
                stack.extend(reversed(tree.children(e)))
        assert preorder == list(range(len(preorder)))
        assert list(tree.iter_node_entries()) == [node_entry(i) for i in preorder]


def test_covering_is_every_other_entry_with_a_containing_span(equal_span_trees):
    equal_spans = 0
    for tree in equal_span_trees:
        entries = all_entries(tree)
        for b in entries:
            covering = tree.record(b).covering
            assert len(covering) == len(set(covering))
            assert set(covering) == {
                e for e in entries if e != b and is_ancestor_or_equal(tree, e, b)
            }
            equal_spans += sum(is_ancestor_or_equal(tree, b, e) for e in covering)
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
        entries = all_entries(tree)
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
    assert tree.record(e).int_vct.is_empty and tree.record(f).int_vct.is_empty
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
                for i in tree.subtree_objects(e)
                for j in tree.subtree_objects(f)
            ]
            assert lo <= min(pair_sims) + 1e-12
            assert hi >= max(pair_sims) - 1e-12
            checked += 1
            if checked >= 200:
                return


# -- the entry arrays' vectorized bounds against the scalar ones -----------------


def _near_zero_denominator_tree():
    """Nodes whose upper text bound's denominator, |I_a|^2 + |I_b|^2 - U_a.U_b,
    is negative, zero or a few ulps above zero against other entries, and an
    empty term vector."""
    base = {"t1": 0.1, "t2": 0.2, "t3": 0.3, "t4": 0.7}
    objs = [STObject("E", (5.0, 5.0), TermVector())]
    for i, w in enumerate([1e-9, 1e-8, 3e-8, 1e-7]):
        objs.append(STObject(f"A{i}", (float(i), 0.0), TermVector({**base, "s": w})))
        objs.append(STObject(f"B{i}", (float(i), 1.0), TermVector({"s": w})))
        objs.append(STObject(f"C{i}", (float(i), 2.0), TermVector(base)))
    layout = [[f"A{i}", f"B{i}"] for i in range(4)] + [[f"C{i}" for i in range(4)] + ["E"]]
    return tree_from_layout(objs, layout)


@pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
def test_entry_array_bounds_lie_within_the_margin(alpha, equal_span_trees):
    # every element of every owner's row against the scalar pair_sim_bounds:
    # a node's from the general arithmetic, an object's from the pair
    # kernel against the objects (its own element is -inf) and from the
    # general arithmetic against the nodes
    rng = random.Random(99)
    trees = [build_tree(random_dataset(rng, rng.randint(1, 40), 5), fanout)
             for fanout in (2, 3, 4, 8) for _ in range(3)]
    trees += [offgrid_instance(i)[2] for i in range(24)]  # duplicates, chain layouts
    trees += [*equal_span_trees, _near_zero_denominator_tree()]
    params = SimParams(alpha, 1)
    negative = zero = near_zero = objects = 0
    for tree in trees:
        stats = tree.norm_stats()
        arrays = tree.entry_arrays()
        entries = arrays.entries
        margin = tree.tiles().sim_err(params, stats)
        for owners in np.arange(arrays.nodes), np.arange(arrays.nodes, len(entries)):
            lower, upper = arrays.bounds(owners, params, stats)
            for row, i in enumerate(owners.tolist()):
                a = tree.record(entries[i])
                for j, e in enumerate(entries):
                    if j == i and e.is_object:
                        assert lower[row, j] == upper[row, j] == -math.inf
                        continue
                    low, high = pair_sim_bounds(tree, entries[i], e, params, stats)
                    # NaN only marks a dot of underflowed products, which these
                    # weights never make; it fails the comparison
                    assert abs(lower[row, j] - low) <= margin, (entries[i], e)
                    assert abs(upper[row, j] - high) <= margin, (entries[i], e)
                    objects += entries[i].is_object
                    b = tree.record(e)
                    dot = a.union_vct.dot(b.union_vct)
                    den = a.int_vct.norm_sq + b.int_vct.norm_sq - dot
                    if dot > 0:
                        negative += den < 0
                        zero += den == 0
                        near_zero += 0 < den <= arrays.tiles.ej_err * (den + 2 * dot)
        # object owners given some node columns read the others as unknown
        some = np.arange(0, arrays.nodes, 2)
        for part, full in zip(arrays.bounds(owners, params, stats, some), (lower, upper)):
            expected = full.copy()
            expected[:, 1:arrays.nodes:2] = np.nan
            assert np.array_equal(part, expected, equal_nan=True)
    assert min(negative, zero, near_zero) > 0 and objects > 10_000


# -- the scalar kernel against the reference composition, bit for bit ----------


def _combined(dist, ej, params, stats):
    """combined_similarity as the composition of the two normalized scores,
    each evaluated only with a nonzero weight."""
    def spatial():
        if stats.psi_s == stats.phi_s:
            return 1.0
        return 1.0 - (dist - stats.phi_s) / (stats.psi_s - stats.phi_s)

    def textual():
        if stats.psi_t == stats.phi_t:
            return 1.0
        return (ej - stats.phi_t) / (stats.psi_t - stats.phi_t)

    a = params.alpha
    if a == 0.0:
        return textual()
    if a == 1.0:
        return spatial()
    return a * spatial() + (1.0 - a) * textual()


def _reference_bounds(tree, a, b, params, stats):
    """(lower, upper) as the corner distances of the boxes and the group text
    bounds, composed by :func:`_combined`."""
    ma, ia, ua = view(tree, a)
    mb, ib, ub = view(tree, b)
    lower_text = upper_text = 0.0
    if not (ua.is_empty and ub.is_empty):
        num = ia.dot(ib)
        lower_text = max(0.0, min(1.0, num / (ua.norm_sq + ub.norm_sq - num)))
        num = ua.dot(ub)
        den = ia.norm_sq + ib.norm_sq - num
        upper_text = 1.0 if den <= 0.0 else max(0.0, min(1.0, num / den))
    return (_combined(max_dist(ma, mb), lower_text, params, stats),
            _combined(min_dist(ma, mb), upper_text, params, stats))


def _bits(*values):
    return [float(v).hex() for v in values]


_kernel_coords = st.one_of(st.integers(-20, 20).map(float),
                           st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False))
_kernel_vectors = st.dictionaries(
    st.sampled_from("abcde"),
    st.one_of(st.integers(1, 9).map(float), st.floats(0.01, 10.0)), max_size=4).map(TermVector)


@st.composite
def _kernel_cases(draw):
    """(objects, tree, query, stats): grid or Gaussian-like coordinates with
    repeated locations, possibly empty vectors, data possibly shifted to
    -1e308, a query possibly at 1e308, and the data's statistics or
    degenerate ones."""
    shift = draw(st.sampled_from([0.0, 0.0, -1e308]))
    locs: list = []
    for _ in range(draw(st.integers(1, 10))):
        repeat = locs and draw(st.booleans())
        locs.append(draw(st.sampled_from(locs)) if repeat
                    else (shift + draw(_kernel_coords), draw(_kernel_coords)))
    objs = [STObject(f"P{i}", loc, draw(_kernel_vectors)) for i, loc in enumerate(locs)]
    tree = build_tree(objs, draw(st.sampled_from([2, 3, 8])))
    base = tree.norm_stats()
    stats = draw(st.sampled_from([
        base, NormStats(base.phi_s, base.phi_s, base.phi_t, base.psi_t),
        NormStats(base.phi_s, base.psi_s, base.psi_t, base.psi_t), NormStats(0.0, 0.0, 0.0, 0.0)]))
    qx = draw(st.one_of(_kernel_coords, st.just(1e308)))
    query = QueryObject((qx, draw(_kernel_coords)), draw(_kernel_vectors))
    return objs, tree, query, stats


@settings(max_examples=80, deadline=None)
@given(_kernel_cases(), st.sampled_from([0.0, 0.4, 1.0]))
def test_the_scalar_kernel_is_the_reference_composition_bit_for_bit(case, alpha):
    # sim_st against combined_similarity(euclidean_dist, extended_jaccard), and
    # pair_sim_bounds against the corner distances and group text bounds and
    # against (min_sim_st, max_sim_st), for every entry pair and every
    # entry-query pair; both codes in the same order, so every bit agrees
    objs, tree, query, stats = case
    params = SimParams(alpha, 1)
    for o in objs:
        for other in [*objs, query]:
            want = _combined(euclidean_dist(o.loc, other.loc), extended_jaccard(o.vct, other.vct),
                             params, stats)
            assert _bits(sim_st(o, other, params, stats)) == _bits(want)
            assert _bits(combined_similarity(euclidean_dist(o.loc, other.loc),
                                             extended_jaccard(o.vct, other.vct),
                                             params, stats)) == _bits(want)
    entries = all_entries(tree)
    for a in entries:
        for b in [*entries, query]:
            got = pair_sim_bounds(tree, a, b, params, stats)
            assert _bits(*got) == _bits(*_reference_bounds(tree, a, b, params, stats))
            assert _bits(*got) == _bits(min_sim_st(tree, a, b, params, stats),
                                        max_sim_st(tree, a, b, params, stats))
            if b is not query:
                assert _bits(*got) == _bits(*pair_sim_bounds(tree, b, a, params, stats))
