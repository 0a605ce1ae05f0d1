import math
import random
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest
import refimpl
from hypothesis import given, settings
from hypothesis import strategies as st
from refimpl import check_bound_sandwich, ej_dominance_counterexample

import rstknn.core as core_mod
import rstknn.iur_tree as iur_tree
import rstknn.oracle as oracle_mod
from rstknn.core import (
    NormStats,
    QueryObject,
    STObject,
    SimParams,
    TermVector,
    compute_norm_stats,
    euclidean_dist,
    extended_jaccard,
    sim_st,
)
from rstknn.datasets import random_dataset, random_query
from rstknn.engine import EngineAudit, Mode, rstknn_query
from rstknn.iur_tree import build_tree, max_sim_st, min_sim_st, object_entry, pair_sim_bounds
from rstknn.oracle import kth_nn_sim, rknn_bruteforce

ROOT = Path(__file__).resolve().parent.parent
# the counterexample search lives in its script, which these tests load
_search = runpy.run_path(str(ROOT / "scripts" / "find_counterexamples.py"))
counterexample_search = _search["counterexample_search"]

NEG_INF = float("-inf")


def _two_objects():
    return [
        STObject("a", (0.0, 0.0), TermVector({"x": 1.0})),
        STObject("b", (5.0, 0.0), TermVector({"x": 2.0})),
    ]


def test_kth_nn_sim_two_objects():
    objs = _two_objects()
    stats = compute_norm_stats(objs)
    params = SimParams(alpha=0.5, k=1)
    assert kth_nn_sim(objs[0], objs, 1, params, stats) == sim_st(objs[0], objs[1], params, stats)


def test_kth_nn_sim_insufficient_neighbors():
    objs = _two_objects()
    stats = compute_norm_stats(objs)
    params = SimParams(alpha=0.5, k=2)
    assert kth_nn_sim(objs[0], objs, 2, params, stats) == NEG_INF
    with pytest.raises(ValueError):
        kth_nn_sim(objs[0], objs, 0, params, stats)


def test_kth_nn_sim_matches_full_sort(rng):
    objs = random_dataset(rng, 10, 5)
    stats = compute_norm_stats(objs)
    params = SimParams(alpha=0.4, k=3)
    for o in objs:
        row = sorted(
            (sim_st(o, other, params, stats) for other in objs if other.id != o.id),
            reverse=True,
        )
        assert kth_nn_sim(o, objs, 3, params, stats) == row[2]


def test_rknn_bruteforce_collinear():
    objs = [
        STObject("a", (0.0, 0.0), TermVector()),
        STObject("b", (1.0, 0.0), TermVector()),
        STObject("c", (10.0, 0.0), TermVector()),
    ]
    q = QueryObject((0.4, 0.0), TermVector())
    stats = compute_norm_stats(objs)
    assert rknn_bruteforce(objs, q, SimParams(alpha=1.0, k=1), stats) == {"a", "b"}


def test_rknn_bruteforce_tie_excludes():
    # query exactly as similar as the 1-NN: strict rule keeps the object out
    objs = [
        STObject("a", (0.0, 0.0), TermVector()),
        STObject("b", (4.0, 0.0), TermVector()),
        STObject("c", (8.0, 0.0), TermVector()),
    ]
    q = QueryObject((4.0, 0.0), TermVector())  # same distance from a as b is
    stats = compute_norm_stats(objs)
    result = rknn_bruteforce(objs, q, SimParams(alpha=1.0, k=1), stats)
    assert "a" not in result
    assert result == {"b"}  # b sits on the query point and beats its 1-NN outright


def test_alpha_shifts_membership():
    # spatially the answer is {P3, P4}; with text weighted in, P2 (textually
    # identical to the query, but sitting in a far cluster of unrelated
    # neighbors) joins the result
    objs = [
        STObject("P0", (10.0, 90.0), TermVector({"misc": 3.0})),
        STObject("P1", (10.0, 95.0), TermVector({"gear": 6.0})),
        STObject("P2", (100.0, 100.0), TermVector({"food": 5.0})),
        STObject("P3", (44.0, 50.0), TermVector({"food": 4.0})),
        STObject("P4", (56.0, 50.0), TermVector({"food": 4.0})),
        STObject("P5", (104.0, 100.0), TermVector({"stuff": 6.0})),
    ]
    q = QueryObject((50.0, 50.0), TermVector({"food": 5.0}))
    stats = compute_norm_stats(objs)
    spatial = rknn_bruteforce(objs, q, SimParams(alpha=1.0, k=2), stats)
    mixed = rknn_bruteforce(objs, q, SimParams(alpha=0.4, k=2), stats)
    assert spatial == {"P3", "P4"}
    assert mixed == {"P2", "P3", "P4"}
    # the tree traversal agrees at both settings
    tree = build_tree(objs, 2)
    for params, want in ((SimParams(1.0, 2), spatial), (SimParams(0.4, 2), mixed)):
        got, _ = rstknn_query(tree, q, params, stats=stats)
        assert got == want


def test_rknn_bruteforce_permutation_invariant(rng):
    objs = random_dataset(rng, 12, 5)
    q = random_query(rng, 5)
    stats = compute_norm_stats(objs)
    params = SimParams(alpha=0.7, k=2)
    base = rknn_bruteforce(objs, q, params, stats)
    for _ in range(5):
        shuffled = objs[:]
        rng.shuffle(shuffled)
        assert rknn_bruteforce(shuffled, q, params, stats) == base


def test_rknn_bruteforce_rejects_duplicate_ids():
    objs = _two_objects() + [STObject("a", (9.0, 9.0), TermVector())]
    stats = NormStats(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        rknn_bruteforce(objs, QueryObject((0.0, 0.0), TermVector()), SimParams(0.5, 1), stats)


# -- the vectorized oracle and statistics against the scalar definitions -------


def pair_table_stats(objs):
    """The scalar definition of the statistics: extremes of the pair table."""
    if len(objs) < 2:
        return NormStats(0.0, 0.0, 0.0, 0.0)
    pairs = [(a, b) for i, a in enumerate(objs) for b in objs[i + 1:]]
    dists = [euclidean_dist(a.loc, b.loc) for a, b in pairs]
    sims = [extended_jaccard(a.vct, b.vct) for a, b in pairs]
    return NormStats(min(dists), max(dists), min(sims), max(sims))


def scalar_rknn(objs, q, params, stats):
    """The scalar definition of the reverse k-NN answer."""
    return {o.id for o in objs
            if sim_st(o, q, params, stats) > kth_nn_sim(o, objs, params.k, params, stats)}


@st.composite
def real_instances(draw):
    """Gaussian coordinates and fractional weights, with the cases that put
    comparisons on a knife's edge: duplicate locations and vectors, empty
    vectors, all points identical, nearly degenerate statistics, lattice
    points a few ulps off the lattice (many pair distances equal but for
    their last digits), and a query copied from a dataset object."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 14))
    vocab = draw(st.integers(1, 6))
    magnitude = draw(st.sampled_from([1.0, 1e3, 1e6]))
    shape = draw(st.sampled_from(["spread", "duplicates", "identical", "near-degenerate",
                                  "lattice"]))
    spread = magnitude * (1e-9 if shape == "near-degenerate" else 1.0)
    center = (rng.gauss(0, magnitude), rng.gauss(0, magnitude))
    same_text = draw(st.booleans()) and shape != "spread"

    def terms():
        chosen = rng.sample(range(vocab), rng.randint(0, min(vocab, 4)))
        return {f"t{j}": rng.uniform(0.01, 5.0) for j in chosen}

    base = terms()
    objs = []
    for i in range(n):
        if shape == "identical" or (shape == "duplicates" and objs and rng.random() < 0.4):
            loc = objs[rng.randrange(len(objs))].loc if objs else center
        elif shape == "lattice":
            loc = tuple(c + magnitude * rng.randint(0, 3) + rng.gauss(0, 1e-15 * magnitude)
                        for c in center)
        else:
            loc = (center[0] + rng.gauss(0, spread), center[1] + rng.gauss(0, spread))
        if same_text:  # nearly degenerate text statistics
            weights = {t: w * (1 + 1e-9 * rng.random()) for t, w in base.items()}
        elif shape == "duplicates" and objs and rng.random() < 0.4:
            weights = objs[rng.randrange(len(objs))].vct.as_dict()
        else:
            weights = terms()
        objs.append(STObject(f"P{i}", loc, TermVector(weights)))
    source = objs[rng.randrange(n)]
    kind = draw(st.sampled_from(["copy", "same place", "free"]))
    if kind == "copy":  # ties the object it copies with each of that object's neighbours
        query = QueryObject(source.loc, source.vct)
    elif kind == "same place":
        query = QueryObject(source.loc, TermVector(terms()))
    else:
        query = QueryObject((center[0] + rng.gauss(0, spread), center[1] + rng.gauss(0, spread)),
                            TermVector(terms()))
    params = SimParams(draw(st.sampled_from([0.0, 0.4, 1.0, rng.random()])),
                       draw(st.integers(1, n + 1)))
    return objs, query, params


@settings(max_examples=300, deadline=None)
@given(real_instances())
def test_compute_norm_stats_equals_pair_table_off_the_grid(instance):
    objs, _, _ = instance
    if len(objs) < 2:
        return
    got = compute_norm_stats(objs)
    want = pair_table_stats(objs)
    assert [x.hex() for x in (got.phi_s, got.psi_s, got.phi_t, got.psi_t)] == \
        [x.hex() for x in (want.phi_s, want.psi_s, want.phi_t, want.psi_t)]


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_compute_norm_stats_is_exact_over_tiles_of_any_height(monkeypatch, rows):
    # several tiles per dataset, each keeping the pairs near its own
    # extreme, and tiles of the last row alone, which holds no pair
    monkeypatch.setattr(core_mod, "_TILE_ROWS", rows)
    rng = random.Random(rows)
    datasets = [random_dataset(rng, rng.randint(2, 30), 4) for _ in range(30)]
    datasets += [[STObject(f"P{i}", (rng.choice([0.0, 1e-9, 3.0]), 0.0),
                           TermVector({"t": rng.choice([1.0, 1.0 + 1e-12])}))
                  for i in range(rng.randint(2, 12))] for _ in range(20)]
    for objs in datasets:
        got, want = compute_norm_stats(objs), pair_table_stats(objs)
        assert [x.hex() for x in vars(got).values()] == [x.hex() for x in vars(want).values()]


@settings(max_examples=300, deadline=None)
@given(real_instances())
def test_rknn_bruteforce_equals_scalar_definition_off_the_grid(instance):
    objs, query, params = instance
    stats = pair_table_stats(objs)
    assert rknn_bruteforce(objs, query, params, stats) == scalar_rknn(objs, query, params, stats)


@settings(max_examples=300, deadline=None)
@given(real_instances(), st.sampled_from([2, 3, 4, 8]))
def test_correct_mode_equals_bruteforce_off_the_grid(instance, fanout):
    objs, query, params = instance
    tree = build_tree(objs, fanout)
    stats = tree.norm_stats()
    audit = EngineAudit()
    got, _ = rstknn_query(tree, query, params, stats=stats, audit=audit)  # raises if incomplete
    assert got == rknn_bruteforce(objs, query, params, stats)
    assert len(audit.bound_records) > 0


@settings(max_examples=300, deadline=None)
@given(real_instances())
def test_single_object_bounds_collapse_to_sim_st_off_the_grid(instance):
    # what makes the final verification decisive: with exact point bounds
    # the pessimistic and the optimistic walk see the same values
    objs, query, params = instance
    tree = build_tree(objs, 2)
    stats = tree.norm_stats()
    for a in objs:
        exact = sim_st(a, query, params, stats).hex()
        entry = object_entry(a.id)
        assert min_sim_st(tree, entry, query, params, stats).hex() == exact
        assert max_sim_st(tree, entry, query, params, stats).hex() == exact
        for b in objs:
            if b is not a:
                # pair_sim_bounds of two object entries returns sim_st itself;
                # the general arithmetic, reached through the separate bounds
                # and through the bare objects' views, must agree with it
                exact = sim_st(a, b, params, stats).hex()
                other = object_entry(b.id)
                bounds = pair_sim_bounds(tree, entry, other, params, stats)
                assert [x.hex() for x in bounds] == [exact, exact]
                assert min_sim_st(tree, entry, other, params, stats).hex() == exact
                assert max_sim_st(tree, entry, other, params, stats).hex() == exact
                bounds = pair_sim_bounds(tree, a, b, params, stats)
                assert [x.hex() for x in bounds] == [exact, exact]


@settings(max_examples=300, deadline=None)
@given(real_instances(), st.sampled_from([2, 3, 4]))
def test_bound_sandwich_holds_off_the_grid(instance, fanout):
    objs, query, params = instance
    tree = build_tree(objs, fanout)
    report = check_bound_sandwich(tree, params, tree.norm_stats(), query=query)
    assert report.ok, report.violations


@settings(max_examples=300, deadline=None)
@given(real_instances())
def test_pair_scores_are_symmetric_bit_for_bit(instance):
    # check_bound_sandwich evaluates each unordered pair once and mirrors it
    objs, _, params = instance
    stats = pair_table_stats(objs)
    for a in objs:
        for b in objs:
            assert extended_jaccard(a.vct, b.vct).hex() == extended_jaccard(b.vct, a.vct).hex()
            assert sim_st(a, b, params, stats).hex() == sim_st(b, a, params, stats).hex()


def _perturbed(noise, tiles, dist, ej):
    """A block's scores, each element moved by up to half its declared bound."""
    if dist is not None:
        dist = dist + noise.uniform(-0.5, 0.5, dist.shape) * tiles.dist_err
    if ej is not None:
        # a zero Extended Jaccard stays zero: it comes from a zero dot product
        bumped = np.maximum(ej + noise.uniform(-0.5, 0.5, ej.shape) * tiles.ej_err, 5e-324)
        ej = np.where(ej > 0, bumped, ej)
    return dist, ej


def _perturbed_tiles(monkeypatch, seed):
    """Make every tile element err by up to half its declared bound, the
    worst the margins must absorb besides NumPy's own last-ulp errors.  Every
    tile comes from ``block``: the statistics' tiles and the oracle's rows."""
    noise = np.random.default_rng(seed)
    real_block = core_mod._PairTiles.block

    def perturbed(tiles, rows, params=None):
        return _perturbed(noise, tiles, *real_block(tiles, rows, params))

    monkeypatch.setattr(core_mod._PairTiles, "block", perturbed)


@settings(max_examples=150, deadline=None)
@given(real_instances(), st.integers(0, 2**32 - 1))
def test_answers_stay_exact_when_tiles_err_within_their_bound(instance, seed):
    objs, query, params = instance
    stats = pair_table_stats(objs)
    want = scalar_rknn(objs, query, params, stats)
    with pytest.MonkeyPatch.context() as mp:
        _perturbed_tiles(mp, seed)
        got = rknn_bruteforce(objs, query, params, stats)
        got_stats = compute_norm_stats(objs) if len(objs) > 1 else stats
    assert got == want
    assert got_stats == stats


@settings(max_examples=150, deadline=None)
@given(real_instances(), st.sampled_from([2, 3, 4, 8]), st.integers(0, 2**32 - 1))
def test_correct_mode_stays_exact_when_its_rows_err_within_their_bound(instance, fanout, seed):
    # the object owners' rows come from the same block kernel: every element
    # errs by up to half the declared bound, and elements near a threshold
    # still go to the scalar code
    objs, query, params = instance
    stats = pair_table_stats(objs)
    want = scalar_rknn(objs, query, params, stats)
    tree = build_tree(objs, fanout)
    noise = np.random.default_rng(seed)
    real_block = core_mod._PairTiles.block

    def perturbed(tiles, rows, params=None):
        return _perturbed(noise, tiles, *real_block(tiles, rows, params))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core_mod._PairTiles, "block", perturbed)
        got, _ = rstknn_query(tree, query, params, stats=stats, audit=EngineAudit())
    assert got == want


@settings(max_examples=150, deadline=None)
@given(real_instances(), st.sampled_from([2, 3, 4, 8]), st.integers(0, 2**32 - 1))
def test_correct_mode_stays_exact_when_its_node_rows_err_within_their_bound(instance, fanout,
                                                                            seed):
    # every element of every owner's row, a node's or an object's, errs by
    # up to half the margin, and one in five is NaN, unknown: the elements
    # near a threshold still go to the scalar code
    objs, query, params = instance
    stats = pair_table_stats(objs)
    want = scalar_rknn(objs, query, params, stats)
    tree = build_tree(objs, fanout)
    margin = tree.tiles().sim_err(params, stats)
    noise = np.random.default_rng(seed)
    real_bounds = iur_tree.EntryArrays.bounds

    def perturbed(arrays, owners, *args):
        rows = []
        for row in real_bounds(arrays, owners, *args):
            row = row + noise.uniform(-0.5, 0.5, row.shape) * margin
            rows.append(np.where(noise.random(row.shape) < 0.2, np.nan, row))
        return tuple(rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(iur_tree.EntryArrays, "bounds", perturbed)
        got, _ = rstknn_query(tree, query, params, stats=stats, audit=EngineAudit())
    assert got == want


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_rows_with_non_finite_tile_values_go_to_the_scalar_code(monkeypatch, bad):
    real_block = core_mod._PairTiles.block

    def spoiled(tiles, rows, params=None):
        dist, ej = real_block(tiles, rows, params)
        rows = np.arange(tiles.n)[rows]
        ej[np.arange(len(rows)), (rows + 1) % tiles.n] = bad  # after each row's diagonal
        return dist, ej

    monkeypatch.setattr(core_mod._PairTiles, "block", spoiled)
    rng = random.Random(11)
    for _ in range(20):
        objs = random_dataset(rng, 12, 5)
        stats = pair_table_stats(objs)
        params = SimParams(alpha=0.4, k=rng.randint(1, 4))
        q = random_query(rng, 5)
        assert rknn_bruteforce(objs, q, params, stats) == scalar_rknn(objs, q, params, stats)


def test_integer_grid_ties_go_to_the_scalar_code(monkeypatch):
    # a query placed on a dataset object ties that object with each of its
    # neighbours; the vectorized k-th similarity cannot tell such a tie from
    # a last-ulp error, so those rows are re-decided by kth_nn_sim
    rng = random.Random(3)
    objs = random_dataset(rng, 30, 4)
    calls = []
    real = oracle_mod.kth_nn_sim
    monkeypatch.setattr(oracle_mod, "kth_nn_sim", lambda o, *a: calls.append(o.id) or real(o, *a))
    stats = compute_norm_stats(objs)
    params = SimParams(alpha=0.4, k=1)
    for o in objs:
        q = QueryObject(o.loc, o.vct)
        assert rknn_bruteforce(objs, q, params, stats) == scalar_rknn(objs, q, params, stats)
    assert 0 < len(calls) < len(objs) ** 2


def test_check_bound_sandwich_singleton_leaves_tight():
    objs = _two_objects()
    tree = iur_tree.tree_from_layout(objs, [["a"], ["b"]])
    stats = tree.norm_stats()
    report = check_bound_sandwich(tree, SimParams(alpha=0.5, k=1), stats)
    assert report.ok and report.node_pairs > 0


def test_check_bound_sandwich_random_tree_clean(rng):
    objs = random_dataset(rng, 64, 6)
    tree = build_tree(objs, 4)
    stats = tree.norm_stats()
    q = random_query(rng, 6)
    report = check_bound_sandwich(tree, SimParams(alpha=0.4, k=2), stats, query=q)
    assert report.ok
    assert report.query_pairs == len(list(tree.iter_node_entries()))


def test_check_bound_sandwich_detects_corruption(rng, monkeypatch):
    # negative control: a deliberately broken upper text bound must be caught
    objs = random_dataset(rng, 32, 6)
    tree = build_tree(objs, 4)
    stats = tree.norm_stats()
    real = refimpl.max_text_sim

    def corrupted(tree_, a, b):
        return real(tree_, a, b) * 0.2

    monkeypatch.setattr(refimpl, "max_text_sim", corrupted)
    report = check_bound_sandwich(tree, SimParams(alpha=0.0, k=1), stats)
    assert not report.ok


def test_ej_dominance_counterexample_stands():
    assert ej_dominance_counterexample() is True


def test_ej_dominance_counterexample_survives_scaling():
    # doubling all weights changes the similarities but not the ordering flip
    from refimpl import fdim_ratio
    from rstknn.core import extended_jaccard

    p, p1, p2 = (200.0, 60.0), (2.0, 80.0), (2.0, 100.0)
    assert all(fdim_ratio(a, b) >= fdim_ratio(a, c) for a, b, c in zip(p, p1, p2))
    u = TermVector({"d0": p[0], "d1": p[1]})
    v1 = TermVector({"d0": p1[0], "d1": p1[1]})
    v2 = TermVector({"d0": p2[0], "d1": p2[1]})
    assert extended_jaccard(u, v1) < extended_jaccard(u, v2)


def test_ej_dominance_degenerate_equal_vectors_do_not_contradict():
    # p' == p'': dominance holds with equality and no strict EJ flip exists
    from rstknn.core import extended_jaccard

    u = TermVector({"d0": 100.0, "d1": 30.0})
    v = TermVector({"d0": 1.0, "d1": 40.0})
    assert not extended_jaccard(u, v) < extended_jaccard(u, v)


def test_counterexample_search_finds_faulty_fixtures():
    for mode, seed in ((Mode.FAULTY2011, 42), (Mode.FAULTY2014, 1042)):
        fx = counterexample_search(mode, seed=seed, trials=300)
        assert fx is not None, f"no counterexample for {mode.value}"
        assert fx.mode_result != fx.oracle_result
        # re-run from the recorded fixture to confirm it reproduces
        tree = build_tree(fx.objects, fx.fanout)
        stats = tree.norm_stats()
        got, _ = rstknn_query(tree, fx.query, fx.params, mode, stats=stats)
        assert got == fx.mode_result
        assert rknn_bruteforce(fx.objects, fx.query, fx.params, stats) == fx.oracle_result
        correct, _ = rstknn_query(tree, fx.query, fx.params, stats=stats)
        assert correct == fx.oracle_result


def test_committed_fixtures_are_what_the_search_script_writes(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["find_counterexamples.py", "--out", str(tmp_path)])
    assert _search["main"]() == 0
    for name in ("faulty2011", "faulty2014"):
        for suffix in (".dataset.jsonl", ".meta.json"):
            file = f"{name}{suffix}"
            assert (tmp_path / file).read_bytes() == (ROOT / "fixtures" / file).read_bytes()


def test_counterexample_search_correct_mode_control():
    assert counterexample_search(Mode.CORRECT, seed=42, trials=150) is None


def test_counterexample_search_validates_trials():
    with pytest.raises(ValueError):
        counterexample_search(Mode.FAULTY2011, seed=1, trials=0)
