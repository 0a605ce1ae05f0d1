import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rstknn.core import (
    DatasetTooSmall,
    NonPositiveInput,
    NormStats,
    QueryObject,
    STObject,
    SimParams,
    TermVector,
    combined_similarity,
    compute_norm_stats,
    euclidean_dist,
    extended_jaccard,
    fdim_ratio,
    sim_st,
)

term_vectors = st.dictionaries(
    st.sampled_from([f"t{i}" for i in range(6)]),
    st.integers(min_value=1, max_value=10).map(float),
    max_size=5,
).map(TermVector)


def test_euclidean_dist_examples():
    assert euclidean_dist((0, 0), (0, 0)) == 0.0
    assert euclidean_dist((0, 0), (3, 4)) == 5.0
    assert euclidean_dist((1, 1), (4, 5)) == 5.0


def test_term_vector_drops_zero_weights_and_sorts():
    v = TermVector({"b": 2.0, "a": 1.0, "z": 0.0})
    assert v.terms() == ("a", "b")
    assert v.weight("z") == 0.0
    assert v.weight("b") == 2.0
    with pytest.raises(ValueError):
        TermVector({"a": -1.0})


@pytest.mark.parametrize("w", [float("nan"), float("inf"), float("-inf")])
def test_term_vector_rejects_non_finite_weights(w):
    with pytest.raises(ValueError, match="non-finite"):
        TermVector({"a": 1.0, "b": w})


@pytest.mark.parametrize("loc", [(float("nan"), 0.0), (0.0, float("inf")), (float("-inf"), 1.0)])
def test_objects_reject_non_finite_coordinates(loc):
    with pytest.raises(ValueError, match="non-finite"):
        STObject("a", loc, TermVector())
    with pytest.raises(ValueError, match="non-finite"):
        QueryObject(loc, TermVector())


def test_term_vector_rejects_int_weight_beyond_float_range():
    with pytest.raises(ValueError, match="non-finite"):
        TermVector({"a": 10**400})


@pytest.mark.parametrize("weights", [
    {"a": 1e200}, {"a": 1e154, "b": 1e154}, {"a": 1e-170}, {"a": 1e-160, "b": 1e-160},
])
def test_term_vector_rejects_squared_norm_beyond_float_range(weights):
    # without the check, extended_jaccard(v, v) of {"a": 1e200} returned 1.0
    # only because min(1.0, nan) keeps its first argument, {"a": 1e-170}
    # (norm_sq 0.0) divided by zero against itself, and a subnormal norm_sq
    # carries too few digits for a relative error bound
    with pytest.raises(ValueError, match="squared norm"):
        TermVector(weights)
    TermVector({"a": 1e150, "b": 1e-160})  # large and tiny weights alone are fine


def test_st_object_rejects_int_coordinate_beyond_float_range():
    with pytest.raises(ValueError, match="non-finite"):
        STObject("x", (10**400, 0.0), TermVector())


def test_query_object_rejects_int_coordinate_beyond_float_range():
    with pytest.raises(ValueError, match="non-finite"):
        QueryObject((0.0, -(10**400)), TermVector())


def test_extended_jaccard_refutation_values():
    # the two published counterexample similarities, 1300/11201 and 1600/11801
    p = TermVector({"d0": 100.0, "d1": 30.0})
    p1 = TermVector({"d0": 1.0, "d1": 40.0})
    p2 = TermVector({"d0": 1.0, "d1": 50.0})
    assert extended_jaccard(p, p1) == pytest.approx(0.116, abs=1e-3)
    assert extended_jaccard(p, p2) == pytest.approx(0.135, abs=1e-3)
    assert extended_jaccard(p, p1) == pytest.approx(1300 / 11201, abs=1e-12)
    assert extended_jaccard(p, p2) == pytest.approx(1600 / 11801, abs=1e-12)


def test_extended_jaccard_trivial_cases():
    v = TermVector({"a": 2.0, "b": 1.0})
    assert extended_jaccard(v, v) == 1.0
    assert extended_jaccard(TermVector({"a": 1.0}), TermVector({"b": 1.0})) == 0.0
    assert extended_jaccard(TermVector(), TermVector()) == 0.0
    assert extended_jaccard(TermVector(), v) == 0.0


@given(term_vectors, term_vectors)
def test_extended_jaccard_range_and_symmetry(u, v):
    s = extended_jaccard(u, v)
    assert 0.0 <= s <= 1.0
    assert s == extended_jaccard(v, u)  # bit-for-bit by canonical term order


@given(term_vectors)
def test_extended_jaccard_identity(v):
    assert extended_jaccard(v, v) == (0.0 if v.is_empty else 1.0)


def test_compute_norm_stats_single_pair():
    objs = [
        STObject("a", (0.0, 0.0), TermVector()),
        STObject("b", (7.0, 0.0), TermVector()),
    ]
    stats = compute_norm_stats(objs)
    assert stats.phi_s == stats.psi_s == 7.0


def test_compute_norm_stats_requires_two_objects():
    with pytest.raises(DatasetTooSmall):
        compute_norm_stats([STObject("a", (0.0, 0.0), TermVector())])


def test_compute_norm_stats_matches_bruteforce_pair_table(rng):
    objs = [
        STObject(
            f"o{i}",
            (float(rng.randint(0, 50)), float(rng.randint(0, 50))),
            TermVector({f"t{j}": float(rng.randint(1, 9)) for j in range(rng.randint(0, 3))}),
        )
        for i in range(10)
    ]
    dists = []
    sims = []
    for i in range(len(objs)):
        for j in range(i + 1, len(objs)):
            dists.append(euclidean_dist(objs[i].loc, objs[j].loc))
            sims.append(extended_jaccard(objs[i].vct, objs[j].vct))
    stats = compute_norm_stats(objs)
    assert stats.phi_s == min(dists)
    assert stats.psi_s == max(dists)
    assert stats.phi_t == min(sims)
    assert stats.psi_t == max(sims)


def test_norm_stats_validation():
    with pytest.raises(ValueError):
        NormStats(2.0, 1.0, 0.0, 0.0)


def test_sim_params_validation():
    with pytest.raises(ValueError):
        SimParams(alpha=1.5, k=1)
    with pytest.raises(ValueError):
        SimParams(alpha=0.5, k=0)


def test_sim_st_extremes_spatial_only():
    stats = NormStats(1.0, 10.0, 0.0, 1.0)
    params = SimParams(alpha=1.0, k=1)
    a = STObject("a", (0.0, 0.0), TermVector())
    assert sim_st(a, STObject("b", (1.0, 0.0), TermVector()), params, stats) == 1.0
    assert sim_st(a, STObject("c", (10.0, 0.0), TermVector()), params, stats) == 0.0


def test_sim_st_can_exceed_one_for_queries():
    # a query closer than any database pair scores above 1 by design:
    # 1 - (0.4 - 1) / (10 - 1) = 1.0667
    stats = NormStats(1.0, 10.0, 0.0, 1.0)
    params = SimParams(alpha=1.0, k=1)
    o = STObject("a", (0.0, 0.0), TermVector())
    q = QueryObject((0.4, 0.0), TermVector())
    assert sim_st(o, q, params, stats) == pytest.approx(1 - (0.4 - 1) / 9, abs=1e-12)
    assert sim_st(o, q, params, stats) > 1.0


def test_sim_st_degenerate_stats_collapse_to_constant():
    stats = NormStats(5.0, 5.0, 0.3, 0.3)
    params = SimParams(alpha=0.4, k=1)
    a = STObject("a", (0.0, 0.0), TermVector({"x": 1.0}))
    b = STObject("b", (3.0, 4.0), TermVector({"y": 1.0}))
    assert sim_st(a, b, params, stats) == 1.0


@given(
    st.floats(min_value=0, max_value=100, allow_nan=False),
    st.floats(min_value=0, max_value=100, allow_nan=False),
    st.floats(min_value=0, max_value=1, allow_nan=False),
    st.floats(min_value=0, max_value=1, allow_nan=False),
    st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)
@settings(max_examples=200)
def test_combined_similarity_monotonicity(d1, d2, e1, e2, alpha):
    stats = NormStats(2.0, 90.0, 0.1, 0.9)
    params = SimParams(alpha=alpha, k=1)
    lo_d, hi_d = sorted((d1, d2))
    lo_e, hi_e = sorted((e1, e2))
    # decreasing in distance, increasing in text similarity
    assert combined_similarity(lo_d, e1, params, stats) >= combined_similarity(hi_d, e1, params, stats)
    assert combined_similarity(d1, hi_e, params, stats) >= combined_similarity(d1, lo_e, params, stats)


def test_sim_st_symmetric_bit_for_bit(rng):
    for _ in range(50):
        a = STObject(
            "a",
            (rng.uniform(0, 50), rng.uniform(0, 50)),
            TermVector({f"t{j}": float(rng.randint(1, 9)) for j in range(rng.randint(0, 4))}),
        )
        b = STObject(
            "b",
            (rng.uniform(0, 50), rng.uniform(0, 50)),
            TermVector({f"t{j}": float(rng.randint(1, 9)) for j in range(rng.randint(0, 4))}),
        )
        stats = NormStats(1.0, 80.0, 0.0, 0.9)
        params = SimParams(alpha=0.4, k=1)
        assert sim_st(a, b, params, stats) == sim_st(b, a, params, stats)


def test_sim_st_in_unit_interval_for_database_pairs(rng):
    objs = [
        STObject(
            f"o{i}",
            (float(rng.randint(0, 80)), float(rng.randint(0, 80))),
            TermVector({f"t{j}": float(rng.randint(1, 9)) for j in range(rng.randint(0, 3))}),
        )
        for i in range(12)
    ]
    stats = compute_norm_stats(objs)
    params = SimParams(alpha=0.7, k=1)
    for i in range(len(objs)):
        for j in range(i + 1, len(objs)):
            s = sim_st(objs[i], objs[j], params, stats)
            assert -1e-12 <= s <= 1 + 1e-12


def test_fdim_ratio():
    assert fdim_ratio(30, 40) == 0.75
    assert fdim_ratio(30, 50) == 0.6
    assert fdim_ratio(5, 5) == 1.0
    with pytest.raises(NonPositiveInput):
        fdim_ratio(0, 3)
    with pytest.raises(NonPositiveInput):
        fdim_ratio(3, -1)


def test_ratio_dominance_does_not_order_extended_jaccard():
    # standing regression: coordinatewise ratio dominance holds, EJ order flips
    p, p1, p2 = (100.0, 30.0), (1.0, 40.0), (1.0, 50.0)
    for a, b, c in zip(p, p1, p2):
        assert fdim_ratio(a, b) >= fdim_ratio(a, c)
    u = TermVector({"d0": p[0], "d1": p[1]})
    v1 = TermVector({"d0": p1[0], "d1": p1[1]})
    v2 = TermVector({"d0": p2[0], "d1": p2[1]})
    assert extended_jaccard(u, v1) < extended_jaccard(u, v2)
