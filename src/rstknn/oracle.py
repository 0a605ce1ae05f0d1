"""Ground-truth computations and adversarial search.

Everything here is exhaustive: quadratic brute force over object pairs, full
enumeration of node pairs for bound checking, and a seeded random search that
hunts for datasets on which the legacy query modes disagree with the
brute-force answer.  The brute force takes every object's k-th-neighbour
similarity from the tiled NumPy pair kernel of ``core`` and settles each
object whose query similarity lies near it with the scalar ``kth_nn_sim``, so
its answer is the scalar definition's, bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    NormStats,
    QueryObject,
    STObject,
    SimParams,
    TermVector,
    _PairTiles,
    combined_similarity,
    extended_jaccard,
    fdim_ratio,
    sim_st,
)
from .datasets import random_dataset, random_query
from .engine import Mode, rstknn_query
from .iur_tree import (
    IurTree,
    build_tree,
    max_sim_st,
    max_text_sim,
    min_sim_st,
    min_text_sim,
)

NEG_INF = float("-inf")


def kth_nn_sim(obj: STObject, dataset: Sequence[STObject], k: int,
               params: SimParams, stats: NormStats) -> float:
    """Similarity of ``obj`` to its k-th most similar other object.

    An object is its own 0th neighbor, so it never counts.  When fewer than
    k other objects exist the k-th neighbor does not either; -inf keeps every
    comparison against it well-defined.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sims = sorted(
        (sim_st(obj, other, params, stats) for other in dataset if other.id != obj.id),
        reverse=True,
    )
    if len(sims) < k:
        return NEG_INF
    return sims[k - 1]


def _kth_sims(dataset: Sequence[STObject], params: SimParams, stats: NormStats
              ) -> tuple[np.ndarray, np.ndarray, float]:
    """Vectorized k-th-neighbour similarity of every object, the rows that
    must go to the scalar code whatever the query, and the decision margin.

    A k-th order statistic moves by at most the largest error of its row's
    elements, so the tiles' ``sim_err`` bounds it too.  A row with a
    non-finite value escapes that bound.
    """
    tiles = _PairTiles(dataset)
    n, k = tiles.n, params.k
    kth = np.empty(n)
    unsure = np.empty(n, dtype=bool)
    for lo, dist, ej in tiles:
        sim = np.empty_like(dist)
        sim[...] = combined_similarity(dist, ej, params, stats)  # a scalar when both scores are constant
        rows = np.arange(len(dist))
        sim[rows, rows + lo] = NEG_INF
        # the k-th largest of each row is its (n - k)-th smallest, self included
        kth[lo:lo + len(dist)] = np.partition(sim, n - k, axis=1)[:, n - k]
        unsure[lo:lo + len(dist)] = np.isfinite(sim).sum(axis=1) < n - 1
    return kth, unsure, tiles.sim_err(params, stats)


def rknn_bruteforce(dataset: Sequence[STObject], query: QueryObject,
                    params: SimParams, stats: NormStats) -> set[str]:
    """Objects that count the query among their k most similar neighbors.

    Strict comparison: on a tie the database point wins and the object stays
    out of the result.  Equal to ``{o.id for o in dataset if sim_st(o, query)
    > kth_nn_sim(o, dataset, ...)}``: each query similarity is scalar, and
    each k-th-neighbour similarity is vectorized unless it lies within the
    kernel's error margin of the query similarity, where ``kth_nn_sim``
    decides.  Ids must be unique, as a tree requires.
    """
    if len({o.id for o in dataset}) != len(dataset):
        raise ValueError("duplicate object id in dataset")
    to_query = [sim_st(o, query, params, stats) for o in dataset]
    if len(dataset) - 1 < params.k:  # no object has a k-th neighbour
        return {o.id for o, s in zip(dataset, to_query) if s > NEG_INF}
    kth, unsure, margin = _kth_sims(dataset, params, stats)
    # nan-safe: a comparison not known to clear the margin goes to the scalar code
    recheck = unsure | ~(np.abs(np.array(to_query) - kth) > margin)
    out = set()
    for o, s, t, again in zip(dataset, to_query, kth.tolist(), recheck.tolist()):
        if again:
            t = kth_nn_sim(o, dataset, params.k, params, stats)
        if s > t:
            out.add(o.id)
    return out


@dataclass
class SandwichReport:
    """Outcome of an exhaustive bound check over one tree."""

    node_pairs: int = 0
    query_pairs: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_bound_sandwich(tree: IurTree, params: SimParams, stats: NormStats,
                         query: QueryObject | None = None,
                         atol: float = 1e-12) -> SandwichReport:
    """Verify every group bound against exhaustive pair enumeration.

    For each pair of nodes (including a node with itself, and optionally each
    node against the query) the group bounds must sandwich the exact extremes
    of the pairwise similarities of the contained objects; likewise for the
    text-only bounds.  ``atol`` absorbs last-ulp float noise only; genuine
    violations are orders of magnitude larger.
    """
    report = SandwichReport()
    objs = tree.objects_sorted()
    index = {o.id: i for i, o in enumerate(objs)}
    n = len(objs)
    sim = np.empty((n, n))
    ej = np.empty((n, n))
    for i, a in enumerate(objs):
        for j, b in enumerate(objs):
            sim[i, j] = sim_st(a, b, params, stats)
            ej[i, j] = extended_jaccard(a.vct, b.vct)

    entries = list(tree.iter_node_entries())
    rows = {e: np.array([index[o] for o in tree.subtree_ids(e)]) for e in entries}

    for i, e in enumerate(entries):
        for f in entries[i:]:
            sub = sim[np.ix_(rows[e], rows[f])]
            tsub = ej[np.ix_(rows[e], rows[f])]
            lo = min_sim_st(tree, e, f, params, stats)
            hi = max_sim_st(tree, e, f, params, stats)
            tlo = min_text_sim(tree, e, f)
            thi = max_text_sim(tree, e, f)
            report.node_pairs += 1
            if lo > sub.min() + atol:
                report.violations.append(
                    f"min_sim_st({e.label},{f.label})={lo} > true min {sub.min()}"
                )
            if hi < sub.max() - atol:
                report.violations.append(
                    f"max_sim_st({e.label},{f.label})={hi} < true max {sub.max()}"
                )
            if tlo > tsub.min() + atol:
                report.violations.append(
                    f"min_text_sim({e.label},{f.label})={tlo} > true min {tsub.min()}"
                )
            if thi < tsub.max() - atol:
                report.violations.append(
                    f"max_text_sim({e.label},{f.label})={thi} < true max {tsub.max()}"
                )

    if query is not None:
        to_q = np.array([sim_st(o, query, params, stats) for o in objs])
        for e in entries:
            vals = to_q[rows[e]]
            lo = min_sim_st(tree, e, query, params, stats)
            hi = max_sim_st(tree, e, query, params, stats)
            report.query_pairs += 1
            if lo > vals.min() + atol:
                report.violations.append(
                    f"min_sim_st({e.label},Q)={lo} > true min {vals.min()}"
                )
            if hi < vals.max() - atol:
                report.violations.append(
                    f"max_sim_st({e.label},Q)={hi} < true max {vals.max()}"
                )
    return report


def ej_dominance_counterexample() -> bool:
    """Does coordinatewise min/max-ratio dominance fail to order Extended Jaccard?

    Checks the standing counterexample: p = <100,30>, p' = <1,40>,
    p'' = <1,50>.  Every coordinate of p' dominates p'' in min/max ratio
    against p, yet EJ(p, p') < EJ(p, p'').  Returns True when both halves
    hold, i.e. ratio dominance provably does not transfer to EJ.
    """
    p = (100.0, 30.0)
    p1 = (1.0, 40.0)
    p2 = (1.0, 50.0)
    dominated = all(
        fdim_ratio(a, b) >= fdim_ratio(a, c) for a, b, c in zip(p, p1, p2)
    )
    u = TermVector({"d0": p[0], "d1": p[1]})
    v1 = TermVector({"d0": p1[0], "d1": p1[1]})
    v2 = TermVector({"d0": p2[0], "d1": p2[1]})
    return dominated and extended_jaccard(u, v1) < extended_jaccard(u, v2)


@dataclass
class CounterexampleFixture:
    """A dataset/query on which some query mode disagrees with brute force."""

    objects: list[STObject]
    query: QueryObject
    params: SimParams
    fanout: int
    seed: int
    trial: int
    mode: Mode
    mode_result: set[str]
    oracle_result: set[str]


def counterexample_search(mode: Mode, seed: int, trials: int, *,
                          n_range: tuple[int, int] = (4, 14),
                          vocab: int = 6,
                          k_choices: Sequence[int] = (1, 2, 3),
                          alpha_choices: Sequence[float] = (0.0, 0.4, 0.7, 1.0),
                          fanout_choices: Sequence[int] = (2, 4),
                          ) -> CounterexampleFixture | None:
    """Hunt for a small random instance where ``mode`` contradicts brute force.

    Integer coordinates and weights keep every comparison knife-edge free and
    the quadratic oracle instant.  Deterministic for a given seed; returns the
    first mismatching fixture, or None when all trials agree (as they must
    when ``mode`` is the correct one).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        n = rng.randint(*n_range)
        objects = random_dataset(rng, n, vocab)
        query = random_query(rng, vocab)
        params = SimParams(alpha=rng.choice(list(alpha_choices)), k=rng.choice(list(k_choices)))
        fanout = rng.choice(list(fanout_choices))
        tree = build_tree(objects, fanout)
        stats = tree.norm_stats()
        got, _ = rstknn_query(tree, query, params, mode, stats=stats)
        want = rknn_bruteforce(objects, query, params, stats)
        if got != want:
            return CounterexampleFixture(
                objects=list(objects),
                query=query,
                params=params,
                fanout=fanout,
                seed=seed,
                trial=trial,
                mode=mode,
                mode_result=got,
                oracle_result=want,
            )
    return None
