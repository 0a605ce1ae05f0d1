"""Reference implementations and exhaustive checks that only the tests use.

The box distances, the entry view and the raw text bounds are the plain
composition that ``iur_tree.pair_sim_bounds`` must equal bit for bit;
ancestry and overlap decide by span containment what the entry records'
``covering`` precomputes; :func:`check_bound_sandwich` enumerates every node
pair of a tree against its group bounds; and
:func:`ej_dominance_counterexample` is the standing counterexample that
ratio dominance does not order Extended Jaccard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
from rstknn.iur_tree import Box, Entry, IurTree, max_sim_st, min_sim_st

_ULP_SLACK = 1e-12  # last-ulp float noise; genuine bound violations are far larger


class NonPositiveInput(ValueError):
    """A strictly positive argument was required."""


def fdim_ratio(x: float, x_prime: float) -> float:
    """min/max ratio of two positive reals, in (0, 1]."""
    if x <= 0 or x_prime <= 0:
        raise NonPositiveInput(f"inputs must be > 0, got ({x}, {x_prime})")
    return min(x, x_prime) / max(x, x_prime)


def min_dist(a: Box, b: Box) -> float:
    """Minimum L2 distance between any point of box a and any point of box b."""
    (alx, aly, ahx, ahy), (blx, bly, bhx, bhy) = a, b
    dx = max(alx - bhx, blx - ahx, 0.0)
    dy = max(aly - bhy, bly - ahy, 0.0)
    return math.hypot(dx, dy)


def max_dist(a: Box, b: Box) -> float:
    """Maximum L2 distance between any point of box a and any point of box b.

    Attained at a corner pair; per axis the larger one-sided separation is
    always nonnegative because boxes have nonnegative extent.
    """
    (alx, aly, ahx, ahy), (blx, bly, bhx, bhy) = a, b
    dx = max(ahx - blx, bhx - alx)
    dy = max(ahy - bly, bhy - aly)
    return math.hypot(dx, dy)


def view(tree: IurTree, x: Entry | STObject | QueryObject) -> tuple[Box, TermVector, TermVector]:
    """(box, intersection vector, union vector) of a tree entry or bare object,
    a degenerate node: point box, both vectors equal to its term vector."""
    if type(x) is Entry:
        record = tree.record(x)
        return record.box, record.int_vct, record.union_vct
    return (*x.loc, *x.loc), x.vct, x.vct


# the raw text similarity as a score: alpha 0 and the identity normalization
TEXT = (SimParams(0.0, 1), NormStats(0.0, 0.0, 0.0, 1.0))


def min_text_sim(tree: IurTree, a: Entry | STObject | QueryObject,
                 b: Entry | STObject | QueryObject) -> float:
    """Lower bound on the Extended Jaccard between any pair drawn from a and b
    (see ``iur_tree.pair_sim_bounds``)."""
    return min_sim_st(tree, a, b, *TEXT)


def max_text_sim(tree: IurTree, a: Entry | STObject | QueryObject,
                 b: Entry | STObject | QueryObject) -> float:
    """Upper bound on the Extended Jaccard between any pair drawn from a and b
    (see ``iur_tree.pair_sim_bounds``)."""
    return max_sim_st(tree, a, b, *TEXT)


def is_ancestor_or_equal(tree: IurTree, a: Entry, b: Entry) -> bool:
    """True when a's subtree contains b's (a == b or a an ancestor of b).

    Decided by preorder-interval containment, so a chain node holding a
    single child compares equal to that child; for everything built on
    this predicate only point-set containment matters, which is exactly
    what the intervals encode.
    """
    alo, ahi = tree.record(a).span
    blo, bhi = tree.record(b).span
    return alo <= blo and bhi <= ahi


def overlaps(tree: IurTree, a: Entry, b: Entry) -> bool:
    """Tree overlap: the entries share at least one object."""
    return is_ancestor_or_equal(tree, a, b) or is_ancestor_or_equal(tree, b, a)


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
                         query: QueryObject | None = None) -> SandwichReport:
    """Verify every group bound against exhaustive pair enumeration.

    For each pair of nodes (including a node with itself, and optionally each
    node against the query) the group bounds must sandwich the exact extremes
    of the pairwise similarities of the contained objects; likewise for the
    text-only bounds, within ``_ULP_SLACK``.
    """
    report = SandwichReport()
    objs = list(tree.objects.values())  # in preorder: each node's objects are the slice of its span
    n = len(objs)
    sim = np.empty((n, n))
    ej = np.empty((n, n))
    for i, a in enumerate(objs):
        for j in range(i, n):  # both scores are symmetric bit for bit: mirror
            b = objs[j]
            ej[i, j] = ej[j, i] = text = extended_jaccard(a.vct, b.vct)
            sim[i, j] = sim[j, i] = combined_similarity(
                euclidean_dist(a.loc, b.loc), text, params, stats)  # sim_st(a, b)

    entries = list(tree.iter_node_entries())
    spans = {e: slice(*tree.record(e).span) for e in entries}

    for i, e in enumerate(entries):
        for f in entries[i:]:
            sub = sim[spans[e], spans[f]]
            tsub = ej[spans[e], spans[f]]
            lo = min_sim_st(tree, e, f, params, stats)
            hi = max_sim_st(tree, e, f, params, stats)
            tlo = min_text_sim(tree, e, f)
            thi = max_text_sim(tree, e, f)
            report.node_pairs += 1
            if lo > sub.min() + _ULP_SLACK:
                report.violations.append(
                    f"min_sim_st({e.label},{f.label})={lo} > true min {sub.min()}"
                )
            if hi < sub.max() - _ULP_SLACK:
                report.violations.append(
                    f"max_sim_st({e.label},{f.label})={hi} < true max {sub.max()}"
                )
            if tlo > tsub.min() + _ULP_SLACK:
                report.violations.append(
                    f"min_text_sim({e.label},{f.label})={tlo} > true min {tsub.min()}"
                )
            if thi < tsub.max() - _ULP_SLACK:
                report.violations.append(
                    f"max_text_sim({e.label},{f.label})={thi} < true max {tsub.max()}"
                )

    if query is not None:
        to_q = np.array([sim_st(o, query, params, stats) for o in objs])
        for e in entries:
            vals = to_q[spans[e]]
            lo = min_sim_st(tree, e, query, params, stats)
            hi = max_sim_st(tree, e, query, params, stats)
            report.query_pairs += 1
            if lo > vals.min() + _ULP_SLACK:
                report.violations.append(
                    f"min_sim_st({e.label},Q)={lo} > true min {vals.min()}"
                )
            if hi < vals.max() - _ULP_SLACK:
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
