"""Exact spatio-textual similarity arithmetic.

Objects carry a 2-D location and a sparse nonnegative term-weight vector.
Similarity between two objects is a convex combination of normalized spatial
proximity and normalized Extended Jaccard text similarity, where the
normalization constants (min/max pairwise distance and text similarity) come
from the database itself.

Everything in this module is immutable after construction and safe to share
between concurrent readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

Point = tuple[float, float]


class DatasetTooSmall(ValueError):
    """Pairwise statistics require at least two objects."""


class NonPositiveInput(ValueError):
    """A strictly positive argument was required."""


def is_finite(x: int | float) -> bool:
    """Whether a number is finite as a float; NaN, infinities and integers
    beyond float range are not."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


class TermVector:
    """Sparse term -> weight mapping with a canonical iteration order.

    Weights are finite and strictly positive: zero-weight terms are dropped
    at construction, so presence in ``items`` means presence in the vector;
    NaN, infinite, out-of-float-range and negative weights are rejected.
    Dot products always iterate terms in lexicographic order, which makes
    every similarity value derived from these vectors reproducible
    bit-for-bit regardless of how the input mapping was built.
    """

    __slots__ = ("items", "_weights", "norm_sq")

    def __init__(self, weights: Mapping[str, float] | Iterable[tuple[str, float]] = ()):
        raw = dict(weights)
        for term, w in raw.items():
            if not is_finite(w):
                raise ValueError(f"non-finite weight for term {term!r}: {w}")
            if w < 0:
                raise ValueError(f"negative weight for term {term!r}: {w}")
        self.items: tuple[tuple[str, float], ...] = tuple(
            sorted((t, float(w)) for t, w in raw.items() if w > 0)
        )
        self._weights = dict(self.items)
        self.norm_sq = 0.0
        for _, w in self.items:
            self.norm_sq += w * w

    @property
    def is_empty(self) -> bool:
        return not self.items

    def weight(self, term: str) -> float:
        return self._weights.get(term, 0.0)

    def terms(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.items)

    def as_dict(self) -> dict[str, float]:
        return dict(self.items)

    def dot(self, other: "TermVector") -> float:
        """Dot product, accumulated over the sorted common terms."""
        a, b = self, other
        if len(b.items) < len(a.items):
            a, b = b, a
        total = 0.0
        lookup = b._weights
        for term, w in a.items:  # already lexicographically sorted
            wb = lookup.get(term)
            if wb is not None:
                total += w * wb
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TermVector):
            return NotImplemented
        return self.items == other.items

    def __hash__(self) -> int:
        return hash(self.items)

    def __repr__(self) -> str:
        inner = ", ".join(f"{t}={w:g}" for t, w in self.items)
        return f"TermVector({{{inner}}})"


def _check_finite_loc(loc: Point) -> None:
    if not all(is_finite(c) for c in loc):
        raise ValueError(f"non-finite coordinate in location {loc}")


@dataclass(frozen=True)
class STObject:
    """A database object: identifier, planar location, term vector."""

    id: str
    loc: Point
    vct: TermVector

    def __post_init__(self) -> None:
        _check_finite_loc(self.loc)


@dataclass(frozen=True)
class QueryObject:
    """A query point: planar location plus term vector, no identifier."""

    loc: Point
    vct: TermVector

    def __post_init__(self) -> None:
        _check_finite_loc(self.loc)


@dataclass(frozen=True)
class NormStats:
    """Dataset-level normalization constants.

    ``phi_s``/``psi_s`` are the minimum/maximum Euclidean distance over all
    unordered object pairs, ``phi_t``/``psi_t`` the analogous extremes of the
    Extended Jaccard similarity.  The query never contributes to these.
    """

    phi_s: float
    psi_s: float
    phi_t: float
    psi_t: float

    def __post_init__(self) -> None:
        if self.phi_s > self.psi_s or self.phi_t > self.psi_t:
            raise ValueError("min statistic exceeds max statistic")


@dataclass(frozen=True)
class SimParams:
    """Query parameters: spatial/textual weighting alpha and neighbor count k."""

    alpha: float
    k: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


def euclidean_dist(p: Point, q: Point) -> float:
    """Plain L2 distance between two planar points."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


def extended_jaccard(u: TermVector, v: TermVector) -> float:
    """Extended Jaccard similarity: u.v / (|u|^2 + |v|^2 - u.v), in [0, 1].

    Two empty vectors share no terms and score 0.  The denominator is
    strictly positive whenever either vector is non-empty.  The value is
    clamped at 1 to guard against last-ulp rounding on near-identical
    vectors.
    """
    if u.is_empty and v.is_empty:
        return 0.0
    d = u.dot(v)
    return min(1.0, d / (u.norm_sq + v.norm_sq - d))


def compute_norm_stats(dataset: Sequence[STObject]) -> NormStats:
    """Exact min/max distance and text similarity over all object pairs.

    Exhaustive O(n^2); fine at the scales this library targets.
    """
    if len(dataset) < 2:
        raise DatasetTooSmall(f"need >= 2 objects, got {len(dataset)}")
    phi_s = math.inf
    psi_s = -math.inf
    phi_t = math.inf
    psi_t = -math.inf
    for i, a in enumerate(dataset):
        for b in dataset[i + 1 :]:
            d = euclidean_dist(a.loc, b.loc)
            t = extended_jaccard(a.vct, b.vct)
            phi_s = min(phi_s, d)
            psi_s = max(psi_s, d)
            phi_t = min(phi_t, t)
            psi_t = max(psi_t, t)
    return NormStats(phi_s, psi_s, phi_t, psi_t)


def spatial_score(dist: float, stats: NormStats) -> float:
    """Normalized spatial similarity 1 - (dist - phi_s) / (psi_s - phi_s).

    When the dataset is spatially degenerate (psi_s == phi_s) the score is
    the constant 1; any constant preserves comparisons, 1 keeps things
    deterministic.
    """
    if stats.psi_s == stats.phi_s:
        return 1.0
    return 1.0 - (dist - stats.phi_s) / (stats.psi_s - stats.phi_s)


def textual_score(ej: float, stats: NormStats) -> float:
    """Normalized textual similarity (ej - phi_t) / (psi_t - phi_t)."""
    if stats.psi_t == stats.phi_t:
        return 1.0
    return (ej - stats.phi_t) / (stats.psi_t - stats.phi_t)


def combined_similarity(dist: float, ej: float, params: SimParams, stats: NormStats) -> float:
    """alpha-weighted combination of the normalized spatial and textual scores.

    Deliberately NOT clamped to [0, 1]: the stats are database-only, so a
    query that is closer (or textually more similar) than any database pair
    legitimately scores outside the unit interval, and clamping would
    destroy strict comparisons against database-pair similarities.
    """
    a = params.alpha
    return a * spatial_score(dist, stats) + (1.0 - a) * textual_score(ej, stats)


def sim_st(o1: STObject | QueryObject, o2: STObject | QueryObject,
           params: SimParams, stats: NormStats) -> float:
    """Spatio-textual similarity between two objects (or object and query)."""
    return combined_similarity(
        euclidean_dist(o1.loc, o2.loc),
        extended_jaccard(o1.vct, o2.vct),
        params,
        stats,
    )


def fdim_ratio(x: float, x_prime: float) -> float:
    """min/max ratio of two positive reals, in (0, 1]."""
    if x <= 0 or x_prime <= 0:
        raise NonPositiveInput(f"inputs must be > 0, got ({x}, {x_prime})")
    return min(x, x_prime) / max(x, x_prime)
