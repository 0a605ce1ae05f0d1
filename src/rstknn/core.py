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
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

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
    NaN, infinite, out-of-float-range and negative weights are rejected, and
    so is a vector whose squared norm overflows or, for a non-empty vector,
    falls below the normal float range (where Extended Jaccard would divide
    by zero or lose its relative precision).
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
        if self.items and not sys.float_info.min <= self.norm_sq <= sys.float_info.max:
            raise ValueError(f"squared norm out of float range: {self.norm_sq}")

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


_TILE_ROWS = 128  # rows per kernel tile: each tile array holds _TILE_ROWS * n floats
_EPS = sys.float_info.epsilon


class _PairTiles:
    """Row tiles of the pairwise distance and Extended Jaccard matrices.

    Iterating yields ``(lo, dist, ej)`` for rows ``lo:lo + len(dist)`` against
    all n objects, so memory is O(_TILE_ROWS * n) and never O(n^2).  Distances
    come from ``np.hypot``; Extended Jaccard from a matmul over a dense term
    matrix (sorted-term columns) and the exact per-vector ``norm_sq``, clamped
    at 1, with two empty vectors scoring 0, as in the scalar functions.

    The tiles are not bit-identical to the scalar functions: ``np.hypot`` and
    ``math.hypot`` may differ in the last ulp, and a matmul sums in another
    order than the sorted-term dot.  ``dist_err`` and ``ej_err`` bound the
    disagreement of any one element with its scalar value, with a factor of
    at least eight to spare: both hypots are within one ulp of the distance,
    which is at most the diagonal D of the objects' bounding box; a sum of m
    nonnegative products in any order is within m * eps of the exact one,
    and the Extended Jaccard denominator is at least the dot product, so the
    ratio errs by at most (4m + 10) * eps.  Callers settle every decision
    within these margins with the scalar code.
    """

    def __init__(self, objects: Sequence[STObject]):
        self.n = len(objects)
        self.xy = np.array([o.loc for o in objects], dtype=float).reshape(self.n, 2)
        vocab = sorted({t for o in objects for t, _ in o.vct.items})
        column = {t: j for j, t in enumerate(vocab)}
        self.terms = np.zeros((self.n, len(vocab)))
        for i, o in enumerate(objects):
            for t, w in o.vct.items:
                self.terms[i, column[t]] = w
        self.norm_sq = np.array([o.vct.norm_sq for o in objects])
        self.diameter = float(np.hypot(*np.ptp(self.xy, axis=0)))
        self.dist_err = 64 * (_EPS * self.diameter + math.ulp(0.0))
        self.ej_err = 64 * _EPS * (len(vocab) + 2)

    def __iter__(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        xy, terms, norm_sq = self.xy, self.terms, self.norm_sq
        for lo in range(0, self.n, _TILE_ROWS):
            hi = min(self.n, lo + _TILE_ROWS)
            dist = np.hypot(xy[lo:hi, 0:1] - xy[None, :, 0], xy[lo:hi, 1:2] - xy[None, :, 1])
            dot = terms[lo:hi] @ terms.T
            den = norm_sq[lo:hi, None] + norm_sq[None, :] - dot
            with np.errstate(divide="ignore", invalid="ignore"):
                ej = np.minimum(1.0, dot / den)
            # only two empty vectors have a zero denominator: the squared
            # norm of a non-empty vector is a normal float
            ej[den == 0.0] = 0.0
            yield lo, dist, ej

    def sim_err(self, params: SimParams, stats: NormStats) -> float:
        """Bound on how far ``combined_similarity`` of two tile elements may
        lie from ``sim_st`` of the pair: the raw error bounds amplified by the
        normalization's 1 / (psi - phi), plus the normalization's own
        roundings, relative to the magnitude of each score."""

        def score_err(raw_err: float, magnitude: float, lo: float, hi: float) -> float:
            if hi == lo:
                return 0.0  # the score is the constant 1
            return (raw_err + 64 * _EPS * (magnitude + abs(lo))) / (hi - lo) + 64 * _EPS

        a = params.alpha
        err = 0.0
        if a > 0:
            err += a * score_err(self.dist_err, self.diameter, stats.phi_s, stats.psi_s)
        if a < 1:
            err += (1 - a) * score_err(self.ej_err, 1.0, stats.phi_t, stats.psi_t)
        return err


def compute_norm_stats(dataset: Sequence[STObject]) -> NormStats:
    """Exact min/max distance and text similarity over all object pairs.

    The extremes are first taken over the upper triangle of the vectorized
    pair tiles of :class:`_PairTiles`.  An exact extreme lies within twice
    the tiles' error bound of the vectorized one, so every pair that close
    to it is settled with the scalar ``euclidean_dist`` or
    ``extended_jaccard``, and the scalar values decide.  A vectorized
    Extended Jaccard minimum of exactly 0 needs a zero dot product, which
    the scalar dot gives as well, so it is exact as it stands.
    """
    n = len(dataset)
    if n < 2:
        raise DatasetTooSmall(f"need >= 2 objects, got {n}")
    tiles = _PairTiles(dataset)

    def dist_of(i: int, j: int) -> float:
        return euclidean_dist(dataset[i].loc, dataset[j].loc)

    def ej_of(i: int, j: int) -> float:
        return extended_jaccard(dataset[i].vct, dataset[j].vct)

    # phi_s, psi_s, phi_t, psi_t: (which tile, extreme, margin, scalar value)
    stats = ((0, np.min, 2 * tiles.dist_err, dist_of), (0, np.max, 2 * tiles.dist_err, dist_of),
             (1, np.min, 2 * tiles.ej_err, ej_of), (1, np.max, 2 * tiles.ej_err, ej_of))

    def near(values: np.ndarray, extreme: float, margin: float) -> np.ndarray:
        # nan-safe: a value not known to lie beyond the margin is near
        return ~(np.abs(values - extreme) > margin)

    # per statistic, the (value, i, j) of the pairs near their tile's extreme;
    # a pair near the global extreme is near its tile's as well
    found: list[list[tuple[np.ndarray, ...]]] = [[] for _ in stats]
    for lo, dist, ej in tiles:
        rows, cols = np.nonzero(np.arange(n)[None, :] > np.arange(lo, lo + len(dist))[:, None])
        if len(rows):
            pair_values = (dist[rows, cols], ej[rows, cols])
            for (tile, extreme, margin, _), out in zip(stats, found):
                values = pair_values[tile]
                keep = near(values, extreme(values), margin)
                out.append((values[keep], rows[keep] + lo, cols[keep]))
    exact = []
    for (tile, extreme, margin, scalar), out in zip(stats, found):
        values, rows, cols = (np.concatenate(parts) for parts in zip(*out))
        approx = extreme(values)
        if tile == 1 and extreme is np.min and approx == 0.0:
            exact.append(0.0)
            continue
        keep = near(values, approx, margin)
        pick = min if extreme is np.min else max
        exact.append(pick(scalar(i, j) for i, j in zip(rows[keep].tolist(), cols[keep].tolist())))
    return NormStats(*exact)


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
