"""Exact spatio-textual similarity arithmetic.

Objects carry a 2-D location and a sparse nonnegative term-weight vector.
Similarity between two objects is a convex combination of normalized spatial
proximity and normalized Extended Jaccard text similarity, where the
normalization constants (min/max pairwise distance and text similarity) come
from the database itself.

Every value is validated once, by the type that stores it: the term vector
its weights and squared norm, the objects their coordinates, the pair tiles
the dataset's spread.  Everything in this module is immutable after
construction and safe to share between concurrent readers.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

Point = tuple[float, float]

_MIN, _MAX = sys.float_info.min, sys.float_info.max


class DatasetTooSmall(ValueError):
    """Pairwise statistics require at least two objects."""


def is_finite(x: int | float) -> bool:
    """Whether a number is finite as a float; NaN, infinities and integers
    beyond float range are not."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


_QUOTE_MAX = 60  # characters of an input value that an error message quotes


def _quote(value: object) -> str:
    """The ``repr`` of an input value cut to a short prefix: a value may be
    nested or long without bound.  ``reprlib`` abbreviates past a few levels
    and items, so no full ``repr`` is built."""
    text = reprlib.repr(value)
    return text if len(text) <= _QUOTE_MAX else text[:_QUOTE_MAX] + "..."


class TermVector:
    """Sparse term -> weight mapping with a canonical iteration order.

    Weights are finite and strictly positive: zero-weight terms are dropped
    at construction, so presence in ``items`` means presence in the vector;
    NaN, infinite, out-of-float-range and negative weights are rejected, and
    so is a vector whose squared norm overflows or, for a non-empty vector,
    falls below the normal float range (where Extended Jaccard would divide
    by zero or lose its relative precision).  One pass over the sorted terms
    checks each weight and sums the squared norm.
    Dot products always iterate terms in lexicographic order, which makes
    every similarity value derived from these vectors reproducible
    bit-for-bit regardless of how the input mapping was built.
    """

    __slots__ = ("items", "_weights", "norm_sq")

    def __init__(self, weights: Mapping[str, float] | Iterable[tuple[str, float]] = ()):
        raw = dict(weights)
        items = []
        norm_sq = 0.0  # summed in the sorted order
        for term in sorted(raw):
            w = raw[term]
            if not (type(w) is float and 0.0 < w <= _MAX):  # not a positive finite float
                finite = is_finite(w)
                if not finite or w < 0:
                    raise ValueError(f"{'negative' if finite else 'non-finite'} weight for term "
                                     f"{_quote(term)}: {_quote(w)}")
                if not w:
                    continue
                w = float(w)
            items.append((term, w))
            norm_sq += w * w
        if items and not _MIN <= norm_sq <= _MAX:
            raise ValueError(f"squared norm out of float range: {norm_sq}")
        self.items: tuple[tuple[str, float], ...] = tuple(items)
        self._weights = dict(items)
        self.norm_sq = norm_sq

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


def union_vector(vectors: Iterable[TermVector]) -> TermVector:
    """Term-by-term maximum, absent terms reading as 0, merged into one dict."""
    merged: dict[str, float] = {}
    for v in vectors:
        for t, w in v.items:
            if w > merged.get(t, 0.0):
                merged[t] = w
    return TermVector(merged)


def intersection_vector(vectors: Sequence[TermVector]) -> TermVector:
    """Term-by-term minimum: the first vector's weights, narrowed by each
    other one.  A minimum whose squared norm falls below the normal float
    range is the empty vector, which lies under it term by term."""
    common = dict(vectors[0].items) if vectors else {}
    for v in vectors[1:]:
        if not common:
            break
        weights = v._weights
        common = {t: w if w <= x else x for t, w in common.items()
                  if (x := weights.get(t)) is not None}
    try:
        return TermVector(common)
    except ValueError:  # it cannot overflow: it lies under the first vector
        return TermVector()


def _check_finite_loc(loc: Point) -> None:
    if not all(map(is_finite, loc)):
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


_SPREAD = "the bounding box of the object locations has a diagonal beyond float range"


def check_spread(objects: Sequence[STObject]) -> None:
    """Reject a dataset whose bounding box has a diagonal beyond float range:
    its pairwise distances, and the spatial normalization by them, overflow."""
    xs, ys = zip(*(o.loc for o in objects))
    if not math.isfinite(math.hypot(max(xs) - min(xs), max(ys) - min(ys))):
        raise ValueError(_SPREAD)


def check_union(objects: Sequence[STObject]) -> None:
    """Reject a dataset whose union vector (an index root's, over every
    node's) has a squared norm beyond float range.  That is at most the sum
    of the objects' squared norms, so a sum below half the range is enough."""
    if not sum(o.vct.norm_sq for o in objects) <= _MAX / 2:
        try:
            union_vector(o.vct for o in objects)
        except ValueError as exc:
            raise ValueError(f"the union of the objects' term vectors: {exc}") from exc


@dataclass(frozen=True)
class NormStats:
    """Dataset-level normalization constants.

    ``phi_s``/``psi_s`` are the minimum/maximum Euclidean distance over all
    unordered object pairs, ``phi_t``/``psi_t`` the analogous extremes of the
    Extended Jaccard similarity.  The query never contributes to these.  A
    positive text range lies in the normal float range, so that a normalized
    text score, at most 1 / (psi_t - phi_t), is finite.
    """

    phi_s: float
    psi_s: float
    phi_t: float
    psi_t: float

    def __post_init__(self) -> None:
        if self.phi_s > self.psi_s or self.phi_t > self.psi_t:
            raise ValueError("min statistic exceeds max statistic")
        if 0.0 < self.psi_t - self.phi_t < _MIN:
            raise ValueError(f"the text similarity range {self.psi_t - self.phi_t!r} lies "
                             f"below the normal float range")


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

    :meth:`block` computes the rows of given positions against all n objects,
    in the order of ``objects``.  Iterating yields ``(lo, dist, ej)`` for
    consecutive blocks of ``_TILE_ROWS`` rows, so memory is O(_TILE_ROWS * n)
    and never O(n^2).  Distances come from :meth:`dist`; Extended Jaccard
    from a matmul over a dense term matrix (sorted-term columns) and the
    exact per-vector ``norm_sq``, clamped at 1, with two empty vectors
    scoring 0, as in the scalar functions.

    The tiles are not bit-identical to the scalar functions: :meth:`dist`
    and ``math.hypot`` differ in the last ulps, and a matmul sums in another
    order than the sorted-term dot.  ``dist_err`` and ``ej_err`` bound the
    disagreement of any one element with its scalar value, with a factor of
    at least eight to spare: ``math.hypot`` is within an ulp of a distance
    at most the objects' diagonal D, :meth:`dist` within 3 * eps * D; a sum
    of m nonnegative products in any order is within m * eps of the exact
    one, and the Extended Jaccard denominator is at least the dot product,
    so the ratio errs by at most (4m + 10) * eps.  Callers settle every
    decision within these margins with the scalar code.
    """

    def __init__(self, objects: Sequence[STObject]):
        self.objects = objects
        self.n = len(objects)
        self.xy = np.array([o.loc for o in objects], dtype=float).reshape(self.n, 2)
        with np.errstate(over="ignore"):
            self.diameter = float(np.hypot(*np.ptp(self.xy, axis=0)))
        if not math.isfinite(self.diameter):
            raise ValueError(_SPREAD)
        vectors = [o.vct for o in objects]
        vocab = sorted(set().union(*(v._weights for v in vectors)))
        self.column = {t: j for j, t in enumerate(vocab)}  # a term's column in ``terms``
        self.terms = self.dense(vectors)
        self.norm_sq = np.array([v.norm_sq for v in vectors])
        # squares of coordinate differences neither overflow nor lose eps * D
        self._squares = self.diameter == 0.0 or 2.0 ** -400 <= self.diameter <= 2.0 ** 400
        self.dist_err = 64 * (_EPS * self.diameter + math.ulp(0.0))
        self.ej_err = 64 * _EPS * (len(vocab) + 2)

    def dense(self, vectors: Sequence[TermVector]) -> np.ndarray:
        """The vectors as rows over the objects' vocabulary, which holds all
        their terms."""
        out = np.zeros((len(vectors), len(self.column)))
        for row, v in zip(out, vectors):
            for t, w in v.items:
                row[self.column[t]] = w
        return out

    def dist(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """The hypot of differences of object coordinates: sqrt(dx^2 + dy^2),
        several times faster than ``np.hypot``, which serves extreme D."""
        return np.sqrt(dx * dx + dy * dy) if self._squares else np.hypot(dx, dy)

    def block(self, rows: np.ndarray | slice, params: SimParams | None = None
              ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(dist, ej)`` of the objects at positions ``rows`` (an index
        array or a slice) against all n objects.  Given ``params``, a score
        without weight there is not computed and reads None."""
        dist = ej = None
        if params is None or params.alpha > 0.0:
            xy = self.xy
            dist = self.dist(xy[rows, 0:1] - xy[None, :, 0], xy[rows, 1:2] - xy[None, :, 1])
        if params is None or params.alpha < 1.0:
            dot = self.terms[rows] @ self.terms.T
            den = self.norm_sq[rows, None] + self.norm_sq[None, :] - dot
            with np.errstate(divide="ignore", invalid="ignore"):
                ej = np.minimum(1.0, dot / den)
            # only two empty vectors have a zero denominator: the squared
            # norm of a non-empty vector is a normal float
            ej[den == 0.0] = 0.0
        return dist, ej

    def __iter__(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        for lo in range(0, self.n, _TILE_ROWS):
            yield lo, *self.block(slice(lo, lo + _TILE_ROWS))  # type: ignore[misc]

    def sims(self, rows: np.ndarray, params: SimParams, stats: NormStats) -> np.ndarray:
        """``combined_similarity`` of the objects at positions ``rows`` against
        all n objects, within :meth:`sim_err` of ``sim_st``; an object is not
        its own neighbour, so each row's own element is -inf."""
        dist, ej = self.block(rows, params)
        sims = combined_similarity(dist, ej, params, stats)  # type: ignore[arg-type]
        if np.ndim(sims) == 0:  # both scores are constant
            sims = np.full((len(rows), self.n), sims)
        sims[np.arange(len(rows)), rows] = -math.inf
        return sims

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


def compute_norm_stats(dataset: Sequence[STObject] | _PairTiles) -> NormStats:
    """Exact min/max distance and text similarity over all object pairs.

    ``dataset`` is the objects or their :class:`_PairTiles` (an index keeps
    its tiles for the object rows of its queries).  Each tile's extremes are
    reductions over its upper triangle, masked by ``np.where``, and it keeps
    the pairs near them.  An exact extreme lies within twice the tiles'
    error bound of the vectorized one, so every pair that close to it is
    settled with the scalar ``euclidean_dist`` or ``extended_jaccard``, and
    the scalar values decide.  A vectorized Extended Jaccard minimum of
    exactly 0 needs a zero dot product, which the scalar dot gives as well.
    """
    objects = dataset.objects if isinstance(dataset, _PairTiles) else dataset
    n = len(objects)
    if n < 2:
        raise DatasetTooSmall(f"need >= 2 objects, got {n}")
    tiles = dataset if isinstance(dataset, _PairTiles) else _PairTiles(objects)

    def dist_of(i: int, j: int) -> float:
        return euclidean_dist(objects[i].loc, objects[j].loc)

    def ej_of(i: int, j: int) -> float:
        return extended_jaccard(objects[i].vct, objects[j].vct)

    # phi_s, psi_s, phi_t, psi_t: (which tile, whether a minimum, margin, scalar value)
    stats = ((0, True, 2 * tiles.dist_err, dist_of), (0, False, 2 * tiles.dist_err, dist_of),
             (1, True, 2 * tiles.ej_err, ej_of), (1, False, 2 * tiles.ej_err, ej_of))

    def near(values: np.ndarray, extreme: float, margin: float, lowest: bool) -> np.ndarray:
        # nan-safe: a value not known to lie beyond the margin is near, and an
        # infinite fill lies beyond it; rounding extreme + margin is far
        # inside the eightfold spare of the error bounds
        return ~(values > extreme + margin if lowest else values < extreme - margin)

    # per statistic and tile: the tile's extreme, and the values and flat
    # positions (i * n + j) of the pairs near it
    found: list[list[tuple[float, np.ndarray, np.ndarray]]] = [[] for _ in stats]
    for lo, dist, ej in tiles:
        if lo == n - 1:  # the last row alone has no pair above the diagonal
            break
        upper = np.arange(n) > np.arange(lo, lo + len(dist))[:, None]
        for (tile, lowest, margin, _), out in zip(stats, found):
            values = np.where(upper, (dist, ej)[tile], math.inf if lowest else -math.inf).ravel()
            extreme = values.min() if lowest else values.max()
            pairs = np.flatnonzero(near(values, extreme, margin, lowest))
            out.append((extreme, values[pairs], pairs + lo * n))
    exact = []
    for (tile, lowest, margin, scalar), out in zip(stats, found):
        approx = (np.min if lowest else np.max)([extreme for extreme, _, _ in out])
        if tile == 1 and lowest and approx == 0.0:
            exact.append(0.0)
            continue
        pairs = [divmod(p, n) for _, values, flat in out
                 for p in flat[near(values, approx, margin, lowest)].tolist()]
        exact.append((min if lowest else max)(scalar(i, j) for i, j in pairs))
    return NormStats(*exact)


def combined_similarity(dist: float, ej: float, params: SimParams, stats: NormStats) -> float:
    """alpha-weighted combination of the normalized spatial score
    1 - (dist - phi_s) / (psi_s - phi_s) and textual score
    (ej - phi_t) / (psi_t - phi_t), of floats or arrays (each weighted as soon
    as made, so that arrays are freed early); a degenerate score (psi ==
    phi) is the constant 1.  NOT clamped to [0, 1]: a query closer (or
    textually more similar) than any database pair scores outside it, and
    must compare strictly.  Only the scores with a nonzero weight are
    evaluated: the spatial score -inf of a query too far away must not turn
    the purely textual similarity at alpha = 0 into NaN.
    """
    a = params.alpha
    if a > 0.0:
        lo, hi = stats.phi_s, stats.psi_s
        s = 1.0 if hi == lo else 1.0 - (dist - lo) / (hi - lo)
        if a == 1.0:
            return s
        s = a * s
    lo, hi = stats.phi_t, stats.psi_t
    t = 1.0 if hi == lo else (ej - lo) / (hi - lo)
    if a == 0.0:
        return t
    t = (1.0 - a) * t
    return s + t


def sim_st(o1: STObject | QueryObject, o2: STObject | QueryObject,
           params: SimParams, stats: NormStats) -> float:
    """Spatio-textual similarity between two objects (or object and query):
    ``combined_similarity(euclidean_dist, extended_jaccard)`` as one
    straight-line body, operation for operation, so bit for bit."""
    a = params.alpha
    if a > 0.0:
        (x1, y1), (x2, y2) = o1.loc, o2.loc
        lo, hi = stats.phi_s, stats.psi_s
        s = 1.0 if hi == lo else 1.0 - (math.hypot(x1 - x2, y1 - y2) - lo) / (hi - lo)
        if a == 1.0:
            return s
    u, v = o1.vct, o2.vct
    t = 0.0  # two empty vectors
    if u.items or v.items:
        if len(v.items) < len(u.items):
            u, v = v, u
        weights = v._weights
        for term, w in u.items:  # the sorted common terms, as in TermVector.dot
            if (wv := weights.get(term)) is not None:
                t += w * wv
        t /= u.norm_sq + v.norm_sq - t
        if not t < 1.0:
            t = 1.0
    lo, hi = stats.phi_t, stats.psi_t
    t = 1.0 if hi == lo else (t - lo) / (hi - lo)
    return t if a == 0.0 else a * s + (1.0 - a) * t
