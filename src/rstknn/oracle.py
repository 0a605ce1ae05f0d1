"""Ground truth: the definition of the reverse k-NN answer, and nothing else.

The brute force takes every object's k-th-neighbour similarity from the
tiled NumPy pair kernel of ``core`` and settles each object whose query
similarity lies near it with the scalar ``kth_nn_sim``, so its answer is the
scalar definition's, bit for bit.  It imports nothing of the package but
``core``: the certifier shares no code with the tree, the bounds or the
engine that it certifies.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import (
    NormStats,
    QueryObject,
    STObject,
    SimParams,
    _PairTiles,
    _TILE_ROWS,
    sim_st,
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
    for lo in range(0, n, _TILE_ROWS):
        hi = min(n, lo + _TILE_ROWS)
        sim = tiles.sims(np.arange(lo, hi), params, stats)
        # the k-th largest of each row is its (n - k)-th smallest, self included
        kth[lo:hi] = np.partition(sim, n - k, axis=1)[:, n - k]
        unsure[lo:hi] = np.isfinite(sim).sum(axis=1) < n - 1
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
