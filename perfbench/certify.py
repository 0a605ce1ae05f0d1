"""Independent brute-force certifier.

Nothing here imports ``rstknn``.  The similarity follows the documented
formula: ``math.hypot`` distance, Extended Jaccard with the dot product
accumulated in sorted term order (clamped at 1, two empty vectors score 0),
and normalization constants taken from database pairs only.  Combined
similarity is ``alpha * spatial + (1 - alpha) * textual`` and is not clamped.

Statistics and each object's k-th-neighbour similarity are computed once per
dataset with NumPy in row tiles.  NumPy may differ from the scalar formula in
the last ulp, so every value that decides something is settled by the scalar
formula: pairs near a statistic's extreme, and objects whose query
similarity lies near their vectorised k-th-neighbour similarity.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

_TILE = 128
_TOL = 1e-9  # far above any last-ulp disagreement, far below real gaps


def _close(a: np.ndarray, b: float) -> np.ndarray:
    return np.abs(a - b) <= _TOL * max(1.0, abs(b))


class _Vec:
    """Sorted (term, weight) pairs with the norm accumulated in that order."""

    __slots__ = ("items", "lookup", "norm_sq")

    def __init__(self, terms: dict[str, float]):
        self.items = tuple(sorted((t, float(w)) for t, w in terms.items() if w > 0))
        self.lookup = dict(self.items)
        self.norm_sq = 0.0
        for _, w in self.items:
            self.norm_sq += w * w


def _ej(u: _Vec, v: _Vec) -> float:
    if not u.items and not v.items:
        return 0.0
    d = 0.0
    for t, w in u.items:
        wv = v.lookup.get(t)
        if wv is not None:
            d += w * wv
    return min(1.0, d / (u.norm_sq + v.norm_sq - d))


class Certifier:
    """Exact RSTkNN answers for one dataset, one alpha and one k."""

    def __init__(self, path: Path, alpha: float, k: int):
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]
        self.ids = [r["id"] for r in rows]
        self.locs = [(float(r["x"]), float(r["y"])) for r in rows]
        self.vecs = [_Vec(r["terms"]) for r in rows]
        self.alpha = alpha
        self.k = k
        self._exact_kth: dict[int, float] = {}
        vocab = sorted({t for v in self.vecs for t, _ in v.items})
        col = {t: j for j, t in enumerate(vocab)}
        self._xy = np.array(self.locs, dtype=float)
        self._tv = np.zeros((len(rows), len(vocab)))
        for i, v in enumerate(self.vecs):
            for t, w in v.items:
                self._tv[i, col[t]] = w
        self._norm = np.array([v.norm_sq for v in self.vecs])
        self.stats = self._stats()
        self.kth = self._kth_all()

    # -- scalar formula --------------------------------------------------------

    def _dist(self, p: tuple[float, float], q: tuple[float, float]) -> float:
        return math.hypot(p[0] - q[0], p[1] - q[1])

    def sim(self, loc: tuple[float, float], vec: _Vec, i: int) -> float:
        phi_s, psi_s, phi_t, psi_t = self.stats
        d = self._dist(self.locs[i], loc)
        e = _ej(self.vecs[i], vec)
        spatial = 1.0 if psi_s == phi_s else 1.0 - (d - phi_s) / (psi_s - phi_s)
        textual = 1.0 if psi_t == phi_t else (e - phi_t) / (psi_t - phi_t)
        return self.alpha * spatial + (1.0 - self.alpha) * textual

    def _scalar_kth(self, i: int) -> float:
        if i not in self._exact_kth:
            sims = sorted(
                (self.sim(self.locs[j], self.vecs[j], i) for j in range(len(self.ids)) if j != i),
                reverse=True,
            )
            self._exact_kth[i] = sims[self.k - 1] if len(sims) >= self.k else -math.inf
        return self._exact_kth[i]

    # -- vectorised tiles --------------------------------------------------------

    def _tiles(self):
        """Yield (row offset, distance tile, Extended Jaccard tile)."""
        n = len(self.ids)
        for lo in range(0, n, _TILE):
            hi = min(n, lo + _TILE)
            dx = self._xy[lo:hi, 0:1] - self._xy[None, :, 0]
            dy = self._xy[lo:hi, 1:2] - self._xy[None, :, 1]
            dist = np.hypot(dx, dy)
            dot = self._tv[lo:hi] @ self._tv.T
            den = self._norm[lo:hi, None] + self._norm[None, :] - dot
            with np.errstate(divide="ignore", invalid="ignore"):
                ej = np.minimum(1.0, dot / den)
            ej[den == 0.0] = 0.0  # only two empty vectors have a zero denominator
            yield lo, dist, ej

    def _stats(self) -> tuple[float, float, float, float]:
        n = len(self.ids)
        if n < 2:
            raise ValueError("statistics need at least two objects")

        def pairs(lo: int, rows: int) -> np.ndarray:
            return np.arange(n)[None, :] > np.arange(lo, lo + rows)[:, None]

        approx = [math.inf, -math.inf, math.inf, -math.inf]
        for lo, dist, ej in self._tiles():
            upper = pairs(lo, len(dist))
            approx[0] = min(approx[0], dist[upper].min(initial=math.inf))
            approx[1] = max(approx[1], dist[upper].max(initial=-math.inf))
            approx[2] = min(approx[2], ej[upper].min(initial=math.inf))
            approx[3] = max(approx[3], ej[upper].max(initial=-math.inf))
        # settle each extreme with the scalar formula over the pairs near it;
        # a vectorised Extended Jaccard of 0 comes from a zero dot product,
        # which the scalar formula gives exactly, so that minimum needs none
        exact = [math.inf, -math.inf, 0.0 if approx[2] == 0.0 else math.inf, -math.inf]
        settle = [0, 1, 3] if approx[2] == 0.0 else [0, 1, 2, 3]
        for lo, dist, ej in self._tiles():
            upper = pairs(lo, len(dist))
            for slot in settle:
                tile, pick = (dist, ej)[slot // 2], (min, max)[slot % 2]
                for a, b in zip(*np.nonzero(upper & _close(tile, approx[slot]))):
                    i, j = lo + int(a), int(b)
                    if slot < 2:
                        value = self._dist(self.locs[i], self.locs[j])
                    else:
                        value = _ej(self.vecs[i], self.vecs[j])
                    exact[slot] = pick(exact[slot], value)
        return tuple(exact)  # type: ignore[return-value]

    def _kth_all(self) -> np.ndarray:
        n = len(self.ids)
        kth = np.full(n, -math.inf)
        if n - 1 < self.k:
            return kth
        phi_s, psi_s, phi_t, psi_t = self.stats
        for lo, dist, ej in self._tiles():
            spatial = np.ones_like(dist) if psi_s == phi_s else 1.0 - (dist - phi_s) / (psi_s - phi_s)
            textual = np.ones_like(ej) if psi_t == phi_t else (ej - phi_t) / (psi_t - phi_t)
            sim = self.alpha * spatial + (1.0 - self.alpha) * textual
            sim[np.arange(len(sim)), np.arange(lo, lo + len(sim))] = -math.inf
            # k-th largest of each row: the (n - k)-th smallest, self included
            kth[lo:lo + len(sim)] = np.partition(sim, n - self.k, axis=1)[:, n - self.k]
        return kth

    # -- answers -----------------------------------------------------------------

    def answer(self, query: dict) -> set[str]:
        """Ids of the objects that count the query among their k nearest."""
        loc = (float(query["x"]), float(query["y"]))
        vec = _Vec(query["terms"])
        out = set()
        for i, oid in enumerate(self.ids):
            s = self.sim(loc, vec, i)
            kth = float(self.kth[i])
            if abs(s - kth) <= _TOL * max(1.0, abs(kth)):
                kth = self._scalar_kth(i)
            if s > kth:
                out.add(oid)
        return out
