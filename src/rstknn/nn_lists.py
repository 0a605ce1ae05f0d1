"""Per-entry neighbor-contribution lists and the accept/prune test.

An entry's NN-list records, for a set of pairwise non-overlapping tree
entries, how many neighbor slots each one accounts for (``m``) together with
lower/upper similarity bounds.  Walking the tuples in decreasing bound order
and accumulating ``m`` yields under/over-estimates of the similarity to the
k-th nearest neighbor of any point inside the owner.  The walk sorts the
tuples when it is asked for; ties in bound cannot change its value.

Counting a point twice inflates the lower cumulative walk and can trigger a
false prune; leaving a point out deflates the upper walk and can trigger a
false accept.  The correct mode therefore keeps every list a partition of
the dataset: at every moment the tuples' preorder spans tile [0, N) exactly
once.  A list starts as the root's self-tuple or as a copy of its parent's,
and changes only by refinement toward an entry B (:meth:`NNLists.refine`):
the held tuple T that covers B is split into B and T's off-path descendants
along the path from T down to B, each keeping T's bounds (sound, since each
is a subset of T), and then B's directly computed bounds replace T's on B.

:meth:`NNLists.update_with` on its own pops every tuple that covers B (its
proper ancestors and the equal-span chain entries below it) instead of
splitting it, so the popped tuple's other points lose coverage.  The tree
precomputes that set per entry (:meth:`IurTree.covering`), so the removal
pops at most depth plus chain-length keys.  The legacy modes update that way.

The upper-bound walk is additionally gated on completeness: it is only
meaningful when every database object is accounted for, which is exactly the
condition the legacy algorithms failed to maintain.

Once :meth:`NNLists.watch` is given the owner's query bounds, the list keeps
two slot counts up to date through every change: the drop mass (sum of m
over tuples whose lower bound reaches the optimistic owner-query similarity)
and the hit mass (sum of m over tuples whose upper bound reaches the
pessimistic one).  Drop mass >= k is exactly the lower walk's prune
condition and hit mass < k the upper walk's accept condition, so an exchange
can test after every refinement, in O(1), whether the owner is decided.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import NormStats, QueryObject, SimParams
from .iur_tree import Entry, IurTree, max_sim_st, min_sim_st, pair_sim_bounds

NEG_INF = float("-inf")


class Verdict(Enum):
    HIT = "hit"
    DROP = "drop"
    UNDECIDED = "undecided"


class NotInternalNode(ValueError):
    """Self-addition only applies to index nodes, never to single objects."""


@dataclass(slots=True)
class NNTuple:
    entry: Entry
    m: int
    min_sim: float
    max_sim: float
    direct: bool = False  # bounds computed for this entry, not inherited or split off


class NNLists:
    """Tuple store keyed by entry, walked by lower or by upper bound.

    One store backs both the pessimistic (lower) and the optimistic (upper)
    walk, so the two can never disagree on membership.
    """

    def __init__(self, owner: Entry, tree: IurTree):
        self.owner = owner
        self.tree = tree
        self._tuples: dict[Entry, NNTuple] = {}
        self._span = tree.record(owner).span
        self._query_bounds: tuple[float, float] | None = None  # set by watch()
        self.drop_mass = 0
        self.hit_mass = 0

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, entry: Entry) -> bool:
        return entry in self._tuples

    def get(self, entry: Entry) -> NNTuple | None:
        return self._tuples.get(entry)

    def tuples(self) -> list[NNTuple]:
        return list(self._tuples.values())

    def _m_for(self, entry: Entry) -> int:
        """The entry's size, less one when it overlaps the owner (a point is
        not its own neighbor)."""
        record = self.tree.record(entry)
        lo, hi = record.span
        olo, ohi = self._span
        return record.count - ((lo <= olo and ohi <= hi) or (olo <= lo and hi <= ohi))

    # -- mutations ----------------------------------------------------------

    def _count(self, t: NNTuple, sign: int) -> None:
        lower, upper = self._query_bounds  # type: ignore[misc]
        if t.min_sim >= upper:
            self.drop_mass += sign * t.m
        if t.max_sim >= lower:
            self.hit_mass += sign * t.m

    def _put(self, t: NNTuple) -> None:
        old = self._tuples.get(t.entry)
        self._tuples[t.entry] = t
        if self._query_bounds is not None:
            if old is not None:
                self._count(old, -1)
            self._count(t, 1)

    def _pop(self, entry: Entry) -> NNTuple | None:
        t = self._tuples.pop(entry, None)
        if t is not None and self._query_bounds is not None:
            self._count(t, -1)
        return t

    def add_self(self, params: SimParams, stats: NormStats) -> None:
        """Insert the owner itself so its own points count as candidates.

        The lower bound pairs the MBR diagonal with the worst group text
        similarity; the upper bound pairs distance zero with the best.
        """
        if not self.owner.is_node:
            raise NotInternalNode(f"cannot add_self on object entry {self.owner.label}")
        lo, hi = pair_sim_bounds(self.tree, self.owner, self.owner, params, stats)
        self._put(NNTuple(self.owner, self.tree.count(self.owner) - 1, lo, hi, True))

    def update_with(self, other: Entry, params: SimParams, stats: NormStats,
                    bounds: tuple[float, float] | None = None) -> tuple[float, float]:
        """Upsert a tuple for ``other`` with directly computed bounds.

        Every tuple whose entry covers ``other`` (a proper ancestor, or an
        equal-span chain entry) is removed first, by lookup in the tree's
        precomputed :meth:`IurTree.covering`, not by a scan: keeping both
        would double-count the covering entry's points, and a double-counted
        lower list can prune entries that belong in the result.

        ``bounds`` takes the (lower, upper) pair already computed for the
        reverse update, ``other``'s list updated with this owner;
        :func:`pair_sim_bounds` is symmetric bit for bit, so one evaluation
        serves both lists.  Returns the pair stored.
        """
        if other == self.owner:
            raise ValueError("an entry never contributes to its own list via update")
        for e in self.tree.covering(other):
            self._pop(e)
        if bounds is None:
            bounds = pair_sim_bounds(self.tree, self.owner, other, params, stats)
        lo, hi = bounds
        self._put(NNTuple(other, self._m_for(other), lo, hi, True))
        return bounds

    def split(self, entry: Entry) -> None:
        """Give ``entry`` a tuple of its own without changing what is covered.

        The held tuple T whose entry covers ``entry`` is replaced by
        ``entry`` and by T's off-path descendants along the path from T down
        to ``entry``; all of them keep T's bounds, which hold for any subset
        of T's points.  Nothing changes when ``entry`` already has a tuple.
        """
        tuples = self._tuples
        if entry in tuples:
            return
        tree = self.tree
        held = next((e for e in tree.covering(entry) if e in tuples), None)
        if held is None:
            raise ValueError(f"no tuple in {self.owner.label}'s list covers {entry.label}")
        t = self._pop(held)
        lo, hi = t.min_sim, t.max_sim  # type: ignore[union-attr]
        if tree.depth(held) < tree.depth(entry):  # else an equal-span descendant
            node = entry
            while node != held:
                parent = tree.parent(node)
                for c in tree.children(parent):  # type: ignore[arg-type]
                    if c != node:
                        self._put(NNTuple(c, self._m_for(c), lo, hi))
                node = parent  # type: ignore[assignment]
        self._put(NNTuple(entry, self._m_for(entry), lo, hi))

    def refine(self, entry: Entry, params: SimParams, stats: NormStats,
               bounds: tuple[float, float] | None = None) -> tuple[float, float]:
        """Split toward ``entry``, then store its direct bounds.

        After the split no held tuple covers ``entry``, so
        :meth:`update_with` pops nothing and the list stays a partition.
        ``bounds`` and the return value are as for :meth:`update_with`.
        """
        self.split(entry)
        return self.update_with(entry, params, stats, bounds)

    @classmethod
    def inherited(cls, child: Entry, parent_lists: "NNLists") -> "NNLists":
        """Deep-copy the parent's tuples for a child entry.

        Bounds are inherited verbatim (any bound over the parent's point set
        bounds the child's subset, just more loosely); the slot counts are
        recomputed against the new owner's overlap.
        """
        lists = cls(child, parent_lists.tree)
        for t in parent_lists._tuples.values():
            lists._tuples[t.entry] = NNTuple(t.entry, lists._m_for(t.entry), t.min_sim, t.max_sim)
        return lists

    def strip_self_and_parent(self) -> None:
        """Drop the owner's own tuple and its parent's, if present."""
        doomed = [self.owner]
        parent = self.tree.parent(self.owner)
        if parent is not None:
            doomed.append(parent)
        for e in doomed:
            self._pop(e)

    def remove(self, entry: Entry) -> None:
        self._pop(entry)

    # -- the slot counts ------------------------------------------------------

    def watch(self, query: QueryObject, params: SimParams,
              stats: NormStats) -> tuple[float, float]:
        """Start keeping the drop and hit masses against the query.

        Returns the owner's (pessimistic, optimistic) query similarity, the
        two thresholds of the masses.
        """
        tree, owner = self.tree, self.owner
        self._query_bounds = (min_sim_st(tree, owner, query, params, stats),
                              max_sim_st(tree, owner, query, params, stats))
        self.drop_mass = self.hit_mass = 0
        for t in self._tuples.values():
            self._count(t, 1)
        return self._query_bounds

    def counted_verdict(self, k: int) -> Verdict:
        """The verdict the slot counts give; agrees with the gated
        :func:`is_hit_or_drop` on a complete list at the watched bounds."""
        if self.drop_mass >= k:
            return Verdict.DROP
        if self.hit_mass < k:
            return Verdict.HIT
        return Verdict.UNDECIDED

    # -- bounds -------------------------------------------------------------

    def coverage(self) -> int:
        return sum(t.m for t in self._tuples.values())

    def covered_object_ids(self) -> set[str]:
        covered: set[str] = set()
        for e in self._tuples:
            covered |= self.tree.subtree_ids(e)
        return covered

    def is_complete(self) -> bool:
        """Every database object is accounted for.

        A node owner must cover even its own points (normally through its
        self-tuple or an ancestor).  A point owner is its own 0th nearest
        neighbor, so only the other N-1 objects need covering.
        """
        missing = self.tree.all_object_ids - self.covered_object_ids()
        if not missing:
            return True
        return self.owner.is_object and missing == {self.owner.ident}

    def _walk(self, k: int, upper: bool) -> float | None:
        """Walk the tuples in decreasing bound order, accumulating slots.

        Returns the bound of the tuple at which the count reaches k, or None
        when the list covers fewer than k neighbors.  Tuples with equal
        bounds may come in any order: the value is the same.
        """
        pairs = sorted(
            ((t.max_sim if upper else t.min_sim, t.m) for t in self._tuples.values()),
            reverse=True,
        )
        cumulative = 0
        for bound, m in pairs:
            cumulative += m
            if cumulative >= k:
                return bound
        return None

    def knn_lower(self, k: int) -> float | None:
        """Lower bound on the k-th-neighbor similarity of any owned point.

        Walks the lower bounds; absent when the list covers fewer than k
        neighbors (no bound is available, which is safe).
        """
        return self._walk(k, upper=False)

    def knn_upper(self, k: int) -> float | None:
        """Upper bound on the k-th-neighbor similarity of any owned point.

        Only defined for complete lists.  If the whole database holds fewer
        than k neighbors for the owner's points, the k-th neighbor does not
        exist and the bound is -inf, which makes such entries unconditional
        members of the result.
        """
        if not self.is_complete():
            return None
        upper = self._walk(k, upper=True)
        return NEG_INF if upper is None else upper

    # -- test support ---------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the structural invariants; used by the test suite."""
        entries = list(self._tuples)
        n = len(self.tree.all_object_ids)
        assert self.coverage() <= n - 1, "over-coverage: sum(m) exceeds N - 1"
        for t in self._tuples.values():
            count = self.tree.count(t.entry)
            assert 0 <= t.m <= count
            if self.tree.overlaps(t.entry, self.owner):
                assert t.m == count - 1, "overlapping entry must give up one slot"
            assert t.min_sim <= t.max_sim + 1e-12
        for i, a in enumerate(entries):
            for b in entries[i + 1 :]:
                assert not self.tree.overlaps(a, b), (
                    f"overlapping tuples {a.label} / {b.label}"
                )


def is_hit_or_drop(lists: NNLists, query: QueryObject, params: SimParams,
                   stats: NormStats, *, gated: bool = True,
                   query_bounds: tuple[float, float] | None = None) -> Verdict:
    """Sufficient accept/prune test for the list's owner against the query.

    Drop when even the optimistic owner-query similarity cannot beat the
    pessimistic k-th-neighbor bound (ties drop: database points win them).
    Hit when the pessimistic owner-query similarity strictly beats the
    optimistic k-th-neighbor bound.  Otherwise undecided.

    ``gated=False`` walks the upper bounds without the completeness gate
    (and without -inf when fewer than k neighbors are covered); only the
    deliberately faulty legacy modes use it.  ``query_bounds`` takes the
    owner's (pessimistic, optimistic) query similarity when the caller
    already has it; otherwise each is computed when a walk needs it.
    """
    tree = lists.tree
    k = params.k
    lower = lists.knn_lower(k)
    if lower is not None:
        optimistic = (query_bounds[1] if query_bounds is not None
                      else max_sim_st(tree, lists.owner, query, params, stats))
        if optimistic <= lower:
            return Verdict.DROP
    upper = lists.knn_upper(k) if gated else lists._walk(k, upper=True)
    if upper is not None:
        pessimistic = (query_bounds[0] if query_bounds is not None
                       else min_sim_st(tree, lists.owner, query, params, stats))
        if pessimistic > upper:
            return Verdict.HIT
    return Verdict.UNDECIDED
