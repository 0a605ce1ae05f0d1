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
once.  A list starts as the root's self-tuple or as its parent's, and
changes only by refinement toward an entry B (:meth:`NNLists.refine`): the
held tuple T that covers B is split into T's off-path descendants along the
path from T down to B, each keeping T's bounds (sound, since each is a
subset of T), and B gets its directly computed bounds.

Tuples are immutable and shared: a child's list starts as a copy of its
parent's dict, holding the very same tuples.  That is exact because no list
ever holds a proper descendant of its owner (every refinement targets the
owner itself or an entry disjoint from it, and a split adds only pieces off
the path to its target): every held entry then overlaps both the parent and
the child or neither, so its slot count is the same for both.  Because a
tuple is shared, it does not say whether its bounds were computed for this
list's owner: it records the owner that computed them (``source``), and a
tuple is *direct* for a list exactly when that owner is the list's.

:meth:`NNLists.update_with` on its own pops every tuple that covers B (its
proper ancestors and the equal-span chain entries below it) instead of
splitting it, so the popped tuple's other points lose coverage.  The tree
precomputes that set per entry (:meth:`IurTree.covering`), so the removal
pops at most depth plus chain-length keys.  The legacy modes update that way.

In the correct mode only index nodes own lists.  An object owner decides
on its row (:class:`ObjectRow`): the list its exhaustive exchange would
leave, direct bounds against every entry of the frontier (the queued,
candidate and routed entries, which partition the dataset).  Its bounds
against frontier objects come from one NumPy block of the pair kernel,
within an error margin of ``sim_st`` that the scalar code settles; its
bounds against a frontier node are scalar :func:`pair_sim_bounds`, needed
only when the tuple covering the node in the owner's leaf's list reaches
the owner's query similarity, since refinement only tightens bounds.  The
row keeps no tuples: it counts the same two masses as ranges, settling
unknown elements until the ranges decide.  Its completeness is the
frontier covering all n objects; :meth:`ObjectRow.reference` builds the
list itself, which audit runs walk.

A list belongs to one query run: it is built with the query, the
parameters and the statistics, which its refinements and its accept/prune
test then use, and it computes its owner's pessimistic and optimistic query
similarity once, at construction.  An inherited list takes its parent's run.

The accept/prune test (:func:`is_hit_or_drop`) sorts nothing.  The list
keeps three slot totals through every change, from its construction on: the
drop mass (m summed over tuples whose lower bound reaches the optimistic
owner-query similarity), the hit mass (upper bounds against the pessimistic
one) and the covered slots.  Only inheritance, where the tuples change owner,
counts them afresh.  A walk's k-th slot reaches a threshold exactly when at
least k slots reach it, so drop mass >= k is the lower walk's prune and hit
mass < k the upper walk's accept.  An accept also needs a complete list, the
condition the legacy algorithms failed to maintain; their ungated test needs
only k covered slots; completeness is a tiling of [0, N) by the held spans.
The walks stay as the reference that audit runs and the tests compare the
totals with.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import NormStats, QueryObject, SimParams, sim_st
from .iur_tree import Entry, IurTree, max_sim_st, min_sim_st, object_entry, pair_sim_bounds

NEG_INF = float("-inf")


class Verdict(Enum):
    HIT = "hit"
    DROP = "drop"
    UNDECIDED = "undecided"


class NotInternalNode(ValueError):
    """Self-addition only applies to index nodes, never to single objects."""


class NNTuple(NamedTuple):
    """One list entry; immutable, so lists inherited from one parent share it."""

    entry: Entry
    m: int
    min_sim: float
    max_sim: float
    source: Entry | None = None  # the owner that computed the bounds; None if split off


class NNLists:
    """Tuple store keyed by entry, walked by lower or by upper bound.

    One store backs both the pessimistic (lower) and the optimistic (upper)
    walk, so the two can never disagree on membership.  ``pessimistic`` and
    ``optimistic`` are the owner's query similarity bounds, which the slot
    totals are counted against.
    """

    def __init__(self, owner: Entry, tree: IurTree, query: QueryObject,
                 params: SimParams, stats: NormStats):
        self.owner = owner
        self.tree = tree
        self.query, self.params, self.stats = query, params, stats
        self._tuples: dict[Entry, NNTuple] = {}
        self._span = tree.record(owner).span
        self.pessimistic = min_sim_st(tree, owner, query, params, stats)
        self.optimistic = max_sim_st(tree, owner, query, params, stats)
        self.drop_mass = 0
        self.hit_mass = 0
        self.covered_slots = 0

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
        lo, hi = self.tree.record(entry).span
        olo, ohi = self._span
        return hi - lo - ((lo <= olo and ohi <= hi) or (olo <= lo and hi <= ohi))

    # -- mutations ----------------------------------------------------------

    def _count(self, t: NNTuple, sign: int) -> None:
        m = sign * t.m
        self.covered_slots += m
        if t.min_sim >= self.optimistic:
            self.drop_mass += m
        if t.max_sim >= self.pessimistic:
            self.hit_mass += m

    def _recount(self) -> tuple[int, int, int]:
        """(drop mass, hit mass, covered slots) counted afresh."""
        drop = hit = covered = 0
        for _, m, min_sim, max_sim, _ in self._tuples.values():
            covered += m
            if min_sim >= self.optimistic:
                drop += m
            if max_sim >= self.pessimistic:
                hit += m
        return drop, hit, covered

    def _put(self, t: NNTuple) -> None:
        old = self._tuples.get(t.entry)
        self._tuples[t.entry] = t
        if old is not None:
            self._count(old, -1)
        self._count(t, 1)

    def _pop(self, entry: Entry) -> NNTuple | None:
        t = self._tuples.pop(entry, None)
        if t is not None:
            self._count(t, -1)
        return t

    def bounds(self, other: Entry) -> tuple[float, float]:
        """The (lower, upper) similarity bounds between the owner and ``other``,
        the pair :meth:`update_with` stores when given none."""
        return pair_sim_bounds(self.tree, self.owner, other, self.params, self.stats)

    def add_self(self) -> None:
        """Insert the owner itself so its own points count as candidates.

        The lower bound pairs the MBR diagonal with the worst group text
        similarity; the upper bound pairs distance zero with the best.
        """
        if not self.owner.is_node:
            raise NotInternalNode(f"cannot add_self on object entry {self.owner.label}")
        lo, hi = self.bounds(self.owner)
        self._put(NNTuple(self.owner, self.tree.count(self.owner) - 1, lo, hi, self.owner))

    def update_with(self, other: Entry,
                    bounds: tuple[float, float] | None = None) -> tuple[float, float]:
        """Upsert a tuple for ``other`` with directly computed bounds.

        Every tuple whose entry covers ``other`` (a proper ancestor, or an
        equal-span chain entry) is removed first, by lookup in the tree's
        precomputed :meth:`IurTree.covering`, not by a scan: keeping both
        would double-count the covering entry's points, and a double-counted
        lower list can prune entries that belong in the result.

        ``bounds`` takes the (lower, upper) pair already computed, by
        :meth:`bounds` or for the reverse update, ``other``'s list updated
        with this owner: :func:`pair_sim_bounds` is symmetric bit for bit, so
        one evaluation serves both lists.  Returns the pair stored.
        """
        if other == self.owner:
            raise ValueError("an entry never contributes to its own list via update")
        tuples = self._tuples
        for e in self.tree.covering(other):
            if e in tuples:
                self._pop(e)
        if bounds is None:
            bounds = self.bounds(other)
        lo, hi = bounds
        self._put(NNTuple(other, self._m_for(other), lo, hi, self.owner))
        return bounds

    def _cover(self, entry: Entry) -> Entry:
        """The held entry, other than ``entry``, that covers ``entry``."""
        held = next((e for e in self.tree.covering(entry) if e in self._tuples), None)
        if held is None:
            raise ValueError(f"no tuple in {self.owner.label}'s list covers {entry.label}")
        return held

    def holding(self, entry: Entry) -> NNTuple:
        """The held tuple for ``entry`` or, failing one, for the entry covering it."""
        t = self._tuples.get(entry)
        return self._tuples[self._cover(entry)] if t is None else t

    def _split_toward(self, entry: Entry) -> NNTuple:
        """Pop the held tuple T whose entry covers ``entry`` and add T's
        off-path descendants along the path from T down to ``entry``, all
        with T's bounds, which hold for any subset of T's points.  Returns T;
        ``entry`` itself is left without a tuple."""
        tree = self.tree
        held = self._cover(entry)
        t = self._pop(held)
        if tree.depth(held) < tree.depth(entry):  # else an equal-span descendant
            lo, hi = t.min_sim, t.max_sim  # type: ignore[union-attr]
            node = entry
            while node != held:
                parent = tree.parent(node)
                for c in tree.children(parent):  # type: ignore[arg-type]
                    if c != node:
                        self._put(NNTuple(c, self._m_for(c), lo, hi))
                node = parent  # type: ignore[assignment]
        return t  # type: ignore[return-value]

    def split(self, entry: Entry) -> None:
        """Give ``entry`` a tuple of its own without changing what is covered.

        The held tuple T that covers ``entry`` is replaced by T's off-path
        pieces (:meth:`_split_toward`) and by ``entry`` with T's bounds.
        Nothing changes when ``entry`` already has a tuple.
        """
        if entry not in self._tuples:
            t = self._split_toward(entry)
            self._put(NNTuple(entry, self._m_for(entry), t.min_sim, t.max_sim))

    def refine(self, entry: Entry,
               bounds: tuple[float, float] | None = None) -> tuple[float, float]:
        """Split toward ``entry``, then store its direct bounds.

        The split stops short of giving ``entry`` the covering tuple's
        bounds; no held tuple covers ``entry`` after it, so
        :meth:`update_with` pops nothing and the list stays a partition.
        ``bounds`` and the return value are as for :meth:`update_with`.
        """
        if entry not in self._tuples:
            self._split_toward(entry)
        return self.update_with(entry, bounds)

    @classmethod
    def inherited(cls, child: Entry, parent_lists: "NNLists") -> "NNLists":
        """The parent's tuples, shared, as the child's list in the same run.

        Bounds are inherited verbatim (any bound over the parent's point set
        bounds the child's subset, just more loosely), and so are the slot
        counts: an entry's count differs between the two owners only when it
        overlaps exactly one of them, and an entry that overlaps the parent
        but not the child is a proper descendant of the parent, which no
        list holds.  The slot totals are counted once, against the child's
        own query bounds.
        """
        p = parent_lists
        lists = cls(child, p.tree, p.query, p.params, p.stats)
        lists._tuples = p._tuples.copy()
        lists.drop_mass, lists.hit_mass, lists.covered_slots = lists._recount()
        return lists

    @classmethod
    def direct(cls, owner: Entry, entries: Iterable[Entry], tree: IurTree, query: QueryObject,
               params: SimParams, stats: NormStats) -> "NNLists":
        """A list of direct bounds between the owner and each of ``entries``,
        which must not overlap one another."""
        lists = cls(owner, tree, query, params, stats)
        for e in entries:
            lo, hi = lists.bounds(e)
            lists._put(NNTuple(e, lists._m_for(e), lo, hi, owner))
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

    def counted_verdict(self) -> Verdict:
        """The accept/prune rule on the slot totals of a list known to be
        complete; :func:`is_hit_or_drop` adds what a hit needs otherwise."""
        k = self.params.k
        if self.drop_mass >= k:
            return Verdict.DROP
        if self.hit_mass < k:
            return Verdict.HIT
        return Verdict.UNDECIDED

    # -- bounds -------------------------------------------------------------

    def is_complete(self) -> bool:
        """Every database object is accounted for, exactly once: the held
        tuples' sorted preorder spans tile [0, N).

        A node owner must cover even its own points (normally through its
        self-tuple or an ancestor).  A point owner is its own 0th nearest
        neighbor, so its own position is the one gap allowed.  Overlapping
        spans are incomplete: such a list counts a point twice.
        """
        record = self.tree.record
        own = self._span[0] if self.owner.is_object else -1
        at = 0  # the first position not yet accounted for
        for lo, hi in sorted(record(e).span for e in self._tuples):
            if lo != at and not (at == own and lo == own + 1):
                return False
            at = hi
        return at == self.tree.size or at == own == self.tree.size - 1

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

    def walked_verdict(self, *, gated: bool = True) -> Verdict:
        """:func:`is_hit_or_drop` by the sorted walks, the reference that audit
        runs and the tests compare it with."""
        k = self.params.k
        lower = self.knn_lower(k)
        if lower is not None and self.optimistic <= lower:
            return Verdict.DROP
        upper = self.knn_upper(k) if gated else self._walk(k, upper=True)
        if upper is not None and self.pessimistic > upper:
            return Verdict.HIT
        return Verdict.UNDECIDED

    # -- test support ---------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the structural invariants; used by the test suite."""
        entries = list(self._tuples)
        n = self.tree.size
        assert (self.drop_mass, self.hit_mass, self.covered_slots) == self._recount(), (
            "slot totals differ from a recount"
        )
        assert self.covered_slots <= n - 1, "over-coverage: sum(m) exceeds N - 1"
        depth = self.tree.depth(self.owner)
        for t in self._tuples.values():
            count = self.tree.count(t.entry)
            assert 0 <= t.m <= count
            assert not (self.tree.depth(t.entry) > depth
                        and self.tree.is_ancestor_or_equal(self.owner, t.entry)), (
                f"{t.entry.label} is a proper descendant of the owner {self.owner.label}"
            )
            if self.tree.overlaps(t.entry, self.owner):
                assert t.m == count - 1, "overlapping entry must give up one slot"
            assert t.min_sim <= t.max_sim + 1e-12
        for i, a in enumerate(entries):
            for b in entries[i + 1 :]:
                assert not self.tree.overlaps(a, b), (
                    f"overlapping tuples {a.label} / {b.label}"
                )


class Frontier(NamedTuple):
    """The frontier as the object rows read it.

    ``free`` is True at the preorder positions of the frontier's objects;
    every other position lies under one of ``nodes``, the frontier's nodes,
    each with an upper bound that no direct bound between it and the rows'
    owners exceeds (the bound held for it in the list of the owners' leaf),
    by decreasing bound.  ``covered`` counts the objects of both, n when the
    entries partition the dataset.
    """

    free: np.ndarray
    nodes: list[tuple[float, Entry]]
    covered: int

    @classmethod
    def of(cls, tree: IurTree, free: np.ndarray, nodes: Sequence[tuple[float, Entry]]
           ) -> "Frontier":
        ordered = sorted(nodes, key=lambda pair: (-pair[0], pair[1]))
        covered = int(np.count_nonzero(free)) + sum(tree.count(e) for _, e in ordered)
        return cls(free, ordered, covered)


class ObjectRows:
    """Exact rows of consecutive preorder objects against one frontier.

    Rows ``lo:hi`` of the pair kernel (:meth:`IurTree.tiles`) give each
    owner's similarity to every object, within ``err`` of its ``sim_st``;
    an owner is not its own neighbour, so its own element is -inf.
    :meth:`row` views one owner's row as its NN-list.
    """

    def __init__(self, tree: IurTree, lo: int, hi: int, frontier: Frontier,
                 query: QueryObject, params: SimParams, stats: NormStats):
        self.tree, self.lo, self.frontier = tree, lo, frontier
        self.query, self.params, self.stats = query, params, stats
        tiles = tree.tiles()
        self.sims = tiles.sims(lo, hi, params, stats)
        self.err = tiles.sim_err(params, stats)

    def row(self, owner: Entry) -> "ObjectRow":
        return ObjectRow(self, owner)


def _settled(drop: tuple[int, int], hit: tuple[int, int], k: int) -> Verdict | None:
    """:meth:`NNLists.counted_verdict` on masses known to lie in the closed
    ranges ``drop`` and ``hit``, or None while the ranges leave it open."""
    if drop[0] >= k:
        return Verdict.DROP
    if drop[1] < k:
        if hit[1] < k:
            return Verdict.HIT
        if hit[0] >= k:
            return Verdict.UNDECIDED
    return None


class ObjectRow:
    """An object owner's NN-list as its exhaustive exchange would leave it.

    That list holds direct bounds against every frontier entry, so it is
    complete whenever the frontier partitions the dataset.  Against a
    frontier object both bounds are the exact ``sim_st``, which the owner's
    row holds within ``err``: an element further than that from the owner's
    exact query similarity s is on its side of s, and one within it is
    settled by scalar ``sim_st``.  Against a frontier node they are the
    scalar :func:`pair_sim_bounds`, evaluated only when the node's bound in
    the :class:`Frontier` reaches s, since a bound below s counts toward
    neither mass.  Both masses are ranges while elements are unsettled, and
    :meth:`counted_verdict` settles them, nodes by decreasing bound first,
    only until the ranges decide.  :meth:`reference` builds the list itself,
    for audit runs.
    """

    def __init__(self, rows: ObjectRows, owner: Entry):
        self.owner, self.tree, self.params = owner, rows.tree, rows.params
        self._rows = rows
        self._pos = rows.tree.record(owner).span[0]
        # exact: both query bounds of an object are its sim_st to the query
        self.query_sim = min_sim_st(rows.tree, owner, rows.query, rows.params, rows.stats)
        self._verdict: Verdict | None = None

    def is_complete(self) -> bool:
        """The frontier covers every object."""
        return self._rows.frontier.covered == self.tree.size

    def counted_verdict(self) -> Verdict:
        """:meth:`NNLists.counted_verdict` on the row, settled once."""
        if self._verdict is None:
            self._verdict = self._decide()
        return self._verdict

    def _decide(self) -> Verdict:
        rows, tree, owner = self._rows, self.tree, self.owner
        params, stats, k, s = rows.params, rows.stats, self.params.k, self.query_sim
        free, err = rows.frontier.free, rows.err
        diff = rows.sims[self._pos - rows.lo] - s
        objects = int(np.count_nonzero(free & (diff > err)))  # known to reach s
        near = np.flatnonzero(free & ~(np.abs(diff) > err)).tolist()  # nan-safe: unknown
        nodes = []
        for bound, e in rows.frontier.nodes:
            if bound < s:
                break
            nodes.append(e)
        drop = hit = 0  # slots of the bounded nodes that count
        rest = sum(map(tree.count, nodes))  # slots of the nodes not yet bounded
        nodes.reverse()  # pop by decreasing bound
        points = tree.tiles().objects
        while (verdict := _settled((objects + drop, objects + len(near) + drop + rest),
                                   (objects + hit, objects + len(near) + hit + rest),
                                   k)) is None:
            if nodes:
                e = nodes.pop()
                lo, hi = pair_sim_bounds(tree, owner, e, params, stats)
                m = tree.count(e)
                rest -= m
                drop += m * (lo >= s)
                hit += m * (hi >= s)
            else:
                objects += sim_st(points[self._pos], points[near.pop()], params, stats) >= s
        return verdict

    def reference(self) -> NNLists:
        """The list of direct scalar bounds against every frontier entry."""
        rows, points = self._rows, self.tree.tiles().objects
        entries = [object_entry(points[p].id)
                   for p in np.flatnonzero(rows.frontier.free).tolist() if p != self._pos]
        entries += [e for _, e in rows.frontier.nodes]
        return NNLists.direct(self.owner, entries, self.tree, rows.query, rows.params, rows.stats)


def is_hit_or_drop(lists: NNLists | ObjectRow, *, gated: bool = True) -> Verdict:
    """Sufficient accept/prune test for the list's owner against its query.

    Drop when at least k slots have a lower bound at or above the optimistic
    owner-query similarity (ties drop: database points win them).  Hit when
    fewer than k slots have an upper bound at or above the pessimistic one
    and the list is complete, or, with ``gated=False`` (only the deliberately
    faulty legacy modes), covers at least k slots.  Otherwise undecided.  The
    list keeps its slot totals current, and completeness is checked only when
    a hit is possible.
    """
    verdict = lists.counted_verdict()
    if verdict is Verdict.HIT and not (
            lists.is_complete() if gated else lists.covered_slots >= lists.params.k):
        return Verdict.UNDECIDED
    return verdict
