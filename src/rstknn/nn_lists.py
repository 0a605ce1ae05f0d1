"""Per-entry neighbor-contribution lists, the correct mode's rows, and the
accept/prune test.

An entry's NN-list records, for a set of pairwise non-overlapping tree
entries, how many neighbor slots each one accounts for (``m``) together with
lower/upper similarity bounds.  Walking the tuples in decreasing bound order
and accumulating ``m`` yields under/over-estimates of the similarity to the
k-th nearest neighbor of any point inside the owner; ties in bound cannot
change the walk's value.  Counting a point twice inflates the lower walk and
can trigger a false prune; leaving a point out deflates the upper walk and
can trigger a false accept.  A list belongs to one query run, whose query,
parameters and statistics it is built with, and it computes its owner's
pessimistic and optimistic query similarity once.

The legacy modes keep lists.  A child's list starts as its parent's dict,
sharing the immutable tuples, and :meth:`NNLists.update_with` pops every
tuple covering the added entry (by lookup in :meth:`IurTree.covering`), so
the popped tuple's other points lose coverage: the lists lose completeness.

The correct mode keeps none.  Every owner, node or object, decides on its
:class:`Row`: the list of direct bounds against every other entry of the
frontier (the queued, candidate and routed entries, which partition the
dataset), plus a node's self-tuple.  Refining a list only tightens its
bounds, so this is the list any refinement converges to, and its verdict
the exhaustive one.  The paper's two conditions are visible in a row:
completeness is the frontier's coverage of all n objects, and locality is
the owner's own element, which holds count - 1 slots (a node's self-tuple,
none for an object).  A row keeps no tuples.  Its elements come from
:meth:`EntryArrays.bounds`, one NumPy call for a tile of owners of one kind
against every entry, each within the margin ``sim_err`` of the scalar value
(its docstring proves the margin).  An element further than the margin
from its threshold is on its side of it; the row counts the list's masses
as ranges and settles the rest in scalar code, only until the ranges
decide.  Its :meth:`reference` builds the list itself, which audit runs
walk.

The accept/prune test (:func:`is_hit_or_drop`) sorts nothing.  A list keeps
three slot totals from its construction on: the drop mass (m summed over
tuples whose lower bound reaches the optimistic owner-query similarity), the
hit mass (upper bounds against the pessimistic one) and the covered slots;
only inheritance, where the tuples change owner, counts them afresh.  A
walk's k-th slot reaches a threshold exactly when at least k slots reach it,
so drop mass >= k is the lower walk's prune and hit mass < k the upper
walk's accept.  An accept also needs a complete list, the condition the
legacy algorithms failed to maintain; their ungated test needs only k
covered slots.  A list is complete when the held spans tile [0, N).  The
walks stay as the reference that audit runs and the tests compare with.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import NormStats, QueryObject, SimParams, sim_st
from .iur_tree import Entry, IurTree, max_sim_st, min_sim_st, pair_sim_bounds

_TILE_ROWS = 32  # owners per tile; 16 or 64 measured slower at n = 1,024 and 4,096, alpha 0.4

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
        for _, m, min_sim, max_sim in self._tuples.values():
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
        self._put(NNTuple(self.owner, self.tree.count(self.owner) - 1, lo, hi))

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
        self._put(NNTuple(other, self._m_for(other), lo, hi))
        return bounds

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
            lists._put(NNTuple(e, lists._m_for(e), lo, hi))
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


def _settled(drop: Sequence[int], hit: Sequence[int], k: int) -> Verdict | None:
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


class Rows:
    """One query run, and its owners' rows a tile at a time: the next
    ``_TILE_ROWS`` entries of the owner's kind, in the order a FIFO
    traversal dequeues them, skipping decided entries and those under them
    (:meth:`decided`).  A tile of each kind is kept, so nodes and objects
    that take turns in the queue recompute none.  An object tile bounds
    only the nodes on the frontier or not yet dequeued, since no other node
    can join the frontier later.  One :meth:`EntryArrays.bounds` call per
    tile, and O(_TILE_ROWS * (N + n)) memory.
    """

    def __init__(self, tree: IurTree, query: QueryObject, params: SimParams, stats: NormStats):
        self.tree, self.query, self.params, self.stats = tree, query, params, stats
        self.arrays = tree.entry_arrays()
        self.err = tree.tiles().sim_err(params, stats)
        self._routed = np.zeros(tree.size, dtype=bool)  # the positions of decided entries
        # per kind (is_node), the tile: entry index -> its row, and the rows
        self._tiles: dict[bool, tuple[dict[int, int], np.ndarray, np.ndarray]] = {}

    def decided(self, entry: Entry) -> None:
        """Give no row to ``entry`` or the entries under it."""
        lo, hi = self.tree.record(entry).span
        self._routed[lo:hi] = True

    def row(self, owner: Entry, frontier: np.ndarray) -> "Row":
        """``owner``'s row against ``frontier``, a mask over the entries."""
        a, i, kind = self.arrays, self.arrays.index[owner], owner.is_node
        slot, lower, upper = self._tiles.get(kind, ({}, None, None))
        if i not in slot:
            order = a.bfs[a.rank[i]:]
            owners = order[((order < a.nodes) == kind) & ~self._routed[a.first[order]]][:_TILE_ROWS]
            nodes = None if kind else np.flatnonzero(frontier[:a.nodes]
                                                     | (a.rank[:a.nodes] > a.rank[i]))
            lower, upper = a.bounds(owners, self.params, self.stats, nodes)
            slot = {j: r for r, j in enumerate(owners.tolist())}
            self._tiles[kind] = slot, lower, upper
        return Row(self, owner, frontier, lower[slot[i]], upper[slot[i]])  # type: ignore[index]


class Row:
    """An owner's list of direct bounds against every other entry of the
    mask ``frontier`` (:class:`EntryArrays` order), and a node's self-tuple.

    The bounds are the owner's row of :meth:`EntryArrays.bounds`; the lower
    ones are compared with the owner's optimistic query similarity, the
    upper ones with its pessimistic one.  Both are an object's exact
    ``sim_st`` to the query.
    """

    def __init__(self, rows: Rows, owner: Entry, frontier: np.ndarray,
                 lower: np.ndarray, upper: np.ndarray):
        self.owner, self.frontier, self.lower, self.upper = owner, frontier, lower, upper
        self.tree, self.params, self._rows = rows.tree, rows.params, rows
        self._verdict: Verdict | None = None
        if owner.is_node:
            self.pessimistic = min_sim_st(rows.tree, owner, rows.query, rows.params, rows.stats)
            self.optimistic = max_sim_st(rows.tree, owner, rows.query, rows.params, rows.stats)
        else:  # both query bounds of an object are its sim_st to the query
            obj = rows.tree.object(owner.ident)  # type: ignore[arg-type]
            self.pessimistic = self.optimistic = sim_st(obj, rows.query, rows.params, rows.stats)

    def is_complete(self) -> bool:
        """The frontier covers every object."""
        return int(self._rows.arrays.count @ self.frontier) == self.tree.size

    def counted_verdict(self) -> Verdict:
        """:meth:`NNLists.counted_verdict` on the row, settled once."""
        if self._verdict is None:
            self._verdict = self._decide()
        return self._verdict

    def _decide(self) -> Verdict:
        rows, owner, k, err = self._rows, self.owner, self.params.k, self._rows.err
        m = np.where(self.frontier, rows.arrays.count, 0)
        # a node's self-tuple holds count - 1 slots, an object's own element
        # none: a point is not its own neighbour
        m[rows.arrays.index[owner]] -= 1
        thresholds = (self.optimistic, self.pessimistic)
        diffs = (self.lower - thresholds[0], self.upper - thresholds[1])
        known = int(m @ (diffs[0] > err))
        if known >= k:  # the common verdict, before the other three masses
            return Verdict.DROP
        # (drop, hit): the slots known to count, and those that may (nan-safe)
        masses = [[known, int(m @ ~(diffs[0] < -err))],
                  [int(m @ (diffs[1] > err)), int(m @ ~(diffs[1] < -err))]]
        if (verdict := _settled(*masses, k)) is not None:
            return verdict
        unsure = [~(np.abs(diff) > err) for diff in diffs]
        unknown = np.flatnonzero((m > 0) & (unsure[0] | unsure[1])).tolist()
        while (verdict := _settled(*masses, k)) is None:
            j = unknown.pop()
            bounds = pair_sim_bounds(self.tree, owner, rows.arrays.entries[j], self.params,
                                     rows.stats)
            for mass, open_, bound, threshold in zip(masses, unsure, bounds, thresholds):
                if not open_[j]:
                    continue
                if bound >= threshold:
                    mass[0] += int(m[j])
                else:
                    mass[1] -= int(m[j])
        return verdict

    def reference(self) -> NNLists:
        """The list itself, of direct scalar bounds, which audit runs walk."""
        rows, entries = self._rows, self._rows.arrays.entries
        others = [entries[j] for j in np.flatnonzero(self.frontier).tolist()
                  if entries[j] != self.owner]
        lists = NNLists.direct(self.owner, others, self.tree, rows.query, rows.params, rows.stats)
        if self.owner.is_node:
            lists.add_self()
        return lists


def is_hit_or_drop(lists: NNLists | Row, *, gated: bool = True) -> Verdict:
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
