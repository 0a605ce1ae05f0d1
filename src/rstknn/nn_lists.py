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
none for an object).  :class:`Rows` own the frontier.  A row keeps no
tuples.  Its elements come from :meth:`EntryArrays.bounds`, one NumPy call
for a tile of owners of one kind against every entry, each within the
margin ``sim_err`` of the scalar value (its docstring proves the margin).
An element further than the margin from its threshold is on its side of
it; the masses are counted as ranges, matrix-vector products with the
frontier's counts, a tile's queued objects in one pass, and the rest is
settled in scalar code, only until the ranges decide.
:meth:`Row.reference` builds the list itself, which audit runs walk.

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


def _masks(lower: np.ndarray, upper: np.ndarray, err: float) -> np.ndarray:
    """The elements of the known and possible drop mass, then hit mass: the
    bounds less their thresholds above ``err``, or not below -``err`` (NaN)."""
    return np.array([lower > err, ~(lower < -err), upper > err, ~(upper < -err)])


class _Tile:
    """Owners of one kind (entry indices), their bounds against every entry,
    query thresholds, and masses (NaN until counted) of frontier ``version``."""

    def __init__(self, owners: np.ndarray, lower: np.ndarray, upper: np.ndarray):
        self.owners, self.lower, self.upper = owners, lower, upper
        self.slot = {j: r for r, j in enumerate(owners.tolist())}
        self.optimistic, self.pessimistic = np.full((2, len(owners)), np.nan)
        self.masses = np.full((len(owners), 4), np.nan)
        self.version = -1


class Rows:
    """One query run: its frontier, a mask over the :class:`EntryArrays`
    entries covering ``covered`` objects, which only :meth:`expand` and
    :meth:`objects_only` change, each making a new ``version``; and its
    owners' rows a tile at a time.  A tile (one of each kind is kept) is the
    next ``_TILE_ROWS`` entries of one kind in FIFO dequeue order, skipping
    decided entries and those under them, bounded by one
    :meth:`EntryArrays.bounds` call (an object tile only against the nodes
    on the frontier or not yet dequeued: no other node can join it).  An
    object's dequeue leaves the frontier as it is, so :meth:`_count` counts
    the masses of a tile's queued objects in one pass, kept until the next
    version; a node's dequeue mostly expands it, so :meth:`_count_node`
    counts a node's row alone, on one-dimensional views, which is cheaper
    than a pass of one row.
    O(_TILE_ROWS * (N + n)) memory.
    """

    def __init__(self, tree: IurTree, query: QueryObject, params: SimParams, stats: NormStats):
        self.tree, self.query, self.params, self.stats = tree, query, params, stats
        self.arrays = tree.entry_arrays()
        self.err = tree.tiles().sim_err(params, stats)
        self.frontier = np.zeros(len(self.arrays.count), dtype=bool)
        self.covered = self.version = 0
        self._routed = np.zeros(tree.size, dtype=bool)  # the positions of decided entries
        self._tiles: dict[bool, _Tile] = {}  # per kind (is_node)
        self._flip([self.arrays.index[tree.root_entry()]])

    def expand(self, node: Entry) -> None:
        """Replace ``node`` on the frontier by its children."""
        self._flip([self.arrays.index[e] for e in (node, *self.tree.children(node))])

    def objects_only(self) -> None:
        """Make the frontier every object and no node."""
        points = np.arange(len(self.frontier)) >= self.arrays.nodes
        self._flip(np.flatnonzero(self.frontier != points))

    def _flip(self, cols) -> None:
        """Take the entries ``cols`` off the frontier or put them on."""
        cols = np.asarray(cols)
        on = ~self.frontier[cols]
        self.frontier[cols] = on
        self.covered += int(self.arrays.count[cols] @ (2 * on - 1))
        self.version += 1

    def decided(self, entry: Entry) -> None:
        """Give no row to ``entry`` or the entries under it."""
        lo, hi = self.tree.record(entry).span
        self._routed[lo:hi] = True

    def row(self, owner: Entry) -> "Row":
        """The row of ``owner``, a queued entry, against the frontier."""
        a = self.arrays
        i = a.index[owner]
        kind = i < a.nodes
        tile = self._tiles.get(kind)
        if tile is None or i not in tile.slot:
            order = a.bfs[a.rank[i]:]
            owners = order[((order < a.nodes) == kind) & ~self._routed[a.first[order]]][:_TILE_ROWS]
            nodes = None if kind else np.flatnonzero(self.frontier[:a.nodes]
                                                     | (a.rank[:a.nodes] > a.rank[i]))
            tile = self._tiles[kind] = _Tile(owners, *a.bounds(owners, self.params, self.stats,
                                                                nodes))
        r = tile.slot[i]
        if kind:
            return Row(self, owner, tile, r, self._count_node(owner, i, tile, r))
        masses = tile.masses[r].tolist()
        if tile.version != self.version or masses[0] != masses[0]:  # stale, or NaN
            later = tile.owners[r:]  # the objects queued now: on the frontier, not decided
            self._count(tile, r + np.flatnonzero(self.frontier[later]
                                                 & ~self._routed[a.first[later]]))
            masses = tile.masses[r].tolist()
        return Row(self, owner, tile, r, masses)

    def _slots(self, i: int) -> np.ndarray:
        """Each element's slots in the row of entry ``i``: its count on the
        frontier, less one for the owner's own element (a node's self-tuple
        holds count - 1, an object's own element none)."""
        m = np.where(self.frontier, self.arrays.count, 0)
        m[i] -= 1
        return m

    def _count_node(self, owner: Entry, i: int, tile: _Tile, r: int) -> list[float]:
        """The masses of the row of ``owner`` (entry ``i``, row ``r`` of the
        node tile) alone, as :meth:`_count` counts them; the thresholds are
        the node's ``max_sim_st`` and ``min_sim_st`` to the query."""
        tile.optimistic[r] = max_sim_st(self.tree, owner, self.query, self.params, self.stats)
        tile.pessimistic[r] = min_sim_st(self.tree, owner, self.query, self.params, self.stats)
        lower, m = tile.lower[r] - tile.optimistic[r], self._slots(i)
        if (drop := int(m @ (lower > self.err))) >= self.params.k:
            return [drop, np.nan, np.nan, np.nan]
        return (_masks(lower, tile.upper[r] - tile.pessimistic[r], self.err) @ m).tolist()

    def _count(self, tile: _Tile, rows: np.ndarray) -> None:
        """Count the masses of the object tile's ``rows`` against the
        frontier: the known drop mass, then the other three where it is
        below k.  Both thresholds are an object's ``sim_st`` to the query."""
        a, owners, masses, err = self.arrays, tile.owners, tile.masses, self.err
        if tile.version != self.version:  # masses of another frontier
            masses[:] = np.nan
            tile.version = self.version
        for j in rows[np.isnan(tile.optimistic[rows])].tolist():
            obj = self.tree.object(a.entries[owners[j]].ident)  # type: ignore[arg-type]
            tile.optimistic[j] = tile.pessimistic[j] = sim_st(obj, self.query, self.params,
                                                              self.stats)
        m = np.where(self.frontier, a.count, 0.0)
        # less one slot of the owner's own element, which holds none
        lower = tile.lower[rows] - tile.optimistic[rows, None]
        known = lower > err
        masses[rows, 0] = known @ m - known[np.arange(len(rows)), owners[rows]]
        rest = masses[rows, 0] < self.params.k
        if rest.any():
            rows, lower = rows[rest], lower[rest]
            masks = _masks(lower, tile.upper[rows] - tile.pessimistic[rows, None], err)
            masses[rows] = (masks @ m - masks[:, np.arange(len(rows)), owners[rows]]).T


class Row:
    """An owner's list of direct bounds against every other entry of the
    frontier (:class:`EntryArrays` order), and a node's self-tuple, as its
    tile counted it: bounds, query thresholds and masses.

    The lower bounds are compared with the owner's optimistic query
    similarity, the upper ones with its pessimistic one.  A row is read on
    the frontier version it was made on; reading it after a change fails
    an assertion.
    """

    __slots__ = ("owner", "rows", "frontier", "version", "tree", "params", "lower", "upper",
                 "optimistic", "pessimistic", "masses", "_verdict")

    def __init__(self, rows: Rows, owner: Entry, tile: _Tile, r: int, masses: list[float]):
        self.owner, self.rows, self.frontier = owner, rows, rows.frontier
        self.version, self.tree, self.params = rows.version, rows.tree, rows.params
        self.lower, self.upper = tile.lower[r], tile.upper[r]
        self.optimistic, self.pessimistic = tile.optimistic[r], tile.pessimistic[r]
        self.masses = masses
        self._verdict: Verdict | None = None

    def _current(self) -> None:
        """The row is read on the frontier version it was made on."""
        assert self.version == self.rows.version, (
            f"row of {self.owner.label} read after a frontier change")

    def is_complete(self) -> bool:
        """The frontier covers every object."""
        self._current()
        return self.rows.covered == self.tree.size

    def counted_verdict(self) -> Verdict:
        """:meth:`NNLists.counted_verdict` on the row, settled once."""
        if self._verdict is None:
            self._verdict = self._decide()
        return self._verdict

    def _decide(self) -> Verdict:
        self._current()
        k, rows, counted = self.params.k, self.rows, self.masses
        if counted[0] >= k:  # the other three masses are not counted then
            return Verdict.DROP
        # (drop, hit): the slots known to count, and those that may
        masses = [[int(x) for x in counted[:2]], [int(x) for x in counted[2:]]]
        if (verdict := _settled(*masses, k)) is not None:
            return verdict
        m = rows._slots(rows.arrays.index[self.owner])
        thresholds = (self.optimistic, self.pessimistic)
        unsure = [~(np.abs(bounds - t) > rows.err)
                  for bounds, t in zip((self.lower, self.upper), thresholds)]
        unknown = np.flatnonzero((m > 0) & (unsure[0] | unsure[1])).tolist()
        while (verdict := _settled(*masses, k)) is None:
            j = unknown.pop()
            bounds = pair_sim_bounds(self.tree, self.owner, rows.arrays.entries[j], self.params,
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
        self._current()
        rows, entries = self.rows, self.rows.arrays.entries
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
