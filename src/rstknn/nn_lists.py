"""Per-entry neighbor-contribution lists, the correct mode's rows, and the
accept/prune test.

An entry's NN-list records, for a set of pairwise non-overlapping tree
entries, how many neighbor slots each one accounts for (``m``) together with
lower/upper similarity bounds.  Walking the tuples in decreasing bound order
and accumulating ``m`` yields under/over-estimates of the similarity to the
k-th nearest neighbor of any point inside the owner.  Counting a point twice
can trigger a false prune; leaving a point out, a false accept.  A list
belongs to one query run and computes its owner's pessimistic and
optimistic query similarity once, at birth: a node's from its group bounds,
an object's both from its one exact ``sim_st``.

The legacy modes keep lists, lean ones: a child's list is born as one copy
of its parent's dict, sharing the immutable tuples, counted once against the
child's thresholds, and :meth:`NNLists.update_with` is one straight-line
body that pops every tuple covering the added entry (by lookup in the
entry record's ``covering``), so the popped tuple's other points lose
coverage: the lists lose completeness.

The correct mode keeps none.  Every owner, node or object, decides on its
:class:`Row`: direct bounds against every other entry of the frontier (the
queued, candidate and routed entries, which partition the dataset), plus a
node's self-tuple, the list any refinement converges to.  Completeness is
the frontier's coverage of all n objects, and locality the owner's own
element, which holds count - 1 slots.  :class:`Rows` own the frontier.  The
elements come from :meth:`EntryArrays.bounds`, one NumPy call for a tile of
owners of one kind, each within the margin ``sim_err`` of the scalar value;
the masses are counted as ranges, and the elements within the margin are
settled in scalar code, only until the ranges decide.  A tile holds
``_TILE_ELEMENTS`` row elements' worth of owners, never fewer than
``_TILE_ROWS``: up to n of about a thousand, every queued object of a
frontier version fits one tile, bounded in one call and counted in one
pass; from there on a tile is ``_TILE_ROWS`` owners high.
:meth:`Row.reference` builds the list itself, which audit runs walk.

The accept/prune test (:func:`is_hit_or_drop`) sorts nothing, and the
list's kind selects it.  A list keeps three slot totals: the drop mass (m
summed over tuples whose lower bound reaches the optimistic owner-query
similarity), the hit mass (upper bounds against the pessimistic one) and
the covered slots.  A walk's k-th slot reaches a threshold exactly when at
least k slots reach it, so drop mass >= k is the lower walk's prune and hit
mass < k the upper walk's accept.  A query similarity of -inf is below every
k-th-neighbour similarity, -inf included, so it prunes and never accepts.
An accept on a :class:`Row` also needs a complete list (the frontier covers
all N objects), the condition the legacy algorithms failed to maintain; on
an :class:`NNLists`, a legacy list, it needs only k covered slots.  The
walks stay as the reference that audit runs and the tests compare with.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .core import NormStats, QueryObject, SimParams, sim_st
from .iur_tree import Entry, IurTree, max_sim_st, min_sim_st, pair_sim_bounds

_TILE_ROWS = 32  # the fewest owners per tile; 16 or 64 measured slower at n = 1,024 and 4,096
_TILE_ELEMENTS = 37_000  # row elements per tile: _TILE_ROWS rows at n = 1,024, fanout 8
_SETTLE_BLOCK = 64  # elements a row's scalar settle scans first; each next block doubles

NEG_INF = float("-inf")


class Verdict(Enum):
    HIT = "hit"
    DROP = "drop"
    UNDECIDED = "undecided"


class NotInternalNode(ValueError):
    """Self-addition only applies to index nodes, never to single objects."""


# one list entry, (entry, m, lower, upper): immutable, so lists inherited
# from one parent share it
ListTuple = tuple[Entry, int, float, float]


class NNLists:
    """Tuple store keyed by entry, walked by lower or by upper bound.

    One store backs both the pessimistic (lower) and the optimistic (upper)
    walk, so the two can never disagree on membership.  ``pessimistic`` and
    ``optimistic`` are the owner's query similarity bounds, which the slot
    totals are counted against.
    """

    __slots__ = ("owner", "tree", "_records", "query", "params", "stats", "_tuples", "_span",
                 "pessimistic", "optimistic", "drop_mass", "hit_mass", "covered_slots")

    def __init__(self, owner: Entry, tree: IurTree, query: QueryObject,
                 params: SimParams, stats: NormStats, tuples: dict[Entry, ListTuple] | None = None):
        """An empty list for ``owner`` in one query run, or a copy of another
        list's ``tuples``, counted against the owner's query bounds."""
        self.owner = owner
        self.tree, self._records = tree, tree._records
        self.query, self.params, self.stats = query, params, stats
        self._tuples: dict[Entry, ListTuple] = {} if tuples is None else tuples.copy()
        self._span = self._records[owner].span
        if owner.is_node:
            self.pessimistic = min_sim_st(tree, owner, query, params, stats)
            self.optimistic = max_sim_st(tree, owner, query, params, stats)
        else:  # both bounds of an object are its exact similarity
            obj = tree.objects[owner.ident]  # type: ignore[index]
            self.pessimistic = self.optimistic = sim_st(obj, query, params, stats)
        self.drop_mass, self.hit_mass, self.covered_slots = self._recount()

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, entry: Entry) -> bool:
        return entry in self._tuples

    def get(self, entry: Entry) -> ListTuple | None:
        return self._tuples.get(entry)

    def tuples(self) -> list[ListTuple]:
        return list(self._tuples.values())

    # -- mutations ----------------------------------------------------------

    def _count(self, t: ListTuple, sign: int) -> None:
        _, m, lower, upper = t
        m *= sign
        self.covered_slots += m
        if lower >= self.optimistic:
            self.drop_mass += m
        if upper >= self.pessimistic:
            self.hit_mass += m

    def _recount(self) -> tuple[int, int, int]:
        """(drop mass, hit mass, covered slots) counted afresh."""
        optimistic, pessimistic = self.optimistic, self.pessimistic
        drop = hit = covered = 0
        for _, m, lower, upper in self._tuples.values():
            covered += m
            if lower >= optimistic:
                drop += m
            if upper >= pessimistic:
                hit += m
        return drop, hit, covered

    def _put(self, t: ListTuple) -> None:
        self._pop(t[0])
        self._tuples[t[0]] = t
        self._count(t, 1)

    def _pop(self, entry: Entry) -> None:
        t = self._tuples.pop(entry, None)
        if t is not None:
            self._count(t, -1)

    def bounds(self, other: Entry) -> tuple[float, float]:
        """The (lower, upper) similarity bounds between the owner and ``other``,
        the pair :meth:`update_with` stores when given none."""
        return pair_sim_bounds(self.tree, self.owner, other, self.params, self.stats)

    def add_self(self) -> None:
        """Insert the owner itself so its own points count as candidates.

        The lower bound pairs the box diagonal with the worst group text
        similarity; the upper bound pairs distance zero with the best.
        """
        if not self.owner.is_node:
            raise NotInternalNode(f"cannot add_self on object entry {self.owner.label}")
        lo, hi = self.bounds(self.owner)
        self._put((self.owner, self.tree.count(self.owner) - 1, lo, hi))

    def update_with(self, other: Entry,
                    bounds: tuple[float, float] | None = None) -> tuple[float, float]:
        """Upsert a tuple for ``other`` with directly computed bounds.

        Every tuple whose entry covers ``other`` (a proper ancestor, or an
        equal-span chain entry) is removed first, by lookup in the tree's
        precomputed ``EntryRecord.covering``, not by a scan: keeping both
        would double-count the covering entry's points, and a double-counted
        lower list can prune entries that belong in the result.

        ``bounds`` takes the (lower, upper) pair already computed, by
        :meth:`bounds` or for the reverse update, ``other``'s list updated
        with this owner: :func:`pair_sim_bounds` is symmetric bit for bit, so
        one evaluation serves both lists.  Returns the pair stored.  One
        body, the legacy modes' hottest step.
        """
        if other == self.owner:
            raise ValueError("an entry never contributes to its own list via update")
        tuples, record = self._tuples, self._records[other]
        optimistic, pessimistic = self.optimistic, self.pessimistic
        drop, hit, covered = self.drop_mass, self.hit_mass, self.covered_slots
        # its old tuple, if any, and those covering it
        for e in (other, *record.covering) if other in tuples else record.covering:
            if (t := tuples.pop(e, None)) is not None:
                _, m, lower, upper = t
                covered -= m
                if lower >= optimistic:
                    drop -= m
                if upper >= pessimistic:
                    hit -= m
        if bounds is None:
            bounds = pair_sim_bounds(self.tree, self.owner, other, self.params, self.stats)
        lower, upper = bounds
        (lo, hi), (olo, ohi) = record.span, self._span
        m = hi - lo - ((lo <= olo and ohi <= hi) or (olo <= lo and hi <= ohi))
        tuples[other] = (other, m, lower, upper)
        covered += m
        if lower >= optimistic:
            drop += m
        if upper >= pessimistic:
            hit += m
        self.drop_mass, self.hit_mass, self.covered_slots = drop, hit, covered
        return bounds

    @classmethod
    def inherited(cls, child: Entry, parent_lists: "NNLists") -> "NNLists":
        """The parent's tuples, shared, as the child's list in the same run.

        Bounds are inherited verbatim (any bound over the parent's point set
        bounds the child's subset), and so are the slot counts: they differ
        only for an entry that overlaps the parent but not the child, a
        proper descendant of the parent, which no list holds.
        """
        p = parent_lists
        return cls(child, p.tree, p.query, p.params, p.stats, p._tuples)

    def strip_self_and_parent(self) -> None:
        """Drop the owner's own tuple and its parent's, if present."""
        for e in (self.owner, self.tree.parent(self.owner)):
            if e is not None:
                self._pop(e)

    def remove(self, entry: Entry) -> None:
        self._pop(entry)

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
        side = 3 if upper else 2
        pairs = sorted(((t[side], t[1]) for t in self._tuples.values()), reverse=True)
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
        runs and the tests compare it with: gated, a :class:`Row`'s test on
        its reference list; ungated, the legacy test of this list."""
        k = self.params.k
        lower = self.knn_lower(k)
        if not self.optimistic > (NEG_INF if lower is None else lower):
            return Verdict.DROP
        upper = self.knn_upper(k) if gated else self._walk(k, upper=True)
        if upper is not None and self.pessimistic > upper:
            return Verdict.HIT
        return Verdict.UNDECIDED


def _settled(drop: Sequence[int], hit: Sequence[int], k: int) -> Verdict | None:
    """:func:`is_hit_or_drop` on masses known to lie in the closed
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


def _tile_rows(entries: int) -> int:
    """Owners per tile, for rows of ``entries`` elements: ``_TILE_ELEMENTS``
    elements' worth, and never fewer than ``_TILE_ROWS``."""
    return max(_TILE_ROWS, _TILE_ELEMENTS // entries)


class _Tile:
    """Owners of one kind (entry indices), their bounds against every entry,
    query thresholds (a node's NaN until its row is counted), and masses
    (NaN until counted) of frontier ``version``."""

    def __init__(self, owners: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                 thresholds: list[float] | None = None):
        self.owners, self.lower, self.upper = owners, lower, upper
        self.slot = {j: r for r, j in enumerate(owners.tolist())}
        self.optimistic, self.pessimistic = np.full((2, len(owners)), np.nan)
        if thresholds is not None:
            self.optimistic[:] = self.pessimistic[:] = thresholds
        self.masses = np.full((len(owners), 4), np.nan)
        self.version = -1


class Rows:
    """One query run: its frontier, a mask over the :class:`EntryArrays`
    entries covering ``covered`` objects, which only :meth:`expand` and
    :meth:`objects_only` change, each making a new ``version``; and its
    owners' rows a tile at a time.  A tile (one of each kind is kept) is the
    next entries of one kind in FIFO dequeue order, skipping decided entries
    and those under them, bounded by one :meth:`EntryArrays.bounds` call (an
    object tile only against the nodes on the frontier or not yet dequeued:
    no other node can join it).  Tiles are sized by memory: ``_TILE_ELEMENTS``
    row elements, so at the hundreds of objects every queued entry of a kind
    fits one tile, and never fewer than ``_TILE_ROWS`` owners, the height
    that measured fastest from n = 1,024 up.  An object tile takes its
    owners' query similarities, one ``sim_st`` each, when it is made.  An
    object's dequeue leaves the frontier as it is, so :meth:`_count` counts
    the masses of a tile's queued objects in one pass, kept until the next
    version; a node's dequeue mostly expands it, so :meth:`_count_node`
    counts a node's row alone, on one-dimensional views, which is cheaper
    than a pass of one row.  Both read the frontier's slot vector, each
    entry's count on the frontier and 0 off it, which :meth:`_flip` keeps.
    O(max(_TILE_ELEMENTS, _TILE_ROWS * (N + n))) memory.
    """

    def __init__(self, tree: IurTree, query: QueryObject, params: SimParams, stats: NormStats):
        self.tree, self.query, self.params, self.stats = tree, query, params, stats
        self.arrays = tree.entry_arrays()
        self.err = tree.tiles().sim_err(params, stats)
        self.frontier = np.zeros(len(self.arrays.count), dtype=bool)
        self._counts = np.zeros(len(self.arrays.count))  # the frontier's slot vector
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
        count = self.arrays.count[cols]
        self.frontier[cols] = on
        self._counts[cols] = count * on
        self.covered += int(count @ (2 * on - 1))
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
            owners = order[((order < a.nodes) == kind) & ~self._routed[a.first[order]]]
            owners = owners[:_tile_rows(len(a.count))]
            if kind:
                tile = _Tile(owners, *a.bounds(owners, self.params, self.stats))
            else:
                nodes = np.flatnonzero(self.frontier[:a.nodes] | (a.rank[:a.nodes] > a.rank[i]))
                objects = a.tiles.objects
                sims = [sim_st(objects[p], self.query, self.params, self.stats)
                        for p in a.first[owners].tolist()]
                tile = _Tile(owners, *a.bounds(owners, self.params, self.stats, nodes), sims)
            self._tiles[kind] = tile
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

    def _slots(self, i: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Each element's slots in the row of entry ``i`` (those of the
        elements ``lo`` to ``hi``): its count on the frontier, less one for
        the owner's own element (a node's self-tuple holds count - 1, an
        object's own element none)."""
        m = self._counts[lo:hi].copy()
        if 0 <= i - lo < len(m):
            m[i - lo] -= 1
        return m

    def _count_node(self, owner: Entry, i: int, tile: _Tile, r: int) -> list[float]:
        """The masses of the row of ``owner`` (entry ``i``, row ``r`` of the
        node tile) alone, as :meth:`_count` counts them; the thresholds are
        the node's ``max_sim_st`` and ``min_sim_st`` to the query."""
        tile.optimistic[r] = max_sim_st(self.tree, owner, self.query, self.params, self.stats)
        tile.pessimistic[r] = min_sim_st(self.tree, owner, self.query, self.params, self.stats)
        lower, m = tile.lower[r] - tile.optimistic[r], self._slots(i)
        if (drop := float(m @ (lower > self.err))) >= self.params.k:
            return [drop, np.nan, np.nan, np.nan]
        return (_masks(lower, tile.upper[r] - tile.pessimistic[r], self.err) @ m).tolist()

    def _count(self, tile: _Tile, rows: np.ndarray) -> None:
        """Count the masses of the object tile's ``rows`` against the
        frontier: the known drop mass, then the other three where it is
        below k.  Both thresholds are an object's ``sim_st`` to the query."""
        owners, masses, err, m = tile.owners, tile.masses, self.err, self._counts
        if tile.version != self.version:  # masses of another frontier
            masses[:] = np.nan
            tile.version = self.version
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
                 "optimistic", "pessimistic", "masses")

    def __init__(self, rows: Rows, owner: Entry, tile: _Tile, r: int, masses: list[float]):
        self.owner, self.rows, self.frontier = owner, rows, rows.frontier
        self.version, self.tree, self.params = rows.version, rows.tree, rows.params
        self.lower, self.upper = tile.lower[r], tile.upper[r]
        self.optimistic, self.pessimistic = tile.optimistic[r], tile.pessimistic[r]
        self.masses = masses

    def _current(self) -> None:
        """The row is read on the frontier version it was made on."""
        assert self.version == self.rows.version, (
            f"row of {self.owner.label} read after a frontier change")

    def is_complete(self) -> bool:
        """The frontier covers every object."""
        self._current()
        return self.rows.covered == self.tree.size

    def counted_verdict(self) -> Verdict:
        """:func:`is_hit_or_drop` on the row's masses, less the completeness
        gate."""
        self._current()
        k, rows, counted = self.params.k, self.rows, self.masses
        # as is_hit_or_drop; the other three masses are not counted then
        if counted[0] >= k or not self.optimistic > NEG_INF:
            return Verdict.DROP
        # (drop, hit): the slots known to count, and those that may; without
        # a pessimistic query similarity above -inf, k (no hit)
        masses = [[int(x) for x in counted[:2]],
                  [int(x) for x in counted[2:]] if self.pessimistic > NEG_INF else [k, k]]
        if (verdict := _settled(*masses, k)) is not None:
            return verdict
        thresholds = (self.optimistic, self.pessimistic)
        unknown = self._unsure(thresholds)
        while (verdict := _settled(*masses, k)) is None:
            j, slots, unsure = next(unknown)
            bounds = pair_sim_bounds(self.tree, self.owner, rows.arrays.entries[j], self.params,
                                     rows.stats)
            for mass, open_, bound, threshold in zip(masses, unsure, bounds, thresholds):
                if not open_:
                    continue
                if bound >= threshold:
                    mass[0] += slots
                else:
                    mass[1] -= slots
        return verdict

    def _unsure(self, thresholds: tuple[float, float]) -> Iterator[tuple[int, int, list[bool]]]:
        """(element, its slots, whether its lower and its upper bound lie
        within the margin of their thresholds) of the elements with slots
        and a bound there, from the last element back, a block at a time:
        a verdict mostly settles within the first few."""
        rows, i = self.rows, self.rows.arrays.index[self.owner]
        hi, size = len(self.frontier), _SETTLE_BLOCK
        while hi > 0:
            lo = max(hi - size, 0)
            m = rows._slots(i, lo, hi)
            unsure = np.array([~(np.abs(bounds[lo:hi] - t) > rows.err)
                               for bounds, t in zip((self.lower, self.upper), thresholds)])
            pick = np.flatnonzero((m > 0) & (unsure[0] | unsure[1]))[::-1]
            yield from zip((lo + pick).tolist(), m[pick].astype(int).tolist(),
                           unsure[:, pick].T.tolist())
            hi, size = lo, 2 * size

    def reference(self) -> NNLists:
        """The list itself, of direct scalar bounds, which audit runs walk."""
        self._current()
        rows, entries = self.rows, self.rows.arrays.entries
        lists = NNLists(self.owner, self.tree, rows.query, rows.params, rows.stats)
        for j in np.flatnonzero(self.frontier).tolist():
            if entries[j] != self.owner:  # the frontier's entries do not overlap
                lists.update_with(entries[j])
        if self.owner.is_node:
            lists.add_self()
        return lists


def is_hit_or_drop(lists: NNLists | Row) -> Verdict:
    """Sufficient accept/prune test for the list's owner against its query.

    Drop when at least k slots have a lower bound at or above the optimistic
    owner-query similarity (ties drop: database points win them).  Hit when
    fewer than k slots have an upper bound at or above the pessimistic one
    and, for the correct mode's :class:`Row`, the list is complete, or, for
    the legacy modes' :class:`NNLists`, it covers at least k slots (the
    legacy test, which lacks the gate).  Otherwise undecided.  A query
    similarity not above -inf, a k-th-neighbour similarity of a point short
    of k neighbours, drops, and is never a hit.  A row's completeness is
    checked only when a hit is possible.
    """
    if type(lists) is Row:
        verdict = lists.counted_verdict()
        if verdict is Verdict.HIT and not lists.is_complete():
            return Verdict.UNDECIDED
        return verdict
    k = lists.params.k
    if lists.drop_mass >= k or not lists.optimistic > NEG_INF:
        return Verdict.DROP
    if lists.hit_mass < k and lists.pessimistic > NEG_INF and k <= lists.covered_slots:
        return Verdict.HIT
    return Verdict.UNDECIDED
