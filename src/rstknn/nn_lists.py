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

The correct mode keeps none.  Its owners decide on rows (:class:`NodeRow`,
:class:`ObjectRow`): the list of direct bounds against every other entry of
the frontier (the queued, candidate and routed entries, which partition the
dataset), plus a node's self-tuple.  Refining a list only tightens its
bounds, so this is the list any refinement converges to, and its verdict
the exhaustive one.  The paper's two conditions are visible in a row:
completeness is the frontier's coverage of all n objects, and locality is
the node owner's own element, its self-tuple with count - 1 slots.  A row
keeps no tuples.  Its elements come from NumPy, each within the margin
``sim_err`` of the scalar value: a node's from :meth:`EntryArrays.bounds`,
one call for a tile of nodes against every entry (its docstring proves the
margin), an object's from the pair kernel (:meth:`IurTree.tiles`) against
every object.  An element further than the margin from its threshold is on
its side of it; the row counts the list's masses as ranges and settles the
rest in scalar code, only until the ranges decide.  Its :meth:`reference`
builds the list itself, which audit runs walk.

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

from .core import _TILE_ROWS, NormStats, QueryObject, SimParams, sim_st
from .iur_tree import Entry, IurTree, max_sim_st, min_sim_st, pair_sim_bounds

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


class _Row:
    """An owner's list of direct bounds against every other entry of the
    mask ``frontier`` (:class:`EntryArrays` order), and a node's self-tuple."""

    def __init__(self, run: "NodeRows", owner: Entry, frontier: np.ndarray):
        self.owner, self.frontier, self._run = owner, frontier, run
        self.tree, self.params = run.tree, run.params
        self._verdict: Verdict | None = None

    def is_complete(self) -> bool:
        """The frontier covers every object."""
        return int(self._run.arrays.count @ self.frontier) == self.tree.size

    def counted_verdict(self) -> Verdict:
        """:meth:`NNLists.counted_verdict` on the row, settled once."""
        if self._verdict is None:
            self._verdict = self._decide()
        return self._verdict

    def reference(self) -> NNLists:
        """The list itself, of direct scalar bounds, which audit runs walk."""
        run, entries = self._run, self._run.arrays.entries
        others = [entries[j] for j in np.flatnonzero(self.frontier).tolist()
                  if entries[j] != self.owner]
        lists = NNLists.direct(self.owner, others, self.tree, run.query, run.params, run.stats)
        if self.owner.is_node:
            lists.add_self()
        return lists


class ObjectRows:
    """Exact rows of consecutive preorder objects against one frontier.

    Rows ``lo:hi`` of the pair kernel (:meth:`IurTree.tiles`) give each
    owner's similarity to every object, within ``err`` of its ``sim_st``;
    an owner is not its own neighbour, so its own element is -inf.
    ``node_bounds`` holds, per node, an upper bound on its direct bounds
    with every owner (:meth:`NodeRow.node_bounds` of the owners' leaf).
    """

    def __init__(self, run: "NodeRows", lo: int, hi: int, frontier: np.ndarray,
                 node_bounds: np.ndarray):
        self.run, self.lo, self.frontier, self.node_bounds = run, lo, frontier, node_bounds
        self.sims = run.tree.tiles().sims(lo, hi, run.params, run.stats)

    def row(self, owner: Entry) -> "ObjectRow":
        return ObjectRow(self, owner)


class ObjectRow(_Row):
    """An object owner's row.  Its bounds against a frontier object are the
    exact ``sim_st``, which the kernel's row holds within ``err``; against a
    frontier node they are the scalar :func:`pair_sim_bounds`, evaluated
    only when the node's bound from the leaf's row reaches the owner's query
    similarity s, since a bound below s counts toward neither mass."""

    def __init__(self, rows: ObjectRows, owner: Entry):
        super().__init__(rows.run, owner, rows.frontier)
        self._rows, self._pos = rows, self.tree.record(owner).span[0]
        # exact: both query bounds of an object are its sim_st to the query
        self.query_sim = sim_st(self.tree.tiles().objects[self._pos], rows.run.query,
                                self.params, rows.run.stats)

    def _decide(self) -> Verdict:
        rows, run, tree, owner = self._rows, self._run, self.tree, self.owner
        params, stats, k, s = run.params, run.stats, self.params.k, self.query_sim
        err, n_nodes = run.err, run.arrays.nodes
        free = self.frontier[n_nodes:]
        diff = rows.sims[self._pos - rows.lo] - s
        known = int(np.count_nonzero(free & (diff > err)))  # objects known to reach s
        near = free & ~(np.abs(diff) > err)  # objects not known either way (nan-safe)
        nodes = self.frontier[:n_nodes] & ~(rows.node_bounds < s)  # may reach s (nan-safe)
        unknown = int(np.count_nonzero(near)) + int(run.arrays.count[:n_nodes] @ nodes)
        masses = [[known, known + unknown], [known, known + unknown]]  # (drop, hit) ranges
        if (verdict := _settled(*masses, k)) is not None:
            return verdict
        near_objects = np.flatnonzero(near).tolist()
        near_nodes = [run.arrays.entries[j] for j in np.flatnonzero(nodes).tolist()]
        points = tree.tiles().objects
        while (verdict := _settled(*masses, k)) is None:
            if near_nodes:  # first: one bound settles all of a node's slots
                e = near_nodes.pop()
                m, bounds = tree.count(e), pair_sim_bounds(tree, owner, e, params, stats)
            else:
                m = 1
                bounds = (sim_st(points[self._pos], points[near_objects.pop()], params, stats),) * 2
            for mass, bound in zip(masses, bounds):
                if bound >= s:
                    mass[0] += m
                else:
                    mass[1] -= m
        return verdict


class NodeRows:
    """One query run, and the rows of its node owners a tile at a time: the
    next ``_TILE_ROWS`` nodes in the order a FIFO traversal dequeues them,
    skipping those under a decided node (:meth:`decided`).  One NumPy call
    per tile, and O(_TILE_ROWS * (N + n)) memory.
    """

    def __init__(self, tree: IurTree, query: QueryObject, params: SimParams, stats: NormStats):
        self.tree, self.query, self.params, self.stats = tree, query, params, stats
        self.arrays = tree.entry_arrays()
        self.err = tree.tiles().sim_err(params, stats)
        self._routed = np.zeros(tree.size, dtype=bool)  # the positions under decided nodes
        self._slot: dict[int, int] = {}  # node id -> its row in the tile
        self.lower = self.upper = np.empty((0, 0))

    def decided(self, node: Entry) -> None:
        """Give no row to the nodes under ``node``."""
        lo, hi = self.tree.record(node).span
        self._routed[lo:hi] = True

    def row(self, owner: Entry, frontier: np.ndarray) -> "NodeRow":
        """``owner``'s row against ``frontier``, a mask over the entries."""
        if owner.ident not in self._slot:
            a = self.arrays
            order = a.bfs[a.rank[owner.ident]:]
            owners = order[~self._routed[a.first[order]]][:_TILE_ROWS]
            self.lower, self.upper = a.bounds(owners, self.params, self.stats)
            self._slot = {j: r for r, j in enumerate(owners.tolist())}
        return NodeRow(self, owner, frontier)


class NodeRow(_Row):
    """A node owner's row of :meth:`EntryArrays.bounds`, compared with the
    owner's optimistic query similarity (lower bounds) and its pessimistic
    one (upper bounds).  The owner's own element is its self-tuple.
    """

    def __init__(self, rows: NodeRows, owner: Entry, frontier: np.ndarray):
        super().__init__(rows, owner, frontier)
        slot = rows._slot[owner.ident]  # type: ignore[index]
        self.lower, self.upper = rows.lower[slot], rows.upper[slot]
        self.pessimistic = min_sim_st(rows.tree, owner, rows.query, rows.params, rows.stats)
        self.optimistic = max_sim_st(rows.tree, owner, rows.query, rows.params, rows.stats)

    def _decide(self) -> Verdict:
        rows, owner, k, err = self._run, self.owner, self.params.k, self._run.err
        m = np.where(self.frontier, rows.arrays.count, 0)
        m[owner.ident] -= 1  # the self-tuple: a point is not its own neighbour
        thresholds = (self.optimistic, self.pessimistic)
        diffs = (self.lower - thresholds[0], self.upper - thresholds[1])
        # (drop, hit): the slots known to count, and those that may (nan-safe)
        masses = [[int(m @ (diff > err)), int(m @ ~(diff < -err))] for diff in diffs]
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

    def node_bounds(self) -> np.ndarray:
        """Per node, an upper bound that no scalar upper bound between one of
        the owner's points and the node exceeds: the row's plus ``err`` (the
        scalar bound of a subset is no larger)."""
        return self.upper[:self._run.arrays.nodes] + self._run.err


def is_hit_or_drop(lists: NNLists | _Row, *, gated: bool = True) -> Verdict:
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
