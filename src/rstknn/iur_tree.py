"""Hierarchical spatio-textual index.

An R-tree over object locations where every node additionally stores an
intersection vector (per-term minimum weight over the contained objects),
a union vector (per-term maximum weight) and the object count.  Those three
ingredients, together with the node boxes, yield sound lower/upper bounds on
the similarity between any two groups of objects: :func:`pair_sim_bounds`
for one pair, :meth:`EntryArrays.bounds` for many owners at once.

The tree is one :class:`EntryRecord` per entry, node or object, and nothing
else.  One builder, :func:`tree_from_layout`, writes the records straight
from a nested layout; :func:`build_tree` hands it a Sort-Tile-Recursive one.
Trees are immutable after construction; any number of concurrent queries may
share one tree.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    NormStats,
    _PairTiles,
    QueryObject,
    STObject,
    SimParams,
    TermVector,
    combined_similarity,
    compute_norm_stats,
    intersection_vector,
    sim_st,
    union_vector,
)


class EmptyDataset(ValueError):
    """A tree needs at least one object."""


Box = tuple[float, float, float, float]  # lo x, lo y, hi x, hi y; lo <= hi per axis


class Entry(NamedTuple):
    """A traversal unit: either an index node or a single data object.

    A named tuple, so that hashing and equality (every NN-list and record
    lookup) run in C, and so that entries sort in one deterministic order
    (used to break ties): nodes before objects, nodes by number, objects by
    id.
    """

    kind: str  # "node" | "object"
    ident: int | str

    @property
    def is_node(self) -> bool:
        return self.kind == "node"

    @property
    def is_object(self) -> bool:
        return self.kind == "object"

    @property
    def label(self) -> str:
        return f"N{self.ident}" if self.kind == "node" else str(self.ident)


def node_entry(node_id: int) -> Entry:
    return Entry("node", node_id)


def object_entry(object_id: str) -> Entry:
    return Entry("object", object_id)


Layout = list  # nested lists; a leaf is a list of object-id strings


class EntryRecord(NamedTuple):
    """What the tree knows about one entry, the same for nodes and objects.

    An object is a degenerate node: a span of width 1, no children, the
    point box ``(x, y, x, y)`` of its location and both vectors equal to its
    term vector.  Invariants (checked by the test suite, relied on
    everywhere):
      * ``box``, the corners ``(lo x, lo y, hi x, hi y)``, is tight over the
        subtree's object locations;
      * for every contained object o and term t:
        int_vct[t] <= o.vct[t] <= union_vct[t] (absent terms read as 0);
      * the ids at the preorder positions of ``span`` are the subtree's
        objects: the tree's one record of which objects an entry holds.
    """

    span: tuple[int, int]         # preorder object interval [lo, hi)
    depth: int                    # the root has depth 0
    parent: Entry | None
    children: tuple[Entry, ...]   # in stored order; () for objects
    box: Box
    int_vct: TermVector
    union_vct: TermVector
    covering: tuple[Entry, ...]


class IurTree:
    """Immutable index over a dataset of :class:`STObject`.

    The tree is its records: one :class:`EntryRecord` per entry, node or
    object, built by :func:`tree_from_layout`, so that no accessor walks the
    tree or branches on entry kind.  Node ids and object positions follow
    preorder, so an entry's span, the interval of its objects' positions,
    decides ancestry by containment, its width is the entry's object count
    and its slice of the preorder ids is the entry's objects; ``objects``
    holds the objects in that preorder, and so do the pair tiles
    (:meth:`tiles`) that the normalization statistics and the object
    owners' rows share.  The record's ``covering`` is the other
    entries whose span contains the entry's: its proper ancestors plus the
    descendants that share its span, the nodes of a single-child chain below
    it and the object of a single-object leaf.  The NN-lists drop exactly
    these entries before adding it, at O(depth) cost instead of a scan over
    every held tuple.
    """

    def __init__(self, objects: Sequence[STObject], records: dict[Entry, EntryRecord]):
        self.objects: dict[str, STObject] = {o.id: o for o in objects}  # in preorder
        self._ids = list(self.objects)  # the object ids in preorder
        self._stats: NormStats | None = None
        self._tiles: _PairTiles | None = None
        self._arrays: EntryArrays | None = None
        self._records = records

    # -- basic accessors ---------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.objects)

    def root_entry(self) -> Entry:
        return node_entry(0)

    def object(self, object_id: str) -> STObject:
        return self.objects[object_id]

    def record(self, entry: Entry) -> EntryRecord:
        return self._records[entry]

    def children(self, entry: Entry) -> tuple[Entry, ...]:
        """Child entries in stored order; none for an object."""
        return self._records[entry].children

    def parent(self, entry: Entry) -> Entry | None:
        return self._records[entry].parent

    def count(self, entry: Entry) -> int:
        """The number of objects in the subtree, the width of its span."""
        lo, hi = self._records[entry].span
        return hi - lo

    def depth(self, entry: Entry) -> int:
        return self._records[entry].depth

    def subtree_objects(self, entry: Entry) -> list[str]:
        """All object ids under the entry, in id order: the preorder slice
        of its span."""
        lo, hi = self._records[entry].span
        return sorted(self._ids[lo:hi])

    def iter_node_entries(self) -> Iterator[Entry]:
        """Node entries in id order, which is preorder."""
        return map(node_entry, range(len(self._records) - self.size))

    def tiles(self) -> _PairTiles:
        """The pair kernel over the objects in preorder, built once: row p
        is the object at preorder position p."""
        if self._tiles is None:
            self._tiles = _PairTiles(list(self.objects.values()))
        return self._tiles

    def entry_arrays(self) -> "EntryArrays":
        """Every entry's bounding data as arrays, built once."""
        if self._arrays is None:
            self._arrays = EntryArrays(self)
        return self._arrays

    def norm_stats(self) -> NormStats:
        """Dataset normalization stats, computed once and cached.

        A single-object dataset has no pairs; every constant works there, so
        the degenerate all-zero stats are used (both score components then
        collapse to the constant 1).
        """
        if self._stats is None:
            if self.size < 2:
                self._stats = NormStats(0.0, 0.0, 0.0, 0.0)
            else:
                self._stats = compute_norm_stats(self.tiles())
        return self._stats


# -- construction ----------------------------------------------------------


def _tile(records: list, fanout: int) -> list[list]:
    """One level of Sort-Tile-Recursive packing.

    ``records`` start with (x, y, tiebreak), the tiebreaks distinct; returns
    groups of at most ``fanout`` records.  Fully deterministic: ties fall
    back to the tiebreak key.
    """
    n = len(records)
    slice_size = math.ceil(math.sqrt(math.ceil(n / fanout))) * fanout
    by_x = sorted(records, key=_BY_X)
    groups: list[list] = []
    for s in range(0, n, slice_size):
        vertical = sorted(by_x[s : s + slice_size], key=_BY_Y)
        groups.extend(vertical[g : g + fanout] for g in range(0, len(vertical), fanout))
    return groups


_BY_X, _BY_Y = itemgetter(0, 1, 2), itemgetter(1, 0, 2)


def _packed(group: list) -> tuple:
    """The level record of a group of records: its box's center, its least
    id, its layout and its box."""
    _, _, firsts, layouts, lxs, lys, hxs, hys = zip(*group)
    lx, ly, hx, hy = min(lxs), min(lys), max(hxs), max(hys)
    return (lx + hx) / 2.0, (ly + hy) / 2.0, min(firsts), list(layouts), lx, ly, hx, hy


def _str_layout(objects: Sequence[STObject], fanout: int) -> Layout:
    """Nested id layout produced by a Sort-Tile-Recursive bulk load."""
    if len(objects) <= fanout:
        return [o.id for o in sorted(objects, key=lambda o: (o.loc[0], o.loc[1], o.id))]
    # level records: (center x, center y, least id, layout, box lo x, lo y,
    # hi x, hi y); an object is a point box
    level = [(x, y, o.id, o.id, x, y, x, y) for o in objects for x, y in (o.loc,)]
    while len(level) > 1:  # pack the current level until a single root remains
        level = [_packed(group) for group in _tile(level, fanout)]
    return level[0][3]


def tree_from_layout(objects: Sequence[STObject], layout: Layout) -> IurTree:
    """Build a tree with an explicitly given nesting.

    A layout is a nested list structure: every node is a non-empty list,
    either of sub-lists or, for a leaf, of object-id strings.  Node ids are
    assigned in preorder (root gets 0), so a layout
    ``[["P0","P1"], [["P2","P3"], ["P4","P5"]]]`` yields nodes N0 (root),
    N1 = {P0,P1}, N2, N3 = {P2,P3}, N4 = {P4,P5}.  Used for hand-crafted
    fixtures whose shape an STR bulk load would not reproduce.

    A preorder pass numbers the nodes and the objects and writes the object
    records; a pass in reverse preorder, children before parents, then
    aggregates each node's record, its box included, from its children's.
    Both passes are iterative, so a layout of any depth builds.
    """
    if not objects:
        raise EmptyDataset("cannot build a tree over zero objects")
    by_id = {o.id: o for o in objects}
    if len(by_id) < len(objects):  # name the first repeated id
        seen: set[str] = set()
        for o in objects:
            if o.id in seen:
                raise ValueError(f"duplicate object id {o.id!r}")
            seen.add(o.id)
    records: dict[Entry, EntryRecord] = {}
    order: list[str] = []  # object ids in preorder
    nodes: list[tuple[tuple[Entry, ...], list[Entry], int]] = []  # ancestors, children, span start
    stack: list[tuple[object, tuple[Entry, ...]]] = [(layout, ())]
    while stack:
        sub, ancestors = stack.pop()
        if not isinstance(sub, list) or not sub:  # also an id beside sub-lists
            raise ValueError(f"a layout node must be a non-empty list of ids or of "
                             f"sub-lists, got {sub!r}")
        entry = node_entry(len(nodes))
        children: list[Entry] = []
        if ancestors:
            nodes[ancestors[-1].ident][1].append(entry)  # type: ignore[index]
        nodes.append((ancestors, children, len(order)))
        below = ancestors + (entry,)
        if any(isinstance(x, list) for x in sub):
            stack.extend((c, below) for c in reversed(sub))
            continue
        depth = len(below)
        for oid in sub:
            if not isinstance(oid, str):
                raise ValueError(f"leaf element {oid!r} of {entry.label} is not an object id")
            obj = by_id.get(oid)
            if obj is None:
                raise ValueError("layout must mention each object id exactly once")
            pos, (x, y) = len(order), obj.loc
            child = Entry("object", oid)
            records[child] = EntryRecord(
                (pos, pos + 1), depth, entry, (), (x, y, x, y), obj.vct, obj.vct, below)
            children.append(child)
            order.append(oid)
    if not len(order) == len(records) == len(by_id):  # a repeated id has one record
        raise ValueError("layout must mention each object id exactly once")

    for nid in reversed(range(len(nodes))):
        ancestors, children, lo = nodes[nid]
        below_records = [records[c] for c in children]
        hi = below_records[-1].span[1]  # children hold consecutive spans
        chain: tuple[Entry, ...] = ()  # the descendants holding exactly this node's objects
        if len(children) == 1:  # the only child, then its chain: its covering past its ancestors
            only = below_records[0]
            chain = (children[0], *only.covering[only.depth:])
        lxs, lys, hxs, hys = zip(*(r.box for r in below_records))
        entry = node_entry(nid)
        records[entry] = EntryRecord(
            (lo, hi), len(ancestors), ancestors[-1] if ancestors else None,
            tuple(children), (min(lxs), min(lys), max(hxs), max(hys)),
            intersection_vector([r.int_vct for r in below_records]),
            union_vector(r.union_vct for r in below_records),
            ancestors + chain)
    return IurTree([by_id[oid] for oid in order], records)


def build_tree(objects: Sequence[STObject], fanout: int = 4) -> IurTree:
    """Sort-Tile-Recursive bulk load over the object locations."""
    if fanout < 2:
        raise ValueError(f"fanout must be >= 2, got {fanout}")
    return tree_from_layout(objects, _str_layout(objects, fanout))


# -- group-level similarity bounds ------------------------------------------


_LOWER, _UPPER = 1, 2


def min_sim_st(tree: IurTree, a: Entry | STObject | QueryObject,
               b: Entry | STObject | QueryObject,
               params: SimParams, stats: NormStats) -> float:
    """Lower bound on sim_st over all pairs from a x b (worst distance
    combined with worst text similarity)."""
    return pair_sim_bounds(tree, a, b, params, stats, _LOWER)[0]


def max_sim_st(tree: IurTree, a: Entry | STObject | QueryObject,
               b: Entry | STObject | QueryObject,
               params: SimParams, stats: NormStats) -> float:
    """Upper bound on sim_st over all pairs from a x b."""
    return pair_sim_bounds(tree, a, b, params, stats, _UPPER)[1]


def pair_sim_bounds(tree: IurTree, a: Entry | STObject | QueryObject,
                    b: Entry | STObject | QueryObject, params: SimParams, stats: NormStats,
                    sides: int = _LOWER | _UPPER) -> tuple[float, float]:
    """(lower, upper) sim_st bounds between a tree entry or bare object (a
    degenerate node) and another, one straight-line body; only the ``sides``
    asked for are meaningful.  The lower bound is ``combined_similarity`` of
    the boxes' largest corner-pair distance and the smallest text numerator
    (intersection vectors) over the largest denominator (union vectors), the
    upper one of their smallest distance (0 where they overlap) and the
    converse, or 1 where that denominator is <= 0; two all-empty groups
    score 0.  It is, operation for operation and so bit for bit, the
    composition of box distances, group text bounds and
    ``combined_similarity`` that the tests keep as its reference.  Between
    two object entries both are the exact :func:`sim_st`, which the general
    arithmetic gives there too.
    """
    if type(a) is Entry and type(b) is Entry and a.kind == b.kind == "object":
        s = sim_st(tree.objects[a.ident], tree.objects[b.ident], params, stats)  # type: ignore[index]
        return s, s
    r = tree._records[a] if type(a) is Entry else None
    (alx, aly, ahx, ahy), ia, ua = ((r.box, r.int_vct, r.union_vct) if r
                                    else ((*a.loc, *a.loc), a.vct, a.vct))  # type: ignore[union-attr]
    r = tree._records[b] if type(b) is Entry else None
    (blx, bly, bhx, bhy), ib, ub = ((r.box, r.int_vct, r.union_vct) if r
                                    else ((*b.loc, *b.loc), b.vct, b.vct))  # type: ignore[union-attr]
    alpha = params.alpha
    lower = upper = 1.0
    if alpha > 0.0:
        lo, hi = stats.phi_s, stats.psi_s
        if hi != lo:
            if sides & _LOWER:
                far = math.hypot(max(ahx - blx, bhx - alx), max(ahy - bly, bhy - aly))
                lower = 1.0 - (far - lo) / (hi - lo)
            if sides & _UPPER:
                near = math.hypot(max(alx - bhx, blx - ahx, 0.0), max(aly - bhy, bly - ahy, 0.0))
                upper = 1.0 - (near - lo) / (hi - lo)
        if alpha == 1.0:
            return lower, upper
    t_lower = t_upper = 0.0  # two empty unions
    if ua.items or ub.items:
        if sides & _LOWER:
            num = 0.0  # TermVector.dot: over the sorted common terms, the shorter's
            short, other = (ib, ia) if len(ib.items) < len(ia.items) else (ia, ib)
            weights = other._weights
            for term, w in short.items:
                if (x := weights.get(term)) is not None:
                    num += w * x
            t = num / (ua.norm_sq + ub.norm_sq - num)
            t_lower = (t if t > 0.0 else 0.0) if t < 1.0 else 1.0
        if sides & _UPPER:
            num = 0.0
            short, other = (ub, ua) if len(ub.items) < len(ua.items) else (ua, ub)
            weights = other._weights
            for term, w in short.items:
                if (x := weights.get(term)) is not None:
                    num += w * x
            den = ia.norm_sq + ib.norm_sq - num
            t = num / den if den > 0.0 else 1.0
            t_upper = (t if t > 0.0 else 0.0) if t < 1.0 else 1.0
    lo, hi = stats.phi_t, stats.psi_t
    if hi == lo:
        t_lower = t_upper = 1.0
    else:
        t_lower, t_upper = (t_lower - lo) / (hi - lo), (t_upper - lo) / (hi - lo)
    if alpha == 0.0:
        return t_lower, t_upper
    return alpha * lower + (1.0 - alpha) * t_lower, alpha * upper + (1.0 - alpha) * t_upper


class EntryArrays:
    """Every entry's bounding data as arrays, to bound owners against all
    entries at once (:meth:`bounds`).  Index i is node i for i < ``nodes``,
    then the object at preorder position i - ``nodes`` (``entries`` and
    ``index`` translate).  Per entry: the box corners, the intersection and
    union vectors as dense rows (the objects' are the pair tiles' own) with
    each vector's exact ``norm_sq``, the object ``count`` and the first
    preorder position ``first``.  ``bfs`` lists the entries as a FIFO
    traversal dequeues them, by depth and each level in preorder, and
    ``rank`` is each entry's place there.
    """

    def __init__(self, tree: IurTree):
        tiles = tree.tiles()
        nodes = list(tree.iter_node_entries())
        records = [tree.record(e) for e in nodes]
        self.nodes = len(nodes)
        self.entries = nodes + [o for r in records if r.children[0].is_object for o in r.children]
        self.index = {e: i for i, e in enumerate(self.entries)}
        self.tiles = tiles
        # the corners' x and y coordinates, one row each
        boxes = np.array([r.box for r in records])
        self.lo = np.concatenate([boxes[:, :2], tiles.xy]).T.copy()
        self.hi = np.concatenate([boxes[:, 2:], tiles.xy]).T.copy()
        self.inter = np.concatenate([tiles.dense([r.int_vct for r in records]), tiles.terms])
        self.union = np.concatenate([tiles.dense([r.union_vct for r in records]), tiles.terms])
        self.inter_sq = np.concatenate([[r.int_vct.norm_sq for r in records], tiles.norm_sq])
        self.union_sq = np.concatenate([[r.union_vct.norm_sq for r in records], tiles.norm_sq])
        self.empty = self.union_sq == 0.0  # only an empty vector has a zero squared norm
        spans = np.array([r.span for r in records])
        self.first = np.concatenate([spans[:, 0], np.arange(tiles.n)])
        self.count = np.concatenate([spans[:, 1] - spans[:, 0], np.ones(tiles.n, dtype=int)])
        depth = [tree.depth(e) for e in self.entries]
        self.bfs = np.lexsort((self.first, depth))
        self.rank = np.argsort(self.bfs)

    def bounds(self, owners: np.ndarray, params: SimParams, stats: NormStats,
               nodes: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) of :func:`pair_sim_bounds` between each owner (a row)
        and every entry (a column), each within the pair tiles' ``sim_err`` of
        the scalar value.  The owners are all nodes or all objects.

        Between two objects both bounds are the exact ``sim_st``, so object
        owners take their object columns from the pair kernel
        (:meth:`_PairTiles.sims`), whose margin this is; their own element
        there is -inf.  Their node columns are those of ``nodes`` (all by
        default), and NaN, unknown, elsewhere.  The other elements repeat
        the scalar arithmetic operation for operation, so they differ from
        it only where :class:`~rstknn.core._PairTiles` does (two empty
        unions score 0 in both codes):

        * Distances.  Box corners are object coordinates, so both codes round
          the same corner differences (or their exact negations); only the
          hypot differs, as :meth:`_PairTiles.dist` and ``math.hypot`` do,
          for a distance at most the objects' diagonal: ``dist_err``.
        * Dots.  I_a.I_b and U_a.U_b sum m <= V nonnegative products in
          another order: each code is within m * eps (relative) of the exact
          sum, plus m * ulp(0) for products that underflow, and both give 0
          together.  The squared norms are the vectors' own ``norm_sq``,
          added in the scalar order, so a denominator differs only through
          its dot.
        * The lower text bound I_a.I_b / (|U_a|^2 + |U_b|^2 - I_a.I_b).  Its
          denominator is at least the numerator and at least half the
          smallest normal float min (a non-empty vector's squared norm is
          normal), so, as for the Extended Jaccard, the clipped ratio errs by
          at most (4m + 10) * eps, within ``ej_err``.
        * The upper text bound U_a.U_b / (|I_a|^2 + |I_b|^2 - U_a.U_b), or 1
          where that denominator is <= 0.  Let S = |I_a|^2 + |I_b|^2 and d the
          dot.  Where d = 0 both codes compute the denominator S.  Elsewhere
          the two denominators differ by less than B = ``ej_err`` * (S + d +
          min), as eps * min = ulp(0).  Outside that band both codes take the
          same branch: ratios of at least 1 both clip to 1, and a ratio below
          1 has a denominator above d, so above S / 2 >= min / 2, and the
          argument for the lower bound applies.  Inside it, S = 0 makes both
          denominators -d < 0, and S >= min gives B < 3.1 * ``ej_err`` * d,
          so both denominators are below 7 * ``ej_err`` * d and, as
          ``ej_err`` < 1/7, both ratios clip to 1.
        * ``combined_similarity`` runs the same operations in both codes, so
          ``sim_err`` bounds the result, as it does for the pair tiles.
        """
        shape = (len(owners), len(self.count))
        if owners[0] < self.nodes:
            lower, upper = self._general(owners, slice(None), params, stats)
            return np.broadcast_to(lower, shape), np.broadcast_to(upper, shape)
        cols = slice(self.nodes) if nodes is None else nodes
        # no node column once every node has left the queue and the frontier
        general = nodes is None or len(nodes) > 0
        bounds = self._general(owners, cols, params, stats) if general else (None, None)
        sims = self.tiles.sims(self.first[owners], params, stats)
        out = np.empty(shape), np.empty(shape)
        for bound, tile in zip(bounds, out):
            tile[:, :self.nodes] = np.nan
            if general:
                tile[:, cols] = bound
            tile[:, self.nodes:] = sims
        return out

    def _general(self, owners: np.ndarray, cols: np.ndarray | slice, params: SimParams,
                 stats: NormStats) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) of the general arithmetic of :meth:`bounds` between
        the ``owners`` and the entries ``cols``."""
        far = near = min_text = max_text = None  # only the scores with a nonzero weight count
        if params.alpha > 0.0:
            u = self.hi[:, owners, None] - self.lo[:, None, cols]  # a.hi - b.lo, per axis
            v = self.hi[:, None, cols] - self.lo[:, owners, None]  # b.hi - a.lo
            far = self.tiles.dist(*np.maximum(u, v))
            # -max(a.lo - b.hi, b.lo - a.hi, 0), which has the same square
            near = self.tiles.dist(*np.minimum(np.minimum(u, v), 0.0))
        if params.alpha < 1.0:
            ii = self.inter[owners] @ self.inter[cols].T
            uu = self.union[owners] @ self.union[cols].T
            with np.errstate(divide="ignore", invalid="ignore"):  # ratios are >= 0 where kept
                union_sq = self.union_sq[owners, None] + self.union_sq[cols]
                min_text = np.minimum(ii / (union_sq - ii), 1.0)
                den = self.inter_sq[owners, None] + self.inter_sq[cols] - uu
                max_text = np.minimum(np.where(den > 0.0, uu / den, 1.0), 1.0)
            if self.empty[owners].any():
                both = self.empty[owners, None] & self.empty[cols]
                min_text[both] = max_text[both] = 0.0
        return (combined_similarity(far, min_text, params, stats),  # type: ignore[arg-type]
                combined_similarity(near, max_text, params, stats))  # type: ignore[arg-type]
