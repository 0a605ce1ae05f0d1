"""Hierarchical spatio-textual index.

An R-tree over object locations where every node additionally stores an
intersection vector (per-term minimum weight over the contained objects),
a union vector (per-term maximum weight) and the object count.  Those three
ingredients, together with the node MBRs, yield sound lower/upper bounds on
the similarity between any two groups of objects.

Trees are immutable after construction; any number of concurrent queries may
share one tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .core import (
    NormStats,
    Point,
    QueryObject,
    STObject,
    SimParams,
    TermVector,
    combined_similarity,
    compute_norm_stats,
)


class EmptyDataset(ValueError):
    """A tree needs at least one object."""


@dataclass(frozen=True)
class Mbr:
    """Axis-aligned minimum bounding rectangle (possibly degenerate)."""

    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        if self.lo[0] > self.hi[0] or self.lo[1] > self.hi[1]:
            raise ValueError(f"inverted Mbr: {self.lo} > {self.hi}")

    @classmethod
    def from_point(cls, p: Point) -> "Mbr":
        return cls(p, p)

    @classmethod
    def from_points(cls, points: Sequence[Point]) -> "Mbr":
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        return cls((min(xs), min(ys)), (max(xs), max(ys)))

    @classmethod
    def union(cls, boxes: Sequence["Mbr"]) -> "Mbr":
        return cls(
            (min(b.lo[0] for b in boxes), min(b.lo[1] for b in boxes)),
            (max(b.hi[0] for b in boxes), max(b.hi[1] for b in boxes)),
        )

    @property
    def center(self) -> Point:
        return ((self.lo[0] + self.hi[0]) / 2.0, (self.lo[1] + self.hi[1]) / 2.0)


def min_dist(a: Mbr, b: Mbr) -> float:
    """Minimum L2 distance between any point of a and any point of b."""
    dx = max(a.lo[0] - b.hi[0], b.lo[0] - a.hi[0], 0.0)
    dy = max(a.lo[1] - b.hi[1], b.lo[1] - a.hi[1], 0.0)
    return math.hypot(dx, dy)


def max_dist(a: Mbr, b: Mbr) -> float:
    """Maximum L2 distance between any point of a and any point of b.

    Attained at a corner pair; per axis the larger one-sided separation is
    always nonnegative because boxes have nonnegative extent.
    """
    dx = max(a.hi[0] - b.lo[0], b.hi[0] - a.lo[0])
    dy = max(a.hi[1] - b.lo[1], b.hi[1] - a.lo[1])
    return math.hypot(dx, dy)


class Entry(NamedTuple):
    """A traversal unit: either an index node or a single data object.

    A named tuple, so that hashing and equality (every NN-list and record
    lookup) run in C.
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

    @property
    def order_key(self) -> tuple[str, str]:
        """Deterministic total order used for tie-breaking."""
        if self.kind == "node":
            return ("n", f"{self.ident:012d}")
        return ("o", str(self.ident))


def node_entry(node_id: int) -> Entry:
    return Entry("node", node_id)


def object_entry(object_id: str) -> Entry:
    return Entry("object", object_id)


@dataclass
class IurNode:
    """One index node.

    Invariants (checked by the test suite, relied on everywhere):
      * ``mbr`` is tight over the subtree's object locations;
      * for every contained object o and term t:
        int_vct[t] <= o.vct[t] <= union_vct[t] (absent terms read as 0);
      * ``count`` equals the number of objects in the subtree.
    """

    node_id: int
    mbr: Mbr
    int_vct: TermVector
    union_vct: TermVector
    count: int
    child_ids: tuple[int, ...]   # empty for leaves
    object_ids: tuple[str, ...]  # empty for internal nodes

    @property
    def is_leaf(self) -> bool:
        return not self.child_ids


def _intersect_vectors(vectors: Sequence[TermVector]) -> TermVector:
    """Coordinatewise minimum, treating absent terms as zero.

    A term survives only if it appears in every vector.
    """
    if not vectors:
        return TermVector()
    common = set(vectors[0].terms())
    for v in vectors[1:]:
        common &= set(v.terms())
    return TermVector({t: min(v.weight(t) for v in vectors) for t in common})


def _union_vectors(vectors: Sequence[TermVector]) -> TermVector:
    """Coordinatewise maximum over all vectors."""
    merged: dict[str, float] = {}
    for v in vectors:
        for t, w in v.items:
            if w > merged.get(t, 0.0):
                merged[t] = w
    return TermVector(merged)


Layout = list  # nested lists; a leaf is a list of object-id strings


class EntryRecord(NamedTuple):
    """What the tree knows about one entry, the same for nodes and objects.

    An object is a degenerate node: count 1, no children, a point MBR and
    both vectors equal to its term vector.
    """

    span: tuple[int, int]         # preorder object interval [lo, hi)
    count: int
    depth: int                    # the root has depth 0
    parent: Entry | None
    children: tuple[Entry, ...]   # in stored order; () for objects
    mbr: Mbr
    int_vct: TermVector
    union_vct: TermVector
    covering: tuple[Entry, ...]
    subtree_ids: frozenset[str]


class IurTree:
    """Immutable index over a dataset of :class:`STObject`.

    Construction maps every entry, node or object, to one
    :class:`EntryRecord`, filled by one iterative preorder pass over the
    nodes, so that no accessor walks the tree or branches on entry kind.
    Objects are numbered in preorder, so an entry's span, the interval of
    its objects' positions, decides ancestry by containment.  The record's
    ``covering`` is the other entries whose span contains the entry's: its
    proper ancestors plus the descendants that share its span, the nodes of
    a single-child chain below it and the object of a single-object leaf.
    The NN-lists drop exactly these entries before adding it, at O(depth)
    cost instead of a scan over every held tuple.
    """

    def __init__(self, objects: Sequence[STObject], nodes: dict[int, IurNode], root_id: int):
        self.objects: dict[str, STObject] = {o.id: o for o in objects}
        self.nodes = nodes
        self.root_id = root_id
        self.all_object_ids: frozenset[str] = frozenset(self.objects)
        self._stats: NormStats | None = None
        self._records = self._index()

    def _index(self) -> dict[Entry, EntryRecord]:
        records: dict[Entry, EntryRecord] = {}
        order: list[str] = []  # object ids in preorder
        pending: list[tuple] = []  # nodes wait for their objects: (entry, fields but subtree_ids)
        stack: list[tuple[int, tuple[Entry, ...]]] = [(self.root_id, ())]
        while stack:
            node_id, ancestors = stack.pop()
            node = self.nodes[node_id]
            entry = node_entry(node_id)
            lo = len(order)
            below = ancestors + (entry,)
            if node.is_leaf:
                children = tuple(map(object_entry, node.object_ids))
                for pos, child in enumerate(children, lo):
                    obj = self.objects[child.ident]
                    records[child] = EntryRecord(
                        (pos, pos + 1), 1, len(below), entry, (), Mbr.from_point(obj.loc),
                        obj.vct, obj.vct, below, frozenset((obj.id,)))
                order.extend(node.object_ids)
            else:
                children = tuple(map(node_entry, node.child_ids))
                stack.extend((c, below) for c in reversed(node.child_ids))
            pending.append((entry, (lo, lo + node.count), node.count, len(ancestors),
                            ancestors[-1] if ancestors else None, children,
                            node.mbr, node.int_vct, node.union_vct,
                            ancestors + self._equal_span_descendants(node)))
        # a node's objects are the slice of the preorder under its span
        for entry, span, *fields in pending:
            records[entry] = EntryRecord(span, *fields, frozenset(order[span[0]:span[1]]))
        return records

    def _equal_span_descendants(self, node: IurNode) -> tuple[Entry, ...]:
        """The chain of descendants holding exactly the node's objects."""
        chain: list[Entry] = []
        while len(node.child_ids) == 1:
            node = self.nodes[node.child_ids[0]]
            chain.append(node_entry(node.node_id))
        if len(node.object_ids) == 1:
            chain.append(object_entry(node.object_ids[0]))
        return tuple(chain)

    # -- basic accessors ---------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.objects)

    def root_entry(self) -> Entry:
        return node_entry(self.root_id)

    def object(self, object_id: str) -> STObject:
        return self.objects[object_id]

    def objects_sorted(self) -> list[STObject]:
        return [self.objects[i] for i in sorted(self.objects)]

    def record(self, entry: Entry) -> EntryRecord:
        return self._records[entry]

    def children(self, entry: Entry) -> tuple[Entry, ...]:
        """Child entries in stored order; none for an object."""
        return self._records[entry].children

    def parent(self, entry: Entry) -> Entry | None:
        return self._records[entry].parent

    def count(self, entry: Entry) -> int:
        return self._records[entry].count

    def depth(self, entry: Entry) -> int:
        return self._records[entry].depth

    def mbr(self, entry: Entry) -> Mbr:
        return self._records[entry].mbr

    def subtree_ids(self, entry: Entry) -> frozenset[str]:
        return self._records[entry].subtree_ids

    def subtree_objects(self, entry: Entry) -> list[str]:
        """All object ids under the entry, in id order."""
        return sorted(self.subtree_ids(entry))

    def is_ancestor_or_equal(self, a: Entry, b: Entry) -> bool:
        """True when a's subtree contains b's (a == b or a an ancestor of b).

        Decided by preorder-interval containment, so a chain node holding a
        single child compares equal to that child; for everything built on
        this predicate only point-set containment matters, which is exactly
        what the intervals encode.
        """
        alo, ahi = self._records[a].span
        blo, bhi = self._records[b].span
        return alo <= blo and bhi <= ahi

    def covering(self, entry: Entry) -> tuple[Entry, ...]:
        """The entries other than ``entry`` whose subtree contains its subtree.

        Exactly ``{e != entry : is_ancestor_or_equal(e, entry)}``, precomputed
        at construction: proper ancestors plus equal-span chain descendants.
        """
        return self._records[entry].covering

    def overlaps(self, a: Entry, b: Entry) -> bool:
        """Tree overlap: the entries share at least one object."""
        alo, ahi = self._records[a].span
        blo, bhi = self._records[b].span
        return (alo <= blo and bhi <= ahi) or (blo <= alo and ahi <= bhi)

    def iter_node_entries(self) -> Iterator[Entry]:
        for nid in sorted(self.nodes):
            yield node_entry(nid)

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
                self._stats = compute_norm_stats(self.objects_sorted())
        return self._stats


# -- construction ----------------------------------------------------------


def _validate_objects(objects: Sequence[STObject]) -> None:
    if not objects:
        raise EmptyDataset("cannot build a tree over zero objects")
    seen: set[str] = set()
    for o in objects:
        if o.id in seen:
            raise ValueError(f"duplicate object id {o.id!r}")
        seen.add(o.id)


def _tile(items: list, fanout: int) -> list[list]:
    """One level of Sort-Tile-Recursive packing.

    ``items`` are (x, y, tiebreak, payload) records; returns groups of at
    most ``fanout`` payloads.  Fully deterministic: ties fall back to the
    tiebreak key.
    """
    n = len(items)
    groups_needed = math.ceil(n / fanout)
    slices = math.ceil(math.sqrt(groups_needed))
    slice_size = slices * fanout
    by_x = sorted(items, key=lambda r: (r[0], r[1], r[2]))
    groups: list[list] = []
    for s in range(0, n, slice_size):
        vertical = sorted(by_x[s : s + slice_size], key=lambda r: (r[1], r[0], r[2]))
        for g in range(0, len(vertical), fanout):
            groups.append([r[3] for r in vertical[g : g + fanout]])
    return groups


def _str_layout(objects: Sequence[STObject], fanout: int) -> Layout:
    """Nested id layout produced by a Sort-Tile-Recursive bulk load."""
    if len(objects) <= fanout:
        return [o.id for o in sorted(objects, key=lambda o: (o.loc[0], o.loc[1], o.id))]
    records = [(o.loc[0], o.loc[1], o.id, (o.id, o.loc)) for o in objects]
    # level records: (center x, center y, min id, (layout, box, min id))
    level: list[tuple[float, float, str, tuple[Layout, Mbr, str]]] = []
    for group in _tile(records, fanout):
        box = Mbr.from_points([loc for _, loc in group])
        first = min(oid for oid, _ in group)
        level.append((*box.center, first, ([oid for oid, _ in group], box, first)))
    # repeatedly pack the current level until a single root remains
    while len(level) > 1:
        packed = _tile(level, fanout)
        level = []
        for group in packed:
            box = Mbr.union([b for _, b, _ in group])
            first = min(f for _, _, f in group)
            level.append((*box.center, first, ([sub for sub, _, _ in group], box, first)))
    return level[0][3][0]


def _is_leaf_layout(layout: Layout) -> bool:
    return all(isinstance(x, str) for x in layout)


def tree_from_layout(objects: Sequence[STObject], layout: Layout) -> IurTree:
    """Build a tree with an explicitly given nesting.

    A layout is a nested list structure whose leaves are lists of object-id
    strings.  Node ids are assigned in preorder (root gets 0), so a layout
    ``[["P0","P1"], [["P2","P3"], ["P4","P5"]]]`` yields nodes N0 (root),
    N1 = {P0,P1}, N2, N3 = {P2,P3}, N4 = {P4,P5}.  Used for hand-crafted
    fixtures whose shape an STR bulk load would not reproduce.  Both passes
    are iterative, so a layout of any depth builds.
    """
    _validate_objects(objects)
    by_id = {o.id: o for o in objects}
    # preorder: the sub-layout and the child node ids of every node
    order: list[Layout] = []
    child_ids: list[list[int]] = []
    stack: list[tuple[Layout, int | None]] = [(layout, None)]
    while stack:
        sub, parent = stack.pop()
        if parent is not None:
            child_ids[parent].append(len(order))
        if not _is_leaf_layout(sub):
            stack.extend((c, len(order)) for c in reversed(sub))
        order.append(sub)
        child_ids.append([])
    placed = [oid for sub in order if _is_leaf_layout(sub) for oid in sub]
    if sorted(placed) != sorted(by_id):
        raise ValueError("layout must mention each object id exactly once")

    # a child's preorder id exceeds its parent's: build the highest ids first
    nodes: list[IurNode] = [None] * len(order)  # type: ignore[list-item]
    for nid in reversed(range(len(order))):
        if _is_leaf_layout(order[nid]):
            members = [by_id[i] for i in order[nid]]
            nodes[nid] = IurNode(
                node_id=nid,
                mbr=Mbr.from_points([o.loc for o in members]),
                int_vct=_intersect_vectors([o.vct for o in members]),
                union_vct=_union_vectors([o.vct for o in members]),
                count=len(members),
                child_ids=(),
                object_ids=tuple(order[nid]),
            )
        else:
            children = [nodes[c] for c in child_ids[nid]]
            nodes[nid] = IurNode(
                node_id=nid,
                mbr=Mbr.union([c.mbr for c in children]),
                int_vct=_intersect_vectors([c.int_vct for c in children]),
                union_vct=_union_vectors([c.union_vct for c in children]),
                count=sum(c.count for c in children),
                child_ids=tuple(child_ids[nid]),
                object_ids=(),
            )
    return IurTree(list(objects), dict(enumerate(nodes)), 0)


def build_tree(objects: Sequence[STObject], fanout: int = 4) -> IurTree:
    """Sort-Tile-Recursive bulk load over the object locations."""
    _validate_objects(objects)
    if fanout < 2:
        raise ValueError(f"fanout must be >= 2, got {fanout}")
    return tree_from_layout(objects, _str_layout(objects, fanout))


# -- group-level similarity bounds ------------------------------------------


def _view(tree: IurTree, x: Entry | STObject | QueryObject) -> tuple[Mbr, TermVector, TermVector]:
    """(mbr, intersection vector, union vector) of a tree entry or bare object.

    A single object is a degenerate node: point MBR, both vectors equal to
    its term vector.  This gives every bound computation one code path.
    """
    if isinstance(x, Entry):
        record = tree._records[x]
        return record.mbr, record.int_vct, record.union_vct
    return Mbr.from_point(x.loc), x.vct, x.vct


def _min_text(ia: TermVector, ua: TermVector, ib: TermVector, ub: TermVector) -> float:
    if ua.is_empty and ub.is_empty:
        return 0.0
    num = ia.dot(ib)
    den = ua.norm_sq + ub.norm_sq - num
    return max(0.0, min(1.0, num / den))


def _max_text(ia: TermVector, ua: TermVector, ib: TermVector, ub: TermVector) -> float:
    if ua.is_empty and ub.is_empty:
        return 0.0
    num = ua.dot(ub)
    den = ia.norm_sq + ib.norm_sq - num
    if den <= 0.0:
        return 1.0
    return max(0.0, min(1.0, num / den))


def min_text_sim(tree: IurTree, a: Entry | STObject | QueryObject,
                 b: Entry | STObject | QueryObject) -> float:
    """Lower bound on the Extended Jaccard between any pair drawn from a and b.

    Smallest defensible numerator (intersection vectors) over largest
    denominator (union vectors).  Zero when both unions are empty.
    """
    _, ia, ua = _view(tree, a)
    _, ib, ub = _view(tree, b)
    return _min_text(ia, ua, ib, ub)


def max_text_sim(tree: IurTree, a: Entry | STObject | QueryObject,
                 b: Entry | STObject | QueryObject) -> float:
    """Upper bound on the Extended Jaccard between any pair drawn from a and b.

    Largest numerator (union vectors) over smallest defensible denominator
    (intersection vectors).  Sparse intersections can drive that denominator
    to zero or below; 1 is then the (always valid) answer.  Two all-empty
    groups score 0, matching :func:`rstknn.core.extended_jaccard` so that
    point entries collapse exactly.
    """
    _, ia, ua = _view(tree, a)
    _, ib, ub = _view(tree, b)
    return _max_text(ia, ua, ib, ub)


def min_sim_st(tree: IurTree, a: Entry | STObject | QueryObject,
               b: Entry | STObject | QueryObject,
               params: SimParams, stats: NormStats) -> float:
    """Lower bound on sim_st over all pairs from a x b (worst distance
    combined with worst text similarity)."""
    ma, ia, ua = _view(tree, a)
    mb, ib, ub = _view(tree, b)
    return combined_similarity(max_dist(ma, mb), _min_text(ia, ua, ib, ub), params, stats)


def max_sim_st(tree: IurTree, a: Entry | STObject | QueryObject,
               b: Entry | STObject | QueryObject,
               params: SimParams, stats: NormStats) -> float:
    """Upper bound on sim_st over all pairs from a x b."""
    ma, ia, ua = _view(tree, a)
    mb, ib, ub = _view(tree, b)
    return combined_similarity(min_dist(ma, mb), _max_text(ia, ua, ib, ub), params, stats)


def pair_sim_bounds(tree: IurTree, a: Entry | STObject | QueryObject,
                    b: Entry | STObject | QueryObject,
                    params: SimParams, stats: NormStats) -> tuple[float, float]:
    """(lower, upper) sim_st bounds computed with one pass over the views."""
    ma, ia, ua = _view(tree, a)
    mb, ib, ub = _view(tree, b)
    lower = combined_similarity(max_dist(ma, mb), _min_text(ia, ua, ib, ub), params, stats)
    upper = combined_similarity(min_dist(ma, mb), _max_text(ia, ua, ib, ub), params, stats)
    return lower, upper
