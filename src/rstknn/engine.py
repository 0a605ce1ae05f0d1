"""Branch-and-bound reverse spatio-textual k-NN traversal.

Three query modes share the bound machinery and one accept/prune test,
:func:`is_hit_or_drop`, which reads a list's slot totals and whose test
the list's kind selects, but differ in control flow:

* ``CORRECT`` — FIFO queue over a frontier of tree entries (queued,
  candidate and routed) that partitions the dataset, which the run's
  :class:`~rstknn.nn_lists.Rows` own and change.  A dequeued entry, node or
  object, keeps no NN-list: it decides on its row, direct bounds against
  every other frontier entry, so its verdict depends only on the owner and
  the frontier.  Rows come a tile of owners of one kind at a time.  Every
  decision checks, by the covered count, that the frontier covers all n
  objects; audit runs recount it from the mask and check every verdict
  against the sorted walks of the row's reference list.  Candidates left
  after the main loop are settled on their rows against all objects.
* ``FAULTY2011`` — a reproduction of the legacy priority-queue algorithm
  that never lets a node account for its own contents.  Intentionally
  unsound; kept as an executable regression of that failure mode.
* ``FAULTY2014`` — the later legacy variant that restored self-accounting
  but still accepts on upper bounds computed from incomplete lists.
  Intentionally unsound as well.

Both legacy modes keep :class:`~rstknn.nn_lists.NNLists`, on which the test
lacks the completeness gate: a hit needs only k covered slots, not a
complete list.  An entry's NN-list is freed once the entry is decided or
expanded; the queued entries and candidates keep theirs, and the run finds
them, and the queue priority (the list's optimistic similarity), there.
The queue is sorted only after it changes.

Every run records a trace: one event per dequeue plus one per verified
candidate, each with snapshots of the queue and the candidate/result/pruned
lists.  A run only appends to a column's list or makes a new one, so a
snapshot is a window (list, lo, hi), not a copy; the labels are made only
when a column is read.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from enum import Enum

from .core import NormStats, QueryObject, SimParams
# ``max_sim_st`` is imported for perfbench/tracing.py, which wraps it here by name
from .iur_tree import Entry, IurTree, max_sim_st, object_entry  # noqa: F401
from .nn_lists import NNLists, Row, Rows, Verdict, is_hit_or_drop


class Mode(str, Enum):
    CORRECT = "correct"
    FAULTY2011 = "faulty2011"
    FAULTY2014 = "faulty2014"


class CompletenessViolation(RuntimeError):
    """An accept/prune test was about to run on an incomplete list."""


class TraceEvent:
    """One row of the run log, mirroring the Steps/Actions/U/COL/ROL/PEL table.

    Each column is the window ``(items, lo, hi)`` of its list at snapshot
    time, the entries (object ids for ROL) ``items[lo:hi]``; reading one
    makes a fresh list of labels.
    """

    __slots__ = ("step", "action", "_u", "_col", "_rol", "_pel")

    def __init__(self, step: int, action: str, u: tuple, col: tuple, rol: tuple, pel: tuple):
        self.step = step
        self.action = action
        self._u, self._col, self._rol, self._pel = u, col, rol, pel

    @property
    def u(self) -> list[str]:
        return [e.label for e in _live(self._u)]

    @property
    def col(self) -> list[str]:
        return [e.label for e in _live(self._col)]

    @property
    def rol(self) -> list[str]:
        return _live(self._rol)

    @property
    def pel(self) -> list[str]:
        return [e.label for e in _live(self._pel)]

    def to_json_dict(self) -> dict:
        return {
            "step": self.step,
            "action": self.action,
            "U": self.u,
            "COL": self.col,
            "ROL": self.rol,
            "PEL": self.pel,
        }


def _live(window: tuple[list, int, int]) -> list:
    items, lo, hi = window
    return items[lo:hi]


@dataclass
class EngineAudit:
    """The bounds behind every decision of an audited correct-mode run.

    Each decision appends ``(owner, knn_lower, knn_upper)``, the sorted
    walks' k-th-neighbour bounds on the owner's list, after the walks have
    been checked to reach the same verdict as the slot totals.
    """

    bound_records: list[tuple[Entry, float | None, float | None]] = field(default_factory=list)


@dataclass
class EngineState:
    """Mutable working state of one traversal; owned by a single run.  A run
    only appends to a column's list or replaces it, and U and COL live from
    ``u_lo`` and ``col_lo`` on."""

    u: list[Entry]
    col: list[Entry]
    rol: list[str]
    pel: list[Entry]
    trace: list[TraceEvent]
    u_lo: int = 0
    col_lo: int = 0

    def snapshot(self, action: str) -> None:
        self.trace.append(TraceEvent(len(self.trace) + 1, action, (self.u, self.u_lo, len(self.u)),
                                     (self.col, self.col_lo, len(self.col)),
                                     (self.rol, 0, len(self.rol)), (self.pel, 0, len(self.pel))))


# -- correct mode -----------------------------------------------------------


def _route(state: EngineState, tree: IurTree, entry: Entry, verdict: Verdict) -> None:
    if verdict is Verdict.HIT:
        state.rol.extend(tree.subtree_objects(entry))
    elif verdict is Verdict.DROP:
        state.pel.append(entry)


def _checked_verdict(row: Row, audit: EngineAudit | None) -> Verdict:
    """The gated verdict, taken only on a complete list.

    A HIT has just passed the gate's completeness check; any other verdict
    checks here.  An incomplete list raises either way: its gate turns a
    would-be HIT into UNDECIDED.  The completeness check reads the covered
    count that the rows keep; an audit recounts it from the frontier's mask,
    walks the row's reference list and checks that both agree.
    """
    verdict = is_hit_or_drop(row)
    if verdict is not Verdict.HIT and not row.is_complete():
        raise CompletenessViolation(
            f"incomplete NN-list for {row.owner.label} at decision time"
        )
    if audit is not None:
        rows = row.rows
        if int(rows.arrays.count @ rows.frontier) != rows.covered:
            raise AssertionError(f"frontier mask and covered count disagree at {row.owner.label}")
        walked = row.reference()
        if walked.walked_verdict() is not verdict or walked.is_complete() != row.is_complete():
            raise AssertionError(f"slot counts and walks disagree on {row.owner.label}")
        k = row.params.k
        audit.bound_records.append((row.owner, walked.knn_lower(k), walked.knn_upper(k)))
    return verdict


def _run_correct(tree: IurTree, query: QueryObject, params: SimParams,
                 stats: NormStats, audit: EngineAudit | None) -> EngineState:
    state = EngineState(u=[tree.root_entry()], col=[], rol=[], pel=[], trace=[])
    rows = Rows(tree, query, params, stats)  # its frontier starts as the root

    while state.u_lo < len(state.u):
        entry = state.u[state.u_lo]
        state.u_lo += 1
        action = f"Dequeue {entry.label}"
        verdict = _checked_verdict(rows.row(entry), audit)
        if verdict is not Verdict.UNDECIDED:
            _route(state, tree, entry, verdict)
            rows.decided(entry)
        elif entry.is_node:
            rows.expand(entry)
            for child in tree.children(entry):
                state.u.append(child)
                action += f", Enqueue {child.label}"
        else:
            state.col.append(entry)
        state.snapshot(action)

    final_verification(state, rows, audit=audit)
    return state


def final_verification(state: EngineState, rows: Rows, audit: EngineAudit | None = None) -> None:
    """Settle the candidates left after the main loop.

    Each candidate decides on its row against single objects as the
    frontier.  Bounds between two objects, and between an object and the
    query, are exact (lower equals upper), so the two slot counts coincide
    and the accept/prune test is decisive: the candidate list empties in
    one pass.  The other objects are decided, so the candidates' rows come
    in tiles of candidates.
    """
    if state.col_lo == len(state.col):
        return
    rows.objects_only()
    for candidate in state.col[state.col_lo:]:
        verdict = _checked_verdict(rows.row(candidate), audit)
        if verdict is Verdict.UNDECIDED:  # pragma: no cover - impossible with exact point bounds
            raise RuntimeError(f"verification left {candidate.label} undecided")
        state.col_lo += 1
        _route(state, rows.tree, candidate, verdict)
        rows.decided(candidate)
        state.snapshot(f"Verify {candidate.label}")


# -- faulty legacy modes ------------------------------------------------------


def _ranked(queue: dict[Entry, float]) -> list[Entry]:
    """Queued entries by decreasing priority, ties broken by entry order."""
    return sorted(queue, key=lambda e: (-queue[e], e))


def _run_faulty(tree: IurTree, query: QueryObject, params: SimParams,
                stats: NormStats, *, locality: bool) -> EngineState:
    """Shared skeleton of the two legacy modes.

    ``locality=False`` reproduces the earlier algorithm (no self-addition at
    all); ``locality=True`` the later variant, which adds the node itself
    after the first test and drops the parent's own tuple when inheriting.
    Both order the queue by the optimistic query similarity and both use
    upper bounds without any completeness gate.
    """
    state = EngineState(u=[], col=[], rol=[], pel=[], trace=[])
    root = tree.root_entry()
    live = {root: NNLists(root, tree, query, params, stats)}  # the queued and candidate lists
    queue: dict[Entry, float] = {root: 0.0}  # live entry -> priority
    ranked: list[Entry] | None = [root]  # _ranked(queue), None once it is stale
    hits: list[Entry] = []  # the entries of the ids on ROL so far

    while queue:
        parent = ranked[0]  # type: ignore[index]  # sorted when the last dequeue ended
        del queue[parent]
        ranked = None
        action = f"Dequeue {parent.label}"
        parent_lists = live[parent]
        for child in tree.children(parent):
            lists = NNLists.inherited(child, parent_lists)
            if locality:
                lists.remove(parent)
            verdict = is_hit_or_drop(lists)
            if verdict is Verdict.UNDECIDED:
                if locality and child.is_node:
                    lists.add_self()
                if ranked is None:
                    ranked = _ranked(queue)
                hits += map(object_entry, state.rol[len(hits):])
                candidates = state.col[state.col_lo:] + hits + ranked
                pairs: dict[Entry, tuple[float, float]] = {}
                if locality:
                    # the later variant scans neighbors most-similar first
                    pairs = {e: lists.bounds(e) for e in candidates}
                    candidates.sort(key=lambda e: (-pairs[e][1], e))
                for other in candidates:  # never the child, which is new to the run
                    bounds = lists.update_with(other, pairs.get(other))
                    verdict = is_hit_or_drop(lists)
                    if verdict is not Verdict.UNDECIDED:
                        break
                    other_lists = live.get(other)  # queued or a candidate
                    if other_lists is not None:
                        other_lists.update_with(child, bounds)
                        other_verdict = is_hit_or_drop(other_lists)
                        if other_verdict is not Verdict.UNDECIDED:
                            if other.is_node:
                                del queue[other]
                                ranked = None
                            else:  # a new list: the trace's windows keep the old one
                                state.col, state.col_lo = [c for c in state.col[state.col_lo:]
                                                           if c != other], 0
                            _route(state, tree, other, other_verdict)
                            del live[other]
            # a routed or expanded entry's list is never read again: only
            # queued entries and candidates keep theirs
            if verdict is Verdict.UNDECIDED:
                live[child] = lists
                if child.is_node:
                    queue[child] = lists.optimistic
                    ranked = None
                    action += f", Enqueue {child.label}"
                else:
                    state.col.append(child)
            else:
                _route(state, tree, child, verdict)
        del live[parent]
        # keep the trace's U column consistent with the live queue
        state.u = ranked = _ranked(queue) if ranked is None else ranked
        state.snapshot(action)

    _faulty_final_verification(state, tree, hits, live)
    return state


def _faulty_final_verification(state: EngineState, tree: IurTree, hits: list[Entry],
                               live: dict[Entry, NNLists]) -> None:
    """The legacy cleanup pass: feed pruned entries to the candidates, whose
    lists ``live`` holds.

    Entries come off the pruned list deepest-first and are replaced by their
    children, so candidates eventually see plain points.  Candidates left
    undecided (there may be nothing pruned, or too few slots) are settled,
    first to last, against the result points (``hits`` holds the entries of
    the first ids on ROL) and the later candidates; one still undecided is
    accepted, as an object short of k competitors has the query among its k
    nearest.
    """
    working = [(-tree.depth(e), e) for e in state.pel]  # a heap, deepest first
    heapq.heapify(working)
    while state.col_lo < len(state.col) and working:
        neg_depth, entry = heapq.heappop(working)
        for candidate in state.col[state.col_lo:]:
            lists = live[candidate]
            lists.update_with(entry)
            verdict = is_hit_or_drop(lists)
            if verdict is not Verdict.UNDECIDED:
                state.col, state.col_lo = [c for c in state.col[state.col_lo:]
                                           if c != candidate], 0
                _route(state, tree, candidate, verdict)
                state.snapshot(f"Verify {candidate.label}")
        for child in tree.children(entry):
            heapq.heappush(working, (neg_depth - 1, child))
    while state.col_lo < len(state.col):
        candidate = state.col[state.col_lo]
        lists = live[candidate]
        hits += map(object_entry, state.rol[len(hits):])
        for other in hits + state.col[state.col_lo + 1:]:
            lists.update_with(other)
        verdict = is_hit_or_drop(lists)
        if verdict is Verdict.UNDECIDED:
            # fewer than k neighbors reachable: unconditional member
            verdict = Verdict.HIT
        state.col_lo += 1
        _route(state, tree, candidate, verdict)
        state.snapshot(f"Verify {candidate.label}")


# -- public entry points -------------------------------------------------------


def rstknn_query(tree: IurTree, query: QueryObject, params: SimParams,
                 mode: Mode = Mode.CORRECT, *, stats: NormStats | None = None,
                 audit: EngineAudit | None = None) -> tuple[set[str], list[TraceEvent]]:
    """Run a reverse spatio-textual k-NN query.

    Returns the result object ids and the recorded trace.  ``stats`` defaults
    to the tree's cached dataset statistics; pass them explicitly to share
    the exact same values with an external oracle.
    """
    if stats is None:
        stats = tree.norm_stats()
    if mode is Mode.CORRECT:
        state = _run_correct(tree, query, params, stats, audit)
    elif mode is Mode.FAULTY2011:
        state = _run_faulty(tree, query, params, stats, locality=False)
    elif mode is Mode.FAULTY2014:
        state = _run_faulty(tree, query, params, stats, locality=True)
    else:  # pragma: no cover
        raise ValueError(f"unknown mode {mode!r}")
    return set(state.rol), state.trace


# -- trace serialization --------------------------------------------------------


_COLUMNS = ("Steps", "Actions", "U", "COL", "ROL", "PEL")


def format_trace_table(trace: list[TraceEvent]) -> str:
    """Plain-text table with columns Steps | Actions | U | COL | ROL | PEL."""
    rows = [
        (
            str(ev.step),
            ev.action,
            ", ".join(ev.u),
            ", ".join(ev.col),
            ", ".join(ev.rol),
            ", ".join(ev.pel),
        )
        for ev in trace
    ]
    widths = [
        max(len(_COLUMNS[i]), *(len(r[i]) for r in rows)) if rows else len(_COLUMNS[i])
        for i in range(len(_COLUMNS))
    ]
    lines = [" | ".join(c.ljust(widths[i]) for i, c in enumerate(_COLUMNS))]
    lines.append("-+-".join("-" * w for w in widths))
    for r in rows:
        lines.append(" | ".join(c.ljust(widths[i]) for i, c in enumerate(r)))
    return "\n".join(lines)


def trace_to_jsonl(trace: list[TraceEvent]) -> str:
    """One JSON object per line, one line per trace event."""
    return "\n".join(json.dumps(ev.to_json_dict()) for ev in trace)
