"""Branch-and-bound reverse spatio-textual k-NN traversal.

Three query modes share the bound machinery but differ in control flow:

* ``CORRECT`` — FIFO queue over a frontier of tree entries (queued,
  candidate and routed) that partitions the dataset.  Every NN-list is a
  partition of the dataset too, so it is complete by construction.  Each
  dequeued entry splits its inherited list toward itself and adds itself
  when it is an index node (locality), then runs a demand-driven exchange:
  its tuples that do not yet hold direct bounds for frontier entries are
  visited by decreasing upper bound, and the frontier entries under each
  are refined, each pair bound also refining the other entry's list.  The
  exchange stops once the list's slot counts decide the entry, or once no
  remaining tuple can change its verdict.  A runtime assertion verifies
  that every list is complete at test time; survivors of the main loop are
  settled by the same exchange over single objects.  An entry's lists are
  freed once it is decided or expanded.
* ``FAULTY2011`` — a reproduction of the legacy priority-queue algorithm
  that never lets a node account for its own contents.  Intentionally
  unsound; kept as an executable regression of that failure mode.
* ``FAULTY2014`` — the later legacy variant that restored self-accounting
  but still accepts on upper bounds computed from incomplete lists.
  Intentionally unsound as well.

Every run records a trace: one event per dequeue plus one per verified
candidate, each with snapshots of the queue and the candidate/result/pruned
lists.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from .core import NormStats, QueryObject, SimParams
from .iur_tree import Entry, IurTree, max_sim_st, object_entry
from .nn_lists import NNLists, Verdict, is_hit_or_drop


class Mode(str, Enum):
    CORRECT = "correct"
    FAULTY2011 = "faulty2011"
    FAULTY2014 = "faulty2014"


class CompletenessViolation(RuntimeError):
    """An accept/prune test was about to run on an incomplete list."""


@dataclass
class TraceEvent:
    """One row of the run log, mirroring the Steps/Actions/U/COL/ROL/PEL table."""

    step: int
    action: str
    u: list[str]
    col: list[str]
    rol: list[str]
    pel: list[str]

    def to_json_dict(self) -> dict:
        return {
            "step": self.step,
            "action": self.action,
            "U": self.u,
            "COL": self.col,
            "ROL": self.rol,
            "PEL": self.pel,
        }


@dataclass
class EngineAudit:
    """Counters and optional bound samples collected from a correct-mode run."""

    completeness_evaluations: int = 0
    completeness_failures: int = 0
    record_bounds: bool = False
    bound_records: list[tuple[Entry, float | None, float | None]] = field(default_factory=list)


@dataclass
class EngineState:
    """Mutable working state of one traversal; owned by a single run."""

    u: deque[Entry]
    col: list[Entry]
    rol: list[str]
    pel: list[Entry]
    lists: dict[Entry, NNLists]
    trace: list[TraceEvent]
    step: int = 0

    def snapshot(self, action: str) -> None:
        self.step += 1
        self.trace.append(
            TraceEvent(
                step=self.step,
                action=action,
                u=[e.label for e in self.u],
                col=[e.label for e in self.col],
                rol=list(self.rol),
                pel=[e.label for e in self.pel],
            )
        )


# -- correct mode -----------------------------------------------------------


def _route(state: EngineState, tree: IurTree, entry: Entry, verdict: Verdict) -> None:
    if verdict is Verdict.HIT:
        state.rol.extend(tree.subtree_objects(entry))
    elif verdict is Verdict.DROP:
        state.pel.append(entry)


def _assert_complete(lists: NNLists, audit: EngineAudit | None) -> None:
    if audit is not None:
        audit.completeness_evaluations += 1
    if not lists.is_complete():
        if audit is not None:
            audit.completeness_failures += 1
        raise CompletenessViolation(
            f"incomplete NN-list for {lists.owner.label} at decision time"
        )


def _checked_verdict(lists: NNLists, query: QueryObject, params: SimParams,
                     stats: NormStats, audit: EngineAudit | None,
                     query_bounds: tuple[float, float]) -> Verdict:
    _assert_complete(lists, audit)
    if audit is not None and audit.record_bounds:
        audit.bound_records.append(
            (lists.owner, lists.knn_lower(params.k), lists.knn_upper(params.k))
        )
    verdict = is_hit_or_drop(lists, query, params, stats, query_bounds=query_bounds)
    if audit is not None and lists.counted_verdict(params.k) is not verdict:
        raise AssertionError(f"slot counts and walks disagree on {lists.owner.label}")
    return verdict


def _frontier_under(tree: IurTree, entry: Entry, frontier: set[Entry]) -> Iterator[Entry]:
    """The frontier entries in ``entry``'s subtree, in preorder."""
    stack = [entry]
    while stack:
        e = stack.pop()
        if e in frontier:
            yield e
        else:
            stack.extend(reversed(tree.children(e)))


def _exchange(lists: NNLists, frontier: set[Entry], others: dict[Entry, NNLists],
              query: QueryObject, params: SimParams,
              stats: NormStats) -> tuple[float, float]:
    """Refine the owner's list toward the frontier where its verdict can change.

    A tuple is settled when it holds direct bounds for a frontier entry.
    The unsettled tuples are visited by decreasing upper bound, and every
    frontier entry under one is refined; the same pair bounds refine that
    entry's list toward the owner, if ``others`` holds one.  The exchange
    stops as soon as the slot counts decide the owner, or at the first tuple
    whose upper bound is below the owner's pessimistic query similarity:
    such a tuple counts toward neither mass, and its subsets' bounds cannot
    make it.  Returns the owner's query bounds.
    """
    query_bounds = lists.watch(query, params, stats)
    owner, k = lists.owner, params.k
    unsettled = sorted(
        (t for t in lists.tuples()
         if t.entry != owner and not (t.direct and t.entry in frontier)),
        key=lambda t: -t.max_sim,
    )
    for t in unsettled:
        if t.max_sim < query_bounds[0]:
            break
        for b in _frontier_under(lists.tree, t.entry, frontier):
            if lists.counted_verdict(k) is not Verdict.UNDECIDED:
                return query_bounds
            bounds = lists.refine(b, params, stats)
            other = others.get(b)
            if other is not None:
                other.refine(owner, params, stats, bounds)
    return query_bounds


def _run_correct(tree: IurTree, query: QueryObject, params: SimParams,
                 stats: NormStats, audit: EngineAudit | None) -> EngineState:
    state = EngineState(u=deque(), col=[], rol=[], pel=[], lists={}, trace=[])
    root = tree.root_entry()
    state.u.append(root)
    state.lists[root] = NNLists(root, tree)
    state.lists[root].add_self(params, stats)
    frontier = {root}  # queued, candidate and routed entries: a partition of the dataset

    while state.u:
        entry = state.u.popleft()
        action = f"Dequeue {entry.label}"
        lists = state.lists[entry]
        lists.split(entry)
        if entry.is_node and not lists.get(entry).direct:  # type: ignore[union-attr]
            lists.add_self(params, stats)
        query_bounds = _exchange(lists, frontier, state.lists, query, params, stats)
        verdict = _checked_verdict(lists, query, params, stats, audit, query_bounds)
        # a decided or expanded entry's list is never read again: free it;
        # candidates keep theirs for final_verification
        if verdict is not Verdict.UNDECIDED:
            _route(state, tree, entry, verdict)
            del state.lists[entry]
        elif entry.is_node:
            frontier.remove(entry)
            for child in tree.children(entry):
                state.lists[child] = NNLists.inherited(child, lists)
                state.u.append(child)
                frontier.add(child)
                action += f", Enqueue {child.label}"
            del state.lists[entry]
        else:
            state.col.append(entry)
        state.snapshot(action)

    final_verification(state, tree, query, params, stats, audit=audit)
    return state


def final_verification(state: EngineState, tree: IurTree, query: QueryObject,
                       params: SimParams, stats: NormStats,
                       audit: EngineAudit | None = None) -> None:
    """Settle the candidates left after the main loop.

    Each candidate runs the exchange again with single objects as the
    frontier, also refining the lists of the candidates still unsettled.
    Bounds between two objects, and between an object and the query, are
    exact (lower equals upper), so once every tuple whose upper bound
    reaches the candidate's query similarity is an object tuple, the two
    slot counts coincide and the accept/prune test is decisive: the
    candidate list empties in one pass.
    """
    if not state.col:
        return
    points = {object_entry(oid) for oid in tree.objects}
    for candidate in list(state.col):
        lists = state.lists[candidate]
        others = {c: state.lists[c] for c in state.col if c != candidate}
        query_bounds = _exchange(lists, points, others, query, params, stats)
        verdict = _checked_verdict(lists, query, params, stats, audit, query_bounds)
        if verdict is Verdict.UNDECIDED:  # pragma: no cover - impossible with exact point bounds
            raise RuntimeError(f"verification left {candidate.label} undecided")
        state.col.remove(candidate)
        _route(state, tree, candidate, verdict)
        state.snapshot(f"Verify {candidate.label}")


# -- faulty legacy modes ------------------------------------------------------


def _ranked(queue: dict[Entry, float]) -> list[Entry]:
    """Queued entries by decreasing priority, ties broken by entry order."""
    return sorted(queue, key=lambda e: (-queue[e], e.order_key))


def _ungated(lists: NNLists, query: QueryObject, params: SimParams,
             stats: NormStats) -> Verdict:
    """The legacy test: upper bounds walked without the completeness gate."""
    return is_hit_or_drop(lists, query, params, stats, gated=False)


def _run_faulty(tree: IurTree, query: QueryObject, params: SimParams,
                stats: NormStats, *, locality: bool) -> EngineState:
    """Shared skeleton of the two legacy modes.

    ``locality=False`` reproduces the earlier algorithm (no self-addition at
    all); ``locality=True`` the later variant, which adds the node itself
    after the first test and drops the parent's own tuple when inheriting.
    Both order the queue by the optimistic query similarity and both use
    upper bounds without any completeness gate.
    """
    state = EngineState(u=deque(), col=[], rol=[], pel=[], lists={}, trace=[])
    root = tree.root_entry()
    state.lists[root] = NNLists(root, tree)
    queue: dict[Entry, float] = {root: 0.0}  # live entry -> priority

    while queue:
        parent = _ranked(queue)[0]
        del queue[parent]
        action = f"Dequeue {parent.label}"
        parent_lists = state.lists[parent]
        for child in tree.children(parent):
            lists = NNLists.inherited(child, parent_lists)
            if locality:
                lists.remove(parent)
            state.lists[child] = lists
            verdict = _ungated(lists, query, params, stats)
            if verdict is Verdict.UNDECIDED:
                if locality and child.is_node:
                    lists.add_self(params, stats)
                candidates = list(state.col) + [object_entry(o) for o in state.rol]
                candidates += _ranked(queue)
                if locality:
                    # the later variant scans neighbors most-similar first
                    candidates.sort(
                        key=lambda e: (
                            -max_sim_st(tree, child, e, params, stats),
                            e.order_key,
                        )
                    )
                for other in candidates:
                    if other == child:
                        continue
                    bounds = lists.update_with(other, params, stats)
                    verdict = _ungated(lists, query, params, stats)
                    if verdict is not Verdict.UNDECIDED:
                        break
                    if other in queue or other in state.col:
                        other_lists = state.lists[other]
                        other_lists.update_with(child, params, stats, bounds)
                        other_verdict = _ungated(other_lists, query, params, stats)
                        if other_verdict is not Verdict.UNDECIDED:
                            queue.pop(other, None)
                            if other in state.col:
                                state.col.remove(other)
                            _route(state, tree, other, other_verdict)
            if verdict is Verdict.UNDECIDED:
                if child.is_node:
                    queue[child] = max_sim_st(tree, child, query, params, stats)
                    action += f", Enqueue {child.label}"
                else:
                    state.col.append(child)
            else:
                _route(state, tree, child, verdict)
        # keep the trace's U column consistent with the live queue
        state.u = deque(_ranked(queue))
        state.snapshot(action)

    _faulty_final_verification(state, tree, query, params, stats)
    return state


def _faulty_final_verification(state: EngineState, tree: IurTree, query: QueryObject,
                               params: SimParams, stats: NormStats) -> None:
    """The legacy cleanup pass: feed pruned entries to the candidates.

    Entries come off the pruned list deepest-first and are replaced by their
    children, so candidates eventually see plain points.  The printed
    procedure can leave candidates undecided (there may be nothing pruned, or
    k may exceed the coverage any list can reach); those leftovers are
    settled against the result/candidate points, and an entry whose list
    still covers fewer than k neighbors is accepted, mirroring the convention
    that an object short of k competitors has the query among its k nearest.
    """
    working = list(state.pel)
    while state.col and working:
        working.sort(key=lambda e: (-tree.depth(e), e.order_key))
        entry = working.pop(0)
        for candidate in list(state.col):
            lists = state.lists[candidate]
            lists.update_with(entry, params, stats)
            verdict = _ungated(lists, query, params, stats)
            if verdict is not Verdict.UNDECIDED:
                state.col.remove(candidate)
                _route(state, tree, candidate, verdict)
                state.snapshot(f"Verify {candidate.label}")
        if entry.is_node:
            working.extend(tree.children(entry))
    for candidate in list(state.col):
        lists = state.lists[candidate]
        for other in state.rol + [c.ident for c in state.col if c != candidate]:
            lists.update_with(object_entry(str(other)), params, stats)
        verdict = _ungated(lists, query, params, stats)
        if verdict is Verdict.UNDECIDED:
            # fewer than k neighbors reachable: unconditional member
            verdict = Verdict.HIT
        state.col.remove(candidate)
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
