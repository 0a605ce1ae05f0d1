"""Out-of-package tracing for the traced benchmark run.

Each layer is observed by wrapping a public name in the module that looks it
up, so the program itself is untouched: ``engine`` imports
``is_hit_or_drop`` and ``max_sim_st`` by name, ``nn_lists`` imports
``pair_sim_bounds``, ``min_sim_st`` and ``max_sim_st``, ``oracle`` imports
``sim_st`` and calls its own ``kth_nn_sim``, and ``iur_tree`` imports
``compute_norm_stats``.  ``NNLists`` methods are wrapped on the class.

Coarse calls (set-up steps, one query in one mode) become spans with name,
start, end and parent, kept in memory and written out as JSON lines when the
run ends.  Hot calls (hundreds of thousands per query) are not spans; they
add to counters and busy times keyed by layer, function and query mode.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from rstknn import engine, iur_tree, nn_lists, oracle
from rstknn.core import QueryObject
from rstknn.nn_lists import NNLists, Verdict

# NNLists methods that change how many tuples a list holds
_MUTATORS = ("update_with", "add_self", "strip_self_and_parent", "remove")


class Tracer:
    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._depth = 0        # nesting of timed wrappers
        self._covered = 0.0    # time inside outermost wrappers, this query
        self._live = 0         # NN-list tuples held, this query
        self._peak = 0
        self.mode = ""

    # -- spans -----------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
                  "end": None, "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write_spans(self, path: Path) -> None:
        path.write_text("".join(json.dumps(s) + "\n" for s in self.spans), encoding="utf-8")

    # -- counters --------------------------------------------------------------

    def add(self, name: str, amount: float = 1) -> None:
        self.values[f"{name}.{self.mode}" if self.mode else name] += amount

    def _track(self, delta: int) -> None:
        self._live += delta
        self._peak = max(self._peak, self._live)

    def query(self, mode: str, run):
        """Run one query in ``mode`` under a span; return its (result, trace)."""
        self.mode = mode
        self._covered = 0.0
        self._live = self._peak = 0
        try:
            with self.span(f"query.{mode}") as record:
                result, trace = run()
        except Exception:
            self.mode = ""
            raise
        seconds = record["end"] - record["start"]
        self.add("engine.self.s", seconds - self._covered)
        self.add("engine.dequeues", sum(ev.action.startswith("Dequeue") for ev in trace))
        self.add("engine.verifications", sum(ev.action.startswith("Verify") for ev in trace))
        key = f"nn_lists.tuples_live.peak.{mode}"
        self.values[key] = max(self.values[key], self._peak)
        self.mode = ""
        return result, trace

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, *, calls=None, seconds=None, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            outer = tracer._depth == 0
            tracer._depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._depth -= 1
            if outer:
                tracer._covered += dt
            if calls:
                tracer.add(calls(args) if callable(calls) else calls)
            if seconds:
                tracer.add(seconds, dt)
            if after:
                after(args, result, token)
            return result

        return wrapper

    def _count(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.add(name)
            return fn(*args, **kwargs)

        return wrapper

    @staticmethod
    def _bound_kind(args) -> str:
        query = any(isinstance(a, QueryObject) for a in args[1:3])
        return "iur_tree.query_bounds.calls" if query else "iur_tree.pair_bounds.calls"

    def _on_verdict(self, args, verdict, _token) -> None:
        if verdict is Verdict.UNDECIDED:
            self.add("engine.decisions.undecided")
        else:
            self.add(f"engine.decisions.{verdict.value}.{args[0].owner.kind}")

    def _replacements(self) -> list[tuple[object, str, object]]:
        out: list[tuple[object, str, object]] = []

        def bounds(fn, kind):
            return self._wrap(fn, calls=kind, seconds="iur_tree.bounds.s")

        out.append((nn_lists, "pair_sim_bounds",
                    bounds(nn_lists.pair_sim_bounds, "iur_tree.pair_bounds.calls")))
        for module, name in ((nn_lists, "min_sim_st"), (nn_lists, "max_sim_st"),
                             (engine, "max_sim_st")):
            out.append((module, name, bounds(getattr(module, name), self._bound_kind)))
        out.append((engine, "is_hit_or_drop", self._wrap(
            engine.is_hit_or_drop, calls="engine.tests", after=self._on_verdict)))

        for name in _MUTATORS:
            fn = getattr(NNLists, name)
            kwargs: dict = {"before": lambda args: len(args[0]),
                            "after": lambda args, _r, n0: self._track(len(args[0]) - n0)}
            if name == "update_with":
                kwargs.update(calls="nn_lists.update_with.calls",
                              seconds="nn_lists.update_with.s",
                              before=lambda args: self._scan(args[0]))
            out.append((NNLists, name, self._wrap(fn, **kwargs)))
        out.append((NNLists, "is_complete", self._wrap(
            NNLists.is_complete, calls="nn_lists.is_complete.calls",
            seconds="nn_lists.is_complete.s")))
        inherited = NNLists.__dict__["inherited"].__func__
        out.append((NNLists, "inherited", classmethod(self._wrap(
            inherited, after=lambda _a, lists, _t: self._track(len(lists))))))
        init = NNLists.__init__
        out.append((NNLists, "__init__", self._count(init, "nn_lists.lists_created")))

        out.append((oracle, "sim_st", self._count(oracle.sim_st, "core.sim_st.calls")))
        out.append((oracle, "kth_nn_sim", self._count(oracle.kth_nn_sim, "oracle.kth_nn_sim.calls")))
        out.append((iur_tree, "compute_norm_stats", self._wrap(
            iur_tree.compute_norm_stats, seconds="core.compute_norm_stats.s")))
        return out

    def _scan(self, lists: NNLists) -> int:
        held = len(lists)
        self.add("nn_lists.update_with.scanned", held)
        return held

    @contextmanager
    def installed(self):
        """Replace the traced names for the duration of the block."""
        saved = []
        for owner, name, wrapper in self._replacements():
            saved.append((owner, name, owner.__dict__[name] if isinstance(owner, type)
                          else getattr(owner, name)))
            setattr(owner, name, wrapper)
        try:
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)
