"""The benchmark's traced run still sees every layer it wraps.

``perfbench/tracing.py`` observes the program by replacing names in the
modules that look them up (``nn_lists.pair_sim_bounds``,
``engine.is_hit_or_drop``, ``NNLists.update_with`` and others).  If the
program stops calling one of those names, the traced counts silently drop to
zero; this test catches that.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from rstknn import engine
from rstknn.core import QueryObject, SimParams, STObject, TermVector
from rstknn.demo import two_cluster_fixture
from rstknn.engine import Mode, rstknn_query
from rstknn.iur_tree import build_tree
from rstknn.nn_lists import NNLists

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

BOUNDS_AND_TESTS = ("iur_tree.pair_bounds.calls", "iur_tree.query_bounds.calls", "engine.tests")
# the correct mode keeps no NN-lists: its owners decide on rows, which need
# no scalar pair bound on the demo fixture (see _exact_ties)
COUNTERS = {Mode.CORRECT: BOUNDS_AND_TESTS[1:],
            Mode.FAULTY2011: (*BOUNDS_AND_TESTS, "nn_lists.update_with.calls"),
            Mode.FAULTY2014: (*BOUNDS_AND_TESTS, "nn_lists.update_with.calls")}


def _exact_ties():
    """A tree whose objects share a few grid locations and term vectors, and
    a query that copies one of them: many row elements tie their threshold
    exactly and go to the scalar pair bounds."""
    rng = random.Random(5)
    locs = [(float(rng.randint(0, 3)), float(rng.randint(0, 3))) for _ in range(3)]
    vcts = [TermVector({f"t{j}": float(rng.randint(1, 3)) for j in rng.sample(range(4), 2)})
            for _ in range(3)]
    objs = [STObject(f"P{i}", rng.choice(locs), rng.choice(vcts)) for i in range(24)]
    return build_tree(objs, 2), QueryObject(objs[0].loc, objs[0].vct), SimParams(0.4, 2)


@pytest.fixture
def tracer_cls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    return Tracer


@pytest.mark.parametrize("mode", list(Mode))
def test_traced_demo_counts_every_layer(tracer_cls, mode):
    fx = two_cluster_fixture()
    tree = fx.build_tree()
    stats = tree.norm_stats()
    tracer = tracer_cls()
    originals = (engine.is_hit_or_drop, NNLists.__dict__["update_with"])
    with tracer.installed():
        result, trace = tracer.query(
            mode.value, lambda: rstknn_query(tree, fx.query, fx.params, mode, stats=stats)
        )
    assert trace
    for name in COUNTERS[mode]:
        assert tracer.values[f"{name}.{mode.value}"] > 0, name
    if mode is Mode.CORRECT:
        assert tracer.values["nn_lists.lists_created.correct"] == 0
        ties, query, params = _exact_ties()
        with tracer.installed():
            tracer.query(mode.value, lambda: rstknn_query(ties, query, params))
        assert tracer.values["iur_tree.pair_bounds.calls.correct"] > 0
    # the wrappers are removed again
    assert (engine.is_hit_or_drop, NNLists.__dict__["update_with"]) == originals
    assert rstknn_query(tree, fx.query, fx.params, mode, stats=stats)[0] == result


def test_traced_correct_mode_counts_object_decisions(tracer_cls):
    # object owners decide on rows, not on NN-lists; a verdict that bypassed
    # engine.is_hit_or_drop would leave the object decision counters at zero
    fx = two_cluster_fixture()
    tree = fx.build_tree()
    stats = tree.norm_stats()
    tracer = tracer_cls()
    with tracer.installed():
        tracer.query("correct", lambda: rstknn_query(tree, fx.query, fx.params, stats=stats))
    decided = sum(tracer.values[f"engine.decisions.{v}.object.correct"] for v in ("hit", "drop"))
    assert decided > 0
