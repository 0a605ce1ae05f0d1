"""The benchmark's traced run still sees every layer it wraps.

``perfbench/tracing.py`` observes the program by replacing names in the
modules that look them up (``nn_lists.pair_sim_bounds``,
``engine.is_hit_or_drop``, ``NNLists.update_with`` and others).  If the
program stops calling one of those names, the traced counts silently drop to
zero; this test catches that.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from rstknn import engine
from rstknn.demo import two_cluster_fixture
from rstknn.engine import Mode, rstknn_query
from rstknn.nn_lists import NNLists

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

BOUNDS_AND_TESTS = ("iur_tree.pair_bounds.calls", "iur_tree.query_bounds.calls", "engine.tests")
# the correct mode keeps no NN-lists: its owners decide on rows
COUNTERS = {Mode.CORRECT: BOUNDS_AND_TESTS,
            Mode.FAULTY2011: (*BOUNDS_AND_TESTS, "nn_lists.update_with.calls"),
            Mode.FAULTY2014: (*BOUNDS_AND_TESTS, "nn_lists.update_with.calls")}


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
