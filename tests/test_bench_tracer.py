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

COUNTERS = (
    "iur_tree.pair_bounds.calls",
    "iur_tree.query_bounds.calls",
    "nn_lists.update_with.calls",
    "engine.tests",
)


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
    for name in COUNTERS:
        assert tracer.values[f"{name}.{mode.value}"] > 0, name
    # the wrappers are removed again
    assert (engine.is_hit_or_drop, NNLists.__dict__["update_with"]) == originals
    assert rstknn_query(tree, fx.query, fx.params, mode, stats=stats)[0] == result
