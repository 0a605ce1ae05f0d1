"""The paper's two necessary conditions, each removed from the correct engine.

A node's row gives the node's own element count - 1 slots (self-accounting),
and every decision waits for a frontier that covers all n objects
(completeness).  Each ablation below removes one condition by monkeypatching
alone, and a small seeded sweep shows that the engine then disagrees with
the brute-force oracle, while the unpatched engine agrees on every instance.
"""

import random

from rstknn.core import SimParams
from rstknn.datasets import random_dataset, random_query
from rstknn.engine import CompletenessViolation, rstknn_query
from rstknn.iur_tree import build_tree
from rstknn.nn_lists import Row, Rows
from rstknn.oracle import rknn_bruteforce

SWEEP = range(60)


def _instance(seed):
    rng = random.Random(seed)
    objects = random_dataset(rng, rng.randint(4, 40), 6)
    query = random_query(rng, 6)
    params = SimParams(alpha=rng.choice((0.0, 0.4, 0.7, 1.0)), k=rng.randint(1, 4))
    return objects, build_tree(objects, rng.choice((2, 3, 4))), query, params


def _outcomes():
    """For each instance of the sweep: whether the correct mode's answer
    equals the oracle's, or ``CompletenessViolation`` if it raised one."""
    out = []
    for seed in SWEEP:
        objects, tree, query, params = _instance(seed)
        stats = tree.norm_stats()
        try:
            got, _ = rstknn_query(tree, query, params, stats=stats)
        except CompletenessViolation:
            out.append(CompletenessViolation)
            continue
        out.append(got == rknn_bruteforce(objects, query, params, stats))
    return out


def _without_self_accounting(monkeypatch):
    """The owner's own element holds no slot, not count - 1."""
    slots = Rows._slots

    def slots_without_own(self, i, lo=0, hi=None):
        m = slots(self, i, lo, hi)
        if 0 <= i - lo < len(m):
            m[i - lo] = 0
        return m

    monkeypatch.setattr(Rows, "_slots", slots_without_own)


def _without_completeness(monkeypatch):
    """A decided entry leaves the frontier, so later rows miss its objects."""
    decided = Rows.decided

    def decided_and_dropped(self, entry):
        decided(self, entry)
        self._flip([self.arrays.index[entry]])

    monkeypatch.setattr(Rows, "decided", decided_and_dropped)


def test_the_unpatched_engine_equals_the_oracle_on_the_sweep():
    assert _outcomes() == [True] * len(SWEEP)


def test_without_self_accounting_the_engine_answers_wrong(monkeypatch):
    _without_self_accounting(monkeypatch)
    outcomes = _outcomes()
    assert CompletenessViolation not in outcomes  # the frontier still covers every object
    assert False in outcomes


def test_without_completeness_the_gate_raises(monkeypatch):
    _without_completeness(monkeypatch)
    assert CompletenessViolation in _outcomes()


def test_without_completeness_or_its_gate_the_engine_answers_wrong(monkeypatch):
    _without_completeness(monkeypatch)
    monkeypatch.setattr(Row, "is_complete", lambda self: True)
    assert False in _outcomes()
