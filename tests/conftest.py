"""Shared helpers for the test suite."""

from __future__ import annotations

import random
import runpy
import warnings
from pathlib import Path

import pytest

from rstknn.datasets import random_dataset
from rstknn.iur_tree import _str_layout, object_entry, tree_from_layout

# When a property fails, hypothesis's pytest plugin imports libcst to write
# the failing example as a patch, and libcst's import raises a
# DeprecationWarning that ``-W error`` (the CI command) turns into an
# INTERNALERROR, losing the report.  Importing it here first, with that one
# warning ignored, leaves the plugin a module that is already loaded.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:  # the plugin then writes no patch, and warns nothing
        pass

# the off-grid and extreme digests' instances and the random chain-layout
# generator, which draw exactly as the digests' goldens were made
_digest = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "trace_digest.py"))
_chain_layout, offgrid_instance = _digest["_chain_layout"], _digest["offgrid_instance"]
extreme_instance = _digest["extreme_instance"]


@pytest.fixture
def rng():
    return random.Random(20240817)


def all_entries(tree) -> list:
    """Every entry of ``tree``: the nodes in id order, then the objects by id."""
    return [*tree.iter_node_entries(), *(object_entry(i) for i in sorted(tree.objects))]


def wrapped(layout: list, depth: int) -> list:
    """``layout`` under a chain of ``depth`` single-child nodes."""
    for _ in range(depth):
        layout = [layout]
    return layout


@pytest.fixture
def equal_span_layouts():
    """(objects, layout) pairs whose trees have entries sharing a preorder
    span with a descendant.

    STR layouts with n = 1 (mod fanout) end in a single-object leaf (and often
    in single-child nodes above it); hand-nested layouts add chains anywhere,
    a few of them dozens of nodes deep.
    """
    rng = random.Random(7)
    cases = []
    for fanout in (2, 3, 4, 8):
        for j in (1, 2, 3, 4):
            objects = random_dataset(rng, fanout * j + 1, 5)
            cases.append((objects, _str_layout(objects, fanout)))
    for _ in range(12):
        objects = random_dataset(rng, rng.randint(1, 14), 5)
        cases.append((objects, _chain_layout(rng, [o.id for o in objects])))
    for depth in (3, 17, 40):
        objects = random_dataset(rng, 1, 5)
        cases.append((objects, wrapped([objects[0].id], depth)))
    objects = random_dataset(rng, 6, 5)
    ids = [o.id for o in objects]
    layout = [wrapped(ids[:1], 12), wrapped(ids[1:3], 8), ids[3:]]
    cases.append((objects, wrapped(layout, 5)))
    return cases


@pytest.fixture
def equal_span_trees(equal_span_layouts):
    """The trees of :func:`equal_span_layouts`."""
    return [tree_from_layout(objects, layout) for objects, layout in equal_span_layouts]
