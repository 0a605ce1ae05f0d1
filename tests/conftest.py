"""Shared helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from rstknn import build_tree
from rstknn.datasets import random_dataset
from rstknn.iur_tree import tree_from_layout


@pytest.fixture
def rng():
    return random.Random(20240817)


def _chain_layout(rng: random.Random, ids: list[str]) -> list:
    """A random nesting of ``ids`` with single-child chain nodes and
    single-object leaves."""
    if len(ids) == 1 or (len(ids) <= 3 and rng.random() < 0.6):
        layout: list = list(ids)
    else:
        cuts = sorted(rng.sample(range(1, len(ids)), min(len(ids) - 1, rng.randint(1, 3))))
        bounds = [0, *cuts, len(ids)]
        layout = [_chain_layout(rng, ids[a:b]) for a, b in zip(bounds, bounds[1:])]
    while rng.random() < 0.3:
        layout = [layout]  # a single-child node above it
    return layout


def wrapped(layout: list, depth: int) -> list:
    """``layout`` under a chain of ``depth`` single-child nodes."""
    for _ in range(depth):
        layout = [layout]
    return layout


@pytest.fixture
def equal_span_trees():
    """Trees where entries share a preorder span with a descendant.

    STR trees with n = 1 (mod fanout) end in a single-object leaf (and often
    in single-child nodes above it); hand-nested layouts add chains anywhere,
    a few of them dozens of nodes deep.
    """
    rng = random.Random(7)
    trees = []
    for fanout in (2, 3, 4, 8):
        for j in (1, 2, 3, 4):
            trees.append(build_tree(random_dataset(rng, fanout * j + 1, 5), fanout))
    for _ in range(12):
        objects = random_dataset(rng, rng.randint(1, 14), 5)
        trees.append(tree_from_layout(objects, _chain_layout(rng, [o.id for o in objects])))
    for depth in (3, 17, 40):
        objects = random_dataset(rng, 1, 5)
        trees.append(tree_from_layout(objects, wrapped([objects[0].id], depth)))
    objects = random_dataset(rng, 6, 5)
    ids = [o.id for o in objects]
    layout = [wrapped(ids[:1], 12), wrapped(ids[1:3], 8), ids[3:]]
    trees.append(tree_from_layout(objects, wrapped(layout, 5)))
    return trees
