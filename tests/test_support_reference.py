"""The run scan of ``retrieval._find_support_violation`` against the submask
enumeration in ``brute_retrieval``: the same verdict on every split, and
every pair the scan returns vanishes on its sides with a gap-free union."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import brute_retrieval as brute
from splinephase.bspline import support_runs
from splinephase.collocation import _collocation_rows
from splinephase.retrieval import _find_support_violation, _support_mask

F = Fraction


@lru_cache(maxsize=None)
def vanishes(vec, m, window, side):
    return all(
        sum(a * b for a, b in zip(row, vec)) == 0
        for row in _collocation_rows(m, window, side)
    )


def compare_splits(points, window, m):
    """Check every unordered split, then (empty, points); return (splits, hits)."""
    splits = list(brute.unordered_partitions(points)) + [((), points)]
    hits = 0
    for side1, side2 in splits:
        got = _find_support_violation(m, window, side1, side2)
        want = brute.submask_support_violation(m, window, side1, side2)
        assert (got is None) == (want is None), (points, window, m, side1)
        if got is not None:
            hits += 1
            g, h = got
            assert any(g) and any(h)
            assert vanishes(g, m, window, side1) and vanishes(h, m, window, side2)
            union = _support_mask(g) | _support_mask(h)
            assert len(support_runs([j for j in range(len(g)) if union >> j & 1], m)) == 1
    return len(splits), hits


def every_subset(grid, window, degrees):
    splits, hits = 0, 0
    for m in degrees:
        for r in range(len(grid) + 1):
            for points in itertools.combinations(grid, r):
                s, h = compare_splits(points, window, m)
                splits, hits = splits + s, hits + h
    return splits, hits


def test_every_split_of_the_quarter_and_half_grids():
    splits, hits = 0, 0
    for step, width in ((F(1, 4), 2), (F(1, 2), 3)):
        grid = [step * i for i in range(int(width / step) + 1)]
        s, h = every_subset(grid, (0, width), (1, 2, 3))
        splits, hits = splits + s, hits + h
    assert splits == 34728 and 0 < hits < splits


def test_every_split_in_a_one_unit_window():
    # No gap of m+1 fits in one unit, so any two nonzero spaces refute.
    splits, hits = every_subset([F(i, 6) for i in range(7)], (0, 1), (1, 2, 3))
    assert splits == 3 * ((3 ** 7 + 1) // 2 + 2 ** 7) and 0 < hits < splits


def test_seeded_wide_windows():
    rng = random.Random(1305)
    for size, width, m in ((9, 4, 1), (8, 4, 2), (9, 5, 1)):
        grid = [F(i, 3) for i in range(3 * width + 1)]
        points = tuple(sorted(rng.sample(grid, size)))
        splits, hits = compare_splits(points, (0, width), m)
        assert splits == 2 ** (size - 1) + 1 and 0 < hits < splits
