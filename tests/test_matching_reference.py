"""Agreement of the greedy split walk with the subset-rank table of
``brute_linalg``.

``retrieval._deficient_splits`` ranks each side by a greedy matching of
points to the shifts they touch; the table ranks every subset of the
collocation rows by elimination.  A split qualifies when both of its
halves rank below w + m."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from brute_linalg import _subset_ranks
from splinephase import SampleSet
from splinephase.collocation import _collocation_rows
from splinephase.retrieval import _deficient_splits

F = Fraction


def reference_masks(ranks, width, subset):
    """The splits of ``subset`` with both halves ranked below ``width`` by the table.

    Each split is given by the mask of its first side, which holds the
    lowest member of ``subset``.
    """
    low, found, side = subset & -subset, set(), subset
    while side:
        if side & low and ranks[side] < width and ranks[subset ^ side] < width:
            found.add(side)
        side = (side - 1) & subset
    return found


def walk_masks(E, m, points):
    """The walk's splits of E as first-side masks over ``points``.

    Both sides must list their points in increasing order, each split must
    come once, and (E, empty) may come only first.
    """
    index = {x: j for j, x in enumerate(points)}
    members = [index[x] for x in E.points]
    masks = []
    for side1, side2 in _deficient_splits(E, m):
        one, two = [index[x] for x in side1], [index[x] for x in side2]
        assert one == sorted(one) and two == sorted(two) and sorted(one + two) == members, (E, m)
        masks.append(sum(1 << j for j in one))
    assert len(set(masks)) == len(masks) and sum(1 << j for j in members) not in masks[1:], (E, m)
    return masks


def test_every_subset_of_three_grids():
    checked, full_rank = 0, 0
    for den, width in ((4, 2), (2, 3), (3, 2)):
        grid = [F(i, den) for i in range(den * width + 1)]
        for m in (1, 2, 3):
            ranks = _subset_ranks(_collocation_rows(m, (0, width), grid), width + m)
            for r in range(1, len(grid) + 1):
                for chosen in itertools.combinations(range(len(grid)), r):
                    E = SampleSet(tuple(grid[j] for j in chosen), (0, width))
                    subset = sum(1 << j for j in chosen)
                    masks = walk_masks(E, m, grid)
                    assert set(masks) == reference_masks(ranks, width + m, subset), (E, m)
                    checked += 1
                    full_rank += subset not in masks
    assert checked == 2295 and 0 < full_rank < checked


def test_seeded_sets_of_twelve_to_sixteen_points():
    rng = random.Random(2207)
    counts = []
    for size in (12, 13, 14, 15, 16):
        width, m = rng.randint(4, 5), rng.randint(1, 3)
        grid = [F(i, 4) for i in range(4 * width + 1)]
        E = SampleSet(tuple(sorted(rng.sample(grid, size))), (0, width))
        ranks = _subset_ranks(_collocation_rows(m, E.window, E.points), width + m)
        masks = walk_masks(E, m, E.points)
        assert set(masks) == reference_masks(ranks, width + m, (1 << size) - 1), (E, m)
        counts.append(len(masks))
    assert min(counts) > 0


def test_empty_set_has_the_one_empty_split():
    for m in (1, 2):
        assert list(_deficient_splits(SampleSet((), (0, 2)), m)) == [((), ())]
