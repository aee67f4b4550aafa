"""Agreement of the rank-split frame test with the stacked-rank loop in
``brute_frames``, and of its column-subset rank table with ``exact_rank``.

The library drops zero columns itself; the reference is handed the frame
without them."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import brute_frames as brute
from splinephase import SampleSet, build_collocation, exact_rank, is_almost_phase_retrievable
from splinephase.frames import _subset_ranks

F = Fraction


def without_zero_columns(mat):
    return tuple(zip(*[col for col in zip(*mat) if any(col)]))


def assert_same_verdict(mat):
    got = is_almost_phase_retrievable(mat)
    assert got == brute.is_almost_phase_retrievable(without_zero_columns(mat)), mat
    return got


def random_frame(rng, n, ncols):
    """A full-rank rational frame; some columns repeat or scale earlier ones, some are zero."""
    while True:
        cols = []
        for _ in range(ncols):
            roll = rng.random()
            if cols and roll < 0.15:
                cols.append(rng.choice(cols))
            elif cols and roll < 0.3:
                c = F(rng.choice([-3, -2, -1, 2, 3]), rng.randint(1, 3))
                cols.append(tuple(c * v for v in rng.choice(cols)))
            elif roll < 0.4:
                cols.append((F(0),) * n)
            else:
                cols.append(tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)))
        mat = tuple(zip(*cols))
        if exact_rank(mat) == n:
            return mat


def collocation_frame(points, window, m):
    """The collocation matrix of the points, or None when its rows are dependent."""
    mat = build_collocation(SampleSet(points, window), m).entries
    return mat if exact_rank(mat) == len(mat) else None


def test_random_rational_frames():
    rng = random.Random(611)
    verdicts, with_zero = set(), 0
    for _ in range(100):
        n = rng.randint(2, 5)
        mat = random_frame(rng, n, rng.randint(n, 10))
        verdicts.add(assert_same_verdict(mat))
        with_zero += without_zero_columns(mat) != mat
    assert verdicts == {True, False} and with_zero >= 10


def test_every_quarter_grid_collocation_frame():
    checked, passing = 0, 0
    for width in (1, 2):
        grid = [F(i, 4) for i in range(4 * width + 1)]
        for m in (1, 2, 3):
            for r in range(len(grid) + 1):
                for points in itertools.combinations(grid, r):
                    mat = collocation_frame(points, (0, width), m)
                    if mat is not None:
                        checked += 1
                        passing += assert_same_verdict(mat)
    assert checked == 1106 and 0 < passing < checked


def test_wide_quarter_grid_collocation_frames():
    rng = random.Random(613)
    verdicts, checked = set(), 0
    while checked < 8:
        ncols, m = 8 + checked % 4, rng.randint(1, 3)
        width = rng.randint(2 if ncols <= 9 else 3, 4)
        grid = [F(i, 4) for i in range(4 * width + 1)]
        mat = collocation_frame(tuple(sorted(rng.sample(grid, ncols))), (0, width), m)
        if mat is not None:
            checked += 1
            verdicts.add(assert_same_verdict(mat))
    assert verdicts == {True, False}


def test_subset_ranks_are_column_submatrix_ranks():
    rng = random.Random(617)
    frames = [random_frame(rng, n, ncols) for n, ncols in ((2, 4), (3, 5), (3, 6), (4, 6))]
    frames.append(collocation_frame((F(1, 4), F(1, 2), F(5, 4), F(3, 2), F(7, 4)), (0, 2), 2))
    for mat in frames:
        ranks = _subset_ranks(mat)
        ncols = len(mat[0])
        assert len(ranks) == 2 ** ncols
        for mask, rank in enumerate(ranks):
            cols = [j for j in range(ncols) if mask >> j & 1]
            assert rank == exact_rank(tuple(tuple(row[j] for j in cols) for row in mat)), (mat, mask)
