"""Agreement of the rank-split frame test with the stacked-rank loop in
``brute_frames``.

The library drops zero columns itself; the reference is handed the frame
without them."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import brute_frames as brute
from conftest import collocation_frame, random_frame
from splinephase import is_almost_phase_retrievable

F = Fraction


def without_zero_columns(mat):
    return tuple(zip(*[col for col in zip(*mat) if any(col)]))


def assert_same_verdict(mat):
    got = is_almost_phase_retrievable(mat)
    assert got == brute.is_almost_phase_retrievable(without_zero_columns(mat)), mat
    return got


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
