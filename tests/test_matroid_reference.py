"""The frame tests that read the reduced echelon form, against their references.

``frames.is_almost_phase_retrievable`` asks whether the column matroid is
connected; the reference reads every split off the subset-rank table of
``brute_linalg``.  ``frames.is_weak_full_spark`` looks for coloops; the
reference is the loop of ``brute_frames`` that removes each column."""

from __future__ import annotations

import random
from fractions import Fraction

import brute_frames
from brute_linalg import _subset_ranks
from splinephase import exact_rank, is_almost_phase_retrievable, is_weak_full_spark

F = Fraction


def split_verdict(mat):
    """No split of the nonzero columns has ranks summing to n."""
    cols = [col for col in zip(*mat) if any(col)]
    ranks = _subset_ranks(cols, len(mat))
    full = len(ranks) - 1
    return all(ranks[s] + ranks[full ^ s] > len(mat) for s in range(1, full, 2))


def random_entry(rng):
    return F(rng.randint(-3, 3), rng.randint(1, 3))


def block_frame(rng, n, ncols):
    """A full-rank frame whose columns mostly live on one of two coordinate blocks.

    Few or no columns bridge the blocks, so the frames are often
    disconnected, and a block of one coordinate gives a coloop.  Some
    columns repeat or scale earlier ones, and some are zero.
    """
    cut = rng.randint(1, n - 1)
    bridging = rng.choice([0, 0.1, 0.3])
    while True:
        cols = []
        for _ in range(ncols):
            roll = rng.random()
            if cols and roll < 0.2:
                c = F(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))
                cols.append(tuple(c * v for v in rng.choice(cols)))
            elif roll < 0.3:
                cols.append((F(0),) * n)
            else:
                block = range(n) if rng.random() < bridging else rng.choice([range(cut), range(cut, n)])
                cols.append(tuple(random_entry(rng) if i in block else F(0) for i in range(n)))
        mat = tuple(zip(*cols))
        if exact_rank(mat) == n:
            return mat


def test_wide_frames_with_coloops_parallel_and_zero_columns():
    rng = random.Random(2203)
    verdicts, coloops, parallel, zero = set(), 0, 0, 0
    for k in range(15):
        mat = block_frame(rng, rng.randint(2, 5), 12 + k % 3)
        verdict = is_almost_phase_retrievable(mat)
        assert verdict == split_verdict(mat), mat
        assert is_weak_full_spark(mat) == brute_frames.is_weak_full_spark(mat), mat
        verdicts.add(verdict)
        cols = [col for col in zip(*mat) if any(col)]
        coloops += not brute_frames.is_weak_full_spark(mat)
        parallel += any(exact_rank((a, b)) == 1 for i, a in enumerate(cols) for b in cols[:i])
        zero += len(cols) < len(mat[0])
    assert verdicts == {True, False} and min(coloops, parallel, zero) > 0


def test_weak_spark_of_random_matrices():
    rng = random.Random(2205)
    verdicts = set()
    for _ in range(400):
        n, ncols = rng.randint(1, 5), rng.randint(1, 9)
        mat = tuple(
            tuple(random_entry(rng) if rng.random() < 0.6 else F(0) for _ in range(ncols))
            for _ in range(n)
        )
        verdict = is_weak_full_spark(mat)
        assert verdict == brute_frames.is_weak_full_spark(mat), mat
        verdicts.add(verdict)
    assert verdicts == {True, False}
