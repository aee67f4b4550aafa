"""Collocation matrices, exact rank/null space, and the invertibility test."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from brute_linalg import _subset_ranks
from conftest import collocation_frame, random_frame, uniform_points
from splinephase import (
    SampleSet,
    build_collocation,
    eval_bspline,
    exact_rank,
    is_local_sampling,
    null_space,
    schoenberg_whitney,
)
from splinephase.collocation import _collocation_rows

F = Fraction


def det(matrix):
    """Determinant by cofactor expansion; independent of the elimination code."""
    n = len(matrix)
    if n == 0:
        return F(1)
    if n == 1:
        return matrix[0][0]
    total = F(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * det(minor)
        total += term if j % 2 == 0 else -term
    return total


class TestBuildCollocation:
    def test_two_endpoints_give_identity(self):
        E = SampleSet((F(0), F(1)), (0, 1))
        mat = build_collocation(E, 1)
        assert mat.row_index == (-1, 0)
        assert mat.col_index == (F(0), F(1))
        assert mat.entries == ((F(1), F(0)), (F(0), F(1)))

    def test_empty_point_set_keeps_one_empty_row_per_shift(self):
        mat = build_collocation(SampleSet((), (0, 2)), 2)
        assert mat.row_index == (-2, -1, 0, 1)
        assert mat.entries == ((), (), (), ())

    def test_single_midpoint_column(self):
        mat = build_collocation(SampleSet((F(1, 2),), (0, 1)), 1)
        assert mat.entries == ((F(1, 2),), (F(1, 2),))

    def test_zero_entries_follow_support(self):
        E = uniform_points(0, 3, 7)
        for m in (1, 2, 3):
            mat = build_collocation(E, m)
            for i, n in enumerate(mat.row_index):
                for j, x in enumerate(mat.col_index):
                    inside = n < x < n + m + 1
                    assert (mat.entries[i][j] != 0) == inside
                    assert mat.entries[i][j] == eval_bspline(m, x - n)


class TestExactRank:
    def test_identity(self):
        assert exact_rank(((1, 0), (0, 1))) == 2

    def test_zero_matrix(self):
        assert exact_rank(((0, 0, 0), (0, 0, 0))) == 0

    def test_three_by_two(self):
        mat = ((F(1), F(0)), (F(1, 2), F(1, 2)), (F(0), F(1)))
        assert exact_rank(mat) == 2

    def test_empty_and_degenerate(self):
        assert exact_rank(()) == 0
        assert exact_rank(((),)) == 0

    def test_rank_nullity_on_random_matrices(self):
        rng = random.Random(71)
        for _ in range(200):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 5)
            mat = tuple(
                tuple(F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(ncols))
                for _ in range(nrows)
            )
            rank = exact_rank(mat)
            kernel = null_space(mat)
            assert rank + len(kernel) == ncols
            for vec in kernel:
                for row in mat:
                    assert sum(a * b for a, b in zip(row, vec)) == 0


class TestNullSpace:
    def test_identity_gives_empty_basis(self):
        assert null_space(((1, 0), (0, 1))) == ()

    def test_single_equation(self):
        basis = null_space(((1, 1),))
        assert basis == ((F(1), F(-1)),)

    def test_normalization_first_nonzero_positive_one(self):
        basis = null_space(((0, 2, 3),))
        for vec in basis:
            lead = next(v for v in vec if v != 0)
            assert lead == 1

    def test_collocation_rank_nullity(self):
        E = SampleSet((F(1, 2), F(1), F(3, 2)), (0, 2))
        mat = build_collocation(E, 1).entries
        rank = exact_rank(mat)
        kernel = null_space(mat)
        assert rank + len(kernel) == len(mat[0])

    def test_deterministic_output(self):
        mat = ((F(1), F(2), F(3)), (F(2), F(4), F(6)))
        assert null_space(mat) == null_space(mat)


class TestSchoenbergWhitney:
    def test_diagonal_support_present(self):
        assert schoenberg_whitney(1, (0, 1), (F(1, 2), F(3, 2)))
        # the matrix itself has determinant 1/4
        mat = [
            [eval_bspline(1, t - n) for n in (0, 1)]
            for t in (F(1, 2), F(3, 2))
        ]
        assert det(mat) == F(1, 4)

    def test_diagonal_support_missing(self):
        assert not schoenberg_whitney(1, (0, 1), (F(5, 2), F(3)))

    def test_single_entry(self):
        assert schoenberg_whitney(2, (0,), (F(3, 2),))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            schoenberg_whitney(1, (0, 1), (F(1, 2),))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_determinant_on_grid(self, m):
        shift_pool = range(0, 5)
        point_pool = [F(i, 2) for i in range(0, 12)]
        for r in (1, 2, 3, 4):
            for shifts in itertools.combinations(shift_pool, r):
                for points in itertools.combinations(point_pool, r):
                    mat = [
                        [eval_bspline(m, t - n) for n in shifts] for t in points
                    ]
                    expected = det(mat) != 0
                    assert schoenberg_whitney(m, shifts, points) == expected


class TestSamplingRankBridge:
    def test_full_row_rank_for_sampling_sets(self):
        rng = random.Random(97)
        seen = 0
        for _ in range(40):
            m = rng.choice([1, 2])
            width = rng.choice([1, 2, 3])
            k = rng.randint(width + m, 2 * width + m + 2)
            pts = set()
            while len(pts) < k:
                pts.add(F(rng.randint(0, 24 * width), 24))
            E = SampleSet(tuple(sorted(pts)), (0, width))
            if not is_local_sampling(E, m).verdict:
                continue
            seen += 1
            mat = build_collocation(E, m)
            assert exact_rank(mat.entries) == width + m
        assert seen >= 10


def assert_subset_ranks(vectors, width):
    ranks = _subset_ranks(vectors, width)
    assert len(ranks) == 2 ** len(vectors)
    for mask, rank in enumerate(ranks):
        subset = [vec for j, vec in enumerate(vectors) if mask >> j & 1]
        assert rank == exact_rank(subset), (vectors, mask)


class TestSubsetRanks:
    def test_subset_ranks_are_column_submatrix_ranks(self):
        rng = random.Random(617)
        frames = [random_frame(rng, n, ncols) for n, ncols in ((2, 4), (3, 5), (3, 6), (4, 6))]
        frames.append(collocation_frame((F(1, 4), F(1, 2), F(5, 4), F(3, 2), F(7, 4)), (0, 2), 2))
        for mat in frames:
            ranks = _subset_ranks(list(zip(*mat)), len(mat))
            ncols = len(mat[0])
            assert len(ranks) == 2 ** ncols
            for mask, rank in enumerate(ranks):
                cols = [j for j in range(ncols) if mask >> j & 1]
                assert rank == exact_rank(tuple(tuple(row[j] for j in cols) for row in mat)), (mat, mask)

    def test_collocation_row_subsets(self):
        rng = random.Random(619)
        cases = [((F(1, 2), F(3, 2)), (0, 2), 1)]  # two points for three shifts: no leaf
        for width, m in ((2, 1), (2, 2), (3, 2), (3, 3)):
            grid = [F(i, 4) for i in range(4 * width + 1)]
            cases.append((tuple(sorted(rng.sample(grid, 8))), (0, width), m))
        for points, window, m in cases:
            assert_subset_ranks(_collocation_rows(m, window, points), window[1] - window[0] + m)

    def test_full_rank_leaves(self):
        # Rank n is reached by most pairs or triples, so most nodes are
        # supersets of a full-rank subset.
        rng = random.Random(621)
        for n, ncols in ((2, 8), (2, 9), (3, 9)):
            mat = random_frame(rng, n, ncols)
            assert_subset_ranks(list(zip(*mat)), n)
        e1, e2 = (F(1), F(0)), (F(0), F(1))
        assert_subset_ranks([e1, e2, e1, (F(1), F(1)), e2], 2)
