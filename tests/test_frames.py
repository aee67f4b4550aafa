"""Sign-pattern machinery, the retrievability criteria, and spark tests."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from splinephase import (
    NotAFrameError,
    SampleSet,
    SignPattern,
    almost_pr_by_criterion,
    apply_signs,
    build_collocation,
    exact_rank,
    is_almost_phase_retrievable,
    is_almost_phaseless,
    is_full_spark,
    is_weak_full_spark,
    sign_patterns,
)

F = Fraction

FULL_SPARK_2x3 = ((F(1), F(0), F(1)), (F(0), F(1), F(1)))
DEFICIENT_2x3 = ((F(1), F(0), F(0)), (F(0), F(1), F(2)))
IDENTITY_2 = ((F(1), F(0)), (F(0), F(1)))


def random_frame(rng: random.Random, n: int, ncols: int):
    while True:
        mat = tuple(
            tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols))
            for _ in range(n)
        )
        if exact_rank(mat) == n:
            return mat


class TestSignPattern:
    def test_validation(self):
        with pytest.raises(ValueError):
            SignPattern((-1, 1))
        with pytest.raises(ValueError):
            SignPattern((1, 0))
        with pytest.raises(ValueError):
            SignPattern(())

    def test_enumeration_counts(self):
        assert len(list(sign_patterns(4))) == 8
        assert next(iter(sign_patterns(3))).is_identity()

    def test_compose(self):
        s = SignPattern((1, -1, 1))
        t = SignPattern((1, -1, -1))
        assert s.compose(t).signs == (1, 1, -1)


class TestApplySigns:
    def test_identity_pattern(self):
        s = SignPattern((1, 1, 1))
        assert apply_signs(FULL_SPARK_2x3, s) == FULL_SPARK_2x3

    def test_single_flip(self):
        out = apply_signs(((F(1), F(1)),), SignPattern((1, -1)))
        assert out == ((F(1), F(-1)),)

    def test_involution(self):
        s = SignPattern((1, -1, 1))
        once = apply_signs(FULL_SPARK_2x3, s)
        assert apply_signs(once, s) == FULL_SPARK_2x3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_signs(FULL_SPARK_2x3, SignPattern((1, -1)))


class TestAlmostPhaseRetrievable:
    def test_square_identity_is_not(self):
        assert not is_almost_phase_retrievable(IDENTITY_2)

    def test_full_spark_plus_one_column_is(self):
        assert is_almost_phase_retrievable(FULL_SPARK_2x3)

    def test_spark_deficient_is_not(self):
        assert not is_almost_phase_retrievable(DEFICIENT_2x3)

    def test_rank_deficiency_raises(self):
        with pytest.raises(NotAFrameError):
            is_almost_phase_retrievable(((F(1), F(2)), (F(2), F(4))))
        with pytest.raises(NotAFrameError):
            is_almost_phase_retrievable(((F(1), F(2)),))

    def test_column_cap(self):
        wide = (tuple(F(1) for _ in range(15)), tuple(F(i) for i in range(15)))
        with pytest.raises(ValueError):
            is_almost_phase_retrievable(wide)
        # The cap counts the columns as given, zero columns included.
        padded = tuple(row[:14] + (F(0),) for row in wide)
        with pytest.raises(ValueError):
            is_almost_phase_retrievable(padded)

    def test_zero_columns_measure_nothing(self):
        # {e1, e2, e1+e2} is phase retrievable in R^2; a zero column, first
        # or last, adds no measurement and changes no verdict.
        for mat in (
            (FULL_SPARK_2x3[0] + (F(0),), FULL_SPARK_2x3[1] + (F(0),)),
            ((F(0),) + FULL_SPARK_2x3[0], (F(0),) + FULL_SPARK_2x3[1]),
        ):
            assert is_almost_phase_retrievable(mat)
            for criterion in (2, 3, 4, 5):
                assert almost_pr_by_criterion(mat, criterion), criterion
        with_zero = ((F(1), F(0), F(0)), (F(0), F(0), F(1)))
        assert not is_almost_phase_retrievable(with_zero)

    def test_criteria_agree_on_random_frames(self):
        rng = random.Random(201)
        for _ in range(40):
            n = rng.randint(2, 3)
            ncols = rng.randint(n, n + 3)
            mat = random_frame(rng, n, ncols)
            reference = is_almost_phase_retrievable(mat)
            assert almost_pr_by_criterion(mat, 2) == reference
            assert almost_pr_by_criterion(mat, 3) == reference
            assert almost_pr_by_criterion(mat, 4) == reference
            assert almost_pr_by_criterion(mat, 5) == reference

    def test_forward_weak_spark_and_converse_at_n_plus_one(self):
        rng = random.Random(202)
        for _ in range(40):
            n = rng.randint(2, 4)
            ncols = rng.randint(n, n + 2)
            mat = random_frame(rng, n, ncols)
            pr = is_almost_phase_retrievable(mat)
            weak = is_weak_full_spark(mat)
            if pr:
                assert weak
            if ncols == n + 1:
                assert pr == weak


class TestSparkTests:
    def test_weak_full_spark_examples(self):
        assert not is_weak_full_spark(IDENTITY_2)
        assert is_weak_full_spark(FULL_SPARK_2x3)
        assert not is_weak_full_spark(((F(5),),))

    def test_full_spark_examples(self):
        assert is_full_spark(FULL_SPARK_2x3)
        assert not is_full_spark(DEFICIENT_2x3)
        assert is_full_spark(((F(2), F(1)), (F(1), F(1))))

    def test_full_spark_needs_enough_columns(self):
        with pytest.raises(ValueError):
            is_full_spark(((F(1),), (F(0),)))

    def test_full_spark_subset_cap(self):
        # C(16, 8) = 12,870 subsets are within 2^14; C(17, 8) = 24,310 are not.
        # The zero first column fails the first subset at once.
        def frame(ncols):
            return tuple((F(0),) + tuple(F(i ** k) for i in range(1, ncols)) for k in range(8))

        assert not is_full_spark(frame(16))
        with pytest.raises(ValueError):
            is_full_spark(frame(17))

    def test_full_implies_weak(self):
        # only meaningful with redundancy: for square invertible matrices any
        # column removal drops the rank, so weak full spark fails there
        rng = random.Random(203)
        for _ in range(30):
            n = rng.randint(1, 3)
            ncols = rng.randint(n + 1, n + 3)
            mat = tuple(
                tuple(F(rng.randint(-3, 3)) for _ in range(ncols)) for _ in range(n)
            )
            if exact_rank(mat) < n:
                continue
            if is_full_spark(mat):
                assert is_weak_full_spark(mat)


class TestCollocationBridge:
    def test_small_grid_family(self):
        grid = [F(i, 4) for i in range(5)]
        for m in (1, 2):
            for r in range(len(grid) + 1):
                for pts in itertools.combinations(grid, r):
                    E = SampleSet(pts, (0, 1))
                    mat = build_collocation(E, m)
                    almost = is_almost_phaseless(E, m).verdict
                    if exact_rank(mat.entries) < mat.nrows:
                        assert not almost
                    else:
                        assert is_almost_phase_retrievable(mat.entries) == almost
