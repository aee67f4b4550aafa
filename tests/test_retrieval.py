"""Sign recovery, the partition oracle, and counterexample construction."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

import brute_linalg
from conftest import (
    CAPPED_21,
    GUIDED_22,
    canonical_coeffs,
    random_nonseparable_spline,
    random_phaseless_set,
    random_separable_spline,
    unsigned_values,
)
from splinephase import (
    SampleSet,
    SplineFunction,
    UnsignedSamples,
    build_counterexample,
    eval_spline,
    is_local_phaseless,
    is_local_sampling,
    is_separable,
    partition_oracle,
    reconstruct,
    verify_modulus_agreement,
)

F = Fraction


class TestReconstruct:
    def test_all_zero_values_on_sampling_set(self):
        E = SampleSet((F(1, 4), F(1, 2), F(3, 4)), (0, 1))
        assert is_local_sampling(E, 1).verdict
        result = reconstruct(UnsignedSamples(E, (F(0), F(0), F(0))), 1)
        assert result.status == "unique"
        assert result.solutions[0].coeffs == (F(0), F(0))

    def test_round_trip_nonseparable(self):
        rng = random.Random(301)
        for _ in range(20):
            m = rng.choice([1, 2])
            window = (0, rng.choice([1, 2]))
            E = random_phaseless_set(rng, window, m)
            f = random_nonseparable_spline(rng, window, m)
            result = reconstruct(UnsignedSamples(E, unsigned_values(f, E)), m)
            assert result.status == "unique"
            assert result.solutions[0].coeffs == canonical_coeffs(f.coeffs)

    def test_separable_input_is_ambiguous_with_equal_moduli(self):
        rng = random.Random(302)
        window = (0, 3)
        m = 1
        E = random_phaseless_set(rng, window, m)
        f = random_separable_spline(rng, window, m)
        result = reconstruct(UnsignedSamples(E, unsigned_values(f, E)), m)
        assert result.status == "ambiguous"
        assert result.certificate is not None
        probes = [F(j, 17) * 3 for j in range(1, 18)]
        for a, b in itertools.combinations(result.solutions, 2):
            assert verify_modulus_agreement(a, b, probes)

    def test_zero_valued_samples_branch_free(self):
        # enumerating signs of a zero sample must not change anything
        E = SampleSet((F(1, 4), F(1, 2), F(3, 4)), (0, 1))
        f = SplineFunction(1, -1, (F(2), F(-2)), (0, 1))  # vanishes at 1/2
        samples = UnsignedSamples(E, unsigned_values(f, E))
        assert samples.values[1] == 0
        plain = reconstruct(samples, 1)
        forced = brute_linalg.reconstruct(samples, 1, branch_zero_values=True)
        assert plain.status == forced.status
        assert [g.coeffs for g in plain.solutions] == [g.coeffs for g in forced.solutions]

    def test_infeasible_values(self):
        E = SampleSet((F(1, 4), F(1, 2), F(3, 4)), (0, 1))
        result = reconstruct(UnsignedSamples(E, (F(1), F(0), F(2))), 1)
        assert result.status == "infeasible"
        assert result.solutions == ()

    def test_underdetermined_set_is_ambiguous(self):
        # a single sample cannot pin down two coefficients
        E = SampleSet((F(1, 2),), (0, 1))
        result = reconstruct(UnsignedSamples(E, (F(1),)), 1)
        assert result.status == "ambiguous"
        a, b = result.certificate
        assert a.coeffs != b.coeffs
        assert a.coeffs != tuple(-c for c in b.coeffs)
        for sol in result.solutions:
            assert abs(eval_spline(sol, F(1, 2))) == 1

    def test_solutions_reproduce_unsigned_samples(self):
        rng = random.Random(303)
        E = random_phaseless_set(rng, (0, 2), 2)
        f = random_separable_spline(rng, (0, 2), 2)
        samples = UnsignedSamples(E, unsigned_values(f, E))
        result = reconstruct(samples, 2)
        for sol in result.solutions:
            for x, y in zip(E.points, samples.values):
                assert abs(eval_spline(sol, x)) == y

    def test_value_validation(self):
        E = SampleSet((F(1, 2),), (0, 1))
        with pytest.raises(ValueError):
            UnsignedSamples(E, (F(-1),))
        with pytest.raises(ValueError):
            UnsignedSamples(E, (F(1), F(1)))


class TestPartitionOracle:
    def test_passing_window_one(self):
        E = SampleSet((F(1, 5), F(1, 2), F(4, 5)), (0, 1))
        assert partition_oracle(E, 1)
        assert is_local_phaseless(E, 1).verdict

    def test_empty_unit_interval_fails(self):
        E = SampleSet((F(1, 8), F(3, 8), F(5, 8), F(7, 8), F(1)), (0, 2))
        assert not partition_oracle(E, 1)
        assert not is_local_phaseless(E, 1).verdict

    def test_enumeration_cap(self):
        pts = tuple(F(i, 22) for i in range(21))
        with pytest.raises(ValueError):
            partition_oracle(SampleSet(pts, (0, 1)), 1)

    def test_rank_deficient_set_at_the_cap_is_refuted_promptly(self):
        # No split of a rank-deficient E has a full-rank half to prune, so
        # the split (E, empty) must refute it before any table is built.
        E = SampleSet(tuple(F(i, 8) for i in range(1, 21)), (0, 4))
        start = time.perf_counter()
        assert not partition_oracle(E, 1)
        assert time.perf_counter() - start < 1.0

    def test_agreement_on_exhaustive_window_one(self):
        grid = [F(i, 4) for i in range(5)]
        for m in (1, 2):
            for r in range(len(grid) + 1):
                for pts in itertools.combinations(grid, r):
                    E = SampleSet(pts, (0, 1))
                    assert partition_oracle(E, m) == is_local_phaseless(E, m).verdict


class TestBuildCounterexample:
    def test_cardinality_violation_pair(self):
        E = SampleSet((F(1, 4), F(3, 4), F(5, 4), F(7, 4)), (0, 2))
        assert not is_local_phaseless(E, 1).verdict
        pair = build_counterexample(E, 1)
        assert verify_modulus_agreement(pair.f1, pair.f2, E.points)
        assert pair.f1.coeffs != pair.f2.coeffs
        assert pair.f1.coeffs != tuple(-c for c in pair.f2.coeffs)
        assert pair.nonseparable == (True, True)
        assert not is_separable(pair.f1) and not is_separable(pair.f2)

    def test_interior_gap_gives_sided_pair(self):
        # empty (1, 2): one branch agrees left of the gap and flips right of
        # it (or the other way around)
        pts = tuple(
            F(n) + off
            for n in (0, 2)
            for off in (F(1, 8), F(3, 8), F(5, 8), F(7, 8))
        )
        E = SampleSet(tuple(sorted(pts)), (0, 3))
        report = is_local_phaseless(E, 1)
        assert report.violated.condition == "interior"
        pair = build_counterexample(E, 1)
        total = SplineFunction(
            1, pair.f1.start,
            tuple(a + b for a, b in zip(pair.f1.coeffs, pair.f2.coeffs)),
            pair.f1.window,
        )
        diff = SplineFunction(
            1, pair.f1.start,
            tuple(a - b for a, b in zip(pair.f1.coeffs, pair.f2.coeffs)),
            pair.f1.window,
        )
        left_probes = [F(k, 8) for k in range(0, 9)]
        right_probes = [2 + F(k, 8) for k in range(0, 9)]
        sum_left = all(eval_spline(total, x) == 0 for x in left_probes)
        diff_left = all(eval_spline(diff, x) == 0 for x in left_probes)
        sum_right = all(eval_spline(total, x) == 0 for x in right_probes)
        diff_right = all(eval_spline(diff, x) == 0 for x in right_probes)
        assert (sum_left and diff_right) or (diff_left and sum_right)

    def test_precondition_on_passing_set(self):
        E = SampleSet(tuple(F(i, 6) for i in range(7)), (0, 1))
        assert is_local_phaseless(E, 1).verdict
        with pytest.raises(ValueError):
            build_counterexample(E, 1)

    def test_exhaustive_tail_is_capped(self):
        # Fails at the interior window (0, 3), and no guided split refutes it.
        E = SampleSet(tuple(F(p) for p in CAPPED_21), (0, 8))
        assert is_local_phaseless(E, 2).violated.condition == "interior"
        start = time.perf_counter()
        with pytest.raises(ValueError, match="capped at 20 points, got 21"):
            build_counterexample(E, 2)
        assert time.perf_counter() - start < 1.0

    def test_guided_split_past_the_cap(self):
        E = SampleSet(tuple(F(p) for p in GUIDED_22), (0, 8))
        assert len(E) == 22
        start = time.perf_counter()
        pair = build_counterexample(E, 2)
        assert time.perf_counter() - start < 1.0
        assert verify_modulus_agreement(pair.f1, pair.f2, E.points)
        assert pair.nonseparable == (True, True)

    def test_every_failing_instance_window_one(self):
        grid = [F(i, 4) for i in range(5)]
        for m in (1, 2):
            for r in range(len(grid) + 1):
                for pts in itertools.combinations(grid, r):
                    E = SampleSet(pts, (0, 1))
                    if is_local_phaseless(E, m).verdict:
                        continue
                    pair = build_counterexample(E, m)
                    assert verify_modulus_agreement(pair.f1, pair.f2, E.points)
                    assert pair.nonseparable == (True, True)


class TestVerifyModulusAgreement:
    def test_sign_flip_agrees(self):
        f = SplineFunction(1, -1, (F(1), F(2), F(-1)), (0, 2))
        probes = [F(k, 5) for k in range(11)]
        assert verify_modulus_agreement(f, f.negated(), probes)
        assert verify_modulus_agreement(f, f, probes)

    def test_disagreement_detected(self):
        f = SplineFunction(1, -1, (F(1), F(2), F(-1)), (0, 2))
        g = SplineFunction(1, -1, (F(1), F(1), F(-1)), (0, 2))
        assert not verify_modulus_agreement(f, g, [F(1, 2)])

    def test_window_mismatch(self):
        f = SplineFunction(1, -1, (F(1), F(2), F(-1)), (0, 2))
        g = SplineFunction(1, -1, (F(1), F(1)), (0, 1))
        with pytest.raises(ValueError):
            verify_modulus_agreement(f, g, [F(1, 2)])
