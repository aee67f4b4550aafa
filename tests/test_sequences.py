"""Counting, the four certifiers, and the constructive subsequence searches."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from conftest import arithmetic_descriptor, example2_points, uniform_points
from splinephase import (
    PeriodicSetDescriptor,
    SampleSet,
    count,
    eval_bspline,
    excess_sup,
    extract_minimal_almost,
    find_sampling_subwindow,
    is_almost_phaseless,
    is_global_phaseless,
    is_local_phaseless,
    is_local_sampling,
)

F = Fraction


def s(points, window) -> SampleSet:
    return SampleSet(tuple(F(p) for p in points), window)


class TestSampleSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampleSet((F(1), F(1)), (0, 2))
        with pytest.raises(ValueError):
            SampleSet((F(3),), (0, 2))
        with pytest.raises(ValueError):
            SampleSet((), (2, 2))

    def test_restrict(self):
        E = s(["1/10", "2/10", "13/10"], (0, 2))
        assert E.restrict(0, 1).points == (F(1, 10), F(2, 10))


class TestCount:
    def test_open_interval(self):
        E = s(["1/5", "1/2", "13/10"], (0, 2))
        assert count(E, 0, 1, include_lo=False, include_hi=False) == 2

    def test_half_open(self):
        E = s(["1/5", "1/2", "13/10"], (0, 2))
        assert count(E, 0, 1, include_lo=True, include_hi=False) == 2

    def test_endpoint_flags_matter(self):
        E = s([0, "1/2", 1], (0, 1))
        assert count(E, 0, 1, include_lo=True, include_hi=True) == 3
        assert count(E, 0, 1, include_lo=False, include_hi=True) == 2
        assert count(E, 0, 1, include_lo=False, include_hi=False) == 1

    def test_descriptor_closed_window(self):
        D = PeriodicSetDescriptor(1, (F(1, 3), F(2, 3)))
        # two points per unit period, five periods, no endpoint hits
        assert count(D, 0, 5, include_lo=True, include_hi=True) == 10

    def test_descriptor_brute_force_agreement(self):
        rng = random.Random(3)
        for _ in range(40):
            period = rng.randint(1, 3)
            n_offsets = rng.randint(0, 4)
            offsets = sorted(
                set(F(rng.randint(0, 8 * period - 1), 8) for _ in range(n_offsets))
            )
            offsets = tuple(o for o in offsets if o < period)
            D = PeriodicSetDescriptor(period, offsets)
            lo, hi = rng.randint(-6, 0), rng.randint(1, 6)
            flags = (rng.random() < 0.5, rng.random() < 0.5)
            expected = len(
                [
                    x
                    for x in D.points_in(lo - 1, hi + 1)
                    if (x > lo or (flags[0] and x == lo))
                    and (x < hi or (flags[1] and x == hi))
                ]
            )
            got = count(D, lo, hi, include_lo=flags[0], include_hi=flags[1])
            assert got == expected

    def test_unbounded_descriptor_interval(self):
        D = PeriodicSetDescriptor(1, (F(1, 2),))
        assert count(D, None, 0, include_lo=False, include_hi=True) == math.inf
        empty = PeriodicSetDescriptor(1, (), (("add", F(1, 2)),), (0, 1))
        assert count(empty, None, None, include_lo=True, include_hi=True) == 1

    def test_descriptor_edits(self):
        D = PeriodicSetDescriptor(
            1,
            (F(1, 2),),
            (("remove", F(1, 2)), ("add", F(1, 4))),
            (0, 1),
        )
        assert count(D, 0, 1, include_lo=True, include_hi=True) == 1
        assert D.contains(F(1, 4)) and not D.contains(F(1, 2))
        assert D.contains(F(3, 2))

    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            PeriodicSetDescriptor(1, (F(1, 2),), (("remove", F(1, 4)),), (0, 1))
        with pytest.raises(ValueError):
            PeriodicSetDescriptor(1, (F(1, 2),), (("add", F(1, 2)),), (0, 1))
        with pytest.raises(ValueError):
            PeriodicSetDescriptor(1, (F(3, 2),))


class TestLocalSampling:
    def test_two_points_window_one(self):
        E = s(["3/10", "7/10"], (0, 1))
        assert is_local_sampling(E, 1).verdict
        # independent check: the 2x2 collocation determinant is nonzero
        det = eval_bspline(1, F(13, 10)) * eval_bspline(1, F(7, 10)) - eval_bspline(
            1, F(17, 10)
        ) * eval_bspline(1, F(3, 10))
        assert det == F(2, 5)

    def test_cardinality_violation(self):
        rep = is_local_sampling(s(["1/2", "3/2"], (0, 2)), 1)
        assert not rep.verdict
        assert rep.violated.condition == "cardinality"
        assert (rep.violated.observed, rep.violated.required) == (2, 3)

    def test_three_points_degree_two(self):
        E = s(["1/4", "1/2", "3/4"], (0, 1))
        assert is_local_sampling(E, 2).verdict


class TestAlmostPhaseless:
    def test_three_points_window_one(self):
        assert is_almost_phaseless(s([0, "1/2", 1], (0, 1)), 1).verdict

    def test_minimum_cardinality(self):
        rep = is_almost_phaseless(s([0, 1], (0, 1)), 1)
        assert not rep.verdict
        assert rep.violated.condition == "cardinality"
        assert (rep.violated.observed, rep.violated.required) == (2, 3)

    def test_uniform_six_points(self):
        assert is_almost_phaseless(uniform_points(0, 3, 6), 2).verdict


class TestLocalPhaseless:
    def test_three_points_window_one(self):
        assert is_local_phaseless(s(["1/5", "1/2", "4/5"], (0, 1)), 1).verdict

    def test_empty_unit_interval_reports_interior(self):
        E = s([0, "1/4", "1/2", "3/4", 1], (0, 2))
        rep = is_local_phaseless(E, 1)
        assert not rep.verdict
        assert rep.violated.condition == "interior"
        assert rep.violated.params == {"n1": 1, "n2": 2}
        assert (rep.violated.observed, rep.violated.required) == (0, 1)

    def test_example2_configuration(self):
        E = example2_points(0, 4, 5, 2)
        assert is_local_phaseless(E, 2).verdict


class TestMonotonicityAndChain:
    def test_supersets_keep_passing(self):
        rng = random.Random(17)
        base = s(["1/8", "3/8", "5/8", "7/8", "9/8", "11/8", "13/8", "15/8"], (0, 2))
        for certifier, m in [
            (is_local_sampling, 1),
            (is_almost_phaseless, 1),
            (is_local_phaseless, 1),
        ]:
            if not certifier(base, m).verdict:
                continue
            extra = set(base.points)
            while len(extra) < len(base.points) + 3:
                extra.add(F(rng.randint(1, 127), 64))
            assert certifier(SampleSet(tuple(sorted(extra)), (0, 2)), m).verdict

    def test_implication_chain_random(self):
        rng = random.Random(23)
        phaseless_seen = almost_seen = 0
        for _ in range(300):
            m = rng.choice([1, 2, 3])
            width = rng.choice([1, 2, 3])
            n_points = rng.randint(0, 2 * (width + m) + 3)
            pts = set()
            while len(pts) < n_points:
                pts.add(F(rng.randint(0, 32 * width), 32))
            E = SampleSet(tuple(sorted(pts)), (0, width))
            phaseless = is_local_phaseless(E, m).verdict
            almost = is_almost_phaseless(E, m).verdict
            sampling = is_local_sampling(E, m).verdict
            if phaseless:
                phaseless_seen += 1
                assert almost
            if almost:
                almost_seen += 1
                assert sampling
        assert almost_seen > 0  # the family must exercise the implications


class TestGlobalPhaseless:
    @pytest.mark.parametrize(
        "alpha,beta,m,verdict",
        [
            ("1/3", 0, 2, True),
            ("2/5", "1/10", 2, True),
            ("1/2", 0, 1, True),
            ("1/2", 0, 2, False),
            ("1/2", "1/4", 1, False),
            ("3/5", 0, 2, False),
        ],
    )
    def test_arithmetic_progressions(self, alpha, beta, m, verdict):
        D = arithmetic_descriptor(alpha, beta)
        assert is_global_phaseless(D, m).verdict is verdict

    def test_sparse_density_fails_p1(self):
        D = PeriodicSetDescriptor(2, (F(1, 2), F(1), F(3, 2)))
        rep = is_global_phaseless(D, 2)
        assert not rep.verdict
        assert rep.violated.condition == "P1"

    def test_removing_an_integer_point_breaks_p1(self):
        D = arithmetic_descriptor(F(1, 2), 0)
        assert is_global_phaseless(D, 1).verdict
        edited = PeriodicSetDescriptor(1, D.offsets, (("remove", F(0)),), (0, 0))
        rep = is_global_phaseless(edited, 1)
        assert not rep.verdict
        assert rep.violated.condition == "P1"

    def test_added_integer_point_rescues_degree_one(self):
        # quarters-pattern has no triple unit interval, so degree one fails;
        # one added integer point creates two triple intervals while every
        # other open unit interval keeps exactly two points
        base = PeriodicSetDescriptor(1, (F(1, 4), F(3, 4)))
        rep = is_global_phaseless(base, 1)
        assert not rep.verdict and rep.violated.condition == "P2prime"
        edited = PeriodicSetDescriptor(
            1, base.offsets, (("add", F(0)),), (0, 0)
        )
        assert is_global_phaseless(edited, 1).verdict
        # a non-integer extra point instead makes an interval with three
        # interior points, which the exactly-two tail condition rejects
        interior = PeriodicSetDescriptor(
            1, base.offsets, (("add", F(1, 2)),), (0, 1)
        )
        rep = is_global_phaseless(interior, 1)
        assert not rep.verdict and rep.violated.condition == "P2prime"
        # for degree two the edit does not help: the window excess of the
        # tails is untouched
        rep = is_global_phaseless(edited, 2)
        assert not rep.verdict and rep.violated.condition == "P2"

    def test_p1_restricted_to_windows_of_passing_descriptor(self):
        D = arithmetic_descriptor(F(1, 3), 0)
        assert is_global_phaseless(D, 2).verdict
        for n1 in range(-4, 4):
            for n2 in range(n1 + 1, n1 + 5):
                got = count(D, n1, n2, include_lo=False, include_hi=False)
                assert got >= 2 * (n2 - n1) - 1

    def test_requires_descriptor(self):
        with pytest.raises(TypeError):
            is_global_phaseless(s([0, 1], (0, 1)), 2)


class TestExcessSup:
    def test_density_two_bounded(self):
        D = PeriodicSetDescriptor(1, (F(1, 4), F(3, 4)))
        assert excess_sup(D, 0, "right") == 0

    def test_density_three_unbounded(self):
        D = PeriodicSetDescriptor(1, (F(1, 4), F(1, 2), F(3, 4)))
        assert excess_sup(D, 0, "right") == math.inf

    def test_density_below_two_bounded(self):
        D = PeriodicSetDescriptor(2, (F(1, 2), F(1), F(3, 2)))
        assert excess_sup(D, 0, "right") == 0
        assert excess_sup(D, 0, "left") == 0

    def test_brute_force_agreement(self):
        # compare the supremum with a wide direct scan
        rng = random.Random(9)
        for _ in range(30):
            period = rng.randint(1, 3)
            offsets = tuple(
                sorted(
                    set(
                        F(rng.randint(0, 4 * period - 1), 4)
                        for _ in range(rng.randint(1, 2 * period))
                    )
                )
            )
            offsets = tuple(o for o in offsets if o < period)
            if not offsets:
                continue
            D = PeriodicSetDescriptor(period, offsets)
            n0 = rng.randint(-3, 3)
            got = excess_sup(D, n0, "right")
            wide = max(
                count(D, n0, n, include_lo=True, include_hi=True) - 2 * (n - n0)
                for n in range(n0 + 1, n0 + 8 * period + 8)
            )
            delta = len(offsets) - 2 * period
            if delta > 0:
                assert got == math.inf
            else:
                assert got == wide

    def test_sup_form_matches_limit_form(self):
        # the supremum is infinite exactly when the per-period increment is positive
        rng = random.Random(31)
        for _ in range(50):
            period = rng.randint(1, 3)
            offsets = tuple(
                sorted(
                    set(
                        F(rng.randint(0, 8 * period - 1), 8)
                        for _ in range(rng.randint(1, 3 * period))
                    )
                )
            )
            offsets = tuple(o for o in offsets if o < period)
            if not offsets:
                continue
            D = PeriodicSetDescriptor(period, offsets)
            delta = len(offsets) - 2 * period
            for side in ("left", "right"):
                value = excess_sup(D, rng.randint(-2, 2), side)
                assert (value == math.inf) == (delta > 0)


class TestExtractMinimalAlmost:
    def test_already_minimal(self):
        E = s([0, "1/2", 1], (0, 1))
        assert extract_minimal_almost(E, 1) is not E
        assert extract_minimal_almost(E, 1).points == E.points

    def test_degree_one_is_deterministic(self):
        E = s([0, "1/4", "1/2", "3/4", 1], (0, 1))
        out = extract_minimal_almost(E, 1)
        assert out.points == (F(1, 2), F(3, 4), F(1))
        assert is_almost_phaseless(out, 1).verdict

    def test_degree_two_uniform(self):
        E = uniform_points(0, 2, 10)
        out = extract_minimal_almost(E, 2)
        assert len(out.points) == 5
        assert is_almost_phaseless(out, 2).verdict
        assert set(out.points) <= set(E.points)

    def test_random_instances(self):
        rng = random.Random(41)
        for _ in range(25):
            m = rng.choice([1, 2, 3])
            width = rng.choice([1, 2, 3])
            E = uniform_points(0, width, width + m + 1 + rng.randint(1, 5))
            if not is_almost_phaseless(E, m).verdict:
                continue
            out = extract_minimal_almost(E, m)
            assert len(out.points) == width + m + 1
            assert is_almost_phaseless(out, m).verdict
            assert set(out.points) <= set(E.points)

    def test_precondition(self):
        with pytest.raises(ValueError):
            extract_minimal_almost(s([0, 1], (0, 1)), 1)


class TestFindSamplingSubwindow:
    def test_clustered_points(self):
        E = s(["1/10", "2/10", "3/10"], (0, 2))
        assert find_sampling_subwindow(E, 1) == (0, 1)

    def test_too_few_points(self):
        assert find_sampling_subwindow(s(["1/2"], (0, 1)), 1) is None

    def test_whole_window_qualifies(self):
        E = uniform_points(0, 3, 9)
        assert is_local_sampling(E, 2).verdict
        assert find_sampling_subwindow(E, 2) == (0, 3)

    def test_returned_window_always_passes(self):
        rng = random.Random(43)
        for _ in range(60):
            m = rng.choice([1, 2])
            width = rng.choice([2, 3, 4])
            n_points = rng.randint(width + m, 2 * width + m + 2)
            pts = set()
            while len(pts) < n_points:
                pts.add(F(rng.randint(0, 16 * width), 16))
            E = SampleSet(tuple(sorted(pts)), (0, width))
            result = find_sampling_subwindow(E, m)
            assert result is not None
            n1, n2 = result
            assert 0 <= n1 < n2 <= width
            assert is_local_sampling(E.restrict(n1, n2), m).verdict

    def test_one_trim_per_empty_unit_past_the_recursion_limit(self):
        # The left half is empty, so the search trims one unit 1,200 times.
        E = SampleSet(tuple(u + F(k, 4) for u in range(1200, 2400) for k in (1, 2, 3)), (0, 2400))
        assert find_sampling_subwindow(E, 1) == (1200, 2400)
