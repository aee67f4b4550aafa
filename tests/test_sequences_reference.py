"""Report-for-report agreement of the prefix-count certifiers with the
brute-force window recounts in ``brute_sequences``."""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import brute_sequences as brute
from splinephase import (
    PeriodicSetDescriptor,
    SampleSet,
    count,
    excess_sup,
    extract_minimal_almost,
    find_sampling_subwindow,
    is_almost_phaseless,
    is_global_phaseless,
    is_local_phaseless,
    is_local_sampling,
)

F = Fraction

LOCAL = {
    "sampling": is_local_sampling,
    "almost": is_almost_phaseless,
    "phaseless": is_local_phaseless,
}


def random_set(rng, width, grid, density):
    """Points of the grid 1/grid on [0, width], each kept with the given probability."""
    pts = [F(i, grid) for i in range(grid * width + 1) if rng.random() < density]
    return SampleSet(tuple(pts), (0, width))


def random_descriptor(rng):
    """Period <= 5, offsets on a 1/4 grid near density two, add/remove edits."""
    period = rng.randint(1, 5)
    slots = [F(i, 4) for i in range(4 * period)]
    n_offsets = min(len(slots), max(0, 2 * period + rng.choice([-1, 0, 0, 0, 1])))
    offsets = tuple(sorted(rng.sample(slots, n_offsets)))
    lo = rng.randint(-4, 4)
    hi = lo + rng.randint(0, 6)
    base = PeriodicSetDescriptor(period, offsets)
    candidates = [F(lo) + F(i, 4) for i in range(4 * (hi - lo) + 1)]
    edits = []
    for x in rng.sample(candidates, min(len(candidates), rng.randint(0, 3))):
        edits.append(("remove" if base.contains(x) else "add", x))
    return PeriodicSetDescriptor(period, offsets, tuple(edits), (lo, hi))


class TestLocalAgainstBruteForce:
    def test_every_subset_of_the_quarter_grid_on_0_2(self):
        grid = [F(i, 4) for i in range(9)]
        for mask in range(1 << len(grid)):
            E = SampleSet(tuple(x for i, x in enumerate(grid) if mask >> i & 1), (0, 2))
            for m in (1, 2, 3):
                for mode, certifier in LOCAL.items():
                    assert certifier(E, m) == brute.LOCAL[mode](E, m), (mode, m, E.points)

    def test_seeded_random_sets_up_to_width_40(self):
        rng = random.Random(2)
        seen = set()
        for width in list(range(1, 13)) + [20, 27, 33, 40]:
            for _ in range(3):
                m = rng.randint(1, 3)
                E = random_set(rng, width, rng.choice([2, 3, 4]), rng.uniform(0.3, 0.9))
                for mode, certifier in LOCAL.items():
                    report = certifier(E, m)
                    assert report == brute.LOCAL[mode](E, m), (mode, m, E)
                    seen.add(None if report.verdict else report.violated.condition)
        # the family must reach every branch of the report
        assert seen == {None, "cardinality", "interior", "left_prefix", "right_suffix"}

    def test_constructive_searches(self):
        rng = random.Random(5)
        shrunk = set()
        for _ in range(300):
            m = rng.randint(1, 3)
            E = random_set(rng, rng.randint(1, 10), 4, rng.uniform(0.2, 0.9))
            if len(E) <= 16 and brute.is_almost_phaseless(E, m).verdict:
                assert extract_minimal_almost(E, m) == brute.extract_minimal_almost(E, m)
            found = find_sampling_subwindow(E, m)
            assert found == brute.find_sampling_subwindow(E, m), (m, E)
            if found not in (None, E.window):
                shrunk.add((found[0] > E.window[0], found[1] < E.window[1]))
        # subwindows cut on the left, on the right and on both sides
        assert shrunk == {(True, False), (False, True), (True, True)}


class TestGlobalAgainstBruteForce:
    def test_random_descriptors_with_edits(self):
        rng = random.Random(7)
        seen = set()
        for _ in range(100):
            D = random_descriptor(rng)
            for m in (1, 2):
                report = is_global_phaseless(D, m)
                assert report == brute.is_global_phaseless(D, m), (D, m)
                seen.add(None if report.verdict else report.violated.condition)
            for n0 in range(D.edit_window[0] - 3, D.edit_window[1] + 4):
                for side in ("left", "right"):
                    assert excess_sup(D, n0, side) == brute.excess_sup(D, n0, side), (D, n0, side)
        assert seen == {None, "P1", "P2", "P2prime"}

    def test_p1_bounds_the_window_excess_at_density_two(self):
        # At density exactly two, P1 on the periodic tail bounds every
        # closed window: #[a, b] = 2P - #(b, a + P) <= 2(b - a) + 1.  The
        # excess is then at most 1, below the 2m - 1 that P2 asks of m >= 2.
        rng = random.Random(17)
        passing = 0
        for _ in range(600):
            period = rng.randint(1, 5)
            offsets = tuple(sorted(rng.sample([F(i, 4) for i in range(4 * period)], 2 * period)))
            base = PeriodicSetDescriptor(period, offsets)
            lo = rng.randint(-4, 4)
            hi = lo + rng.randint(0, 6)
            candidates = [F(lo) + F(i, 4) for i in range(4 * (hi - lo) + 1)]
            edits = tuple(
                ("remove" if base.contains(x) else "add", x)
                for x in rng.sample(candidates, min(len(candidates), rng.randint(0, 3)))
            )
            D = PeriodicSetDescriptor(period, offsets, edits, (lo, hi))
            reports = [is_global_phaseless(D, m) for m in (2, 3)]
            if reports[0].violated.condition == "P1":
                continue
            passing += 1
            excess = max(
                count(base, a, b, include_lo=True, include_hi=True) - 2 * (b - a)
                for a in range(period)
                for b in range(a, a + period)
            )
            assert excess <= 1, D
            for report in reports:
                assert report.violated.params == {"max_window_excess": excess}, D
        assert passing >= 100

    def test_every_small_edit_of_density_two_patterns(self):
        # Up to two edits on the quarter grid of [0, 2], over patterns of
        # two points per unit with no triple in a closed unit interval:
        # this reaches both sides of the degree-one unit-interval scan.
        grid = [F(i, 4) for i in range(9)]
        seen = set()
        for period, offsets in [(1, (F(1, 4), F(3, 4))), (2, (F(0), F(1, 2), F(5, 4), F(3, 2)))]:
            base = PeriodicSetDescriptor(period, offsets)
            for k in range(3):
                for points in itertools.combinations(grid, k):
                    edits = tuple(("remove" if base.contains(x) else "add", x) for x in points)
                    D = PeriodicSetDescriptor(period, offsets, edits, (0, 2))
                    for m in (1, 2):
                        report = is_global_phaseless(D, m)
                        assert report == brute.is_global_phaseless(D, m), (D, m)
                        if not report.verdict:
                            seen.add((report.violated.condition, report.violated.params.get("side")))
        assert {("P2prime", "left"), ("P2prime", "right"), ("P2prime", None), ("P1", None)} <= seen

    def test_count_with_rational_endpoints(self):
        rng = random.Random(11)
        for _ in range(100):
            D = random_descriptor(rng)
            E = SampleSet(D.points_in(-3, 3), (-3, 3))
            for point_set in (D, E):
                lo = F(rng.randint(-24, 24), 8)
                hi = lo + F(rng.randint(-2, 24), 8)
                for include_lo, include_hi in itertools.product((False, True), repeat=2):
                    got = count(point_set, lo, hi, include_lo=include_lo, include_hi=include_hi)
                    want = brute.count(point_set, lo, hi, include_lo=include_lo, include_hi=include_hi)
                    assert got == want, (point_set, lo, hi, include_lo, include_hi)


class TestWideEditWindow:
    # Quarters pattern of period two with integer points added at both
    # ends of the edit window: degree one passes (two triple unit
    # intervals per end, exactly two points in every other open one),
    # degree two fails the untouched tail excess.
    @staticmethod
    def descriptor(hi):
        offsets = (F(1, 4), F(3, 4), F(5, 4), F(7, 4))
        return PeriodicSetDescriptor(2, offsets, (("add", F(0)), ("add", F(hi))), (0, hi))

    def test_verdicts_match_brute_force_on_a_narrow_window(self):
        D = self.descriptor(12)
        assert is_global_phaseless(D, 1) == brute.is_global_phaseless(D, 1)
        assert is_global_phaseless(D, 2) == brute.is_global_phaseless(D, 2)

    def test_edit_window_of_width_1e5_is_linear(self):
        # Budget: 5 s for everything below; a per-window recount would visit
        # about 5e9 windows.
        D = self.descriptor(10**5)
        start = time.perf_counter()
        one = is_global_phaseless(D, 1)
        two = is_global_phaseless(D, 2)
        sups = excess_sup(D, 0, "right"), excess_sup(D, 10**5, "left")
        elapsed = time.perf_counter() - start
        assert one.verdict
        assert not two.verdict and two.violated.condition == "P2"
        assert (two.violated.observed, two.violated.required) == (0, 3)
        assert sups == (2, 2)
        assert elapsed < 5.0, elapsed

    def test_scan_beyond_the_cap_is_refused(self):
        from splinephase.sequences import MAX_SCAN_WIDTH

        with pytest.raises(ValueError, match="exceeds"):
            is_global_phaseless(self.descriptor(MAX_SCAN_WIDTH), 1)
        with pytest.raises(ValueError, match="exceeds"):
            excess_sup(self.descriptor(4), MAX_SCAN_WIDTH, "left")


def test_unbounded_count_is_infinite_only_with_periodic_points():
    D = PeriodicSetDescriptor(1, (), (("add", F(1, 2)), ("add", F(3, 2))), (0, 2))
    assert count(D, None, 1, include_lo=False, include_hi=False) == 1
    assert count(D, F(1, 2), None, include_lo=False, include_hi=True) == 1
    assert count(PeriodicSetDescriptor(1, (F(0),)), 0, None, include_lo=True, include_hi=True) == math.inf
