"""Agreement of the pruned split search with the split-by-split enumeration
in ``brute_retrieval``: equal oracle verdicts, and byte-identical
counterexamples wherever the phaseless certification fails."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import brute_retrieval as brute
from splinephase import SampleSet, build_counterexample, is_local_phaseless, partition_oracle
from splinephase.jsonio import dumps, encode_counterexample

F = Fraction


def assert_same_search(E, m):
    verdict = partition_oracle(E, m)
    assert verdict == brute.partition_oracle(E, m), (E, m)
    if not is_local_phaseless(E, m).verdict:
        got = dumps(encode_counterexample(build_counterexample(E, m)))
        assert got == dumps(encode_counterexample(brute.build_counterexample(E, m))), (E, m)
    return verdict


def test_every_subset_of_the_quarter_and_half_grids():
    checked, passing = 0, 0
    for step, width in ((F(1, 4), 2), (F(1, 2), 3)):
        grid = [step * i for i in range(int(width / step) + 1)]
        for m in (1, 2, 3):
            for r in range(len(grid) + 1):
                for points in itertools.combinations(grid, r):
                    checked += 1
                    passing += assert_same_search(SampleSet(points, (0, width)), m)
    assert checked == 1920 and 0 < passing < checked


def test_seeded_larger_sets():
    # (points, window width, degree, unit left empty or None)
    rng = random.Random(1117)
    verdicts = set()
    for size, width, m, empty in ((11, 3, 1, None), (12, 3, 1, None), (12, 4, 2, 2), (13, 5, 1, 2)):
        grid = [F(i, 4) for i in range(4 * width + 1)]
        grid = [x for x in grid if empty is None or not empty < x < empty + 1]
        points = tuple(sorted(rng.sample(grid, size)))
        verdicts.add(assert_same_search(SampleSet(points, (0, width)), m))
    assert verdicts == {True, False}
