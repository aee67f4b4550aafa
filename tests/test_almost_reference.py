"""Acceptance criterion 5 past the enumeration cap: the almost-phaseless
certifier against the frame test on the collocation matrix.

Criterion 5 checks every subset of small grids, so at most 14 points.  The
frame test enumerates nothing, so here it meets seeded sets of 15 to 60
points.  On a full-rank collocation matrix it must give the certifier's
verdict; a rank-deficient one is no frame, and the certifier must fail."""

from __future__ import annotations

import random
from fractions import Fraction

from splinephase import (
    NotAFrameError,
    SampleSet,
    build_collocation,
    is_almost_phase_retrievable,
    is_almost_phaseless,
)

F = Fraction


def test_seeded_sets_of_15_to_60_points():
    rng = random.Random(2805)
    verdicts = []
    while len(verdicts) < 300:
        w, m, q = rng.randint(4, 30), rng.randint(1, 4), rng.randint(2, 6)
        grid = [F(i, q) for i in range(q * w + 1)]
        lo, hi = max(15, w + m), min(60, len(grid))
        if lo > hi:
            continue
        E = SampleSet(tuple(sorted(rng.sample(grid, rng.randint(lo, hi)))), (0, w))
        verdict = is_almost_phaseless(E, m).verdict
        try:
            got = is_almost_phase_retrievable(build_collocation(E, m).entries)
        except NotAFrameError:
            assert not verdict, (w, m, E.points)
            continue
        assert got == verdict, (w, m, E.points)
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)
