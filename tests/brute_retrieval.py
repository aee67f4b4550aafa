"""Split-by-split reference for the partition oracle and the counterexample builder.

This is the enumeration the subset-rank walk replaced: every unordered
split of E, smallest point on the first side, in ascending order of the
first side's point mask, and a counterexample tail that sorts all of those
splits by size imbalance.  Each split goes to the library's
``_find_support_violation``, so ``test_retrieval_reference.py`` checks only
which splits are tried and in which order: the library must give the same
oracle verdicts and byte-identical counterexamples.
"""

from __future__ import annotations

from splinephase.bspline import is_separable
from splinephase.retrieval import (
    CounterexamplePair,
    _find_support_violation,
    _guided_sides,
    _scaled_pair,
    verify_modulus_agreement,
)
from splinephase.sequences import is_local_phaseless


def unordered_partitions(points):
    if not points:
        yield (), ()
        return
    rest = points[1:]
    for bits in range(1 << len(rest)):
        side1 = [points[0]]
        side2 = []
        for i, x in enumerate(rest):
            if (bits >> i) & 1:
                side1.append(x)
            else:
                side2.append(x)
        yield tuple(side1), tuple(side2)


def partition_order(E, violation):
    seen = set()
    pts = set(E.points)
    for side in _guided_sides(E, violation):
        key = frozenset(side)
        if key in seen or frozenset(pts - set(side)) in seen:
            continue
        seen.add(key)
        yield side, tuple(sorted(pts - set(side)))
    exhaustive = sorted(
        unordered_partitions(E.points),
        key=lambda pair: (abs(len(pair[0]) - len(pair[1])), pair),
    )
    for side1, side2 in exhaustive:
        key = frozenset(side1)
        if key in seen or frozenset(side2) in seen:
            continue
        seen.add(key)
        yield side1, side2


def partition_oracle(E, m) -> bool:
    return all(
        _find_support_violation(m, E.window, side1, side2) is None
        for side1, side2 in unordered_partitions(E.points)
    )


def build_counterexample(E, m) -> CounterexamplePair:
    report = is_local_phaseless(E, m)
    assert not report.verdict
    for side1, side2 in partition_order(E, report.violated):
        hit = _find_support_violation(m, E.window, side1, side2)
        if hit is not None:
            f1, f2 = _scaled_pair(m, E.window, hit[0], hit[1])
            assert verify_modulus_agreement(f1, f2, E.points)
            return CounterexamplePair(f1, f2, (not is_separable(f1), not is_separable(f2)))
    raise AssertionError("no counterexample for a failing set")
