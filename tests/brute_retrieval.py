"""Split-by-split and submask references for the partition oracle and the
counterexample builder.

``unordered_partitions`` and ``partition_order`` are the enumeration the
subset-rank walk replaced: every unordered split of E, smallest point on
the first side, in ascending order of the first side's point mask, and a
counterexample tail that sorts all of those splits by size imbalance.
Each split goes to the library's ``_find_support_violation``, so
``test_retrieval_reference.py`` checks only which splits are tried and in
which order: the library must give the same oracle verdicts and
byte-identical counterexamples.

``submask_support_violation`` is the split test the run scan replaced: it
lists every realizable support of each side, one null space per submask
of the side's maximal support, and accepts a pair whose union has no gap
of m+1 shifts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from splinephase.bspline import is_separable
from splinephase.collocation import null_space
from splinephase.retrieval import (
    CounterexamplePair,
    _cancellation_free_sum,
    _find_support_violation,
    _guided_sides,
    _scaled_pair,
    _support_mask,
    _vanishing_basis,
    verify_modulus_agreement,
)
from splinephase.sequences import is_local_phaseless


@lru_cache(maxsize=None)
def submask_support_analysis(m, window, points):
    """Realizable supports (as bitmasks over the shift range) with witnesses.

    A support S is realizable when some vanishing spline has nonzero
    coefficients exactly on S; equivalently, the vanishing vectors
    supported inside S have maximal support equal to S.
    """
    basis = _vanishing_basis(m, window, points)
    if not basis:
        return (), {}
    dim = len(basis)
    ncols = len(basis[0])
    max_mask = 0
    for vec in basis:
        max_mask |= _support_mask(vec)
    witnesses = {}
    sub = max_mask
    while sub:
        outside = [j for j in range(ncols) if not (sub >> j) & 1]
        if outside:
            constraints = tuple(
                tuple(basis[i][j] for i in range(dim)) for j in outside
            )
            lam_basis = null_space(constraints)
        else:
            lam_basis = tuple(
                tuple(Fraction(1 if i == k else 0) for i in range(dim))
                for k in range(dim)
            )
        if lam_basis:
            vectors = []
            for lam in lam_basis:
                vec = [Fraction(0)] * ncols
                for weight, bvec in zip(lam, basis):
                    if weight != 0:
                        vec = [a + weight * b for a, b in zip(vec, bvec)]
                vectors.append(tuple(vec))
            union = 0
            for vec in vectors:
                union |= _support_mask(vec)
            if union == sub:
                witnesses[sub] = _cancellation_free_sum(vectors)
        sub = (sub - 1) & max_mask
    return tuple(sorted(witnesses)), witnesses


def union_nonseparable(mask, m, window):
    # Windows shorter than two units admit no separable function at all.
    if window[1] - window[0] < 2:
        return True
    indices = [j for j in range(mask.bit_length()) if (mask >> j) & 1]
    return all(b - a <= m for a, b in zip(indices, indices[1:]))


def submask_support_violation(m, window, side1, side2):
    masks1, wit1 = submask_support_analysis(m, window, side1)
    if not masks1:
        return None
    masks2, wit2 = submask_support_analysis(m, window, side2)
    if not masks2:
        return None
    for s1 in masks1:
        for s2 in masks2:
            if union_nonseparable(s1 | s2, m, window):
                return wit1[s1], wit2[s2]
    return None


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
