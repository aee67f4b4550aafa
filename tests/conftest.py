"""Shared generators for the test suite.

Everything random is driven by seeded random.Random instances so failures
reproduce; expected values in the tests themselves are frozen from
independent computations, never from the code under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

from splinephase import (
    SampleSet,
    SplineFunction,
    build_collocation,
    eval_spline,
    exact_rank,
    is_local_phaseless,
    is_separable,
)
from splinephase.families import arithmetic as arithmetic_descriptor
from splinephase.families import example2 as example2_points
from splinephase.families import uniform as uniform_points

# Failing sets in window (0, 8) at m = 2, past PARTITION_ORACLE_CAP: no guided
# split refutes the first, one does the second.
CAPPED_21 = (
    "0", "1/2", "1", "5/4", "11/4", "3", "7/2", "15/4", "4", "9/2", "19/4",
    "5", "11/2", "23/4", "6", "25/4", "13/2", "27/4", "29/4", "15/2", "31/4",
)
GUIDED_22 = (
    "1/2", "3/4", "5/4", "7/4", "9/4", "5/2", "3", "13/4", "7/2", "15/4", "4",
    "17/4", "9/2", "19/4", "11/2", "23/4", "6", "25/4", "29/4", "15/2", "31/4", "8",
)


def random_phaseless_set(rng: random.Random, window, m: int) -> SampleSet:
    """Random set certified phaseless: two interior points per unit interval
    plus m+1 extra points hugging each end of the window."""
    n1, n2 = window
    points = set()
    for unit in range(n1, n2):
        while len([p for p in points if unit < p < unit + 1]) < 2:
            points.add(unit + Fraction(rng.randint(1, 63), 64))
    for _ in range(m + 1):
        while True:
            x = n1 + Fraction(rng.randint(1, 63), 64)
            if x not in points:
                points.add(x)
                break
        while True:
            x = n2 - Fraction(rng.randint(1, 63), 64)
            if x not in points:
                points.add(x)
                break
    E = SampleSet(tuple(sorted(points)), window)
    assert is_local_phaseless(E, m).verdict
    return E


def random_nonseparable_spline(rng: random.Random, window, m: int) -> SplineFunction:
    n1, n2 = window
    size = (n2 - n1) + m
    while True:
        coeffs = tuple(Fraction(rng.randint(-3, 3)) for _ in range(size))
        if not any(coeffs):
            continue
        f = SplineFunction(m, n1 - m, coeffs, window)
        if not is_separable(f):
            return f


def random_separable_spline(rng: random.Random, window, m: int) -> SplineFunction:
    """Nonzero blocks at both ends of the shift range with a zero gap of m+1."""
    n1, n2 = window
    size = (n2 - n1) + m
    assert size >= m + 2, "window too short to host a separable spline"
    coeffs = [Fraction(0)] * size
    coeffs[0] = Fraction(rng.choice([1, 2, 3, -1, -2]))
    tail_start = m + 1
    for i in range(tail_start, size):
        coeffs[i] = Fraction(rng.randint(-3, 3))
    coeffs[size - 1] = Fraction(rng.choice([1, 2, -1, -3]))
    f = SplineFunction(m, n1 - m, tuple(coeffs), window)
    assert is_separable(f)
    return f


def unsigned_values(f: SplineFunction, E: SampleSet):
    return tuple(abs(eval_spline(f, x)) for x in E.points)


def canonical_coeffs(coeffs):
    lead = next((c for c in coeffs if c != 0), None)
    if lead is not None and lead < 0:
        return tuple(-c for c in coeffs)
    return tuple(coeffs)


def random_frame(rng: random.Random, n: int, ncols: int):
    """A full-rank rational frame; some columns repeat or scale earlier ones, some are zero."""
    while True:
        cols = []
        for _ in range(ncols):
            roll = rng.random()
            if cols and roll < 0.15:
                cols.append(rng.choice(cols))
            elif cols and roll < 0.3:
                c = Fraction(rng.choice([-3, -2, -1, 2, 3]), rng.randint(1, 3))
                cols.append(tuple(c * v for v in rng.choice(cols)))
            elif roll < 0.4:
                cols.append((Fraction(0),) * n)
            else:
                cols.append(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)))
        mat = tuple(zip(*cols))
        if exact_rank(mat) == n:
            return mat


def collocation_frame(points, window, m: int):
    """The collocation matrix of the points, or None when its rows are dependent."""
    mat = build_collocation(SampleSet(points, window), m).entries
    return mat if exact_rank(mat) == len(mat) else None
