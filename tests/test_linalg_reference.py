"""Exact agreement of the integer echelon kernel with the rational
reference routines in ``brute_linalg``: rank, null space, row space,
solutions of augmented systems and sign-search recoveries."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import brute_linalg as brute
from conftest import (
    random_nonseparable_spline,
    random_phaseless_set,
    random_separable_spline,
    unsigned_values,
)
from splinephase import SampleSet, UnsignedSamples, build_collocation, exact_rank, null_space, reconstruct
from splinephase.collocation import _Echelon
from splinephase.frames import _canonical_rowspace
from splinephase.retrieval import _solve

F = Fraction


def random_entry(rng):
    if rng.random() < 0.35:
        return F(0)
    return F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 7, 12]))


def random_matrix(rng, kind):
    """A seeded rational matrix of the given shape family."""
    nrows, ncols = {
        "tall": (rng.randint(5, 9), rng.randint(1, 4)),
        "wide": (rng.randint(1, 4), rng.randint(5, 9)),
        "square": (rng.randint(1, 6),) * 2,
    }.get(kind, (rng.randint(2, 7), rng.randint(2, 7)))
    rows = [[random_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    if kind == "zero_rows":
        for i in rng.sample(range(nrows), rng.randint(1, nrows)):
            rows[i] = [F(0)] * ncols
    elif kind == "zero_cols":
        for j in rng.sample(range(ncols), rng.randint(1, ncols)):
            for row in rows:
                row[j] = F(0)
    elif kind == "dependent":
        # Duplicates, multiples and sums of earlier rows, shuffled in.
        for _ in range(rng.randint(1, 4)):
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = F(rng.randint(-3, 3), rng.randint(1, 3)), F(rng.randint(-3, 3), rng.randint(1, 3))
            rows.append(list(a) if rng.random() < 0.3 else [s * x + t * y for x, y in zip(a, b)])
        rng.shuffle(rows)
    elif kind == "low_rank":
        r = rng.randint(1, min(nrows, ncols))
        left = [[random_entry(rng) for _ in range(r)] for _ in range(nrows)]
        right = [[random_entry(rng) for _ in range(ncols)] for _ in range(r)]
        rows = [[sum((a * b for a, b in zip(lrow, col)), F(0)) for col in zip(*right)] for lrow in left]
    return tuple(tuple(row) for row in rows)


def transpose(mat):
    return tuple(zip(*mat))


def assert_same_algebra(mat):
    assert exact_rank(mat) == brute.rank(mat), mat
    assert null_space(mat) == brute.null_space(mat), mat
    assert _canonical_rowspace(mat) == brute.rowspace(mat), mat


KINDS = ("tall", "wide", "square", "zero_rows", "zero_cols", "dependent", "low_rank")


@pytest.mark.parametrize("kind", KINDS)
def test_random_rational_matrices(kind):
    rng = random.Random("linalg-%s" % kind)
    for _ in range(40):
        mat = random_matrix(rng, kind)
        assert_same_algebra(mat)
        assert_same_algebra(transpose(mat))


def test_degenerate_shapes():
    for mat in (((F(0),),), ((F(5),),), ((F(0), F(0)),), ((F(0),), (F(0),)), ((), ())):
        assert_same_algebra(mat)


def test_collocation_matrices():
    rng = random.Random(31)
    for _ in range(30):
        width, m, den = rng.randint(1, 5), rng.randint(1, 3), rng.choice([4, 8, 16])
        grid = [F(i, den) for i in range(den * width + 1)]
        E = SampleSet(tuple(sorted(rng.sample(grid, rng.randint(1, min(len(grid), 2 * width + m + 3))))), (0, width))
        entries = build_collocation(E, m).entries
        assert_same_algebra(entries)
        assert_same_algebra(transpose(entries))


def test_augmented_systems():
    rng = random.Random(47)
    for trial in range(150):
        mat = random_matrix(rng, rng.choice(KINDS))
        ncols = len(mat[0])
        if trial % 3:
            x = [random_entry(rng) for _ in range(ncols)]
            rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in mat]
        else:
            rhs = [random_entry(rng) for _ in mat]
        ref, ech = brute.Eliminator(ncols), _Echelon()
        for row, y in zip(mat, rhs):
            consistent = ref.add(row, y)
            assert (ech.add(row + (y,)) != ncols) == consistent
            if not consistent:
                break
        else:
            before = _solve(ech, ncols)
            assert before == ref.solve()
            branch = ech.copy()
            branch.add(tuple(random_entry(rng) for _ in range(ncols + 1)))
            assert _solve(ech, ncols) == before


def recovery_inputs():
    """Seeded unique, ambiguous, underdetermined and infeasible inputs, some with zero samples."""
    rng = random.Random(53)
    out = []
    for _ in range(10):
        window, m = (0, rng.randint(2, 4)), rng.randint(1, 2)
        E = random_phaseless_set(rng, window, m)
        values = unsigned_values(random_nonseparable_spline(rng, window, m), E)
        out.append((UnsignedSamples(E, values), m))
        out.append((UnsignedSamples(E, values[:-1] + (values[-1] + 1,)), m))
        out.append((UnsignedSamples(E, unsigned_values(random_separable_spline(rng, window, m), E)), m))
    for _ in range(6):
        width = rng.randint(4, 6)
        E = SampleSet(tuple(sorted(u + F(rng.randint(1, 15), 16) for u in range(width))), (0, width))
        f = random_nonseparable_spline(rng, (0, width), 1)
        out.append((UnsignedSamples(E, unsigned_values(f, E)), 1))
    # One point per unit leaves a null space of dimension m: every leaf
    # admits its particular solution plus steps along each direction.
    for m in (1, 2, 2, 3, 3):
        width = rng.randint(2, 4)
        E = SampleSet(tuple(u + F(rng.randint(1, 7), 8) for u in range(width)), (0, width))
        values = unsigned_values(random_nonseparable_spline(rng, (0, width), m), E)
        out.append((UnsignedSamples(E, values), m))
        out.append((UnsignedSamples(E, (F(0),) + values[1:]), m))
    return out


def test_recovery_inputs_reach_wide_null_spaces():
    dims = set()
    for samples, m in recovery_inputs():
        E = samples.sample_set
        dims.add((E.window[1] - E.window[0]) + m - exact_rank(build_collocation(E, m).entries))
    assert {0, 1, 2, 3} <= dims


@pytest.mark.parametrize("branch_zero_values", [False, True])
def test_reconstruct_matches_reference(branch_zero_values):
    statuses = set()
    inputs = recovery_inputs()
    assert any(0 in samples.values for samples, _ in inputs)
    for samples, m in inputs:
        got = reconstruct(samples, m)
        assert got == brute.reconstruct(samples, m, branch_zero_values=branch_zero_values)
        statuses.add(got.status)
    assert statuses == {"unique", "ambiguous", "infeasible"}
