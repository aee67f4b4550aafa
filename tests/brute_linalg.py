"""Rational reference for the exact elimination kernel.

These are the Fraction routines the integer echelon replaced: a reduced
row echelon form with first-nonzero pivoting, the null space read from
it, and the incremental eliminator with back-substitution that drove the
sign search.  ``test_linalg_reference.py`` requires the library's rank,
null space, row space, system solutions and recoveries to equal theirs
exactly.  Only the domain types and the B-spline values come from the
library, apart from the subset-rank table at the end, which walks the
library's echelon.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from splinephase.bspline import SplineFunction, _bspline_value
from splinephase.collocation import _Echelon
from splinephase.retrieval import RecoveryResult, UnsignedSamples


def rref(matrix) -> Tuple[List[List[Fraction]], List[int]]:
    rows = [[Fraction(v) for v in row] for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def rowspace(matrix) -> Tuple[Tuple[Fraction, ...], ...]:
    """The nonzero rows of the reduced row echelon form."""
    rows, pivots = rref(matrix)
    return tuple(tuple(row) for row in rows[: len(pivots)])


def null_space(matrix) -> Tuple[Tuple[Fraction, ...], ...]:
    """One vector per free column, scaled so its first nonzero entry is +1."""
    ncols = len(matrix[0])
    rows, pivots = rref(matrix)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        first = next(v for v in vec if v != 0)
        basis.append(tuple(v / first for v in vec))
    return tuple(basis)


class Eliminator:
    """Row-echelon accumulator over the rationals with exact consistency checks."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: List[List[Fraction]] = []
        self.rhs: List[Fraction] = []
        self.pivot_cols: List[int] = []

    def copy(self) -> "Eliminator":
        other = Eliminator(self.ncols)
        other.rows = [row[:] for row in self.rows]
        other.rhs = self.rhs[:]
        other.pivot_cols = self.pivot_cols[:]
        return other

    def add(self, row: Sequence[Fraction], rhs: Fraction) -> bool:
        """Fold one equation in; False means the system became inconsistent."""
        row = [Fraction(v) for v in row]
        rhs = Fraction(rhs)
        for i, pc in enumerate(self.pivot_cols):
            if row[pc] != 0:
                factor = row[pc] / self.rows[i][pc]
                row = [a - factor * b for a, b in zip(row, self.rows[i])]
                rhs = rhs - factor * self.rhs[i]
        pivot = next((c for c in range(self.ncols) if row[c] != 0), None)
        if pivot is None:
            return rhs == 0
        position = next(
            (i for i, pc in enumerate(self.pivot_cols) if pc > pivot),
            len(self.pivot_cols),
        )
        self.rows.insert(position, row)
        self.rhs.insert(position, rhs)
        self.pivot_cols.insert(position, pivot)
        return True

    def solve(self) -> Tuple[Tuple[Fraction, ...], Tuple[Tuple[Fraction, ...], ...]]:
        """Particular solution (free coordinates zero) and a null-space basis."""
        rows = [row[:] for row in self.rows]
        rhs = self.rhs[:]
        for i in range(len(rows) - 1, -1, -1):
            pc = self.pivot_cols[i]
            pv = rows[i][pc]
            rows[i] = [v / pv for v in rows[i]]
            rhs[i] = rhs[i] / pv
            for j in range(i):
                f = rows[j][pc]
                if f != 0:
                    rows[j] = [a - f * b for a, b in zip(rows[j], rows[i])]
                    rhs[j] = rhs[j] - f * rhs[i]
        particular = [Fraction(0)] * self.ncols
        for i, pc in enumerate(self.pivot_cols):
            particular[pc] = rhs[i]
        basis = []
        for fc in range(self.ncols):
            if fc in self.pivot_cols:
                continue
            vec = [Fraction(0)] * self.ncols
            vec[fc] = Fraction(1)
            for i, pc in enumerate(self.pivot_cols):
                vec[pc] = -rows[i][fc]
            basis.append(tuple(vec))
        return tuple(particular), tuple(basis)


def _subset_ranks(vectors: Sequence[Sequence[Fraction]], width: int) -> List[int]:
    """Rank of every subset of the vectors, indexed by the mask whose bit j marks vector j.

    This 2^N table is what the frame test and the partition oracle read
    before matroid connectivity and the greedy matching replaced it.  The
    vectors have ``width`` entries each: the columns of a frame, or the
    collocation rows of a point set.  A depth-first walk extends each subset
    by one vector above its highest, so a node costs one copy of its
    parent's echelon and one reduction.  A subset of rank ``width`` is a
    leaf: every superset has that rank too, which the table holds from the
    start.
    """
    ranks = [width] * (1 << len(vectors))
    stack = [(0, 0, _Echelon())]
    while stack:
        mask, start, ech = stack.pop()
        rank = ranks[mask] = len(ech.pivots)
        if rank == width:
            continue
        for j in range(start, len(vectors)):
            child = ech.copy()
            child.add(vectors[j])
            stack.append((mask | 1 << j, j + 1, child))
    return ranks


def _canonical(coeffs: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    lead = next((c for c in coeffs if c != 0), None)
    if lead is not None and lead < 0:
        return tuple(-c for c in coeffs)
    return tuple(coeffs)


def reconstruct(samples: UnsignedSamples, m: int, *, branch_zero_values: bool = False) -> RecoveryResult:
    """Depth-first sign search over the rational eliminator, merged up to sign."""
    E = samples.sample_set
    n1, n2 = E.window
    ncols = (n2 - n1) + m
    rows = [tuple(_bspline_value(m, x - n) for n in range(n1 - m, n2)) for x in E.points]
    values = samples.values
    pinned = next((i for i, y in enumerate(values) if y != 0), None)
    exact: List[Tuple[Fraction, ...]] = []
    families = []

    def descend(index: int, state: Eliminator) -> None:
        if index == len(values):
            particular, basis = state.solve()
            if basis:
                families.append((particular, basis))
            else:
                exact.append(particular)
            return
        y = values[index]
        branching = (y != 0 or branch_zero_values) and index != pinned
        for sign in ((1, -1) if branching else (1,)):
            branch = state.copy() if branching else state
            if branch.add(rows[index], sign * y):
                descend(index + 1, branch)

    descend(0, Eliminator(ncols))

    seen: Dict[Tuple[Fraction, ...], SplineFunction] = {}

    def admit(coeffs: Sequence[Fraction]) -> None:
        canon = _canonical(coeffs)
        if canon not in seen:
            seen[canon] = SplineFunction(m, n1 - m, canon, (n1, n2))

    for sol in exact:
        admit(sol)
    for particular, basis in families:
        admit(particular)
        admit([a + b for a, b in zip(particular, basis[0])])
        admit([a + 2 * b for a, b in zip(particular, basis[0])])
        for extra in basis[1:]:
            admit([a + b for a, b in zip(particular, extra)])

    solutions = tuple(seen[key] for key in sorted(seen))
    if not solutions:
        return RecoveryResult("infeasible", ())
    if len(solutions) == 1 and not families:
        return RecoveryResult("unique", solutions)
    return RecoveryResult("ambiguous", solutions, (solutions[0], solutions[1]))
