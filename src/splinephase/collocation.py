"""Collocation matrices of B-spline shifts and exact rational linear algebra.

Matrices are plain tuples of tuples of Fractions.  Rank, null spaces, row
spaces and the consistency of linear systems all come from one integer
row echelon form (:class:`_Echelon`): each row is cleared of denominators,
reduced fraction-free against the pivots before it (Bareiss, Math. Comp.
22, 1968) and kept primitive, so entries stay small integers and no
Fraction is built until the reduced row echelon form is read out.  That
form is unique, which makes every basis derived from it deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Optional, Sequence, Tuple

from .bspline import as_fraction, check_eval_degree, touched_shifts, _bspline_value
from .sequences import SampleSet

__all__ = [
    "CollocationMatrix",
    "build_collocation",
    "exact_rank",
    "null_space",
    "schoenberg_whitney",
    "to_matrix",
]

Matrix = Tuple[Tuple[Fraction, ...], ...]


def to_matrix(rows: Iterable[Iterable]) -> Matrix:
    """Normalize nested iterables to a rectangular tuple-of-tuples of Fractions."""
    mat = tuple(tuple(as_fraction(v) for v in row) for row in rows)
    widths = {len(row) for row in mat}
    if len(widths) > 1:
        raise ValueError("matrix rows must all have the same length")
    return mat


def _primitive(row: List[int]) -> List[int]:
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


class _Echelon:
    """Row echelon form over the integers, grown one row at a time.

    ``rows`` are primitive integer rows in increasing order of their pivot
    (leading nonzero) column, listed in ``pivots``.  A row list is never
    changed once stored, so :meth:`copy` shares them.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self) -> None:
        self.rows: List[List[int]] = []
        self.pivots: List[int] = []

    def copy(self) -> "_Echelon":
        other = _Echelon()
        other.rows = self.rows[:]
        other.pivots = self.pivots[:]
        return other

    def add(self, row: Sequence[Fraction]) -> Optional[int]:
        """Fold a rational row in; its new pivot column, or None if dependent."""
        den = lcm(*[v.denominator for v in row])
        cur = _primitive([v.numerator * (den // v.denominator) for v in row])
        rows, pivots = self.rows, self.pivots
        lead = i = 0
        while True:
            while lead < len(cur) and not cur[lead]:
                lead += 1
            if lead == len(cur):
                return None
            i = bisect_left(pivots, lead, i)
            if i == len(pivots) or pivots[i] != lead:
                rows.insert(i, cur)
                pivots.insert(i, lead)
                return lead
            # Clear the leading entry against the pivot row of that column.
            prow = rows[i]
            g = gcd(prow[lead], cur[lead])
            p, q = prow[lead] // g, cur[lead] // g
            cur = _primitive([p * a - q * b for a, b in zip(cur, prow)])

    def reduced(self) -> List[Tuple[Fraction, ...]]:
        """The reduced row echelon form: pivots 1, zeros above and below them."""
        rows = self.rows[:]
        for i in range(len(rows) - 1, 0, -1):
            pc, prow = self.pivots[i], rows[i]
            for j in range(i):
                v = rows[j][pc]
                if v:
                    g = gcd(prow[pc], v)
                    p, q = prow[pc] // g, v // g
                    rows[j] = _primitive([p * a - q * b for a, b in zip(rows[j], prow)])
        return [
            tuple(Fraction(v, row[pc]) for v in row)
            for row, pc in zip(rows, self.pivots)
        ]


def _echelon(mat: Matrix) -> _Echelon:
    ech = _Echelon()
    for row in mat:
        ech.add(row)
    return ech


def exact_rank(matrix) -> int:
    """Rank over the rationals, exact."""
    return len(_echelon(to_matrix(matrix)).pivots)


def _kernel(rref: Sequence[Sequence[Fraction]], pivots: Sequence[int], ncols: int) -> List[List[Fraction]]:
    """One null vector per free column c < ncols: 1 at c, minus column c of the RREF at the pivots."""
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(rref, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def null_space(matrix) -> Tuple[Tuple[Fraction, ...], ...]:
    """Basis of the right null space, possibly empty.

    Each basis vector is scaled so that its first nonzero entry is +1;
    the basis itself comes from the reduced echelon form, one vector per
    free column, so repeated runs agree entry for entry.
    """
    mat = to_matrix(matrix)
    if not mat:
        raise ValueError("null space of an empty matrix is ambiguous; pass at least one row")
    ech = _echelon(mat)
    basis = []
    for vec in _kernel(ech.reduced(), ech.pivots, len(mat[0])):
        first = next(v for v in vec if v != 0)
        basis.append(tuple(v / first for v in vec))
    return tuple(basis)


def _collocation_rows(m: int, window: Tuple[int, int], points: Sequence[Fraction]) -> Matrix:
    """One row per point x: the values B_m(x - n) at the shifts n = n1 - m .. n2 - 1.

    Only the shifts that x touches are evaluated; the other entries are zero.
    """
    n1, n2 = window
    lo = n1 - m
    rows = []
    for x in points:
        row = [Fraction(0)] * (n2 - lo)
        for n in touched_shifts(m, x, lo, n2 - 1):
            row[n - lo] = _bspline_value(m, x - n)
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class CollocationMatrix:
    """Matrix of B-spline shift values at sample points.

    Rows follow ``row_index`` (the basis shifts, ascending), columns follow
    ``col_index`` (the sample points, ascending); the entry at (n, x) is
    the degree-m B-spline shifted by n evaluated at x.
    """

    entries: Matrix
    row_index: Tuple[int, ...]
    col_index: Tuple[Fraction, ...]

    @property
    def nrows(self) -> int:
        return len(self.row_index)

    @property
    def ncols(self) -> int:
        return len(self.col_index)


def build_collocation(E: SampleSet, m: int) -> CollocationMatrix:
    """Collocation matrix of the windowed basis shifts at the points of E."""
    check_eval_degree(m)
    n1, n2 = E.window
    shifts = tuple(range(n1 - m, n2))
    rows = _collocation_rows(m, E.window, E.points)
    entries = tuple(tuple(row[j] for row in rows) for j in range(len(shifts)))
    return CollocationMatrix(entries, shifts, E.points)


def schoenberg_whitney(m: int, shifts: Sequence[int], points: Sequence) -> bool:
    """Invertibility test for the square matrix of shifted B-spline values.

    With strictly increasing integer shifts and strictly increasing points
    of equal number, the matrix [B_m(t_i - n_j)] is invertible exactly when
    every diagonal entry B_m(t_i - n_i) is nonzero.
    """
    check_eval_degree(m)
    if len(shifts) != len(points):
        raise ValueError("shifts and points must have the same length")
    shifts = [int(n) for n in shifts]
    pts = [as_fraction(t) for t in points]
    for a, b in zip(shifts, shifts[1:]):
        if a >= b:
            raise ValueError("shifts must be strictly increasing")
    for a, b in zip(pts, pts[1:]):
        if a >= b:
            raise ValueError("points must be strictly increasing")
    return all(_bspline_value(m, t - n) != 0 for n, t in zip(shifts, pts))
