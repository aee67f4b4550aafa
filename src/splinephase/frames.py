"""Almost-phase-retrievability of rational frames and spark-type column tests.

A frame is an n x N rational matrix A of full row rank whose columns span
R^n.  Recovery up to sign from unsigned inner products is governed by how
the row space moves under column sign flips D_t: almost every vector is
determined up to sign exactly when rank [A; A D_t] > n for every pattern t
other than the identity.  Let A_S keep the columns S where t is +1.  The
half sum and half difference of the two row blocks are A_S and A_{S^c}
padded with zero columns, two blocks on disjoint columns, so

    rank [A; A D_t] = rank A_S + rank A_{S^c}

(the complement property of Balan, Casazza and Edidin, "On signal
reconstruction without phase", ACHA 2006).  Every split has
rank A_S + rank A_{S^c} >= n, with equality exactly when S separates the
column matroid of A, so the reference test asks whether that matroid is
connected.  Its components are those of the graph that joins the columns
sharing a nonzero row of the reduced echelon form (Krogdahl, "The
dependence graph for bases in matroids", Discrete Math. 19, 1977), and
the same form shows the coloops the weak spark test looks for.  The
cross-check criteria keep the literal pairwise formulations.  Zero
columns measure nothing and are dropped before any test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Iterator, Sequence, Tuple

from .collocation import Matrix, _echelon, exact_rank, null_space, to_matrix

__all__ = [
    "NotAFrameError",
    "SignPattern",
    "almost_pr_by_criterion",
    "apply_signs",
    "is_almost_phase_retrievable",
    "is_full_spark",
    "is_weak_full_spark",
    "sign_patterns",
]

SIGN_ENUMERATION_CAP = 14


class NotAFrameError(ValueError):
    """Raised when a matrix expected to be a frame is rank deficient."""


@dataclass(frozen=True)
class SignPattern:
    """Vector of signs with the first entry pinned to +1.

    Pinning the leading sign quotients out the global sign ambiguity, so
    distinct patterns describe genuinely different measurement collisions.
    """

    signs: Tuple[int, ...]

    def __post_init__(self) -> None:
        signs = tuple(int(s) for s in self.signs)
        if not signs:
            raise ValueError("sign pattern must be nonempty")
        if signs[0] != 1:
            raise ValueError("first sign must be +1")
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        object.__setattr__(self, "signs", signs)

    def __len__(self) -> int:
        return len(self.signs)

    def is_identity(self) -> bool:
        return all(s == 1 for s in self.signs)

    def compose(self, other: "SignPattern") -> "SignPattern":
        """Entrywise product; the quotient of two patterns."""
        if len(other) != len(self):
            raise ValueError("sign patterns must have the same length")
        return SignPattern(tuple(a * b for a, b in zip(self.signs, other.signs)))


def sign_patterns(n: int) -> Iterator[SignPattern]:
    """All sign patterns of length n with leading +1, lexicographically."""
    if n < 1:
        raise ValueError("need at least one column")
    for tail in product((1, -1), repeat=n - 1):
        yield SignPattern((1,) + tail)


def apply_signs(matrix, s: SignPattern) -> Matrix:
    """Scale column j of the matrix by the j-th sign (right diagonal action)."""
    mat = to_matrix(matrix)
    if mat and len(mat[0]) != len(s):
        raise ValueError(
            "matrix has %d columns but the sign pattern has %d entries"
            % (len(mat[0]), len(s))
        )
    return tuple(tuple(v * sg for v, sg in zip(row, s.signs)) for row in mat)


def _check_frame(matrix) -> Matrix:
    """The frame with its zero columns dropped.

    A zero column adds nothing to the measurements |<x, a_j>|, so dropping
    it leaves the question unchanged; kept, it would make every pattern
    equal to its flip at that column, and every test would fail.  The
    column cap applies to the matrix as given.
    """
    mat = to_matrix(matrix)
    n = len(mat)
    if n == 0 or len(mat[0]) == 0:
        raise NotAFrameError("a frame needs at least one row and one column")
    ncols = len(mat[0])
    if n < 2:
        raise NotAFrameError("frames of interest live in dimension at least 2")
    if ncols > SIGN_ENUMERATION_CAP:
        raise ValueError(
            "sign-pattern enumeration is capped at %d columns, got %d"
            % (SIGN_ENUMERATION_CAP, ncols)
        )
    if exact_rank(mat) < n:
        raise NotAFrameError("columns do not span: matrix is rank deficient")
    return tuple(zip(*[col for col in zip(*mat) if any(col)]))


def is_almost_phase_retrievable(matrix) -> bool:
    """Whether unsigned frame coefficients pin down almost every vector up to sign.

    Reference test: for every pair of distinct sign patterns s, s' the rank
    of the stacked matrix [A D_s; A D_s'] must exceed n = rank(A D_s).
    Right-multiplying the stack by D_s reduces the pair to the single
    pattern t = s*s', and with S the columns where t is +1,
    rank [A; A D_t] = rank A_S + rank A_{S^c}.  The test therefore fails
    exactly when the columns split into two nonempty sets whose ranks sum
    to n, that is when the column matroid is disconnected: it passes when
    the columns linked through shared nonzero rows of the reduced echelon
    form reach every column from the first.
    """
    mat = _check_frame(matrix)
    rows = [{j for j, v in enumerate(row) if v} for row in _echelon(mat).reduced()]
    component, frontier = set(), {0}
    while frontier:
        component |= frontier
        frontier = set().union(*[row for row in rows if row & frontier]) - component
    return len(component) == len(mat[0])


def _canonical_rowspace(matrix: Matrix) -> Tuple[Tuple[Fraction, ...], ...]:
    return tuple(_echelon(matrix).reduced())


def _every_pair_gains_rank(base: Matrix, patterns: Sequence[SignPattern]) -> bool:
    """Whether rank [B D_s; B D_s'] > rank B D_s for every pair of patterns s before s'.

    The echelon of B D_s is built once per s; each later s' adds its rows to
    a copy, and the pair passes at the first row that gains a pivot.
    """
    signed = [apply_signs(base, s) for s in patterns]
    for i, left in enumerate(signed):
        ech = _echelon(left)
        for right in signed[i + 1:]:
            trial = ech.copy()
            if all(trial.add(row) is None for row in right):
                return False
    return True


def almost_pr_by_criterion(matrix, criterion: int) -> bool:
    """Almost phase retrievability decided by one of the equivalent criteria.

    2: the sign-flipped ranges of the transpose are pairwise distinct;
    3: the sign-flipped null spaces are pairwise distinct;
    4: every stacked pair gains rank (the literal pairwise form);
    5: criterion 4 applied to a complement matrix whose null space is the
       range of the transpose.

    These exist for cross-checks and the command line; the reference
    implementation is :func:`is_almost_phase_retrievable`.  Zero columns
    are dropped first, as there.
    """
    mat = _check_frame(matrix)
    patterns = list(sign_patterns(len(mat[0])))

    if criterion == 2:
        spaces = {_canonical_rowspace(apply_signs(mat, s)) for s in patterns}
        return len(spaces) == len(patterns)
    if criterion == 3:
        kernels = {null_space(apply_signs(mat, s)) for s in patterns}
        return len(kernels) == len(patterns)
    if criterion == 4:
        return _every_pair_gains_rank(mat, patterns)
    if criterion == 5:
        complement = null_space(mat)  # rows spanning the annihilator of the row space
        return bool(complement) and _every_pair_gains_rank(complement, patterns)
    raise ValueError("criterion must be one of 2, 3, 4, 5")


def is_weak_full_spark(matrix) -> bool:
    """Whether the rank survives removal of any single column.

    Removing column j lowers the rank exactly when j is a coloop: a pivot
    column whose row of the reduced echelon form has no other nonzero entry.
    """
    mat = to_matrix(matrix)
    if not mat or not mat[0]:
        return False
    return all(sum(1 for v in row if v) > 1 for row in _echelon(mat).reduced())


def is_full_spark(matrix) -> bool:
    """Whether every maximal square column submatrix is invertible.

    That is one rank per n-column subset; like the sign-pattern tests, it
    refuses to visit more than 2^SIGN_ENUMERATION_CAP column subsets.
    """
    mat = to_matrix(matrix)
    n = len(mat)
    ncols = len(mat[0]) if mat else 0
    if ncols < n:
        raise ValueError("full spark needs at least as many columns as rows")
    if comb(ncols, n) > 2 ** SIGN_ENUMERATION_CAP:
        raise ValueError(
            "full spark is capped at %d column subsets, got C(%d, %d) = %d"
            % (2 ** SIGN_ENUMERATION_CAP, ncols, n, comb(ncols, n))
        )
    for cols in combinations(range(ncols), n):
        sub = tuple(tuple(row[c] for c in cols) for row in mat)
        if exact_rank(sub) != n:
            return False
    return True
