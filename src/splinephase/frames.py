"""Almost-phase-retrievability of rational frames and spark-type column tests.

A frame is an n x N rational matrix of full row rank whose columns span
R^n.  Recovery up to sign from unsigned inner products is governed by how
the null space moves under column sign flips; the reference test and the
cross-check criteria below are all exact rank computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence, Tuple

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


def _stack(a: Matrix, b: Matrix) -> Matrix:
    return a + b


def _check_frame(matrix) -> Tuple[Matrix, int, int]:
    mat = to_matrix(matrix)
    n = len(mat)
    if n == 0 or len(mat[0]) == 0:
        raise NotAFrameError("a frame needs at least one row and one column")
    ncols = len(mat[0])
    if n < 2:
        raise NotAFrameError("frames of interest live in dimension at least 2")
    if exact_rank(mat) < n:
        raise NotAFrameError("columns do not span: matrix is rank deficient")
    return mat, n, ncols


def _check_cap(ncols: int) -> None:
    if ncols > SIGN_ENUMERATION_CAP:
        raise ValueError(
            "sign-pattern enumeration is capped at %d columns, got %d"
            % (SIGN_ENUMERATION_CAP, ncols)
        )


def is_almost_phase_retrievable(matrix) -> bool:
    """Whether unsigned frame coefficients pin down almost every vector up to sign.

    Reference test: for every pair of distinct sign patterns s, s' the rank
    of the stacked matrix [A D_s; A D_s'] must exceed rank(A D_s).  Since
    the diagonal sign matrices are involutions, right-multiplying the stack
    by D_s reduces the pair (s, s') to the single pattern t = s*s', so the
    enumeration runs over the non-identity patterns once.
    """
    mat, n, ncols = _check_frame(matrix)
    _check_cap(ncols)
    for t in sign_patterns(ncols):
        if t.is_identity():
            continue
        if exact_rank(_stack(mat, apply_signs(mat, t))) == n:
            return False
    return True


def _canonical_rowspace(matrix: Matrix) -> Tuple[Tuple[Fraction, ...], ...]:
    return tuple(_echelon(matrix).reduced())


def almost_pr_by_criterion(matrix, criterion: int) -> bool:
    """Almost phase retrievability decided by one of the equivalent criteria.

    2: the sign-flipped ranges of the transpose are pairwise distinct;
    3: the sign-flipped null spaces are pairwise distinct;
    4: every stacked pair gains rank (the literal pairwise form);
    5: criterion 4 applied to a complement matrix whose null space is the
       range of the transpose.

    These exist for cross-checks and the command line; the reference
    implementation is :func:`is_almost_phase_retrievable`.
    """
    mat, n, ncols = _check_frame(matrix)
    _check_cap(ncols)
    patterns = list(sign_patterns(ncols))

    if criterion == 2:
        spaces = [_canonical_rowspace(apply_signs(mat, s)) for s in patterns]
        return all(a != b for a, b in combinations(spaces, 2))
    if criterion == 3:
        kernels = [null_space(apply_signs(mat, s)) for s in patterns]
        return all(a != b for a, b in combinations(kernels, 2))
    if criterion == 4:
        for s, s_prime in combinations(patterns, 2):
            left = apply_signs(mat, s)
            if exact_rank(_stack(left, apply_signs(mat, s_prime))) == exact_rank(left):
                return False
        return True
    if criterion == 5:
        complement = null_space(mat)  # rows spanning the annihilator of the row space
        if not complement:
            return False
        comp = to_matrix(complement)
        base_rank = exact_rank(comp)
        for s, s_prime in combinations(patterns, 2):
            left = apply_signs(comp, s)
            if exact_rank(_stack(left, apply_signs(comp, s_prime))) == base_rank:
                return False
        return True
    raise ValueError("criterion must be one of 2, 3, 4, 5")


def is_weak_full_spark(matrix) -> bool:
    """Whether the rank survives removal of any single column."""
    mat = to_matrix(matrix)
    if not mat or not mat[0]:
        return False
    rank = exact_rank(mat)
    ncols = len(mat[0])
    for j in range(ncols):
        reduced = tuple(row[:j] + row[j + 1:] for row in mat)
        if exact_rank(reduced) != rank:
            return False
    return True


def is_full_spark(matrix) -> bool:
    """Whether every maximal square column submatrix is invertible."""
    mat = to_matrix(matrix)
    n = len(mat)
    ncols = len(mat[0]) if mat else 0
    if ncols < n:
        raise ValueError("full spark needs at least as many columns as rows")
    for cols in combinations(range(ncols), n):
        sub = tuple(tuple(row[c] for c in cols) for row in mat)
        if exact_rank(sub) != n:
            return False
    return True
