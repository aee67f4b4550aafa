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
the same form shows the coloops the weak spark test looks for.  Both
tests read one reduced echelon form: its row count is the rank, and a
column of A is zero exactly when its column there is, so zero columns,
which measure nothing, stay out of the components without being removed.
That one elimination is bounded by ``ELIMINATION_BUDGET``, which counts
the entries and their bits, not the columns.

The cross-check criteria keep the literal pairwise formulations.  They
enumerate 2^(N-1) sign patterns, so they, and the full spark test's
subsets, are capped by ``SIGN_ENUMERATION_CAP``; they drop zero columns
before they start.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, isqrt, lcm
from typing import Iterator, List, Sequence, Set, Tuple

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

# Work admitted for exact eliminations, in the units of _check_budget.  Over
# square, wide and tall matrices of 1- to 100-digit entries, the slowest one
# admitted took 1.1 s to reduce (CPython 3.11).
ELIMINATION_BUDGET = 5 * 10 ** 11


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


def _check_budget(mat: Matrix, ncols: int, count: int = 1) -> None:
    """Refuse ``count`` eliminations of ``len(mat)`` x ``ncols`` blocks past the budget.

    An elimination of an n x N block of rank at most r = min(n, N) does
    about n*N*r multiply-subtracts on integers that grow to about r*S bits,
    where S bounds a row cleared of denominators: the bits of the lcm of
    its denominators plus those of its longest numerator.  A product of
    b-bit integers costs about b^2, so the measure is count*n*N*r*(r*S)^2.
    Each lcm is abandoned once it is too long, so the check stays cheap on
    any input.
    """
    r = min(len(mat), ncols)
    steps = count * len(mat) * ncols * r
    if not steps:
        return
    limit = isqrt(ELIMINATION_BUDGET // steps) // r
    for row in mat:
        top, den = max(v.numerator.bit_length() for v in row), 1
        for v in row:
            den = lcm(den, v.denominator)
            if den.bit_length() + top > limit:
                raise ValueError(
                    "%d x %d, eliminated %d time(s), exceeds the elimination budget "
                    "(%d): rows cleared of denominators must fit in %d bits"
                    % (len(mat), ncols, count, ELIMINATION_BUDGET, limit)
                )


def _reduced_supports(matrix) -> Tuple[Matrix, List[Set[int]]]:
    """The matrix and, within the budget, the nonzero columns of each reduced echelon row."""
    mat = to_matrix(matrix)
    _check_budget(mat, len(mat[0]) if mat else 0)
    return mat, [{j for j, v in enumerate(row) if v} for row in _echelon(mat).reduced()]


def _check_frame(matrix) -> List[Set[int]]:
    """The supports of the rows of the frame's reduced echelon form; its rank is their number."""
    mat, rows = _reduced_supports(matrix)
    if len(mat) < 2 or not mat[0]:
        raise NotAFrameError("frames of interest have at least two rows and one column")
    if len(rows) < len(mat):
        raise NotAFrameError("columns do not span: matrix is rank deficient")
    return rows


def is_almost_phase_retrievable(matrix) -> bool:
    """Whether unsigned frame coefficients pin down almost every vector up to sign.

    Reference test: for every pair of distinct sign patterns s, s' the rank
    of the stacked matrix [A D_s; A D_s'] must exceed n = rank(A D_s).
    Right-multiplying the stack by D_s reduces the pair to the single
    pattern t = s*s', and with S the columns where t is +1,
    rank [A; A D_t] = rank A_S + rank A_{S^c}.  The test therefore fails
    exactly when the nonzero columns split into two nonempty sets whose
    ranks sum to n, that is when the column matroid is disconnected: it
    passes when the columns linked through shared nonzero rows of the
    reduced echelon form reach every nonzero column.  A column of A is
    zero exactly when its column of that form is, so the form serves both
    questions, and its row count is the rank.  It takes one elimination
    under the elimination budget and no column cap.
    """
    rows = _check_frame(matrix)
    component, frontier = set(), rows[0]
    while frontier:
        component |= frontier
        frontier = set().union(*[row for row in rows if row & frontier]) - component
    return component == set().union(*rows)


def _canonical_rowspace(matrix: Matrix) -> Matrix:
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
    implementation is :func:`is_almost_phase_retrievable`.  They enumerate
    2^(N-1) sign patterns, so they refuse more than SIGN_ENUMERATION_CAP
    columns as given, before any elimination; zero columns are then dropped.
    """
    mat = to_matrix(matrix)
    if mat and len(mat[0]) > SIGN_ENUMERATION_CAP:
        raise ValueError(
            "sign-pattern enumeration is capped at %d columns, got %d"
            % (SIGN_ENUMERATION_CAP, len(mat[0]))
        )
    _check_frame(mat)
    mat = tuple(zip(*[col for col in zip(*mat) if any(col)]))
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
    That form is built once, under the elimination budget.
    """
    mat, rows = _reduced_supports(matrix)
    return bool(mat and mat[0]) and all(len(row) > 1 for row in rows)


def is_full_spark(matrix) -> bool:
    """Whether every maximal square column submatrix is invertible.

    That is one rank per n-column subset; it refuses to visit more than
    2^SIGN_ENUMERATION_CAP column subsets, or subsets whose n x n
    eliminations together exceed the elimination budget.
    """
    mat = to_matrix(matrix)
    n = len(mat)
    ncols = len(mat[0]) if mat else 0
    if ncols < n:
        raise ValueError("full spark needs at least as many columns as rows")
    subsets = comb(ncols, n)
    if subsets > 2 ** SIGN_ENUMERATION_CAP:
        raise ValueError(
            "full spark is capped at %d column subsets, got C(%d, %d) = %d"
            % (2 ** SIGN_ENUMERATION_CAP, ncols, n, subsets)
        )
    _check_budget(mat, n, subsets)
    for cols in combinations(range(ncols), n):
        sub = tuple(tuple(row[c] for c in cols) for row in mat)
        if exact_rank(sub) != n:
            return False
    return True
