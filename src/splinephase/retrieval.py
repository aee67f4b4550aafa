"""Sign recovery from unsigned samples, the brute-force phaseless oracle,
and constructive counterexamples for failing sample sets.

The oracle and the counterexample builder share one engine: for a split of
the samples into two halves, a recovery ambiguity exists precisely when
some pair of coefficient vectors, one vanishing on each half, has supports
whose union has no zero-gap of length m+1.  The shift by n touches only
(n, n+m+1), so a vanishing vector splits at such a gap into two vectors
that each still vanish on the side.  Every minimal support is therefore
m-connected, and the generic vector of a side (support equal to the
maximal support M of its null space), cut to any m-connected run of
M1 | M2, still vanishes on that side.  A split refutes exactly when some
run of M1 | M2 meets both M1 and M2, which takes one null space per side.
A window of one unit holds no gap of m+1, so there any two nonzero spaces
refute.  Scaling one side so its smallest nonzero magnitude beats the
other's largest (no accidental cancellation) turns the two cut vectors
into nonseparable splines agreeing in modulus on every sample.  Only the
splits whose two halves are both rank-deficient can refute, and a greedy
matching of points to shifts finds them without elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .bspline import SplineFunction, as_fraction, check_eval_degree, eval_spline, is_separable, support_runs, touched_shifts
from .collocation import _collocation_rows, _Echelon, _kernel, null_space
from .sequences import CertificateReport, SampleSet, Violation, is_local_phaseless

__all__ = [
    "CounterexamplePair",
    "InternalInconsistencyError",
    "PARTITION_ORACLE_CAP",
    "RecoveryResult",
    "UnsignedSamples",
    "build_counterexample",
    "partition_oracle",
    "reconstruct",
    "verify_modulus_agreement",
]

PARTITION_ORACLE_CAP = 20


class InternalInconsistencyError(RuntimeError):
    """A certified-failing sample set yielded no counterexample; one must exist."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnsignedSamples:
    """Nonnegative sample magnitudes aligned with the points of a sample set."""

    sample_set: SampleSet
    values: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        vals = tuple(as_fraction(v) for v in self.values)
        if len(vals) != len(self.sample_set.points):
            raise ValueError("one value per sample point is required")
        if any(v < 0 for v in vals):
            raise ValueError("unsigned sample values must be nonnegative")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of sign recovery: unique, ambiguous or infeasible.

    Solutions are canonical representatives (first nonzero coefficient
    positive) and each reproduces the unsigned samples exactly.  For an
    ambiguous outcome, ``certificate`` holds two solutions that are not
    equal up to a global sign.
    """

    status: str
    solutions: Tuple[SplineFunction, ...]
    certificate: Optional[Tuple[SplineFunction, SplineFunction]] = None

    def __post_init__(self) -> None:
        if self.status not in ("unique", "ambiguous", "infeasible"):
            raise ValueError("status must be unique, ambiguous or infeasible")
        if self.status == "unique" and len(self.solutions) != 1:
            raise ValueError("a unique recovery carries exactly one representative")


@dataclass(frozen=True)
class CounterexamplePair:
    """Two windowed splines with equal moduli on a sample set, not sign-equal."""

    f1: SplineFunction
    f2: SplineFunction
    nonseparable: Tuple[bool, bool]


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------


def _canonical_coeffs(coeffs: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    for c in coeffs:
        if c != 0:
            if c < 0:
                return tuple(-v for v in coeffs)
            break
    return tuple(coeffs)


def _solve(ech: _Echelon, ncols: int) -> Tuple[Tuple[Fraction, ...], Tuple[Tuple[Fraction, ...], ...]]:
    """Particular solution (free coordinates zero) and a null-space basis of a
    consistent system whose rows carry the right-hand side as column ``ncols``."""
    rref = ech.reduced()
    particular = [Fraction(0)] * ncols
    for row, pc in zip(rref, ech.pivots):
        particular[pc] = row[ncols]
    return tuple(particular), tuple(tuple(vec) for vec in _kernel(rref, ech.pivots, ncols))


def reconstruct(samples: UnsignedSamples, m: int) -> RecoveryResult:
    """Recover the windowed splines consistent with unsigned sample values.

    Runs a depth-first search over sign assignments of the nonzero values,
    samples in increasing point order with the leading nonzero sign pinned
    to +1; zero values never branch, since both signs give one equation.
    The search keeps its own stack, so the number of samples meets no
    recursion limit.  Each partial assignment feeds an exact incremental
    elimination and is pruned the moment the linear system for the
    coefficients turns inconsistent; surviving leaves yield candidate
    splines which are merged up to global sign.

    Every leaf has the same coefficient rows, and the coefficient columns
    of the reduced form of a consistent [A | b] are the reduced form of A,
    so all leaves share one null space: a leaf differs only in its
    particular solution.
    """
    check_eval_degree(m)
    E = samples.sample_set
    n1, n2 = E.window
    ncols = (n2 - n1) + m
    rows = _collocation_rows(m, E.window, E.points)
    values = samples.values
    pinned = next((i for i, y in enumerate(values) if y != 0), None)

    particulars: List[Tuple[Fraction, ...]] = []
    basis: Tuple[Tuple[Fraction, ...], ...] = ()
    stack = [(0, _Echelon())]
    while stack:
        index, state = stack.pop()
        if index == len(values):
            particular, basis = _solve(state, ncols)
            particulars.append(particular)
            continue
        y = values[index]
        # -1 is pushed first, on a copy taken before +1 extends the state,
        # so the +1 branch is searched first.
        for sign in (-1, 1) if y and index != pinned else (1,):
            branch = state.copy() if sign < 0 else state
            # A pivot in the right-hand side column reads 0 = nonzero.
            if branch.add(rows[index] + (sign * y,)) != ncols:
                stack.append((index + 1, branch))

    # Of p, p + d and p + 2d (d != 0) at most two agree up to sign, so an
    # underdetermined system always lists two solutions.
    steps = [basis[0], tuple(2 * v for v in basis[0]), *basis[1:]] if basis else []
    seen: Dict[Tuple[Fraction, ...], SplineFunction] = {}
    for particular in particulars:
        for coeffs in [particular, *(tuple(a + b for a, b in zip(particular, step)) for step in steps)]:
            canon = _canonical_coeffs(coeffs)
            if canon not in seen:
                seen[canon] = SplineFunction(m, n1 - m, canon, (n1, n2))

    solutions = tuple(seen[key] for key in sorted(seen))
    if not solutions:
        return RecoveryResult("infeasible", ())
    if len(solutions) == 1 and not basis:
        return RecoveryResult("unique", solutions)
    return RecoveryResult("ambiguous", solutions, (solutions[0], solutions[1]))


def verify_modulus_agreement(f1: SplineFunction, f2: SplineFunction, probes: Iterable) -> bool:
    """Exact check that |f1| and |f2| agree at every probe point."""
    if f1.window != f2.window or f1.m != f2.m:
        raise ValueError("modulus comparison requires matching degree and window")
    return all(
        abs(eval_spline(f1, x)) == abs(eval_spline(f2, x)) for x in probes
    )


# ---------------------------------------------------------------------------
# Support analysis of vanishing splines
# ---------------------------------------------------------------------------


def _support_mask(vec: Sequence[Fraction]) -> int:
    mask = 0
    for j, v in enumerate(vec):
        if v != 0:
            mask |= 1 << j
    return mask


def _cancellation_free_sum(vectors: Sequence[Tuple[Fraction, ...]]) -> Tuple[Fraction, ...]:
    # Combine so the support is exactly the union: each coordinate rules out
    # at most one scaling factor, so small positive integers always work.
    acc = list(vectors[0])
    for vec in vectors[1:]:
        target = _support_mask(acc) | _support_mask(vec)
        if _support_mask(acc) == target:
            continue
        c = 1
        while True:
            candidate = [a + c * b for a, b in zip(acc, vec)]
            if _support_mask(candidate) == target:
                acc = candidate
                break
            c += 1
    return tuple(acc)


@lru_cache(maxsize=32768)
def _vanishing_basis(m: int, window: Tuple[int, int], points: Tuple[Fraction, ...]) -> Tuple[Tuple[Fraction, ...], ...]:
    """Basis of coefficient vectors whose windowed spline vanishes on the points."""
    ncols = (window[1] - window[0]) + m
    if not points:
        identity = []
        for j in range(ncols):
            vec = [Fraction(0)] * ncols
            vec[j] = Fraction(1)
            identity.append(tuple(vec))
        return tuple(identity)
    return null_space(_collocation_rows(m, window, points))


@lru_cache(maxsize=32768)
def _support_analysis(
    m: int, window: Tuple[int, int], points: Tuple[Fraction, ...]
) -> Optional[Tuple[int, Tuple[Fraction, ...]]]:
    """Maximal support (a bitmask over the shift range) of the splines
    vanishing on the points, with a vanishing vector that realizes it, or
    None when only the zero spline vanishes there."""
    basis = _vanishing_basis(m, window, points)
    if not basis:
        return None
    generic = _cancellation_free_sum(basis)
    return _support_mask(generic), generic


def _find_support_violation(
    m: int,
    window: Tuple[int, int],
    side1: Tuple[Fraction, ...],
    side2: Tuple[Fraction, ...],
) -> Optional[Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]]:
    """Two vanishing vectors, one per side, with a gap-free union of
    supports, or None: the generic vectors cut to the first run of M1 | M2
    that meets both maximal supports (see the module docstring)."""
    first = _support_analysis(m, window, side1)
    if first is None:
        return None
    second = _support_analysis(m, window, side2)
    if second is None:
        return None
    (mask1, g), (mask2, h) = first, second
    union = [j for j in range(len(g)) if (mask1 | mask2) >> j & 1]
    for run in support_runs(union, m):
        if any(mask1 >> j & 1 for j in run) and any(mask2 >> j & 1 for j in run):
            lo, hi = run[0], run[-1]
            return tuple(
                tuple(v if lo <= j <= hi else Fraction(0) for j, v in enumerate(vec))
                for vec in (g, h)
            )
    return None


def _scaled_pair(
    m: int,
    window: Tuple[int, int],
    vanish_on_first: Tuple[Fraction, ...],
    vanish_on_second: Tuple[Fraction, ...],
) -> Tuple[SplineFunction, SplineFunction]:
    # Scale the second vector so its smallest nonzero magnitude dominates
    # the first's largest; the sum and difference then have nonzero
    # coefficients exactly on the union of the two supports.
    g = vanish_on_first
    h = vanish_on_second
    g_top = max((abs(v) for v in g if v != 0), default=Fraction(0))
    h_bottom = min(abs(v) for v in h if v != 0)
    scale = g_top / h_bottom + 1
    f1 = tuple((gv + scale * hv) / 2 for gv, hv in zip(g, h))
    f2 = tuple((gv - scale * hv) / 2 for gv, hv in zip(g, h))
    n1 = window[0]
    return (
        SplineFunction(m, n1 - m, f1, window),
        SplineFunction(m, n1 - m, f2, window),
    )


# ---------------------------------------------------------------------------
# Partition enumeration
# ---------------------------------------------------------------------------


def _deficient_splits(E: SampleSet, m: int) -> Iterator[Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]]:
    """The splits of E in which both halves carry a nonzero vanishing spline.

    A half whose collocation rows have full rank w + m has V = 0, so every
    skipped split is one :func:`_find_support_violation` rejects.  By
    Schoenberg-Whitney the rank of the rows of sorted points is the size
    of a greedy matching that gives each point, in increasing order, the
    smallest free shift it touches (de Boor, "Total positivity of the
    spline collocation matrix", Indiana Univ. Math. J. 25, 1976).  So a
    depth-first walk deals the points out in increasing order, keeps each
    side's matching as (first free shift, rank), and drops a branch once a
    side reaches full rank.  The smallest point stays on the first side,
    so every unordered split comes once; the two sides play symmetric
    roles downstream.  Points go to the first side first, so (E, empty)
    is the first split whenever E is rank-deficient.
    """
    n1, n2 = E.window
    lo, full = n1 - m, (n2 - n1) + m
    touched = [touched_shifts(m, x, lo, n2 - 1) for x in E.points]

    def deal(side: Tuple[int, int], i: int) -> Tuple[int, int]:
        free, rank = side
        shift = max(free, touched[i].start)
        return (shift + 1, rank + 1) if shift < touched[i].stop else side

    stack = [(0, 0, (lo, 0), (lo, 0))]
    while stack:
        i, mask, first, second = stack.pop()
        if first[1] == full or second[1] == full:
            continue
        if i == len(touched):
            yield (
                tuple(x for j, x in enumerate(E.points) if mask >> j & 1),
                tuple(x for j, x in enumerate(E.points) if not mask >> j & 1),
            )
            continue
        if i:
            stack.append((i + 1, mask, first, deal(second, i)))
        stack.append((i + 1, mask | 1 << i, deal(first, i), second))


def partition_oracle(E: SampleSet, m: int) -> bool:
    """Definition-level test that E pins down nonseparable splines up to sign.

    Enumerates every split of E into a sign-agreement and a sign-reversal
    half and searches the two vanishing null spaces for a pair of vectors
    whose supports have a union with no zero-gap of length m+1.  Such a
    pair is exactly a recovery ambiguity between two nonseparable splines,
    so the oracle returns True when no split admits one.  A split with a
    full-rank half admits none and is skipped (:func:`_deficient_splits`).
    """
    check_eval_degree(m)
    if len(E) > PARTITION_ORACLE_CAP:
        raise ValueError(
            "partition oracle is capped at %d points, got %d"
            % (PARTITION_ORACLE_CAP, len(E))
        )
    for side1, side2 in _deficient_splits(E, m):
        if _find_support_violation(m, E.window, side1, side2) is not None:
            return False
    return True


# ---------------------------------------------------------------------------
# Counterexamples
# ---------------------------------------------------------------------------


def _transversal(points: Sequence[Fraction], lo: int, hi: int) -> List[Fraction]:
    picks = []
    for unit in range(lo, hi):
        inside = [x for x in points if unit < x < unit + 1]
        if inside:
            picks.append(inside[0])
    return picks


def _guided_sides(E: SampleSet, violation: Violation) -> Iterator[Tuple[Fraction, ...]]:
    n1, n2 = E.window
    pts = E.points
    if violation.condition == "left_prefix":
        k = int(violation.params["k"])
        yield tuple(x for x in pts if x < n1 + k)
    elif violation.condition == "right_suffix":
        k = int(violation.params["k"])
        yield tuple(x for x in pts if x > n2 - k)
    elif violation.condition == "interior":
        a = int(violation.params["n1"])
        b = int(violation.params["n2"])
        yield tuple(x for x in pts if x <= a)
        inside = [x for x in pts if a < x < b]
        transversal = set(_transversal(inside, a, b))
        yield tuple(x for x in inside if x not in transversal)
    else:  # cardinality
        transversal = set(_transversal(pts, n1, n2))
        yield tuple(x for x in pts if x not in transversal)
        yield tuple(x for x in pts if x in transversal)


def _partition_order(E: SampleSet, m: int, violation: Violation) -> Iterator[Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]]:
    seen = set()
    pts = set(E.points)
    for side in _guided_sides(E, violation):
        key = frozenset(side)
        if key in seen or frozenset(pts - set(side)) in seen:
            continue
        seen.add(key)
        complement = tuple(sorted(pts - set(side)))
        yield side, complement
    # The exhaustive tail walks up to 2^(|E| - 1) splits, as the oracle does.
    if len(E) > PARTITION_ORACLE_CAP:
        raise ValueError(
            "counterexample search beyond the guided splits is capped at %d points, got %d"
            % (PARTITION_ORACLE_CAP, len(E))
        )
    exhaustive = sorted(
        _deficient_splits(E, m),
        key=lambda pair: (abs(len(pair[0]) - len(pair[1])), pair),
    )
    for side1, side2 in exhaustive:
        key = frozenset(side1)
        if key in seen or frozenset(side2) in seen:
            continue
        seen.add(key)
        yield side1, side2


def build_counterexample(E: SampleSet, m: int) -> CounterexamplePair:
    """Construct two nonseparable splines that defeat recovery on a failing E.

    Requires the phaseless certification to fail.  Splits suggested by the
    violated condition are tried first, then every split with two
    rank-deficient halves by increasing size imbalance; the first split
    with a pair of vanishing vectors of gap-free union yields the pair.
    Past the guided splits, E is held to :data:`PARTITION_ORACLE_CAP` points
    (``ValueError``).  Exhausting the search would contradict the certifier,
    so that raises :class:`InternalInconsistencyError`.
    """
    check_eval_degree(m)
    report = is_local_phaseless(E, m)
    if report.verdict:
        raise ValueError("sample set passes phaseless certification; nothing to refute")
    for side1, side2 in _partition_order(E, m, report.violated):
        hit = _find_support_violation(m, E.window, side1, side2)
        if hit is None:
            continue
        f1, f2 = _scaled_pair(m, E.window, hit[0], hit[1])
        if not verify_modulus_agreement(f1, f2, E.points):  # pragma: no cover
            raise InternalInconsistencyError("constructed pair fails modulus agreement")
        if f1.coeffs == f2.coeffs or f1.coeffs == f2.negated().coeffs:  # pragma: no cover
            raise InternalInconsistencyError("constructed pair is sign-equal")
        flags = (not is_separable(f1), not is_separable(f2))
        return CounterexamplePair(f1, f2, flags)
    raise InternalInconsistencyError(
        "no counterexample found although certification failed"
    )
