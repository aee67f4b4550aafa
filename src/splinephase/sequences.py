"""Point-set model, counting primitives and the sampling/phaseless certifiers.

Finite sets of sample points live in a :class:`SampleSet`; infinite,
eventually periodic sets are described finitely by a
:class:`PeriodicSetDescriptor`.  Every certifier is a pure function of
count lower bounds and returns a :class:`CertificateReport` carrying either
a pass verdict or the first violated inequality together with its witness
parameters.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .bspline import as_fraction, check_degree

__all__ = [
    "CertificateReport",
    "PeriodicSetDescriptor",
    "SampleSet",
    "Violation",
    "count",
    "excess_sup",
    "extract_minimal_almost",
    "find_sampling_subwindow",
    "is_almost_phaseless",
    "is_global_phaseless",
    "is_local_phaseless",
    "is_local_sampling",
]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


def _check_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("%s must be an int, got %r" % (name, value))
    return value


@dataclass(frozen=True)
class SampleSet:
    """Sorted finite set of distinct rational points inside an integer window."""

    points: Tuple[Fraction, ...]
    window: Tuple[int, int]

    def __post_init__(self) -> None:
        n1, n2 = self.window
        _check_int(n1, "window start")
        _check_int(n2, "window end")
        if n1 >= n2:
            raise ValueError("window must satisfy n1 < n2")
        object.__setattr__(self, "window", (n1, n2))
        pts = tuple(as_fraction(x) for x in self.points)
        for a, b in zip(pts, pts[1:]):
            if a >= b:
                raise ValueError("points must be strictly increasing")
        if pts and (pts[0] < n1 or pts[-1] > n2):
            raise ValueError("all points must lie in [%d, %d]" % (n1, n2))
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def restrict(self, n1: int, n2: int) -> "SampleSet":
        """Points of this set inside [n1, n2], rehomed to that window."""
        pts = tuple(x for x in self.points if n1 <= x <= n2)
        return SampleSet(pts, (n1, n2))


@dataclass(frozen=True)
class PeriodicSetDescriptor:
    """Finite description of an infinite point set.

    The base set repeats ``offsets`` with integer period ``period``; a
    finite list of add/remove edits, confined to the integer window
    ``edit_window``, adjusts it.
    """

    period: int
    offsets: Tuple[Fraction, ...]
    edits: Tuple[Tuple[str, Fraction], ...] = ()
    edit_window: Tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        _check_int(self.period, "period")
        if self.period < 1:
            raise ValueError("period must be a positive integer")
        offs = tuple(as_fraction(o) for o in self.offsets)
        for a, b in zip(offs, offs[1:]):
            if a >= b:
                raise ValueError("offsets must be strictly increasing")
        if offs and (offs[0] < 0 or offs[-1] >= self.period):
            raise ValueError("offsets must lie in [0, period)")
        object.__setattr__(self, "offsets", offs)

        lo, hi = self.edit_window
        _check_int(lo, "edit window start")
        _check_int(hi, "edit window end")
        if lo > hi:
            raise ValueError("edit window must satisfy lo <= hi")
        object.__setattr__(self, "edit_window", (lo, hi))

        edits: List[Tuple[str, Fraction]] = []
        added: List[Fraction] = []
        removed: List[Fraction] = []
        for op, point in self.edits:
            if op not in ("add", "remove"):
                raise ValueError("edit op must be 'add' or 'remove', got %r" % (op,))
            x = as_fraction(point)
            if x < lo or x > hi:
                raise ValueError("edit point %s outside edit window [%d, %d]" % (x, lo, hi))
            if op == "remove":
                if not self._periodic_contains(x):
                    raise ValueError("removal of %s does not hit a periodic point" % x)
                if x in removed:
                    raise ValueError("point %s removed twice" % x)
                removed.append(x)
            else:
                if x in added:
                    raise ValueError("point %s added twice" % x)
                added.append(x)
            edits.append((op, x))
        for x in added:
            if self._periodic_contains(x) and x not in removed:
                raise ValueError("added point %s duplicates a periodic point" % x)
        object.__setattr__(self, "edits", tuple(edits))

    def _periodic_contains(self, x: Fraction) -> bool:
        return bool(self.offsets) and (x % self.period) in self.offsets

    def per_period_count(self) -> int:
        return len(self.offsets)

    def contains(self, x) -> bool:
        x = as_fraction(x)
        present = self._periodic_contains(x)
        for op, p in self.edits:
            if p == x:
                present = op == "add"
        return present

    def points_in(self, lo: int, hi: int) -> Tuple[Fraction, ...]:
        """All points of the set inside the closed interval [lo, hi]."""
        pts = []
        for off in self.offsets:
            k = math.ceil(Fraction(lo - off, self.period))
            x = k * self.period + off
            while x <= hi:
                pts.append(x)
                x += self.period
        out = set(pts)
        for op, p in self.edits:
            if lo <= p <= hi:
                if op == "add":
                    out.add(p)
                else:
                    out.discard(p)
        return tuple(sorted(out))


@dataclass(frozen=True)
class Violation:
    """First failed inequality of a certification run."""

    condition: str
    params: Dict[str, object] = field(default_factory=dict)
    observed: int = 0
    required: int = 0


@dataclass(frozen=True)
class CertificateReport:
    verdict: bool
    violated: Optional[Violation] = None

    def __post_init__(self) -> None:
        if self.verdict != (self.violated is None):
            raise ValueError("verdict must be false exactly when a violation is present")


PointSet = Union[SampleSet, PeriodicSetDescriptor]

# Largest number of integer points one window scan may cover.  A scan
# holds a few Python ints per point (about 130 bytes), so this bounds its
# memory near 300 MB; wider scans raise ValueError.
MAX_SCAN_WIDTH = 2**21


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------
#
# One primitive: the number of points below t.  Every interval count is a
# difference of two such numbers, #(E in (a, b)) = below(b) - upto(a), and
# the window scans read them at every integer point of the scan range at
# once (``_grid_counts``).


def _below(point_set: PointSet, t, closed: bool) -> int:
    """#{x in E : x < t}, or #{x <= t} when ``closed``.

    On a descriptor the count runs from a fixed origin and may be
    negative; only the difference of two values is a point count.
    """
    if isinstance(point_set, SampleSet):
        return (bisect_right if closed else bisect_left)(point_set.points, t)
    P = point_set.period
    if closed:
        total = sum((t - off) // P + 1 for off in point_set.offsets)
    else:
        total = sum(-((off - t) // P) for off in point_set.offsets)
    for op, p in point_set.edits:
        if p < t or (closed and p == t):
            total += 1 if op == "add" else -1
    return total


def count(point_set: PointSet, lo, hi, *, include_lo: bool, include_hi: bool):
    """Number of points in an interval, with explicit endpoint-inclusion flags.

    ``lo``/``hi`` may be None on a descriptor for an unbounded end; the
    result is then ``math.inf`` whenever the periodic part is nonempty,
    and an exact int in every other case.
    """
    if not isinstance(point_set, (SampleSet, PeriodicSetDescriptor)):
        raise TypeError("expected a SampleSet or PeriodicSetDescriptor")
    if lo is None or hi is None:
        if isinstance(point_set, SampleSet):
            raise ValueError("finite sample sets require finite interval endpoints")
        if point_set.offsets:
            return math.inf
    # Without periodic points a descriptor counts only its added points,
    # none of which lies below an unbounded lower end.
    lower = 0 if lo is None else _below(point_set, as_fraction(lo), not include_lo)
    if hi is None:
        upper = sum(op == "add" for op, _ in point_set.edits)
    else:
        upper = _below(point_set, as_fraction(hi), include_hi)
    return max(0, upper - lower)


def _residue_counts(desc: PeriodicSetDescriptor) -> Tuple[List[int], List[int]]:
    """Periodic points at t and strictly inside (t, t + 1), for each t mod P."""
    at = [0] * desc.period
    inside = [0] * desc.period
    for off in desc.offsets:
        (at if off.denominator == 1 else inside)[math.floor(off)] += 1
    return at, inside


def _grid_counts(point_set: PointSet, lo: int, hi: int) -> Tuple[List[int], List[int]]:
    """``_below`` at every integer t = lo..hi: the lists (open, closed).

    One pass over the points at each t and strictly inside each (t, t + 1):
    O(hi - lo + |E|) on a sample set, and O(hi - lo + P + |offsets| +
    |edits|) on a descriptor, whose periodic counts depend only on t mod P.
    """
    n = hi - lo + 1
    if n > MAX_SCAN_WIDTH:
        raise ValueError(
            "scan over [%d, %d] exceeds %d integer points" % (lo, hi, MAX_SCAN_WIDTH)
        )
    if isinstance(point_set, SampleSet):
        steps = [0] * (2 * n)
        marks = [(x, 1) for x in point_set.points]
    else:
        at, inside = _residue_counts(point_set)
        P = point_set.period
        pattern = [c for pair in zip(at, inside) for c in pair]
        shift = 2 * (lo % P)
        pattern = pattern[shift:] + pattern[:shift]
        steps = (pattern * (n // P + 1))[: 2 * n]
        marks = [(p, 1 if op == "add" else -1) for op, p in point_set.edits]
    for x, sign in marks:
        i = x.numerator // x.denominator - lo
        if 0 <= i < n:
            steps[2 * i + (x.denominator != 1)] += sign
    cumulative = list(accumulate(steps, initial=_below(point_set, lo, False)))
    return cumulative[0 : 2 * n : 2], cumulative[1::2]


def _first_deficit(below, upto, slope: int, intercept: int) -> Optional[Tuple[int, int]]:
    """Lexicographically first (i, j) with below[j] - upto[i] < r, r >= 1.

    The requirement r = slope * (j - i) + intercept is linear in the
    width, so the condition reads g[j] < upto[i] - slope * i + intercept
    with g[j] = below[j] - slope * j: one suffix-minimum pass over g
    answers it for every i, in O(len(below)).
    """
    n = len(below)
    min_width = max(1, -((intercept - 1) // slope))
    g = [below[j] - slope * j for j in range(n)]
    suffix_min = list(accumulate(reversed(g), min))[::-1]
    for i in range(n - min_width):
        bound = upto[i] - slope * i + intercept
        if suffix_min[i + min_width] < bound:
            return i, next(j for j in range(i + min_width, n) if g[j] < bound)
    return None


# ---------------------------------------------------------------------------
# Local certifiers
# ---------------------------------------------------------------------------
#
# Each certifier checks a family of count lower bounds over the window
# [n1, n2] and reports the first failure in the fixed order: cardinality,
# interior windows (lexicographic), left prefixes, right suffixes.  Every
# bound is linear in the width of its window, given as (slope, intercept);
# one grid of prefix counts answers all of them in O(w + |E|).


def _run_window_checks(E: SampleSet, cardinality: int, interior, boundary) -> CertificateReport:
    n1, n2 = E.window
    width = n2 - n1

    observed = len(E)
    if observed < cardinality:
        return CertificateReport(
            False, Violation("cardinality", {}, observed, cardinality)
        )
    below, upto = _grid_counts(E, n1, n2)
    hit = _first_deficit(below, upto, *interior)
    if hit is not None:
        a, b = hit
        slope, intercept = interior
        got, required = below[b] - upto[a], slope * (b - a) + intercept
        return CertificateReport(
            False, Violation("interior", {"n1": n1 + a, "n2": n1 + b}, got, required)
        )
    slope, intercept = boundary
    for k in range(1, width + 1):
        required = slope * k + intercept
        got = below[k] - below[0]
        if got < required:
            return CertificateReport(
                False, Violation("left_prefix", {"k": k}, got, required)
            )
    for k in range(1, width + 1):
        required = slope * k + intercept
        got = upto[width] - upto[width - k]
        if got < required:
            return CertificateReport(
                False, Violation("right_suffix", {"k": k}, got, required)
            )
    return CertificateReport(True)


def is_local_sampling(E: SampleSet, m: int) -> CertificateReport:
    """Certify that every windowed spline is linearly determined by its values on E.

    Conditions, for the window [n1, n2] of width w: at least w + m points
    in total, at least k points in each prefix [n1, n1+k) and suffix
    (n2-k, n2], and at least b - a - m points strictly inside every
    integer subwindow (a, b).  Cost O(w + |E|).
    """
    check_degree(m)
    width = E.window[1] - E.window[0]
    return _run_window_checks(E, width + m, interior=(1, -m), boundary=(1, 0))


def is_almost_phaseless(E: SampleSet, m: int) -> CertificateReport:
    """Certify recovery up to sign of all windowed splines outside a null set.

    Same shape as the sampling conditions with every bound raised by one,
    except the interior bound which becomes b - a - m + 1.  Cost
    O(w + |E|).
    """
    check_degree(m)
    width = E.window[1] - E.window[0]
    return _run_window_checks(E, width + m + 1, interior=(1, 1 - m), boundary=(1, 1))


def is_local_phaseless(E: SampleSet, m: int) -> CertificateReport:
    """Certify recovery up to sign of every nonseparable windowed spline.

    Conditions: at least 2(w + m) - 1 points in total, 2k + m - 1 in each
    boundary prefix/suffix of width k, and 2(b - a) - 1 strictly inside
    every integer subwindow (a, b).  Cost O(w + |E|).
    """
    check_degree(m)
    width = E.window[1] - E.window[0]
    return _run_window_checks(E, 2 * (width + m) - 1, interior=(2, -1), boundary=(2, m - 1))


# ---------------------------------------------------------------------------
# Global certifier
# ---------------------------------------------------------------------------


def _scan_bounds(desc: PeriodicSetDescriptor) -> Tuple[int, int]:
    lo, hi = desc.edit_window
    P = desc.period
    return lo - 2 * P - 2, hi + 2 * P + 2


def _p1_violation(desc: PeriodicSetDescriptor) -> Optional[Violation]:
    lo, hi = _scan_bounds(desc)
    below, upto = _grid_counts(desc, lo, hi)
    hit = _first_deficit(below, upto, 2, -1)
    if hit is not None:
        a, b = hit
        return Violation("P1", {"n1": lo + a, "n2": lo + b}, below[b] - upto[a], 2 * (b - a) - 1)
    # Per-period density below two needs no wider search: the window
    # (lo, lo + 2P) lies in the periodic tail and holds at most 2(2P - 1)
    # points, short of the 4P - 1 required, so the scan has reported it.
    return None


def _max_periodic_excess(desc: PeriodicSetDescriptor) -> int:
    # Largest excess #(E in [a, b]) - 2(b - a) of a closed window against
    # the pure periodic pattern, which is upto(b) - 2b - (below(a) - 2a).
    # P2 is reached only at per-period density exactly 2 (P1 fails every
    # sparser set), where both terms are periodic in their endpoint: one
    # period of each gives the extremes over all windows.
    P = desc.period
    below, upto = _grid_counts(PeriodicSetDescriptor(P, desc.offsets), 0, P - 1)
    return max(u - 2 * t for t, u in enumerate(upto)) - min(b - 2 * t for t, b in enumerate(below))


def _p2_violation(desc: PeriodicSetDescriptor, m: int) -> Optional[Violation]:
    delta = desc.per_period_count() - 2 * desc.period
    if delta > 0:
        return None
    best = _max_periodic_excess(desc)
    required = 2 * m - 1
    if best >= required:
        return None
    return Violation("P2", {"max_window_excess": best}, best, required)


def _p2prime_violation(desc: PeriodicSetDescriptor) -> Optional[Violation]:
    lo, hi = _scan_bounds(desc)
    P = desc.period
    at, inside = _residue_counts(desc)

    # A closed unit interval in the periodic tails holds three points for
    # some residue iff it does so for infinitely many on both sides.
    if any(at[n - 1] + inside[n - 1] + at[n] >= 3 for n in range(P)):
        return None

    below, upto = _grid_counts(desc, lo - 1, hi + 1)

    def closed_unit(n):  # #(E in [n - 1, n])
        return upto[n - lo + 1] - below[n - lo]

    def open_unit(n):  # #(E in (n, n + 1))
        return below[n - lo + 2] - upto[n - lo + 1]

    triples = [n for n in range(lo, hi + 1) if closed_unit(n) >= 3]
    if not triples:
        return Violation("P2prime", {"reason": "no unit interval holds three points"}, 0, 1)

    first, last = triples[0], triples[-1]
    for n in range(last, hi + 1):
        got = open_unit(n)
        if got != 2:
            return Violation("P2prime", {"n": n, "side": "right"}, got, 2)
    for n in range(lo - 1, first):
        got = open_unit(n)
        if got != 2:
            return Violation("P2prime", {"n": n, "side": "left"}, got, 2)
    for n in range(0, P):
        if inside[n] != 2:
            return Violation("P2prime", {"n": "periodic residue %d" % n, "side": "tail"}, inside[n], 2)
    return None


def is_global_phaseless(D: PeriodicSetDescriptor, m: int) -> CertificateReport:
    """Certify recovery up to sign of every nonseparable spline on the whole line.

    Checks the interior density condition (at least 2w - 1 points strictly
    inside every integer window of width w) and, on top of it, the
    two-sided window-excess condition for degrees two and up or the
    triple-point unit-interval pattern for degree one.  The infinite
    quantifiers are reduced to finite scans over the edit window widened
    by two periods and two units on each side.  Cost is linear in that
    scan width plus P + |offsets| + |edits|; a scan wider than
    ``MAX_SCAN_WIDTH`` integer points raises ValueError.
    """
    check_degree(m)
    if not isinstance(D, PeriodicSetDescriptor):
        raise TypeError("global certification requires a PeriodicSetDescriptor")
    violation = _p1_violation(D)
    if violation is None:
        violation = _p2_violation(D, m) if m >= 2 else _p2prime_violation(D)
    if violation is not None:
        return CertificateReport(False, violation)
    return CertificateReport(True)


def excess_sup(D: PeriodicSetDescriptor, n0: int, direction: str):
    """Supremum of closed-window point counts beyond twice the window width.

    For ``direction="right"`` this is sup over n > n0 of
    #(E in [n0, n]) - 2(n - n0); for ``"left"`` the mirror image.  The
    value is ``math.inf`` exactly when the per-period point count exceeds
    twice the period, and an exact int otherwise.  Cost is linear in the
    distance from n0 across the edit window plus one period, and in
    P + |offsets| + |edits|; a scan wider than ``MAX_SCAN_WIDTH`` integer
    points raises ValueError.
    """
    _check_int(n0, "n0")
    if direction not in ("left", "right"):
        raise ValueError("direction must be 'left' or 'right'")
    P = D.period
    delta = D.per_period_count() - 2 * P
    if delta > 0:
        return math.inf
    lo, hi = D.edit_window
    if direction == "right":
        stop = max(n0, hi + 1) + P
        below, upto = _grid_counts(D, n0, stop)
        return max(upto[j] - below[0] - 2 * j for j in range(1, len(upto)))
    stop = min(n0, lo - 1) - P
    below, upto = _grid_counts(D, stop, n0)
    last = len(upto) - 1
    return max(upto[last] - below[j] - 2 * (last - j) for j in range(last))


# ---------------------------------------------------------------------------
# Constructive subsequence searches
# ---------------------------------------------------------------------------


def extract_minimal_almost(E: SampleSet, m: int) -> SampleSet:
    """Shrink an almost-phaseless set to one of minimal cardinality.

    Returns a subset with exactly width + m + 1 points that still passes
    :func:`is_almost_phaseless`.  For degree two and up, points are
    removed one at a time from the unit interval singled out by the
    prefix-slack rule (smallest point first when several qualify); for
    degree one that rule can break the interior bound, so the smallest
    point whose removal keeps all conditions is dropped instead.
    """
    check_degree(m)
    if not is_almost_phaseless(E, m).verdict:
        raise ValueError("input must pass the almost-phaseless certification")
    n1, n2 = E.window
    width = n2 - n1
    target = width + m + 1
    points = list(E.points)

    while len(points) > target:
        if m == 1:
            for i, x in enumerate(points):
                candidate = SampleSet(tuple(points[:i] + points[i + 1:]), E.window)
                if is_almost_phaseless(candidate, m).verdict:
                    del points[i]
                    break
            else:  # pragma: no cover - impossible while the certificate holds
                raise RuntimeError("no removable point found")
        else:
            below, _ = _grid_counts(SampleSet(tuple(points), E.window), n1, n2)
            # slack of the prefix counts: l_k = #(E in [n1, n1+k)) - k - 1
            slack = [below[k] - below[0] - k - 1 for k in range(1, width + 1)]
            k0 = width
            for k in range(width, 0, -1):
                if slack[k - 1] >= 1:
                    k0 = k
                else:
                    break
            removable = [x for x in points if n1 + k0 - 1 < x < n1 + k0]
            points.remove(removable[0])
    result = SampleSet(tuple(points), E.window)
    if not is_almost_phaseless(result, m).verdict:  # pragma: no cover
        raise RuntimeError("extraction produced an invalid subset")
    return result


def find_sampling_subwindow(E: SampleSet, m: int) -> Optional[Tuple[int, int]]:
    """Find an integer subwindow on which E restricts to a sampling sequence.

    Returns None exactly when E has fewer than width + m points.  The
    search shrinks the window past the first failing count condition,
    checking the boundary prefixes and suffixes before interior windows:
    the step for an interior violation is only valid once the boundary
    counts hold.  Each condition compares two counts, so one grid of
    prefix counts over the whole window serves every subwindow.
    """
    check_degree(m)
    n1, n2 = E.window
    if len(E) < (n2 - n1) + m:
        return None
    below_all, upto_all = _grid_counts(E, n1, n2)
    a, b = n1, n2
    while True:
        below, upto = below_all[a - n1 : b - n1 + 1], upto_all[a - n1 : b - n1 + 1]
        width = b - a
        prefix = next((k for k in range(1, width + 1) if below[k] - below[0] < k), 0)
        if prefix:
            a += prefix
            continue
        suffix = next((k for k in range(1, width + 1) if upto[width] - upto[width - k] < k), 0)
        if suffix:
            b -= suffix
            continue
        hit = _first_deficit(below, upto, 1, -m)
        if hit is None:
            break
        # The deficit starts past a: with every prefix count met and at
        # most one point at a, below[j] - upto[0] >= j - 1 >= j - m.
        b = a + hit[0]
    if not is_local_sampling(E.restrict(a, b), m).verdict:  # pragma: no cover
        raise AssertionError("certifier and subwindow search disagree")
    return (a, b)
