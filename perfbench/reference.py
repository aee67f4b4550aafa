"""Reference mathematics for generating benchmark inputs and checking responses.

Nothing here imports splinephase: inputs are built and responses judged
with separate code, so the library's caches stay cold and a defect in the
library cannot vouch for itself.  Everything is exact rational arithmetic.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, Optional, Sequence, Tuple


def bspline(m: int, x: Fraction) -> Fraction:
    """Degree-m cardinal B-spline on [0, m+1] by the truncated-power formula."""
    if x <= 0 or x >= m + 1:
        return Fraction(0)
    total = Fraction(0)
    for j in range(m + 2):
        if x > j:
            term = comb(m + 1, j) * (x - j) ** m
            total += -term if j % 2 else term
    return total / factorial(m)


def basis_row(m: int, window: Tuple[int, int], x: Fraction) -> List[Fraction]:
    """Values at x of the windowed basis shifts n1-m .. n2-1."""
    n1, n2 = window
    return [bspline(m, x - n) for n in range(n1 - m, n2)]


def spline_values(m: int, window, coeffs: Sequence[Fraction], points) -> List[Fraction]:
    return [sum(c * b for c, b in zip(coeffs, basis_row(m, window, x)) if c and b) for x in points]


def canonical(coeffs: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Representative up to global sign: first nonzero coefficient positive."""
    lead = next((c for c in coeffs if c != 0), 0)
    return tuple(-c for c in coeffs) if lead < 0 else tuple(coeffs)


def is_separable(coeffs: Sequence[Fraction], m: int, window: Tuple[int, int]) -> bool:
    """Two nonzero coefficients m+1 or more shifts apart with zeros between."""
    if window[1] - window[0] < 2:
        return False
    support = [i for i, c in enumerate(coeffs) if c != 0]
    return any(b - a >= m + 1 for a, b in zip(support, support[1:]))


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank by Gaussian elimination over the rationals."""
    work = [list(r) for r in rows]
    r = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            f = work[i][col] / work[r][col]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


# ---------------------------------------------------------------------------
# The documented local count conditions
# ---------------------------------------------------------------------------
#
# For a window [n1, n2] of width w and degree m, each mode bounds from below
# the total count, the count strictly inside every integer subwindow (a, b),
# and the counts of the prefixes [n1, n1+k) and suffixes (n2-k, n2].  The
# first failure is reported in the order: cardinality, interior windows
# (lexicographic), prefixes, suffixes.

BOUNDS = {
    "sampling": (lambda w, m: w + m, lambda L, m: L - m, lambda k, m: k),
    "almost": (lambda w, m: w + m + 1, lambda L, m: L - m + 1, lambda k, m: k + 1),
    "phaseless": (lambda w, m: 2 * (w + m) - 1, lambda L, m: 2 * L - 1, lambda k, m: 2 * k + m - 1),
}


def first_violation(points: Sequence[Fraction], window: Tuple[int, int], m: int, mode: str) -> Optional[Dict]:
    """The first violated condition as the certifier reports it, or None."""
    card, interior, boundary = BOUNDS[mode]
    n1, n2 = window
    w = n2 - n1
    if len(points) < card(w, m):
        return _violation("cardinality", {}, len(points), card(w, m))
    for a in range(n1, n2):
        above_a = bisect_right(points, a)
        for b in range(a + 1, n2 + 1):
            required = interior(b - a, m)
            if required <= 0:
                continue
            got = bisect_left(points, b) - above_a
            if got < required:
                return _violation("interior", {"n1": a, "n2": b}, got, required)
    start = bisect_left(points, n1)
    for k in range(1, w + 1):
        got = bisect_left(points, n1 + k) - start
        if got < boundary(k, m):
            return _violation("left_prefix", {"k": k}, got, boundary(k, m))
    end = bisect_right(points, n2)
    for k in range(1, w + 1):
        got = end - bisect_right(points, n2 - k)
        if got < boundary(k, m):
            return _violation("right_suffix", {"k": k}, got, boundary(k, m))
    return None


def _violation(condition, params, observed, required) -> Dict:
    return {"condition": condition, "params": params, "observed": observed, "required": required}


# ---------------------------------------------------------------------------
# Eventually periodic sets
# ---------------------------------------------------------------------------


class Periodic:
    """The set {k*period + o} adjusted by add/remove edits."""

    def __init__(self, period: int, offsets: Sequence[Fraction], edits: Sequence[Tuple[str, Fraction]] = ()):
        self.period = period
        self.offsets = tuple(offsets)
        self.edits = tuple(edits)

    def periodic_contains(self, x: Fraction) -> bool:
        return x % self.period in self.offsets

    def open_count(self, a: int, b: int) -> int:
        """Points strictly inside (a, b)."""
        total = 0
        P = self.period
        for o in self.offsets:
            k_lo = (a - o) // P + 1
            k_hi = -((o - b) // P) - 1
            total += max(0, k_hi - k_lo + 1)
        for op, p in self.edits:
            if a < p < b:
                total += 1 if op == "add" else -1
        return total

    def p1_violation(self, lo: int, hi: int, max_width: int) -> Optional[Tuple[int, int]]:
        """First integer window (a, b) in range with fewer than 2(b-a)-1 points inside."""
        for a in range(lo, hi):
            for b in range(a + 1, min(hi, a + max_width) + 1):
                if self.open_count(a, b) < 2 * (b - a) - 1:
                    return a, b
        return None
