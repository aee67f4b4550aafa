"""Brute-force reference for the count certifiers.

Every window is recounted point by point, O(w^2 |E|) for a local scan,
exactly as the conditions read.  The library's prefix-count certifiers
must return the same reports; ``test_sequences_reference.py`` checks that.
Only the domain types come from the library.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from splinephase.sequences import (
    CertificateReport,
    PeriodicSetDescriptor,
    SampleSet,
    Violation,
)


def count(point_set, lo, hi, *, include_lo, include_hi):
    if isinstance(point_set, SampleSet):
        return _count_points(point_set.points, Fraction(lo), Fraction(hi), include_lo, include_hi)
    return _count_descriptor(point_set, Fraction(lo), Fraction(hi), include_lo, include_hi)


def _inside(x, lo, hi, include_lo, include_hi) -> bool:
    return (x > lo or (include_lo and x == lo)) and (x < hi or (include_hi and x == hi))


def _count_points(points, lo, hi, include_lo, include_hi) -> int:
    if hi < lo or (hi == lo and not (include_lo and include_hi)):
        return 0
    return sum(1 for x in points if _inside(x, lo, hi, include_lo, include_hi))


def _count_periodic(desc, lo, hi, include_lo, include_hi) -> int:
    total = 0
    for off in desc.offsets:
        a = Fraction(lo - off, desc.period)
        b = Fraction(hi - off, desc.period)
        k_min = math.ceil(a) if include_lo else math.floor(a) + 1
        k_max = math.floor(b) if include_hi else math.ceil(b) - 1
        total += max(0, k_max - k_min + 1)
    return total


def _count_descriptor(desc, lo, hi, include_lo, include_hi) -> int:
    if hi < lo or (hi == lo and not (include_lo and include_hi)):
        return 0
    total = _count_periodic(desc, lo, hi, include_lo, include_hi)
    for op, p in desc.edits:
        if _inside(p, lo, hi, include_lo, include_hi):
            total += 1 if op == "add" else -1
    return total


def _open(E, a, b):
    return count(E, a, b, include_lo=False, include_hi=False)


def _closed(E, a, b):
    return count(E, a, b, include_lo=True, include_hi=True)


# ---------------------------------------------------------------------------
# Local certifiers
# ---------------------------------------------------------------------------


def _window_checks(E, cardinality, interior, prefix, suffix) -> CertificateReport:
    n1, n2 = E.window
    width = n2 - n1
    if len(E) < cardinality:
        return CertificateReport(False, Violation("cardinality", {}, len(E), cardinality))
    for a in range(n1, n2):
        for b in range(a + 1, n2 + 1):
            required = interior(b - a)
            if required <= 0:
                continue
            got = _open(E, a, b)
            if got < required:
                return CertificateReport(False, Violation("interior", {"n1": a, "n2": b}, got, required))
    for k in range(1, width + 1):
        got = count(E, n1, n1 + k, include_lo=True, include_hi=False)
        if got < prefix(k):
            return CertificateReport(False, Violation("left_prefix", {"k": k}, got, prefix(k)))
    for k in range(1, width + 1):
        got = count(E, n2 - k, n2, include_lo=False, include_hi=True)
        if got < suffix(k):
            return CertificateReport(False, Violation("right_suffix", {"k": k}, got, suffix(k)))
    return CertificateReport(True)


def is_local_sampling(E, m):
    w = E.window[1] - E.window[0]
    return _window_checks(E, w + m, lambda k: k - m, lambda k: k, lambda k: k)


def is_almost_phaseless(E, m):
    w = E.window[1] - E.window[0]
    return _window_checks(E, w + m + 1, lambda k: k - m + 1, lambda k: k + 1, lambda k: k + 1)


def is_local_phaseless(E, m):
    w = E.window[1] - E.window[0]
    return _window_checks(
        E, 2 * (w + m) - 1, lambda k: 2 * k - 1, lambda k: 2 * k + m - 1, lambda k: 2 * k + m - 1
    )


LOCAL = {
    "sampling": is_local_sampling,
    "almost": is_almost_phaseless,
    "phaseless": is_local_phaseless,
}


# ---------------------------------------------------------------------------
# Global certifier
# ---------------------------------------------------------------------------


def _pure(desc):
    return PeriodicSetDescriptor(desc.period, desc.offsets)


def _scan_bounds(desc):
    lo, hi = desc.edit_window
    return lo - 2 * desc.period - 2, hi + 2 * desc.period + 2


def _p1_violation(desc) -> Optional[Violation]:
    lo, hi = _scan_bounds(desc)
    for a in range(lo, hi):
        for b in range(a + 1, hi + 1):
            got = _open(desc, a, b)
            if got < 2 * (b - a) - 1:
                return Violation("P1", {"n1": a, "n2": b}, got, 2 * (b - a) - 1)
    if len(desc.offsets) < 2 * desc.period:
        b = hi + 1
        while True:
            got = _open(desc, hi, b)
            if got < 2 * (b - hi) - 1:
                return Violation("P1", {"n1": hi, "n2": b}, got, 2 * (b - hi) - 1)
            b += 1
    return None


def _p2_violation(desc, m) -> Optional[Violation]:
    P = desc.period
    if len(desc.offsets) > 2 * P:
        return None
    pure = _pure(desc)
    best = max(
        _closed(pure, a, a + length) - 2 * length
        for a in range(P)
        for length in range(1, P + 1)
    )
    if best >= 2 * m - 1:
        return None
    return Violation("P2", {"max_window_excess": best}, best, 2 * m - 1)


def _p2prime_violation(desc) -> Optional[Violation]:
    lo, hi = _scan_bounds(desc)
    P = desc.period
    pure = _pure(desc)
    if any(_closed(pure, n - 1, n) >= 3 for n in range(P)):
        return None
    triples = [n for n in range(lo, hi + 1) if _closed(desc, n - 1, n) >= 3]
    if not triples:
        return Violation("P2prime", {"reason": "no unit interval holds three points"}, 0, 1)
    for n in range(triples[-1], hi + 1):
        got = _open(desc, n, n + 1)
        if got != 2:
            return Violation("P2prime", {"n": n, "side": "right"}, got, 2)
    for n in range(lo - 1, triples[0]):
        got = _open(desc, n, n + 1)
        if got != 2:
            return Violation("P2prime", {"n": n, "side": "left"}, got, 2)
    for n in range(P):
        got = _open(pure, n, n + 1)
        if got != 2:
            return Violation("P2prime", {"n": "periodic residue %d" % n, "side": "tail"}, got, 2)
    return None


def is_global_phaseless(D, m):
    violation = _p1_violation(D)
    if violation is None:
        violation = _p2_violation(D, m) if m >= 2 else _p2prime_violation(D)
    return CertificateReport(violation is None, violation)


def excess_sup(D, n0, direction):
    P = D.period
    if len(D.offsets) > 2 * P:
        return math.inf
    lo, hi = D.edit_window
    if direction == "right":
        stop = max(n0, hi + 1) + P
        return max(_closed(D, n0, n) - 2 * (n - n0) for n in range(n0 + 1, stop + 1))
    stop = min(n0, lo - 1) - P
    return max(_closed(D, n, n0) - 2 * (n0 - n) for n in range(stop, n0))


# ---------------------------------------------------------------------------
# Constructive searches
# ---------------------------------------------------------------------------


def extract_minimal_almost(E, m):
    n1, n2 = E.window
    width = n2 - n1
    points = list(E.points)
    while len(points) > width + m + 1:
        if m == 1:
            for i in range(len(points)):
                candidate = SampleSet(tuple(points[:i] + points[i + 1:]), E.window)
                if is_almost_phaseless(candidate, m).verdict:
                    del points[i]
                    break
        else:
            current = SampleSet(tuple(points), E.window)
            slack = [
                count(current, n1, n1 + k, include_lo=True, include_hi=False) - k - 1
                for k in range(1, width + 1)
            ]
            k0 = width
            for k in range(width, 0, -1):
                if slack[k - 1] >= 1:
                    k0 = k
                else:
                    break
            points.remove([x for x in points if n1 + k0 - 1 < x < n1 + k0][0])
    return SampleSet(tuple(points), E.window)


def find_sampling_subwindow(E, m):
    n1, n2 = E.window
    if len(E) < (n2 - n1) + m:
        return None
    return _search_sampling(E, n1, n2, m)


def _search_sampling(E, a, b, m):
    sub = E.restrict(a, b)
    if is_local_sampling(sub, m).verdict:
        return (a, b)
    for k in range(1, b - a + 1):
        if count(sub, a, a + k, include_lo=True, include_hi=False) < k:
            return _search_sampling(E, a + k, b, m)
    for k in range(1, b - a + 1):
        if count(sub, b - k, b, include_lo=False, include_hi=True) < k:
            return _search_sampling(E, a, b - k, m)
    for lo in range(a, b):
        for hi in range(lo + m + 1, b + 1):
            if _open(sub, lo, hi) < hi - lo - m:
                if lo > a:
                    return _search_sampling(E, a, lo, m)
                return _search_sampling(E, hi, b, m)
    raise AssertionError("certifier and subwindow search disagree")
