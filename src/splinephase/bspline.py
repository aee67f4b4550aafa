"""Exact evaluation of cardinal B-splines and finite spline functions.

Everything here is computed over the rationals.  Points, coefficients and
values are :class:`fractions.Fraction` instances, so rank and null-space
decisions made downstream never depend on a floating-point tolerance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "MAX_DEGREE",
    "SplineFunction",
    "as_fraction",
    "check_degree",
    "check_eval_degree",
    "eval_bspline",
    "eval_spline",
    "is_separable",
    "support_runs",
    "touched_shifts",
]


# Numeric text is bounded before Fraction parses it: the exponent of
# "1e-999999999" alone would build a billion-digit power of ten.
MAX_NUMBER_TEXT = 1000
MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)")


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction or numeric string to an exact Fraction.

    Floats are rejected: a binary float like 0.1 is not the rational it
    looks like, and silently admitting it would break exactness.  Text
    longer than ``MAX_NUMBER_TEXT`` characters, with an exponent beyond
    ``MAX_EXPONENT`` in magnitude, or that does not parse raises
    ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational values")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if len(value) > MAX_NUMBER_TEXT:
            raise ValueError("rational text longer than %d characters" % MAX_NUMBER_TEXT)
        exponent = _EXPONENT.search(value)
        if exponent is not None and abs(int(exponent.group(1).replace("_", ""))) > MAX_EXPONENT:
            raise ValueError("exponent of %r exceeds %d in magnitude" % (value, MAX_EXPONENT))
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("cannot parse rational %r" % value) from exc
    if isinstance(value, float):
        raise TypeError(
            "refusing to coerce float %r; pass a Fraction or a 'p/q' string" % value
        )
    raise TypeError("cannot interpret %r as an exact rational" % (value,))


def check_degree(m: int) -> int:
    """Validate a spline degree (a positive integer)."""
    if isinstance(m, bool) or not isinstance(m, int):
        raise TypeError("degree must be an int, got %r" % (m,))
    if m < 1:
        raise ValueError("degree must be at least 1, got %d" % m)
    return m


# Largest degree at which B-splines are evaluated.  Values come from a
# recursion m levels deep, and each collocation row holds w + m entries;
# the count certifiers never evaluate and keep every degree.
MAX_DEGREE = 64


def check_eval_degree(m: int) -> int:
    """Validate a degree at which B-splines are evaluated: 1 to ``MAX_DEGREE``."""
    check_degree(m)
    if m > MAX_DEGREE:
        raise ValueError("degree must be at most %d, got %d" % (MAX_DEGREE, m))
    return m


@lru_cache(maxsize=None)
def _bspline_value(m: int, x: Fraction) -> Fraction:
    # Convolution-power recursion; the degree-0 base is the half-open
    # indicator of [0, 1), which is what makes the recursion exact at knots.
    if m == 0:
        return Fraction(1) if 0 <= x < 1 else Fraction(0)
    if x <= 0 or x >= m + 1:
        return Fraction(0)
    return (x * _bspline_value(m - 1, x) + (m + 1 - x) * _bspline_value(m - 1, x - 1)) / m


def eval_bspline(m: int, x) -> Fraction:
    """Value at ``x`` of the degree-``m`` cardinal B-spline.

    The spline is the (m+1)-fold convolution of the unit-interval
    indicator: a piecewise polynomial of degree m, zero outside (0, m+1)
    and strictly positive inside.
    """
    check_eval_degree(m)
    return _bspline_value(m, as_fraction(x))


@dataclass(frozen=True)
class SplineFunction:
    """Finite linear combination of integer shifts of one cardinal B-spline.

    ``coeffs[i]`` multiplies the shift by ``start + i``.  With a window
    ``(n1, n2)`` the function is additionally multiplied by the indicator
    of the closed interval [n1, n2], and the coefficient range must be
    exactly ``n1 - m .. n2 - 1``: the shifts whose restrictions form a
    basis of the windowed spline space.
    """

    m: int
    start: int
    coeffs: Tuple[Fraction, ...]
    window: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        check_degree(self.m)
        if isinstance(self.start, bool) or not isinstance(self.start, int):
            raise TypeError("start must be an int")
        object.__setattr__(self, "coeffs", tuple(as_fraction(c) for c in self.coeffs))
        if self.window is not None:
            n1, n2 = self.window
            if isinstance(n1, bool) or isinstance(n2, bool) or not (
                isinstance(n1, int) and isinstance(n2, int)
            ):
                raise TypeError("window endpoints must be ints")
            if n1 >= n2:
                raise ValueError("window must satisfy n1 < n2")
            object.__setattr__(self, "window", (n1, n2))
            if self.start != n1 - self.m or len(self.coeffs) != n2 - n1 + self.m:
                raise ValueError(
                    "windowed spline must carry coefficients for shifts "
                    "%d .. %d exactly" % (n1 - self.m, n2 - 1)
                )

    @property
    def end(self) -> int:
        """Index of the last coefficient."""
        return self.start + len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        """Coefficient of the shift by ``n`` (zero outside the stored range)."""
        if self.start <= n <= self.end:
            return self.coeffs[n - self.start]
        return Fraction(0)

    def support_indices(self) -> Tuple[int, ...]:
        """Shift indices with a nonzero coefficient, ascending."""
        return tuple(
            self.start + i for i, c in enumerate(self.coeffs) if c != 0
        )

    def negated(self) -> "SplineFunction":
        return SplineFunction(self.m, self.start, tuple(-c for c in self.coeffs), self.window)


def eval_spline(f: SplineFunction, x) -> Fraction:
    """Exact value of ``f`` at ``x`` (zero outside the window, if any)."""
    check_eval_degree(f.m)
    x = as_fraction(x)
    if f.window is not None:
        n1, n2 = f.window
        if x < n1 or x > n2:
            return Fraction(0)
    total = Fraction(0)
    for n in touched_shifts(f.m, x, f.start, f.end):
        c = f.coeffs[n - f.start]
        if c:
            total += c * _bspline_value(f.m, x - n)
    return total


def touched_shifts(m: int, x: Fraction, lo: int, hi: int) -> range:
    """The shifts n in lo .. hi whose B-spline is nonzero at x: n < x < n + m + 1.

    These are at most m + 1 consecutive integers, m of them when x is an
    integer.
    """
    return range(max(lo, floor(x) - m), min(hi, ceil(x) - 1) + 1)


def support_runs(indices: Sequence[int], m: int) -> List[List[int]]:
    """Split ascending shift indices where consecutive ones sit m+1 or more apart.

    The shift by n vanishes outside (n, n+m+1), so the parts across such a
    gap have disjoint supports.  A one-unit window holds only m+1 shifts,
    hence no gap.
    """
    runs: List[List[int]] = []
    for j in indices:
        if runs and j - runs[-1][-1] <= m:
            runs[-1].append(j)
        else:
            runs.append([j])
    return runs


def is_separable(f: SplineFunction) -> bool:
    """Whether ``f`` splits as f1 + f2, both nonzero, with f1*f2 = 0 on the window.

    Coefficient test: the nonzero coefficients fall into more than one
    :func:`support_runs`, which needs a window of at least two units.
    """
    if f.window is None:
        raise ValueError("separability is defined relative to a restriction window")
    return len(support_runs(f.support_indices(), f.m)) > 1
