"""The example point-set families of the paper, shared by the command line
and the test suite.

``uniform`` spaces K points evenly over a window, ``example2`` adds m+1
points clustered at each end of the window to an even interior grid, and
``arithmetic`` describes the progression {n*alpha + beta : n integer} as a
periodic set.  Each builds at most ``MAX_POINTS`` points, K for
``uniform``, K + 2(m+1) for ``example2`` and one offset per unit of
alpha's denominator for ``arithmetic``.
"""

from __future__ import annotations

from fractions import Fraction

from .bspline import as_fraction, check_degree
from .sequences import PeriodicSetDescriptor, SampleSet

__all__ = ["MAX_POINTS", "arithmetic", "example2", "uniform"]

# Each point is an exact Fraction, and ``gen`` writes every one; the count
# is checked before anything is built.
MAX_POINTS = 2 ** 16


def _check_size(count: int) -> None:
    if count > MAX_POINTS:
        raise ValueError("families are capped at %d points, got %d" % (MAX_POINTS, count))


def uniform(n1: int, n2: int, k: int) -> SampleSet:
    """K evenly spaced points on [n1, n2], both ends included."""
    if n1 >= n2 or k < 2:
        raise ValueError("uniform family needs n1 < n2 and k >= 2")
    _check_size(k)
    step = Fraction(n2 - n1, k - 1)
    return SampleSet(tuple(n1 + step * i for i in range(k)), (n1, n2))


def example2(n1: int, n2: int, k: int, m: int) -> SampleSet:
    """K evenly spaced points on [n1 + 1, n2 - 1] plus m+1 points at each end."""
    check_degree(m)
    if n1 >= n2 - 2:
        raise ValueError("example2 family needs n1 < n2 - 2")
    if k < 2:
        raise ValueError("example2 family needs k >= 2")
    _check_size(k + 2 * (m + 1))
    step = Fraction(n2 - n1 - 2, k - 1)
    interior = [n1 + 1 + step * i for i in range(k)]
    left = [n1 + Fraction(i, m + 1) for i in range(m + 1)]
    right = [n2 - Fraction(i, m + 1) for i in range(m + 1)]
    return SampleSet(tuple(sorted(set(interior) | set(left) | set(right))), (n1, n2))


def arithmetic(alpha, beta=0) -> PeriodicSetDescriptor:
    """Descriptor of {n*alpha + beta : n integer} for rational alpha > 0, beta >= 0."""
    alpha = as_fraction(alpha)
    beta = as_fraction(beta)
    if alpha <= 0 or beta < 0:
        raise ValueError("arithmetic family needs alpha > 0 and beta >= 0")
    _check_size(alpha.denominator)
    period = alpha.numerator
    offsets = sorted((alpha * i + beta) % period for i in range(alpha.denominator))
    return PeriodicSetDescriptor(period, tuple(offsets))
