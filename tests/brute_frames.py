"""Stacked-rank reference for the frame test.

This is the sign-pattern loop the table of column-subset ranks replaced:
for every pattern t with leading +1 other than the identity, one exact
rank of the 2n x N stack [A; A D_t], and a failure as soon as one of them
is only n.  ``test_frames_reference.py`` requires
``frames.is_almost_phase_retrievable`` to give the same verdicts.  The
rank is the library's ``exact_rank``, which ``test_linalg_reference.py``
checks against a Fraction elimination.  The frame is taken as given: full
row rank, no zero column.
"""

from __future__ import annotations

from itertools import product

from splinephase import exact_rank


def is_almost_phase_retrievable(mat) -> bool:
    n = len(mat)
    pairs = [tuple(zip(row, (-v for v in row))) for row in mat]
    for tail in product((0, 1), repeat=len(mat[0]) - 1):
        if 1 not in tail:
            continue
        flips = (0,) + tail
        flipped = tuple(tuple(pair[f] for pair, f in zip(row, flips)) for row in pairs)
        if exact_rank(mat + flipped) == n:
            return False
    return True
