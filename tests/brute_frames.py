"""Reference loops for the frame tests.

``is_almost_phase_retrievable`` is the sign-pattern loop: for every
pattern t with leading +1 other than the identity, one exact rank of the
2n x N stack [A; A D_t], and a failure as soon as one of them is only n.
``test_frames_reference.py`` requires ``frames.is_almost_phase_retrievable``,
which tests matroid connectivity, to give the same verdicts.  The frame is
taken as given: full row rank, no zero column.  ``is_weak_full_spark``
removes each column in turn and compares ranks, where the library reads
coloops off one reduced echelon form.  Both use the library's
``exact_rank``, which ``test_linalg_reference.py`` checks against a
Fraction elimination.
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


def is_weak_full_spark(mat) -> bool:
    if not mat or not mat[0]:
        return False
    rank = exact_rank(mat)
    for j in range(len(mat[0])):
        if exact_rank(tuple(row[:j] + row[j + 1:] for row in mat)) != rank:
            return False
    return True
