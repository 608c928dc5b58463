"""The LOCC conversion verdict on Schmidt spectra of bipartite pure states.

A deterministic local conversion |Psi> -> |Phi> exists exactly when the
descending Schmidt probability vector of |Psi> is majorized by that of |Phi>
(every leading partial sum bounded).  :func:`verdict` is the one majorization
routine: it decides both directions for a pair of spectra in one pass over
their partial sums, in Python floats.  Pairs where neither direction holds are
*incomparable*; for two-dimensional spectra that never happens, and for
three-dimensional strictly ordered spectra with equal totals incomparability
reduces to a pair of partial-sum crossing conditions, tested in Python scalars
by :func:`incomparable_3dim`.
"""

from __future__ import annotations

import enum
from itertools import accumulate

import numpy as np

EPS_TIE = 1e-12


class Verdict(enum.Enum):
    """Four-way LOCC convertibility classification of an (lhs, rhs) pair."""

    FORWARD_CERTAIN = "ForwardCertain"
    BACKWARD_CERTAIN = "BackwardCertain"
    INTERCONVERTIBLE = "Interconvertible"
    INCOMPARABLE = "Incomparable"

    def __str__(self) -> str:
        return self.value


# Four-way verdict indexed by 2 * forward + backward.
VERDICT_BY_CODE = (
    Verdict.INCOMPARABLE,
    Verdict.BACKWARD_CERTAIN,
    Verdict.FORWARD_CERTAIN,
    Verdict.INTERCONVERTIBLE,
)


def verdict(lhs, rhs) -> Verdict:
    """Four-way classification of two spectra, each read flattened.

    Forward is lhs majorized by rhs (a state with spectrum lhs converts
    deterministically to one with spectrum rhs): every leading partial sum of
    the descending lhs is at most the matching one of rhs plus ``EPS_TIE``,
    so a difference of exactly ``EPS_TIE`` counts as bounded.  Backward is
    the reverse.  Each side is sorted descending and the shorter one is
    zero-padded at its tail; one pass over the two sides' partial sums, each
    added left to right, tests both directions.  A NaN entry makes the last
    partial sums NaN, so neither direction holds.  An empty side raises
    :class:`ValueError`.
    """
    a, b = (sorted(np.asarray(side, dtype=float).ravel().tolist(), reverse=True) for side in (lhs, rhs))
    if not a or not b:
        raise ValueError(f"expected two non-empty spectra, got {len(a)} and {len(b)} entries")
    pad = len(a) - len(b)
    a += [0.0] * -pad
    b += [0.0] * pad
    forward = backward = True
    # accumulate adds left to right, never compensated as sum() is on 3.12+
    for x, y in zip(accumulate(a), accumulate(b)):
        forward = forward and x <= y + EPS_TIE
        backward = backward and y <= x + EPS_TIE
    return VERDICT_BY_CODE[2 * forward + backward]


def incomparable_3dim(avec, bvec) -> bool | None:
    """Closed-form incomparability test for strictly ordered length-3 spectra.

    Returns True when either partial-sum crossing holds:

        a1 > b1 and b1 + b2 > a1 + a2,   or   b1 > a1 and a1 + a2 > b1 + b2,

    each comparison strict beyond ``EPS_TIE`` (``x > y + EPS_TIE``).  The
    test reads the crossings only: when the two totals agree, an interleaving
    chain such as a1 > b1 > b2 > a2 > a3 > b3 implies a crossing, since
    a3 > b3 exactly when a1 + a2 < b1 + b2.  For strictly ordered spectra whose totals agree
    within ``EPS_TIE`` it answers as ``verdict(a, b) is Verdict.INCOMPARABLE``;
    the comparisons are the verdict's own, in Python floats.  Where either
    spectrum is not strictly descending beyond ``EPS_TIE`` the closed form
    cannot decide and returns None: :func:`verdict` decides such pairs.
    Spectra that are not of length 3 raise :class:`ValueError`.
    """
    eps = EPS_TIE
    a = np.asarray(avec, dtype=float).ravel().tolist()
    b = np.asarray(bvec, dtype=float).ravel().tolist()
    if len(a) != 3 or len(b) != 3:
        raise ValueError("both spectra must have exactly 3 entries")
    for v in (a, b):
        if not (v[0] > v[1] + eps and v[1] > v[2] + eps):
            return None
    head_a, head_b = a[0] + a[1], b[0] + b[1]
    return (a[0] > b[0] + eps and head_b > head_a + eps) or (b[0] > a[0] + eps and head_a > head_b + eps)

