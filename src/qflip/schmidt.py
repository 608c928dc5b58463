"""The LOCC conversion verdict on Schmidt spectra of bipartite pure states.

A deterministic local conversion |Psi> -> |Phi> exists exactly when the
descending Schmidt probability vector of |Psi> is majorized by that of |Phi>
(every leading partial sum bounded).  :func:`stacked_verdict_codes` holds
that comparison once and decides both directions for a stack of pairs in one
pass over the two sides stacked together.  :func:`verdict_codes` builds that
stack from two stacks of spectra, zero-padding the narrower side;
:func:`verdict` is its one-row form, which builds the (1, 2, k) stack of two
equal-width spectra with one concatenation and hands any other pair to
:func:`verdict_codes`.  Pairs where neither direction holds are
*incomparable*; for two-dimensional spectra that never happens, and
for three-dimensional strictly ordered spectra with equal totals
incomparability reduces to a pair of partial-sum crossing conditions, tested
in Python scalars by :func:`incomparable_3dim`.
"""

from __future__ import annotations

import enum

import numpy as np

EPS_TIE = 1e-12


class SpectrumTieError(ValueError):
    """Raised when a spectrum violates the strict-ordering precondition."""


class Verdict(enum.Enum):
    """Four-way LOCC convertibility classification of an (lhs, rhs) pair."""

    FORWARD_CERTAIN = "ForwardCertain"
    BACKWARD_CERTAIN = "BackwardCertain"
    INTERCONVERTIBLE = "Interconvertible"
    INCOMPARABLE = "Incomparable"

    def __str__(self) -> str:
        return self.value


# Four-way verdict indexed by 2 * forward + backward, the dot product with _CODE_WEIGHTS.
_CODE_WEIGHTS = np.array([2, 1])
VERDICT_BY_CODE = (
    Verdict.INCOMPARABLE,
    Verdict.BACKWARD_CERTAIN,
    Verdict.FORWARD_CERTAIN,
    Verdict.INTERCONVERTIBLE,
)


def stacked_verdict_codes(sides) -> np.ndarray:
    """:func:`verdict_codes` of an (n, 2, w) stack of lhs (``[:, 0]``) and rhs
    (``[:, 1]``) spectra, every row descending and zero-padded to width w."""
    sums = np.add.accumulate(sides, axis=2)
    # bounded[:, 0] is sums_l <= sums_r + EPS_TIE (forward), bounded[:, 1] the reverse
    bounded = np.logical_and.reduce(sums <= sums[:, ::-1] + EPS_TIE, axis=2)
    return bounded.dot(_CODE_WEIGHTS)


def verdict_codes(lhs, rhs) -> np.ndarray:
    """Row-wise four-way verdict as indices into :data:`VERDICT_BY_CODE`.

    ``lhs`` and ``rhs`` are stacks of spectra, shapes (n, k) and (n, m).  Row
    ``j`` of one side is majorized by row ``j`` of the other when every
    leading partial sum is bounded by the matching partial sum of the other
    up to the tie tolerance ``EPS_TIE``; forward is lhs majorized by rhs.

    Both sides go into one (n, 2, w) stack, w = max(k, m): each side is
    sorted and the narrower one zero-padded (this is the one padding rule,
    which :func:`verdict` uses for unequal widths; equal widths get no
    zeros), and one cumulative sum along the reversed rows gives the
    descending partial sums of both (:func:`stacked_verdict_codes`).  The
    two directions are the bounded comparisons ``sums_l <= sums_r + EPS_TIE``
    and ``sums_r <= sums_l + EPS_TIE``, so a difference of exactly ``EPS_TIE``
    counts as bounded.
    """
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    if lhs.ndim != 2 or rhs.ndim != 2 or lhs.shape[0] != rhs.shape[0] or 0 in lhs.shape[1:] + rhs.shape[1:]:
        raise ValueError(f"expected (n, k) and (n, m) stacks of spectra, got {lhs.shape} and {rhs.shape}")
    (n, k), m = lhs.shape, rhs.shape[1]
    # ascending rows with the padding zeros in front, so that the reversed
    # row is the descending spectrum followed by its zeros
    width = max(k, m)
    sides = np.zeros((n, 2, width))
    sides[:, 0, width - k :] = np.sort(lhs, axis=1)
    sides[:, 1, width - m :] = np.sort(rhs, axis=1)
    return stacked_verdict_codes(sides[:, :, ::-1])


def verdict(lhs, rhs) -> Verdict:
    """Combine both majorization directions into the four-way classification.

    One-row form of :func:`verdict_codes`, whose forward direction is lhs
    majorized by rhs: a state with spectrum lhs converts deterministically to
    one with spectrum rhs.  Each side is read flattened.  When both have the
    same number k > 0 of entries, one concatenation builds the (1, 2, k)
    stack, sorted in place and handed straight to
    :func:`stacked_verdict_codes`; unequal or empty widths go through
    :func:`verdict_codes` as one-row stacks, which pads them or raises its
    :class:`ValueError`.
    """
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    if lhs.size == rhs.size != 0:
        sides = np.concatenate((lhs, rhs), axis=None).reshape(1, 2, -1)
        sides.sort(axis=2)
        return VERDICT_BY_CODE[stacked_verdict_codes(sides[:, :, ::-1])[0]]
    return VERDICT_BY_CODE[verdict_codes(lhs.reshape(1, -1), rhs.reshape(1, -1))[0]]


def incomparable_3dim(avec, bvec) -> bool:
    """Closed-form incomparability test for strictly ordered length-3 spectra.

    Returns True when either partial-sum crossing holds:

        a1 > b1 and b1 + b2 > a1 + a2,   or   b1 > a1 and a1 + a2 > b1 + b2,

    each comparison strict beyond ``EPS_TIE`` (``x > y + EPS_TIE``).  The
    test reads the crossings only: when the two totals agree, an interleaving
    chain such as a1 > b1 > b2 > a2 > a3 > b3 implies a crossing, since
    a3 > b3 exactly when a1 + a2 < b1 + b2.  For strictly ordered spectra whose totals agree
    within ``EPS_TIE`` it answers as ``verdict(a, b) is Verdict.INCOMPARABLE``;
    the comparisons are the verdict's own, in Python floats.  Spectra with
    internal ties raise :class:`SpectrumTieError`: route those through
    :func:`verdict`.
    """
    eps = EPS_TIE
    a = np.asarray(avec, dtype=float).ravel().tolist()
    b = np.asarray(bvec, dtype=float).ravel().tolist()
    if len(a) != 3 or len(b) != 3:
        raise ValueError("both spectra must have exactly 3 entries")
    for v, name in ((a, "first"), (b, "second")):
        if not (v[0] > v[1] + eps and v[1] > v[2] + eps):
            raise SpectrumTieError(
                f"{name} spectrum is not strictly descending beyond {eps:.0e}; "
                "use verdict() for degenerate spectra"
            )
    head_a, head_b = a[0] + a[1], b[0] + b[1]
    return (a[0] > b[0] + eps and head_b > head_a + eps) or (b[0] > a[0] + eps and head_a > head_b + eps)

