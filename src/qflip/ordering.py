"""Interleaving patterns of the initial and flipped eigenvalue triples.

The two cubics share A and differ only through B >= Bprime, so the sorted
spectra interleave one way: alpha1 >= beta1 >= beta2 >= alpha2 >= alpha3 >=
beta3, alpha (initial) and beta (final) descending.  With equal totals that
chain is Nielsen's incomparability.  What varies is how the *printed root
labels* a1..a3 / b1..b3 arrange, and that depends on which representative
angle (principal 3t in [0, pi] or mirror 2pi - 3t) carries each spectrum.
The atlas below records the label chain per region pair of (3t_initial,
3t_final), with regions the four quadrant intervals of [0, 2pi) taken
half-open.  On the three interior quadrant combinations the family reaches
-- 3t in (pi/2, pi) and 3t' in (0, pi/2), at pi/2 or in (pi/2, pi) -- each
of the four representative pairs, between them all eight entries, reads its
entry as that one rank chain; the test suite proves it once.

:func:`check_atlas` therefore checks every row's six descending roots
against the one chain, and places only the principal angles in quadrants to
name the row's entry: :func:`pattern_labels` labels each row by its
principal region pair and chain, for a sweep and a single point alike; a
sweep counts the rows by their region codes (:func:`pattern_codes`).
"""

from __future__ import annotations

from math import pi

import numpy as np

REGION_BOUNDS = {
    "Q1": "[0, pi/2)",
    "Q2": "[pi/2, pi)",
    "Q3": "[pi, 3pi/2)",
    "Q4": "[3pi/2, 2pi)",
}

_CHAIN_PP = ("a1", "b1", "b3", "a3", "a2", "b2")
_CHAIN_MM = ("a1", "b1", "b2", "a2", "a3", "b3")
_CHAIN_PM = ("a1", "b1", "b2", "a3", "a2", "b3")
_CHAIN_MP = ("a1", "b1", "b3", "a2", "a3", "b2")

# Region pair of (3t_initial, 3t_final) -> expected descending label chain.
# The left column only ever holds Q2/Q3 because B > 0 for every valid family
# point; Q1/Q4 on the right correspond to Bprime < 0.
PATTERN_ATLAS = {
    ("Q2", "Q2"): _CHAIN_PP,
    ("Q3", "Q3"): _CHAIN_MM,
    ("Q2", "Q3"): _CHAIN_PM,
    ("Q3", "Q2"): _CHAIN_MP,
    ("Q2", "Q1"): _CHAIN_PP,
    ("Q2", "Q4"): _CHAIN_PM,
    ("Q3", "Q1"): _CHAIN_MP,
    ("Q3", "Q4"): _CHAIN_MM,
}

CHAIN_TIE_TOL = 1e-12

# alpha1 >= beta1 >= beta2 >= alpha2 >= alpha3 >= beta3, as indices into a
# row's six descending roots laid out [spectrum][rank]
_INTERLEAVING = np.array([0, 3, 4, 1, 2, 5])
# Where the principal labels a1..a3, b1..b3 sit among those roots: a
# principal angle (3t <= pi) puts the cos(t) root last, so its labels 0, 1, 2
# are the ranks 0, 2, 1 (see :func:`qflip.cubic.labeled_roots_rows`).
_PRINCIPAL_LABELS = np.array([0, 2, 1, 3, 5, 4])


class OrderingMismatchError(RuntimeError):
    """Observed root ordering contradicts the atlas; never ignore this."""


_REGION_NAMES = tuple(REGION_BOUNDS)
_LABELS = ("a1", "a2", "a3", "b1", "b2", "b3")

# Label ``pattern_id:chain`` of each region code 4 * initial + final (see
# :func:`pattern_codes`), None for a region pair without an atlas entry.
CODE_LABELS = np.array(
    [
        f"{ri}{rf}:{'>'.join(PATTERN_ATLAS[ri, rf])}" if (ri, rf) in PATTERN_ATLAS else None
        for ri in _REGION_NAMES
        for rf in _REGION_NAMES
    ],
    dtype=object,
)


# Where Q2, Q3, Q4 and the next turn's Q1 start.
_QUADRANT_STARTS = np.array([pi / 2.0, pi, 1.5 * pi, 2.0 * pi])


def _region_index(angle3) -> np.ndarray:
    """Quadrant index 0..3 of each angle taken mod 2pi, half-open on the right.

    By exact comparison with the quadrant starts, which are doubles: the
    significand of the double pi ends in three zero bits, so 1.5 * pi is
    exactly 3pi/2.  The starts ascend, so a right-sided binary search counts
    the starts at or below each angle.  Angles in [0, 2pi] skip the float
    modulo; 2pi itself counts past Q4 and wraps to Q1, as 2pi mod 2pi = 0 does.
    """
    angle3 = np.asarray(angle3, dtype=float)
    if not (angle3.min(initial=0.0) >= 0.0 and angle3.max(initial=0.0) <= 2.0 * pi):
        angle3 = angle3 % (2.0 * pi)  # may round up to 2pi, which wraps below
    return np.searchsorted(_QUADRANT_STARTS, angle3, side="right") & 3


def check_atlas(roots, theta_i, theta_f, tie_tol: float | np.ndarray = CHAIN_TIE_TOL) -> np.ndarray:
    """Check the interleaving of many spectrum pairs and place them in the atlas.

    Takes what :func:`qflip.kernels.grid_eval` holds for each row: the
    descending closed-form ``roots`` (n, 2, 3) of the initial and final
    cubics and the cubics' principal third-angles.  Every row's six roots
    must descend along the one chain
    alpha1 >= beta1 >= beta2 >= alpha2 >= alpha3 >= beta3, within
    ``tie_tol``, a scalar or one value per row; every representative pair of
    every atlas entry reads as that chain (see the module docstring).  The
    principal 3t and 3t' are placed in their quadrants, and their region
    pair must have an atlas entry, which names the row.

    Returns an integer array of shape (n, 2): the quadrant index (0..3 for
    Q1..Q4) of each row's principal 3t and 3t'.  Raises
    :class:`OrderingMismatchError` for the first row, in row order, with a
    non-finite angle, else with a region pair without an atlas entry, else
    whose roots break the chain.
    """
    roots = np.asarray(roots, dtype=float).reshape(-1, 6)  # (row, [spectrum][rank])
    theta = np.array([theta_i, theta_f], dtype=float).reshape(2, -1).T
    angle3 = 3.0 * theta
    finite = np.isfinite(angle3).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        ti, tf = theta[row].tolist()
        raise OrderingMismatchError(f"row {row} has a non-finite angle: theta_i={ti!r}, theta_f={tf!r}")
    regions = _region_index(angle3)
    missing = np.equal(CODE_LABELS[pattern_codes(regions)], None)
    ordered = roots[:, _INTERLEAVING]
    broken = ~(ordered[:, :-1] >= ordered[:, 1:] - np.reshape(tie_tol, (-1, 1))).all(axis=1)
    if missing.any() or broken.any():
        row = int(np.argmax(missing if missing.any() else broken))
        pair = _REGION_NAMES[regions[row, 0]], _REGION_NAMES[regions[row, 1]]
        if missing[row]:
            raise OrderingMismatchError(f"region pair {pair} has no atlas entry")
        observed = dict(zip(_LABELS, roots[row, _PRINCIPAL_LABELS].tolist()))
        raise OrderingMismatchError(
            f"ordering for region pair {pair} deviates from the atlas chain "
            f"{'>'.join(PATTERN_ATLAS[pair])}: {observed}"
        )
    return regions


def pattern_codes(regions: np.ndarray) -> np.ndarray:
    """Region code 4 * initial + final of each row's principal region pair, as
    returned by :func:`check_atlas`.  ``CODE_LABELS[code]`` names a code."""
    return 4 * regions[:, 0] + regions[:, 1]


def pattern_labels(regions: np.ndarray) -> np.ndarray:
    """Label ``pattern_id:chain`` of each row's principal region pair, as
    returned by :func:`check_atlas`."""
    return CODE_LABELS[pattern_codes(regions)]
