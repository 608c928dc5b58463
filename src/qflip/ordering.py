"""Interleaving patterns of the initial and flipped eigenvalue triples.

The sorted spectra interleave one way, alpha1 >= beta1 >= beta2 >= alpha2 >=
alpha3 >= beta3 (alpha initial, beta final, descending): :mod:`qflip.cubic`
proves it and :func:`qflip.constructions.certify_rows` certifies it by signs.
What varies is how the *printed root labels* a1..a3 / b1..b3 arrange, which
depends on the representative angle (principal 3t in [0, pi] or mirror
2pi - 3t) of each spectrum.  The atlas records the label chain per region
pair of (3t_initial, 3t_final), regions being the four half-open quadrants of
[0, 2pi).  On the three interior quadrant combinations the family reaches --
3t in (pi/2, pi) and 3t' in (0, pi/2), at pi/2 or in (pi/2, pi) -- each of
the four representative pairs, between them all eight entries, reads its
entry as that one rank chain; the test suite proves it once.  So a row's
entry follows from its principal angles alone: :func:`check_atlas` places
them and returns each row's region code, ``CODE_LABELS[code]`` names each
row, for a sweep and a single point alike, and a sweep counts the rows by
region code.
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


class OrderingMismatchError(RuntimeError):
    """A row's angles have no place in the atlas; never ignore this."""


_REGION_NAMES = tuple(REGION_BOUNDS)

# Label ``pattern_id:chain`` of each region code 4 * initial + final (see
# :func:`check_atlas`), None for a region pair without an atlas entry.
CODE_LABELS = np.array(
    [
        f"{ri}{rf}:{'>'.join(PATTERN_ATLAS[ri, rf])}" if (ri, rf) in PATTERN_ATLAS else None
        for ri in _REGION_NAMES
        for rf in _REGION_NAMES
    ],
    dtype=object,
)
# Whether each region code has no atlas entry.
_UNPLACED = np.equal(CODE_LABELS, None)


# Where Q2, Q3, Q4 and the next turn's Q1 start.
_QUADRANT_STARTS = np.array([pi / 2.0, pi, 1.5 * pi, 2.0 * pi])


def _region_index(angle3) -> np.ndarray:
    """Quadrant index 0..3 of each angle taken mod 2pi, half-open on the right.

    By exact comparison with the quadrant starts, which are doubles: the
    significand of the double pi ends in three zero bits, so 1.5 * pi is
    exactly 3pi/2.  The starts ascend, so a right-sided binary search counts
    the starts at or below each angle.  The float modulo is exact on
    [0, 2pi) and may round a negative angle up to 2pi, which counts past Q4
    and wraps to Q1, as 2pi mod 2pi = 0 does.
    """
    angle3 = np.asarray(angle3, dtype=float) % (2.0 * pi)
    return _QUADRANT_STARTS.searchsorted(angle3, side="right") & 3


def check_atlas(theta_i, theta_f) -> np.ndarray:
    """Place the principal angles 3t and 3t' of many rows, the third-angles
    :func:`qflip.kernels.grid_eval` holds, in their quadrants.

    Returns each row's region code 4 * initial + final, the quadrant indices
    0..3 standing for Q1..Q4; ``CODE_LABELS[code]`` names the region pair's
    atlas entry.  Raises
    :class:`OrderingMismatchError` for the first row with a non-finite angle
    (tested first: the modulo warns on one), else without an atlas entry.
    """
    theta = np.array([theta_i, theta_f], dtype=float).reshape(2, -1)
    angle3 = 3.0 * theta
    finite = np.isfinite(angle3)
    if np.count_nonzero(finite) < finite.size:
        row = int(np.argmin(finite.all(axis=0)))
        ti, tf = theta[:, row].tolist()
        raise OrderingMismatchError(f"row {row} has a non-finite angle: theta_i={ti!r}, theta_f={tf!r}")
    initial, final = _region_index(angle3)
    codes = 4 * initial + final
    unplaced = _UNPLACED[codes]
    if np.count_nonzero(unplaced):
        ri, rf = divmod(int(codes[np.argmax(unplaced)]), 4)
        raise OrderingMismatchError(f"region pair {(_REGION_NAMES[ri], _REGION_NAMES[rf])} has no atlas entry")
    return codes
