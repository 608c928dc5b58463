"""Vectorized numpy kernels for the hot paths.

The great-circle measure |a b c d sin theta|, the selection of a sweep's
grid points beyond a margin, and the batched per-point evaluation that
backs grid sweeps: the closed-form cubic of
:mod:`qflip.cubic` beside the numeric Gram route it is checked against.
"""

from __future__ import annotations

from math import pi

import numpy as np

from .bloch import complements
from .cubic import cubic_coefficients_rows, cubic_roots_rows

BACKEND = "numpy"


def degeneracy(a, b, c, d, theta) -> np.ndarray:
    """Signed great-circle measure m = a b c d sin(theta), b and d the complements of a and c.

    The states are coplanar exactly where m = 0: a, b, c or d is 0, or theta
    is 0 or pi, and the float pi stands for pi (see
    :class:`qflip.bloch.FlipParams`).  Elsewhere m is to the bit the product
    by which :func:`beyond_margin` selects a sweep's points.
    """
    return a * b * c * d * np.where(theta == pi, 0.0, np.sin(theta))


def beyond_margin(ticks: np.ndarray, angles: np.ndarray, margin: float, block: int) -> np.ndarray:
    """Flat indices, ascending, of the (a, c, theta) grid points whose measure exceeds ``margin``.

    The grid is ``ticks`` x ``ticks`` x ``angles`` (angles in (0, pi)), and
    the result equals ``np.flatnonzero(np.abs(degeneracy(...)) > margin)``
    over it, bit for bit, without an array of the grid's size.  Row (a, c)
    is kept only if |a b c d * s_max| > margin for the largest grid sine
    s_max: rounded products are monotone, so no other row holds a point
    beyond the margin.  Each run of consecutive kept rows is evaluated in
    pieces of at most ``block`` points.
    """
    n_theta = len(angles)
    b, d = complements(ticks[:, None], ticks[None, :])
    scale = (ticks[:, None] * b * ticks[None, :] * d).ravel()  # a b c d, fixed along theta
    sines = np.sin(angles)
    rows = np.flatnonzero(np.abs(scale * sines.max()) > margin)
    if rows.size == 0:
        return rows
    # runs of consecutive kept rows, as flat point ranges [start, stop)
    breaks = np.flatnonzero(np.diff(rows) != 1) + 1
    starts = rows[np.r_[0, breaks]] * n_theta
    stops = (rows[np.r_[breaks - 1, rows.size - 1]] + 1) * n_theta
    pieces = []
    for start, stop in zip(starts.tolist(), stops.tolist()):
        for lo in range(start, stop, block):
            # flat points [lo, hi) lie in rows [first, last); a piece may cut a row
            hi = min(lo + block, stop)
            first, last = lo // n_theta, -(-hi // n_theta)
            measure = (scale[first:last, None] * sines).ravel()[lo - first * n_theta : hi - first * n_theta]
            pieces.append(np.flatnonzero(np.abs(measure) > margin) + lo)
    return np.concatenate(pieces)


def family_reduced_rows(a, b, c, d, theta, mu=0.0, nu=0.0) -> np.ndarray:
    """Qutrit-side reduced matrices (n, 2, 3, 3) of both family states.

    ``[:, 0]`` belongs to the initial state (1/sqrt3) sum_j |j>|L_j R_j> and
    ``[:, 1]`` to the flipped one, where Bob's second qubit carries the
    complement of R_j: level j's left factor L_j is (|0>, psi, phi) and its
    right factor R_j is (|0>, phi, psi).  The device phases e^{i nu} and
    e^{i mu} (both scalars or both one per point) multiply flipped levels 1
    and 2.  Entry [j, k] of each matrix is <B_k|B_j> / 3 for the 4-dim Bob
    blocks B_j; ``b`` and ``d`` are the complements of ``a`` and ``c``.
    """
    n = len(a)
    # axes (state, level, amplitude, point): with the point axis last, every
    # product and the Gram sums run along it, faster than a point-first layout
    left = np.zeros((3, 2, n), dtype=complex)
    left[0, 0] = 1.0
    left[1, 0], left[1, 1] = a, b
    left[2, 0], left[2, 1] = c, d * np.exp(1j * np.asarray(theta))
    # R = (L_0, L_2, L_1) and its complement (-conj y, conj x), by basic slices
    right = np.empty((2,) + left.shape, dtype=complex)
    right[0, 0], right[0, 1:] = left[0], left[:0:-1]
    np.conjugate(right[0, :, ::-1], out=right[1])
    np.negative(right[1, :, 0], out=right[1, :, 0])
    blocks = left[None, :, :, None] * right[:, :, None, :]
    blocks[1, 1:] *= np.exp(1j * np.array([nu, mu])).reshape(2, 1, 1, -1)
    blocks = blocks.reshape(2, 3, 4, n)
    return np.einsum("skmn,sjmn->nsjk", blocks.conj(), blocks) / 3.0


def grid_eval(a: np.ndarray, c: np.ndarray, theta: np.ndarray, mu=0.0, nu=0.0) -> dict:
    """Evaluate the three-state flip family at each (a, c, theta) point.

    Two independent routes run side by side, each on both states at once:
    the closed-form cubic spectra (coefficients A, B, B' then trig roots)
    and a numeric route that eigensolves the reduced 3x3 matrices of
    :func:`family_reduced_rows`, device phases ``mu`` and ``nu`` included.
    Both share one ``complements(a, c)``, and so does the measure ``m`` of
    :func:`degeneracy`, B - B' = 4 m^2 without a subtraction.  Returns a dict
    of per-point arrays, the points' coordinates included, with ``B_pair`` (n, 2)
    and ``roots``, ``spectra`` (n, 2, 3: initial, flipped; descending) beside
    their per-state views ``B``, ``Bprime``, ``num_alpha``, ``num_beta``.
    """
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    theta = np.asarray(theta, dtype=float)
    b, d = complements(a, c)
    coeff_a, coeff_b, coeff_bp = cubic_coefficients_rows(a, b, c, d, theta)
    b_pair = np.array([coeff_b, coeff_bp]).T
    roots, t = cubic_roots_rows(coeff_a[:, None], b_pair)
    # the reduced matrices come with the point axis innermost in memory; a
    # C-contiguous copy gives the eigensolver the same bits and made a grid-40
    # sweep 5-10% faster (20 in-process pairs, 2-vCPU VM, numpy 2.4)
    reduced = np.ascontiguousarray(family_reduced_rows(a, b, c, d, theta, mu, nu))
    spectra = np.linalg.eigvalsh(reduced)[..., ::-1]
    return {
        "a": a,
        "c": c,
        "theta": theta,
        "m": degeneracy(a, b, c, d, theta),
        "A": coeff_a,
        "B": b_pair[:, 0],
        "Bprime": b_pair[:, 1],
        "B_pair": b_pair,
        "roots": roots,
        "spectra": spectra,
        "theta_i": t[:, 0],
        "theta_f": t[:, 1],
        "num_alpha": spectra[:, 0],
        "num_beta": spectra[:, 1],
    }
