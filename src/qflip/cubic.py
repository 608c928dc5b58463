"""Closed-form spectra of the family's reduced density matrices.

Both 3x3 reduced matrices of the family share the characteristic equation

    (1 - 3*lam)^3 - 3*(1 - 3*lam)*A + Bval = 0

with a common A and a B that differs between the initial and flipped state.
The three roots follow from the trigonometric solution of the depressed
cubic: with cos(3*t) = -Bval / (2 A^{3/2}),

    lam = (1 - 2 sqrt(A) cos(phi)) / 3,  phi in {2pi/3 + t, t, 2pi/3 - t}.

The angle t is only determined up to the mirror 2pi - 3t at the level of its
cosine; :func:`labeled_roots_rows` evaluates the printed root labels for any
representative.  For the principal t the descending roots are those labels in
order (0, 2, 1), and the mirror's labels are the descending roots as they
stand, so the atlas check reads both representatives off the sorted roots.

The ``_rows`` functions are the only copy of the closed form and work
elementwise on arrays; a single family point is a one-row call, so a sweep row
and a single point get the same coefficients and roots to the bit.
"""

from __future__ import annotations

import numpy as np

# t * _PHI_SIGNS + _PHI_OFFSETS is (2pi/3 + t, t, 2pi/3 - t) to the bit: x + (-t) is x - t
_PHI_SIGNS = np.array([1.0, 1.0, -1.0])
_PHI_OFFSETS = np.array([2.0 * np.pi / 3.0, 0.0, 2.0 * np.pi / 3.0])


def cubic_coefficients_rows(a, b, c, d, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients (A, B, Bprime) of the two characteristic cubics, elementwise.

    With w = <psi|phi>, A = [2 a^2 c^2 + |w|^4] / 3 is shared;
    B = 2 a^2 c^2 |w|^2 belongs to the initial state and
    Bprime = 2 a^2 c^2 Re{w^2} to the flipped one.  They satisfy
    B - Bprime = 4 a^2 b^2 c^2 d^2 sin^2(theta), so B >= Bprime always, with
    equality exactly on great-circle parameters.  ``b`` and ``d`` are the
    complements of ``a`` and ``c``, as :func:`qflip.bloch.complements` gives them.
    """
    a, b, c, d = (np.asarray(x, dtype=float) for x in (a, b, c, d))
    w_re = a * c + b * d * np.cos(theta)
    w_im = b * d * np.sin(theta)
    w2 = w_re * w_re + w_im * w_im
    a2c2 = (a * c) ** 2
    coeff_a = (2.0 * a2c2 + w2 * w2) / 3.0
    coeff_b = 2.0 * a2c2 * w2
    coeff_bp = 2.0 * a2c2 * (w_re * w_re - w_im * w_im)
    return coeff_a, coeff_b, coeff_bp


def labeled_roots_rows(a_coeff, t: np.ndarray) -> np.ndarray:
    """Roots in printed-label order for the third-angles ``t``, elementwise.

    The new last axis holds index 0, the 2pi/3 + t root (always the largest),
    index 1 the cos(t) root and index 2 the 2pi/3 - t root.  Which of the
    last two is the middle root depends on the representative: principal
    angles (3t <= pi) put the cos(t) root last, mirror angles put it in the
    middle.
    """
    phi = np.asarray(t)[..., None] * _PHI_SIGNS + _PHI_OFFSETS
    return (1.0 - 2.0 * np.sqrt(a_coeff)[..., None] * np.cos(phi)) / 3.0


def cubic_roots_rows(a_coeff, b_val) -> tuple[np.ndarray, np.ndarray]:
    """Solve (1-3x)^3 - 3(1-3x)A + B = 0 for each (A, B) pair.

    Returns ``(roots, t)``: the roots descending along the last axis and the
    principal third-angle t = arccos(-B / (2 A^{3/2})) / 3.  The arccos
    argument is clamped to [-1, 1]; the clamp absorbs rounding at the
    repeated-root boundary |B| = 2 A^{3/2}, which is genuinely reachable.
    A <= 0 collapses to the triple root 1/3.
    """
    a_coeff = np.asarray(a_coeff, dtype=float)
    b_val = np.asarray(b_val, dtype=float)
    pos = a_coeff > 0.0
    denom = 2.0 * np.power(np.where(pos, a_coeff, 1.0), 1.5)
    t = np.arccos(np.where(pos, np.minimum(np.maximum(-b_val / denom, -1.0), 1.0), 0.0)) / 3.0
    roots = labeled_roots_rows(np.where(pos, a_coeff, 0.0), t)
    roots.sort(axis=-1)
    return roots[..., ::-1], t
