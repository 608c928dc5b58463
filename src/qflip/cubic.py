"""Closed-form spectra of the family's reduced density matrices.

Both 3x3 reduced matrices of the family share the characteristic equation

    (1 - 3*lam)^3 - 3*(1 - 3*lam)*A + Bval = 0

with a common A and a B that differs between the initial and flipped state.
The three roots follow from the trigonometric solution of the depressed
cubic: with cos(3*t) = -Bval / (2 A^{3/2}),

    lam = (1 - 2 sqrt(A) cos(phi)) / 3,  phi in {2pi/3 + t, t, 2pi/3 - t}.

The angle t is only determined up to the mirror 2pi - 3t at the level of its
cosine; :func:`labeled_roots` evaluates the printed root labels for any
representative so the ordering classifier can reason about both.
"""

from __future__ import annotations

from cmath import exp as cexp
from dataclasses import dataclass
from math import acos, cos, pi, sqrt

import numpy as np

from .bloch import FlipParams

ROOT_RESIDUAL_TOL = 1e-9


def state_overlap(p: FlipParams) -> complex:
    """Inner product <psi|phi> = a*c + b*d*e^{i theta} of the family pair."""
    return p.a * p.c + p.b * p.d * cexp(1j * p.theta)


def cubic_coefficients(p: FlipParams) -> tuple[float, float, float]:
    """Coefficients (A, B, Bprime) of the two characteristic cubics.

    A = [2 a^2 c^2 + |<psi|phi>|^4] / 3 is shared; B = 2 a^2 c^2 |<psi|phi>|^2
    belongs to the initial state and Bprime = 2 a^2 c^2 Re{<phi|psi>^2} to the
    flipped one.  They satisfy B - Bprime = 4 a^2 b^2 c^2 d^2 sin^2(theta),
    so B >= Bprime always, with equality exactly on great-circle parameters.
    """
    w = state_overlap(p)
    a2c2 = (p.a * p.c) ** 2
    w2 = abs(w) ** 2
    coeff_a = (2.0 * a2c2 + w2 * w2) / 3.0
    coeff_b = 2.0 * a2c2 * w2
    coeff_bp = 2.0 * a2c2 * (w.real * w.real - w.imag * w.imag)
    return coeff_a, coeff_b, coeff_bp


@dataclass(frozen=True)
class CubicSpectrum:
    """One solved cubic: shared coefficient A, its B value, principal
    third-angle, and the three roots in descending order."""

    A: float
    b_val: float
    theta_angle: float
    roots: np.ndarray

    def __post_init__(self):
        roots = np.asarray(self.roots, dtype=float).reshape(3)
        roots.setflags(write=False)
        object.__setattr__(self, "roots", roots)

    def residuals(self) -> np.ndarray:
        u = 1.0 - 3.0 * self.roots
        return u**3 - 3.0 * u * self.A + self.b_val


def cubic_roots(a_coeff: float, b_val: float) -> CubicSpectrum:
    """Solve (1-3x)^3 - 3(1-3x)A + B = 0 by the trigonometric formulas.

    The arccos argument is clamped to [-1, 1]; the clamp absorbs rounding at
    the repeated-root boundary |B| = 2 A^{3/2}, which is genuinely reachable.
    A = 0 degenerates to the triple root 1/3.
    """
    if a_coeff < 0.0:
        raise ValueError(f"A must be nonnegative, got {a_coeff}")
    if a_coeff == 0.0:
        return CubicSpectrum(0.0, b_val, acos(0.0) / 3.0, np.full(3, 1.0 / 3.0))
    arg = min(1.0, max(-1.0, -b_val / (2.0 * a_coeff * sqrt(a_coeff))))
    theta = acos(arg) / 3.0
    roots = np.sort(labeled_roots(a_coeff, 3.0 * theta))[::-1]
    return CubicSpectrum(a_coeff, b_val, theta, roots)


def labeled_roots(a_coeff: float, angle3: float) -> np.ndarray:
    """Roots in printed-label order for the representative angle ``angle3``.

    Index 0 is the 2pi/3 + t root (always the largest), index 1 the cos(t)
    root and index 2 the 2pi/3 - t root, where t = angle3 / 3.  Which of the
    last two is the middle root depends on the representative: principal
    angles (angle3 <= pi) put the cos(t) root last, mirror angles put it in
    the middle.
    """
    t = angle3 / 3.0
    s = sqrt(a_coeff)
    return np.array(
        [
            (1.0 - 2.0 * s * cos(2.0 * pi / 3.0 + t)) / 3.0,
            (1.0 - 2.0 * s * cos(t)) / 3.0,
            (1.0 - 2.0 * s * cos(2.0 * pi / 3.0 - t)) / 3.0,
        ]
    )
