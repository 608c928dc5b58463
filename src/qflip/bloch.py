"""Qubit states, Bloch-sphere geometry and the antiunitary flip.

A qubit is a normalized length-2 complex numpy array.  The flip is the
orthogonal complement under the fixed convention (amp0, amp1) ->
(-conj(amp1), conj(amp0)), which sends |0> exactly to |1>; the extra phases
of a physical flipping device enter the family states as the explicit
``mu`` and ``nu`` of :func:`qflip.kernels.grid_eval` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, pi

import numpy as np

NORM_TOL = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def require_qubit(q) -> np.ndarray:
    q = np.asarray(q, dtype=complex).reshape(-1)
    if q.shape != (2,):
        raise ValueError(f"expected a length-2 amplitude vector, got shape {q.shape}")
    if abs(np.vdot(q, q).real - 1.0) > NORM_TOL:
        raise ValueError("qubit is not normalized")
    return q


def random_qubit(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed qubit drawn from ``rng``."""
    while True:
        z = rng.normal(size=4)
        q = np.array([z[0] + 1j * z[1], z[2] + 1j * z[3]])
        norm = np.linalg.norm(q)
        if norm > 1e-6:
            return q / norm


def qubit_to_bloch(q) -> np.ndarray:
    """Unit Bloch vector (nx, ny, nz) of a pure qubit."""
    q = require_qubit(q)
    cross = np.conj(q[0]) * q[1]
    return np.array([2.0 * cross.real, 2.0 * cross.imag, abs(q[0]) ** 2 - abs(q[1]) ** 2])


def density_to_bloch(rho) -> np.ndarray:
    """Bloch vector of a 2x2 density matrix (norm <= 1 for mixed states)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 density matrix, got shape {rho.shape}")
    return np.array(
        [
            np.trace(rho @ PAULI_X).real,
            np.trace(rho @ PAULI_Y).real,
            np.trace(rho @ PAULI_Z).real,
        ]
    )


def flip(q) -> np.ndarray:
    """Antiunitary flip: the orthogonal qubit under the fixed phase convention.

    The Bloch vector of the output is the negation of the input's.
    """
    q = require_qubit(q)
    return np.array([-np.conj(q[1]), np.conj(q[0])])


@dataclass(frozen=True)
class FlipParams:
    """Parameters (a, c, theta) of three states in their simplest form.

    The triple is (|0>, a|0> + b|1>, c|0> + d e^{i theta}|1>) with
    b = sqrt(1 - a^2) and d = sqrt(1 - c^2), as :func:`complements` gives
    them.  For the generic family theta must lie strictly inside (0, pi);
    boundary values are only meaningful for deliberately degenerate
    (great-circle) configurations and require ``allow_boundary_theta``.
    """

    a: float
    c: float
    theta: float
    allow_boundary_theta: bool = False

    def __post_init__(self):
        for name in ("a", "c", "theta"):
            if not isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0.0 <= self.a <= 1.0 or not 0.0 <= self.c <= 1.0:
            raise ValueError(f"a and c must lie in [0, 1], got a={self.a}, c={self.c}")
        if not 0.0 <= self.theta <= pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not self.allow_boundary_theta and not 0.0 < self.theta < pi:
            raise ValueError("theta on the boundary of (0, pi) requires allow_boundary_theta=True")


def complements(a, c) -> tuple[np.ndarray, np.ndarray]:
    """The family's b = sqrt(1 - a^2) and d = sqrt(1 - c^2), elementwise, clamped at zero."""
    return np.sqrt(np.maximum(1.0 - a * a, 0.0)), np.sqrt(np.maximum(1.0 - c * c, 0.0))

