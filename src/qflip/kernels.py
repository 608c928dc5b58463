"""Vectorized numpy kernels for the hot paths.

Descending small-Hermitian eigensolves, the great-circle measure
|a b c d sin theta| and the batched per-point evaluation that backs grid
sweeps: the closed-form cubic of :mod:`qflip.cubic` beside the numeric Gram
route it is checked against.
"""

from __future__ import annotations

import numpy as np

from .bloch import complements
from .cubic import cubic_coefficients_rows, cubic_roots_rows

BACKEND = "numpy"


def eigvalsh_small(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending."""
    return np.linalg.eigvalsh(h)[::-1].copy()


def degeneracy(a, c, theta) -> np.ndarray:
    """Signed great-circle measure a b c d sin(theta) of each family point.

    The three states are coplanar on the Bloch sphere exactly where it
    vanishes; the sweep certifies only points where it exceeds the margin.
    """
    b, d = complements(a, c)
    return a * b * c * d * np.sin(theta)


def _bob_blocks(psi: np.ndarray, phi: np.ndarray, flat0: np.ndarray) -> np.ndarray:
    """Stack the three 4-dim Bob vectors (n, 3, 4) for one family member."""
    n = psi.shape[0]
    blocks = np.empty((n, 3, 4), dtype=complex)
    blocks[:, 0, :] = flat0
    blocks[:, 1, :] = np.einsum("ni,nj->nij", psi, phi).reshape(n, 4)
    blocks[:, 2, :] = np.einsum("ni,nj->nij", phi, psi).reshape(n, 4)
    return blocks


def flipped_blocks(psi: np.ndarray, phi: np.ndarray, mu=0.0, nu=0.0) -> np.ndarray:
    """Stack the three 4-dim Bob vectors (n, 3, 4) of the flipped family state.

    |0>|01> + e^{i nu}|1>|psi phibar> + e^{i mu}|2>|phi psibar>, as in
    :func:`qflip.constructions.build_family_state_flipped`; ``psi`` and
    ``phi`` are (n, 2) qubit rows, ``mu`` and ``nu`` scalars or one per row.
    """
    n = psi.shape[0]
    psi_bar = np.stack([-psi[:, 1].conj(), psi[:, 0].conj()], axis=-1)
    phi_bar = np.stack([-phi[:, 1].conj(), phi[:, 0].conj()], axis=-1)
    blocks = np.zeros((n, 3, 4), dtype=complex)
    blocks[:, 0, 1] = 1.0
    blocks[:, 1, :] = np.einsum("ni,nj->nij", psi, phi_bar).reshape(n, 4)
    blocks[:, 2, :] = np.einsum("ni,nj->nij", phi, psi_bar).reshape(n, 4)
    blocks[:, 1, :] *= np.exp(1j * np.asarray(nu))[..., None]
    blocks[:, 2, :] *= np.exp(1j * np.asarray(mu))[..., None]
    return blocks


def gram(blocks: np.ndarray) -> np.ndarray:
    """Qutrit-side reduced matrices (n, 3, 3) of (1/sqrt3) sum_j |j>|B_j>.

    rho[j, k] = <B_k|B_j> / 3 for the (n, 3, 4) Bob blocks B_j.
    """
    return np.einsum("nkm,njm->njk", blocks.conj(), blocks) / 3.0


def _gram_spectra(blocks: np.ndarray) -> np.ndarray:
    vals = np.linalg.eigvalsh(gram(blocks))
    return np.ascontiguousarray(vals[:, ::-1])


def grid_eval(a: np.ndarray, c: np.ndarray, theta: np.ndarray, mu=0.0, nu=0.0) -> dict:
    """Evaluate the three-state flip family at each (a, c, theta) point.

    Two independent routes run side by side: the closed-form cubic spectra
    (coefficients A, B, B' then trig roots) and a numeric route that builds
    the composite-state Bob blocks, forms the reduced 3x3 matrices and
    eigensolves them.  The device phases ``mu`` and ``nu`` (scalars or one
    per point) multiply the flipped state's blocks 2 and 1, as in
    :func:`qflip.constructions.build_family_state_flipped`.  Returns a dict
    of per-point arrays, the points' own coordinates included.
    """
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    theta = np.asarray(theta, dtype=float)
    n = a.shape[0]
    b, d = complements(a, c)

    coeff_a, coeff_b, coeff_bp = cubic_coefficients_rows(a, c, theta)
    alpha, theta_i = cubic_roots_rows(coeff_a, coeff_b)
    beta, theta_f = cubic_roots_rows(coeff_a, coeff_bp)

    psi = np.stack([a.astype(complex), b.astype(complex)], axis=-1)
    phi = np.stack([c.astype(complex), d * np.exp(1j * theta)], axis=-1)

    e00 = np.zeros((n, 4), dtype=complex)
    e00[:, 0] = 1.0
    num_alpha = _gram_spectra(_bob_blocks(psi, phi, e00))
    num_beta = _gram_spectra(flipped_blocks(psi, phi, mu, nu))

    return {
        "a": a,
        "c": c,
        "theta": theta,
        "A": coeff_a,
        "B": coeff_b,
        "Bprime": coeff_bp,
        "alpha": alpha,
        "beta": beta,
        "theta_i": theta_i,
        "theta_f": theta_f,
        "num_alpha": num_alpha,
        "num_beta": num_beta,
    }
