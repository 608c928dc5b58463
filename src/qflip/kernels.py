"""Vectorized numpy kernels for the hot paths.

Descending small-Hermitian eigensolves, trigonometric roots of the depressed
cubic family, the great-circle measure |a b c d sin theta| and the batched
per-point evaluation that backs grid sweeps.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

TWO_THIRDS_PI = 2.0 * np.pi / 3.0


def eigvalsh_small(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending."""
    return np.linalg.eigvalsh(h)[::-1].copy()


def cubic_roots_batch(a_coeff: np.ndarray, b_val: np.ndarray):
    """Roots of (1-3x)^3 - 3(1-3x)*A + B = 0 for each (A, B) pair.

    Returns ``(roots, theta)`` where ``roots`` is (n, 3) descending and
    ``theta`` is the principal third-angle arccos(-B / (2 A^{3/2})) / 3.
    The arccos argument is clamped to [-1, 1]; A == 0 collapses to the
    triple root 1/3.
    """
    a_coeff = np.asarray(a_coeff, dtype=float)
    b_val = np.asarray(b_val, dtype=float)
    pos = a_coeff > 0.0
    denom = np.where(pos, 2.0 * np.power(np.where(pos, a_coeff, 1.0), 1.5), 1.0)
    arg = np.clip(-b_val / denom, -1.0, 1.0)
    arg = np.where(pos, arg, 0.0)
    theta = np.arccos(arg) / 3.0
    s = np.sqrt(np.where(pos, a_coeff, 0.0))
    r_plus = (1.0 - 2.0 * s * np.cos(TWO_THIRDS_PI + theta)) / 3.0
    r_base = (1.0 - 2.0 * s * np.cos(theta)) / 3.0
    r_minus = (1.0 - 2.0 * s * np.cos(TWO_THIRDS_PI - theta)) / 3.0
    roots = np.stack([r_plus, r_minus, r_base], axis=-1)
    roots = np.sort(roots, axis=-1)[..., ::-1]
    return np.ascontiguousarray(roots), theta


def _complements(a: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """b = sqrt(1 - a^2) and d = sqrt(1 - c^2), clamped at zero."""
    return np.sqrt(np.clip(1.0 - a * a, 0.0, None)), np.sqrt(np.clip(1.0 - c * c, 0.0, None))


def degeneracy(a, c, theta) -> np.ndarray:
    """Signed great-circle measure a b c d sin(theta) of each family point.

    The three states are coplanar on the Bloch sphere exactly where it
    vanishes.  The sweep's margin mask and :func:`grid_eval`'s
    ``degeneracy`` column both come from here, so they cannot drift apart.
    """
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    b, d = _complements(a, c)
    return a * b * c * d * np.sin(theta)


def _bob_blocks(psi: np.ndarray, phi: np.ndarray, flat0: np.ndarray) -> np.ndarray:
    """Stack the three 4-dim Bob vectors (n, 3, 4) for one family member."""
    n = psi.shape[0]
    blocks = np.empty((n, 3, 4), dtype=complex)
    blocks[:, 0, :] = flat0
    blocks[:, 1, :] = np.einsum("ni,nj->nij", psi, phi).reshape(n, 4)
    blocks[:, 2, :] = np.einsum("ni,nj->nij", phi, psi).reshape(n, 4)
    return blocks


def _gram_spectra(blocks: np.ndarray) -> np.ndarray:
    # rho[j, k] = <B_k|B_j> / 3 for the qutrit side of (1/sqrt3) sum |j>|B_j>
    gram = np.einsum("nkm,njm->njk", blocks.conj(), blocks) / 3.0
    vals = np.linalg.eigvalsh(gram)
    return np.ascontiguousarray(vals[:, ::-1])


def grid_eval(a: np.ndarray, c: np.ndarray, theta: np.ndarray) -> dict:
    """Evaluate the three-state flip family at each (a, c, theta) point.

    Two independent routes run side by side: the closed-form cubic spectra
    (coefficients A, B, B' then trig roots) and a numeric route that builds
    the composite-state Bob blocks, forms the reduced 3x3 matrices and
    eigensolves them.  Returns a dict of per-point arrays.
    """
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    theta = np.asarray(theta, dtype=float)
    n = a.shape[0]
    b, d = _complements(a, c)

    w_re = a * c + b * d * np.cos(theta)
    w_im = b * d * np.sin(theta)
    w2 = w_re * w_re + w_im * w_im
    a2c2 = (a * c) ** 2
    coeff_a = (2.0 * a2c2 + w2 * w2) / 3.0
    coeff_b = 2.0 * a2c2 * w2
    coeff_bp = 2.0 * a2c2 * (w_re * w_re - w_im * w_im)

    alpha, theta_i = cubic_roots_batch(coeff_a, coeff_b)
    beta, theta_f = cubic_roots_batch(coeff_a, coeff_bp)

    psi = np.stack([a.astype(complex), b.astype(complex)], axis=-1)
    phi = np.stack([c.astype(complex), d * np.exp(1j * theta)], axis=-1)
    psi_bar = np.stack([-psi[:, 1].conj(), psi[:, 0].conj()], axis=-1)
    phi_bar = np.stack([-phi[:, 1].conj(), phi[:, 0].conj()], axis=-1)

    e00 = np.zeros((n, 4), dtype=complex)
    e00[:, 0] = 1.0
    e01 = np.zeros((n, 4), dtype=complex)
    e01[:, 1] = 1.0

    num_alpha = _gram_spectra(_bob_blocks(psi, phi, e00))
    # flipped family: |0>|01> + |1>|psi phibar> + |2>|phi psibar>
    flipped = np.empty((n, 3, 4), dtype=complex)
    flipped[:, 0, :] = e01
    flipped[:, 1, :] = np.einsum("ni,nj->nij", psi, phi_bar).reshape(n, 4)
    flipped[:, 2, :] = np.einsum("ni,nj->nij", phi, psi_bar).reshape(n, 4)
    num_beta = _gram_spectra(flipped)

    max_err = np.maximum(
        np.max(np.abs(alpha - num_alpha), axis=1),
        np.max(np.abs(beta - num_beta), axis=1),
    )
    return {
        "A": coeff_a,
        "B": coeff_b,
        "Bprime": coeff_bp,
        "degeneracy": degeneracy(a, c, theta),
        "alpha": alpha,
        "beta": beta,
        "theta_i": theta_i,
        "theta_f": theta_f,
        "num_alpha": num_alpha,
        "num_beta": num_beta,
        "max_err": max_err,
    }
