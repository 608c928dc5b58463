"""Small dense complex linear algebra for composite systems of dimension <= 12.

Everything here operates on plain ``numpy`` arrays: states are 1-d complex
vectors, operators are square complex matrices.  The hard dimension cap keeps
the eigensolver choice trivial; nothing in the package ever needs more than a
qutrit tensored with two qubits.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

import numpy as np

DIM_CAP = 12
HERMITICITY_TOL = 1e-10


class DimensionError(ValueError):
    """Operand shape is inconsistent with the declared subsystem dimensions."""


class HermiticityError(ValueError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise DimensionError(f"expected a vector or matrix, got ndim={m.ndim}")
    return m


def kron(a, b) -> np.ndarray:
    """Tensor product; rejects results growing past the dimension cap.

    Two 1-d inputs produce a 1-d state vector, anything else a matrix.  The
    product is a plain broadcast outer product, equal to ``np.kron`` to the
    bit without its per-call axis bookkeeping.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim == 1 and b.ndim == 1:
        if a.size * b.size > DIM_CAP:
            raise DimensionError(f"tensor product of length {a.size * b.size} exceeds the cap of {DIM_CAP}")
        # not np.multiply.outer: for two 1-element operands it rounds differently
        return (a[:, None] * b[None, :]).reshape(-1)
    a, b = _as_matrix(a), _as_matrix(b)
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    if max(rows, cols) > DIM_CAP:
        raise DimensionError(f"tensor product of shape ({rows}, {cols}) exceeds the cap of {DIM_CAP}")
    # entry [i, k, j, l] is a[i, j] * b[k, l]: row i * b_rows + k, column j * b_cols + l
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)


def dagger(m) -> np.ndarray:
    """Conjugate transpose."""
    return _as_matrix(m).conj().T


def hermiticity_defect(m) -> float:
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return np.inf
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def require_hermitian(m, tol: float = HERMITICITY_TOL) -> np.ndarray:
    m = _as_matrix(m)
    defect = hermiticity_defect(m)
    if defect > tol:
        raise HermiticityError(f"matrix deviates from Hermitian by {defect:.3e} (tol {tol:.0e})")
    return m


def hermitian_eigenvalues(m, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending.

    The input is symmetrized as (M + M†)/2 before solving so that construction
    rounding never leaks into the spectrum; inputs that are not Hermitian
    within ``tol`` are rejected outright.
    """
    m = require_hermitian(m, tol)
    if m.shape[0] > DIM_CAP:
        raise DimensionError(f"dimension {m.shape[0]} exceeds the cap of {DIM_CAP}")
    sym = (m + m.conj().T) / 2.0
    return np.linalg.eigvalsh(sym)[::-1]


def partial_trace(rho, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``dims`` declares the tensor factorization of ``rho`` (a square density
    operator); ``keep`` is the set of subsystem indices to retain, and an
    empty ``keep`` collapses to the 1x1 scalar trace.
    """
    rho = _as_matrix(rho)
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise DimensionError("subsystem dimensions must be positive")
    size = prod(dims)
    if rho.shape != (size, size):
        raise DimensionError(f"matrix shape {rho.shape} does not match dims {dims} (size {size})")
    if size > DIM_CAP:
        raise DimensionError(f"dimension {size} exceeds the cap of {DIM_CAP}")
    require_hermitian(rho)

    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise DimensionError(f"keep indices {keep} out of range for {len(dims)} subsystems")

    n = len(dims)
    tensor = rho.reshape(dims + dims)
    # Contract the row/column axis pair of each traced subsystem, highest
    # index first so lower subsystem positions stay put; tensor.ndim // 2 is
    # always the current number of row axes.
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        tensor = np.trace(tensor, axis1=idx, axis2=idx + tensor.ndim // 2)
    kept = prod(dims[k] for k in keep) if keep else 1
    return tensor.reshape(kept, kept)
