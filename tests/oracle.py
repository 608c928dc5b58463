"""Composite-state oracle for the flip experiments.

Every state here is an explicit amplitude vector (for the experiments, a
qutrit tensored with two qubits: 12 amplitudes), and every reduction is a
partial trace of its density matrix.  The package builds none of these
states: it takes the same spectra from Gram matrices of Bob's blocks, and the
tests hold that route against this one.  The dimension cap of 12 keeps the
linear algebra small and the eigensolver choice trivial.

It also keeps the reading of the atlas the package proves once: where each
representative pair's printed labels a1..a3, b1..b3 sit among a row's six
descending roots (:data:`PAIR_LABELS`, :func:`rank_chain`), and quadrants by
float division (:func:`division_region_index`), against which the package's
exact quadrant placement is held.

And it keeps the stacked numpy form of the majorization verdict
(:func:`stacked_verdict`), against which the package's one pass over Python
floats is held.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, log2, pi, prod, sin, sqrt
from typing import Sequence

import numpy as np

from qflip.bloch import FlipParams, complements, flip, qubit_to_bloch
from qflip.schmidt import EPS_TIE, VERDICT_BY_CODE, Verdict

DIM_CAP = 12
HERMITICITY_TOL = 1e-10
STATE_NORM_TOL = 1e-12


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


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector with a declared tensor factorization."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in dims):
            raise DimensionError("subsystem dimensions must be positive")
        if amps.size != prod(dims):
            raise DimensionError(
                f"{amps.size} amplitudes do not fill subsystems of dims {dims}"
            )
        norm2 = float(np.vdot(amps, amps).real)
        if abs(norm2 - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state is not normalized: |amp|^2 = {norm2!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


def _descending_probs(values: Sequence[float]) -> np.ndarray:
    v = np.asarray(values, dtype=float).reshape(-1)
    if v.size == 0:
        raise ValueError("empty spectrum")
    return np.sort(v)[::-1]


def schmidt_decompose(state: PureState, cut: Sequence[int]) -> np.ndarray:
    """Descending squared Schmidt coefficients across the given bipartition.

    ``cut`` lists the subsystem indices forming one side; the complement forms
    the other.  The spectrum is computed from the reduced density matrix of
    the smaller side, so it always has min(d_A, d_B) entries.
    """
    cut = sorted(set(int(k) for k in cut))
    n = len(state.dims)
    if not cut or len(cut) == n or any(k < 0 or k >= n for k in cut):
        raise DimensionError(f"cut {cut} is not a bipartition of {n} subsystems")
    d_cut = prod(state.dims[k] for k in cut)
    d_rest = prod(state.dims[k] for k in range(n) if k not in cut)
    keep = cut if d_cut <= d_rest else [k for k in range(n) if k not in cut]
    reduced = partial_trace(state.density(), state.dims, keep)
    vals = hermitian_eigenvalues(reduced)
    return np.clip(vals, 0.0, None)


def entanglement_entropy(probs) -> float:
    """Shannon entropy of a Schmidt probability vector, in bits."""
    p = _descending_probs(probs)
    if np.any(p < -1e-10) or abs(p.sum() - 1.0) > 1e-10:
        raise ValueError("spectrum is not a probability vector")
    return float(-sum(x * log2(x) for x in p if x > 0.0))


def stacked_verdict(lhs, rhs) -> Verdict:
    """The four-way verdict in numpy: both sides in one sorted (2, w) stack.

    Equal widths are concatenated and sorted in place; unequal widths are
    sorted apart, the narrower side zero-padded at the tail of its descending
    order.  One ``np.add.accumulate`` along the reversed rows gives both
    sides' partial sums and one ``np.logical_and.reduce`` both directions.
    """
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    if lhs.size == 0 or rhs.size == 0:
        raise ValueError(f"expected two non-empty spectra, got shapes {lhs.shape} and {rhs.shape}")
    if lhs.size == rhs.size:
        sides = np.concatenate((lhs, rhs), axis=None).reshape(2, -1)
        sides.sort(axis=1)
    else:
        # ascending rows with the padding zeros in front, so that the reversed
        # row is the descending spectrum followed by its zeros
        width = max(lhs.size, rhs.size)
        sides = np.zeros((2, width))
        sides[0, width - lhs.size :] = np.sort(lhs, axis=None)
        sides[1, width - rhs.size :] = np.sort(rhs, axis=None)
    sums = np.add.accumulate(sides[:, ::-1], axis=1)
    # row 0 is sums_l <= sums_r + EPS_TIE (forward), row 1 the reverse
    forward, backward = np.logical_and.reduce(sums <= sums[::-1] + EPS_TIE, axis=1).tolist()
    return VERDICT_BY_CODE[2 * forward + backward]


def canonical_triple(p: FlipParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three family states (|0>, a|0>+b|1>, c|0>+d e^{i theta}|1>)."""
    b, d = complements(p.a, p.c)
    first = np.array([1.0, 0.0], dtype=complex)
    second = np.array([p.a, b], dtype=complex)
    third = np.array([p.c, d * (cos(p.theta) + 1j * sin(p.theta))], dtype=complex)
    return first, second, third


def great_circle_test(q1, q2, q3, tol: float = 1e-10) -> bool:
    """True when the three Bloch vectors are coplanar with the sphere center.

    Uses the determinant of the stacked Bloch vectors; for
    ``canonical_triple(p)`` the determinant equals 4*a*b*c*d*sin(theta).
    Near-coplanar triples within ``tol`` count as lying on a great circle.
    """
    det = np.linalg.det(np.array([qubit_to_bloch(q1), qubit_to_bloch(q2), qubit_to_bloch(q3)]))
    return bool(abs(det) <= tol)


_QUTRIT_BASIS = tuple(np.eye(3, dtype=complex)[j] for j in range(3))


def _qutrit_sum(blocks: list[np.ndarray], phases: list[complex]) -> PureState:
    amps = sum(g * kron(e, blk) for e, blk, g in zip(_QUTRIT_BASIS, blocks, phases))
    return PureState(amps / sqrt(3.0), (3, 2, 2))


def build_flipper_pair(psi, weights_initial, weights_final) -> tuple[PureState, PureState]:
    """The two correlated states whose interconversion would flip ``psi``.

    Bob's three orthogonal levels are realized on his two qubits as
    |psi psi>, |psibar psi>, |psibar psibar>, so that tracing everything but
    his first qubit leaves a mixture of |psi> and |psibar> whose weights
    differ between the two states.
    """
    psi = np.asarray(psi, dtype=complex)
    psi_bar = flip(psi)
    levels = [kron(psi, psi), kron(psi_bar, psi), kron(psi_bar, psi_bar)]

    def assemble(weights):
        amps = sum(
            sqrt(w) * kron(e, lvl) for e, lvl, w in zip(_QUTRIT_BASIS, levels, weights)
        )
        return PureState(amps, (3, 2, 2))

    return assemble(weights_initial), assemble(weights_final)


def bob_qubit_reduction(state: PureState) -> np.ndarray:
    """Density matrix of Bob's first qubit in a (3, 2, 2) state."""
    if state.dims != (3, 2, 2):
        raise DimensionError(f"expected dims (3, 2, 2), got {state.dims}")
    return partial_trace(state.density(), state.dims, keep=[1])


def build_family_state(p: FlipParams) -> PureState:
    """General family state: levels tag |0 0>, |psi phi> and |phi psi>."""
    zero, psi, phi = canonical_triple(p)
    blocks = [kron(zero, zero), kron(psi, phi), kron(phi, psi)]
    return _qutrit_sum(blocks, [1.0, 1.0, 1.0])


def build_family_state_flipped(p: FlipParams, mu: float = 0.0, nu: float = 0.0) -> PureState:
    """Family state after flipping Bob's second qubit, with device phases."""
    zero, psi, phi = canonical_triple(p)
    blocks = [kron(zero, flip(zero)), kron(psi, flip(phi)), kron(phi, flip(psi))]
    return _qutrit_sum(blocks, [1.0, np.exp(1j * nu), np.exp(1j * mu)])


def family_reduced_initial(p: FlipParams) -> np.ndarray:
    """Closed form of the qutrit-side reduction of :func:`build_family_state`."""
    _, psi, phi = canonical_triple(p)
    ac = p.a * p.c
    overlap2 = abs(np.vdot(psi, phi)) ** 2
    m = np.array(
        [
            [1.0, ac, ac],
            [ac, 1.0, overlap2],
            [ac, overlap2, 1.0],
        ],
        dtype=complex,
    )
    return m / 3.0


def family_reduced_flipped(p: FlipParams, mu: float = 0.0, nu: float = 0.0) -> np.ndarray:
    """Closed form of the qutrit-side reduction of the flipped family state.

    Under this package's complement convention the off-diagonal a*c entries
    carry a plus sign; conventions whose complement is the negative of ours
    produce the same matrix with both phases shifted by pi, and the spectrum
    is identical either way.
    """
    _, psi, phi = canonical_triple(p)
    ac = p.a * p.c
    phi_psi = np.vdot(phi, psi)
    psi_phi = np.vdot(psi, phi)
    m = np.array(
        [
            [1.0, ac * np.exp(-1j * nu), ac * np.exp(-1j * mu)],
            [ac * np.exp(1j * nu), 1.0, phi_psi**2 * np.exp(1j * (nu - mu))],
            [ac * np.exp(1j * mu), psi_phi**2 * np.exp(1j * (mu - nu)), 1.0],
        ],
        dtype=complex,
    )
    return m / 3.0


LABELS = ("a1", "a2", "a3", "b1", "b2", "b3")
# The four representative pairs as (initial, final) representative indices,
# 0 the principal angle 3t and 1 the mirror 2pi - 3t, and where each pair's
# labels a1..a3, b1..b3 sit among a row's six descending roots, laid out
# [spectrum][rank]: a principal angle's labels are the ranks 0, 2, 1, a
# mirror's the ranks as they stand (see qflip.cubic.labeled_roots_rows).
REP_I = np.array([0, 0, 1, 1])
REP_F = np.array([0, 1, 0, 1])
RANK_OF_LABEL = np.array([[0, 2, 1], [0, 1, 2]])
PAIR_LABELS = np.concatenate([RANK_OF_LABEL[REP_I], 3 + RANK_OF_LABEL[REP_F]], axis=1)


def rank_chain(pair: int, chain) -> tuple:
    """A descending label ``chain`` as representative pair ``pair`` reads it:
    indices into a row's six descending roots."""
    return tuple(PAIR_LABELS[pair, [LABELS.index(x) for x in chain]].tolist())


def division_region_index(angle3):
    """Quadrant index 0..3 of each angle taken mod 2pi, by float division."""
    return (angle3 % (2.0 * pi)) // (pi / 2.0) % 4
