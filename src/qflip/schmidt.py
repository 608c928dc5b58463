"""Schmidt spectra of bipartite pure states and the LOCC conversion verdict.

A deterministic local conversion |Psi> -> |Phi> exists exactly when the
descending Schmidt probability vector of |Psi> is majorized by that of |Phi>
(every leading partial sum bounded).  Pairs where neither direction holds are
*incomparable*; for two-dimensional spectra that never happens, and for
three-dimensional strictly ordered spectra incomparability reduces to a pair
of partial-sum crossing conditions implemented in :func:`incomparable_3dim`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import log2, prod
from typing import Sequence

import numpy as np

from .linalg import DimensionError, hermitian_eigenvalues, partial_trace

EPS_TIE = 1e-12
STATE_NORM_TOL = 1e-12


class SpectrumTieError(ValueError):
    """Raised when a spectrum violates the strict-ordering precondition."""


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


class Verdict(enum.Enum):
    """Four-way LOCC convertibility classification of an (lhs, rhs) pair."""

    FORWARD_CERTAIN = "ForwardCertain"
    BACKWARD_CERTAIN = "BackwardCertain"
    INTERCONVERTIBLE = "Interconvertible"
    INCOMPARABLE = "Incomparable"

    def __str__(self) -> str:
        return self.value


def _descending_probs(values: Sequence[float]) -> np.ndarray:
    v = np.asarray(values, dtype=float).reshape(-1)
    if v.size == 0:
        raise ValueError("empty spectrum")
    return np.sort(v)[::-1]


def _descending_rows(rows: np.ndarray, width: int) -> np.ndarray:
    """Rows sorted descending and zero-padded on the right to ``width``."""
    rows = np.sort(rows, axis=1)[:, ::-1]
    if rows.shape[1] == width:
        return rows
    out = np.zeros((rows.shape[0], width))
    out[:, : rows.shape[1]] = rows
    return out


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


# Four-way verdict indexed by 2 * forward + backward.
VERDICT_BY_CODE = (
    Verdict.INCOMPARABLE,
    Verdict.BACKWARD_CERTAIN,
    Verdict.FORWARD_CERTAIN,
    Verdict.INTERCONVERTIBLE,
)


def verdict_codes(lhs, rhs, eps: float = EPS_TIE) -> np.ndarray:
    """Row-wise four-way verdict as indices into :data:`VERDICT_BY_CODE`.

    ``lhs`` and ``rhs`` are stacks of spectra, shapes (n, k) and (n, m); each
    row is sorted descending and the shorter side zero-padded.  Row ``j`` of
    one side is majorized by row ``j`` of the other when every leading
    partial sum is bounded by the matching partial sum of the other up to
    the tie tolerance ``eps``; forward is lhs majorized by rhs.
    """
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    if lhs.ndim != 2 or rhs.ndim != 2 or lhs.shape[0] != rhs.shape[0] or 0 in lhs.shape[1:] + rhs.shape[1:]:
        raise ValueError(f"expected (n, k) and (n, m) stacks of spectra, got {lhs.shape} and {rhs.shape}")
    width = max(lhs.shape[1], rhs.shape[1])
    sums_l = np.cumsum(_descending_rows(lhs, width), axis=1)
    sums_r = np.cumsum(_descending_rows(rhs, width), axis=1)
    forward = np.all(sums_l <= sums_r + eps, axis=1)
    backward = np.all(sums_r <= sums_l + eps, axis=1)
    return 2 * forward.astype(np.intp) + backward


def majorizes_rows(lo, hi, eps: float = EPS_TIE) -> np.ndarray:
    """Row-wise majorization: entry ``j`` is True when row ``j`` of ``lo`` is
    majorized by row ``j`` of ``hi``, the forward half of :func:`verdict_codes`."""
    return verdict_codes(lo, hi, eps) >= 2


def _row(values) -> np.ndarray:
    return np.asarray(values, dtype=float).reshape(1, -1)


def majorizes(lo, hi, eps: float = EPS_TIE) -> bool:
    """True when ``lo`` is majorized by ``hi`` (lo precedes hi in the order).

    Every leading partial sum of ``lo`` must be bounded by the corresponding
    partial sum of ``hi``, up to the tie tolerance ``eps``; the shorter vector
    is zero-padded.  In conversion terms: a state with spectrum ``lo``
    converts deterministically to one with spectrum ``hi``.  One-row form of
    :func:`majorizes_rows`.
    """
    return bool(majorizes_rows(_row(lo), _row(hi), eps)[0])


def verdict(lhs, rhs, eps: float = EPS_TIE) -> Verdict:
    """Combine both majorization directions into the four-way classification.

    One-row form of :func:`verdict_codes`.
    """
    return VERDICT_BY_CODE[verdict_codes(_row(lhs), _row(rhs), eps)[0]]


def incomparable_3dim(avec, bvec, eps: float = EPS_TIE) -> bool:
    """Closed-form incomparability test for strictly ordered length-3 spectra.

    Returns True when either partial-sum crossing holds:

        a1 > b1 and b1 + b2 > a1 + a2,   or   b1 > a1 and a1 + a2 > b1 + b2,

    or when either six-term interleaving chain holds (a1>b1>b2>a2>a3>b3 or
    its mirror).  All comparisons are strict beyond ``eps``.  Spectra with
    internal ties are rejected: route those through :func:`verdict`.
    """
    a = np.asarray(avec, dtype=float).reshape(-1)
    b = np.asarray(bvec, dtype=float).reshape(-1)
    if a.size != 3 or b.size != 3:
        raise ValueError("both spectra must have exactly 3 entries")
    for v, name in ((a, "first"), (b, "second")):
        if not (v[0] > v[1] + eps and v[1] > v[2] + eps):
            raise SpectrumTieError(
                f"{name} spectrum is not strictly descending beyond {eps:.0e}; "
                "use verdict() for degenerate spectra"
            )

    def gt(x, y):
        return x > y + eps

    crossing_ab = gt(a[0], b[0]) and gt(b[0] + b[1], a[0] + a[1])
    crossing_ba = gt(b[0], a[0]) and gt(a[0] + a[1], b[0] + b[1])
    chain_ab = gt(a[0], b[0]) and gt(b[0], b[1]) and gt(b[1], a[1]) and gt(a[1], a[2]) and gt(a[2], b[2])
    chain_ba = gt(b[0], a[0]) and gt(a[0], a[1]) and gt(a[1], b[1]) and gt(b[1], b[2]) and gt(b[2], a[2])
    return crossing_ab or crossing_ba or chain_ab or chain_ba


def entanglement_entropy(probs) -> float:
    """Shannon entropy of a Schmidt probability vector, in bits."""
    p = _descending_probs(probs)
    if np.any(p < -1e-10) or abs(p.sum() - 1.0) > 1e-10:
        raise ValueError("spectrum is not a probability vector")
    return float(-sum(x * log2(x) for x in p if x > 0.0))
