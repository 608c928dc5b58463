"""The flip experiments and the certificate of a family point.

Each experiment pits an initial qutrit-times-two-qubit state against the state
a hypothetical exact flipping device would produce from it, then compares the
two local spectra under the majorization criterion.  A deterministic local
conversion between the two would have to exist if the device did; the spectra
come out incomparable instead, except exactly on great-circle (degenerate)
parameter sets.

Neither state is ever built in full: every local spectrum comes from the Gram
matrix of Bob's blocks.  A sweep and a single family point are certified
alike, by :func:`certify_rows` on :func:`qflip.kernels.grid_eval` rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt
from typing import Callable

import numpy as np

from . import kernels
from .bloch import FlipParams, density_to_bloch, flip, qubit_to_bloch, random_qubit
from .cubic import root_gaps_rows
from .ordering import check_atlas, pattern_labels
from .schmidt import VERDICT_BY_CODE, Verdict, verdict

SPECTRUM_AGREEMENT_TOL = 1e-9
# Bound on a numeric eigenvalue gap's error: eigvalsh is backward stable, so an
# eigenvalue of a density matrix (norm <= 1) is off by a few ulps; 1e-14 is 45.
EIGENSOLVER_TOL = 1e-14
# Smallest margin whose live points the numeric route can confirm: an outer
# gap is at least 4 m^2 / (27 A) with A <= 1, and at 2 tau it still clears
# tau after a numeric error of up to tau.
MIN_MARGIN = sqrt(27.0 * EIGENSOLVER_TOL / 2.0)
DEFAULT_DEGENERACY_MARGIN = 1e-6
DEFAULT_FLIPPER_SEED = 7

# Probability weights of the flipper experiment's two states.
FLIPPER_WEIGHTS_INITIAL = (0.51, 0.30, 0.19)
FLIPPER_WEIGHTS_FINAL = (0.49, 0.36, 0.15)
# Exact axes-case spectra: (2/3, 1/6, 1/6) against (1/3 +- 1/(2 sqrt 3)).
AXES_LAMBDA_INITIAL = (2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0)
AXES_LAMBDA_FINAL = (
    1.0 / 3.0 + 0.5 / sqrt(3.0),
    1.0 / 3.0,
    1.0 / 3.0 - 0.5 / sqrt(3.0),
)

# The x/y/z axis states are the family's canonical triple at these parameters.
AXES_PARAMS = FlipParams(a=1.0 / sqrt(2.0), c=1.0 / sqrt(2.0), theta=pi / 2.0)


class VerificationError(RuntimeError):
    """An experiment's built-in assertion failed."""


def check_margin(margin: float) -> None:
    """Reject a degeneracy margin outside [MIN_MARGIN, 1), NaN included."""
    if not MIN_MARGIN <= margin < 1.0:
        raise ValueError(f"margin must lie in [{MIN_MARGIN:.2g}, 1), got {margin}")


def route_tolerance(coeff_a, b_vals):
    """Cross-route agreement tolerance, widened near repeated-root boundaries.

    ``SPECTRUM_AGREEMENT_TOL`` applies away from the boundaries.  Where some
    |B| lies within a relative 1e-9 of the repeated-root boundary 2 A^{3/2},
    the closed-form roots split a near-double pair only to O(sqrt(eps)), so
    the routes may differ by up to ~4 sqrt(A * eps) there.  Elementwise on
    arrays of A, each with its B values on the last axis of ``b_vals``.
    """
    edge = (2.0 * coeff_a * np.sqrt(coeff_a))[..., None]
    widened = 4.0 * np.sqrt(coeff_a * 1e-15)
    near = (np.abs(edge - np.abs(b_vals)) < 1e-9 * edge).any(axis=-1)
    return np.where(near & (widened > SPECTRUM_AGREEMENT_TOL), widened, SPECTRUM_AGREEMENT_TOL)


@dataclass(frozen=True)
class FlipExperimentResult:
    """Full record of one certified family point; ``ordering`` is its
    :func:`qflip.ordering.pattern_labels` label, None where it has none."""

    params: FlipParams
    coeff_a: float
    coeff_b: float
    coeff_bprime: float
    numeric_initial: np.ndarray
    numeric_final: np.ndarray
    max_err: float
    verdict: Verdict
    ordering: str | None
    degenerate: bool


def _first_failure(rows: dict, failed, what: str, detail: Callable[[int], str]) -> None:
    """Raise :class:`VerificationError` if any row ``failed``, naming the count and the first."""
    if failed.any():
        j = int(np.argmax(failed))
        where = ", ".join(f"{key}={float(rows[key][j])!r}" for key in ("a", "c", "theta"))
        raise VerificationError(f"{what} at {int(failed.sum())} points, first at {where}{detail(j)}")


_GAP_SIGNS = np.array([1.0, -1.0, 1.0])  # of lam_k - lam_k' along the chain, k = 1, 2, 3
_INCOMPARABLE, _INTERCONVERTIBLE = (VERDICT_BY_CODE.index(v) for v in (Verdict.INCOMPARABLE, Verdict.INTERCONVERTIBLE))


def certify_rows(rows: dict, live) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certify rows of :func:`qflip.kernels.grid_eval` output, the family's one certificate.

    Each row's two routes must agree within :func:`route_tolerance` (NaN
    counts as a disagreement) and its closed-form roots must descend, with
    no tolerance.  A row that ``live`` marks (a mask, or one bool for all
    rows) must be Incomparable by signs: its gaps lam_k - lam_k' must read
    (+, -, +) in closed form (:func:`qflip.cubic.root_gaps_rows`) and in the
    numeric spectra beyond ``EIGENSOLVER_TOL``.  With equal totals the outer
    signs are the whole chain alpha1 > beta1 >= beta2 > alpha2 >= alpha3 >
    beta3.  A failure raises :class:`VerificationError` (or, from
    :func:`check_atlas`, :class:`OrderingMismatchError`) naming the first
    failing point.  Returns the per-row error, the verdict codes (the closed
    form's: Interconvertible where the float m is 0, else Incomparable,
    unconfirmed on a row that is not live) and the atlas regions.
    """
    max_err = np.abs(rows["roots"] - rows["spectra"]).max(axis=(1, 2))
    disagree = ~(max_err <= route_tolerance(rows["A"], rows["B_pair"]))
    _first_failure(rows, disagree, f"analytic and numeric spectra disagree beyond {SPECTRUM_AGREEMENT_TOL:g}",
                   lambda j: f" (error {max_err[j]:.3e})")
    roots = rows["roots"]
    ascending = (roots[..., 1:] > roots[..., :-1]).any(axis=(1, 2))
    _first_failure(rows, ascending, "closed-form roots do not descend", lambda j: f": {roots[j].tolist()}")
    gaps = root_gaps_rows(rows["A"], rows["m"], roots)
    numeric = rows["spectra"][:, 0] - rows["spectra"][:, 1]
    signed = ((gaps * _GAP_SIGNS > 0.0) & (numeric * _GAP_SIGNS > EIGENSOLVER_TOL)).all(axis=1)
    _first_failure(rows, live & ~signed, "Incomparable not certified",
                   lambda j: f": gaps lam - lam' {gaps[j].tolist()} closed-form, {numeric[j].tolist()} numeric, "
                   f"not (+, -, +) beyond {EIGENSOLVER_TOL:g}")
    codes = np.where(rows["m"] == 0.0, _INTERCONVERTIBLE, _INCOMPARABLE)
    return max_err, codes, check_atlas(rows["theta_i"], rows["theta_f"])


def general_flip_experiment(
    p: FlipParams,
    mu: float = 0.0,
    nu: float = 0.0,
    margin: float = DEFAULT_DEGENERACY_MARGIN,
) -> FlipExperimentResult:
    """Evaluate one family point along both routes and classify the pair.

    A one-row :func:`qflip.kernels.grid_eval` and :func:`certify_rows`, the
    sweep's own route, so a sweep row and a single point carry the same
    values to the bit.  A point whose measure m has |m| <= ``margin`` is
    degenerate: no ordering, no incomparability assertion, and the closed
    form's verdict (Incomparable unless m = 0).  Elsewhere Incomparable must
    be certified, or :class:`VerificationError` is raised.  A margin outside
    [``MIN_MARGIN``, 1) raises :class:`ValueError`.
    """
    check_margin(margin)
    rows = kernels.grid_eval([p.a], [p.c], [p.theta], mu, nu)
    degenerate = bool(abs(rows["m"][0]) <= margin)
    max_err, codes, regions = certify_rows(rows, live=not degenerate)

    return FlipExperimentResult(
        params=p,
        coeff_a=float(rows["A"][0]),
        coeff_b=float(rows["B"][0]),
        coeff_bprime=float(rows["Bprime"][0]),
        numeric_initial=rows["num_alpha"][0],
        numeric_final=rows["num_beta"][0],
        max_err=float(max_err[0]),
        verdict=VERDICT_BY_CODE[codes[0]],
        ordering=None if degenerate else pattern_labels(regions)[0],
        degenerate=degenerate,
    )


def axes_experiment(chi: float = 0.0, eta: float = 0.0) -> FlipExperimentResult:
    """The paper's x/y/z example: the family point ``AXES_PARAMS`` with the
    phases (chi, eta) in the roles of (nu, mu).

    Certified like any family point by :func:`general_flip_experiment`; the
    numeric spectra must also match the exact ``AXES_LAMBDA_INITIAL`` and
    ``AXES_LAMBDA_FINAL`` within 1e-12, or :class:`VerificationError` is
    raised.
    """
    result = general_flip_experiment(AXES_PARAMS, mu=eta, nu=chi)
    dev = max(
        np.max(np.abs(result.numeric_initial - np.array(AXES_LAMBDA_INITIAL))),
        np.max(np.abs(result.numeric_final - np.array(AXES_LAMBDA_FINAL))),
    )
    if not dev <= 1e-12:
        raise VerificationError(f"axes spectra deviate from their exact values by {dev:.3e}")
    return result


@dataclass(frozen=True)
class FlipperExperimentResult:
    direction: np.ndarray
    bloch_initial: np.ndarray
    bloch_final: np.ndarray
    lambda_initial: np.ndarray
    lambda_final: np.ndarray
    max_err: float
    verdict: Verdict


def flipper_reductions(psi, weights) -> tuple[np.ndarray, np.ndarray]:
    """Qutrit spectrum and Bob's first-qubit density matrix of one flipper state.

    The state is sum_j sqrt(w_j) |j>|L_j>, with ``weights`` w_j and Bob's
    three orthogonal levels L_j = |psi psi>, |psibar psi>, |psibar psibar> on
    his two qubits, so that his first qubit holds a mixture of |psi> and
    |psibar>.  Both reductions come from Bob's blocks B_j = sqrt(w_j) L_j,
    held as a (level, qubit 1, qubit 2) array, without the composite state:
    the qutrit side is the Gram matrix G[j, k] = sum_{p,r} B[j,p,r]
    conj(B[k,p,r]), whose spectrum is eigvalsh((G + G^dagger)/2), descending,
    and Bob's first qubit is rho[p, q] = sum_{j,r} B[j,p,r] conj(B[j,q,r]).
    Each sum runs over r first, the order of a partial trace.
    """
    psi = np.asarray(psi, dtype=complex)
    psi_bar = flip(psi)
    levels = np.array([psi, psi_bar, psi_bar])[:, :, None] * np.array([psi, psi, psi_bar])[:, None, :]
    blocks = np.sqrt(np.asarray(weights, dtype=float))[:, None, None] * levels
    # products on axes (j, k, p, r) and (j, p, q, r), summed over r first as a
    # partial trace sums, so both reductions carry the composite state's bytes
    gram = (blocks[:, None] * blocks[None].conj()).sum(axis=3).sum(axis=2)
    rho = (blocks[:, :, None] * blocks[:, None].conj()).sum(axis=3).sum(axis=0)
    return np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)[::-1], rho


def flipper_experiment(seed: int = DEFAULT_FLIPPER_SEED) -> FlipperExperimentResult:
    """Run the flipper experiment for a seeded random qubit.

    Asserts that Bob's local qubit carries +0.02 times the qubit's Bloch
    vector in the initial state and -0.02 times it in the final one, and that
    the pair is incomparable: converting one state to the other would reverse
    an arbitrary spin direction.  Both states go through
    :func:`flipper_reductions`, with ``FLIPPER_WEIGHTS_INITIAL`` and
    ``FLIPPER_WEIGHTS_FINAL``.
    """
    rng = np.random.default_rng(seed)
    psi = random_qubit(rng)
    direction = qubit_to_bloch(psi)
    lam_i, rho_i = flipper_reductions(psi, FLIPPER_WEIGHTS_INITIAL)
    lam_f, rho_f = flipper_reductions(psi, FLIPPER_WEIGHTS_FINAL)

    bloch_i = density_to_bloch(rho_i)
    bloch_f = density_to_bloch(rho_f)
    dev = max(
        np.max(np.abs(bloch_i - 0.02 * direction)),
        np.max(np.abs(bloch_f + 0.02 * direction)),
    )
    if dev > 1e-12:
        raise VerificationError(f"local Bloch vectors deviate from +-0.02 by {dev:.3e}")

    max_err = float(
        max(
            np.max(np.abs(lam_i - np.array(FLIPPER_WEIGHTS_INITIAL))),
            np.max(np.abs(lam_f - np.array(FLIPPER_WEIGHTS_FINAL))),
        )
    )
    v = verdict(lam_i, lam_f)
    if v is not Verdict.INCOMPARABLE:
        raise VerificationError(f"flipper experiment expected Incomparable, got {v}")
    return FlipperExperimentResult(
        direction=direction,
        bloch_initial=bloch_i,
        bloch_final=bloch_f,
        lambda_initial=lam_i,
        lambda_final=lam_f,
        max_err=max_err,
        verdict=v,
    )
