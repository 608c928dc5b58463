"""Builders for the shared states of the flip experiments, and the experiments.

Each experiment pits an initial qutrit-times-two-qubit state against the state
a hypothetical exact flipping device would produce from it, then compares the
two local spectra under the majorization criterion.  A deterministic local
conversion between the two would have to exist if the device did; the spectra
come out incomparable instead, except exactly on great-circle (degenerate)
parameter sets.

A sweep and a single family point are certified alike, by :func:`certify_rows`
on :func:`qflip.kernels.grid_eval` rows; the family's ``kron`` state builders
are the independent oracle that tests hold that Gram route against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from . import kernels
from .bloch import (
    FlipParams,
    canonical_triple,
    density_to_bloch,
    flip,
    qubit_to_bloch,
    random_qubit,
)
from .linalg import DimensionError, kron, partial_trace
from .ordering import CHAIN_TIE_TOL, check_atlas, pattern_labels
from .schmidt import VERDICT_BY_CODE, PureState, Verdict, schmidt_decompose, verdict, verdict_codes

SPECTRUM_AGREEMENT_TOL = 1e-9
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

_QUTRIT_BASIS = tuple(np.eye(3, dtype=complex)[j] for j in range(3))


class VerificationError(RuntimeError):
    """An experiment's built-in assertion failed."""


def check_margin(margin: float) -> None:
    """Reject a degeneracy margin outside (0, 1), NaN included."""
    if not 0.0 < margin < 1.0:
        raise ValueError(f"margin must lie in (0, 1), got {margin}")


def route_tolerance(coeff_a, *b_vals, base: float | np.ndarray | None = None):
    """Cross-route agreement tolerance, widened near repeated-root boundaries.

    ``base`` (default ``SPECTRUM_AGREEMENT_TOL``) applies away from the
    boundaries.  Where some |B| lies within a relative 1e-9 of the
    repeated-root boundary 2 A^{3/2}, the closed-form roots split a
    near-double pair only to O(sqrt(eps)) while the eigensolver stays fully
    accurate, so the two routes legitimately differ by up to ~4 sqrt(A * eps)
    there.  Works elementwise on arrays of A and B values.
    """
    if base is None:
        base = SPECTRUM_AGREEMENT_TOL
    edge = 2.0 * coeff_a * np.sqrt(coeff_a)
    widened = 4.0 * np.sqrt(coeff_a * 1e-15)
    near = False
    for b_val in b_vals:
        near = near | (np.abs(edge - np.abs(b_val)) < 1e-9 * edge)
    return np.where(near & (widened > base), widened, base)


def _qutrit_sum(blocks: list[np.ndarray], phases: list[complex]) -> PureState:
    amps = sum(g * kron(e, blk) for e, blk, g in zip(_QUTRIT_BASIS, blocks, phases))
    return PureState(amps / sqrt(3.0), (3, 2, 2))


def build_flipper_pair(psi) -> tuple[PureState, PureState]:
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

    return assemble(FLIPPER_WEIGHTS_INITIAL), assemble(FLIPPER_WEIGHTS_FINAL)


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


@dataclass(frozen=True)
class FlipExperimentResult:
    """Full record of one certified family point; ``ordering`` is its
    :func:`qflip.ordering.pattern_labels` label, None where it has none."""

    params: FlipParams
    mu: float
    nu: float
    coeff_a: float
    coeff_b: float
    coeff_bprime: float
    numeric_initial: np.ndarray
    numeric_final: np.ndarray
    max_err: float
    verdict: Verdict
    ordering: str | None
    degenerate: bool


def _where(rows: dict, j: int) -> str:
    return ", ".join(f"{key}={float(rows[key][j])!r}" for key in ("a", "c", "theta"))


def certify_rows(rows: dict, live) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certify rows of :func:`qflip.kernels.grid_eval` output, the family's one certificate.

    Each row's two routes must agree within the route tolerance built on
    ``SPECTRUM_AGREEMENT_TOL`` (NaN counts as a disagreement), each row that
    ``live`` marks (a mask, or one bool for all rows) must be Incomparable,
    and each ordering must match the atlas within the route tolerance built
    on ``CHAIN_TIE_TOL``.  A failure raises :class:`VerificationError` (or
    :class:`OrderingMismatchError`) naming the first failing point.  Returns
    the per-row error, verdict codes and :func:`check_atlas` regions.
    """
    max_err = np.maximum(
        np.max(np.abs(rows["alpha"] - rows["num_alpha"]), axis=1),
        np.max(np.abs(rows["beta"] - rows["num_beta"]), axis=1),
    )
    # the route gate's tolerance and the atlas check's tie tolerance, in one call
    route_tol, tie_tol = route_tolerance(
        rows["A"][:, None], rows["B"][:, None], rows["Bprime"][:, None],
        base=np.array([SPECTRUM_AGREEMENT_TOL, CHAIN_TIE_TOL]),
    ).T
    disagree = ~(max_err <= route_tol)
    if disagree.any():
        j = int(np.argmax(disagree))
        raise VerificationError(
            f"analytic and numeric spectra disagree beyond {SPECTRUM_AGREEMENT_TOL:g} at "
            f"{int(disagree.sum())} points, first at {_where(rows, j)} (error {max_err[j]:.3e})"
        )
    codes = verdict_codes(rows["num_alpha"], rows["num_beta"])
    comparable = live & (codes != VERDICT_BY_CODE.index(Verdict.INCOMPARABLE))
    if comparable.any():
        j = int(np.argmax(comparable))
        raise VerificationError(
            f"{int(comparable.sum())} non-incomparable verdicts, "
            f"first {VERDICT_BY_CODE[codes[j]]} at {_where(rows, j)}"
        )
    regions = check_atlas(rows["A"], rows["B"], rows["Bprime"], rows["theta_i"], rows["theta_f"], tie_tol=tie_tol)
    return max_err, codes, regions


def general_flip_experiment(
    p: FlipParams,
    mu: float = 0.0,
    nu: float = 0.0,
    margin: float = DEFAULT_DEGENERACY_MARGIN,
) -> FlipExperimentResult:
    """Evaluate one family point along both routes and classify the pair.

    A one-row :func:`qflip.kernels.grid_eval` and :func:`certify_rows`, the
    sweep's own route, so a sweep row and a single point carry the same
    values to the bit: the analytic route solves the two characteristic
    cubics in closed form, the numeric route eigensolves the 3x3 Gram
    matrices of Bob's blocks.  Points with |a b c d sin theta| <= ``margin``
    are reported as degenerate (no ordering, no incomparability assertion);
    everywhere else the verdict must come out Incomparable, anything less
    raises :class:`VerificationError`.  A margin outside (0, 1) raises
    :class:`ValueError`.
    """
    check_margin(margin)
    degenerate = abs(p.degeneracy) <= margin
    rows = kernels.grid_eval([p.a], [p.c], [p.theta], mu, nu)
    max_err, codes, regions = certify_rows(rows, live=not degenerate)

    return FlipExperimentResult(
        params=p,
        mu=mu,
        nu=nu,
        coeff_a=float(rows["A"][0]),
        coeff_b=float(rows["B"][0]),
        coeff_bprime=float(rows["Bprime"][0]),
        numeric_initial=rows["num_alpha"][0],
        numeric_final=rows["num_beta"][0],
        max_err=float(max_err[0]),
        verdict=VERDICT_BY_CODE[codes[0]],
        # None also for a row check_atlas skipped (B and Bprime too close)
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
    seed: int
    psi: np.ndarray
    direction: np.ndarray
    bloch_initial: np.ndarray
    bloch_final: np.ndarray
    lambda_initial: np.ndarray
    lambda_final: np.ndarray
    max_err: float
    verdict: Verdict


def flipper_experiment(seed: int = DEFAULT_FLIPPER_SEED) -> FlipperExperimentResult:
    """Run the flipper experiment for a seeded random qubit.

    Asserts that Bob's local qubit carries +0.02 times the qubit's Bloch
    vector in the initial state and -0.02 times it in the final one, and that
    the pair is incomparable: converting one state to the other would reverse
    an arbitrary spin direction.
    """
    rng = np.random.default_rng(seed)
    psi = random_qubit(rng)
    direction = qubit_to_bloch(psi)
    state_i, state_f = build_flipper_pair(psi)

    bloch_i = density_to_bloch(bob_qubit_reduction(state_i))
    bloch_f = density_to_bloch(bob_qubit_reduction(state_f))
    dev = max(
        np.max(np.abs(bloch_i - 0.02 * direction)),
        np.max(np.abs(bloch_f + 0.02 * direction)),
    )
    if dev > 1e-12:
        raise VerificationError(f"local Bloch vectors deviate from +-0.02 by {dev:.3e}")

    lam_i = schmidt_decompose(state_i, cut=[0])
    lam_f = schmidt_decompose(state_f, cut=[0])
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
        seed=seed,
        psi=psi,
        direction=direction,
        bloch_initial=bloch_i,
        bloch_final=bloch_f,
        lambda_initial=lam_i,
        lambda_final=lam_f,
        max_err=max_err,
        verdict=v,
    )
