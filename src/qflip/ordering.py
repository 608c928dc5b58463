"""Interleaving patterns of the initial and flipped eigenvalue triples.

Because the two cubics share A and differ only through B > Bprime, the sorted
spectra always interleave the same way; what varies is how the *printed root
labels* a1..a3 / b1..b3 arrange, and that depends on which representative
angle (principal 3t in [0, pi] or mirror 2pi - 3t) carries each spectrum.
The atlas below records the expected label chain per region pair of
(3t_initial, 3t_final), with regions the four quadrant intervals of [0, 2pi)
taken half-open.  :func:`check_atlas` verifies many spectrum pairs at once
against the atlas under every valid representative combination; any mismatch
raises instead of being glossed over, since it would mean the table (or this
implementation) is wrong.  :func:`pattern_labels` names each checked pair by
its principal region pair and chain, for a sweep and a single point alike;
a sweep counts the pairs by their region codes (:func:`pattern_codes`).
"""

from __future__ import annotations

from math import pi

import numpy as np

REGION_BOUNDS = {
    "Q1": "[0, pi/2)",
    "Q2": "[pi/2, pi)",
    "Q3": "[pi, 3pi/2)",
    "Q4": "[3pi/2, 2pi)",
}

_CHAIN_PP = ("a1", "b1", "b3", "a3", "a2", "b2")
_CHAIN_MM = ("a1", "b1", "b2", "a2", "a3", "b3")
_CHAIN_PM = ("a1", "b1", "b2", "a3", "a2", "b3")
_CHAIN_MP = ("a1", "b1", "b3", "a2", "a3", "b2")

# Region pair of (3t_initial, 3t_final) -> expected descending label chain.
# The left column only ever holds Q2/Q3 because B > 0 for every valid family
# point; Q1/Q4 on the right correspond to Bprime < 0.
PATTERN_ATLAS = {
    ("Q2", "Q2"): _CHAIN_PP,
    ("Q3", "Q3"): _CHAIN_MM,
    ("Q2", "Q3"): _CHAIN_PM,
    ("Q3", "Q2"): _CHAIN_MP,
    ("Q2", "Q1"): _CHAIN_PP,
    ("Q2", "Q4"): _CHAIN_PM,
    ("Q3", "Q1"): _CHAIN_MP,
    ("Q3", "Q4"): _CHAIN_MM,
}

CHAIN_TIE_TOL = 1e-12
DEGENERACY_GAP_TOL = 1e-10


class OrderingMismatchError(RuntimeError):
    """Observed root ordering contradicts the atlas; never ignore this."""


_REGION_NAMES = tuple(REGION_BOUNDS)
_LABELS = ("a1", "a2", "a3", "b1", "b2", "b3")


def _region_index(angle3):
    """Quadrant index 0..3 of each angle taken mod 2pi, half-open on the right."""
    return (angle3 % (2.0 * pi)) // (pi / 2.0) % 4


# The four representative pairs of a row, as (initial, final) representative
# indices: principal/principal, principal/mirror, mirror/principal, mirror/mirror.
_REP_I = np.array([0, 0, 1, 1])
_REP_F = np.array([0, 1, 0, 1])
_PAIRS = np.arange(4)
# The rank in a spectrum's descending roots of each printed label, per
# representative: a principal angle (3t <= pi) puts the cos(t) root last, so
# its labels 0, 1, 2 are the ranks 0, 2, 1; the mirror's labels are the ranks
# as they stand (see :func:`qflip.cubic.labeled_roots_rows`).
_RANK_OF_LABEL = np.array([[0, 2, 1], [0, 1, 2]])
# Where each pair's labels a1..a3, b1..b3 sit among a row's six descending
# roots, laid out as [spectrum][rank].
_PAIR_LABELS = np.concatenate([_RANK_OF_LABEL[_REP_I], 3 + _RANK_OF_LABEL[_REP_F]], axis=1)


def _atlas_tables(atlas: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An atlas as arrays: a 4x4 table from region indices to an entry number
    (-1 where the atlas has no entry), per representative pair and entry the
    chain as indices into a row's six descending roots, and the label
    ``pattern_id:chain`` of each region code 4 * initial + final (code 16,
    for rows :func:`check_atlas` skipped, and codes without an entry hold
    None)."""
    table = np.full((4, 4), -1, dtype=np.intp)
    chains = np.empty((len(atlas), 6), dtype=np.intp)
    labels = np.full(17, None, dtype=object)
    for k, ((ri, rf), chain) in enumerate(atlas.items()):
        i, f = _REGION_NAMES.index(ri), _REGION_NAMES.index(rf)
        table[i, f] = k
        chains[k] = [_LABELS.index(x) for x in chain]
        labels[4 * i + f] = f"{ri}{rf}:{'>'.join(chain)}"
    # gather[pair, entry, j] = _PAIR_LABELS[pair, chains[entry, j]]
    return table, _PAIR_LABELS[:, chains], labels


# The tables of PATTERN_ATLAS, which check_atlas and pattern_labels read.
_ATLAS_TABLES = _atlas_tables(PATTERN_ATLAS)


def check_atlas(
    roots,
    b_val,
    bprime_val,
    theta_i,
    theta_f,
    live=False,
    tie_tol: float | np.ndarray = CHAIN_TIE_TOL,
) -> np.ndarray:
    """Verify the labeled-root ordering of many spectrum pairs against the atlas.

    Takes what :func:`qflip.kernels.grid_eval` holds for each row: the
    descending closed-form ``roots`` (n, 2, 3) of the initial and final
    cubics, the two B values and the cubics' principal third-angles.  For
    every row, each representative angle 3t (principal) and 2pi - 3t
    (mirror) of each spectrum is placed in its quadrant, and all four
    representative pairs are checked in one stacked pass: the pair must have
    an atlas entry and its six labeled roots must descend along its chain
    within ``tie_tol``, a scalar or one value per row.  The labeled roots are
    read from ``roots``: for the principal t the descending roots are the
    labels in order (0, 2, 1), and the mirror's labels are the roots as they
    stand.

    Returns an integer array of shape (n, 2, 2) holding the quadrant index
    (0..3 for Q1..Q4) of [spectrum][representative], spectrum 0 initial and
    1 final, representative 0 principal and 1 mirror.  Every row that
    ``live`` marks (a mask, or one bool for all rows) is checked; any other
    row whose B and Bprime agree within ``DEGENERACY_GAP_TOL`` has no
    ordering to classify: its angles read as 0, its failures are masked and
    its regions hold -1.  Raises
    :class:`OrderingMismatchError` when any checked row has a non-finite
    angle or deviates from the atlas.
    """
    roots = np.asarray(roots, dtype=float).reshape(-1, 6)  # (row, [spectrum][rank])
    gap = np.abs(np.asarray(b_val, dtype=float) - bprime_val).reshape(-1)
    checked = (np.asarray(live) | (gap > DEGENERACY_GAP_TOL))[:, None]  # (row, 1)
    n = roots.shape[0]
    reps = np.zeros((n, 2, 2))  # (row, spectrum, representative)
    angle3 = np.array([theta_i, theta_f], dtype=float).reshape(2, -1).T
    np.multiply(3.0, angle3, out=reps[..., 0], where=checked)
    if not np.isfinite(reps).all():  # unchecked rows and the mirrors hold 0 here
        row = int(np.argmin(np.isfinite(reps).all(axis=(1, 2))))
        ti, tf = angle3[row].tolist()
        raise OrderingMismatchError(f"row {row} has a non-finite angle: theta_i={ti!r}, theta_f={tf!r}")
    reps[..., 1] = (2.0 * pi - reps[..., 0]) % (2.0 * pi)
    regions = _region_index(reps).astype(np.intp)

    table, gather, labels = _ATLAS_TABLES
    entry = table[regions[:, 0, _REP_I], regions[:, 1, _REP_F]]  # (row, pair)
    missing = entry < 0
    # each pair's six roots in the order of its atlas chain: (row, pair, 6); a
    # pair with no entry (-1) gathers the last chain and fails as missing
    ordered = roots[np.arange(n)[:, None, None], gather[_PAIRS, entry]]
    tie_tol = np.reshape(tie_tol, (-1, 1, 1))  # one value for all rows, or one per row
    fails = (missing | ~(ordered[..., :-1] >= ordered[..., 1:] - tie_tol).all(axis=-1)) & checked
    if fails.any():
        missing &= checked
        row, k = np.argwhere(missing if missing.any() else fails)[0]
        i, f = regions[row, 0, _REP_I[k]], regions[row, 1, _REP_F[k]]
        pair = _REGION_NAMES[i], _REGION_NAMES[f]
        if missing[row, k]:
            raise OrderingMismatchError(f"region pair {pair} has no atlas entry")
        observed = dict(zip(_LABELS, roots[row, _PAIR_LABELS[k]].tolist()))
        raise OrderingMismatchError(
            f"ordering for region pair {pair} deviates from the atlas chain "
            f"{labels[4 * i + f].partition(':')[2]}: {observed}"
        )
    return np.where(checked[..., None], regions, -1)


def pattern_codes(regions: np.ndarray) -> np.ndarray:
    """Region code 4 * initial + final of each row's principal region pair, as
    returned by :func:`check_atlas`; 16 for rows it did not check.
    ``code_labels()[code]`` names a code."""
    principal_i, principal_f = regions[:, 0, 0], regions[:, 1, 0]
    return np.where(principal_i < 0, 16, 4 * principal_i + principal_f)


def code_labels() -> np.ndarray:
    """Label ``pattern_id:chain`` of each of the 17 region codes; None for
    code 16 and for codes without an atlas entry."""
    return _ATLAS_TABLES[2]


def pattern_labels(regions: np.ndarray) -> np.ndarray:
    """Label ``pattern_id:chain`` of each row's principal region pair, as
    returned by :func:`check_atlas`; None for rows it did not check."""
    return code_labels()[pattern_codes(regions)]
