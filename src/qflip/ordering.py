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
its principal region pair and chain, for a sweep and a single point alike.
"""

from __future__ import annotations

from functools import lru_cache
from math import pi

import numpy as np

from .cubic import labeled_roots_rows

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

ALL_PATTERN_IDS = tuple(f"{ri}{rf}" for ri, rf in PATTERN_ATLAS)

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
# Where each pair's labels a1..a3, b1..b3 sit among a row's twelve labeled
# roots, laid out as [spectrum][representative][label].
_PAIR_LABELS = np.concatenate([3 * _REP_I[:, None] + np.arange(3), 6 + 3 * _REP_F[:, None] + np.arange(3)], axis=1)


@lru_cache(maxsize=8)
def _atlas_tables(atlas: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The atlas items as arrays: a 4x4 table from region indices to an entry
    number (-1 where the atlas has no entry), per representative pair and
    entry the chain as indices into a row's twelve labeled roots, and the
    label ``pattern_id:chain`` of each region code 4 * initial + final (code
    16, for rows :func:`check_atlas` skipped, and codes without an entry hold
    None).  Keyed by the items, so the check and the labels always follow the
    current contents of :data:`PATTERN_ATLAS`."""
    table = np.full((4, 4), -1, dtype=np.intp)
    chains = np.empty((len(atlas), 6), dtype=np.intp)
    labels = np.full(17, None, dtype=object)
    for k, ((ri, rf), chain) in enumerate(atlas):
        i, f = _REGION_NAMES.index(ri), _REGION_NAMES.index(rf)
        table[i, f] = k
        chains[k] = [_LABELS.index(x) for x in chain]
        labels[4 * i + f] = f"{ri}{rf}:{'>'.join(chain)}"
    # gather[pair, entry, j] = _PAIR_LABELS[pair, chains[entry, j]]
    return table, _PAIR_LABELS[:, chains], labels


def check_atlas(
    a_coeff,
    b_val,
    bprime_val,
    theta_i,
    theta_f,
    gap_tol: float = DEGENERACY_GAP_TOL,
    tie_tol: float | np.ndarray = CHAIN_TIE_TOL,
) -> np.ndarray:
    """Verify the labeled-root ordering of many spectrum pairs against the atlas.

    Takes per-row arrays (or scalars, for one row) of the shared coefficient
    A, the two B values and the principal third-angles of the initial and
    final cubics.  For every row, each representative angle 3t (principal)
    and 2pi - 3t (mirror) of each spectrum is placed in its quadrant, and all
    four representative pairs are checked in one stacked pass: the pair must
    have an atlas entry and the six labeled roots must descend along its
    chain within ``tie_tol``, a scalar or one value per row.

    Returns an integer array of shape (n, 2, 2) holding the quadrant index
    (0..3 for Q1..Q4) of [spectrum][representative], spectrum 0 initial and
    1 final, representative 0 principal and 1 mirror.  Rows whose B and
    Bprime agree within ``gap_tol`` have no ordering to classify; they are
    not checked and hold -1.  Raises :class:`OrderingMismatchError` when any
    checked row deviates from the atlas.
    """
    a_coeff = np.asarray(a_coeff, dtype=float).reshape(-1)
    live = np.abs(np.asarray(b_val, dtype=float) - bprime_val).reshape(-1) > gap_tol
    regions = np.full((a_coeff.size, 2, 2), -1, dtype=np.intp)
    angle3 = 3.0 * np.array([theta_i, theta_f], dtype=float).reshape(2, -1).T[live]
    m = angle3.shape[0]
    if m == 0:
        return regions
    reps = np.empty((m, 2, 2))  # (row, spectrum, representative)
    reps[..., 0] = angle3
    reps[..., 1] = (2.0 * pi - angle3) % (2.0 * pi)
    live_regions = _region_index(reps).astype(np.intp)
    regions[live] = live_regions

    # labeled roots of every representative, flattened to (row, 12)
    roots = labeled_roots_rows(a_coeff[live][:, None, None], reps / 3.0).reshape(m, 12)

    def region_pair(row, k):
        return _REGION_NAMES[live_regions[row, 0, _REP_I[k]]], _REGION_NAMES[live_regions[row, 1, _REP_F[k]]]

    table, gather, _ = _atlas_tables(tuple(PATTERN_ATLAS.items()))
    entry = table[live_regions[:, 0, _REP_I], live_regions[:, 1, _REP_F]]  # (row, pair)
    missing = entry < 0
    if missing.any():
        pair = region_pair(*np.argwhere(missing)[0])
        raise OrderingMismatchError(f"region pair {pair} has no atlas entry")
    # each pair's six roots in the order of its atlas chain: (row, pair, 6)
    ordered = roots[np.arange(m)[:, None, None], gather[np.arange(4), entry]]
    tie_tol = np.asarray(tie_tol, dtype=float)
    if tie_tol.ndim:
        tie_tol = tie_tol.reshape(-1)[live, None, None]
    holds = (ordered[..., :-1] >= ordered[..., 1:] - tie_tol).all(axis=-1)
    if not holds.all():
        row, k = np.argwhere(~holds)[0]
        pair = region_pair(row, k)
        observed = dict(zip(_LABELS, roots[row, _PAIR_LABELS[k]].tolist()))
        raise OrderingMismatchError(
            f"ordering for region pair {pair} deviates from the atlas chain "
            f"{'>'.join(PATTERN_ATLAS[pair])}: {observed}"
        )
    return regions


def pattern_labels(regions: np.ndarray) -> np.ndarray:
    """Label ``pattern_id:chain`` of each row's principal region pair, as
    returned by :func:`check_atlas`; None for rows it did not check."""
    labels = _atlas_tables(tuple(PATTERN_ATLAS.items()))[2]
    principal_i, principal_f = regions[:, 0, 0], regions[:, 1, 0]
    return labels[np.where(principal_i < 0, 16, 4 * principal_i + principal_f)]
