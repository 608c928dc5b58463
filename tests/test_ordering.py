import io
from contextlib import contextmanager
from math import pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflip import ordering
from qflip.bloch import FlipParams, complements
from qflip.cli import SweepConfig, _run_sweep
from qflip.constructions import general_flip_experiment
from qflip.cubic import cubic_coefficients_rows, cubic_roots_rows, labeled_roots_rows
from qflip.kernels import degeneracy
from qflip.ordering import (
    PATTERN_ATLAS,
    REGION_BOUNDS,
    OrderingMismatchError,
    _region_index,
    check_atlas,
    pattern_labels,
)
from qflip.schmidt import SpectrumTieError, Verdict, incomparable_3dim, verdict

NAMES = tuple(REGION_BOUNDS)
ALL_PATTERN_IDS = {f"{ri}{rf}" for ri, rf in PATTERN_ATLAS}
LABELS = np.array(["a1", "a2", "a3", "b1", "b2", "b3"])


def _rows(points):
    """Columns A, B, Bprime, t_initial, t_final of the family points, as
    :func:`check_atlas` takes them."""
    a, c, theta = (np.array([getattr(p, key) for p in points]) for key in ("a", "c", "theta"))
    b, d = complements(a, c)
    coeff_a, coeff_b, coeff_bp = cubic_coefficients_rows(a, b, c, d, theta)
    _, t_i = cubic_roots_rows(coeff_a, coeff_b)
    _, t_f = cubic_roots_rows(coeff_a, coeff_bp)
    return coeff_a, coeff_b, coeff_bp, t_i, t_f


def _witnessed(regions) -> set:
    """Every region pair one row's representative pairs fall in."""
    return {NAMES[ri] + NAMES[rf] for ri in regions[0] for rf in regions[1]}


def _sorted_labels(coeff_a, t_i, t_f) -> tuple:
    """The labels a1..b3 of one row's principal labeled roots, largest first."""
    values = labeled_roots_rows(np.array([coeff_a, coeff_a]), np.array([t_i, t_f])).reshape(6)
    return tuple(LABELS[np.argsort(-values, kind="stable")].tolist())


def test_region_index_half_open_quadrants():
    def region(angle3):
        return NAMES[int(_region_index(angle3))]

    assert region(0.0) == "Q1"
    assert region(np.pi / 2) == "Q2"
    assert region(np.pi) == "Q3"
    assert region(3 * np.pi / 2) == "Q4"
    assert region(2 * np.pi) == "Q1"
    assert region(np.pi - 1e-9) == "Q2"


def test_axes_case_boundary_classification():
    p = FlipParams(a=1 / np.sqrt(2), c=1 / np.sqrt(2), theta=np.pi / 2)
    row = _rows([p])
    regions = check_atlas(*row)[0]
    # 3*theta_i sits exactly at pi, so the half-open rule files it under Q3
    assert NAMES[regions[0, 0]] == "Q3"
    angle3 = 3.0 * row[3][0] % (pi / 2)
    assert min(angle3, pi / 2 - angle3) <= 1e-12
    assert _witnessed(regions) == {"Q3Q2", "Q3Q4"}


def test_positive_bprime_point_witnesses_four_cases(rng):
    p = FlipParams(a=0.9, c=0.9, theta=0.3)
    coeff_a, _, coeff_bp, t_i, t_f = row = _rows([p])
    assert coeff_bp[0] > 0
    regions = check_atlas(*row)
    chain = ("a1", "b1", "b3", "a3", "a2", "b2")
    assert pattern_labels(regions).tolist() == ["Q2Q2:" + ">".join(chain)]
    assert _sorted_labels(coeff_a[0], t_i[0], t_f[0]) == chain
    assert _witnessed(regions[0]) == {"Q2Q2", "Q2Q3", "Q3Q2", "Q3Q3"}


def test_negative_bprime_point_witnesses_four_cases():
    p = FlipParams(a=0.8, c=0.6, theta=2 * np.pi / 3)
    row = _rows([p])
    assert row[2][0] < 0
    regions = check_atlas(*row)
    assert pattern_labels(regions)[0].split(":")[0] == "Q2Q1"
    assert _witnessed(regions[0]) == {"Q2Q1", "Q2Q4", "Q3Q1", "Q3Q4"}


def test_degenerate_pair_is_rejected():
    p = FlipParams(a=1.0, c=0.5, theta=1.0)
    assert pattern_labels(check_atlas(*_rows([p]))).tolist() == [None]
    assert general_flip_experiment(p).ordering is None


def test_primary_chain_matches_sorted_labels(rng):
    # the atlas chain must be a valid descending arrangement at every point
    points = [
        FlipParams(a=rng.uniform(0.05, 0.95), c=rng.uniform(0.05, 0.95), theta=rng.uniform(0.05, np.pi - 0.05))
        for _ in range(300)
    ]
    points = [p for p in points if abs(degeneracy(p.a, p.c, p.theta)) >= 1e-3]
    coeff_a, _, _, t_i, t_f = row = _rows(points)
    for label, a_j, ti_j, tf_j in zip(pattern_labels(check_atlas(*row)), coeff_a, t_i, t_f):
        pattern_id, chain = label.split(":")
        sorted_labels = _sorted_labels(a_j, ti_j, tf_j)
        assert pattern_id in ALL_PATTERN_IDS
        assert tuple(chain.split(">")) == sorted_labels
        assert set(sorted_labels) == {"a1", "a2", "a3", "b1", "b2", "b3"}
        assert sorted_labels[0] == "a1"
        assert sorted_labels[1] == "b1"


def test_sorted_interleaving_certifies_incomparability(rng):
    for _ in range(200):
        p = FlipParams(
            a=rng.uniform(0.05, 0.95),
            c=rng.uniform(0.05, 0.95),
            theta=rng.uniform(0.05, np.pi - 0.05),
        )
        if abs(degeneracy(p.a, p.c, p.theta)) < 1e-3:
            continue
        coeff_a, coeff_b, coeff_bp = _rows([p])[:3]
        (alpha, beta), _ = cubic_roots_rows(np.append(coeff_a, coeff_a), np.append(coeff_b, coeff_bp))
        try:
            assert incomparable_3dim(alpha, beta)
        except SpectrumTieError:
            assert verdict(alpha, beta) is Verdict.INCOMPARABLE


def test_atlas_fully_witnessed_on_coarse_grid():
    ticks = np.arange(1, 10) / 10.0
    points = [FlipParams(a=a, c=c, theta=theta) for a in ticks for c in ticks for theta in ticks * np.pi]
    regions = check_atlas(*_rows([p for p in points if abs(degeneracy(p.a, p.c, p.theta)) >= 1e-3]))
    witnessed = set().union(*(_witnessed(r) for r in regions))
    assert witnessed == ALL_PATTERN_IDS
    assert len(PATTERN_ATLAS) == 8


_family_point = st.tuples(
    st.floats(0.02, 0.98), st.floats(0.02, 0.98), st.floats(0.02, np.pi - 0.02)
).map(lambda t: FlipParams(a=t[0], c=t[1], theta=t[2]))


@settings(max_examples=60, deadline=None)
@given(st.lists(_family_point, min_size=1, max_size=20))
def test_batched_atlas_check_matches_one_row_calls(points):
    row_by_row = [check_atlas(*_rows([p])) for p in points]
    regions = check_atlas(*_rows(points))
    np.testing.assert_array_equal(regions, np.concatenate(row_by_row))
    assert pattern_labels(regions).tolist() == [pattern_labels(r)[0] for r in row_by_row]


def test_atlas_check_skips_degenerate_rows():
    p = FlipParams(a=1.0, c=0.5, theta=1.0)
    regions = check_atlas(*_rows([p]))
    assert regions.tolist() == [[[-1, -1], [-1, -1]]]
    assert pattern_labels(regions).tolist() == [None]


def test_pattern_codes_name_the_principal_region_pair():
    # a sweep counts patterns by code; code_labels turns a code into pattern_labels' label
    points = [FlipParams(a=a, c=c, theta=t) for a in (0.2, 0.7) for c in (0.3, 0.8) for t in (0.4, 2.6)]
    regions = check_atlas(*_rows([*points, FlipParams(a=1.0, c=0.5, theta=1.0)]))
    codes = ordering.pattern_codes(regions)
    assert codes.tolist() == (4 * regions[:, 0, 0] + regions[:, 1, 0]).tolist()[:-1] + [16]
    assert ordering.code_labels()[codes].tolist() == pattern_labels(regions).tolist()
    assert [ordering.code_labels()[4 * NAMES.index(ri) + NAMES.index(rf)] for ri, rf in PATTERN_ATLAS] == [
        f"{ri}{rf}:{'>'.join(chain)}" for (ri, rf), chain in PATTERN_ATLAS.items()
    ]


def test_atlas_check_rejects_a_non_finite_angle_in_a_checked_row():
    with pytest.raises(OrderingMismatchError, match="row 0 has a non-finite angle: theta_i=nan"):
        check_atlas([0.1], [0.3], [0.01], [np.nan], [0.5], live=True)
    # the same angle in a row that is not checked reads as 0
    assert check_atlas([0.1], [0.3], [0.3], [np.nan], [0.5]).tolist() == [[[-1, -1], [-1, -1]]]


@contextmanager
def _atlas_with(pair, chain):
    """The tables of PATTERN_ATLAS with one entry replaced (or removed, for chain None) installed."""
    atlas = {key: value for key, value in PATTERN_ATLAS.items() if key != pair}
    if chain is not None:
        atlas[pair] = chain
    original = ordering._ATLAS_TABLES
    ordering._ATLAS_TABLES = ordering._atlas_tables(atlas)
    try:
        yield
    finally:
        ordering._ATLAS_TABLES = original


def test_atlas_check_applies_tie_tolerance_per_row():
    # B' > 0 witnesses only {Q2, Q3} x {Q2, Q3}, B' < 0 only {Q2, Q3} x {Q1, Q4},
    # so a wrong chain for Q2Q1 breaks the second row alone
    columns = _rows([FlipParams(a=0.9, c=0.9, theta=0.3), FlipParams(a=0.8, c=0.6, theta=2 * np.pi / 3)])
    with _atlas_with(("Q2", "Q1"), PATTERN_ATLAS[("Q3", "Q3")]):
        with pytest.raises(OrderingMismatchError):
            check_atlas(*columns)
        # roots lie in [0, 1], so a tie tolerance of 1 forgives any chain
        check_atlas(*columns, tie_tol=np.array([1e-12, 1.0]))
        with pytest.raises(OrderingMismatchError):
            check_atlas(*columns, tie_tol=np.array([1.0, 1e-12]))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(PATTERN_ATLAS)),
    st.sampled_from([None, *sorted(set(PATTERN_ATLAS.values()))]),
)
def test_corrupted_atlas_entry_makes_the_sweep_fail(pair, chain):
    cfg = SweepConfig(grid_n=9)
    with _atlas_with(pair, chain):
        if chain == PATTERN_ATLAS[pair]:
            _run_sweep(cfg, io.BytesIO())
        else:
            with pytest.raises(OrderingMismatchError):
                _run_sweep(cfg, io.BytesIO())
