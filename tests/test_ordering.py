import io
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflip.bloch import FlipParams
from qflip.cli import SweepConfig, _run_sweep
from qflip.cubic import cubic_coefficients, cubic_roots
from qflip.ordering import (
    ALL_PATTERN_IDS,
    PATTERN_ATLAS,
    DegenerateSpectraError,
    OrderingMismatchError,
    check_atlas,
    classify_ordering,
    pattern_labels,
    region_of,
)
from qflip.schmidt import SpectrumTieError, Verdict, incomparable_3dim, verdict


def _classify_params(p):
    coeff_a, coeff_b, coeff_bp = cubic_coefficients(p)
    return classify_ordering(cubic_roots(coeff_a, coeff_b), cubic_roots(coeff_a, coeff_bp))


def test_region_of_half_open_quadrants():
    assert region_of(0.0) == "Q1"
    assert region_of(np.pi / 2) == "Q2"
    assert region_of(np.pi) == "Q3"
    assert region_of(3 * np.pi / 2) == "Q4"
    assert region_of(2 * np.pi) == "Q1"
    assert region_of(np.pi - 1e-9) == "Q2"


def test_axes_case_boundary_classification():
    p = FlipParams(a=1 / np.sqrt(2), c=1 / np.sqrt(2), theta=np.pi / 2)
    pattern = _classify_params(p)
    # 3*theta_i sits exactly at pi, so the half-open rule files it under Q3
    assert pattern.region_initial == "Q3"
    assert pattern.boundary
    assert set(pattern.witnessed) == {"Q3Q2", "Q3Q4"}


def test_positive_bprime_point_witnesses_four_cases(rng):
    p = FlipParams(a=0.9, c=0.9, theta=0.3)
    coeff_a, coeff_b, coeff_bp = cubic_coefficients(p)
    assert coeff_bp > 0
    pattern = _classify_params(p)
    assert pattern.pattern_id == "Q2Q2"
    assert pattern.chain == ("a1", "b1", "b3", "a3", "a2", "b2")
    assert set(pattern.witnessed) == {"Q2Q2", "Q2Q3", "Q3Q2", "Q3Q3"}


def test_negative_bprime_point_witnesses_four_cases():
    p = FlipParams(a=0.8, c=0.6, theta=2 * np.pi / 3)
    coeff_a, _, coeff_bp = cubic_coefficients(p)
    assert coeff_bp < 0
    pattern = _classify_params(p)
    assert pattern.pattern_id == "Q2Q1"
    assert set(pattern.witnessed) == {"Q2Q1", "Q2Q4", "Q3Q1", "Q3Q4"}


def test_degenerate_pair_is_rejected():
    p = FlipParams(a=1.0, c=0.5, theta=1.0)
    with pytest.raises(DegenerateSpectraError):
        _classify_params(p)


def test_mismatched_shared_coefficient_rejected():
    with pytest.raises(ValueError):
        classify_ordering(cubic_roots(0.25, 0.25), cubic_roots(0.20, 0.0))


def test_primary_chain_matches_sorted_labels(rng):
    # the atlas chain must be a valid descending arrangement at every point
    for _ in range(300):
        p = FlipParams(
            a=rng.uniform(0.05, 0.95),
            c=rng.uniform(0.05, 0.95),
            theta=rng.uniform(0.05, np.pi - 0.05),
        )
        if abs(p.degeneracy) < 1e-3:
            continue
        pattern = _classify_params(p)
        assert pattern.pattern_id in ALL_PATTERN_IDS
        assert set(pattern.sorted_labels) == {"a1", "a2", "a3", "b1", "b2", "b3"}
        assert pattern.sorted_labels[0] == "a1"
        assert pattern.sorted_labels[1] == "b1"


def test_sorted_interleaving_certifies_incomparability(rng):
    for _ in range(200):
        p = FlipParams(
            a=rng.uniform(0.05, 0.95),
            c=rng.uniform(0.05, 0.95),
            theta=rng.uniform(0.05, np.pi - 0.05),
        )
        if abs(p.degeneracy) < 1e-3:
            continue
        coeff_a, coeff_b, coeff_bp = cubic_coefficients(p)
        alpha = cubic_roots(coeff_a, coeff_b).roots
        beta = cubic_roots(coeff_a, coeff_bp).roots
        try:
            assert incomparable_3dim(alpha, beta)
        except SpectrumTieError:
            assert verdict(alpha, beta) is Verdict.INCOMPARABLE


def test_atlas_fully_witnessed_on_coarse_grid():
    witnessed = set()
    ticks = np.arange(1, 10) / 10.0
    for a in ticks:
        for c in ticks:
            for theta in ticks * np.pi:
                p = FlipParams(a=a, c=c, theta=theta)
                if abs(p.degeneracy) < 1e-3:
                    continue
                witnessed.update(_classify_params(p).witnessed)
    assert witnessed == set(ALL_PATTERN_IDS)
    assert len(PATTERN_ATLAS) == 8


_family_point = st.tuples(
    st.floats(0.02, 0.98), st.floats(0.02, 0.98), st.floats(0.02, np.pi - 0.02)
).map(lambda t: FlipParams(a=t[0], c=t[1], theta=t[2]))


@settings(max_examples=60, deadline=None)
@given(st.lists(_family_point, min_size=1, max_size=20))
def test_batched_atlas_check_matches_classify_ordering(points):
    spectra = []
    expected = []
    for p in points:
        coeff_a, coeff_b, coeff_bp = cubic_coefficients(p)
        init, fin = cubic_roots(coeff_a, coeff_b), cubic_roots(coeff_a, coeff_bp)
        spectra.append((coeff_a, coeff_b, coeff_bp, init.theta_angle, fin.theta_angle))
        try:
            expected.append(classify_ordering(init, fin).label)
        except DegenerateSpectraError:
            expected.append(None)
    regions = check_atlas(*np.array(spectra).T)
    assert pattern_labels(regions).tolist() == expected


def test_atlas_check_skips_degenerate_rows():
    p = FlipParams(a=1.0, c=0.5, theta=1.0)
    coeff_a, coeff_b, coeff_bp = cubic_coefficients(p)
    init, fin = cubic_roots(coeff_a, coeff_b), cubic_roots(coeff_a, coeff_bp)
    regions = check_atlas(coeff_a, coeff_b, coeff_bp, init.theta_angle, fin.theta_angle)
    assert regions.tolist() == [[[-1, -1], [-1, -1]]]
    assert pattern_labels(regions).tolist() == [None]


ORIGINAL_ATLAS = dict(PATTERN_ATLAS)


@contextmanager
def _atlas_with(pair, chain):
    """PATTERN_ATLAS with one entry replaced (or removed, for chain None)."""
    if chain is None:
        del PATTERN_ATLAS[pair]
    else:
        PATTERN_ATLAS[pair] = chain
    try:
        yield
    finally:
        PATTERN_ATLAS.clear()
        PATTERN_ATLAS.update(ORIGINAL_ATLAS)


def test_atlas_check_applies_tie_tolerance_per_row():
    # B' > 0 witnesses only {Q2, Q3} x {Q2, Q3}, B' < 0 only {Q2, Q3} x {Q1, Q4},
    # so a wrong chain for Q2Q1 breaks the second row alone
    rows = []
    for p in (FlipParams(a=0.9, c=0.9, theta=0.3), FlipParams(a=0.8, c=0.6, theta=2 * np.pi / 3)):
        coeff_a, coeff_b, coeff_bp = cubic_coefficients(p)
        rows.append((coeff_a, coeff_b, coeff_bp, cubic_roots(coeff_a, coeff_b).theta_angle,
                     cubic_roots(coeff_a, coeff_bp).theta_angle))
    columns = np.array(rows).T
    with _atlas_with(("Q2", "Q1"), ORIGINAL_ATLAS[("Q3", "Q3")]):
        with pytest.raises(OrderingMismatchError):
            check_atlas(*columns)
        # roots lie in [0, 1], so a tie tolerance of 1 forgives any chain
        check_atlas(*columns, tie_tol=np.array([1e-12, 1.0]))
        with pytest.raises(OrderingMismatchError):
            check_atlas(*columns, tie_tol=np.array([1.0, 1e-12]))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(ORIGINAL_ATLAS)),
    st.sampled_from([None, *sorted(set(ORIGINAL_ATLAS.values()))]),
)
def test_corrupted_atlas_entry_makes_the_sweep_fail(pair, chain):
    cfg = SweepConfig(grid_n=9)
    with _atlas_with(pair, chain):
        if chain == ORIGINAL_ATLAS[pair]:
            _run_sweep(cfg, io.StringIO())
        else:
            with pytest.raises(OrderingMismatchError):
                _run_sweep(cfg, io.StringIO())
