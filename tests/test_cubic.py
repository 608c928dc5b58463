import numpy as np
import pytest

from qflip.bloch import FlipParams, canonical_triple
from qflip.cubic import (
    cubic_coefficients,
    cubic_coefficients_rows,
    cubic_roots,
    cubic_roots_rows,
    labeled_roots,
    state_overlap,
)

SQRT2_INV = 1 / np.sqrt(2)
AXES = FlipParams(a=SQRT2_INV, c=SQRT2_INV, theta=np.pi / 2)


def _random_params(rng):
    return FlipParams(
        a=rng.uniform(0.02, 0.98),
        c=rng.uniform(0.02, 0.98),
        theta=rng.uniform(1e-3, np.pi - 1e-3),
    )


def test_overlap_matches_state_inner_product(rng):
    for _ in range(100):
        p = _random_params(rng)
        _, psi, phi = canonical_triple(p)
        assert abs(state_overlap(p) - np.vdot(psi, phi)) < 1e-14


def test_axes_coefficients():
    coeff_a, coeff_b, coeff_bp = cubic_coefficients(AXES)
    assert abs(coeff_a - 0.25) < 1e-15
    assert abs(coeff_b - 0.25) < 1e-15
    assert abs(coeff_bp) < 1e-15


def test_coefficient_identity_and_sign(rng):
    # B - Bprime == 4 a^2 b^2 c^2 d^2 sin^2(theta), B >= 0, B >= Bprime
    for _ in range(500):
        p = _random_params(rng)
        _, coeff_b, coeff_bp = cubic_coefficients(p)
        expected_gap = 4.0 * (p.a * p.b * p.c * p.d * np.sin(p.theta)) ** 2
        assert abs((coeff_b - coeff_bp) - expected_gap) < 1e-12
        assert coeff_b >= 0.0
        assert coeff_b >= coeff_bp


def test_cubic_roots_axes_values():
    init = cubic_roots(0.25, 0.25)
    np.testing.assert_allclose(init.roots, [2 / 3, 1 / 6, 1 / 6], atol=1e-14)
    assert abs(3 * init.theta_angle - np.pi) < 1e-7  # arccos(-1) boundary
    fin = cubic_roots(0.25, 0.0)
    expected = [1 / 3 + 0.5 / np.sqrt(3), 1 / 3, 1 / 3 - 0.5 / np.sqrt(3)]
    np.testing.assert_allclose(fin.roots, expected, atol=1e-14)


def test_cubic_roots_degenerate_coefficient():
    spec = cubic_roots(0.0, 0.0)
    np.testing.assert_allclose(spec.roots, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_cubic_roots_rejects_negative_a():
    with pytest.raises(ValueError):
        cubic_roots(-0.1, 0.0)


def test_cubic_spectrum_invariants(rng):
    for _ in range(300):
        p = _random_params(rng)
        coeff_a, coeff_b, coeff_bp = cubic_coefficients(p)
        for b_val in (coeff_b, coeff_bp):
            spec = cubic_roots(coeff_a, b_val)
            assert abs(spec.roots.sum() - 1.0) < 1e-12
            assert np.all(np.diff(spec.roots) <= 1e-14)
            assert np.max(np.abs(spec.residuals())) < 1e-9
            if coeff_a > 0:
                lhs = np.cos(3.0 * spec.theta_angle)
                rhs = -b_val / (2.0 * coeff_a ** 1.5)
                assert abs(lhs - max(-1.0, min(1.0, rhs))) < 1e-10


def test_purity_identity(rng):
    # sum of squared roots is (3 + 6A)/9 for either cubic
    for _ in range(200):
        p = _random_params(rng)
        coeff_a, coeff_b, coeff_bp = cubic_coefficients(p)
        for b_val in (coeff_b, coeff_bp):
            spec = cubic_roots(coeff_a, b_val)
            assert abs(np.sum(spec.roots**2) - (3 + 6 * coeff_a) / 9) < 1e-10


def test_labeled_roots_mirror_swaps_base_and_minus(rng):
    for _ in range(100):
        p = _random_params(rng)
        coeff_a, coeff_b, _ = cubic_coefficients(p)
        spec = cubic_roots(coeff_a, coeff_b)
        t3 = 3.0 * spec.theta_angle
        principal = labeled_roots(coeff_a, t3)
        mirror = labeled_roots(coeff_a, 2.0 * np.pi - t3)
        assert abs(principal[0] - mirror[0]) < 1e-12
        assert abs(principal[1] - mirror[2]) < 1e-12
        assert abs(principal[2] - mirror[1]) < 1e-12
        np.testing.assert_allclose(np.sort(principal), np.sort(spec.roots), atol=1e-12)


def test_batch_roots_match_scalar(rng):
    # the scalar solver is a one-row call of the batched one: equal to the last bit
    a_vals = rng.uniform(0.01, 0.4, size=200)
    b_vals = np.array([rng.uniform(-2, 2) * av**1.5 for av in a_vals])
    roots, theta = cubic_roots_rows(a_vals, b_vals)
    for i in range(a_vals.size):
        spec = cubic_roots(a_vals[i], b_vals[i])
        np.testing.assert_array_equal(roots[i], spec.roots)
        assert theta[i] == spec.theta_angle


def test_scalar_coefficients_match_rows(rng):
    # one family point gets exactly the coefficients a sweep row gets
    a, c, theta = rng.uniform(0.02, 0.98, 5000), rng.uniform(0.02, 0.98, 5000), rng.uniform(0.02, 3.12, 5000)
    rows = np.stack(cubic_coefficients_rows(a, c, theta), axis=1)
    scalar = [cubic_coefficients(FlipParams(a=a[i], c=c[i], theta=theta[i])) for i in range(a.size)]
    np.testing.assert_array_equal(rows, scalar)
