import numpy as np

from qflip.bloch import FlipParams, complements
from qflip.cubic import cubic_coefficients_rows, cubic_roots_rows, labeled_roots_rows

SQRT2_INV = 1 / np.sqrt(2)
AXES = FlipParams(a=SQRT2_INV, c=SQRT2_INV, theta=np.pi / 2)


def _random_params(rng):
    return FlipParams(
        a=rng.uniform(0.02, 0.98),
        c=rng.uniform(0.02, 0.98),
        theta=rng.uniform(1e-3, np.pi - 1e-3),
    )


def _columns(p):
    """(a, b, c, d, theta) of the family point ``p``."""
    b, d = complements(p.a, p.c)
    return p.a, b, p.c, d, p.theta


def _random_rows(rng, n):
    """(a, b, c, d, theta) columns of ``n`` random family points, drawn as :func:`_random_params` draws them."""
    return np.array([_columns(_random_params(rng)) for _ in range(n)]).T


def _random_cubics(rng, n):
    """(A, B, roots, t) of the initial and the flipped cubic of ``n`` random
    family points, stacked: rows j and n + j belong to point j."""
    coeff_a, coeff_b, coeff_bp = cubic_coefficients_rows(*_random_rows(rng, n))
    coeff_a, b_val = np.concatenate([coeff_a, coeff_a]), np.concatenate([coeff_b, coeff_bp])
    return (coeff_a, b_val, *cubic_roots_rows(coeff_a, b_val))


def test_axes_coefficients():
    coeff_a, coeff_b, coeff_bp = cubic_coefficients_rows(*_columns(AXES))
    assert abs(coeff_a - 0.25) < 1e-15
    assert abs(coeff_b - 0.25) < 1e-15
    assert abs(coeff_bp) < 1e-15


def test_coefficient_identity_and_sign(rng):
    # B - Bprime == 4 a^2 b^2 c^2 d^2 sin^2(theta), B >= 0, B >= Bprime
    a, b, c, d, theta = _random_rows(rng, 500)
    _, coeff_b, coeff_bp = cubic_coefficients_rows(a, b, c, d, theta)
    expected_gap = 4.0 * (a * np.sqrt(1 - a * a) * c * np.sqrt(1 - c * c) * np.sin(theta)) ** 2
    assert np.max(np.abs((coeff_b - coeff_bp) - expected_gap)) < 1e-12
    assert np.all(coeff_b >= 0.0)
    assert np.all(coeff_b >= coeff_bp)


def test_cubic_roots_axes_values():
    (init, fin), (t_init, _) = cubic_roots_rows([0.25, 0.25], [0.25, 0.0])
    np.testing.assert_allclose(init, [2 / 3, 1 / 6, 1 / 6], atol=1e-14)
    assert abs(3 * t_init - np.pi) < 1e-7  # arccos(-1) boundary
    expected = [1 / 3 + 0.5 / np.sqrt(3), 1 / 3, 1 / 3 - 0.5 / np.sqrt(3)]
    np.testing.assert_allclose(fin, expected, atol=1e-14)


def test_cubic_roots_degenerate_coefficient():
    roots, _ = cubic_roots_rows([0.0], [0.0])
    np.testing.assert_allclose(roots[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_cubic_spectrum_invariants(rng):
    coeff_a, b_val, roots, t = _random_cubics(rng, 300)
    assert np.max(np.abs(roots.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(np.diff(roots, axis=1) <= 1e-14)
    u = 1.0 - 3.0 * roots
    residuals = u**3 - 3.0 * u * coeff_a[:, None] + b_val[:, None]
    assert np.max(np.abs(residuals)) < 1e-9
    assert np.all(coeff_a > 0)
    rhs = np.clip(-b_val / (2.0 * coeff_a**1.5), -1.0, 1.0)
    assert np.max(np.abs(np.cos(3.0 * t) - rhs)) < 1e-10


def test_purity_identity(rng):
    # sum of squared roots is (3 + 6A)/9 for either cubic
    coeff_a, _, roots, _ = _random_cubics(rng, 200)
    assert np.max(np.abs(np.sum(roots**2, axis=1) - (3 + 6 * coeff_a) / 9)) < 1e-10


def test_labeled_roots_mirror_swaps_base_and_minus(rng):
    coeff_a, coeff_b, _ = cubic_coefficients_rows(*_random_rows(rng, 100))
    roots, t = cubic_roots_rows(coeff_a, coeff_b)
    principal = labeled_roots_rows(coeff_a, t)
    mirror = labeled_roots_rows(coeff_a, (2.0 * np.pi - 3.0 * t) / 3.0)
    # the atlas proof reads both representatives off the descending roots
    # (oracle.RANK_OF_LABEL): they are the principal labels in order (0, 2, 1)
    # to the bit, which check_atlas uses to name a failing row's labels, and
    # the mirror's labels as they stand to rounding (at most 3.3e-16, 1.5 eps,
    # over grid 40 and 200,000 seeded rows; roots lie in [0, 1])
    np.testing.assert_array_equal(roots, principal[:, [0, 2, 1]])
    assert np.max(np.abs(mirror - roots)) <= 2 * np.finfo(float).eps
