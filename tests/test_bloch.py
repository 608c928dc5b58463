import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflip.bloch import FlipParams, complements, flip, qubit_to_bloch, random_qubit
from qflip.kernels import degeneracy

from oracle import canonical_triple, great_circle_test

KET_0 = np.array([1.0, 0.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
KET_PLUS_I = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)


def test_bloch_of_axis_states():
    np.testing.assert_allclose(qubit_to_bloch(KET_0), [0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(qubit_to_bloch(KET_PLUS), [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(qubit_to_bloch(KET_PLUS_I), [0, 1, 0], atol=1e-15)


def test_qubit_constructor_rejects_unnormalized():
    with pytest.raises(ValueError):
        flip(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        qubit_to_bloch(np.array([1.0, 1.0]))


def test_orthogonal_complement_convention():
    np.testing.assert_array_equal(flip(KET_0), np.array([0, 1], dtype=complex))
    np.testing.assert_allclose(qubit_to_bloch(flip(KET_PLUS)), [-1, 0, 0], atol=1e-15)


def test_orthogonal_complement_involution(rng):
    for _ in range(50):
        q = random_qubit(rng)
        twice = flip(flip(q))
        np.testing.assert_allclose(twice, -q, atol=1e-15)
        np.testing.assert_allclose(qubit_to_bloch(twice), qubit_to_bloch(q), atol=1e-14)


def test_orthogonality(rng):
    for _ in range(50):
        q = random_qubit(rng)
        assert abs(np.vdot(q, flip(q))) < 1e-14


def test_flip_basis_state():
    np.testing.assert_allclose(flip(KET_0), np.array([0, 1], dtype=complex), atol=1e-15)


def test_flip_reverses_bloch_vector(rng):
    for _ in range(100):
        q = random_qubit(rng)
        np.testing.assert_allclose(qubit_to_bloch(flip(q)), -qubit_to_bloch(q), atol=1e-12)


def test_flip_is_antiunitary(rng):
    # <flip u|flip v> must equal the conjugate of <u|v>
    for _ in range(100):
        u, v = random_qubit(rng), random_qubit(rng)
        lhs = np.vdot(flip(u), flip(v))
        rhs = np.conj(np.vdot(u, v))
        assert abs(lhs - rhs) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.floats(min_value=-7, max_value=7))
def test_bloch_global_phase_invariance(seed, gamma):
    gen = np.random.default_rng(seed)
    q = random_qubit(gen)
    np.testing.assert_allclose(
        qubit_to_bloch(np.exp(1j * gamma) * q), qubit_to_bloch(q), atol=1e-14
    )


def test_flip_params_validation():
    with pytest.raises(ValueError):
        FlipParams(a=1.2, c=0.5, theta=1.0)
    with pytest.raises(ValueError):
        FlipParams(a=0.5, c=-0.1, theta=1.0)
    with pytest.raises(ValueError):
        FlipParams(a=0.5, c=0.5, theta=0.0)
    p = FlipParams(a=0.5, c=0.5, theta=0.0, allow_boundary_theta=True)
    b, d = complements(p.a, p.c)
    assert degeneracy(p.a, b, p.c, d, p.theta) == 0.0
    # the float pi stands for the boundary pi, where the measure vanishes too
    assert np.sin(np.pi) > 0.0 and degeneracy(p.a, b, p.c, d, np.pi) == 0.0
    p = FlipParams(a=0.6, c=0.8, theta=1.0)
    b, d = complements(p.a, p.c)
    assert abs(p.a**2 + b**2 - 1.0) < 1e-15
    assert abs(p.c**2 + d**2 - 1.0) < 1e-15


def test_canonical_triple_axes_case():
    p = FlipParams(a=1 / np.sqrt(2), c=1 / np.sqrt(2), theta=np.pi / 2)
    first, second, third = canonical_triple(p)
    np.testing.assert_allclose(first, KET_0, atol=1e-15)
    np.testing.assert_allclose(second, KET_PLUS, atol=1e-15)
    np.testing.assert_allclose(third, KET_PLUS_I, atol=1e-15)


def test_canonical_triple_degenerate_a_one():
    p = FlipParams(a=1.0, c=0.3, theta=1.2)
    first, second, _ = canonical_triple(p)
    np.testing.assert_allclose(first, second, atol=1e-15)


def test_canonical_triple_overlap_formula(rng):
    # <psi|phi> expands to a*c + b*d*e^{i theta}
    for _ in range(50):
        p = FlipParams(a=rng.uniform(), c=rng.uniform(), theta=rng.uniform(1e-3, np.pi - 1e-3))
        _, psi, phi = canonical_triple(p)
        b, d = complements(p.a, p.c)
        expected = p.a * p.c + b * d * np.exp(1j * p.theta)
        assert abs(np.vdot(psi, phi) - expected) < 1e-14


def test_great_circle_examples():
    ket_minus = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)
    assert not great_circle_test(KET_0, KET_PLUS, KET_PLUS_I)
    assert great_circle_test(KET_0, KET_PLUS, ket_minus)
    p = FlipParams(a=1.0, c=0.4, theta=2.0)
    assert great_circle_test(*canonical_triple(p))


def test_great_circle_determinant_identity():
    # det of the stacked Bloch vectors equals 4*a*b*c*d*sin(theta) across a grid
    n = 50
    ticks = np.arange(1, n + 1) / (n + 1)
    aa, cc, tt = np.meshgrid(ticks, ticks, ticks * np.pi, indexing="ij")
    a, c, t = aa.ravel(), cc.ravel(), tt.ravel()
    b, d = np.sqrt(1 - a * a), np.sqrt(1 - c * c)
    mats = np.zeros((a.size, 3, 3))
    mats[:, 0, 2] = 1.0
    mats[:, 1, 0] = 2 * a * b
    mats[:, 1, 2] = a * a - b * b
    mats[:, 2, 0] = 2 * c * d * np.cos(t)
    mats[:, 2, 1] = 2 * c * d * np.sin(t)
    mats[:, 2, 2] = c * c - d * d
    dets = np.linalg.det(mats)
    expected = 4 * a * b * c * d * np.sin(t)
    np.testing.assert_allclose(dets, expected, atol=1e-12)
    assert np.array_equal(np.abs(dets) <= 1e-10, np.abs(expected) <= 1e-10)
    # on this grid the determinant rule coincides with the bare degeneracy
    # measure |a b c d sin theta| <= 1e-10 (no point falls between the bands)
    assert np.array_equal(np.abs(dets) <= 1e-10, np.abs(expected / 4.0) <= 1e-10)


def test_great_circle_matches_degeneracy_measure(rng):
    # scalar API agrees with the |a b c d sin theta| <= tol rule at sampled points
    for _ in range(200):
        p = FlipParams(
            a=rng.uniform(), c=rng.uniform(), theta=rng.uniform(1e-6, np.pi - 1e-6)
        )
        b, d = complements(p.a, p.c)
        expected = abs(4.0 * degeneracy(p.a, b, p.c, d, p.theta)) <= 1e-10
        assert great_circle_test(*canonical_triple(p)) == expected
