import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import random_hermitian
from oracle import DIM_CAP, DimensionError, HermiticityError, hermitian_eigenvalues, kron, partial_trace

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_kron_identities():
    np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_basis_vectors():
    out = kron(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    np.testing.assert_array_equal(out, np.array([0, 1, 0, 0], dtype=complex))


def test_kron_pauli_spectrum():
    got = hermitian_eigenvalues(kron(SIGMA_X, SIGMA_X))
    oracle = np.linalg.eigvalsh(np.kron(SIGMA_X, SIGMA_X))[::-1]
    np.testing.assert_allclose(got, oracle, atol=1e-12)
    np.testing.assert_allclose(got, [1, 1, -1, -1], atol=1e-12)


def test_kron_rejects_beyond_cap():
    with pytest.raises(DimensionError):
        kron(np.eye(4), np.eye(4))
    with pytest.raises(DimensionError):
        kron(np.ones(4) / 2.0, np.ones(4) / 2.0)


def test_kron_associativity(rng):
    for _ in range(25):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = kron(kron(a, b), c)
        rhs = kron(a, kron(b, c))
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)


_FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _kron_operands(draw):
    """Two real or complex operands, each a vector or a matrix, whose tensor
    product fits within DIM_CAP; matrix shapes are drawn per factor, so
    they may be rectangular and unequal."""
    def side(other=1):
        return draw(st.integers(min_value=1, max_value=DIM_CAP // other))

    def values(shape):
        real = draw(hnp.arrays(np.float64, shape, elements=_FINITE))
        if draw(st.booleans()):
            return real + 1j * draw(hnp.arrays(np.float64, shape, elements=_FINITE))
        return real

    if draw(st.booleans()):
        n = side()
        return values((n,)), values((side(n),))
    rows, cols = side(), side()
    return values((rows, cols)), values((side(rows), side(cols)))


@settings(max_examples=400, deadline=None)
@given(_kron_operands())
def test_kron_equals_numpy_kron_bit_for_bit(operands):
    a, b = operands
    with np.errstate(over="ignore", invalid="ignore"):  # large entries overflow alike in both
        got = kron(a, b)
        expected = np.kron(a.astype(complex), b.astype(complex))
    assert got.dtype == complex
    np.testing.assert_array_equal(got, expected, strict=True)


def test_kron_mixed_vector_and_matrix_is_the_column_product():
    v = np.array([1.0, 2.0j, -3.0])
    m = np.array([[1.0, 2.0], [3.0j, 4.0]])
    np.testing.assert_array_equal(kron(v, m), np.kron(v.reshape(-1, 1), m), strict=True)
    np.testing.assert_array_equal(kron(m, v), np.kron(m, v.reshape(-1, 1)), strict=True)


def test_partial_trace_bell_state():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    for keep in ([0], [1]):
        np.testing.assert_allclose(partial_trace(rho, [2, 2], keep), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product_state():
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    state = kron(np.array([1.0, 0.0]), plus)
    rho = np.outer(state, state.conj())
    np.testing.assert_allclose(partial_trace(rho, [2, 2], [1]), np.outer(plus, plus.conj()), atol=1e-14)


def test_partial_trace_preserves_trace_and_hermiticity(rng):
    for dims in ([2, 2], [3, 2, 2], [3, 4], [2, 3, 2]):
        n = int(np.prod(dims))
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        for keep in ([0], [len(dims) - 1], list(range(len(dims)))[1:]):
            red = partial_trace(rho, dims, keep)
            assert abs(np.trace(red) - 1.0) < 1e-12
            assert np.max(np.abs(red - red.conj().T)) < 1e-12


def test_partial_trace_over_everything_gives_scalar_trace(rng):
    psi = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    out = partial_trace(rho, [3, 2, 2], [])
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - 1.0) < 1e-12


def test_partial_trace_errors(rng):
    with pytest.raises(DimensionError):
        partial_trace(np.eye(4) / 4, [2, 3], [0])
    with pytest.raises(DimensionError):
        partial_trace(np.eye(4) / 4, [2, 2], [5])
    skew = np.eye(2, dtype=complex)
    skew[0, 1] = 1.0
    with pytest.raises(HermiticityError):
        partial_trace(skew, [2], [0])


def test_hermitian_eigenvalues_pauli():
    np.testing.assert_allclose(hermitian_eigenvalues(SIGMA_Z), [1, -1], atol=1e-14)


def test_hermitian_eigenvalues_uniform_offdiagonal():
    m = np.full((3, 3), 1.0 / 6.0, dtype=complex)
    np.fill_diagonal(m, 1.0 / 3.0)
    np.testing.assert_allclose(
        hermitian_eigenvalues(m), [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0], atol=1e-12
    )


def test_hermitian_eigenvalues_shift_invariance(rng):
    for n in (2, 3, 5, 8, 12):
        h = random_hermitian(rng, n)
        shift = rng.normal()
        base = hermitian_eigenvalues(h)
        shifted = hermitian_eigenvalues(h + shift * np.eye(n))
        np.testing.assert_allclose(shifted, base + shift, atol=1e-10)


def test_hermitian_eigenvalues_sum_matches_trace(rng):
    for n in range(2, 13):
        h = random_hermitian(rng, n)
        vals = hermitian_eigenvalues(h)
        assert np.all(np.diff(vals) <= 1e-14)
        assert abs(vals.sum() - np.trace(h).real) < 1e-10


def test_hermitian_eigenvalues_product_matches_determinant(rng):
    for n in range(2, 9):
        h = random_hermitian(rng, n)
        vals = hermitian_eigenvalues(h)
        det = np.linalg.det(h).real
        assert abs(np.prod(vals) - det) < 1e-9 * max(1.0, abs(det))


def test_hermitian_eigenvalues_descending(rng):
    h = random_hermitian(rng, 6)
    vals = hermitian_eigenvalues(h)
    assert np.all(np.diff(vals) <= 0)
    np.testing.assert_allclose(vals, np.linalg.eigvalsh(h)[::-1], atol=1e-12)


def test_hermitian_eigenvalues_rejections(rng):
    with pytest.raises(HermiticityError):
        hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(DimensionError):
        hermitian_eigenvalues(np.eye(13))
