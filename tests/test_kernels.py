import numpy as np

from qflip import kernels
from qflip.bloch import FlipParams, canonical_triple
from qflip.constructions import build_family_state, build_family_state_flipped, family_reduced_flipped
from qflip.schmidt import schmidt_decompose

from conftest import random_hermitian


def test_backend_is_reported():
    assert kernels.BACKEND == "numpy"


def test_fallback_eigvalsh_descending(rng):
    h = random_hermitian(rng, 6)
    vals = kernels.eigvalsh_small(h)
    assert np.all(np.diff(vals) <= 0)
    np.testing.assert_allclose(vals, np.linalg.eigvalsh(h)[::-1], atol=1e-12)


def test_grid_eval_matches_full_stack(rng):
    # the kernel's Gram route must reproduce the partial trace of the actual
    # 12-dim composite states, device phases included, point by point
    n = 40
    a = rng.uniform(0.05, 0.95, n)
    c = rng.uniform(0.05, 0.95, n)
    t = rng.uniform(0.05, np.pi - 0.05, n)
    mu = rng.uniform(-np.pi, np.pi, n)
    nu = rng.uniform(-np.pi, np.pi, n)
    data = kernels.grid_eval(a, c, t, mu, nu)
    for i in range(n):
        p = FlipParams(a=a[i], c=c[i], theta=t[i])
        oracle_i = schmidt_decompose(build_family_state(p), [0])
        oracle_f = schmidt_decompose(build_family_state_flipped(p, mu[i], nu[i]), [0])
        np.testing.assert_allclose(data["num_alpha"][i], oracle_i, rtol=0, atol=1e-14)
        np.testing.assert_allclose(data["num_beta"][i], oracle_f, rtol=0, atol=1e-14)
        np.testing.assert_allclose(data["alpha"][i], oracle_i, rtol=0, atol=1e-12)
        np.testing.assert_allclose(data["beta"][i], oracle_f, rtol=0, atol=1e-12)


def test_flipped_blocks_carry_the_device_phases(rng):
    # the spectra do not depend on mu and nu, so only the reduced matrix itself
    # shows where grid_eval puts the phases: e^{i nu} on block 1, e^{i mu} on 2
    for _ in range(50):
        a, c = rng.uniform(0.05, 0.95, 2)
        t = rng.uniform(0.05, np.pi - 0.05)
        mu, nu = rng.uniform(-np.pi, np.pi, 2)
        p = FlipParams(a=a, c=c, theta=t)
        _, psi, phi = canonical_triple(p)
        blocks = kernels.flipped_blocks(psi[None], phi[None], mu, nu)
        np.testing.assert_allclose(kernels.gram(blocks)[0], family_reduced_flipped(p, mu, nu), rtol=0, atol=1e-15)
