import numpy as np

from qflip import kernels
from qflip.bloch import FlipParams
from qflip.constructions import general_flip_experiment

from conftest import random_hermitian


def test_backend_is_reported():
    assert kernels.BACKEND == "numpy"


def test_fallback_eigvalsh_descending(rng):
    h = random_hermitian(rng, 6)
    vals = kernels.eigvalsh_small(h)
    assert np.all(np.diff(vals) <= 0)
    np.testing.assert_allclose(vals, np.linalg.eigvalsh(h)[::-1], atol=1e-12)


def test_grid_eval_matches_full_stack(rng):
    # the batched kernel must reproduce the state-building route point by point
    n = 40
    a = rng.uniform(0.05, 0.95, n)
    c = rng.uniform(0.05, 0.95, n)
    t = rng.uniform(0.05, np.pi - 0.05, n)
    data = kernels.grid_eval(a, c, t)
    for i in range(n):
        p = FlipParams(a=a[i], c=c[i], theta=t[i])
        result = general_flip_experiment(p, margin=1e-12)
        assert abs(data["A"][i] - result.coeff_a) < 1e-13
        assert abs(data["B"][i] - result.coeff_b) < 1e-13
        assert abs(data["Bprime"][i] - result.coeff_bprime) < 1e-13
        np.testing.assert_allclose(data["alpha"][i], result.analytic_initial.roots, atol=1e-12)
        np.testing.assert_allclose(data["beta"][i], result.analytic_final.roots, atol=1e-12)
        np.testing.assert_allclose(data["num_alpha"][i], result.numeric_initial, atol=1e-11)
        np.testing.assert_allclose(data["num_beta"][i], result.numeric_final, atol=1e-11)
