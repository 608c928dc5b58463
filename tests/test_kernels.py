import numpy as np

from qflip import kernels
from qflip.bloch import FlipParams, complements

from oracle import (
    build_family_state,
    build_family_state_flipped,
    family_reduced_flipped,
    family_reduced_initial,
    schmidt_decompose,
)


def test_backend_is_reported():
    assert kernels.BACKEND == "numpy"


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
        np.testing.assert_allclose(data["roots"][i, 0], oracle_i, rtol=0, atol=1e-12)
        np.testing.assert_allclose(data["roots"][i, 1], oracle_f, rtol=0, atol=1e-12)


def test_family_reduced_rows_carry_the_device_phases(rng):
    # the spectra do not depend on mu and nu, so only the reduced matrices
    # themselves show where grid_eval puts the phases: e^{i nu} on flipped
    # level 1, e^{i mu} on flipped level 2, none on the initial state
    n = 50
    a = rng.uniform(0.05, 0.95, n)
    c = rng.uniform(0.05, 0.95, n)
    t = rng.uniform(0.05, np.pi - 0.05, n)
    mu = rng.uniform(-np.pi, np.pi, n)
    nu = rng.uniform(-np.pi, np.pi, n)
    b, d = complements(a, c)
    reduced = kernels.family_reduced_rows(a, b, c, d, t, mu, nu)
    assert reduced.shape == (n, 2, 3, 3)
    for i in range(n):
        p = FlipParams(a=a[i], c=c[i], theta=t[i])
        np.testing.assert_allclose(reduced[i, 0], family_reduced_initial(p), rtol=0, atol=1e-15)
        np.testing.assert_allclose(reduced[i, 1], family_reduced_flipped(p, mu[i], nu[i]), rtol=0, atol=1e-15)


def test_grid_eval_measure_is_the_sweeps_selection_measure(rng):
    # m comes from grid_eval's own complements, and equals the measure by
    # which a sweep selects its points to the bit, except at the boundary
    # theta = pi, where it is 0 rather than the sine of pi's rounding
    n = 10_000
    a, c = rng.uniform(0.0, 1.0, (2, n))
    theta = np.concatenate([rng.uniform(0.0, np.pi, n - 4), [0.0, 5e-324, np.nextafter(np.pi, 0.0), np.pi]])
    a[:3], c[3:6] = [0.0, 1.0, 1.0 - 2.0**-53], [0.0, 1.0, 1e-300]
    m = kernels.grid_eval(a, c, theta)["m"]
    b, d = complements(a, c)
    selection = a * b * c * d * np.sin(theta)
    assert m[:-1].tobytes() == selection[:-1].tobytes()
    assert m[-1] == 0.0 < selection[-1]
    assert m[[0, 1, 3, 4]].tolist() == [0.0] * 4 and m[-2] > 0.0
