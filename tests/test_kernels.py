import hashlib

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


# sha256 of grid_eval's arrays at 2,000 seeded points with random device
# phases, and of the spectra of every tenth point as a one-row call with float
# phases, pinned before the phase multiply was rewritten
GOLDEN_PHASE_ROWS = {
    "roots": "688c05ce1d1b322d035b2e348e984d549337c7e1477419364faec4ddc2a8a357",
    "spectra": "b3110f1c6cd5919ae9e92dfe85482e974f7103b96e3e4f196b24420cb72ed09b",
    "A": "e2349ddfc118d13270b866fcf4c48ada2eebad5af762bde21f37c2e041452d5c",
    "B_pair": "96d842f33ef120fdc14a40e973ab975aca75de0277cbafb6ce11875a34a13bc7",
    "m": "5bf2fc231681d2a3eba622a13b6db02d4051a33f825309a2422a7698b7c77b79",
    "theta_i": "0f3d355b1a5a135ca6303e0c69eb12f8ae72b0ce5051981aa0be5e71b6f37fc3",
    "theta_f": "b48da930b9a644548e442db3eb84ac932c159b558e44d8d24ed67cf4710387f4",
    "one_row_spectra": "a9b9a0b6a0b6f895359c4a844bc5ff70bfc8f73e777e19298af8c66ec6efa5f5",
}


def test_grid_eval_bytes_under_device_phases_are_pinned():
    rng = np.random.default_rng(2026)
    n = 2000
    a, c = rng.uniform(0.0, 1.0, (2, n))
    theta = rng.uniform(0.0, np.pi, n)
    mu, nu = rng.uniform(-np.pi, np.pi, (2, n))
    rows = kernels.grid_eval(a, c, theta, mu, nu)

    def digest(*arrays):
        sha = hashlib.sha256()
        for array in arrays:
            sha.update(np.ascontiguousarray(array).tobytes())
        return sha.hexdigest()

    digests = {key: digest(rows[key]) for key in GOLDEN_PHASE_ROWS if key in rows}
    digests["one_row_spectra"] = digest(
        *(kernels.grid_eval(a[[j]], c[[j]], theta[[j]], float(mu[j]), float(nu[j]))["spectra"] for j in range(0, n, 10))
    )
    assert digests == GOLDEN_PHASE_ROWS
