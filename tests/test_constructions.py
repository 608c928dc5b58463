import sys
from collections import Counter

import numpy as np
import pytest

from qflip import bloch, constructions, cubic, kernels
from qflip.bloch import FlipParams, density_to_bloch, qubit_to_bloch, random_qubit
from qflip.constructions import (
    AXES_LAMBDA_FINAL,
    AXES_LAMBDA_INITIAL,
    AXES_PARAMS,
    DEFAULT_DEGENERACY_MARGIN,
    FLIPPER_WEIGHTS_FINAL,
    FLIPPER_WEIGHTS_INITIAL,
    MIN_MARGIN,
    SPECTRUM_AGREEMENT_TOL,
    VerificationError,
    axes_experiment,
    certify_rows,
    flipper_experiment,
    flipper_reductions,
    general_flip_experiment,
    route_tolerance,
)
from qflip.ordering import CODE_LABELS, OrderingMismatchError
from qflip.schmidt import Verdict, verdict

from oracle import (
    DimensionError,
    PureState,
    bob_qubit_reduction,
    build_family_state,
    build_family_state_flipped,
    build_flipper_pair,
    canonical_triple,
    family_reduced_flipped,
    family_reduced_initial,
    partial_trace,
    schmidt_decompose,
)

FLIPPER_WEIGHTS = (FLIPPER_WEIGHTS_INITIAL, FLIPPER_WEIGHTS_FINAL)


def _random_params(rng, theta_lo=1e-2, theta_hi=np.pi - 1e-2):
    return FlipParams(
        a=rng.uniform(0.05, 0.95),
        c=rng.uniform(0.05, 0.95),
        theta=rng.uniform(theta_lo, theta_hi),
    )


def test_axes_state_basics():
    state = build_family_state(AXES_PARAMS)
    assert state.dims == (3, 2, 2)
    assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1.0) < 1e-14
    reduced = partial_trace(state.density(), [3, 2, 2], [0])
    np.testing.assert_allclose(np.diag(reduced).real, [1 / 3, 1 / 3, 1 / 3], atol=1e-14)


def test_axes_spectra_exact():
    lam_i = schmidt_decompose(build_family_state(AXES_PARAMS), [0])
    lam_f = schmidt_decompose(build_family_state_flipped(AXES_PARAMS), [0])
    np.testing.assert_allclose(lam_i, AXES_LAMBDA_INITIAL, atol=1e-12)
    np.testing.assert_allclose(lam_f, AXES_LAMBDA_FINAL, atol=1e-12)
    assert verdict(lam_i, lam_f) is Verdict.INCOMPARABLE


def test_axes_flipped_spectrum_phase_independent(rng):
    base = schmidt_decompose(build_family_state_flipped(AXES_PARAMS), [0])
    for _ in range(20):
        chi, eta = rng.uniform(-np.pi, np.pi, size=2)
        lam = schmidt_decompose(build_family_state_flipped(AXES_PARAMS, mu=eta, nu=chi), [0])
        np.testing.assert_allclose(lam, base, atol=1e-12)


def test_axes_experiment_record():
    result = axes_experiment(chi=1.3, eta=2.1)
    assert result.verdict is Verdict.INCOMPARABLE
    assert result.max_err < 1e-12
    # 3 t_initial sits exactly on pi, which the half-open quadrants file under Q3
    assert result.ordering is not None and result.ordering.startswith("Q3")


def test_flipper_pair_bob_levels_orthonormal(rng):
    psi = random_qubit(rng)
    state_i, _ = build_flipper_pair(psi, *FLIPPER_WEIGHTS)
    # the three Bob levels live in the amplitude blocks of the qutrit index
    blocks = state_i.amplitudes.reshape(3, 4)
    gram = blocks @ blocks.conj().T
    np.testing.assert_allclose(gram, np.diag([0.51, 0.30, 0.19]), atol=1e-14)


def test_flipper_pair_spectra_and_verdict(rng):
    psi = random_qubit(rng)
    state_i, state_f = build_flipper_pair(psi, *FLIPPER_WEIGHTS)
    lam_i = schmidt_decompose(state_i, [0])
    lam_f = schmidt_decompose(state_f, [0])
    np.testing.assert_allclose(lam_i, [0.51, 0.30, 0.19], atol=1e-12)
    np.testing.assert_allclose(lam_f, [0.49, 0.36, 0.15], atol=1e-12)
    assert verdict(lam_i, lam_f) is Verdict.INCOMPARABLE


def test_flipper_bloch_reversal(rng):
    for _ in range(25):
        psi = random_qubit(rng)
        direction = qubit_to_bloch(psi)
        state_i, state_f = build_flipper_pair(psi, *FLIPPER_WEIGHTS)
        np.testing.assert_allclose(
            density_to_bloch(bob_qubit_reduction(state_i)), 0.02 * direction, atol=1e-12
        )
        np.testing.assert_allclose(
            density_to_bloch(bob_qubit_reduction(state_f)), -0.02 * direction, atol=1e-12
        )


def test_bob_qubit_reduction_contract(rng):
    psi = random_qubit(rng)
    state_i, _ = build_flipper_pair(psi, *FLIPPER_WEIGHTS)
    rho = bob_qubit_reduction(state_i)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    with pytest.raises(DimensionError):
        bob_qubit_reduction(PureState(np.array([1, 0, 0, 0], dtype=complex), (2, 2)))


def test_flipper_experiment_record():
    result = flipper_experiment(seed=3)
    assert result.verdict is Verdict.INCOMPARABLE
    assert result.max_err < 1e-12
    other = flipper_experiment(seed=4)
    assert np.max(np.abs(result.direction - other.direction)) > 1e-3


def test_family_reduced_matrix_closed_forms(rng):
    for _ in range(50):
        p = _random_params(rng)
        mu, nu = rng.uniform(-np.pi, np.pi, size=2)
        state = build_family_state(p)
        reduced = partial_trace(state.density(), [3, 2, 2], [0])
        np.testing.assert_allclose(reduced, family_reduced_initial(p), atol=1e-12)

        flipped = build_family_state_flipped(p, mu, nu)
        reduced_f = partial_trace(flipped.density(), [3, 2, 2], [0])
        np.testing.assert_allclose(reduced_f, family_reduced_flipped(p, mu, nu), atol=1e-12)


def test_family_reduced_initial_entry_placement(rng):
    p = _random_params(rng)
    _, psi, phi = canonical_triple(p)
    m = family_reduced_initial(p) * 3.0
    assert abs(m[0, 1] - p.a * p.c) < 1e-14
    assert abs(m[0, 2] - p.a * p.c) < 1e-14
    assert abs(m[1, 2] - abs(np.vdot(psi, phi)) ** 2) < 1e-14


def test_family_reduced_flipped_negated_convention(rng):
    # the same matrix with -a*c off-diagonal entries arises at phases
    # shifted by pi, because the complement convention differs by a sign
    for _ in range(20):
        p = _random_params(rng)
        mu, nu = rng.uniform(-np.pi, np.pi, size=2)
        _, psi, phi = canonical_triple(p)
        ac = p.a * p.c
        phi_psi = np.vdot(phi, psi)
        psi_phi = np.vdot(psi, phi)
        printed = (
            np.array(
                [
                    [1.0, -ac * np.exp(-1j * nu), -ac * np.exp(-1j * mu)],
                    [-ac * np.exp(1j * nu), 1.0, phi_psi**2 * np.exp(1j * (nu - mu))],
                    [-ac * np.exp(1j * mu), psi_phi**2 * np.exp(1j * (mu - nu)), 1.0],
                ],
                dtype=complex,
            )
            / 3.0
        )
        ours = family_reduced_flipped(p, mu=mu + np.pi, nu=nu + np.pi)
        np.testing.assert_allclose(ours, printed, atol=1e-12)


def test_family_flipped_spectrum_phase_independent(rng):
    p = _random_params(rng)
    base = schmidt_decompose(build_family_state_flipped(p), [0])
    for _ in range(20):
        mu, nu = rng.uniform(-np.pi, np.pi, size=2)
        lam = schmidt_decompose(build_family_state_flipped(p, mu, nu), [0])
        np.testing.assert_allclose(lam, base, atol=1e-12)


def test_general_experiment_axes_point():
    result = general_flip_experiment(AXES_PARAMS)
    assert result.verdict is Verdict.INCOMPARABLE
    assert abs(result.coeff_a - 0.25) < 1e-15
    assert abs(result.coeff_b - 0.25) < 1e-15
    assert abs(result.coeff_bprime) < 1e-15
    np.testing.assert_allclose(result.numeric_initial, AXES_LAMBDA_INITIAL, atol=1e-12)


def test_general_experiment_interior_point_with_numeric_oracle(rng):
    p = FlipParams(a=0.8, c=0.6, theta=2 * np.pi / 3)
    result = general_flip_experiment(p)
    assert result.verdict is Verdict.INCOMPARABLE
    assert result.max_err < 1e-9
    assert result.ordering is not None

    # independent oracle: rebuild the reduced matrices directly and eigensolve
    # with numpy, then re-apply the partial-sum test inline
    state = build_family_state(p)
    flipped = build_family_state_flipped(p)
    rho_i = state.amplitudes.reshape(3, 4) @ state.amplitudes.reshape(3, 4).conj().T
    rho_f = flipped.amplitudes.reshape(3, 4) @ flipped.amplitudes.reshape(3, 4).conj().T
    lam_i = np.linalg.eigvalsh(rho_i)[::-1]
    lam_f = np.linalg.eigvalsh(rho_f)[::-1]
    np.testing.assert_allclose(lam_i, result.numeric_initial, atol=1e-12)
    np.testing.assert_allclose(lam_f, result.numeric_final, atol=1e-12)
    fwd = np.all(np.cumsum(lam_i) <= np.cumsum(lam_f) + 1e-12)
    bwd = np.all(np.cumsum(lam_f) <= np.cumsum(lam_i) + 1e-12)
    assert not fwd and not bwd


def test_general_experiment_degenerate_point():
    p = FlipParams(a=1.0, c=0.37, theta=1.1)
    result = general_flip_experiment(p)
    assert result.degenerate
    assert result.verdict is Verdict.INTERCONVERTIBLE
    np.testing.assert_allclose(result.numeric_initial, result.numeric_final, atol=1e-10)
    assert result.ordering is None


@pytest.mark.parametrize("margin", [0.0, -1.0, 1.0, float("nan"), 1e-9])
def test_general_experiment_rejects_margin_outside_unit_interval(margin):
    # a margin <= 0 would silently turn off the degeneracy exemption, and one
    # below MIN_MARGIN would let live points whose gaps are roundoff through
    with pytest.raises(ValueError, match=r"margin must lie in \[3\.7e-07, 1\)"):
        general_flip_experiment(FlipParams(a=0.8, c=0.6, theta=1.0), margin=margin)


def test_general_experiment_raises_on_forced_disagreement(monkeypatch):
    import qflip.constructions as cons

    p = FlipParams(a=0.8, c=0.6, theta=1.0)
    monkeypatch.setattr(cons, "SPECTRUM_AGREEMENT_TOL", -1.0)
    with pytest.raises(VerificationError):
        cons.general_flip_experiment(p)


def test_analytic_numeric_agreement_small_grid(rng):
    ticks = np.arange(1, 11) / 11.0
    for a in ticks[::3]:
        for c in ticks[::3]:
            for theta in (ticks * np.pi)[::3]:
                p = FlipParams(a=a, c=c, theta=theta)
                result = general_flip_experiment(p, margin=1e-3)
                assert result.max_err < 1e-9


def _count_calls(monkeypatch, targets: dict) -> Counter:
    """Count the calls of each named function, patched in every qflip module that holds it."""
    counts = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "qflip"]:
        for name, real in targets.items():
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting(name, real))
    return counts


def test_general_experiment_evaluates_each_closed_form_once(monkeypatch):
    # both cubics are solved in one call (the one labeled-root pass), their
    # gaps taken once from those roots, and the atlas is checked once; the
    # route gate consults route_tolerance only for a row beyond
    # SPECTRUM_AGREEMENT_TOL, so never here; b and d are computed once, for
    # both routes of grid_eval and the degeneracy measure it returns
    counts = _count_calls(
        monkeypatch,
        {
            "complements": bloch.complements,
            "cubic_roots_rows": cubic.cubic_roots_rows,
            "labeled_roots_rows": cubic.labeled_roots_rows,
            "root_gaps_rows": cubic.root_gaps_rows,
            "check_atlas": constructions.check_atlas,
            "route_tolerance": constructions.route_tolerance,
        },
    )
    result = general_flip_experiment(FlipParams(a=0.3, c=0.7, theta=1.2), mu=0.4, nu=2.0)
    assert result.ordering is not None
    assert {"route_tolerance": 0, **counts} == {
        "complements": 1,
        "cubic_roots_rows": 1,
        "labeled_roots_rows": 1,
        "root_gaps_rows": 1,
        "check_atlas": 1,
        "route_tolerance": 0,
    }


def test_axes_experiment_is_one_certified_family_row(monkeypatch):
    # the axes case is certified by the sweep's route, like any family point,
    # with the phases (chi, eta) in the roles of (nu, mu)
    counts = _count_calls(
        monkeypatch,
        {"grid_eval": kernels.grid_eval, "certify_rows": constructions.certify_rows},
    )
    phases = []
    counting_grid_eval = constructions.kernels.grid_eval

    def grid_eval(a, c, theta, mu, nu):
        phases.append((mu, nu))
        return counting_grid_eval(a, c, theta, mu, nu)

    monkeypatch.setattr(constructions.kernels, "grid_eval", grid_eval)
    result = axes_experiment(chi=0.4, eta=0.7)
    assert result.params == AXES_PARAMS and phases == [(0.7, 0.4)]
    assert counts == {"grid_eval": 1, "certify_rows": 1}


def _certified_batch(a, c, theta, mu, nu):
    """grid_eval and certify_rows on one batch of points, every result as an array."""
    rows = kernels.grid_eval(a, c, theta, mu, nu)
    live = np.abs(rows["m"]) > DEFAULT_DEGENERACY_MARGIN
    max_err, codes = certify_rows(rows, live)
    return {**rows, "max_err": max_err, "codes": codes, "ordering": CODE_LABELS[codes]}


def test_certify_route_is_bit_identical_across_batch_sizes():
    # a single point is a one-row call of the sweep's batched route, so every
    # array it returns must carry a batch row's bytes, whatever the batch size;
    # 8193 rows is one more than a sweep chunk
    rng = np.random.default_rng(20261019)
    n = 200
    a = np.concatenate([rng.uniform(0.0, 1.0, n), [AXES_PARAMS.a, 0.0, 0.0]])
    c = np.concatenate([rng.uniform(0.0, 1.0, n), [AXES_PARAMS.c, 0.5, 1.0]])
    theta = np.concatenate([rng.uniform(0.0, np.pi, n), [AXES_PARAMS.theta, 1.0, 1.0]])
    mu, nu = rng.uniform(-np.pi, np.pi, (2, n + 3))
    points = np.arange(n + 3)
    # one-row calls take the phases as floats, as general_flip_experiment does
    singles = [_certified_batch(a[[j]], c[[j]], theta[[j]], float(mu[j]), float(nu[j])) for j in points]
    assert singles[-1]["A"][0] == 0.0  # (0, 1, 1): b d vanishes, and with it A
    # every row is checked and named, the degenerate ones included
    assert None not in [single["ordering"][0] for single in singles]

    for size in (2, 7, 8193):
        # every point at least once, the last batch filled up from the first points
        index = np.resize(points, max(size, -(-(n + 3) // size) * size))
        for start in range(0, index.size, size):
            rows = index[start : start + size]
            batch = _certified_batch(a[rows], c[rows], theta[rows], mu[rows], nu[rows])
            for k, j in enumerate(rows):
                for key, value in singles[j].items():
                    got, want = batch[key][k], value[0]
                    if key == "ordering":
                        assert got == want, (size, j, key)
                    else:
                        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (size, j, key)


@pytest.mark.parametrize("margin", [DEFAULT_DEGENERACY_MARGIN, MIN_MARGIN], ids=["default", "MIN_MARGIN"])
def test_certificate_holds_at_seeded_points_near_the_edges(margin):
    # 300,000 seeded points, each with one of a, c, theta within 1e-7..1e-3
    # of an edge, put many live points just beyond the margin, where the
    # outer gaps fall to 4 m^2 / (27 A): ~1.5e-13 at the default margin,
    # below a tie constant of 1e-12, and 2e-14 at MIN_MARGIN, twice the
    # eigensolver bound.  Every live one must be certified Incomparable,
    # chunk by chunk as a sweep certifies.
    rng = np.random.default_rng(22)
    n, chunk = 300_000, 4096
    near = 10.0 ** rng.uniform(-7.0, -3.0, n)
    a, c = rng.uniform(0.0, 1.0, (2, n))
    theta = rng.uniform(0.0, np.pi, n)
    edge, low = rng.integers(0, 3, n), rng.random(n) < 0.5
    a = np.where(edge == 0, np.where(low, near, 1.0 - near), a)
    c = np.where(edge == 1, np.where(low, near, 1.0 - near), c)
    theta = np.where(edge == 2, np.where(low, near, np.pi - near), theta)
    b, d = bloch.complements(a, c)
    live = np.abs(a * b * c * d * np.sin(theta)) > margin
    points = np.stack([a, c, theta])[:, live]
    below_the_tie_constant = 0
    for start in range(0, points.shape[1], chunk):
        rows = kernels.grid_eval(*points[:, start : start + chunk])
        certify_rows(rows, live=True)
        outer = (rows["spectra"][:, 0] - rows["spectra"][:, 1])[:, ::2]
        below_the_tie_constant += int((outer.min(axis=1) < 1e-12).sum())
    assert live.sum() > 150_000 and below_the_tie_constant > 1_000


def test_certificate_needs_the_closed_form_signs(monkeypatch):
    # numeric signs alone certify nothing: with its measure set to 0 the
    # closed-form gaps of a row vanish, so it fails as a live row, and as a
    # degenerate point it gets the closed form's Interconvertible
    rows = kernels.grid_eval(np.array([0.3]), np.array([0.7]), np.array([1.2]))
    certify_rows(rows, live=True)
    rows["m"][0] = 0.0
    with pytest.raises(VerificationError, match=r"Incomparable not certified at 1 points.*\[0.0, 0.0, 0.0\] closed-form"):
        certify_rows(rows, live=True)
    monkeypatch.setattr(constructions.kernels, "grid_eval", lambda *args: rows)
    result = general_flip_experiment(FlipParams(a=0.3, c=0.7, theta=1.2))
    assert result.degenerate and result.verdict is Verdict.INTERCONVERTIBLE


def _near_double_root_rows():
    """grid_eval rows of the axes point, whose initial cubic has the double
    root 1/6 (B = 2 A^{3/2} exactly), beside an ordinary point, twice over."""
    rows = kernels.grid_eval(*np.tile([[AXES_PARAMS.a, 0.3], [AXES_PARAMS.c, 0.7], [AXES_PARAMS.theta, 1.2]], 2))
    return {**rows, "spectra": rows["spectra"].copy()}


def test_route_tolerance_widens_beyond_the_base_only_near_a_double_root(monkeypatch):
    rows = _near_double_root_rows()
    edge = 2.0 * rows["A"] ** 1.5
    assert abs(edge[0] - rows["B"][0]) < 1e-9 * edge[0] and abs(edge[1] - rows["B"][1]) > 1e-3
    widened = route_tolerance(rows["A"], rows["B_pair"])
    assert widened[0] > 50 * SPECTRUM_AGREEMENT_TOL and widened[1] == SPECTRUM_AGREEMENT_TOL
    consulted = []

    def recording(coeff_a, b_vals):
        consulted.append(coeff_a.tolist())
        return route_tolerance(coeff_a, b_vals)

    monkeypatch.setattr(constructions, "route_tolerance", recording)
    # an error in (base, widened] passes the near-double-root row; only the
    # rows beyond the base tolerance are given to route_tolerance, not the
    # same point's row within it
    rows["spectra"][0, 1, 0] += 0.5 * widened[0]
    rows["spectra"][2, 1, 0] += 0.5 * SPECTRUM_AGREEMENT_TOL
    max_err, _ = certify_rows(rows, live=True)
    assert SPECTRUM_AGREEMENT_TOL < max_err[0] <= widened[0] and max_err[2] <= SPECTRUM_AGREEMENT_TOL
    assert consulted == [[rows["A"][0]]]
    # beyond the widened tolerance, or NaN, it fails, and so does an ordinary
    # row beyond the base tolerance
    where = f"a={AXES_PARAMS.a!r}, c={AXES_PARAMS.c!r}, theta={AXES_PARAMS.theta!r}"
    for row, error in [(0, 2.0 * widened[0]), (0, np.nan), (1, 2.0 * SPECTRUM_AGREEMENT_TOL)]:
        broken = {**rows, "spectra": rows["spectra"].copy()}
        broken["spectra"][row, 1, 0] = broken["roots"][row, 1, 0] + error
        consulted.clear()
        first = where if row == 0 else "a=0.3, c=0.7, theta=1.2"
        with pytest.raises(VerificationError, match=f"spectra disagree beyond 1e-09 at 1 points, first at {first}"):
            certify_rows(broken, live=True)
        assert consulted == ([[rows["A"][0], rows["A"][1]]] if row else [[rows["A"][0]]])


def _broken_batch(breaks) -> dict:
    """grid_eval rows of eight family points, each (check, row) of ``breaks``
    made to fail that check."""
    points = [(a, c, t) for a in (0.2, 0.7) for c in (0.3, 0.8) for t in (0.4, 2.6)]
    rows = kernels.grid_eval(*(np.array(x) for x in zip(*points)))
    rows = {**rows, **{key: rows[key].copy() for key in ("roots", "spectra", "theta_i", "theta_f")}}
    for check, j in breaks:
        if check == "route":
            rows["spectra"][j, 1, 0] += 2e-9
        elif check == "nan":
            rows["spectra"][j, 0, 2] = np.nan
        elif check == "descent":  # a2 and a3 traded in both routes
            for key in ("roots", "spectra"):
                rows[key][j, 0, [1, 2]] = rows[key][j, 0, [2, 1]]
        elif check == "signs":  # a1 and b1 traded in both routes
            for key in ("roots", "spectra"):
                rows[key][j, :, 0] = rows[key][j, ::-1, 0]
        elif check == "atlas":  # 3t = 0.6 lies in Q1, which has no entry
            rows["theta_i"][j] = 0.2
        elif check == "angle":
            rows["theta_f"][j] = np.inf
    return rows


# The exception and message of each batch: the first failing check, in the
# order route, descent, signs, atlas, names its own count and first row,
# whatever rows fail later checks.
FAILURE_ORDER = {
    "route_before_descent": (
        [("descent", 1), ("route", 5)], True, VerificationError,
        "analytic and numeric spectra disagree beyond 1e-09 at 1 points, first at a=0.7, c=0.3, theta=2.6 "
        "(error 2.000e-09)",
    ),
    "route_count_and_first": (
        [("signs", 0), ("route", 6), ("descent", 2), ("nan", 3)], True, VerificationError,
        "analytic and numeric spectra disagree beyond 1e-09 at 2 points, first at a=0.2, c=0.8, theta=2.6 "
        "(error nan)",
    ),
    "descent_before_signs": (
        [("signs", 1), ("descent", 4), ("atlas", 0)], True, VerificationError,
        "closed-form roots do not descend at 1 points, first at a=0.7, c=0.3, theta=0.4: "
        "[[0.6242643400795821, 0.07608728890719774, 0.29964837101322], "
        "[0.6216468612557066, 0.30593276657644713, 0.0724203721678462]]",
    ),
    "signs_before_atlas": (
        [("atlas", 2), ("signs", 5), ("signs", 7)], True, VerificationError,
        "Incomparable not certified at 2 points, first at a=0.7, c=0.3, theta=2.6: gaps lam - lam' "
        "[0.018363793201945082, -0.06137148193435819, 0.04300768873241311] closed-form, "
        "[-0.018363793201944922, -0.06137148193435826, 0.04300768873241298] numeric, not (+, -, +) beyond 1e-14",
    ),
    "signs_only_where_live": (
        [("signs", 1), ("atlas", 6)], np.arange(8) != 1, OrderingMismatchError,
        "region pair ('Q1', 'Q2') has no atlas entry",
    ),
    "angle_before_entry": (
        [("atlas", 1), ("angle", 4)], False, OrderingMismatchError,
        "row 4 has a non-finite angle: theta_i=0.6296324831804266, theta_f=inf",
    ),
    "entry": ([("atlas", 3), ("atlas", 6)], True, OrderingMismatchError, "region pair ('Q1', 'Q2') has no atlas entry"),
}


@pytest.mark.parametrize("case", list(FAILURE_ORDER))
def test_certificate_failures_keep_their_order(case):
    breaks, live, error, message = FAILURE_ORDER[case]
    with pytest.raises(error) as raised:
        certify_rows(_broken_batch(breaks), live)
    assert type(raised.value) is error and str(raised.value) == message


# Weights whose Bob qubit is reversed exactly (w1 + w1' = 1) although the
# pair is comparable: reversal alone does not make a pair incomparable.
COMPARABLE_REVERSING_WEIGHTS = ((0.51, 0.48, 0.01), (0.49, 0.36, 0.15))


def test_reversing_pair_can_be_comparable():
    initial, final = COMPARABLE_REVERSING_WEIGHTS
    assert verdict(initial, final) is Verdict.BACKWARD_CERTAIN
    rng = np.random.default_rng(5)
    for _ in range(50):
        psi = random_qubit(rng)
        direction = qubit_to_bloch(psi)
        lam_i, rho_i = flipper_reductions(psi, initial)
        _, rho_f = flipper_reductions(psi, final)
        np.testing.assert_allclose(lam_i, initial, atol=1e-12)
        np.testing.assert_allclose(density_to_bloch(rho_i), 0.02 * direction, atol=1e-15)
        np.testing.assert_allclose(density_to_bloch(rho_f), -0.02 * direction, atol=1e-15)


def test_flipper_gram_route_matches_the_composite_states_bit_for_bit():
    # the Gram route sums in the partial trace's order and symmetrizes as
    # hermitian_eigenvalues does, so it reproduces the full 12-dim states'
    # spectrum and Bob-qubit reduction byte for byte
    for seed in range(200):
        psi = random_qubit(np.random.default_rng(seed))
        for weights in (FLIPPER_WEIGHTS, COMPARABLE_REVERSING_WEIGHTS):
            for state, w in zip(build_flipper_pair(psi, *weights), weights):
                lam, rho = flipper_reductions(psi, w)
                oracle_rho = bob_qubit_reduction(state)
                assert lam.tobytes() == schmidt_decompose(state, [0]).tobytes(), (seed, w)
                assert rho.tobytes() == oracle_rho.tobytes(), (seed, w)
                assert density_to_bloch(rho).tobytes() == density_to_bloch(oracle_rho).tobytes(), (seed, w)
