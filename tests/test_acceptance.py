"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.  The heavy grid criteria evaluate all 40x40x40 parameter points
through the batched numpy kernel.
"""

import time
from collections import Counter
from math import pi

import numpy as np
import pytest

from qflip import kernels
from qflip.bloch import FlipParams, complements, density_to_bloch, qubit_to_bloch, random_qubit
from qflip.constructions import (
    AXES_LAMBDA_FINAL,
    AXES_LAMBDA_INITIAL,
    AXES_PARAMS,
    FLIPPER_WEIGHTS_FINAL,
    FLIPPER_WEIGHTS_INITIAL,
    general_flip_experiment,
)
from qflip.cubic import cubic_coefficients_rows
from qflip.ordering import CODE_LABELS, PATTERN_ATLAS, REGION_BOUNDS, _region_index, check_atlas
from qflip.schmidt import Verdict, incomparable_3dim, verdict

from conftest import prob_vectors, random_prob_vector, random_strict_triple, strict_triples
from oracle import (
    bob_qubit_reduction,
    build_family_state,
    build_family_state_flipped,
    build_flipper_pair,
    canonical_triple,
    entanglement_entropy,
    great_circle_test,
    schmidt_decompose,
)

ALL_PATTERN_IDS = {f"{ri}{rf}" for ri, rf in PATTERN_ATLAS}
GRID_N = 40
GRID_MARGIN = 1e-3


def _report(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS — {message}")


@pytest.fixture(scope="module")
def grid():
    ticks = np.arange(1, GRID_N + 1) / (GRID_N + 1)
    aa, cc, tt = np.meshgrid(ticks, ticks, ticks * pi, indexing="ij")
    flat = aa.ravel(), cc.ravel(), tt.ravel()
    start = time.perf_counter()
    data = kernels.grid_eval(*flat)
    elapsed = time.perf_counter() - start
    data["a"], data["c"], data["theta"] = flat
    data["eval_seconds"] = elapsed
    data["mask"] = np.abs(data["m"]) > GRID_MARGIN
    data["max_err"] = np.abs(data["roots"] - data["spectra"]).max(axis=(1, 2))
    return data


def test_criterion_1_axes_experiment():
    start = time.perf_counter()
    # the x/y/z axis states are the family's canonical triple at AXES_PARAMS
    lam_i = schmidt_decompose(build_family_state(AXES_PARAMS), [0])
    lam_f = schmidt_decompose(build_family_state_flipped(AXES_PARAMS), [0])
    np.testing.assert_allclose(lam_i, AXES_LAMBDA_INITIAL, atol=1e-12)
    np.testing.assert_allclose(lam_f, AXES_LAMBDA_FINAL, atol=1e-12)
    assert verdict(lam_i, lam_f) is Verdict.INCOMPARABLE
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"axes spectra exact to 1e-12 and Incomparable in {elapsed:.3f}s")


def test_criterion_2_flipper_experiment():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        psi = random_qubit(rng)
        direction = qubit_to_bloch(psi)
        state_i, state_f = build_flipper_pair(psi, FLIPPER_WEIGHTS_INITIAL, FLIPPER_WEIGHTS_FINAL)
        dev_i = np.max(np.abs(density_to_bloch(bob_qubit_reduction(state_i)) - 0.02 * direction))
        dev_f = np.max(np.abs(density_to_bloch(bob_qubit_reduction(state_f)) + 0.02 * direction))
        worst = max(worst, dev_i, dev_f)
    assert worst < 1e-12
    assert verdict([0.51, 0.30, 0.19], [0.49, 0.36, 0.15]) is Verdict.INCOMPARABLE
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"100 random directions reversed (worst dev {worst:.2e}) in {elapsed:.3f}s")


def test_criterion_3_general_family_grid(grid):
    mask = grid["mask"]
    count = int(mask.sum())
    assert count > 0

    # (i) analytic vs numeric spectra
    max_err = float(grid["max_err"][mask].max())
    assert max_err <= 1e-9

    # (ii) Incomparable everywhere: neither cumulative-sum direction dominates
    cs_i = np.cumsum(grid["num_alpha"][mask], axis=1)
    cs_f = np.cumsum(grid["num_beta"][mask], axis=1)
    fwd = np.all(cs_i <= cs_f + 1e-12, axis=1)
    bwd = np.all(cs_f <= cs_i + 1e-12, axis=1)
    assert not np.any(fwd | bwd)
    spot = np.flatnonzero(mask)[:: max(1, count // 50)]
    for i in spot:
        assert verdict(grid["num_alpha"][i], grid["num_beta"][i]) is Verdict.INCOMPARABLE

    # (iii) coefficient identity and (iv) sign constraints
    a, c, t = grid["a"][mask], grid["c"][mask], grid["theta"][mask]
    b, d = np.sqrt(1 - a * a), np.sqrt(1 - c * c)
    gap = grid["B"][mask] - grid["Bprime"][mask]
    identity = 4.0 * (a * b * c * d * np.sin(t)) ** 2
    assert np.max(np.abs(gap - identity)) <= 1e-12
    assert np.all(grid["B"][mask] >= 0.0)
    assert np.all(gap >= 0.0)

    assert grid["eval_seconds"] < 60.0
    _report(
        3,
        f"{count} grid points: max spectrum error {max_err:.2e}, all Incomparable, "
        f"identities hold, evaluated in {grid['eval_seconds']:.2f}s ({kernels.BACKEND})",
    )


def test_criterion_4_ordering_atlas_coverage(grid):
    mask = grid["mask"]
    # every point is placed in the atlas in one batched pass; the mirrors
    # 2pi - 3t of the principal angles witness the other representative pairs
    theta = np.stack([grid["theta_i"][mask], grid["theta_f"][mask]], axis=1)
    codes = check_atlas(theta[:, 0], theta[:, 1])
    regions = np.stack(np.divmod(codes, 4), axis=1)  # (point, spectrum) quadrant indices
    mirrors = _region_index(2.0 * pi - 3.0 * theta)
    names = tuple(REGION_BOUNDS)
    reps = np.stack([regions, mirrors], axis=2)  # (point, spectrum, representative)
    pairs = np.unique(4 * reps[:, 0, :, None] + reps[:, 1, None, :])
    witnessed = {names[code // 4] + names[code % 4] for code in pairs.tolist()}
    pattern_counts = dict(Counter(label.split(":")[0] for label in CODE_LABELS[codes]))
    for i in np.flatnonzero(mask):
        closed_form = incomparable_3dim(*grid["roots"][i])
        if closed_form is None:  # a tie the closed form cannot decide
            assert verdict(*grid["roots"][i]) is Verdict.INCOMPARABLE
        else:
            assert closed_form is True
    assert witnessed == ALL_PATTERN_IDS
    _report(
        4,
        f"every point matches the atlas, all {len(ALL_PATTERN_IDS)} region cases witnessed "
        f"(primary counts {pattern_counts}), closed-form incomparability holds at each",
    )


def test_criterion_5_phase_independence():
    rng = np.random.default_rng(17)
    base_axes = schmidt_decompose(build_family_state_flipped(AXES_PARAMS), [0])
    p = FlipParams(a=0.63, c=0.41, theta=1.9)
    base_family = schmidt_decompose(build_family_state_flipped(p), [0])
    worst = 0.0
    for _ in range(20):
        chi, eta, mu, nu = rng.uniform(-pi, pi, size=4)
        lam_axes = schmidt_decompose(build_family_state_flipped(AXES_PARAMS, mu=eta, nu=chi), [0])
        lam_family = schmidt_decompose(build_family_state_flipped(p, mu, nu), [0])
        worst = max(
            worst,
            float(np.max(np.abs(lam_axes - base_axes))),
            float(np.max(np.abs(lam_family - base_family))),
        )
    assert worst < 1e-12
    _report(5, f"spectra drift {worst:.2e} over 20 random phase pairs")


def test_criterion_6_degenerate_family():
    rng = np.random.default_rng(99)
    points = []
    for _ in range(34):
        points.append(FlipParams(a=1.0, c=rng.uniform(0.05, 0.95), theta=rng.uniform(0.1, pi - 0.1)))
    for _ in range(33):
        points.append(FlipParams(a=rng.uniform(0.05, 0.95), c=1.0, theta=rng.uniform(0.1, pi - 0.1)))
    for k in range(33):
        points.append(
            FlipParams(
                a=rng.uniform(0.05, 0.95),
                c=rng.uniform(0.05, 0.95),
                theta=0.0 if k % 2 else pi,
                allow_boundary_theta=True,
            )
        )
    assert len(points) == 100
    for p in points:
        result = general_flip_experiment(p)
        assert result.degenerate
        assert result.verdict is Verdict.INTERCONVERTIBLE
        np.testing.assert_allclose(result.numeric_initial, result.numeric_final, atol=1e-10)
        b, d = complements(p.a, p.c)
        _, coeff_b, coeff_bp = cubic_coefficients_rows(p.a, b, p.c, d, p.theta)
        assert great_circle_test(*canonical_triple(p)) == (abs(coeff_b - coeff_bp) <= 1e-10)
    # the equivalence also holds at generic non-degenerate points
    for _ in range(100):
        p = FlipParams(
            a=rng.uniform(0.05, 0.95), c=rng.uniform(0.05, 0.95), theta=rng.uniform(0.1, pi - 0.1)
        )
        b, d = complements(p.a, p.c)
        _, coeff_b, coeff_bp = cubic_coefficients_rows(p.a, b, p.c, d, p.theta)
        assert great_circle_test(*canonical_triple(p)) == (abs(coeff_b - coeff_bp) <= 1e-10)
    _report(6, "100 exactly-degenerate points interconvertible; great-circle test matches |B-B'|<=1e-10")


def _incomparable_rows(pairs) -> np.ndarray:
    """Whether :func:`verdict` finds each pair of an (n, 2, k) stack incomparable."""
    return np.array([verdict(a, b) is Verdict.INCOMPARABLE for a, b in pairs])


def test_criterion_7_criterion_equivalence():
    rng = np.random.default_rng(4242)
    # the draws of 2e5 random_strict_triple calls, then of 2e5 random_prob_vector(rng, 2) calls
    triples = strict_triples(rng, 200_000).reshape(100_000, 2, 3)
    closed_form = np.array([incomparable_3dim(a, b) for a, b in triples])
    disagreements = int(np.sum(closed_form != _incomparable_rows(triples)))
    assert disagreements == 0
    pairs = prob_vectors(rng, 2, 200_000).reshape(100_000, 2, 2)
    disagreements += int(np.sum(_incomparable_rows(pairs)))
    assert disagreements == 0
    _report(7, "closed-form test agrees with the majorization verdict on 1e5 triples; no 2-dim incomparables in 1e5")


@pytest.mark.parametrize("min_gap", [1e-6, 0.05])
def test_criterion_7_block_draws_repeat_the_sequential_draws(min_gap):
    # at min_gap 0.05 about one draw in four is rejected, so the prefix holds rejections
    sequential, blocked = np.random.default_rng(4242), np.random.default_rng(4242)
    expected = [random_strict_triple(sequential, min_gap) for _ in range(2_000)]
    expected += [random_prob_vector(sequential, 2) for _ in range(2_000)]
    drawn = list(strict_triples(blocked, 2_000, min_gap)) + list(prob_vectors(blocked, 2, 2_000))
    assert len(drawn) == len(expected)
    assert all(np.array_equal(x, y) for x, y in zip(drawn, expected))
    assert blocked.bit_generator.state == sequential.bit_generator.state


def test_criterion_8_entropy_monotonicity():
    rng = np.random.default_rng(31337)
    forward_seen = 0
    for _ in range(20_000):
        n = int(rng.integers(2, 4))
        a = random_prob_vector(rng, n)
        b = random_prob_vector(rng, n)
        if verdict(a, b) is Verdict.FORWARD_CERTAIN:
            forward_seen += 1
            assert entanglement_entropy(a) >= entanglement_entropy(b) - 1e-10
    assert forward_seen > 100
    _report(8, f"entropy monotone across {forward_seen} ForwardCertain pairs")
