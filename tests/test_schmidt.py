from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qflip.constructions import AXES_LAMBDA_FINAL, AXES_PARAMS
from qflip.schmidt import (
    EPS_TIE,
    Verdict,
    incomparable_3dim,
    verdict,
)

from conftest import random_prob_vector, random_strict_triple, random_unitary
from oracle import (
    DimensionError,
    PureState,
    build_family_state,
    entanglement_entropy,
    kron,
    schmidt_decompose,
    stacked_verdict,
)


def _brute_incomparable(a, b, eps=EPS_TIE):
    # independent partial-sum check, deliberately rewritten from scratch
    a, b = np.sort(a)[::-1], np.sort(b)[::-1]
    fwd = all(sum(a[: k + 1]) <= sum(b[: k + 1]) + eps for k in range(len(a)))
    bwd = all(sum(b[: k + 1]) <= sum(a[: k + 1]) + eps for k in range(len(a)))
    return not fwd and not bwd


def _majorizes(lo, hi):
    """``lo`` is majorized by ``hi``: the forward half of the verdict."""
    return verdict(lo, hi) in (Verdict.FORWARD_CERTAIN, Verdict.INTERCONVERTIBLE)


def _brute_majorizes(lo, hi, eps=EPS_TIE):
    # plain partial-sum loop over descending, zero-padded copies
    lo = sorted((float(x) for x in lo), reverse=True)
    hi = sorted((float(x) for x in hi), reverse=True)
    size = max(len(lo), len(hi))
    lo += [0.0] * (size - len(lo))
    hi += [0.0] * (size - len(hi))
    sum_lo = sum_hi = 0.0
    for x, y in zip(lo, hi):
        sum_lo += x
        sum_hi += y
        if not sum_lo <= sum_hi + eps:
            return False
    return True


# Entries are multiples of 1/64 shifted by -1, 0 or +1 tie tolerances, so
# leading partial sums often coincide or differ by exactly one tolerance.
_QUANTUM = 1.0 / 64.0
_entry = st.tuples(st.integers(0, 16), st.integers(-1, 1)).map(lambda t: t[0] * _QUANTUM + t[1] * EPS_TIE)
_entry_or_nan = st.one_of(_entry, st.just(float("nan")))


@st.composite
def _spectrum_stacks(draw):
    rows = draw(st.integers(1, 6))
    k, m = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    entry = draw(st.sampled_from((_entry, _entry_or_nan)))
    lo = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=rows, max_size=rows))
    hi = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=rows, max_size=rows))
    return lo, hi


@settings(max_examples=300, deadline=None)
@given(_spectrum_stacks())
def test_verdict_agrees_with_brute_force_and_stacked_verdict(stacks):
    lo, hi = stacks
    for x, y in zip(lo, hi):
        forward, backward = _brute_majorizes(x, y), _brute_majorizes(y, x)
        assert _majorizes(y, x) == backward
        assert verdict(x, y) is stacked_verdict(x, y)
        assert verdict(x, y) is {
            (True, True): Verdict.INTERCONVERTIBLE,
            (True, False): Verdict.FORWARD_CERTAIN,
            (False, True): Verdict.BACKWARD_CERTAIN,
            (False, False): Verdict.INCOMPARABLE,
        }[(forward, backward)]


def _kronecker_spectrum(rng, dims):
    """A Kronecker product of Dirichlet spectra of dimensions ``dims``, flat
    or peaked at random, unsorted as ``np.kron`` leaves it."""
    concentration = rng.choice((0.3, 1.0, 5.0))
    return reduce(np.kron, [rng.dirichlet(np.full(d, concentration)) for d in dims])


def test_verdict_agrees_with_stacked_verdict_on_long_kronecker_pairs():
    # 27 to 108 entries, the widths of the catalysis tests' products, where
    # the drawn pairs stop at 9; a pair of unequal widths is zero-padded
    rng = np.random.default_rng(5)
    seen = {True: set(), False: set()}  # verdicts by "equal widths"
    for _ in range(200):
        x = _kronecker_spectrum(rng, (3, 3, rng.integers(3, 13)))
        y = _kronecker_spectrum(rng, (3, 3, rng.integers(3, 13)))
        padded = np.append(y, np.zeros(rng.integers(0, 9)))
        # mixing with the flat spectrum is doubly stochastic: majorized by y
        mixed = padded + rng.uniform(0.05, 0.95) * (1.0 / padded.size - padded)
        for lhs, rhs in ((x, y), (x, rng.permutation(x)), (y, padded), (mixed, y), (y, mixed)):
            assert 27 <= min(lhs.size, rhs.size) and max(lhs.size, rhs.size) <= 116
            result = verdict(lhs, rhs)
            assert result is stacked_verdict(lhs, rhs)
            seen[lhs.size == rhs.size].add(result)
    assert seen == {True: set(Verdict), False: set(Verdict)}


def test_majorization_tie_at_eps_is_inclusive():
    # leading sums differing by exactly the tolerance still count as bounded
    lo = [0.5, 0.25, 0.25]
    hi = [0.5 - EPS_TIE, 0.25 + EPS_TIE, 0.25]
    assert _majorizes(lo, hi) and _brute_majorizes(lo, hi)
    assert not _brute_majorizes(lo, hi, eps=0.0)  # the pair sits on the tie
    assert verdict(lo, hi) is verdict(hi, lo) is Verdict.INTERCONVERTIBLE


def test_verdict_rejects_an_empty_side():
    with pytest.raises(ValueError):
        verdict([], [1.0])
    with pytest.raises(ValueError):
        verdict([], [])


# (lhs, rhs) in every form verdict reads as one row: lists, tuples, ranges,
# (k, 1) and (1, k) arrays, mixed shapes, unequal widths, unsorted, signed
# zero, infinite and NaN entries, each with its verdict (a NaN entry bounds
# no partial sum it enters)
_ONE_ROW_INPUTS = [
    ([0.51, 0.30, 0.19], [0.49, 0.36, 0.15], Verdict.INCOMPARABLE),
    ((0.6, 0.4), (0.7, 0.3), Verdict.FORWARD_CERTAIN),
    (np.array([[0.5], [0.3], [0.2]]), np.array([[0.6], [0.3], [0.1]]), Verdict.FORWARD_CERTAIN),
    (np.array([[0.5, 0.3, 0.2]]), np.array([[0.6, 0.3, 0.1]]), Verdict.FORWARD_CERTAIN),
    (np.array([[0.5], [0.3], [0.2]]), np.array([[0.5, 0.3, 0.2]]), Verdict.INTERCONVERTIBLE),
    ([0.2, 0.5, 0.3], [0.3, 0.3, 0.4], Verdict.BACKWARD_CERTAIN),
    ([0.5, 0.5], [0.4, 0.3, 0.3], Verdict.BACKWARD_CERTAIN),
    ((1.0,), np.array([[0.5], [0.5]]), Verdict.BACKWARD_CERTAIN),
    ([np.nan, 0.5, 0.5], [0.4, 0.3, 0.3], Verdict.INCOMPARABLE),
    ([0.5, 0.5], [np.nan, 0.7, 0.3], Verdict.INCOMPARABLE),
    ([0.5, 0.5, -0.0], [0.5, 0.5, 0.0], Verdict.INTERCONVERTIBLE),
    ([np.inf, 0], [1, 0], Verdict.BACKWARD_CERTAIN),
    (range(9, 0, -1), [20, 10, 10, 5], Verdict.FORWARD_CERTAIN),
    # partial sums added left to right: 1e5 + 5e-12 rounds to 1e5, so the
    # totals tie at 0; compensated sums would make the lhs total 5e-12
    ([1e5, 5e-12, -1e5], [1e5, 0, -1e5], Verdict.INTERCONVERTIBLE),
]


@pytest.mark.parametrize(
    "lhs, rhs, expected", _ONE_ROW_INPUTS, ids=[f"lhs{j}-rhs{j}" for j in range(len(_ONE_ROW_INPUTS))]
)
def test_verdict_is_one_row_of_verdict_codes(lhs, rhs, expected):
    assert verdict(lhs, rhs) is expected


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]), (2,))
    with pytest.raises(DimensionError):
        PureState(np.array([1.0, 0.0]), (3,))
    state = PureState(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2))
    assert state.density().shape == (4, 4)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.5


def test_schmidt_product_state():
    state = PureState(np.array([1, 0, 0, 0], dtype=complex), (2, 2))
    np.testing.assert_allclose(schmidt_decompose(state, [0]), [1.0, 0.0], atol=1e-14)


def test_schmidt_bell_state():
    state = PureState(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2), (2, 2))
    np.testing.assert_allclose(schmidt_decompose(state, [0]), [0.5, 0.5], atol=1e-14)


def test_schmidt_axes_state():
    lam = schmidt_decompose(build_family_state(AXES_PARAMS), [0])
    np.testing.assert_allclose(lam, [2 / 3, 1 / 6, 1 / 6], atol=1e-12)


def test_schmidt_cut_must_be_bipartition():
    state = PureState(np.array([1, 0, 0, 0], dtype=complex), (2, 2))
    for cut in ([], [0, 1], [3]):
        with pytest.raises(DimensionError):
            schmidt_decompose(state, cut)


def test_schmidt_same_spectrum_on_both_sides(rng):
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    amps /= np.linalg.norm(amps)
    state = PureState(amps, (3, 2, 2))
    lam_a = schmidt_decompose(state, [0])
    lam_b = schmidt_decompose(state, [1, 2])
    np.testing.assert_allclose(lam_a, lam_b, atol=1e-12)


def test_schmidt_local_unitary_invariance(rng):
    for dims, cut in (((2, 2), [0]), ((3, 3), [0])):
        n = dims[0] * dims[1]
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        amps /= np.linalg.norm(amps)
        base = schmidt_decompose(PureState(amps, dims), cut)
        for _ in range(10):
            u = random_unitary(rng, dims[0])
            v = random_unitary(rng, dims[1])
            rotated = kron(u, v) @ amps
            lam = schmidt_decompose(PureState(rotated, dims), cut)
            np.testing.assert_allclose(lam, base, atol=1e-10)


def test_majorizes_examples():
    assert _majorizes([0.5, 0.5], [1.0, 0.0])
    lam_i = np.array([2 / 3, 1 / 6, 1 / 6])
    lam_f = np.array(AXES_LAMBDA_FINAL)
    assert not _majorizes(lam_i, lam_f)
    assert not _majorizes(lam_f, lam_i)
    assert _majorizes([0.3, 0.3, 0.4], [0.4, 0.3, 0.3])  # unsorted input is sorted first


def test_majorizes_pads_shorter_vector():
    assert _majorizes([0.5, 0.5], [1.0])
    assert not _majorizes([1.0], [0.5, 0.5])


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=6))
def test_majorizes_reflexive(seed, n):
    lam = random_prob_vector(np.random.default_rng(seed), n)
    assert _majorizes(lam, lam)


def test_majorizes_transitive_on_sampled_chains(rng):
    hits = 0
    while hits < 50:
        x, y, z = (random_prob_vector(rng, 4) for _ in range(3))
        if _majorizes(x, y) and _majorizes(y, z):
            hits += 1
            assert _majorizes(x, z)


def test_verdict_examples():
    assert verdict([0.51, 0.30, 0.19], [0.49, 0.36, 0.15]) is Verdict.INCOMPARABLE
    assert verdict([1.0, 0.0], [0.5, 0.5]) is Verdict.BACKWARD_CERTAIN
    assert verdict([0.5, 0.5], [1.0, 0.0]) is Verdict.FORWARD_CERTAIN
    lam = [0.7, 0.2, 0.1]
    assert verdict(lam, lam) is Verdict.INTERCONVERTIBLE


def test_incomparable_3dim_examples():
    assert incomparable_3dim([0.51, 0.30, 0.19], [0.49, 0.36, 0.15])
    assert not incomparable_3dim([0.5, 0.3, 0.2], [0.6, 0.3, 0.1])


def test_incomparable_3dim_reads_crossings_only():
    # a1 > b1 > b2 > a2 > a3 > b3 interleaves only because the totals differ
    # by 5e-7; the leading pairs tie at 0.8, so neither crossing holds, and
    # the verdict agrees that the pair is comparable
    assert not incomparable_3dim((0.5, 0.3, 0.2000005), (0.45, 0.35, 0.2))
    assert verdict((0.5, 0.3, 0.2000005), (0.45, 0.35, 0.2)) is Verdict.BACKWARD_CERTAIN
    # at equal totals a chain can still fire without a crossing, by rounding:
    # a3 - b3 lies just beyond the tie tolerance, b1 + b2 - (a1 + a2) just within
    a = (0.4689968936749105, 0.2705333798743436, 0.26046972645074584)
    b = (0.4689968936729105, 0.27053337987734366, 0.2604697264497458)
    assert a[0] + a[1] + a[2] == b[0] + b[1] + b[2] == 1.0
    assert not incomparable_3dim(a, b)
    assert verdict(a, b) is Verdict.BACKWARD_CERTAIN


def _quanta(draw):
    """Three distinct multiples of 1/64 summing to 1, largest first, as counts of 1/64."""
    low = draw(st.integers(0, 20))
    mid = draw(st.integers(low + 1, (63 - low) // 2))
    return 64 - low - mid, mid, low


@st.composite
def _strict_pairs(draw):
    """Two strictly descending triples whose totals agree within the tie tolerance.

    The second triple is drawn afresh or moved one quantum from the first, so
    that leading partial sums often tie, and every entry is shifted by -1, 0
    or +1 tie tolerances, as in :func:`_spectrum_stacks`.
    """
    qa = _quanta(draw)
    if draw(st.booleans()):
        j, k = draw(st.integers(-1, 1)), draw(st.integers(-1, 1))
        qb = (qa[0] + j, qa[1] + k, qa[2] - j - k)
        assume(qb[0] > qb[1] > qb[2] >= 0)
    else:
        qb = _quanta(draw)
    a, b = ([q * _QUANTUM + draw(st.integers(-1, 1)) * EPS_TIE for q in qs] for qs in (qa, qb))
    # summed left to right, as the verdict's last partial sum is
    assume(abs((a[0] + a[1] + a[2]) - (b[0] + b[1] + b[2])) <= EPS_TIE)
    return a, b


@settings(max_examples=500, deadline=None)
@given(_strict_pairs())
def test_incomparable_3dim_is_the_verdict_when_totals_agree(pair):
    a, b = pair
    assert incomparable_3dim(a, b) == (verdict(a, b) is Verdict.INCOMPARABLE)


def test_incomparable_3dim_rejects_ties_with_verdict_fallback():
    # a tie on either side, in either place, leaves the closed form
    # undecided; the verdict decides the pair
    lam_i = [2 / 3, 1 / 6, 1 / 6]
    lam_f = list(AXES_LAMBDA_FINAL)
    assert incomparable_3dim(lam_i, lam_f) is None
    assert incomparable_3dim(lam_f, lam_i) is None
    assert incomparable_3dim(lam_f, [0.4, 0.4, 0.2]) is None
    assert verdict(lam_i, lam_f) is Verdict.INCOMPARABLE


# (a, b) in every form the closed form reads as a triple, with its answer:
# tuples, (3, 1) and (1, 3) arrays, int entries, and non-finite entries (a
# NaN fails every strict descent, so it leaves the closed form undecided)
_TRIPLE_INPUTS = [
    ((0.51, 0.30, 0.19), (0.49, 0.36, 0.15), True),
    (np.array([[0.51], [0.30], [0.19]]), np.array([[0.49, 0.36, 0.15]]), True),
    (np.array([[0.5, 0.3, 0.2]]), np.array([[0.6], [0.3], [0.1]]), False),
    ([51, 30, 19], (49, 36, 15), True),
    (np.array([5, 3, 2]), [6, 3, 1], False),
    ([np.nan, 0.3, 0.2], [0.6, 0.3, 0.1], None),
    ([0.5, 0.3, 0.2], [0.6, np.nan, 0.1], None),
    ([0.5, 0.3, 0.2], [0.6, 0.3, np.nan], None),
    ([np.inf, 0.5, 0.2], [0.5, 0.3, 0.2], False),
]


@pytest.mark.parametrize("a, b, expected", _TRIPLE_INPUTS, ids=[f"a{j}-b{j}" for j in range(len(_TRIPLE_INPUTS))])
def test_incomparable_3dim_reads_every_input_form(a, b, expected):
    assert incomparable_3dim(a, b) is expected
    assert incomparable_3dim(b, a) is expected


def test_incomparable_3dim_requires_three_entries():
    with pytest.raises(ValueError):
        incomparable_3dim([0.6, 0.4], [0.5, 0.5])


def test_incomparable_3dim_matches_brute_force(rng):
    for _ in range(10_000):
        a = random_strict_triple(rng)
        b = random_strict_triple(rng)
        assert incomparable_3dim(a, b) == _brute_incomparable(a, b)


def test_incomparable_3dim_matches_verdict(rng):
    for _ in range(10_000):
        a = random_strict_triple(rng)
        b = random_strict_triple(rng)
        assert incomparable_3dim(a, b) == (verdict(a, b) is Verdict.INCOMPARABLE)


def test_no_incomparable_pairs_in_two_dims(rng):
    for _ in range(10_000):
        a = random_prob_vector(rng, 2)
        b = random_prob_vector(rng, 2)
        assert verdict(a, b) is not Verdict.INCOMPARABLE


def test_entropy_examples():
    assert entanglement_entropy([1.0, 0.0]) == 0.0
    assert abs(entanglement_entropy([0.5, 0.5]) - 1.0) < 1e-15
    lam = np.array([2 / 3, 1 / 6, 1 / 6])
    oracle = float(-(2 / 3) * np.log2(2 / 3) - 2 * (1 / 6) * np.log2(1 / 6))
    value = entanglement_entropy(lam)
    assert abs(value - oracle) < 1e-12
    assert abs(value - 1.2516) < 1e-3


def test_entropy_rejects_bad_vectors():
    with pytest.raises(ValueError):
        entanglement_entropy([0.5, 0.4])
    with pytest.raises(ValueError):
        entanglement_entropy([1.5, -0.5])


def test_entropy_monotone_under_certain_conversion(rng):
    # a deterministic conversion can never raise the entanglement entropy
    checked = 0
    while checked < 300:
        n = rng.integers(2, 4)
        a = random_prob_vector(rng, n)
        b = random_prob_vector(rng, n)
        if verdict(a, b) is Verdict.FORWARD_CERTAIN:
            checked += 1
            assert entanglement_entropy(a) >= entanglement_entropy(b) - 1e-10
