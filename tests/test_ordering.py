import io
from contextlib import contextmanager
from functools import partial
from math import pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflip import ordering
from qflip.bloch import FlipParams
from qflip.cli import SweepConfig, _run_sweep
from qflip.constructions import general_flip_experiment
from qflip.cubic import cubic_roots_rows, labeled_roots_rows
from qflip.kernels import degeneracy, grid_eval
from qflip.ordering import (
    CHAIN_TIE_TOL,
    PATTERN_ATLAS,
    REGION_BOUNDS,
    OrderingMismatchError,
    _region_index,
    check_atlas,
    pattern_labels,
)
from qflip.schmidt import SpectrumTieError, Verdict, incomparable_3dim, verdict

from oracle import division_region_index, four_pair_check_atlas

NAMES = tuple(REGION_BOUNDS)
ALL_PATTERN_IDS = {f"{ri}{rf}" for ri, rf in PATTERN_ATLAS}
LABELS = np.array(["a1", "a2", "a3", "b1", "b2", "b3"])


def _grid(points) -> dict:
    """:func:`grid_eval` at the family points."""
    return grid_eval(*(np.array([getattr(p, key) for p in points]) for key in ("a", "c", "theta")))


def _rows(points):
    """Columns roots, B, Bprime, theta_i, theta_f of the family points' grid
    rows, as :func:`check_atlas` takes them."""
    rows = _grid(points)
    return rows["roots"], rows["B"], rows["Bprime"], rows["theta_i"], rows["theta_f"]


def _witnessed(regions) -> set:
    """Every region pair one row's representative pairs fall in."""
    return {NAMES[ri] + NAMES[rf] for ri in regions[0] for rf in regions[1]}


def _sorted_labels(coeff_a, t_i, t_f) -> tuple:
    """The labels a1..b3 of one row's principal labeled roots, largest first."""
    values = labeled_roots_rows(np.array([coeff_a, coeff_a]), np.array([t_i, t_f])).reshape(6)
    return tuple(LABELS[np.argsort(-values, kind="stable")].tolist())


def test_region_index_half_open_quadrants():
    def region(angle3):
        return NAMES[int(_region_index(angle3))]

    assert region(0.0) == "Q1"
    assert region(np.pi / 2) == "Q2"
    assert region(np.pi) == "Q3"
    assert region(3 * np.pi / 2) == "Q4"
    assert region(2 * np.pi) == "Q1"
    assert region(np.pi - 1e-9) == "Q2"


def _ulps_around(x: float, k: int = 50) -> np.ndarray:
    """``x`` and the ``k`` doubles on each side of it, ascending."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[:0:-1] + above)


def test_region_index_is_exact_at_every_quadrant_start():
    # comparison with the quadrant starts must give the float division's
    # quadrant bit for bit, on both sides of every start and of 2pi, and
    # for angles beyond [0, 2pi], which take the float modulo first
    starts = (0.0, np.pi / 2, np.pi, 3 * np.pi / 2, 1.5 * np.pi, 2 * np.pi)
    near = np.concatenate([_ulps_around(x) for x in starts])
    assert near.size == 6 * 101
    rng = np.random.default_rng(19)
    for angles in (
        near,
        near[near >= 0.0],  # within [0, 2pi]: no modulo
        *near[:, None],  # one angle at a time
        rng.uniform(0.0, 2.0 * np.pi, 10**6),
        rng.uniform(-40.0 * np.pi, 40.0 * np.pi, 10**5),
    ):
        np.testing.assert_array_equal(_region_index(angles), division_region_index(angles))
    assert [NAMES[q] for q in _region_index(np.array([-5e-324, 2 * np.pi, np.nextafter(2 * np.pi, 0.0)]))] == [
        "Q1",  # -5e-324 mod 2pi rounds to 2pi
        "Q1",
        "Q4",
    ]


RANKS = ("alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3")
# alpha1 >= beta1 >= beta2 >= alpha2 >= alpha3 >= beta3, as indices into a
# row's six descending roots: initial ranks 0..2, final ranks 3..5
INTERLEAVING = (0, 3, 4, 1, 2, 5)
# (principal, mirror) quadrants of 3t and of 2pi - 3t where the family takes them
INITIAL = {"3t in (pi/2, pi)": ("Q2", "Q3"), "3t = pi": ("Q3", "Q3")}
FINAL = {
    "3t' in (0, pi/2)": ("Q1", "Q4"),
    "3t' = pi/2": ("Q2", "Q4"),
    "3t' in (pi/2, pi)": ("Q2", "Q3"),
    "3t' = 0": ("Q1", "Q1"),  # the mirror 2pi wraps to Q1
    "3t' = pi": ("Q3", "Q3"),
}
# what the compiled atlas lists at each reached combination: its distinct
# chains and the ranks they force equal together
COMPILED = {
    ("3t in (pi/2, pi)", "3t' in (0, pi/2)"): (1, []),
    ("3t in (pi/2, pi)", "3t' = pi/2"): (1, []),
    ("3t in (pi/2, pi)", "3t' in (pi/2, pi)"): (1, []),
    ("3t = pi", "3t' in (0, pi/2)"): (2, ["alpha2", "alpha3"]),
    ("3t = pi", "3t' = pi/2"): (2, ["alpha2", "alpha3"]),
    ("3t = pi", "3t' in (pi/2, pi)"): (2, ["alpha2", "alpha3"]),
    ("3t in (pi/2, pi)", "3t' = 0"): (2, ["alpha2", "alpha3", "beta2", "beta3"]),
    ("3t in (pi/2, pi)", "3t' = pi"): (2, ["alpha2", "alpha3", "beta2", "beta3"]),
    ("3t = pi", "3t' = 0"): (4, ["alpha2", "alpha3", "beta2", "beta3"]),
    ("3t = pi", "3t' = pi"): (4, ["alpha2", "alpha3", "beta2", "beta3"]),
}


def _combination(initial, final) -> int:
    """The compiled atlas's index of (initial principal, initial mirror, final principal, final mirror)."""
    ip, im, fp, fm = (NAMES.index(q) for q in (*initial, *final))
    return 64 * ip + 16 * im + 4 * fp + fm


def _tied(chains) -> list:
    """The ranks that descending along every one of ``chains`` at once forces equal."""
    at_least = np.eye(6, dtype=bool)
    for chain in chains:
        at_least[chain[:-1], chain[1:]] = True
    for _ in range(6):  # transitive closure
        at_least |= (at_least.astype(int) @ at_least.astype(int)) > 0
    tied = (at_least & at_least.T).sum(axis=1) > 1
    return [RANKS[j] for j in np.flatnonzero(tied)]


def test_compiled_atlas_demands_one_chain_except_at_the_boundaries():
    tables = ordering._ATLAS_TABLES
    for (initial, final), (n_chains, tied) in COMPILED.items():
        c = _combination(INITIAL[initial], FINAL[final])
        chains = list(dict.fromkeys(map(tuple, tables.chains[c].tolist())))
        assert (tables.entry[c] >= 0).all(), (initial, final)
        assert tables.n_chains[c] == len(chains) == n_chains, (initial, final)
        assert INTERLEAVING in chains, (initial, final)
        assert tuple(tables.first[:, c]) == chains[0], (initial, final)
        assert _tied(chains) == tied, (initial, final)
    # 3t = pi forces its tie: the labels a2 and a3 share the angle pi/3
    a2, a3 = labeled_roots_rows(np.array([0.2]), np.array([pi / 3]))[0, 1:]
    assert abs(a2 - a3) <= CHAIN_TIE_TOL
    # the family reaches no combination but these
    thetas = np.arange(1, 24) / 24 * pi
    points = [FlipParams(a=a, c=c, theta=t) for a in (0.1, 0.5, 0.9) for c in (0.2, 0.6) for t in thetas]
    reached = check_atlas(*_rows(points)).reshape(-1, 4) @ [64, 16, 4, 1]
    assert set(reached.tolist()) <= {_combination(INITIAL[i], FINAL[f]) for i, f in COMPILED}


def test_axes_case_boundary_classification():
    p = FlipParams(a=1 / np.sqrt(2), c=1 / np.sqrt(2), theta=np.pi / 2)
    row = _rows([p])
    regions = check_atlas(*row)[0]
    # 3*theta_i sits exactly at pi, so the half-open rule files it under Q3
    assert NAMES[regions[0, 0]] == "Q3"
    angle3 = 3.0 * row[3][0] % (pi / 2)
    assert min(angle3, pi / 2 - angle3) <= 1e-12
    assert _witnessed(regions) == {"Q3Q2", "Q3Q4"}


def test_positive_bprime_point_witnesses_four_cases(rng):
    p = FlipParams(a=0.9, c=0.9, theta=0.3)
    _, _, coeff_bp, t_i, t_f = row = _rows([p])
    assert coeff_bp[0] > 0
    regions = check_atlas(*row)
    chain = ("a1", "b1", "b3", "a3", "a2", "b2")
    assert pattern_labels(regions).tolist() == ["Q2Q2:" + ">".join(chain)]
    assert _sorted_labels(_grid([p])["A"][0], t_i[0], t_f[0]) == chain
    assert _witnessed(regions[0]) == {"Q2Q2", "Q2Q3", "Q3Q2", "Q3Q3"}


def test_negative_bprime_point_witnesses_four_cases():
    p = FlipParams(a=0.8, c=0.6, theta=2 * np.pi / 3)
    row = _rows([p])
    assert row[2][0] < 0
    regions = check_atlas(*row)
    assert pattern_labels(regions)[0].split(":")[0] == "Q2Q1"
    assert _witnessed(regions[0]) == {"Q2Q1", "Q2Q4", "Q3Q1", "Q3Q4"}


def test_degenerate_pair_is_rejected():
    p = FlipParams(a=1.0, c=0.5, theta=1.0)
    assert pattern_labels(check_atlas(*_rows([p]))).tolist() == [None]
    assert general_flip_experiment(p).ordering is None


def test_primary_chain_matches_sorted_labels(rng):
    # the atlas chain must be a valid descending arrangement at every point
    points = [
        FlipParams(a=rng.uniform(0.05, 0.95), c=rng.uniform(0.05, 0.95), theta=rng.uniform(0.05, np.pi - 0.05))
        for _ in range(300)
    ]
    points = [p for p in points if abs(degeneracy(p.a, p.c, p.theta)) >= 1e-3]
    _, _, _, t_i, t_f = row = _rows(points)
    for label, a_j, ti_j, tf_j in zip(pattern_labels(check_atlas(*row)), _grid(points)["A"], t_i, t_f):
        pattern_id, chain = label.split(":")
        sorted_labels = _sorted_labels(a_j, ti_j, tf_j)
        assert pattern_id in ALL_PATTERN_IDS
        assert tuple(chain.split(">")) == sorted_labels
        assert set(sorted_labels) == {"a1", "a2", "a3", "b1", "b2", "b3"}
        assert sorted_labels[0] == "a1"
        assert sorted_labels[1] == "b1"


def test_sorted_interleaving_certifies_incomparability(rng):
    for _ in range(200):
        p = FlipParams(
            a=rng.uniform(0.05, 0.95),
            c=rng.uniform(0.05, 0.95),
            theta=rng.uniform(0.05, np.pi - 0.05),
        )
        if abs(degeneracy(p.a, p.c, p.theta)) < 1e-3:
            continue
        rows = _grid([p])
        coeff_a, coeff_b, coeff_bp = rows["A"], rows["B"], rows["Bprime"]
        (alpha, beta), _ = cubic_roots_rows(np.append(coeff_a, coeff_a), np.append(coeff_b, coeff_bp))
        try:
            assert incomparable_3dim(alpha, beta)
        except SpectrumTieError:
            assert verdict(alpha, beta) is Verdict.INCOMPARABLE


def test_atlas_fully_witnessed_on_coarse_grid():
    ticks = np.arange(1, 10) / 10.0
    points = [FlipParams(a=a, c=c, theta=theta) for a in ticks for c in ticks for theta in ticks * np.pi]
    regions = check_atlas(*_rows([p for p in points if abs(degeneracy(p.a, p.c, p.theta)) >= 1e-3]))
    witnessed = set().union(*(_witnessed(r) for r in regions))
    assert witnessed == ALL_PATTERN_IDS
    assert len(PATTERN_ATLAS) == 8


_family_point = st.tuples(
    st.floats(0.02, 0.98), st.floats(0.02, 0.98), st.floats(0.02, np.pi - 0.02)
).map(lambda t: FlipParams(a=t[0], c=t[1], theta=t[2]))


@settings(max_examples=60, deadline=None)
@given(st.lists(_family_point, min_size=1, max_size=20))
def test_batched_atlas_check_matches_one_row_calls(points):
    row_by_row = [check_atlas(*_rows([p])) for p in points]
    regions = check_atlas(*_rows(points))
    np.testing.assert_array_equal(regions, np.concatenate(row_by_row))
    assert pattern_labels(regions).tolist() == [pattern_labels(r)[0] for r in row_by_row]


def test_atlas_check_skips_degenerate_rows():
    p = FlipParams(a=1.0, c=0.5, theta=1.0)
    regions = check_atlas(*_rows([p]))
    assert regions.tolist() == [[[-1, -1], [-1, -1]]]
    assert pattern_labels(regions).tolist() == [None]


def test_pattern_codes_name_the_principal_region_pair():
    # a sweep counts patterns by code; code_labels turns a code into pattern_labels' label
    points = [FlipParams(a=a, c=c, theta=t) for a in (0.2, 0.7) for c in (0.3, 0.8) for t in (0.4, 2.6)]
    regions = check_atlas(*_rows([*points, FlipParams(a=1.0, c=0.5, theta=1.0)]))
    codes = ordering.pattern_codes(regions)
    assert codes.tolist() == (4 * regions[:, 0, 0] + regions[:, 1, 0]).tolist()[:-1] + [16]
    assert ordering.code_labels()[codes].tolist() == pattern_labels(regions).tolist()
    assert [ordering.code_labels()[4 * NAMES.index(ri) + NAMES.index(rf)] for ri, rf in PATTERN_ATLAS] == [
        f"{ri}{rf}:{'>'.join(chain)}" for (ri, rf), chain in PATTERN_ATLAS.items()
    ]


def test_atlas_check_rejects_a_non_finite_angle_in_a_checked_row():
    roots = np.full((1, 2, 3), 1.0 / 3.0)
    with pytest.raises(OrderingMismatchError, match="row 0 has a non-finite angle: theta_i=nan"):
        check_atlas(roots, [0.3], [0.01], [np.nan], [0.5], live=True)
    # the same angle in a row that is not checked reads as 0
    assert check_atlas(roots, [0.3], [0.3], [np.nan], [0.5]).tolist() == [[[-1, -1], [-1, -1]]]


def _replaced(pair, chain) -> dict:
    """PATTERN_ATLAS with one entry replaced, or removed for chain None."""
    atlas = {key: value for key, value in PATTERN_ATLAS.items() if key != pair}
    if chain is not None:
        atlas[pair] = chain
    return atlas


@contextmanager
def _atlas_with(pair, chain):
    """The tables of PATTERN_ATLAS with one entry replaced (or removed, for chain None) installed."""
    original = ordering._ATLAS_TABLES
    ordering._ATLAS_TABLES = ordering._atlas_tables(_replaced(pair, chain))
    try:
        yield
    finally:
        ordering._ATLAS_TABLES = original


def test_atlas_check_applies_tie_tolerance_per_row():
    # B' > 0 witnesses only {Q2, Q3} x {Q2, Q3}, B' < 0 only {Q2, Q3} x {Q1, Q4},
    # so a wrong chain for Q2Q1 breaks the second row alone
    columns = _rows([FlipParams(a=0.9, c=0.9, theta=0.3), FlipParams(a=0.8, c=0.6, theta=2 * np.pi / 3)])
    with _atlas_with(("Q2", "Q1"), PATTERN_ATLAS[("Q3", "Q3")]):
        with pytest.raises(OrderingMismatchError):
            check_atlas(*columns)
        # roots lie in [0, 1], so a tie tolerance of 1 forgives any chain
        check_atlas(*columns, tie_tol=np.array([1e-12, 1.0]))
        with pytest.raises(OrderingMismatchError):
            check_atlas(*columns, tie_tol=np.array([1.0, 1e-12]))


def test_atlas_check_rejects_a_row_with_a2_and_a3_swapped():
    # the labels are read off the roots handed in, so a row whose a2 and a3
    # (ranks 2 and 1 of the initial spectrum) trade places must fail, and
    # fail for that row, unless its tie tolerance covers the swap
    points = [FlipParams(a=a, c=c, theta=t) for a in (0.2, 0.7) for c in (0.3, 0.8) for t in (0.4, 2.6)]
    roots, *columns = _rows(points)
    check_atlas(roots, *columns)
    j = 5
    swapped = roots.copy()
    swapped[j, 0, [1, 2]] = roots[j, 0, [2, 1]]
    gap = roots[j, 0, 1] - roots[j, 0, 2]
    assert gap > CHAIN_TIE_TOL
    with pytest.raises(OrderingMismatchError, match="deviates from the atlas chain") as exc:
        check_atlas(swapped, *columns)
    assert f"'a1': {float(roots[j, 0, 0])!r}" in str(exc.value)
    check_atlas(swapped, *columns, tie_tol=np.where(np.arange(len(points)) == j, 2.0 * gap, CHAIN_TIE_TOL))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(PATTERN_ATLAS)),
    st.sampled_from([None, *sorted(set(PATTERN_ATLAS.values()))]),
)
def test_corrupted_atlas_entry_makes_the_sweep_fail(pair, chain):
    cfg = SweepConfig(grid_n=9)
    with _atlas_with(pair, chain):
        if chain == PATTERN_ATLAS[pair]:
            _run_sweep(cfg, io.BytesIO())
        else:
            with pytest.raises(OrderingMismatchError):
                _run_sweep(cfg, io.BytesIO())


def _same_outcome(*args, atlas=PATTERN_ATLAS, **kwargs):
    """Call check_atlas and the four-pair reference on the same input: both
    must return the same regions, or raise the same message.  Returns the
    reference's regions, or its message."""
    outcomes = []
    for check in (check_atlas, partial(four_pair_check_atlas, atlas=atlas)):
        try:
            outcomes.append(check(*args, **kwargs))
        except OrderingMismatchError as exc:
            outcomes.append(str(exc))
    compiled, reference = outcomes
    assert type(compiled) is type(reference), outcomes
    if isinstance(reference, str):
        assert compiled == reference
    else:
        assert compiled.dtype == reference.dtype
        np.testing.assert_array_equal(compiled, reference)
    return reference


def _boundary_rows(rng) -> tuple:
    """Rows built at 3t = pi and at 3t' in {0, pi/2, pi}, each also 1 ulp
    off, beside interior angles: columns roots, B, Bprime, theta_i, theta_f."""
    initial = [pi / 3, 0.6, 0.95]
    final = [0.0, pi / 6, pi / 3, 0.25, 0.8]
    t_i, t_f = np.array(
        [(ti, tf) for x in initial for ti in (np.nextafter(x, 0.0), x, np.nextafter(x, 4.0))
         for y in final for tf in (np.nextafter(y, -1.0), y, np.nextafter(y, 4.0)) if tf >= 0.0]
    ).T
    coeff_a = rng.uniform(0.01, 0.3, t_i.size)
    roots = labeled_roots_rows(np.stack([coeff_a, coeff_a], axis=1), np.stack([t_i, t_f], axis=1))
    coeff_b, coeff_bp = (-2.0 * coeff_a**1.5 * np.cos(3.0 * t) for t in (t_i, t_f))
    return -np.sort(-roots, axis=-1), coeff_b, coeff_bp, t_i, t_f


def test_check_atlas_matches_the_four_pair_reference():
    rng = np.random.default_rng(1931)
    ticks = np.arange(1, 41) / 41
    grid = np.array([x.reshape(-1) for x in np.meshgrid(ticks, ticks, ticks * pi, indexing="ij")])
    off_grid = rng.uniform(0.0, 1.0, (3, 2000)) * [[1.0], [1.0], [pi]]
    # B and Bprime agree within DEGENERACY_GAP_TOL in all rows but the last
    degenerate = np.array([[1.0, 0.5, 1.0], [0.5, 1.0, 2.0], [0.3, 0.7, pi], [0.4, 0.4, 1.2]]).T
    batches = []  # (columns, the rows beyond the sweep's margin)
    for a, c, theta in (grid, off_grid, degenerate):
        rows = grid_eval(a, c, theta)
        columns = tuple(rows[key] for key in ("roots", "B", "Bprime", "theta_i", "theta_f"))
        batches.append((columns, np.abs(degeneracy(a, c, theta)) > 1e-6))
    boundary = _boundary_rows(rng)
    batches.append((boundary, np.ones(len(boundary[1]), bool)))
    non_finite = tuple(col[:10].copy() for col in batches[1][0])
    non_finite[4][3] = np.nan
    batches.append((non_finite, np.ones(10, bool)))
    tols = np.array([0.0, 1e-15, CHAIN_TIE_TOL, 1e-9, 1.0])
    kinds = set()

    def compare(*columns, **kwargs):
        outcome = _same_outcome(*columns, **kwargs)
        if isinstance(outcome, str):
            kinds.add("missing" if outcome.endswith("has no atlas entry") else outcome.split(" ")[0])

    for columns, beyond in batches:
        n = beyond.size
        for live in (False, True, beyond, rng.random(n) < 0.5):
            for tie_tol in (CHAIN_TIE_TOL, rng.choice(tols, n)):
                compare(*columns, live=live, tie_tol=tie_tol)
        # in pieces, so that more than a batch's first failure is compared
        for rows in np.array_split(rng.permutation(n), max(1, n // 64))[:200]:
            live, tie_tol = rng.random(rows.size) < 0.5, rng.choice(tols, rows.size)
            compare(*(col[rows] for col in columns), live=live, tie_tol=tie_tol)
    # every corrupted atlas test_corrupted_atlas_entry_makes_the_sweep_fail draws
    for pair in sorted(PATTERN_ATLAS):
        for chain in [None, *sorted(set(PATTERN_ATLAS.values()))]:
            with _atlas_with(pair, chain):
                for columns, beyond in batches[1:]:
                    compare(*columns, live=beyond, atlas=_replaced(pair, chain))
    assert kinds == {"missing", "ordering", "row"}  # row: a non-finite angle
