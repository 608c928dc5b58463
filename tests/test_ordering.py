from math import pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflip import ordering
from qflip.bloch import FlipParams
from qflip.constructions import VerificationError, certify_rows, general_flip_experiment
from qflip.cubic import cubic_roots_rows, labeled_roots_rows
from qflip.kernels import grid_eval
from qflip.ordering import (
    CODE_LABELS,
    PATTERN_ATLAS,
    REGION_BOUNDS,
    OrderingMismatchError,
    _region_index,
    check_atlas,
)
from qflip.schmidt import Verdict, incomparable_3dim, verdict

from oracle import REP_F, REP_I, RANK_OF_LABEL, division_region_index, rank_chain

NAMES = tuple(REGION_BOUNDS)
ALL_PATTERN_IDS = {f"{ri}{rf}" for ri, rf in PATTERN_ATLAS}
LABELS = np.array(["a1", "a2", "a3", "b1", "b2", "b3"])


def _grid(points) -> dict:
    """:func:`grid_eval` at the family points."""
    return grid_eval(*(np.array([getattr(p, key) for p in points]) for key in ("a", "c", "theta")))


def _rows(points):
    """Columns theta_i, theta_f of the family points' grid rows, as
    :func:`check_atlas` takes them."""
    rows = _grid(points)
    return rows["theta_i"], rows["theta_f"]


def _witnessed(t_i, t_f) -> set:
    """Every region pair one row's representative pairs fall in: each
    spectrum's principal 3t and its mirror 2pi - 3t."""
    initial, final = (_region_index(np.array([3.0 * t, 2.0 * pi - 3.0 * t])) for t in (t_i, t_f))
    return {NAMES[ri] + NAMES[rf] for ri in initial for rf in final}


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
        near[near >= 0.0],  # within [0, 2pi], where the modulo is exact
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


# alpha1 >= beta1 >= beta2 >= alpha2 >= alpha3 >= beta3, as indices into a
# row's six descending roots: initial ranks 0..2, final ranks 3..5
INTERLEAVING = (0, 3, 4, 1, 2, 5)
# The interior quadrant combinations the family reaches: (principal, mirror)
# quadrants of 3t and of 2pi - 3t, with angles 3t inside each.  B >= 0 keeps
# the initial 3t in [pi/2, pi]; only the boundaries 3t = pi and 3t' in {0, pi}
# lie outside these, where labels tie.
OPEN_Q2 = np.array([pi / 2 + 1e-9, 2.0, pi - 1e-9])
INITIAL = ("Q2", "Q3"), OPEN_Q2
FINAL = {
    "3t' in (0, pi/2)": (("Q1", "Q4"), np.array([1e-9, 1.0, pi / 2 - 1e-9])),
    "3t' = pi/2": (("Q2", "Q4"), np.array([pi / 2])),
    "3t' in (pi/2, pi)": (("Q2", "Q3"), OPEN_Q2),
}


def proof_failures(atlas) -> list:
    """The (combination, representative pair, region pair) of every
    representative pair of the reached interior combinations whose region
    pair has no entry in ``atlas``, or whose entry does not read, under
    that pair's label reading, as the one chain INTERLEAVING."""
    failures = []
    for name, (final, _) in FINAL.items():
        for k in range(4):
            pair = INITIAL[0][REP_I[k]], final[REP_F[k]]
            if pair not in atlas or rank_chain(k, atlas[pair]) != INTERLEAVING:
                failures.append((name, k, pair))
    return failures


def test_every_representative_pair_reads_the_interleaving_chain():
    # the quadrants are the ones the package places these angles in
    (initial, _), finals = INITIAL, FINAL.values()
    for quadrants, angles in (INITIAL, *finals):
        for rep, angle3 in enumerate((angles, 2.0 * pi - angles)):
            assert {NAMES[q] for q in _region_index(angle3)} == {quadrants[rep]}
    # the label reading: each representative's labels a1..a3 take these ranks
    # among the descending roots at every angle of each combination
    for _, angles in (INITIAL, *finals):
        for rep, angle3 in enumerate((angles, 2.0 * pi - angles)):
            labeled = labeled_roots_rows(np.full(angles.size, 0.2), angle3 / 3.0)
            ranks = np.argsort(np.argsort(-labeled, axis=1, kind="stable"), axis=1)
            assert (ranks == RANK_OF_LABEL[rep]).all()
    # the proof: every representative pair reads its entry as the one chain ...
    assert proof_failures(PATTERN_ATLAS) == []
    # ... and the three combinations between them reach all eight entries
    reached = {(initial[i], final[f]) for final, _ in finals for i in (0, 1) for f in (0, 1)}
    assert reached == set(PATTERN_ATLAS)
    assert ALL_PATTERN_IDS == {ri + rf for ri, rf in reached}


def _replaced(pair, chain) -> dict:
    """PATTERN_ATLAS with one entry replaced, or removed for chain None."""
    atlas = {key: value for key, value in PATTERN_ATLAS.items() if key != pair}
    if chain is not None:
        atlas[pair] = chain
    return atlas


@pytest.mark.parametrize("chain", [None, *sorted(set(PATTERN_ATLAS.values()))], ids=lambda c: str(c and ">".join(c)))
@pytest.mark.parametrize("pair", sorted(PATTERN_ATLAS), ids="".join)
def test_corrupted_atlas_entry_fails_the_proof(pair, chain):
    # every one of the 32 corruptions (8 entries, each removed or given one of
    # the 3 other chains) fails the proof; the 8 true entries pass it
    failures = proof_failures(_replaced(pair, chain))
    if chain == PATTERN_ATLAS[pair]:
        assert failures == []
    else:
        assert failures and {failed for _, _, failed in failures} == {pair}


def test_axes_case_boundary_classification():
    p = FlipParams(a=1 / np.sqrt(2), c=1 / np.sqrt(2), theta=np.pi / 2)
    t_i, t_f = row = _rows([p])
    code = check_atlas(*row)[0]
    # 3*theta_i sits exactly at pi, so the half-open rule files it under Q3
    assert NAMES[code // 4] == "Q3"
    angle3 = 3.0 * t_i[0] % (pi / 2)
    assert min(angle3, pi / 2 - angle3) <= 1e-12
    assert _witnessed(t_i[0], t_f[0]) == {"Q3Q2", "Q3Q4"}


def test_positive_bprime_point_witnesses_four_cases(rng):
    p = FlipParams(a=0.9, c=0.9, theta=0.3)
    t_i, t_f = row = _rows([p])
    assert _grid([p])["Bprime"][0] > 0
    codes = check_atlas(*row)
    chain = ("a1", "b1", "b3", "a3", "a2", "b2")
    assert CODE_LABELS[codes].tolist() == ["Q2Q2:" + ">".join(chain)]
    assert _sorted_labels(_grid([p])["A"][0], t_i[0], t_f[0]) == chain
    assert _witnessed(t_i[0], t_f[0]) == {"Q2Q2", "Q2Q3", "Q3Q2", "Q3Q3"}


def test_negative_bprime_point_witnesses_four_cases():
    p = FlipParams(a=0.8, c=0.6, theta=2 * np.pi / 3)
    t_i, t_f = row = _rows([p])
    assert _grid([p])["Bprime"][0] < 0
    codes = check_atlas(*row)
    assert CODE_LABELS[codes][0].split(":")[0] == "Q2Q1"
    assert _witnessed(t_i[0], t_f[0]) == {"Q2Q1", "Q2Q4", "Q3Q1", "Q3Q4"}


def test_degenerate_pair_is_rejected():
    # the atlas check names every row; a degenerate point reports no ordering
    p = FlipParams(a=1.0, c=0.5, theta=1.0)
    assert CODE_LABELS[check_atlas(*_rows([p]))].tolist() == ["Q2Q2:a1>b1>b3>a3>a2>b2"]
    assert general_flip_experiment(p).ordering is None


def test_primary_chain_matches_sorted_labels(rng):
    # the atlas chain must be a valid descending arrangement at every point
    points = [
        FlipParams(a=rng.uniform(0.05, 0.95), c=rng.uniform(0.05, 0.95), theta=rng.uniform(0.05, np.pi - 0.05))
        for _ in range(300)
    ]
    points = [p for p, m in zip(points, _grid(points)["m"]) if abs(m) >= 1e-3]
    t_i, t_f = row = _rows(points)
    for label, a_j, ti_j, tf_j in zip(CODE_LABELS[check_atlas(*row)], _grid(points)["A"], t_i, t_f):
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
        rows = _grid([p])
        if abs(rows["m"][0]) < 1e-3:
            continue
        coeff_a, coeff_b, coeff_bp = rows["A"], rows["B"], rows["Bprime"]
        (alpha, beta), _ = cubic_roots_rows(np.append(coeff_a, coeff_a), np.append(coeff_b, coeff_bp))
        closed_form = incomparable_3dim(alpha, beta)
        if closed_form is None:  # a tie the closed form cannot decide
            assert verdict(alpha, beta) is Verdict.INCOMPARABLE
        else:
            assert closed_form is True


def test_atlas_fully_witnessed_on_coarse_grid():
    ticks = np.arange(1, 10) / 10.0
    points = [FlipParams(a=a, c=c, theta=theta) for a in ticks for c in ticks for theta in ticks * np.pi]
    t_i, t_f = row = _rows([p for p, m in zip(points, _grid(points)["m"]) if abs(m) >= 1e-3])
    check_atlas(*row)
    witnessed = set().union(*(_witnessed(ti, tf) for ti, tf in zip(t_i, t_f)))
    assert witnessed == ALL_PATTERN_IDS
    assert len(PATTERN_ATLAS) == 8


_family_point = st.tuples(
    st.floats(0.02, 0.98), st.floats(0.02, 0.98), st.floats(0.02, np.pi - 0.02)
).map(lambda t: FlipParams(a=t[0], c=t[1], theta=t[2]))


@settings(max_examples=60, deadline=None)
@given(st.lists(_family_point, min_size=1, max_size=20))
def test_batched_atlas_check_matches_one_row_calls(points):
    row_by_row = [check_atlas(*_rows([p])) for p in points]
    codes = check_atlas(*_rows(points))
    np.testing.assert_array_equal(codes, np.concatenate(row_by_row))
    assert CODE_LABELS[codes].tolist() == [CODE_LABELS[r][0] for r in row_by_row]


def _certified_codes(rows) -> np.ndarray:
    """The :func:`check_atlas` region codes of ``grid_eval`` rows that
    :func:`certify_rows` returns for rows that need not be Incomparable."""
    return certify_rows(rows, live=False)[1]


def test_atlas_check_checks_degenerate_rows():
    # every row passes the route gate, descends and is placed, however close
    # its B and Bprime lie: the exact boundary parameters of the family ...
    edges = np.array([0.0, 5e-324, 1e-8, 1 / np.sqrt(2), 1 - 2.0**-53, 1.0])
    angles = np.array([0.0, 5e-324, pi / 2, np.nextafter(pi, 0.0), pi])
    rows = grid_eval(*(x.reshape(-1) for x in np.meshgrid(edges, edges, angles, indexing="ij")))
    labels = set(CODE_LABELS[_certified_codes(rows)].tolist())
    assert None not in labels and len(labels) > 1
    # ... and seeded rows near a great circle: theta near 0 or pi, or a or c
    # near 0 or 1
    rng = np.random.default_rng(2003)
    n = 20_000
    near = 10.0 ** rng.uniform(-17.0, -3.0, (3, n))
    a, c = rng.uniform(0.0, 1.0, (2, n))
    theta = rng.uniform(0.0, pi, n)
    edge = rng.integers(0, 3, n)  # the parameter that lies near its boundary
    a = np.where(edge == 0, np.where(rng.random(n) < 0.5, near[0], 1.0 - near[0]), a)
    c = np.where(edge == 1, np.where(rng.random(n) < 0.5, near[1], 1.0 - near[1]), c)
    theta = np.where(edge == 2, np.where(rng.random(n) < 0.5, near[2], pi - near[2]), theta)
    rows = grid_eval(a, c, theta)
    # most of them lie within the 1e-10 gap the check once exempted
    assert (np.abs(rows["B"] - rows["Bprime"]) <= 1e-10).mean() > 0.5
    assert None not in CODE_LABELS[_certified_codes(rows)].tolist()


def test_atlas_check_passes_a_final_angle_at_zero():
    # 3t' = 0 is the repeated-root boundary Bprime = -2 A^{3/2}, where the
    # arccos clamp can land; it lies in Q1, which has an entry beside Q2
    t_i, t_f = np.full(2, 2.7 / 3.0), np.array([0.0, 5e-324])
    assert CODE_LABELS[check_atlas(t_i, t_f)].tolist() == ["Q2Q1:a1>b1>b3>a3>a2>b2"] * 2


def test_pattern_codes_name_the_principal_region_pair():
    # a sweep counts patterns by the code check_atlas returns, 4 * initial +
    # final quadrant index; CODE_LABELS turns a code into its label
    points = [FlipParams(a=a, c=c, theta=t) for a in (0.2, 0.7) for c in (0.3, 0.8) for t in (0.4, 2.6)]
    t_i, t_f = _rows([*points, FlipParams(a=1.0, c=0.5, theta=1.0)])
    codes = check_atlas(t_i, t_f)
    assert codes.tolist() == (4 * _region_index(3.0 * t_i) + _region_index(3.0 * t_f)).tolist()
    assert [ordering.CODE_LABELS[4 * NAMES.index(ri) + NAMES.index(rf)] for ri, rf in PATTERN_ATLAS] == [
        f"{ri}{rf}:{'>'.join(chain)}" for (ri, rf), chain in PATTERN_ATLAS.items()
    ]
    assert sum(label is None for label in ordering.CODE_LABELS) == 16 - len(PATTERN_ATLAS)


def test_atlas_check_rejects_a_non_finite_angle_in_a_checked_row():
    with pytest.raises(OrderingMismatchError, match="row 1 has a non-finite angle: theta_i=nan"):
        check_atlas([0.6, np.nan], [0.5, 0.5])
    with pytest.raises(OrderingMismatchError, match="row 0 has a non-finite angle: theta_i=0.6, theta_f=inf"):
        check_atlas([0.6, 0.6], [np.inf, 0.5])


def test_atlas_check_rejects_a_region_pair_without_an_entry():
    # 3t = 0.6 lies in Q1, which no family point's initial angle reaches
    with pytest.raises(OrderingMismatchError, match=r"region pair \('Q1', 'Q2'\) has no atlas entry"):
        check_atlas([0.2], [0.6])


def _swapped(rows: dict, j: int, upper: int, lower: int) -> dict:
    """``rows`` with row ``j``'s roots at flat places ``upper`` and ``lower``
    of [spectrum][rank] traded in both routes, which keeps them in agreement."""
    rows = {**rows, "roots": rows["roots"].copy(), "spectra": rows["spectra"].copy()}
    for key in ("roots", "spectra"):
        flat = rows[key].reshape(-1, 6)
        flat[j, [upper, lower]] = flat[j, [lower, upper]]
    return rows


def test_atlas_check_rejects_a_row_with_a2_and_a3_swapped():
    # the atlas names a row by its angles alone, so the certificate must see
    # a row whose a2 and a3 trade places in both routes, and name that row:
    # its initial roots no longer descend
    points = [FlipParams(a=a, c=c, theta=t) for a in (0.2, 0.7) for c in (0.3, 0.8) for t in (0.4, 2.6)]
    rows = _grid(points)
    certify_rows(rows, live=True)
    j = 5
    assert rows["roots"][j, 0, 1] > rows["roots"][j, 0, 2]
    where = f"a={points[j].a!r}, c={points[j].c!r}, theta={points[j].theta!r}"
    for live in (True, False):
        with pytest.raises(VerificationError, match=f"roots do not descend at 1 points, first at {where}"):
            certify_rows(_swapped(rows, j, 1, 2), live)


def test_atlas_check_rejects_each_broken_link_of_the_chain():
    # trading the two roots of any one link of the chain, in both routes,
    # fails the certificate: within a spectrum the roots stop descending,
    # across the spectra a gap takes the wrong sign
    rows = _grid([FlipParams(a=0.8, c=0.6, theta=2 * np.pi / 3)])
    certify_rows(rows, live=True)
    flat = rows["roots"].reshape(1, 6)
    for upper, lower in zip(INTERLEAVING, INTERLEAVING[1:]):
        assert flat[0, upper] - flat[0, lower] > 1e-3
        across = upper // 3 != lower // 3
        message = "Incomparable not certified at 1 points" if across else "roots do not descend at 1 points"
        with pytest.raises(VerificationError, match=message):
            certify_rows(_swapped(rows, 0, upper, lower), live=True)
