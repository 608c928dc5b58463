"""Strong incomparability: the certificate's two outer signs exclude
catalytic (ELOCC) and multiple-copy (MLOCC) conversions in both directions.

The lemma (see :mod:`qflip.cubic`): for descending probability vectors x, y
of length n and a catalyst c with every entry positive, x (x) c majorized by
y (x) c forces x_1 <= y_1 (the largest entries, x_1 c_1 <= y_1 c_1) and
x_n >= y_n (the equal totals and the smallest entries, x_n c_min >= y_n c_min);
so does x^(x)k majorized by y^(x)k.
"""

from fractions import Fraction
from functools import reduce
from itertools import accumulate

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qflip.constructions import certify_rows
from qflip.kernels import grid_eval
from qflip.schmidt import Verdict, verdict


def _majorized(x, y) -> bool:
    """x is majorized by y, in exact arithmetic: equal totals, and each
    partial sum of x, sorted descending, at most that of y."""
    x, y = sorted(x, reverse=True), sorted(y, reverse=True)
    return sum(x) == sum(y) and all(p <= q for p, q in zip(accumulate(x), accumulate(y)))


def _tensor(x, y) -> list:
    return [p * q for p in x for q in y]


def _power(x, k: int) -> list:
    return reduce(_tensor, [x] * k)


def _distribution(weights) -> list:
    """The positive integer ``weights`` as exact probabilities, descending."""
    total = sum(weights)
    return sorted((Fraction(w, total) for w in weights), reverse=True)


_weights = st.lists(st.integers(1, 30), min_size=2, max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_catalytic_and_multiple_copy_majorization_keep_the_outer_entries(data):
    y = _distribution(data.draw(_weights, label="y"))
    n = len(y)
    catalyst = _distribution(data.draw(_weights, label="catalyst"))
    if data.draw(st.booleans(), label="x from y"):
        # a T-transform of y: x = D y for a doubly stochastic D, so x is
        # majorized by y, and x (x) c by y (x) c, which the lemma then reads
        i, j = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True), label="i, j"))
        s = Fraction(data.draw(st.integers(0, 8), label="s"), 8)
        x = list(y)
        x[i], x[j] = (1 - s) * y[i] + s * y[j], s * y[i] + (1 - s) * y[j]
        x.sort(reverse=True)
        assert _majorized(_tensor(x, catalyst), _tensor(y, catalyst))
    else:
        x = _distribution(data.draw(st.lists(st.integers(1, 30), min_size=n, max_size=n), label="x"))
    k = data.draw(st.integers(1, 3), label="copies")
    for lhs, rhs in ((_tensor(x, catalyst), _tensor(y, catalyst)), (_power(x, k), _power(y, k))):
        if _majorized(lhs, rhs):
            assert x[0] <= y[0] and x[-1] >= y[-1]


def test_certified_family_pairs_stay_incomparable_with_a_catalyst_or_copies():
    # at seeded family points the certificate proves alpha1 > beta1 and
    # alpha3 > beta3, so by the lemma no catalyst and no number of copies
    # makes either spectrum majorized by the other
    rng = np.random.default_rng(10)
    n = 300
    a, c = rng.uniform(0.05, 0.95, (2, n))
    theta = rng.uniform(0.05, np.pi - 0.05, n)
    rows = grid_eval(a, c, theta)
    certify_rows(rows, live=True)
    for alpha, beta in zip(rows["num_alpha"], rows["num_beta"]):
        assert alpha[0] > beta[0] and alpha[2] > beta[2]
        for k in (1, 2, 3):
            x, y = (reduce(np.kron, [spectrum] * k) for spectrum in (alpha, beta))
            for dim in (2, 3, 4):
                catalyst = rng.dirichlet(np.ones(dim))
                assert verdict(np.kron(x, catalyst), np.kron(y, catalyst)) is Verdict.INCOMPARABLE
