import threading

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread alive which was not alive before it."""
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    if left:
        pytest.fail(f"threads left running: {left}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2.0


def random_unitary(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_prob_vector(rng, n):
    v = rng.dirichlet(np.ones(n))
    return np.sort(v)[::-1]


def random_strict_triple(rng, min_gap=1e-6):
    while True:
        v = random_prob_vector(rng, 3)
        if v[0] - v[1] > min_gap and v[1] - v[2] > min_gap:
            return v


def prob_vectors(rng, n, size):
    """``size`` calls of :func:`random_prob_vector` as one (size, n) array.

    One batched Dirichlet draw returns the same vectors bit for bit as
    ``size`` single draws and leaves ``rng`` in the same state.
    """
    return np.sort(rng.dirichlet(np.ones(n), size=size), axis=1)[:, ::-1]


def strict_triples(rng, size, min_gap=1e-6):
    """``size`` calls of :func:`random_strict_triple` as one (size, 3) array.

    Each block draws only as many vectors as triples are still missing, and
    the rejection keeps the accepted ones in draw order, so the triples and
    the final state of ``rng`` are those of the sequential calls.
    """
    blocks = []
    while size > 0:
        v = prob_vectors(rng, 3, size)
        v = v[(v[:, 0] - v[:, 1] > min_gap) & (v[:, 1] - v[:, 2] > min_gap)]
        blocks.append(v)
        size -= len(v)
    return np.concatenate(blocks)
