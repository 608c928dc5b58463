"""Host-speed reference: a fixed block of benchmark-owned work, timed next to the program.

The shared host this benchmark was tuned on changes speed by up to 2x over
tens of seconds, and both vCPUs change together (the process's CPU time moves
with its wall time, so this is not time stolen by the hypervisor).  A timing of
the program alone then spreads by 10-30% between runs of the same code.  The
program's times and the times of a fixed reference block move together, so
every end-to-end time of the work is reported scaled to a nominal host on
which one reference block takes ``NOMINAL_S``: ``raw * NOMINAL_S / reference``.
README.md gives the spreads with and without the scaling; the raw values go to
the run's detail line.  The scaling cancels the host, not the program: the
reference is the benchmark's own code, so a change to qflip moves the scaled
times exactly as it moves the raw ones.

The reference block mixes what the program does: small numpy linear algebra
(the scalar route), plain Python arithmetic and string formatting (the
per-point verdict and report layers) and a pass over a large array (the batched
kernel).  It lives here, so no change to qflip can move it.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.004  # one reference block on the 2-vCPU VM this was tuned on, in a typical state
PERIOD_S = 0.1  # a sample every PERIOD_S of the work: about 4% of the work time
EDGE_BLOCKS = 3  # blocks timed just before and just after the work

_SMALL = [np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]) + 1e-3 * i for i in range(48)]
_LARGE = np.linspace(0.0, 1.0, 1 << 17)


def reference_block() -> float:
    """Run the fixed reference work once; returns its wall time in seconds."""
    start = time.perf_counter()
    for m in _SMALL:
        np.linalg.eigvalsh(m)
        np.sort((m @ m).sum(axis=0))
    acc = 0
    for i in range(6000):
        acc += (i * i) % 7
    json.dumps([{"k": i, "v": i / 7.0, "s": f"{i:08d}"} for i in range(240)])
    np.sin(_LARGE).sum()
    return time.perf_counter() - start


def scale(samples) -> float:
    """Factor that turns raw times measured next to ``samples`` into nominal-host times.

    The samples are spread evenly over the work's wall time, so the work done
    at each host speed is proportional to that speed: the factor is the mean of
    the per-sample speed ratios, not the ratio to the mean sample.
    """
    return NOMINAL_S * statistics.fmean(1.0 / x for x in samples)


class Sampler:
    """Times a reference block every ``PERIOD_S`` of wall time while the work runs.

    The blocks run from a SIGALRM handler, between bytecodes of the work, so the
    samples are spread over the whole of the work (a long C call delays the next
    one).  ``spent`` is the total time the handler took; callers subtract it
    from the work they time.  Use as a context manager, in the main thread.
    An inactive sampler takes no samples and spends nothing.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.edge_blocks = EDGE_BLOCKS if active else 0
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.samples.append(reference_block())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        for _ in range(self.edge_blocks):
            self._tick()
        self.spent = 0.0
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        spent = self.spent
        for _ in range(self.edge_blocks):
            self._tick()
        self.spent = spent
