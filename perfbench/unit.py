"""One unit of benchmark work, run in its own process by ``run.py``.

    unit.py setup
    unit.py sweep REPORT TRACE -- <qflip CLI arguments>
    unit.py scalar REPORT TRACE SEED UNIT N_POINTS N_PAIRS

``setup`` only imports qflip and builds the CLI parser; the parent times the
whole process.  ``sweep`` calls ``qflip.cli.main`` with the given arguments.
``scalar`` certifies seeded family points one at a time through
``general_flip_experiment`` and gives seeded spectrum pairs to ``verdict`` and
``incomparable_3dim``, then checks every result against the brute-force gate.
The work modes write a JSON report to REPORT; with TRACE=1 it carries the
per-layer table of :mod:`layers`.  With TRACE=0 the work runs under a
:class:`hostspeed.Sampler`: the report carries the reference-block times, and
every work time excludes the time the blocks took.
"""

from __future__ import annotations

import json
import sys
import time
from math import pi

import numpy as np

import gate
import hostspeed
import layers

POINT_RANGE = (0.05, 0.95)  # a and c; keeps |a b c d sin(theta)| >= 1e-4
THETA_MARGIN = 0.05  # theta in [0.05, pi - 0.05]
MIN_GAP = 1e-6  # pairs: entries of one spectrum differ by more than this
MIN_CROSS_GAP = 1e-9  # pairs: leading partial sums of the two differ by more than this


def family_points(rng, n: int) -> np.ndarray:
    """n seeded (a, c, theta) rows, all far from the degenerate great circles."""
    lo, hi = POINT_RANGE
    return np.column_stack(
        [rng.uniform(lo, hi, n), rng.uniform(lo, hi, n), rng.uniform(THETA_MARGIN, pi - THETA_MARGIN, n)]
    )


def spectrum_pairs(rng, n: int) -> np.ndarray:
    """n seeded pairs of descending Dirichlet(1, 1, 1) spectra, shape (n, 2, 3).

    Pairs within the tie tolerance of a partial-sum crossing are redrawn: there
    the closed-form test and the majorization verdict may legitimately differ.
    """
    out = np.empty((0, 2, 3))
    while len(out) < n:
        draw = -np.sort(-rng.dirichlet(np.ones(3), size=(2 * n, 2)), axis=-1)
        gaps = np.abs(np.diff(draw, axis=-1)).min(axis=(1, 2))
        sums = np.cumsum(draw, axis=-1)[:, :, :2]
        cross = np.abs(sums[:, 0] - sums[:, 1]).min(axis=-1)
        out = np.concatenate([out, draw[(gaps > MIN_GAP) & (cross > MIN_CROSS_GAP)]])
    return out[:n]


def _certified(r) -> bool:
    """An Incomparable, non-degenerate certificate whose two routes agree."""
    return (
        str(r.verdict) == gate.INCOMPARABLE
        and not r.degenerate
        and r.max_err <= gate.EPS_SPEC
        and gate.brute_verdict(r.numeric_initial, r.numeric_final) == gate.INCOMPARABLE
    )


def _run_sweep(argv: list[str], host) -> dict:
    import qflip.cli

    with host:
        start = time.perf_counter()
        rc = qflip.cli.main(argv)
        work_s = time.perf_counter() - start - host.spent
    return {"rc": rc, "work_s": work_s}


def _run_scalar(host, seed: int, unit: int, n_points: int, n_pairs: int) -> dict:
    from qflip import constructions, schmidt
    from qflip.bloch import FlipParams

    rng = np.random.default_rng([seed, unit])
    points = [FlipParams(float(a), float(c), float(t)) for a, c, t in family_points(rng, n_points)]
    pairs = spectrum_pairs(rng, n_pairs)
    pairs_list = [(p, q) for p, q in pairs]

    certify = constructions.general_flip_experiment
    clock = time.perf_counter
    latencies, results = [], []
    with host:
        start = clock()
        for p in points:
            # Read in this order, a reference block that fires between the reads
            # inflates one latency instead of making it negative.
            t0 = clock()
            spent = host.spent
            results.append(certify(p))
            spent = host.spent - spent
            latencies.append(clock() - t0 - spent)
        certify_s = clock() - start - host.spent
        split = len(host.samples)  # reference blocks before this timed the certify phase

        verdict, closed_form = schmidt.verdict, schmidt.incomparable_3dim
        answers = []
        spent, start = host.spent, clock()
        for p, q in pairs_list:
            answers.append((verdict(p, q), closed_form(p, q)))
        pairs_s = clock() - start - (host.spent - spent)

    certify_failed = sum(not _certified(r) for r in results)
    pairs_failed = 0
    for (p, q), (v, incomparable) in zip(pairs_list, answers):
        expected = gate.brute_verdict(p, q)
        pairs_failed += bool(str(v) != expected or incomparable != (expected == gate.INCOMPARABLE))
    return {
        "rc": 0,
        "work_s": certify_s + pairs_s,
        "certify_s": certify_s,
        "pairs_s": pairs_s,
        "latencies_s": latencies,
        "reference_split": split,
        "attempted": n_points + n_pairs,
        "failed": certify_failed + pairs_failed,
        "problems": [f"{certify_failed} certifications and {pairs_failed} pair verdicts failed the gate"]
        if certify_failed or pairs_failed
        else [],
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        import qflip.cli

        qflip.cli.build_parser()
        return 0
    report_path, traced = argv[1], argv[2] == "1"
    tracer = None
    if traced:
        # No reference blocks: their time would land in whichever layer they interrupt.
        tracer = layers.Tracer()
        tracer.install()
    host = hostspeed.Sampler(active=not traced)
    if mode == "sweep":
        report = _run_sweep(argv[argv.index("--") + 1 :], host)
    else:
        report = _run_scalar(host, *(int(x) for x in argv[3:7]))
    report["reference_s"] = host.samples
    import qflip
    import qflip.kernels

    report["env"] = {"backend": qflip.kernels.BACKEND, "qflip": qflip.__version__, "numpy": np.__version__}
    if tracer is not None:
        report["trace"] = tracer.report()
        report["trace"]["wrapper_cost_s"] = layers.wrapper_cost_s()
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
