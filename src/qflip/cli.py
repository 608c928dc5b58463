"""Command-line harness.

Subcommands::

    qflip verify axes [--chi R --eta R] [--format json|csv] [--out PATH]
    qflip verify flipper [--seed N] [--format json|csv] [--out PATH]
    qflip verify general --a R --c R --theta R [--mu R --nu R] [--margin R]
    qflip sweep --grid N [--margin R] [--out PATH] [--format json|csv] [--jobs N]
    qflip check-pair --lhs p1,p2,... --rhs q1,q2,...

Exit codes: 0 on success, 1 when a certification check fails, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import itertools
import multiprocessing
import sys
from collections import Counter
from dataclasses import dataclass
from math import isfinite, pi
from typing import Iterable, Iterator

import numpy as np

from . import kernels
from .bloch import FlipParams
from .constructions import (
    AXES_PARAMS,
    DEFAULT_DEGENERACY_MARGIN,
    DEFAULT_FLIPPER_SEED,
    VerificationError,
    axes_experiment,
    certify_rows,
    check_margin,
    flipper_experiment,
    general_flip_experiment,
)
from .cubic import cubic_coefficients
from .linalg import DimensionError, HermiticityError
from .ordering import DegenerateSpectraError, OrderingMismatchError, pattern_labels
from .report import CSV_HEADER, NonFiniteError, ReportRecord, fmt_float, json_line, sweep_chunks
from .schmidt import VERDICT_BY_CODE, SpectrumTieError, incomparable_3dim, verdict

# Failures raised while certifying, after the arguments were accepted; they
# exit 1.  Every other ValueError comes from validating the arguments and
# exits 2 as a usage error.
CERTIFICATION_ERRORS = (
    VerificationError,
    OrderingMismatchError,
    DegenerateSpectraError,
    HermiticityError,
    DimensionError,
    SpectrumTieError,
    NonFiniteError,
    np.linalg.LinAlgError,
)


@dataclass(frozen=True)
class SweepConfig:
    """Grid sweep configuration; interior sampling avoids the degenerate
    boundaries by construction (a, c at k/(N+1), theta at k*pi/(N+1))."""

    grid_n: int
    margin: float = DEFAULT_DEGENERACY_MARGIN
    output_path: str | None = None
    fmt: str = "json"
    jobs: int = 1

    def __post_init__(self):
        if self.grid_n < 2:
            raise ValueError("grid must be at least 2")
        check_margin(self.margin)
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")


def _emit(blocks: Iterable[str], out_path: str | None) -> None:
    """Write each block followed by a newline, streaming, to ``out_path`` or stdout."""
    if out_path:
        with open(out_path, "w") as fh:
            for block in blocks:
                fh.write(block)
                fh.write("\n")
    else:
        for block in blocks:
            sys.stdout.write(block)
            sys.stdout.write("\n")


def _emit_record(record: ReportRecord, fmt: str, out_path: str | None) -> None:
    if fmt == "csv":
        _emit([CSV_HEADER, record.to_csv_row()], out_path)
    else:
        _emit([record.to_json_line()], out_path)


def _cmd_verify_axes(args) -> int:
    result = axes_experiment(chi=args.chi, eta=args.eta)
    coeff_a, coeff_b, coeff_bp = cubic_coefficients(AXES_PARAMS)
    record = ReportRecord(
        experiment_id="verify-axes",
        params={
            "a": AXES_PARAMS.a,
            "c": AXES_PARAMS.c,
            "theta": AXES_PARAMS.theta,
            "chi": args.chi,
            "eta": args.eta,
        },
        lambda_initial=list(result.lambda_initial),
        lambda_final=list(result.lambda_final),
        A=coeff_a,
        B=coeff_b,
        Bprime=coeff_bp,
        ordering=result.ordering.label if result.ordering else None,
        verdict=str(result.verdict),
        max_analytic_numeric_error=result.max_err,
        degeneracy_flag=False,
    )
    _emit_record(record, args.format, args.out)
    return 0


def _cmd_verify_flipper(args) -> int:
    result = flipper_experiment(seed=args.seed)
    record = ReportRecord(
        experiment_id="verify-flipper",
        params={
            "seed": args.seed,
            "direction": [float(x) for x in result.direction],
            "bloch_initial": [float(x) for x in result.bloch_initial],
            "bloch_final": [float(x) for x in result.bloch_final],
        },
        lambda_initial=list(result.lambda_initial),
        lambda_final=list(result.lambda_final),
        verdict=str(result.verdict),
        max_analytic_numeric_error=result.max_err,
        degeneracy_flag=False,
    )
    _emit_record(record, args.format, args.out)
    return 0


def _cmd_verify_general(args) -> int:
    p = FlipParams(
        a=args.a, c=args.c, theta=args.theta, allow_boundary_theta=args.degenerate_mode
    )
    result = general_flip_experiment(p, mu=args.mu, nu=args.nu, margin=args.margin)
    record = ReportRecord(
        experiment_id="verify-general",
        params={
            "a": p.a,
            "c": p.c,
            "theta": p.theta,
            "mu": args.mu,
            "nu": args.nu,
            "margin": args.margin,
        },
        lambda_initial=list(result.numeric_initial),
        lambda_final=list(result.numeric_final),
        A=result.coeff_a,
        B=result.coeff_b,
        Bprime=result.coeff_bprime,
        ordering=result.ordering.label if result.ordering else None,
        verdict=str(result.verdict),
        max_analytic_numeric_error=result.max_err,
        degeneracy_flag=result.degenerate,
    )
    _emit_record(record, args.format, args.out)
    return 0


def _parse_probs(text: str, name: str) -> np.ndarray:
    try:
        values = np.array([float(x) for x in text.split(",") if x.strip() != ""])
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc
    if values.size < 2:
        raise ValueError(f"{name} needs at least two entries")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} entries must be finite")
    if np.any(values < -1e-12) or abs(values.sum() - 1.0) > 1e-6:
        raise ValueError(f"{name} must be a probability vector summing to 1")
    return np.sort(values)[::-1]


def _cmd_check_pair(args) -> int:
    lhs = _parse_probs(args.lhs, "--lhs")
    rhs = _parse_probs(args.rhs, "--rhs")
    v = verdict(lhs, rhs)
    closed_form = None
    if lhs.size == 3 and rhs.size == 3:
        try:
            closed_form = incomparable_3dim(lhs, rhs)
        except SpectrumTieError:
            closed_form = None
    record = ReportRecord(
        experiment_id="check-pair",
        params={"closed_form_incomparable": closed_form},
        lambda_initial=[float(x) for x in lhs],
        lambda_final=[float(x) for x in rhs],
        verdict=str(v),
    )
    _emit_record(record, args.format, args.out)
    return 0


def _eval_chunk(chunk):
    a, c, theta = chunk
    return kernels.grid_eval(a, c, theta)


def _grid_eval(flat_a, flat_c, flat_t, jobs: int) -> dict:
    if jobs == 1:
        return kernels.grid_eval(flat_a, flat_c, flat_t)
    chunks = [
        (flat_a[s], flat_c[s], flat_t[s])
        for s in (
            slice(i * len(flat_a) // jobs, (i + 1) * len(flat_a) // jobs)
            for i in range(jobs)
        )
        if s.start != s.stop
    ]
    with multiprocessing.Pool(jobs) as pool:
        parts = pool.map(_eval_chunk, chunks)
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


def _run_sweep(cfg: SweepConfig) -> tuple[Iterator[str], dict]:
    """Evaluate and certify every grid point beyond the margin, in one batch.

    The margin mask depends only on (a, c, theta), so the kernel runs on the
    certified points alone.  :func:`certify_rows` checks the whole batch
    before this returns; a failure raises :class:`VerificationError` (or
    :class:`OrderingMismatchError`), so nothing has been written yet.
    Returns the record blocks, formatted lazily, and the summary.
    """
    n = cfg.grid_n
    ticks = np.arange(1, n + 1) / (n + 1)
    angles = ticks * pi
    # the measure broadcast over the (a, c, theta) axes, so no N^3 coordinate grid is built
    measure = kernels.degeneracy(ticks[:, None, None], ticks[None, :, None], angles)
    ia, ic, itheta = np.nonzero(np.abs(measure) > cfg.margin)
    if ia.size == 0:
        raise VerificationError(
            f"no grid point lies beyond the degeneracy margin {cfg.margin:g}; nothing was certified"
        )
    rows = _grid_eval(ticks[ia], ticks[ic], angles[itheta], cfg.jobs)
    # every row lies beyond the margin, so every verdict must be Incomparable
    max_err, codes, regions = certify_rows(rows, live=True)
    verdicts = np.array([str(v) for v in VERDICT_BY_CODE], dtype=object)[codes]
    ordering = pattern_labels(regions)

    columns = {
        "a": rows["a"], "c": rows["c"], "theta": rows["theta"],
        "ia": ia, "ic": ic, "itheta": itheta,
        "alpha1": rows["num_alpha"][:, 0], "alpha2": rows["num_alpha"][:, 1], "alpha3": rows["num_alpha"][:, 2],
        "beta1": rows["num_beta"][:, 0], "beta2": rows["num_beta"][:, 1], "beta3": rows["num_beta"][:, 2],
        "A": rows["A"], "B": rows["B"], "Bprime": rows["Bprime"],
        "ordering": ordering, "verdict": verdicts, "max_err": max_err,
    }
    pattern_counts = Counter(label for label in ordering.tolist() if label is not None)
    summary = {
        "experiment_id": "sweep-summary",
        "grid": n,
        "margin": cfg.margin,
        "points_total": measure.size,
        "points_emitted": ia.size,
        "points_degenerate_skipped": measure.size - ia.size,
        "pattern_counts": dict(sorted(pattern_counts.items())),
        "max_analytic_numeric_error": float(max_err.max()),
        "non_incomparable_count": 0,  # any other verdict failed the sweep above
    }
    return sweep_chunks(cfg.fmt, columns), summary


def _cmd_sweep(args) -> int:
    cfg = SweepConfig(
        grid_n=args.grid,
        margin=args.margin,
        output_path=args.out,
        fmt=args.format,
        jobs=args.jobs,
    )
    chunks, summary = _run_sweep(cfg)
    if cfg.fmt == "csv":
        counts = ";".join(f"{k}={v}" for k, v in summary["pattern_counts"].items())
        summary_line = (
            f"# summary points_total={summary['points_total']}"
            f" points_emitted={summary['points_emitted']}"
            f" points_degenerate_skipped={summary['points_degenerate_skipped']}"
            f" max_analytic_numeric_error={fmt_float(summary['max_analytic_numeric_error'])}"
            f" non_incomparable_count={summary['non_incomparable_count']}"
            f" pattern_counts={counts}"
        )
        _emit(itertools.chain([CSV_HEADER], chunks, [summary_line]), cfg.output_path)
    else:
        _emit(itertools.chain(chunks, [json_line(summary)]), cfg.output_path)
    print(
        f"sweep: {summary['points_emitted']} records, "
        f"max analytic/numeric error {summary['max_analytic_numeric_error']:.3e}, "
        f"{summary['non_incomparable_count']} non-incomparable verdicts",
        file=sys.stderr,
    )
    return 0


def finite_float(text: str) -> float:
    """Type of every float flag: a finite number, anything else a usage error."""
    if not isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_output_flags(parser) -> None:
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qflip",
        description="Certify that exact flipping of generic qubit triples forces "
        "LOCC-incomparable bipartite spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one named experiment")
    vsub = p_verify.add_subparsers(dest="experiment", required=True)

    p_axes = vsub.add_parser("axes", help="x/y/z axis-state experiment")
    p_axes.add_argument("--chi", type=finite_float, default=0.0)
    p_axes.add_argument("--eta", type=finite_float, default=0.0)
    _add_output_flags(p_axes)
    p_axes.set_defaults(func=_cmd_verify_axes)

    p_flip = vsub.add_parser("flipper", help="incomparable pair implies a universal flipper")
    p_flip.add_argument("--seed", type=int, default=DEFAULT_FLIPPER_SEED)
    _add_output_flags(p_flip)
    p_flip.set_defaults(func=_cmd_verify_flipper)

    p_gen = vsub.add_parser("general", help="general three-state family point")
    p_gen.add_argument("--a", type=finite_float, required=True)
    p_gen.add_argument("--c", type=finite_float, required=True)
    p_gen.add_argument("--theta", type=finite_float, required=True)
    p_gen.add_argument("--mu", type=finite_float, default=0.0)
    p_gen.add_argument("--nu", type=finite_float, default=0.0)
    p_gen.add_argument("--margin", type=finite_float, default=DEFAULT_DEGENERACY_MARGIN)
    p_gen.add_argument(
        "--degenerate-mode",
        action="store_true",
        help="allow boundary theta (0 or pi) for deliberately degenerate runs",
    )
    _add_output_flags(p_gen)
    p_gen.set_defaults(func=_cmd_verify_general)

    p_sweep = sub.add_parser("sweep", help="evaluate the family over a full grid")
    p_sweep.add_argument("--grid", type=int, required=True, help="points per axis")
    p_sweep.add_argument("--margin", type=finite_float, default=DEFAULT_DEGENERACY_MARGIN)
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes for the kernel")
    _add_output_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_pair = sub.add_parser("check-pair", help="verdict on two raw Schmidt vectors")
    p_pair.add_argument("--lhs", required=True, help="comma-separated probabilities")
    p_pair.add_argument("--rhs", required=True, help="comma-separated probabilities")
    _add_output_flags(p_pair)
    p_pair.set_defaults(func=_cmd_check_pair)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CERTIFICATION_ERRORS as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error exits


def entry() -> None:
    sys.exit(main())
