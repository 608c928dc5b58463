"""Command-line harness.

Subcommands::

    qflip verify axes [--chi R --eta R] [--format json|csv] [--out PATH]
    qflip verify flipper [--seed N] [--format json|csv] [--out PATH]
    qflip verify general --a R --c R --theta R [--mu R --nu R] [--margin R]
    qflip sweep --grid N [--margin R] [--out PATH] [--format json|csv] [--jobs N]
    qflip check-pair --lhs p1,p2,... --rhs q1,q2,...

Exit codes: 0 on success, 1 when a certification check fails, 2 on usage
errors and when the output cannot be written.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import shutil
import stat
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial
from math import isfinite, pi
from typing import Iterable, Iterator, TextIO

import numpy as np

from . import kernels
from .bloch import FlipParams
from .constructions import (
    DEFAULT_DEGENERACY_MARGIN,
    DEFAULT_FLIPPER_SEED,
    FlipExperimentResult,
    VerificationError,
    axes_experiment,
    certify_rows,
    check_margin,
    flipper_experiment,
    general_flip_experiment,
)
from .linalg import DimensionError, HermiticityError
from .ordering import OrderingMismatchError, pattern_labels
from .report import CSV_HEADER, NonFiniteError, ReportRecord, fmt_float, grid_text, json_line, sweep_block
from .schmidt import VERDICT_BY_CODE, SpectrumTieError, incomparable_3dim, verdict

# Failures raised while certifying, after the arguments were accepted; they
# exit 1.  Every other ValueError comes from validating the arguments and
# exits 2 as a usage error.
CERTIFICATION_ERRORS = (
    VerificationError,
    OrderingMismatchError,
    HermiticityError,
    DimensionError,
    SpectrumTieError,
    NonFiniteError,
    np.linalg.LinAlgError,
)


class OutputError(ValueError):
    """The output target cannot be written: exit 2 with a one-line message."""


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


@contextmanager
def _spool(out_path: str | None) -> Iterator[TextIO]:
    """A temporary file for the whole output, published only if the block succeeds.

    Where ``out_path`` is a regular file, or does not exist yet, the spool
    lies beside it and is renamed onto it, with the mode that
    ``open(out_path, "w")`` would leave.  For stdout, or a target that is not
    a regular file (a device, a pipe), the spool is copied out.  If the block
    raises, the spool is removed and the target is left untouched.  A
    directory target, or one beside which no spool can be created, raises
    :class:`OutputError` before the block runs, and so does a failed copy
    after it.
    """
    target, rename = None, False
    if out_path:
        target = os.path.realpath(out_path)
        try:
            st = os.stat(target)
        except OSError:  # missing, or unreachable, and then no spool can be created beside it
            umask = os.umask(0)
            os.umask(umask)
            mode, rename = 0o666 & ~umask, True
        else:
            if stat.S_ISDIR(st.st_mode):
                raise OutputError(f"--out {out_path} is a directory")
            mode, rename = stat.S_IMODE(st.st_mode), stat.S_ISREG(st.st_mode)
    try:
        fd, spool = tempfile.mkstemp(prefix=".qflip-", suffix=".tmp", dir=os.path.dirname(target) if rename else None)
    except OSError as exc:
        if not rename:
            raise
        raise OutputError(f"cannot write --out {out_path}: {exc.strerror}") from exc
    try:
        with os.fdopen(fd, "w+") as fh:
            yield fh
            if rename:
                os.fchmod(fd, mode)
            else:
                fh.seek(0)
                _copy_out(fh, out_path)
        if rename:
            os.replace(spool, target)
    finally:
        if os.path.exists(spool):
            os.unlink(spool)


def _copy_out(spool: TextIO, out_path: str | None) -> None:
    try:
        if out_path:
            with open(out_path, "w") as out:
                shutil.copyfileobj(spool, out)
        else:
            shutil.copyfileobj(spool, sys.stdout)
            sys.stdout.flush()
    except OSError as exc:
        if not out_path:
            # Point stdout at devnull so that the flush at interpreter exit cannot raise.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                return  # the reader closed the pipe early (``| head``): not a failure
        target = f"--out {out_path}" if out_path else "stdout"
        raise OutputError(f"cannot write {target}: {exc.strerror}") from exc


def _emit(blocks: Iterable[str], out_path: str | None) -> None:
    """Write each block followed by a newline to ``out_path`` or stdout, through a spool."""
    with _spool(out_path) as fh:
        for block in blocks:
            fh.write(block)
            fh.write("\n")


def _emit_record(record: ReportRecord, fmt: str, out_path: str | None) -> None:
    if fmt == "csv":
        _emit([CSV_HEADER, record.to_csv_row()], out_path)
    else:
        _emit([record.to_json_line()], out_path)


def _emit_family_point(experiment_id: str, params: dict, result: FlipExperimentResult, args) -> int:
    """Write one certified family point; ``params`` follow its a, c and theta."""
    p = result.params
    record = ReportRecord(
        experiment_id=experiment_id,
        params={"a": p.a, "c": p.c, "theta": p.theta, **params},
        lambda_initial=list(result.numeric_initial),
        lambda_final=list(result.numeric_final),
        A=result.coeff_a,
        B=result.coeff_b,
        Bprime=result.coeff_bprime,
        ordering=result.ordering,
        verdict=str(result.verdict),
        max_analytic_numeric_error=result.max_err,
        degeneracy_flag=result.degenerate,
    )
    _emit_record(record, args.format, args.out)
    return 0


def _cmd_verify_axes(args) -> int:
    result = axes_experiment(chi=args.chi, eta=args.eta)
    return _emit_family_point("verify-axes", {"chi": args.chi, "eta": args.eta}, result, args)


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
    return _emit_family_point("verify-general", {"mu": args.mu, "nu": args.nu, "margin": args.margin}, result, args)


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


# Certified points per chunk: each chunk is evaluated, certified, formatted and
# written before the next, so a sweep's memory is O(CHUNK_ROWS), not O(N^3).
CHUNK_ROWS = 8192

_VERDICT_TEXT = np.array([str(v) for v in VERDICT_BY_CODE], dtype=object)


def _sweep_chunk(fmt: str, ticks: np.ndarray, angles: np.ndarray, text: tuple, flat: np.ndarray):
    """Evaluate, certify and format one chunk of certified grid points.

    ``flat`` holds the points' flat indices into the (a, c, theta) grid and
    ``text`` is :func:`grid_text` of ``ticks`` and ``angles``.  Returns the
    chunk's record block, its largest analytic/numeric error and its
    ordering pattern counts.  A failed check raises from
    :func:`certify_rows`.
    """
    ia, ic, itheta = np.unravel_index(flat, (len(ticks), len(ticks), len(angles)))
    rows = kernels.grid_eval(ticks[ia], ticks[ic], angles[itheta])
    # every row lies beyond the margin, so every verdict must be Incomparable
    max_err, codes, regions = certify_rows(rows, live=True)
    ordering = pattern_labels(regions)
    tick_text, angle_text, index_text = text
    columns = {
        "a": tick_text[ia], "c": tick_text[ic], "theta": angle_text[itheta],
        "ia": index_text[ia], "ic": index_text[ic], "itheta": index_text[itheta],
        "alpha1": rows["num_alpha"][:, 0], "alpha2": rows["num_alpha"][:, 1], "alpha3": rows["num_alpha"][:, 2],
        "beta1": rows["num_beta"][:, 0], "beta2": rows["num_beta"][:, 1], "beta3": rows["num_beta"][:, 2],
        "A": rows["A"], "B": rows["B"], "Bprime": rows["Bprime"],
        "ordering": ordering, "verdict": _VERDICT_TEXT[codes], "max_err": max_err,
    }
    counts = Counter(label for label in ordering.tolist() if label is not None)
    return sweep_block(fmt, columns), float(max_err.max()), counts


def _run_sweep(cfg: SweepConfig, out: TextIO) -> dict:
    """Evaluate, certify and write every grid point beyond the margin, chunk by chunk.

    The margin mask depends only on (a, c, theta), so the kernel runs on the
    certified points alone, ``CHUNK_ROWS`` at a time, in grid order; with
    ``cfg.jobs`` above 1 the chunks are spread over a process pool.  Each
    chunk's records are written to ``out`` (the CSV header first) as soon as
    :func:`certify_rows` has checked them; a failure raises
    :class:`VerificationError` (or :class:`OrderingMismatchError`), and the
    caller discards ``out``.  Returns the summary.
    """
    n = cfg.grid_n
    ticks = np.arange(1, n + 1) / (n + 1)
    angles = ticks * pi
    # the measure broadcast over the (a, c, theta) axes, so no N^3 coordinate
    # grid is built; only the flat indices of the points beyond the margin stay
    measure = kernels.degeneracy(ticks[:, None, None], ticks[None, :, None], angles)
    flat = np.flatnonzero(np.abs(measure) > cfg.margin)
    del measure
    if flat.size == 0:
        raise VerificationError(
            f"no grid point lies beyond the degeneracy margin {cfg.margin:g}; nothing was certified"
        )
    if cfg.fmt == "csv":
        out.write(CSV_HEADER + "\n")
    work = partial(_sweep_chunk, cfg.fmt, ticks, angles, grid_text(ticks, angles))
    chunks = (flat[start : start + CHUNK_ROWS] for start in range(0, flat.size, CHUNK_ROWS))
    max_err, pattern_counts = 0.0, Counter()
    workers = min(cfg.jobs, -(-flat.size // CHUNK_ROWS))  # no idle worker, no pool for one chunk
    parallel = multiprocessing.get_context("spawn").Pool(workers) if workers > 1 else nullcontext()
    with parallel as pool:
        for block, chunk_err, counts in (pool.imap if pool else map)(work, chunks):
            out.write(block)
            out.write("\n")
            max_err = max(max_err, chunk_err)
            pattern_counts.update(counts)
    return {
        "experiment_id": "sweep-summary",
        "grid": n,
        "margin": cfg.margin,
        "points_total": n**3,
        "points_emitted": flat.size,
        "points_degenerate_skipped": n**3 - flat.size,
        "pattern_counts": dict(sorted(pattern_counts.items())),
        "max_analytic_numeric_error": max_err,
        "non_incomparable_count": 0,  # any other verdict failed the sweep above
    }


def _cmd_sweep(args) -> int:
    cfg = SweepConfig(
        grid_n=args.grid,
        margin=args.margin,
        output_path=args.out,
        fmt=args.format,
        jobs=args.jobs,
    )
    with _spool(cfg.output_path) as out:
        summary = _run_sweep(cfg, out)
        if cfg.fmt == "csv":
            counts = ";".join(f"{k}={v}" for k, v in summary["pattern_counts"].items())
            out.write(
                f"# summary points_total={summary['points_total']}"
                f" points_emitted={summary['points_emitted']}"
                f" points_degenerate_skipped={summary['points_degenerate_skipped']}"
                f" max_analytic_numeric_error={fmt_float(summary['max_analytic_numeric_error'])}"
                f" non_incomparable_count={summary['non_incomparable_count']}"
                f" pattern_counts={counts}\n"
            )
        else:
            out.write(json_line(summary) + "\n")
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
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes, each evaluating, certifying and formatting whole chunks")
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
    except OutputError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except ValueError as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error exits


def entry() -> None:
    sys.exit(main())
