"""Command-line harness.

Subcommands::

    qflip verify axes [--chi R --eta R] [--format json|csv] [--out PATH]
    qflip verify flipper [--seed N] [--format json|csv] [--out PATH]
    qflip verify general --a R --c R --theta R [--mu R --nu R] [--margin R]
        [--degenerate-mode] [--format json|csv] [--out PATH]
    qflip sweep --grid N [--margin R] [--format json|csv] [--out PATH]
    qflip check-pair --lhs p1,p2,... --rhs q1,q2,... [--format json|csv] [--out PATH]

Exit codes: 0 on success, 1 when a certification check fails, 2 on usage
errors, when the output cannot be written and when memory runs out.
"""

from __future__ import annotations

import argparse
import os
import shutil
import stat
import sys
import tempfile
import threading
from collections import Counter
from contextlib import closing, contextmanager
from dataclasses import dataclass
from functools import partial
from math import isfinite, pi
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

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
from .ordering import CODE_LABELS, OrderingMismatchError, pattern_codes
from .report import CSV_HEADER, NonFiniteError, ReportRecord, fmt_float, grid_text, json_line, sweep_block
from .schmidt import EPS_TIE, VERDICT_BY_CODE, SpectrumTieError, incomparable_3dim, verdict

# Failures raised while certifying, after the arguments were accepted; they
# exit 1.  Every other ValueError comes from validating the arguments and
# exits 2 as a usage error.
CERTIFICATION_ERRORS = (
    VerificationError,
    OrderingMismatchError,
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
    fmt: str = "json"

    def __post_init__(self):
        if self.grid_n < 2:
            raise ValueError("grid must be at least 2")
        check_margin(self.margin)


@contextmanager
def _spool(out_path: str | None) -> Iterator[BinaryIO]:
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
        with os.fdopen(fd, "w+b") as fh:
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


def _copy_out(spool: BinaryIO, out_path: str | None) -> None:
    try:
        if out_path:
            with open(out_path, "wb") as out:
                shutil.copyfileobj(spool, out)
        else:
            sys.stdout.flush()  # text written before the spool goes first
            shutil.copyfileobj(spool, sys.stdout.buffer)
            sys.stdout.buffer.flush()
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
            fh.write(f"{block}\n".encode())


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
    # A total is the verdict's last partial sum: two totals more than the tie
    # tolerance apart would decide the verdict instead of the spectra.
    gap = abs(float(np.cumsum(lhs)[-1] - np.cumsum(rhs)[-1]))
    if gap > EPS_TIE:
        raise ValueError(f"--lhs and --rhs totals differ by {gap:.1e}, more than the tie tolerance {EPS_TIE:.0e}")
    if args.format == "csv" and max(lhs.size, rhs.size) > 3:
        raise ValueError("--format csv holds at most three entries per vector; use --format json")
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


# Points per chunk.  A worker thread runs the kernel on the next chunk while
# this thread certifies, formats and writes the current one, so two chunks
# are in flight at a time.  A larger chunk leaves the first chunk's kernel
# unoverlapped for longer, a smaller one pays more per-call overhead: a
# grid-40 sweep took a median 0.48 s in process with 2,048 or 8,192 rows and
# 0.44 s with 4,096 (2-vCPU VM, numpy 2.4).  Besides the chunks, a sweep
# holds O(N^2) for the point selection and 8 bytes per certified point for
# their flat indices.
CHUNK_ROWS = 4096

_VERDICT_TEXT = np.array([str(v) for v in VERDICT_BY_CODE], dtype=object)


def _evaluate_chunk(ticks: np.ndarray, angles: np.ndarray, flat: np.ndarray):
    """Run the kernel on one chunk of grid points.

    ``flat`` holds the points' flat indices into the (a, c, theta) grid.
    Returns the :func:`kernels.grid_eval` rows and the points' grid indices
    (ia, ic, itheta).
    """
    ia, ic, itheta = index = np.unravel_index(flat, (len(ticks), len(ticks), len(angles)))
    return kernels.grid_eval(ticks[ia], ticks[ic], angles[itheta]), index


def _certify_chunk(fmt: str, text: tuple, evaluated: tuple):
    """Certify one chunk :func:`_evaluate_chunk` returned and format its records.

    ``text`` is :func:`grid_text` of the grid's ticks and angles.  Returns
    the chunk's record block, its largest analytic/numeric error and its
    ordering pattern counts.  A failed check raises from :func:`certify_rows`.
    """
    rows, (ia, ic, itheta) = evaluated
    # every row lies beyond the margin, so every verdict must be Incomparable
    max_err, codes, regions = certify_rows(rows, live=True)
    patterns = pattern_codes(regions)
    tick_text, angle_text, index_text = text
    columns = {
        "a": tick_text[ia], "c": tick_text[ic], "theta": angle_text[itheta],
        "ia": index_text[ia], "ic": index_text[ic], "itheta": index_text[itheta],
        "alpha1": rows["num_alpha"][:, 0], "alpha2": rows["num_alpha"][:, 1], "alpha3": rows["num_alpha"][:, 2],
        "beta1": rows["num_beta"][:, 0], "beta2": rows["num_beta"][:, 1], "beta3": rows["num_beta"][:, 2],
        "A": rows["A"], "B": rows["B"], "Bprime": rows["Bprime"],
        "ordering": CODE_LABELS[patterns], "verdict": _VERDICT_TEXT[codes], "max_err": max_err,
    }
    per_code = np.bincount(patterns, minlength=CODE_LABELS.size)
    counts = {CODE_LABELS[c]: int(per_code[c]) for c in np.flatnonzero(per_code)}
    return sweep_block(fmt, columns), float(max_err.max()), counts


def _capture(evaluate: Callable, item, outcome: list) -> None:
    """Set ``outcome`` to ``evaluate(item)`` and None, or to None and the exception it raised."""
    try:
        outcome[:] = evaluate(item), None
    except BaseException as exc:  # raised again by the thread that reads outcome
        outcome[:] = None, exc


def _evaluated_ahead(evaluate: Callable, items: Sequence) -> Iterator:
    """``map(evaluate, items)`` over a non-empty sequence, evaluating the next
    item on a worker thread while the caller uses the current result.

    The first item is evaluated on the calling thread, so one item starts no
    thread, and no item is evaluated more than one ahead of the result the
    caller holds.  An exception the worker raised is raised here in its
    item's turn.  The worker is joined before the next result is handed out
    and when the generator is closed: close it if the caller stops early.

    The sweep hands it the kernel alone (:func:`_evaluate_chunk`).  Only work
    in numpy calls that release the interpreter lock overlaps the caller's,
    and every call the worker makes must take the lock back from a caller
    that formats records in Python; numpy's eigensolver does not run in
    parallel within one process, so a second worker would gain nothing.
    """
    result = evaluate(items[0])
    for item in items[1:]:
        outcome = []
        worker = threading.Thread(target=_capture, args=(evaluate, item, outcome), name="qflip-evaluate")
        worker.start()
        try:
            yield result
        finally:
            worker.join()
        result, error = outcome
        if error is not None:
            raise error
    yield result


def _run_sweep(cfg: SweepConfig, out: BinaryIO) -> dict:
    """Evaluate, certify and write every grid point beyond the margin, chunk by chunk.

    The margin test depends only on (a, c, theta), so the kernel runs on the
    certified points alone, ``CHUNK_ROWS`` at a time, and the chunks' records
    are written to ``out`` (the CSV header first) in grid order.  A worker
    thread runs the kernel on chunk k + 1 while this thread certifies,
    formats and writes chunk k, so every record is certified on the thread
    that writes it, just before it is written.  No record is written before
    :func:`certify_rows` has checked it; a failure raises
    :class:`VerificationError` (or :class:`OrderingMismatchError`), and the
    caller discards ``out``.  Returns the summary.
    """
    n = cfg.grid_n
    ticks = np.arange(1, n + 1) / (n + 1)
    angles = ticks * pi
    # only the flat indices of the points beyond the margin are built, from
    # the rows of (a, c) that can hold one: no array of the grid's size
    flat = kernels.beyond_margin(ticks, angles, cfg.margin, CHUNK_ROWS)
    if flat.size == 0:
        raise VerificationError(
            f"no grid point lies beyond the degeneracy margin {cfg.margin:g}; nothing was certified"
        )
    if cfg.fmt == "csv":
        out.write(f"{CSV_HEADER}\n".encode())
    text = grid_text(ticks, angles)
    chunks = [flat[start : start + CHUNK_ROWS] for start in range(0, flat.size, CHUNK_ROWS)]
    evaluated = _evaluated_ahead(partial(_evaluate_chunk, ticks, angles), chunks)
    max_err, pattern_counts = 0.0, Counter()
    with closing(evaluated):  # joins the worker thread on every path
        for block, chunk_err, counts in map(partial(_certify_chunk, cfg.fmt, text), evaluated):
            out.write(block)
            out.write(b"\n")
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
    cfg = SweepConfig(grid_n=args.grid, margin=args.margin, fmt=args.format)
    with _spool(args.out) as out:
        summary = _run_sweep(cfg, out)
        if cfg.fmt == "csv":
            counts = ";".join(f"{k}={v}" for k, v in summary["pattern_counts"].items())
            line = (
                f"# summary points_total={summary['points_total']}"
                f" points_emitted={summary['points_emitted']}"
                f" points_degenerate_skipped={summary['points_degenerate_skipped']}"
                f" max_analytic_numeric_error={fmt_float(summary['max_analytic_numeric_error'])}"
                f" non_incomparable_count={summary['non_incomparable_count']}"
                f" pattern_counts={counts}"
            )
        else:
            line = json_line(summary)
        out.write(f"{line}\n".encode())
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


def non_negative_int(text: str) -> int:
    """Type of ``--seed``: a seed for numpy's generator, anything else a usage error."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def grid_size(text: str) -> int:
    """Type of ``--grid``: at least two points per axis, anything else a usage error."""
    if (value := int(text)) < 2:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 2, got {text!r}")
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
    p_flip.add_argument("--seed", type=non_negative_int, default=DEFAULT_FLIPPER_SEED)
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
    p_sweep.add_argument("--grid", type=grid_size, required=True, help="points per axis")
    p_sweep.add_argument("--margin", type=finite_float, default=DEFAULT_DEGENERACY_MARGIN)
    # Hidden and read by nothing: the benchmark runner still passes --jobs 1,
    # the one value taken.  The benchmark upkeep of ROADMAP item 7 drops that
    # flag from perfbench/run.py, and then this argument goes too.
    p_sweep.add_argument("--jobs", type=int, choices=[1], default=1, help=argparse.SUPPRESS)
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
    except MemoryError as exc:
        # a grid too large for this machine: the arguments, not a failed certificate
        parser.exit(2, f"{parser.prog}: error: not enough memory: {exc or 'allocation failed'}\n")
    except ValueError as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error exits


def entry() -> None:
    sys.exit(main())
