"""Report records and their JSON/CSV wire formats.

JSON is emitted by a tiny purpose-built serializer so that every float is
printed with 17 significant digits (lossless round trips) and records are
byte-identical across runs; CSV uses a fixed column order shared by every
command.  Sweep records, which come by the thousand, are formatted from
columns through fixed per-row templates that produce the same bytes as
:class:`ReportRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Any, Iterator

import numpy as np

CSV_COLUMNS = (
    "a",
    "c",
    "theta",
    "A",
    "B",
    "Bprime",
    "alpha1",
    "alpha2",
    "alpha3",
    "beta1",
    "beta2",
    "beta3",
    "ordering",
    "verdict",
    "max_err",
    "degenerate",
)

CSV_HEADER = ",".join(CSV_COLUMNS)


class NonFiniteError(ValueError):
    """A NaN or an infinity reached the writer; neither has a JSON form."""


def fmt_float(x: float) -> str:
    """17 significant digits; NaN and infinities raise :class:`NonFiniteError`."""
    if not isfinite(x := float(x)):
        raise NonFiniteError(f"cannot write the non-finite float {x!r}")
    return format(x, ".17g")


def _json_fragment(v: Any) -> str:
    if v is None:
        return "null"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    if isinstance(v, str):
        escaped = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_fragment(x) for x in v) + "]"
    if isinstance(v, dict):
        items = ", ".join(f'{_json_fragment(str(k))}: {_json_fragment(x)}' for k, x in v.items())
        return "{" + items + "}"
    raise TypeError(f"cannot serialize {type(v)!r}")


def json_line(pairs: dict[str, Any]) -> str:
    return _json_fragment(pairs)


@dataclass(frozen=True)
class ReportRecord:
    """One experiment outcome in wire-format-ready form."""

    experiment_id: str
    params: dict[str, Any] = field(default_factory=dict)
    lambda_initial: list[float] | None = None
    lambda_final: list[float] | None = None
    A: float | None = None
    B: float | None = None
    Bprime: float | None = None
    ordering: str | None = None
    verdict: str | None = None
    max_analytic_numeric_error: float | None = None
    degeneracy_flag: bool = False

    def to_json_line(self) -> str:
        return json_line(
            {
                "experiment_id": self.experiment_id,
                "params": self.params,
                "lambda_initial": self.lambda_initial,
                "lambda_final": self.lambda_final,
                "A": self.A,
                "B": self.B,
                "Bprime": self.Bprime,
                "ordering": self.ordering,
                "verdict": self.verdict,
                "maxAnalyticNumericError": self.max_analytic_numeric_error,
                "degeneracyFlag": self.degeneracy_flag,
            }
        )

    def to_csv_row(self) -> str:
        def cell(v):
            if v is None:
                return ""
            if isinstance(v, (float, np.floating)):
                return fmt_float(v)
            return str(v)

        def three(values):
            out = list(values) if values is not None else []
            return (out + [None] * 3)[:3]

        lam_i = three(self.lambda_initial)
        lam_f = three(self.lambda_final)
        values = [
            self.params.get("a"),
            self.params.get("c"),
            self.params.get("theta"),
            self.A,
            self.B,
            self.Bprime,
            *lam_i,
            *lam_f,
            self.ordering,
            self.verdict,
            self.max_analytic_numeric_error,
            "true" if self.degeneracy_flag else "false",
        ]
        return ",".join(cell(v) for v in values)


# Row templates of sweep records: the exact output of ReportRecord.to_json_line
# and .to_csv_row for experiment_id "sweep", params {a, c, theta, ia, ic,
# itheta} and degeneracy_flag False, with every value a %-slot.  Each takes its
# values in the order of the field tuple beside it.
_SWEEP_JSON_FIELDS = (
    "a", "c", "theta", "ia", "ic", "itheta",
    "alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3",
    "A", "B", "Bprime", "ordering", "verdict", "max_err",
)
_SWEEP_JSON_ROW = (
    '{"experiment_id": "sweep", "params": {"a": %.17g, "c": %.17g, "theta": %.17g, '
    '"ia": %d, "ic": %d, "itheta": %d}, '
    '"lambda_initial": [%.17g, %.17g, %.17g], "lambda_final": [%.17g, %.17g, %.17g], '
    '"A": %.17g, "B": %.17g, "Bprime": %.17g, "ordering": %s, "verdict": %s, '
    '"maxAnalyticNumericError": %.17g, "degeneracyFlag": false}'
)
_SWEEP_CSV_FIELDS = (
    "a", "c", "theta", "A", "B", "Bprime",
    "alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3",
    "ordering", "verdict", "max_err",
)
_SWEEP_CSV_ROW = ",".join(["%.17g"] * 12 + ["%s", "%s", "%.17g", "false"])
_TEXT_FIELDS = ("ordering", "verdict")


def _csv_text(value: str | None) -> str:
    return "" if value is None else value


def sweep_chunks(fmt: str, columns: dict[str, np.ndarray], chunk_rows: int = 4096) -> Iterator[str]:
    """Format sweep records from columns, ``chunk_rows`` rows per yielded block.

    ``columns`` maps every field of the sweep row (a, c, theta, ia, ic,
    itheta, alpha1..3, beta1..3, A, B, Bprime, ordering, verdict, max_err) to
    an array with one entry per record; ``ordering`` and ``verdict`` are
    object arrays of strings, ``ordering`` None where a record has none.
    Each block is its rows joined by newlines, without a trailing newline,
    and reads exactly as the records' ``to_json_line`` / ``to_csv_row``.
    """
    if fmt == "csv":
        template, fields, render = _SWEEP_CSV_ROW, _SWEEP_CSV_FIELDS, _csv_text
    else:
        template, fields, render = _SWEEP_JSON_ROW, _SWEEP_JSON_FIELDS, _json_fragment
    for start in range(0, len(columns["a"]), chunk_rows):
        part = [columns[name][start : start + chunk_rows].tolist() for name in fields]
        for k, name in enumerate(fields):
            if name in _TEXT_FIELDS:
                rendered = {x: render(x) for x in set(part[k])}
                part[k] = [rendered[x] for x in part[k]]
        yield "\n".join([template % row for row in zip(*part)])
