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
from typing import Any

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
            if len(out) > 3:
                raise ValueError(f"a CSV row holds at most three spectrum entries, got {len(out)}")
            return out + [None] * (3 - len(out))

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
# values in the order of the field tuple beside it.  The params take only N
# distinct values per grid axis, so they arrive as text (see grid_text) and
# fill %s slots; each row formats only its ten other floats.
_SWEEP_JSON_FIELDS = (
    "a", "c", "theta", "ia", "ic", "itheta",
    "alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3",
    "A", "B", "Bprime", "ordering", "verdict", "max_err",
)
_SWEEP_JSON_ROW = (
    '{"experiment_id": "sweep", "params": {"a": %s, "c": %s, "theta": %s, '
    '"ia": %s, "ic": %s, "itheta": %s}, '
    '"lambda_initial": [%.17g, %.17g, %.17g], "lambda_final": [%.17g, %.17g, %.17g], '
    '"A": %.17g, "B": %.17g, "Bprime": %.17g, "ordering": %s, "verdict": %s, '
    '"maxAnalyticNumericError": %.17g, "degeneracyFlag": false}'
)
_SWEEP_CSV_FIELDS = CSV_COLUMNS[:-1]  # degenerate is the template's constant false
_SWEEP_CSV_ROW = ",".join(["%s"] * 3 + ["%.17g"] * 9 + ["%s", "%s", "%.17g", "false"])
_TEXT_FIELDS = ("ordering", "verdict")


def _csv_text(value: str | None) -> str:
    return "" if value is None else value


def grid_text(ticks: np.ndarray, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Text of a sweep grid's a/c ticks, theta angles and tick indices.

    Object arrays of strings, to be indexed by each row's (ia, ic, itheta):
    a sweep formats its coordinates once per tick and :func:`sweep_block`
    splices the text into every row.
    """
    return (
        np.array([fmt_float(x) for x in ticks], dtype=object),
        np.array([fmt_float(x) for x in angles], dtype=object),
        np.array([str(i) for i in range(len(ticks))], dtype=object),
    )


def sweep_block(fmt: str, columns: dict[str, np.ndarray]) -> str:
    """Format sweep records from columns, one row per record, as one block.

    ``columns`` maps every field of the sweep row (a, c, theta, ia, ic,
    itheta, alpha1..3, beta1..3, A, B, Bprime, ordering, verdict, max_err) to
    an array with one entry per record.  The six params are object arrays of
    their text, as :func:`grid_text` gives it; ``ordering`` and ``verdict``
    are object arrays of strings, ``ordering`` None where a record has none.
    The block is its rows joined by newlines, without a trailing newline, and
    reads exactly as the records' ``to_json_line`` / ``to_csv_row``.
    """
    if fmt == "csv":
        template, fields, render = _SWEEP_CSV_ROW, _SWEEP_CSV_FIELDS, _csv_text
    else:
        template, fields, render = _SWEEP_JSON_ROW, _SWEEP_JSON_FIELDS, _json_fragment
    part = [columns[name].tolist() for name in fields]
    for k, name in enumerate(fields):
        if name in _TEXT_FIELDS:
            rendered = {x: render(x) for x in set(part[k])}
            part[k] = [rendered[x] for x in part[k]]
    return "\n".join([template % row for row in zip(*part)])
