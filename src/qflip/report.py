"""Report records and their JSON/CSV wire formats.

JSON is emitted by a tiny purpose-built serializer so that every float is
printed as ``format(x, '.17g')`` (17 significant digits, lossless round
trips) and records are byte-identical across runs; CSV uses a fixed column
order shared by every command.  Sweep records, which come by the thousand,
are formatted from columns through fixed per-row templates that produce the
same bytes as :class:`ReportRecord`; :func:`float_text` gives their floats
the text of :func:`fmt_float` a column at a time.
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


# float_text writes format(x, '.17g') of a whole column in numpy.  For
# 1e-28 <= |x| < 10 that text is the 17-digit integer n = round(|x| * 10^(16-k)),
# 10^16 <= n < 10^17, laid out by the sign and the decimal exponent k:
# d.ddd... for k = 0, 0.ddd... to 0.000ddd... for k = -1..-4 and d.ddd...e-XX
# below, with trailing zeros (and a bare point) stripped.  Dekker's
# error-free product gives |x| * 10^(16-k) exactly as a sum of doubles, in two
# stages since 10^s is a double only up to s = 22.  fmt_float writes the other
# elements: those out of range and those the product leaves within _TIE of a
# rounding tie (or of 10^16, the edge of k).
_SPLITTER = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves
_POW10 = np.array([10**s for s in range(23)], dtype=float)  # exact
_TIE = 1e-6  # far above the 1e-13 error of the product's low part


def _split(a):
    hi = _SPLITTER * a
    hi -= hi - a
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)
# _QUADS[q]: the four digits of 0 <= q < 10^4, as two of the digit pairs "00".."99"
_PAIRS = np.frombuffer(b"".join(b"%02d" % q for q in range(100)), dtype=np.uint16)
_QUADS = np.empty((100, 100, 2), dtype=np.uint16)
_QUADS[..., 0], _QUADS[..., 1] = _PAIRS[:, None], _PAIRS
_QUADS = _QUADS.view("S4").ravel()
# _HEADS[_FORMS[-k] + 50 * negative + d]: the text up to the leading digit d
# and, in form 4 (k = 0 and k <= -5), the point after it, which goes with the
# trailing zeros when all 16 other digits are zero
_FORMS = 10 * np.array([4, 0, 1, 2, 3] + [4] * 24)
_HEADS = np.array(
    [
        f"{sign}{head}{d}{point}"
        for sign in ("", "-")
        for head, point in (("0.", ""), ("0.0", ""), ("0.00", ""), ("0.000", ""), ("", "."))
        for d in range(10)
    ],
    dtype="S7",
)
_EXPONENTS = np.array([b""] * 5 + [b"e-%02d" % e for e in range(5, 29)])  # [-k]


def _times_pow10(a, s):
    """a * 10^s exactly, as the double product p and its error e (Dekker), for 0 <= s <= 22."""
    p = a * _POW10[s]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[s], _POW10_LO[s]
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _digits(a, k):
    """n = round(a * 10^(16-k)) as int64 and the product's distance d from n
    (|d| <= 1/2, to within 1e-13), for 1e-28 <= a < 10 and -28 <= k <= 1."""
    s = 16 - k
    hi, lo = _times_pow10(a, np.minimum(s, 22))
    if s.max(initial=0) > 22:  # the rest of 10^s in a second exact stage
        s2 = np.maximum(s - 22, 0)
        hi, hi_lo = _times_pow10(hi, s2)
        lo = hi_lo + lo * _POW10[s2]
    # hi >= 2^53 is an integer wherever k is right, and lo is the rest
    whole = np.rint(lo)
    return hi.astype(np.int64) + whole.astype(np.int64), lo - whole


def float_text(values: np.ndarray, name: str) -> list[bytes]:
    """``fmt_float`` of each element of a column, as ASCII bytes.

    Elements with 1e-28 <= |x| < 10 are formatted in numpy, exactly as
    ``format(x, '.17g')``; :func:`fmt_float` formats the rest.  A NaN or an
    infinity raises :class:`NonFiniteError` naming the column ``name``.
    """
    x = np.asarray(values, dtype=float).ravel()
    if not np.isfinite(x).all():
        raise NonFiniteError(f"cannot write the non-finite float {float(x[~np.isfinite(x)][0])!r} in column {name}")
    ax = np.abs(x)
    fast = np.flatnonzero((ax >= 1e-28) & (ax < 10.0))
    a = ax[fast]
    k = np.floor(np.log10(a)).astype(np.intp)  # may be one off next to a power of ten
    n, d = _digits(a, k)
    step = (n > 10**17).astype(np.intp) - ((n < 10**16) | ((n == 10**16) & (d < 0)))
    redo = np.flatnonzero(step)
    k[redo] += step[redo]
    redo = redo[k[redo] >= -28]
    n[redo], d[redo] = _digits(a[redo], k[redo])
    top = n == 10**17  # rounded up to a power of ten
    n[top], k[top] = 10**16, k[top] + 1
    sure = (
        (k >= -28)
        & (k <= 0)
        & (n >= 10**16)
        & (n < 10**17)
        & (np.abs(np.abs(d) - 0.5) > _TIE)
        & ((n > 10**16) | (np.abs(d) > _TIE))
    )
    fast, n, k = fast[sure], n[sure], k[sure]
    lead, rest = np.divmod(n, 10**16)
    high, low = np.divmod(rest, 10**8)
    quads = _QUADS[np.stack([high // 10**4, high % 10**4, low // 10**4, low % 10**4], axis=1)]
    heads = _HEADS[_FORMS[-k] + 50 * (x[fast] < 0) + lead]
    text = np.char.rstrip(np.char.add(heads, quads.view("S16").ravel()), b"0.")
    if k.min(initial=0) < -4:  # scientific form
        text = np.char.add(text, _EXPONENTS[-k])
    if fast.size == x.size:
        return text.tolist()
    out = np.zeros(x.size, dtype="S24")
    out[fast] = text
    slow = np.ones(x.size, dtype=bool)
    slow[fast] = False
    out[slow] = [fmt_float(v).encode() for v in x[slow].tolist()]
    return out.tolist()


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
# itheta}, verdict "Incomparable" and degeneracy_flag False, as bytes with every
# other value a %s slot.  Each takes its values in the order of the field tuple
# beside it.  The params take only N distinct values per grid axis, so they
# arrive as text (see grid_text); the floats are written by float_text, a
# column at a time.
_SWEEP_JSON_FIELDS = (
    "a", "c", "theta", "ia", "ic", "itheta",
    "alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3",
    "A", "B", "Bprime", "ordering", "max_err",
)
_SWEEP_JSON_ROW = (
    b'{"experiment_id": "sweep", "params": {"a": %s, "c": %s, "theta": %s, '
    b'"ia": %s, "ic": %s, "itheta": %s}, '
    b'"lambda_initial": [%s, %s, %s], "lambda_final": [%s, %s, %s], '
    b'"A": %s, "B": %s, "Bprime": %s, "ordering": %s, "verdict": "Incomparable", '
    b'"maxAnalyticNumericError": %s, "degeneracyFlag": false}'
)
_SWEEP_CSV_CONSTANTS = {"verdict": b"Incomparable", "degenerate": b"false"}
_SWEEP_CSV_FIELDS = tuple(name for name in CSV_COLUMNS if name not in _SWEEP_CSV_CONSTANTS)
_SWEEP_CSV_ROW = b",".join(_SWEEP_CSV_CONSTANTS.get(name, b"%s") for name in CSV_COLUMNS)
_PARAM_FIELDS = ("a", "c", "theta", "ia", "ic", "itheta")
_TEXT_FIELDS = ("ordering",)


def _csv_text(value: str | None) -> str:
    return "" if value is None else value


def grid_text(ticks: np.ndarray, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Text of a sweep grid's a/c ticks, theta angles and tick indices.

    Object arrays of ASCII bytes, to be indexed by each row's (ia, ic,
    itheta): a sweep formats and encodes its coordinates once per tick and
    :func:`sweep_block` splices the text into every row.
    """
    return (
        np.array([fmt_float(x).encode() for x in ticks], dtype=object),
        np.array([fmt_float(x).encode() for x in angles], dtype=object),
        np.array([str(i).encode() for i in range(len(ticks))], dtype=object),
    )


def sweep_block(fmt: str, columns: dict[str, np.ndarray]) -> bytes:
    """Format sweep records from columns, one row per record, as one block.

    ``columns`` maps every field of the sweep row (a, c, theta, ia, ic,
    itheta, alpha1..3, beta1..3, A, B, Bprime, ordering, max_err) to an array
    with one entry per record.  The six params are object arrays of their
    text as bytes, as :func:`grid_text` gives it; ``ordering`` is an object
    array of strings, None where a record has none; every other field is a
    float array.  Every record is certified, so its verdict, Incomparable, is
    a constant of the row template, as its false degeneracy flag is.  The
    block is its rows joined by newlines, without a trailing newline, as
    ASCII bytes, and reads exactly as the records' ``to_json_line`` /
    ``to_csv_row``.  A NaN or an infinity raises :class:`NonFiniteError`.
    """
    if fmt == "csv":
        template, fields, render = _SWEEP_CSV_ROW, _SWEEP_CSV_FIELDS, _csv_text
    else:
        template, fields, render = _SWEEP_JSON_ROW, _SWEEP_JSON_FIELDS, _json_fragment
    part = []
    for name in fields:
        if name in _PARAM_FIELDS:
            part.append(columns[name].tolist())
        elif name in _TEXT_FIELDS:
            values = columns[name].tolist()
            rendered = {x: render(x).encode() for x in set(values)}
            part.append([rendered[x] for x in values])
        else:
            part.append(float_text(columns[name], name))
    return b"\n".join([template % row for row in zip(*part)])
