"""Correctness gate: checks the program's outputs independently of qflip.

Nothing here imports qflip.  The expected number of certified sweep points is
recomputed from the grid definition, and majorization is decided by a plain
partial-sum loop, so a defect in qflip's own routes cannot hide itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re

import numpy as np

EPS_SPEC = 1e-9  # SweepConfig.eps_spec: analytic vs numeric spectrum agreement
EPS_TIE = 1e-12  # tie tolerance of qflip.schmidt.verdict
INCOMPARABLE = "Incomparable"


def grid_axes(grid: int):
    """Flattened (a, c, theta) of ``qflip sweep --grid N``: interior ticks k/(N+1)."""
    ticks = np.arange(1, grid + 1) / (grid + 1)
    aa, cc, tt = np.meshgrid(ticks, ticks, ticks * math.pi, indexing="ij")
    return aa.ravel(), cc.ravel(), tt.ravel()


def expected_certified(grid: int, margin: float) -> int:
    """Grid points with |a b c d sin(theta)| > margin, i.e. the points a sweep must certify."""
    a, c, t = grid_axes(grid)
    b = np.sqrt(np.clip(1.0 - a * a, 0.0, None))
    d = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    return int(np.count_nonzero(np.abs(a * b * c * d * np.sin(t)) > margin))


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _bad_record(verdict, err) -> bool:
    try:
        err = float(err)
    except (TypeError, ValueError):
        return True
    return verdict != INCOMPARABLE or not math.isfinite(err) or err > EPS_SPEC


_CSV_SUMMARY_COUNT = re.compile(r"\bnon_incomparable_count=(\d+)\b")


def _json_records(lines):
    records, summary_ok = [], False
    for line in lines:
        try:
            obj = json.loads(line)
        except ValueError:
            records.append((None, None))
            continue
        if obj.get("experiment_id") == "sweep-summary":
            summary_ok = obj.get("non_incomparable_count") == 0
        else:
            records.append((obj.get("verdict"), obj.get("maxAnalyticNumericError")))
    return records, summary_ok


def _csv_records(lines):
    summary = [line for line in lines if line.startswith("#")]
    match = _CSV_SUMMARY_COUNT.search(summary[-1]) if summary else None
    summary_ok = bool(match) and int(match.group(1)) == 0
    rows = csv.reader(line for line in lines if not line.startswith("#"))
    header = next(rows, [])
    if "verdict" not in header or "max_err" not in header:
        return [(None, None) for _ in rows], summary_ok
    col_v, col_e = header.index("verdict"), header.index("max_err")
    records = [
        (row[col_v], row[col_e]) if len(row) == len(header) else (None, None) for row in rows
    ]
    return records, summary_ok


def check_sweep_output(path, fmt: str, expected: int) -> dict:
    """Gate one sweep output file.

    Every record must be Incomparable with maxAnalyticNumericError <= EPS_SPEC,
    the record count must equal ``expected`` and the summary must report zero
    non-incomparable verdicts.  ``failed`` counts bad records plus the count
    mismatch; a missing or failing summary fails every expected record.
    """
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    records, summary_ok = (_json_records if fmt == "json" else _csv_records)(lines)
    bad = sum(_bad_record(v, e) for v, e in records)
    problems = []
    if not summary_ok:
        problems.append("summary missing or non_incomparable_count != 0")
    if len(records) != expected:
        problems.append(f"{len(records)} records, expected {expected}")
    if bad:
        problems.append(f"{bad} records not Incomparable within {EPS_SPEC:g}")
    failed = expected if not summary_ok else min(expected, bad + abs(len(records) - expected))
    return {"records": len(records), "failed": failed, "problems": problems, "sha256": file_sha256(path)}


def majorized(lo, hi, eps: float = EPS_TIE) -> bool:
    """Brute-force partial sums: every leading sum of ``lo`` is bounded by ``hi``'s."""
    lo = sorted((float(x) for x in lo), reverse=True)
    hi = sorted((float(x) for x in hi), reverse=True)
    size = max(len(lo), len(hi))
    lo += [0.0] * (size - len(lo))
    hi += [0.0] * (size - len(hi))
    sum_lo = sum_hi = 0.0
    for x, y in zip(lo, hi):
        sum_lo += x
        sum_hi += y
        if sum_lo > sum_hi + eps:
            return False
    return True


def brute_verdict(lhs, rhs, eps: float = EPS_TIE) -> str:
    """Four-way LOCC verdict from :func:`majorized` in both directions."""
    forward, backward = majorized(lhs, rhs, eps), majorized(rhs, lhs, eps)
    if forward and backward:
        return "Interconvertible"
    if forward:
        return "ForwardCertain"
    if backward:
        return "BackwardCertain"
    return INCOMPARABLE
