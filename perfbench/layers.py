"""Per-layer timers and call counters, installed around qflip's public functions.

Each layer is one function of one qflip module.  Installing a layer replaces
the function everywhere a qflip module holds a reference to it (the defining
module and every module that imported the name), so calls from any caller are
seen.  A layer whose function no longer exists, or that is never called, is
reported as not observed instead of failing the run.

Spans are folded into per-layer totals as they close: a layer's self time is
its span's duration minus the time spent in wrapped layers it called.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

# (metric prefix, module, attribute path).  Order is the report order.
LAYERS = (
    ("cli", "qflip.cli", "main"),
    ("cli._emit", "qflip.cli", "_emit"),
    ("kernels.grid_eval", "qflip.kernels", "grid_eval"),
    ("kernels.eigvalsh_small", "qflip.kernels", "eigvalsh_small"),
    ("schmidt.verdict", "qflip.schmidt", "verdict"),
    ("schmidt.incomparable_3dim", "qflip.schmidt", "incomparable_3dim"),
    ("schmidt.schmidt_decompose", "qflip.schmidt", "schmidt_decompose"),
    ("ordering.classify_ordering", "qflip.ordering", "classify_ordering"),
    ("report.to_json_line", "qflip.report", "ReportRecord.to_json_line"),
    ("report.to_csv_row", "qflip.report", "ReportRecord.to_csv_row"),
    ("report.json_line", "qflip.report", "json_line"),
    ("cubic.cubic_coefficients", "qflip.cubic", "cubic_coefficients"),
    ("cubic.cubic_roots", "qflip.cubic", "cubic_roots"),
    ("bloch.canonical_triple", "qflip.bloch", "canonical_triple"),
    ("linalg.partial_trace", "qflip.linalg", "partial_trace"),
    ("linalg.hermitian_eigenvalues", "qflip.linalg", "hermitian_eigenvalues"),
    ("constructions.general_flip_experiment", "qflip.constructions", "general_flip_experiment"),
    ("constructions.build_family_state", "qflip.constructions", "build_family_state"),
    ("constructions.build_family_state_flipped", "qflip.constructions", "build_family_state_flipped"),
)

# Counters measured at layer boundaries, besides calls and time, with their units.
COUNTERS = {
    "kernels.grid_eval.points": "count",
    "report.bytes": "bytes",
    "ordering.classify_ordering.degenerate": "count",
}


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0


class Tracer:
    """Aggregates spans of the wrapped layers of one process."""

    def __init__(self):
        self.stats = {name: LayerStat() for name, _, _ in LAYERS}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []
        self._stack: list[list] = []  # [time in wrapped children, layer]
        self._undo: list = []

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter
        counts_points = name == "kernels.grid_eval"
        counts_degenerate = name == "ordering.classify_ordering"
        counts_bytes = name.startswith("report.")

        def traced(*args, **kwargs):
            outer = stack[-1][1] if stack else ""
            child = [0.0, name]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if counts_degenerate and type(exc).__name__ == "DegenerateSpectraError":
                    counters["ordering.classify_ordering.degenerate"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed
            if counts_points:
                counters["kernels.grid_eval.points"] += len(args[0])
            elif counts_bytes and not outer.startswith("report.") and isinstance(result, str):
                counters["report.bytes"] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer found in the loaded qflip modules."""
        importlib.import_module("qflip.cli")
        modules = [m for key, m in list(sys.modules.items()) if key == "qflip" or key.startswith("qflip.")]
        for name, module_name, attr_path in LAYERS:
            owner = sys.modules.get(module_name)
            *class_path, attr = attr_path.split(".")
            for part in class_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if class_path:
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def report(self) -> dict:
        """Calls and times per layer, the counters, and the unobserved layers."""
        return {
            "layers": {name: {"calls": s.calls, "self_s": s.self_s} for name, s in self.stats.items()},
            "counters": dict(self.counters),
            "not_observed": sorted(name for name, s in self.stats.items() if s.calls == 0),
            "wrapped_calls": sum(s.calls for s in self.stats.values()),
        }


def wrapper_cost_s(samples: int = 100_000) -> float:
    """Measured cost of one traced call over a direct call, in seconds."""
    tracer = Tracer()
    noop = tracer._wrap("report.json_line", lambda x: x)
    direct = lambda x: x  # noqa: E731
    clock = time.perf_counter
    best = float("inf")
    for _ in range(3):
        start = clock()
        for i in range(samples):
            direct(i)
        base = clock() - start
        start = clock()
        for i in range(samples):
            noop(i)
        best = min(best, (clock() - start - base) / samples)
    return max(best, 0.0)
