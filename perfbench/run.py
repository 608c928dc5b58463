#!/usr/bin/env python3
"""qflip certification benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the named workload from the root of a source checkout (``src/qflip``)
for about S seconds, one unit of work per child process (``unit.py``),
checks every output with :mod:`gate`, and prints two JSON lines on stdout:
the run's detail (environment, per-unit samples, gate results, layers that
were not observed) and, last, the result
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured with no timers inside the program;
with ``--trace 1`` they are the per-layer ones of :mod:`layers`.  See
README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import gate
import hostspeed
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
UNIT = HERE / "unit.py"
WORK_DIR = ROOT / ".perfbench_work"

# Untraced runs time set-up in a warm-up process (discarded), SETUP_PROBES more,
# and SETUP_PROBES_PER_UNIT after each unit, so its median spans the run.
SETUP_PROBES = 10
SETUP_PROBES_PER_UNIT = 2
RUN_LIMIT_S = 170.0  # a run, children included, ends within this


@dataclass(frozen=True)
class Workload:
    kind: str  # "sweep" or "scalar"
    why: str
    grid: int = 0
    margin: float = 0.0
    fmt: str = "json"
    n_points: int = 0
    n_pairs: int = 0


WORKLOADS = {
    "sweep-dense": Workload(
        "sweep",
        "grid 40, every point certified and written as JSON: stresses the per-point "
        "verdict, ordering and serialization layers",
        grid=40,
        margin=1e-6,
        fmt="json",
    ),
    "sweep-sparse": Workload(
        "sweep",
        "grid 80 with margin 0.24: 512,000 points through the batched kernel but only "
        "2,034 certified, so the kernel and its memory dominate",
        grid=80,
        margin=0.24,
        fmt="csv",
    ),
    "scalar": Workload(
        "scalar",
        "seeded single points through general_flip_experiment and seeded spectrum pairs "
        "through verdict and incomparable_3dim: the one-point route",
        n_points=2000,
        n_pairs=20000,
    ),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "certify_per_s": "1/s",
    "pairs_per_s": "1/s",
    "point_p50_us": "us",
    "peak_rss_mb": "MB",
}


def layer_fields(name: str) -> tuple[str, ...]:
    # qflip.cli.main runs once per sweep: only its self time says anything.
    return ("self_s",) if name == "cli" else ("calls", "self_s", "us_per_call")


def per_layer_units() -> dict[str, str]:
    field_units = {"calls": "count", "self_s": "s", "us_per_call": "us"}
    units = {f"{name}.{f}": field_units[f] for name, _, _ in layers.LAYERS for f in layer_fields(name)}
    units.update(layers.COUNTERS)
    units.update(traced_work_s="s", trace_overhead_s="s")
    return units


class UnitFailed(Exception):
    pass


def spawn(argv: list[str], log: Path, timeout: float) -> tuple[float, float, float, int]:
    """Run one child to completion: (wall s, CPU s, peak RSS in MB, exit code).

    The peak RSS comes from this child's own rusage (``os.wait4``), not the
    maximum over every child so far.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log, "ab") as out:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 2),
        ])
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.1))
            if not ready:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status) if ready else -signal.SIGKILL
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code


def environment(name: str, spec: Workload, args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx"):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        **{k: v for k, v in asdict(spec).items() if k != "why"},
    }


class Run:
    """Units of one workload, measured until the time budget is spent."""

    def __init__(self, spec: Workload, seed: int, seconds: float, trace: bool, work: Path):
        self.spec, self.seed, self.seconds, self.trace = spec, seed, seconds, trace
        self.work = work
        self.log = work / "children.log"
        self.started = time.perf_counter()
        self.units: list[dict] = []
        self.setup: list[float] = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def time_setup(self, probes: int) -> None:
        argv = [sys.executable, str(UNIT), "setup"]
        for _ in range(probes):
            wall, _, _, code = spawn(argv, self.log, self.remaining())
            if code != 0:
                raise UnitFailed(f"set-up process exited with {code}; see {self.log}")
            self.setup.append(wall)

    def unit(self, index: int) -> dict:
        report = self.work / f"unit{index}.json"
        trace = "1" if self.trace else "0"
        spec = self.spec
        if spec.kind == "sweep":
            out = self.work / f"sweep.{spec.fmt}"
            argv = [sys.executable, str(UNIT), "sweep", str(report), trace, "--", "sweep",
                    "--grid", str(spec.grid), "--margin", repr(spec.margin),
                    "--format", spec.fmt, "--out", str(out), "--jobs", "1"]
        else:
            argv = [sys.executable, str(UNIT), "scalar", str(report), trace, str(self.seed), str(index),
                    str(spec.n_points), str(spec.n_pairs)]
        wall, cpu, rss, code = spawn(argv, self.log, self.remaining())
        if code != 0 or not report.exists():
            if spec.kind == "sweep":
                out.unlink(missing_ok=True)
            ops = gate.expected_certified(spec.grid, spec.margin) if spec.kind == "sweep" else (
                spec.n_points + spec.n_pairs)
            return {"crashed": True, "wall_s": wall, "attempted": ops, "failed": ops,
                    "problems": [f"unit {index} exited with {code}"]}
        result = json.loads(report.read_text())
        report.unlink()
        result.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=rss)
        if result["rc"] != 0:
            result["problems"] = [f"qflip exited with {result['rc']}"]
        if spec.kind == "sweep":
            expected = gate.expected_certified(spec.grid, spec.margin)
            checked = gate.check_sweep_output(out, spec.fmt, expected) if out.exists() else {
                "records": 0, "failed": expected, "problems": ["no output file"], "sha256": None}
            out.unlink(missing_ok=True)
            if result["rc"] != 0:
                checked["failed"] = expected
            result.update(points=spec.grid ** 3, certified=expected, attempted=expected,
                          failed=checked["failed"], sha256=checked["sha256"],
                          problems=result.get("problems", []) + checked["problems"])
        else:
            result.update(points=spec.n_points, certified=spec.n_points)
        return result

    def run_units(self) -> list[dict]:
        """Start units until the next would end past the budget by over half a unit,
        or past RUN_LIMIT_S.

        Returns the units that completed; raises if none did.
        """
        if not self.trace:
            self.time_setup(1)  # compiles bytecode and fills the page cache
            self.setup.clear()
            self.time_setup(SETUP_PROBES)
        start = time.perf_counter()
        while True:
            self.units.append(self.unit(len(self.units)))
            if not self.trace:
                self.time_setup(SETUP_PROBES_PER_UNIT)
            last = self.units[-1]["wall_s"]
            if time.perf_counter() - start + last / 2 > self.seconds or self.remaining() < 2 * last:
                break
        done = [u for u in self.units if not u.get("crashed")]
        if not done:
            raise UnitFailed(f"every unit failed; see {self.log}")
        return done


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end_metrics(spec: Workload, units: list[dict], setup: list[float],
                       scaled: bool = True) -> dict[str, float]:
    """The run's end-to-end metrics from its completed units.

    With ``scaled``, every time of the work is scaled to the nominal host of
    :mod:`hostspeed` by the reference blocks timed during its own unit; rates
    are scaled inversely.  Set-up is not scaled: it is interpreter start and
    imports, which the reference blocks do not track (scaled, it spread more
    than raw).  Work metrics pool the run's units (total work over total time);
    latency and set-up take medians.  Wall times exclude the reference blocks.
    """
    def scale(samples) -> float:
        return hostspeed.scale(samples) if scaled else 1.0

    k = [scale(u["reference_s"]) for u in units]
    if spec.kind == "sweep":
        work_s = sum(u["work_s"] * f for u, f in zip(units, k))
        certified = sum(u["certified"] for u in units)
        points = sum(u["points"] for u in units) / work_s
        certify = pairs = certified / work_s  # one majorization verdict per certified point
        p50 = work_s / certified * 1e6
    else:
        # Each phase is scaled by the reference blocks timed during it.
        kc = [scale(u["reference_s"][: u["reference_split"]]) for u in units]
        kp = [scale(u["reference_s"][u["reference_split"] :]) for u in units]
        points = certify = sum(u["points"] for u in units) / sum(u["certify_s"] * f for u, f in zip(units, kc))
        pairs = spec.n_pairs * len(units) / sum(u["pairs_s"] * f for u, f in zip(units, kp))
        p50 = median([x * f for u, f in zip(units, kc) for x in u["latencies_s"]]) * 1e6
    return {
        "setup_s": median(setup),
        "wall_s": statistics.fmean((u["wall_s"] - sum(u["reference_s"])) * f for u, f in zip(units, k)),
        "points_per_s": points,
        "certify_per_s": certify,
        "pairs_per_s": pairs,
        "point_p50_us": p50,
        "peak_rss_mb": median([u["peak_rss_mb"] for u in units]),
    }


def per_layer_metrics(units: list[dict]) -> tuple[dict[str, float], list[str]]:
    n = len(units)
    traces = [u["trace"] for u in units]
    metrics = {}
    for name, _, _ in layers.LAYERS:
        calls = sum(t["layers"][name]["calls"] for t in traces)
        self_s = sum(t["layers"][name]["self_s"] for t in traces)
        values = {"calls": calls / n, "self_s": self_s / n, "us_per_call": self_s / calls * 1e6 if calls else 0.0}
        metrics.update((f"{name}.{f}", values[f]) for f in layer_fields(name))
    for counter in layers.COUNTERS:
        metrics[counter] = sum(t["counters"][counter] for t in traces) / n
    metrics["traced_work_s"] = sum(u["work_s"] for u in units) / n
    metrics["trace_overhead_s"] = sum(t["wrapped_calls"] * t["wrapper_cost_s"] for t in traces) / n
    not_observed = sorted(set.intersection(*(set(t["not_observed"]) for t in traces)))
    return metrics, not_observed


def run_workload(name: str, spec: Workload, args, work: Path) -> tuple[dict, dict]:
    """Measure one workload; returns (detail, result)."""
    run = Run(spec, args.seed, args.seconds, bool(args.trace), work)
    detail = {"environment": environment(name, spec, args)}
    done = run.run_units()
    detail["environment"].update(done[0]["env"])
    attempted = sum(u["attempted"] for u in run.units)
    failed = sum(u["failed"] for u in run.units)
    if run.trace:
        values, not_observed = per_layer_metrics(done)
        units = per_layer_units()
        detail["not_observed"] = not_observed
        for layer in not_observed:
            print(f"perfbench: layer {layer} not observed on {name}", file=sys.stderr)
    else:
        values = end_to_end_metrics(spec, done, run.setup)
        units = END_TO_END
        detail["raw_metrics"] = end_to_end_metrics(spec, done, run.setup, scaled=False)
        detail["setup_s_samples"] = run.setup
        detail["host_scale"] = [hostspeed.scale(u["reference_s"]) for u in done]
        lat = sorted(x for u in done for x in u.get("latencies_s", []))
        if lat:
            detail["point_latency_us"] = {"n": len(lat), "p50": median(lat) * 1e6,
                                          "p99": lat[int(0.99 * (len(lat) - 1))] * 1e6}
    detail["units"] = [
        {k: u.get(k) for k in ("wall_s", "cpu_s", "work_s", "certify_s", "pairs_s", "peak_rss_mb",
                               "attempted", "failed", "sha256", "problems")}
        for u in run.units
    ]
    detail["error_rate"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qflip" / "__init__.py").is_file():
        print(f"perfbench: no qflip sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        detail, result = run_workload(args.workload, WORKLOADS[args.workload], args, work)
    except UnitFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        print((work / "children.log").read_text()[-4000:], file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
