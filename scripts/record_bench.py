#!/usr/bin/env python3
"""Record a BENCH_<n>.json: perfbench and a grid-40 sweep on a base commit
and on the working tree, side by side.

    python3 scripts/record_bench.py --base REV --out BENCH_<n>.json

``git archive REV`` exports the base into a temporary directory, and the
working tree's tracked and untracked (not ignored) files are copied beside
it, so both run from the same layout; both are byte-compiled first.  The
two trees alternate measurement by measurement, and the tree that goes first
alternates too, so that a drift in the host's speed over the run falls on
both sides alike.  The measurements:
- ``perfbench/run.py --trace 0`` on all three workloads (end-to-end metrics);
- ``perfbench/run.py --trace 1`` on ``scalar`` and ``sweep-dense`` (layers);
- ``python3 -m qflip sweep --grid 40 --out FILE``, timed end to end from
  outside, ``SWEEPS`` times; the sha256 of its output is recorded beside the
  times, so the file shows whether the two trees wrote the same bytes.
perfbench runs for the ``run_seconds`` of ``BENCHMARK.json``.  The file holds
the host (nproc, Python, numpy), each tree's commit and source digest, and
every number.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNTRACED = ("scalar", "sweep-dense", "sweep-sparse")
TRACED = ("scalar", "sweep-dense")
SWEEPS = 7


def git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, **kwargs)


def export_trees(base: str, into: Path) -> dict:
    """Write the base commit and the working tree under ``into``; their paths by side."""
    trees = {"base": into / "base", "change": into / "change"}
    for tree in trees.values():
        tree.mkdir()
    archive = git("archive", base).stdout
    subprocess.run(["tar", "-x", "-C", str(trees["base"])], input=archive, check=True)
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").stdout.decode()
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():
            (trees["change"] / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, trees["change"] / name)
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=tree, check=True)
    return trees


def perfbench(tree: Path, workload: str, trace: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run at seed 1: its source digest, gate result and metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout.splitlines()
    detail, result = json.loads(lines[0]), json.loads(lines[-1])
    return {
        "source_sha256": detail["environment"]["source_sha256"],
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
    }


def sweep_seconds(tree: Path, out: Path) -> tuple[float, str]:
    """Wall time of ``qflip sweep --grid 40 --out FILE`` in a fresh process,
    and the sha256 of the file it wrote."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "qflip", "sweep", "--grid", "40", "--out", str(out)],
                   cwd=tree, env=env, check=True, capture_output=True)
    seconds = time.perf_counter() - start
    return seconds, hashlib.sha256(out.read_bytes()).hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="git revision of the base tree")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           check=True, capture_output=True, text=True).stdout.strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no", text=True).stdout.strip())
    sides = {
        "base": {"commit": git("rev-parse", args.base, text=True).stdout.strip()},
        "change": {"commit": git("rev-parse", "HEAD", text=True).stdout.strip(), "uncommitted_changes": dirty},
    }
    with tempfile.TemporaryDirectory() as scratch:
        trees = export_trees(args.base, Path(scratch))
        measurements = [
            *(("end_to_end", w) for w in UNTRACED),
            *(("layers", w) for w in TRACED),
            *(("sweep_grid40_s", k) for k in range(SWEEPS)),
        ]
        for turn, (key, item) in enumerate(measurements):
            for name in ("base", "change") if turn % 2 == 0 else ("change", "base"):
                if key == "sweep_grid40_s":
                    value, digest = sweep_seconds(trees[name], Path(scratch) / "sweep.json")
                    sides[name].setdefault("sweep_grid40_sha256", []).append(digest)
                else:
                    value = perfbench(trees[name], item, int(key == "layers"), seconds)
                sides[name].setdefault(key, {})[item] = value
    for side in sides.values():
        runs = list(side["sweep_grid40_s"].values())
        side["sweep_grid40_s"] = {"runs": runs, "median": statistics.median(runs)}
        # one digest where every run wrote the same bytes
        side["sweep_grid40_sha256"] = sorted(set(side["sweep_grid40_sha256"]))
    record = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy,
                 "machine": platform.machine()},
        "run_seconds": seconds,
        **sides,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
