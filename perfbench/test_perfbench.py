"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Each workload runs at a tiny size in both modes and must emit exactly the
metrics BENCHMARK.json names; the gate must reject doctored sweep outputs.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from argparse import Namespace
from dataclasses import replace

import pytest

import gate
import hostspeed
import layers
import run

TINY = {
    "sweep-dense": dict(grid=4),
    "sweep-sparse": dict(grid=10),
    "scalar": dict(n_points=20, n_pairs=200),
}


def declared():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return bench


def test_declared_workloads_and_metrics_match_the_runner():
    bench = declared()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_emits_every_metric(tmp_path, name, trace):
    spec = replace(run.WORKLOADS[name], **TINY[name])
    args = Namespace(seed=3, seconds=0.0, trace=trace)
    detail, result = run.run_workload(name, spec, args, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.per_layer_units() if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for key, metric in result["metrics"].items():
        assert metric["unit"] == expected[key]
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    env = detail["environment"]
    for key in ("commit", "python", "numpy", "backend", "nproc", "grid", "margin", "seed"):
        assert key in env
    assert detail["error_rate"] == 0.0


def _sweep_output(tmp_path, fmt):
    from qflip.cli import main

    out = tmp_path / f"sweep.{fmt}"
    assert main(["sweep", "--grid", "4", "--format", fmt, "--out", str(out)]) == 0
    return out, gate.expected_certified(4, 1e-6)


def _doctor(path, fmt, field, value):
    lines = path.read_text().splitlines()
    if fmt == "json":
        record = json.loads(lines[3])
        record[field] = value
        lines[3] = json.dumps(record)
    else:
        header = lines[0].split(",")
        column = {"verdict": "verdict", "maxAnalyticNumericError": "max_err"}[field]
        row = lines[3].split(",")
        row[header.index(column)] = str(value)
        lines[3] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_gate_passes_a_genuine_sweep(tmp_path, fmt):
    out, expected = _sweep_output(tmp_path, fmt)
    checked = gate.check_sweep_output(out, fmt, expected)
    assert checked["failed"] == 0 and checked["records"] == expected and not checked["problems"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "field, value",
    [("verdict", "ForwardCertain"), ("maxAnalyticNumericError", 1e-6)],
)
def test_gate_flags_a_doctored_record(tmp_path, fmt, field, value):
    out, expected = _sweep_output(tmp_path, fmt)
    _doctor(out, fmt, field, value)
    checked = gate.check_sweep_output(out, fmt, expected)
    assert checked["failed"] == 1 and checked["problems"]


def test_gate_flags_a_missing_record(tmp_path):
    out, expected = _sweep_output(tmp_path, "json")
    lines = out.read_text().splitlines()
    out.write_text("\n".join(lines[1:]) + "\n")
    assert gate.check_sweep_output(out, "json", expected)["failed"] == 1


def test_brute_force_verdicts():
    axes_i, axes_f = (2 / 3, 1 / 6, 1 / 6), (0.6220084679281462, 1 / 3, 0.04465819873852045)
    assert gate.brute_verdict(axes_i, axes_f) == "Incomparable"
    assert gate.brute_verdict((0.5, 0.3, 0.2), (0.6, 0.3, 0.1)) == "ForwardCertain"
    assert gate.brute_verdict((0.6, 0.3, 0.1), (0.5, 0.3, 0.2)) == "BackwardCertain"
    assert gate.brute_verdict((0.5, 0.5), (0.5, 0.5, 0.0)) == "Interconvertible"


def test_missing_or_idle_layer_is_not_observed(monkeypatch):
    monkeypatch.setattr(layers, "LAYERS", layers.LAYERS + (("cli.gone", "qflip.cli", "no_such_function"),))
    tracer = layers.Tracer()
    tracer.install()
    try:
        import qflip.schmidt

        qflip.schmidt.verdict((0.5, 0.3, 0.2), (0.6, 0.3, 0.1))
        report = tracer.report()
    finally:
        tracer.uninstall()
    assert "cli.gone" in tracer.missing
    assert "cli.gone" in report["not_observed"] and "kernels.grid_eval" in report["not_observed"]
    assert report["layers"]["schmidt.verdict"]["calls"] == 1
    assert not hasattr(qflip.schmidt.verdict, "__wrapped__")


def test_peak_rss_is_per_child(tmp_path):
    log = tmp_path / "log"
    _, _, big, code = run.spawn([sys.executable, "-c", "b = bytearray(200 << 20); b[::4096] = b'x' * len(b[::4096])"], log, 60)
    assert code == 0 and big > 200
    _, _, small, code = run.spawn([sys.executable, "-c", "pass"], log, 60)
    assert code == 0 and small < 100


def test_host_sampler_times_reference_blocks_during_the_work():
    with hostspeed.Sampler() as host:
        end = time.perf_counter() + 3 * hostspeed.PERIOD_S
        while time.perf_counter() < end:
            pass
        spent = host.spent
    assert len(host.samples) >= 2 * host.edge_blocks + 2
    edge = host.edge_blocks
    assert 0 < sum(host.samples[edge:-edge]) <= spent
    assert host.spent == spent and signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    with hostspeed.Sampler(active=False) as idle:
        pass
    assert idle.samples == [] and idle.spent == 0.0
    assert hostspeed.scale([hostspeed.NOMINAL_S / 2] * 3) == 2.0
