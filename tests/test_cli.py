import dataclasses
import hashlib
import inspect
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qflip.cli as cli
from qflip import constructions, cubic, ordering
from qflip.bloch import FlipParams
from qflip.constructions import AXES_PARAMS, VerificationError, general_flip_experiment, route_tolerance
from qflip.linalg import DimensionError, HermiticityError
from qflip.ordering import CHAIN_TIE_TOL, PATTERN_ATLAS, OrderingMismatchError
from qflip.report import CSV_HEADER, NonFiniteError
from qflip.schmidt import SpectrumTieError

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_axes_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "axes")
    assert code == 0
    record = json.loads(out)
    assert record["experiment_id"] == "verify-axes"
    assert record["verdict"] == "Incomparable"
    np.testing.assert_allclose(record["lambda_initial"], [2 / 3, 1 / 6, 1 / 6], atol=1e-12)
    assert record["degeneracyFlag"] is False
    assert abs(record["A"] - 0.25) < 1e-14


def test_verify_axes_phases_do_not_move_spectra(capsys):
    _, out_default, _ = run_cli(capsys, "verify", "axes")
    _, out_phased, _ = run_cli(capsys, "verify", "axes", "--chi", "1.3", "--eta", "2.1")
    base = json.loads(out_default)
    phased = json.loads(out_phased)
    np.testing.assert_allclose(phased["lambda_initial"], base["lambda_initial"], atol=1e-12)
    np.testing.assert_allclose(phased["lambda_final"], base["lambda_final"], atol=1e-12)


def test_verify_axes_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "axes", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[-1] == "false"
    assert cells[-3] == "Incomparable"


def test_verify_axes_out_file(tmp_path, capsys):
    target = tmp_path / "axes.json"
    code, out, _ = run_cli(capsys, "verify", "axes", "--out", str(target))
    assert code == 0
    assert out == ""
    record = json.loads(target.read_text())
    assert record["verdict"] == "Incomparable"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_axes_prints_what_verify_general_prints_at_its_point(fmt, capsys):
    # the axes case is the family point AXES_PARAMS with (chi, eta) as (nu, mu)
    chi, eta = "1.3", "2.1"
    code, axes, _ = run_cli(capsys, "verify", "axes", f"--chi={chi}", f"--eta={eta}", "--format", fmt)
    assert code == 0
    point = [f"--{k}={getattr(AXES_PARAMS, k):.17g}" for k in ("a", "c", "theta")]
    code, general, _ = run_cli(capsys, "verify", "general", *point, f"--mu={eta}", f"--nu={chi}", "--format", fmt)
    assert code == 0
    if fmt == "json":  # the params differ: chi and eta against mu, nu and margin
        axes, general = (text[text.index('"lambda_initial"') :] for text in (axes, general))
    assert axes == general


@pytest.mark.parametrize("name", ["AXES_LAMBDA_INITIAL", "AXES_LAMBDA_FINAL"])
def test_verify_axes_enforces_the_exact_spectra(name, monkeypatch, capsys):
    exact = getattr(constructions, name)
    monkeypatch.setattr(constructions, name, (exact[0] + 1e-9, *exact[1:]))
    code, out, err = run_cli(capsys, "verify", "axes")
    assert code == 1
    assert out == ""
    assert "verification failed: axes spectra deviate from their exact values" in err


def test_verify_flipper_seeds(capsys):
    _, out7, _ = run_cli(capsys, "verify", "flipper", "--seed", "7")
    _, out9, _ = run_cli(capsys, "verify", "flipper", "--seed", "9")
    rec7, rec9 = json.loads(out7), json.loads(out9)
    assert rec7["verdict"] == rec9["verdict"] == "Incomparable"
    assert rec7["params"]["direction"] != rec9["params"]["direction"]
    np.testing.assert_allclose(rec7["lambda_initial"], [0.51, 0.30, 0.19], atol=1e-12)


def test_verify_general_interior(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "general",
        "--a", "0.70710678", "--c", "0.70710678", "--theta", "1.5707963",
    )
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "Incomparable"
    assert abs(record["A"] - 0.25) < 1e-7
    assert abs(record["B"] - 0.25) < 1e-7
    assert abs(record["Bprime"]) < 1e-7


def test_verify_general_degenerate_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "general", "--a", "1.0", "--c", "0.5", "--theta", "1.0")
    assert code == 0
    record = json.loads(out)
    assert record["degeneracyFlag"] is True
    assert record["verdict"] == "Interconvertible"


def test_verify_general_boundary_theta_requires_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "general", "--a", "0.5", "--c", "0.5", "--theta", "0.0"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(
        capsys,
        "verify", "general",
        "--a", "0.5", "--c", "0.5", "--theta", "0.0", "--degenerate-mode",
    )
    assert code == 0
    assert json.loads(out)["degeneracyFlag"] is True


def test_check_pair(capsys):
    code, out, _ = run_cli(capsys, "check-pair", "--lhs", ".51,.30,.19", "--rhs", ".49,.36,.15")
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "Incomparable"
    assert record["params"]["closed_form_incomparable"] is True

    code, out, _ = run_cli(capsys, "check-pair", "--lhs", "1,0", "--rhs", ".5,.5")
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "BackwardCertain"

    code, out, _ = run_cli(capsys, "check-pair", "--lhs", "1,0", "--rhs", ".5,.5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines[1].split(",")) == len(CSV_HEADER.split(","))


def test_check_pair_rejects_bad_vector():
    with pytest.raises(SystemExit) as exc:
        cli.main(["check-pair", "--lhs", ".9,.3", "--rhs", ".5,.5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("lhs", ["nan,0.5,0.5", "inf,0.5,0.5", "0.5,0.5,-inf"])
def test_check_pair_rejects_non_finite(lhs, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check-pair", "--lhs", lhs, "--rhs", ".5,.5"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "general", "--a", "0.5", "--c", "0.5", "--theta", "1.0", "--mu", "nan"],
        ["verify", "general", "--a", "0.5", "--c", "0.5", "--theta", "1.0", "--nu", "inf"],
        ["verify", "general", "--a", "0.5", "--c", "0.5", "--theta", "1.0", "--margin", "nan"],
        ["verify", "general", "--a", "nan", "--c", "0.5", "--theta", "1.0"],
        ["verify", "axes", "--chi", "nan"],
        ["verify", "axes", "--eta=-inf"],
        ["sweep", "--grid", "3", "--margin", "nan"],
    ],
)
def test_non_finite_float_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "finite" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "general", "--a", "0.5"])
    assert exc.value.code == 2


def test_verification_failure_exit_code(monkeypatch, capsys):
    def boom(**kwargs):
        raise VerificationError("forced")

    monkeypatch.setattr(cli, "axes_experiment", boom)
    code, _, err = run_cli(capsys, "verify", "axes")
    assert code == 1
    assert "forced" in err


@pytest.mark.parametrize(
    "error",
    [
        OrderingMismatchError("forced ordering"),
        np.linalg.LinAlgError("forced eigensolver failure"),
        HermiticityError("forced hermiticity defect"),
        DimensionError("forced dimension mismatch"),
        SpectrumTieError("forced spectrum tie"),
        NonFiniteError("forced non-finite value"),
    ],
)
def test_certification_errors_exit_one(error, monkeypatch, capsys):
    def boom(*args):
        raise error

    monkeypatch.setattr(cli.kernels, "grid_eval", boom)
    code, out, err = run_cli(capsys, "sweep", "--grid", "2")
    assert code == 1
    assert out == ""
    assert f"verification failed: {error}" in err


@pytest.mark.parametrize(
    "error",
    [
        HermiticityError("forced hermiticity defect"),
        DimensionError("forced dimension mismatch"),
        SpectrumTieError("forced spectrum tie"),
    ],
)
def test_single_point_certification_errors_exit_one(error, monkeypatch, capsys):
    # internal ValueErrors raised while certifying are failures, not usage errors
    def boom(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli.kernels, "grid_eval", boom)
    code, out, err = run_cli(capsys, "verify", "general", "--a", "0.3", "--c", "0.7", "--theta", "1.2")
    assert code == 1
    assert out == ""
    assert f"verification failed: {error}" in err


def test_single_point_nan_spectrum_fails_the_route_gate(monkeypatch, capsys):
    real_grid_eval = cli.kernels.grid_eval

    def nan_spectrum(*args):
        data = real_grid_eval(*args)
        data["num_alpha"][:] = np.nan
        return data

    monkeypatch.setattr(cli.kernels, "grid_eval", nan_spectrum)
    code, out, err = run_cli(capsys, "verify", "general", "--a", "0.3", "--c", "0.7", "--theta", "1.2")
    assert code == 1
    assert out == ""
    assert "disagree" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_value_at_the_writer_exits_one(fmt, monkeypatch, capsys):
    # a NaN in A would stop at the route gate; one in a certified result must
    # still be caught by the writer
    real_axes_experiment = cli.axes_experiment
    monkeypatch.setattr(
        cli,
        "axes_experiment",
        lambda **kwargs: dataclasses.replace(real_axes_experiment(**kwargs), coeff_a=float("nan")),
    )
    code, out, err = run_cli(capsys, "verify", "axes", "--format", fmt)
    assert code == 1
    assert out == ""
    assert "verification failed: cannot write the non-finite float nan" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "general", "--a", "2", "--c", "0.5", "--theta", "1.0"],
        ["verify", "general", "--a", "0.5", "--c", "0.5", "--theta", "1.0", "--margin", "1.5"],
        ["sweep", "--grid", "1"],
    ],
)
def test_argument_validation_errors_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("offset", [1e-6, float("nan")])
def test_sweep_enforces_eps_spec(offset, monkeypatch, tmp_path, capsys):
    real_grid_eval = cli.kernels.grid_eval

    def off_by_offset(*args):
        data = real_grid_eval(*args)
        data["num_alpha"][5, 1] += offset
        return data

    monkeypatch.setattr(cli.kernels, "grid_eval", off_by_offset)
    target = tmp_path / "sweep.ndjson"
    code, out, err = run_cli(capsys, "sweep", "--grid", "3", "--out", str(target))
    assert code == 1
    assert "disagree" in err
    assert not target.exists()  # every check runs before the first byte is written


def test_sweep_non_incomparable_verdict_fails_before_writing(monkeypatch, tmp_path, capsys):
    real_grid_eval = cli.kernels.grid_eval

    def equal_spectra(*args):
        # both routes agree, but the final spectrum equals the initial one
        data = real_grid_eval(*args)
        data["beta"][7] = data["alpha"][7]
        data["num_beta"][7] = data["num_alpha"][7]
        return data

    monkeypatch.setattr(cli.kernels, "grid_eval", equal_spectra)
    target = tmp_path / "sweep.ndjson"
    code, _, err = run_cli(capsys, "sweep", "--grid", "3", "--out", str(target))
    assert code == 1
    assert "1 non-incomparable verdicts, first Interconvertible" in err
    assert not target.exists()


def test_sweep_corrupted_atlas_fails_before_writing(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(PATTERN_ATLAS, ("Q2", "Q2"), PATTERN_ATLAS[("Q3", "Q3")])
    target = tmp_path / "sweep.ndjson"
    code, _, err = run_cli(capsys, "sweep", "--grid", "4", "--out", str(target))
    assert code == 1
    assert "Q2" in err
    assert not target.exists()


def test_sweep_records_and_summary(capsys):
    code, out, err = run_cli(capsys, "sweep", "--grid", "3")
    assert code == 0
    lines = out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    summary = records[-1]
    assert summary["experiment_id"] == "sweep-summary"
    assert summary["points_total"] == 27
    assert summary["points_emitted"] == 27
    assert summary["non_incomparable_count"] == 0
    assert len(records) == 28
    # records are sorted by (ia, ic, itheta) and self-consistent
    keys = [(r["params"]["ia"], r["params"]["ic"], r["params"]["itheta"]) for r in records[:-1]]
    assert keys == sorted(keys)
    for r in records[:-1]:
        lam_i, lam_f = np.array(r["lambda_initial"]), np.array(r["lambda_final"])
        fwd = np.all(np.cumsum(lam_i) <= np.cumsum(lam_f) + 1e-12)
        bwd = np.all(np.cumsum(lam_f) <= np.cumsum(lam_i) + 1e-12)
        assert {
            (False, False): "Incomparable",
            (True, False): "ForwardCertain",
            (False, True): "BackwardCertain",
            (True, True): "Interconvertible",
        }[(bool(fwd), bool(bwd))] == r["verdict"]


def test_sweep_evaluates_only_certified_points(monkeypatch, capsys):
    real_grid_eval = cli.kernels.grid_eval
    sizes = []

    def counting(a, c, theta):
        sizes.append(len(a))
        return real_grid_eval(a, c, theta)

    monkeypatch.setattr(cli.kernels, "grid_eval", counting)
    code, out, _ = run_cli(capsys, "sweep", "--grid", "6", "--margin", "0.05")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert 0 < summary["points_emitted"] < summary["points_total"]
    assert sizes == [summary["points_emitted"]]


def test_sweep_and_single_point_share_the_atlas_tie_tolerance(monkeypatch, capsys):
    # both paths certify through certify_rows: per certification each cubic is
    # solved once, the atlas is checked once and route_tolerance runs once, and
    # the chain is checked within route_tolerance(A, B, B', base=CHAIN_TIE_TOL)
    calls = {"check_atlas": [], "cubic_roots_rows": [], "route_tolerance": []}

    def recording(name, real):
        def wrapper(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            calls[name].append(bound.arguments)
            return real(*args, **kwargs)

        return wrapper

    targets = {
        "check_atlas": ordering.check_atlas,
        "cubic_roots_rows": cubic.cubic_roots_rows,
        "route_tolerance": constructions.route_tolerance,
    }
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "qflip"]:
        for name, real in targets.items():
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, recording(name, real))
    code, out, _ = run_cli(capsys, "sweep", "--grid", "3")
    assert code == 0
    counts = {name: len(c) for name, c in calls.items()}
    assert counts == {"check_atlas": 1, "cubic_roots_rows": 2, "route_tolerance": 1}
    for line in out.strip().splitlines()[:-1]:
        params = json.loads(line)["params"]
        general_flip_experiment(FlipParams(a=params["a"], c=params["c"], theta=params["theta"]))
    counts = {name: len(c) for name, c in calls.items()}
    assert counts == {"check_atlas": 28, "cubic_roots_rows": 56, "route_tolerance": 28}
    sweep, *single = calls["check_atlas"]
    for call in calls["check_atlas"]:
        expected = route_tolerance(call["a_coeff"], call["b_val"], call["bprime_val"], base=CHAIN_TIE_TOL)
        np.testing.assert_array_equal(call["tie_tol"], expected)
    np.testing.assert_array_equal(np.concatenate([call["tie_tol"] for call in single]), sweep["tie_tol"])


def test_sweep_and_verify_general_print_the_same_coefficients(capsys):
    # both paths certify one point through the same route, so everything after
    # the params (the lambdas, A, B, Bprime, ordering, verdict, error and flag)
    # is printed to the last digit
    code, out, _ = run_cli(capsys, "sweep", "--grid", "12")
    assert code == 0
    lines = out.strip().splitlines()[:-1]
    for line in lines[::7]:
        params = json.loads(line)["params"]
        point = [f"--{k}={params[k]:.17g}" for k in ("a", "c", "theta")]
        code, single, _ = run_cli(capsys, "verify", "general", *point)
        assert code == 0
        values = line[line.index('"lambda_initial"') :]
        assert single[single.index('"lambda_initial"') :] == values + "\n"


def test_sweep_wide_margin_filters_everything(capsys):
    # a sweep that certifies no point is a vacuous pass, so it fails
    code, out, err = run_cli(capsys, "sweep", "--grid", "2", "--margin", "0.5")
    assert code == 1
    assert out == ""
    assert "nothing was certified" in err


def test_sweep_deterministic_output(tmp_path, capsys):
    f1, f2 = tmp_path / "s1.ndjson", tmp_path / "s2.ndjson"
    run_cli(capsys, "sweep", "--grid", "3", "--out", str(f1))
    run_cli(capsys, "sweep", "--grid", "3", "--out", str(f2))
    assert f1.read_bytes() == f2.read_bytes()


def test_sweep_csv_format(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--grid", "2", "--format", "csv", "--out", str(target))
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[-1].startswith("# summary ")
    assert len(lines) == 2 + 8  # header, 8 records, summary


def test_sweep_jobs_parallel_matches_serial(tmp_path, capsys):
    f1, f2 = tmp_path / "serial.ndjson", tmp_path / "par.ndjson"
    run_cli(capsys, "sweep", "--grid", "3", "--out", str(f1), "--jobs", "1")
    run_cli(capsys, "sweep", "--grid", "3", "--out", str(f2), "--jobs", "2")
    assert f1.read_bytes() == f2.read_bytes()


def test_module_entry_point_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "qflip", "verify", "axes"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"},
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["verdict"] == "Incomparable"


# sha256 of `qflip sweep --grid 12`, pinned so that a
# change to any layer of the sweep cannot alter its output bytes unnoticed.
GOLDEN_SWEEP_GRID12 = {
    "json": "ae02bc873d758add92d2a411e318f7f4011ba312c89d66bb52d9c1847de4c964",
    "csv": "d8116b0f738bbdd3a9cd96d7efd7fafb1883e57a7052b6f351df16e66fd5da0c",
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN_SWEEP_GRID12))
def test_sweep_golden_sha256(fmt):
    out = subprocess.run(
        [sys.executable, "-m", "qflip", "sweep", "--grid", "12", "--format", fmt],
        capture_output=True,
        env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"},
    )
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout).hexdigest() == GOLDEN_SWEEP_GRID12[fmt]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fmt", sorted(GOLDEN_SWEEP_GRID12))
def test_sweep_chunk_boundaries_keep_the_golden_bytes(fmt, jobs, monkeypatch, capsys):
    # 7 does not divide grid 12's 1728 rows, so the last chunk is a short one
    monkeypatch.setattr(cli, "CHUNK_ROWS", 7)
    code, out, _ = run_cli(capsys, "sweep", "--grid", "12", "--format", fmt, "--jobs", jobs)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SWEEP_GRID12[fmt]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("chunk_rows, pools", [(8192, []), (1000, [2])])
def test_sweep_starts_at_most_one_worker_per_chunk(chunk_rows, pools, monkeypatch, capsys):
    # grid 12 certifies 1728 points: one chunk of 8192, or two of 1000
    started = []

    class InlinePool:
        """Records its worker count and runs the chunks in this process."""

        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        imap = staticmethod(map)

    def context(method):
        assert chunk_rows < 1728, "a one-chunk sweep started a pool"
        return SimpleNamespace(Pool=InlinePool)

    monkeypatch.setattr(multiprocessing, "get_context", context)
    monkeypatch.setattr(cli, "CHUNK_ROWS", chunk_rows)
    code, out, _ = run_cli(capsys, "sweep", "--grid", "12", "--jobs", "4")
    assert code == 0
    assert started == pools
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SWEEP_GRID12["json"]


@pytest.mark.parametrize("argv", [["verify", "axes"], ["sweep", "--grid", "8"]], ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["directory", "missing_parent"])
def test_unwritable_out_is_a_usage_error(where, argv, monkeypatch, tmp_path, capsys):
    target = tmp_path if where == "directory" else tmp_path / "no" / "x.json"
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # where a misplaced spool would go
    if argv[0] == "sweep":
        # the target is refused before the first point is evaluated
        def unreachable(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli.kernels, "grid_eval", unreachable)
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(target)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "qflip: error:" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("to_file", [True, False])
def test_sweep_failing_in_its_last_chunk_leaves_nothing(to_file, monkeypatch, tmp_path, capsys):
    # earlier chunks were already spooled when the last one fails the route gate
    monkeypatch.setattr(cli, "CHUNK_ROWS", 7)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # where a stdout spool goes
    real_grid_eval = cli.kernels.grid_eval
    calls = []

    def off_in_last_chunk(*args):
        data = real_grid_eval(*args)
        calls.append(len(args[0]))
        if len(calls) == -(-1728 // 7):
            data["num_alpha"][-1, 1] += 1e-6
        return data

    monkeypatch.setattr(cli.kernels, "grid_eval", off_in_last_chunk)
    out_flags = ["--out", str(tmp_path / "sweep.ndjson")] if to_file else []
    code, out, err = run_cli(capsys, "sweep", "--grid", "12", *out_flags)
    assert code == 1
    assert "disagree" in err
    assert calls == [7] * 246 + [6]
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("existing_mode", [None, 0o640])
def test_sweep_out_file_mode_is_that_of_a_plain_open(existing_mode, tmp_path, capsys):
    # the spool is made private (0600); the published file is not
    target, plain = tmp_path / "sweep.ndjson", tmp_path / "plain.ndjson"
    if existing_mode is not None:
        for path in (target, plain):
            path.write_text("old")
            path.chmod(existing_mode)
    with open(plain, "w"):
        pass
    code, _, _ = run_cli(capsys, "sweep", "--grid", "3", "--out", str(target))
    assert code == 0
    assert oct(target.stat().st_mode) == oct(plain.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.ndjson", "sweep.ndjson"]


def test_sweep_to_a_device_copies_the_spool_out(monkeypatch, tmp_path, capsys):
    # a target that is not a regular file cannot take a rename
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    code, out, _ = run_cli(capsys, "sweep", "--grid", "3", "--out", os.devnull)
    assert code == 0
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, head", [(["sweep", "--grid", "12"], 10), (["verify", "axes"], 0)])
def test_closed_stdout_is_not_a_failure(argv, head, tmp_path):
    # `qflip sweep --grid 12 | head -c 10`: the reader leaves early, nothing failed
    read_end, write_end = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-m", "qflip", *argv],
        stdout=write_end,
        stderr=subprocess.PIPE,
        env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin", "TMPDIR": str(tmp_path)},
    )
    os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        assert len(reader.read(head)) == head
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert b"Traceback" not in err and b"Exception ignored" not in err
    assert list(tmp_path.iterdir()) == []  # no spool left behind


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, to_stdout",
    [(["verify", "axes", "--out", "/dev/full"], False), (["sweep", "--grid", "4", "--out", "/dev/full"], False),
     (["verify", "axes"], True)],
    ids=["verify-out", "sweep-out", "verify-stdout"],
)
def test_full_output_target_is_a_write_error(argv, to_stdout, tmp_path):
    # the target refuses the write after the point was certified: neither a
    # certification failure nor a traceback
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "qflip", *argv],
            stdout=full if to_stdout else subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin", "TMPDIR": str(tmp_path)},
            timeout=120,
        )
    target = "stdout" if to_stdout else "--out /dev/full"
    assert proc.returncode == 2
    assert proc.stderr.decode() == f"qflip: error: cannot write {target}: No space left on device\n"
    assert list(tmp_path.iterdir()) == []  # no spool left behind


def test_sweep_memory_is_bounded_by_the_chunk(monkeypatch, tmp_path, capsys):
    # 8x the points must not take 8x the memory: besides the margin mask (about
    # 17 bytes per grid point while it is built) and the flat index list of the
    # certified points (8 bytes each), a sweep holds one chunk at a time
    monkeypatch.setattr(cli, "CHUNK_ROWS", 256)

    def peak(grid):
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, "sweep", "--grid", str(grid), "--out", str(tmp_path / "sweep.ndjson"))
            assert code == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(32) < 2 * peak(16)


# sha256 of each single-point command's output, pinned like the sweep's so
# that a change on the one-point route cannot alter its bytes unnoticed.
GOLDEN_SINGLE_POINT = {
    ("verify", "axes"): {
        "json": "6fb54e693370c9cfeb7f63f18e1675b640593a90233da8f9240fa60aac07bd1a",
        "csv": "8860e2be21bdebe5282a36ee465375fe7e7d6ed813b53942c8ef2a86bb3c6c8f",
    },
    ("verify", "flipper", "--seed", "3"): {
        "json": "9763f3d1fc710163000d8b4d57b31a3ce646f1757dda6c890202e3e830e12b34",
        "csv": "b32fec29d73a36d7640460680e394c0af1e48d168749eb60d8c886beceaf7b38",
    },
    ("verify", "general", "--a", "0.3", "--c", "0.7", "--theta", "1.2", "--mu", "0.4", "--nu", "2.0"): {
        "json": "2cb7ad2658bdbfe59bf1f164666c13662039816327836d9c003067e28596b68a",
        "csv": "1f45146fa7f801634bc2f5ca63f888ff270beeaa13073bdb923b0504096c1073",
    },
    ("check-pair", "--lhs", ".51,.30,.19", "--rhs", ".49,.36,.15"): {
        "json": "a61feac02aec818fe6fed8923edb1895dc467fb77f3e8edcdb2971e06eb5cb6f",
        "csv": "d983b19e46ca00478212da1ff42fbee8febce87675304f6adc8cfc95740a4d52",
    },
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv", list(GOLDEN_SINGLE_POINT), ids=lambda argv: argv[1] if argv[0] == "verify" else argv[0]
)
def test_single_point_golden_sha256(argv, fmt, capsys):
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SINGLE_POINT[argv][fmt]
