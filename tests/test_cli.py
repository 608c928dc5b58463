import dataclasses
import hashlib
import inspect
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qflip.cli as cli
from qflip import constructions, cubic, kernels, ordering, report
from qflip.bloch import FlipParams, complements
from qflip.constructions import AXES_PARAMS, VerificationError, general_flip_experiment
from qflip.ordering import OrderingMismatchError
from qflip.report import CSV_HEADER, NonFiniteError, fmt_float
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


def _break_the_chain(monkeypatch):
    """Make grid_eval hand out every row with alpha2 and alpha3 swapped in
    both routes: they still agree and the outer gaps keep their signs, but
    the roots break the interleaving chain by alpha2 - alpha3, as the initial
    roots no longer descend."""
    real = kernels.grid_eval

    def swapped(*args, **kwargs):
        rows = real(*args, **kwargs)
        for key in ("roots", "spectra"):
            rows[key][:, 0, [1, 2]] = rows[key][:, 0, [2, 1]]
        return rows

    monkeypatch.setattr(kernels, "grid_eval", swapped)


# Grid-100 point (0, 0, 0): its measure m = 3.05e-6 lies beyond the default
# margin, but |B - Bprime| = 4 m^2 = 3.7e-11, within the 1e-10 gap that once
# exempted a row from the atlas check.
GAP_POINT = ("--a", "0.009900990099009901", "--c", "0.009900990099009901", "--theta", "0.031104877758314782")


def test_live_point_within_the_gap_tolerance_is_checked_against_the_atlas(monkeypatch, capsys):
    code, out, _ = run_cli(capsys, "verify", "general", *GAP_POINT)
    assert code == 0
    record = json.loads(out)
    assert 0 < record["B"] - record["Bprime"] <= 1e-10
    assert record["degeneracyFlag"] is False
    assert record["ordering"] == "Q2Q2:a1>b1>b3>a3>a2>b2"
    _break_the_chain(monkeypatch)
    a, c, theta = (float(x) for x in GAP_POINT[1::2])
    with pytest.raises(VerificationError, match="closed-form roots do not descend at 1 points, first at a=0.0099"):
        general_flip_experiment(FlipParams(a=a, c=c, theta=theta))


def test_degenerate_point_keeps_the_gap_exemption(capsys):
    # at a c = 0, B = Bprime = 0: the spectra coincide, so the roots pass the
    # atlas check, but a degenerate point reports no ordering
    code, out, _ = run_cli(capsys, "verify", "general", "--a", "0", "--c", "0.5", "--theta", "1")
    assert code == 0
    record = json.loads(out)
    assert record["degeneracyFlag"] is True
    assert record["ordering"] is None


def test_point_with_a_margin_below_the_tie_constant_is_certified(capsys):
    # grid-200 point (0, 0, 1): m = 1.16e-6, so its outer gaps are 9.0e-13,
    # below the check-pair tie constant 1e-12 but certified by their signs
    code, out, _ = run_cli(
        capsys,
        "verify", "general",
        "--a", "0.004975124378109453", "--c", "0.004975124378109453", "--theta", "0.046889442590892436",
    )
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "Incomparable" and record["degeneracyFlag"] is False
    gaps = np.subtract(record["lambda_initial"], record["lambda_final"])
    assert 0 < gaps[0] < 1e-12 and 0 < gaps[2] < 1e-12


def test_degenerate_point_off_the_great_circle_prints_the_closed_form_verdict(capsys):
    # m = 1.37e-8 lies within the margin, so the point is degenerate and its
    # numeric gaps (~1e-16) are roundoff; the verdict is the closed form's,
    # Incomparable since m != 0, and the flag says the numeric route did not
    # confirm it
    code, out, _ = run_cli(capsys, "verify", "general", "--a", "0.6", "--c", "0.3", "--theta", "1e-7")
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "Incomparable"
    assert record["degeneracyFlag"] is True
    assert record["ordering"] is None


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
    assert lines[1] == ",,,,,,1,0,,0.5,0.5,,,BackwardCertain,,false"


def test_check_pair_csv_refuses_more_than_three_entries(monkeypatch, capsys):
    # a CSV row has three cells per spectrum; four entries are refused before
    # any verdict is computed, not truncated
    monkeypatch.setattr(cli, "verdict", None)
    with pytest.raises(SystemExit) as exc:
        cli.main(["check-pair", "--lhs", ".4,.3,.2,.1", "--rhs", ".5,.2,.2,.1", "--format", "csv"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == (
        "qflip: error: --format csv holds at most three entries per vector; use --format json"
    )


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
    "rhs",
    [
        "0.51,0.29,0.2",  # the partial sums cross only in the totals: was printed as Incomparable
        "0.45,0.35,0.2",  # an interleaving chain without a crossing: was BackwardCertain beside a true closed form
    ],
)
def test_check_pair_rejects_totals_beyond_the_tie_tolerance(rhs, monkeypatch, capsys):
    # each total lies within the 1e-6 that a probability vector may miss 1 by,
    # but the two differ by 5e-7, far beyond the verdict's tie tolerance
    monkeypatch.setattr(cli, "verdict", None)
    with pytest.raises(SystemExit) as exc:
        cli.main(["check-pair", "--lhs", "0.5,0.3,0.2000005", "--rhs", rhs])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == (
        "qflip: error: --lhs and --rhs totals differ by 5.0e-07, more than the tie tolerance 1e-12"
    )


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


def test_negative_seed_is_a_usage_error_naming_the_flag(monkeypatch, capsys):
    # numpy would reject it too, but in words that do not name the flag
    monkeypatch.setattr(cli, "flipper_experiment", None)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "flipper", "--seed", "-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == (
        "qflip verify flipper: error: argument --seed: expected a non-negative integer, got '-1'"
    )


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["--grid", "1"], {"grid_n": 1}, "argument --grid: expected an integer of at least 2, got '1'"),
        # --jobs is kept only for the benchmark runner's --jobs 1
        (["--grid", "3", "--jobs", "0"], None, "argument --jobs: invalid choice: 0 (choose from 1)"),
        (["--grid", "3", "--jobs", "2"], None, "argument --jobs: invalid choice: 2 (choose from 1)"),
    ],
)
def test_sweep_size_errors_name_the_flag(argv, config, message, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_run_sweep", None)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == f"qflip sweep: error: {message}"
    if config is not None:
        # a config built directly, without the parser, is checked as well
        with pytest.raises(ValueError, match="must be at least"):
            cli.SweepConfig(**config)


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


@pytest.mark.parametrize("error", [SpectrumTieError("forced spectrum tie")])
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
        # below MIN_MARGIN: the point's numeric gaps are roundoff and could not be confirmed
        ["verify", "general", "--a", "0.6", "--c", "0.3", "--theta", "1e-7", "--margin", "1e-9"],
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
        data["roots"][7, 1] = data["roots"][7, 0]
        data["num_beta"][7] = data["num_alpha"][7]
        return data

    monkeypatch.setattr(cli.kernels, "grid_eval", equal_spectra)
    target = tmp_path / "sweep.ndjson"
    code, _, err = run_cli(capsys, "sweep", "--grid", "3", "--out", str(target))
    assert code == 1
    assert "Incomparable not certified at 1 points, first at a=0.25, c=0.75, theta=1.5707963267948966: " in err
    assert "[0.0, 0.0, 0.0] numeric, not (+, -, +) beyond 1e-14" in err
    assert not target.exists()


def test_sweep_broken_chain_fails_before_writing(monkeypatch, tmp_path, capsys):
    _break_the_chain(monkeypatch)
    target = tmp_path / "sweep.ndjson"
    code, _, err = run_cli(capsys, "sweep", "--grid", "4", "--out", str(target))
    assert code == 1
    assert "closed-form roots do not descend at 64 points, first at a=0.2, c=0.2, theta=0.6283185307179586" in err
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


def test_sweep_and_single_point_share_one_certificate_pass(monkeypatch, capsys):
    # both paths certify through certify_rows: per certification both cubics are
    # solved in one call, route_tolerance and the gap identity run once, the
    # gaps from grid_eval's own roots and measure, and the atlas places
    # grid_eval's own angles once
    calls = {"certify_rows": [], "check_atlas": [], "cubic_roots_rows": [], "route_tolerance": [], "root_gaps_rows": []}

    def recording(name, real):
        def wrapper(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            calls[name].append(bound.arguments)
            return real(*args, **kwargs)

        return wrapper

    targets = {
        "certify_rows": constructions.certify_rows,
        "check_atlas": ordering.check_atlas,
        "cubic_roots_rows": cubic.cubic_roots_rows,
        "route_tolerance": constructions.route_tolerance,
        "root_gaps_rows": cubic.root_gaps_rows,
    }
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "qflip"]:
        for name, real in targets.items():
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, recording(name, real))
    code, out, _ = run_cli(capsys, "sweep", "--grid", "3")
    assert code == 0
    counts = {name: len(c) for name, c in calls.items()}
    assert counts == dict.fromkeys(targets, 1)
    for line in out.strip().splitlines()[:-1]:
        params = json.loads(line)["params"]
        general_flip_experiment(FlipParams(a=params["a"], c=params["c"], theta=params["theta"]))
    counts = {name: len(c) for name, c in calls.items()}
    assert counts == dict.fromkeys(targets, 28)
    for certified, gaps, atlas in zip(calls["certify_rows"], calls["root_gaps_rows"], calls["check_atlas"]):
        rows = certified["rows"]
        assert gaps["roots"] is rows["roots"] and gaps["m"] is rows["m"] and gaps["a_coeff"] is rows["A"]
        assert atlas["theta_i"] is rows["theta_i"] and atlas["theta_f"] is rows["theta_f"]
    sweep, *single = calls["root_gaps_rows"]
    np.testing.assert_array_equal(np.concatenate([call["m"] for call in single]), sweep["m"])


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


def _dense_measure(n):
    """|a b c d sin theta| over the whole N^3 grid of a sweep: the selection's oracle."""
    ticks = np.arange(1, n + 1) / (n + 1)
    a, c = ticks[:, None, None], ticks[None, :, None]
    b, d = complements(a, c)
    return np.abs(kernels.degeneracy(a, b, c, d, ticks * np.pi))


def _attained_margins(n):
    """The largest and second-largest measure on grid n: margins the strict > meets exactly."""
    values = np.unique(_dense_measure(n))
    return [float(values[-1]), float(values[-2])]


def test_sweep_wide_margin_filters_everything(capsys):
    # a sweep that certifies no point is a vacuous pass, so it fails
    code, out, err = run_cli(capsys, "sweep", "--grid", "2", "--margin", "0.5")
    assert code == 1
    assert out == ""
    assert "nothing was certified" in err


@pytest.mark.parametrize("grid", [2, 12, 40])
def test_sweep_at_the_largest_measure_certifies_nothing(grid, capsys):
    # no point lies strictly beyond the grid's largest measure
    code, out, err = run_cli(capsys, "sweep", "--grid", str(grid), "--margin", repr(_attained_margins(grid)[0]))
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


# sha256 of the output of the two sweeps perfbench runs (`sweep-dense` and
# `sweep-sparse`), so a speed-up of any layer must keep their bytes too.
GOLDEN_BENCHMARK_SWEEPS = {
    ("--grid", "40"): "6c6aaff3f257b8362b26ccc7ffa7e2e148c8ff69e07504d5398f5592c7a5a924",
    ("--grid", "80", "--margin", "0.24", "--format", "csv"): (
        "2506f086ae16edf6071b5b7feb8211841bdd93b7ac4ee07ea9c0ecb802ddc018"
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_BENCHMARK_SWEEPS), ids=["grid40-json", "grid80-csv"])
def test_benchmark_sweeps_golden_sha256(argv, tmp_path, capsys):
    target = tmp_path / "sweep.out"
    code, _, _ = run_cli(capsys, "sweep", *argv, "--out", str(target))
    assert code == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN_BENCHMARK_SWEEPS[argv]


@pytest.mark.parametrize("fmt", sorted(GOLDEN_SWEEP_GRID12))
def test_sweep_chunk_boundaries_keep_the_golden_bytes(fmt, monkeypatch, capsys):
    # 7 does not divide grid 12's 1728 rows, so the last chunk is a short one;
    # --jobs 1 is the one value the parser still takes, as the benchmark passes it
    monkeypatch.setattr(cli, "CHUNK_ROWS", 7)
    code, out, _ = run_cli(capsys, "sweep", "--grid", "12", "--format", fmt, "--jobs", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SWEEP_GRID12[fmt]


@pytest.mark.parametrize("fmt", sorted(GOLDEN_SWEEP_GRID12))
def test_sweep_formats_every_record_float_in_numpy(fmt, monkeypatch, capsys):
    # report.float_text hands fmt_float only what it cannot format itself; on
    # grid 12 that is nothing, so fmt_float sees only grid_text's ticks and
    # angles and, in JSON, the summary's two floats
    calls = []
    monkeypatch.setattr(report, "fmt_float", lambda x: calls.append(x) or fmt_float(x))
    code, out, _ = run_cli(capsys, "sweep", "--grid", "12", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SWEEP_GRID12[fmt]
    ticks = np.arange(1, 13) / 13
    summary = json.loads(out.splitlines()[-1]) if fmt == "json" else {}
    summary_floats = [summary[k] for k in ("margin", "max_analytic_numeric_error") if k in summary]
    assert calls == [*ticks.tolist(), *(ticks * np.pi).tolist(), *summary_floats]


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


def _record_sweep_stages(monkeypatch) -> dict:
    """Wrap the sweep's kernel, certificate and formatter to record, per call,
    whether it ran on the main thread.  Wraps whatever ``grid_eval`` is set."""
    stages = {"grid_eval": [], "certify_rows": [], "sweep_block": []}

    def recording(name, real):
        def wrapper(*args, **kwargs):
            stages[name].append(threading.current_thread() is threading.main_thread())
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli.kernels, "grid_eval", recording("grid_eval", cli.kernels.grid_eval))
    monkeypatch.setattr(cli, "certify_rows", recording("certify_rows", cli.certify_rows))
    monkeypatch.setattr(cli, "sweep_block", recording("sweep_block", cli.sweep_block))
    return stages


def test_sweep_certifies_every_record_on_the_thread_that_writes_it(monkeypatch, capsys):
    # grid 12 certifies 1728 points, 18 chunks of 100: the worker thread runs
    # only the kernel, for every chunk after the first; the main thread, which
    # writes, certifies and formats every chunk
    monkeypatch.setattr(cli, "CHUNK_ROWS", 100)
    stages = _record_sweep_stages(monkeypatch)
    code, out, _ = run_cli(capsys, "sweep", "--grid", "12")
    assert code == 0
    assert stages == {"grid_eval": [True] + [False] * 17, "certify_rows": [True] * 18, "sweep_block": [True] * 18}
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SWEEP_GRID12["json"]


def test_sweep_failing_on_the_worker_thread_leaves_nothing(monkeypatch, tmp_path, capsys):
    # chunk 3's kernel fails on the worker thread while chunk 2 is certified and written
    monkeypatch.setattr(cli, "CHUNK_ROWS", 7)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # where a misplaced spool would go
    real_grid_eval, calls = cli.kernels.grid_eval, []

    def fails_in_third_chunk(a, c, theta):
        calls.append(len(a))
        if len(calls) == 3:
            where = f"a={float(a[2])!r}, c={float(c[2])!r}, theta={float(theta[2])!r}"
            raise np.linalg.LinAlgError(f"Eigenvalues did not converge, first at {where}")
        return real_grid_eval(a, c, theta)

    monkeypatch.setattr(cli.kernels, "grid_eval", fails_in_third_chunk)
    stages = _record_sweep_stages(monkeypatch)
    threads = threading.active_count()
    code, out, err = run_cli(capsys, "sweep", "--grid", "12", "--out", str(tmp_path / "sweep.ndjson"))
    assert code == 1
    # grid 12 certifies every point, so row 2 of chunk 3 is flat index 16, grid point (0, 1, 4)
    ticks = np.arange(1, 13) / 13
    point = f"a={float(ticks[0])!r}, c={float(ticks[1])!r}, theta={float(ticks[4] * np.pi)!r}"
    assert err == f"verification failed: Eigenvalues did not converge, first at {point}\n"
    # no kernel past the failing chunk; only the chunks before it are certified and formatted
    assert stages == {"grid_eval": [True, False, False], "certify_rows": [True, True], "sweep_block": [True, True]}
    assert out == ""
    assert list(tmp_path.iterdir()) == []
    assert threading.active_count() == threads


def test_sweep_failing_its_certificate_on_the_writing_thread_leaves_nothing(monkeypatch, tmp_path, capsys):
    # chunk 3 fails its route gate on the main thread while chunk 4's kernel runs on the worker
    monkeypatch.setattr(cli, "CHUNK_ROWS", 7)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # where a misplaced spool would go
    real_grid_eval, calls = cli.kernels.grid_eval, []

    def off_in_third_chunk(*args):
        data = real_grid_eval(*args)
        calls.append(len(args[0]))
        if len(calls) == 3:
            data["num_alpha"][[2, 5], 1] += 1e-6
        return data

    monkeypatch.setattr(cli.kernels, "grid_eval", off_in_third_chunk)
    stages = _record_sweep_stages(monkeypatch)
    threads = threading.active_count()
    code, out, err = run_cli(capsys, "sweep", "--grid", "12", "--out", str(tmp_path / "sweep.ndjson"))
    assert code == 1
    # grid 12 certifies every point, so row 2 of chunk 3 is flat index 16, grid point (0, 1, 4)
    ticks = np.arange(1, 13) / 13
    point = f"a={float(ticks[0])!r}, c={float(ticks[1])!r}, theta={float(ticks[4] * np.pi)!r}"
    assert f"at 2 points, first at {point}" in err
    # the kernel ran one chunk past the failing one, no more; nothing past it
    # was certified, and only the chunks before it were formatted
    assert stages == {
        "grid_eval": [True, False, False, False], "certify_rows": [True, True, True], "sweep_block": [True, True]
    }
    assert out == ""
    assert list(tmp_path.iterdir()) == []
    assert threading.active_count() == threads


def test_sweep_reports_a_formatting_failure_before_the_next_chunks_failure(monkeypatch, capsys):
    # chunk 1 fails to format while chunk 2, which fails too, is evaluated on
    # the worker: the error of the earlier chunk is reported, after the join
    monkeypatch.setattr(cli, "CHUNK_ROWS", 7)
    evaluating, evaluated = threading.Event(), []

    def second_chunk_fails_slowly(*args):
        evaluated.append(len(args[0]))
        if len(evaluated) == 2:
            evaluating.set()
            time.sleep(0.2)  # still running when the main thread fails, unless joined
            evaluated.append("done")
            raise VerificationError("forced in chunk 2")
        return real_grid_eval(*args)

    def first_block_fails(fmt, columns):
        assert evaluating.wait(timeout=60), "chunk 2 was not evaluated while chunk 1 was formatted"
        raise NonFiniteError("forced in chunk 1")

    real_grid_eval = cli.kernels.grid_eval
    monkeypatch.setattr(cli.kernels, "grid_eval", second_chunk_fails_slowly)
    monkeypatch.setattr(cli, "sweep_block", first_block_fails)
    threads = threading.active_count()
    code, out, err = run_cli(capsys, "sweep", "--grid", "12")
    assert code == 1
    assert err == "verification failed: forced in chunk 1\n"
    assert evaluated == [7, 7, "done"]  # one chunk ahead, and the worker was joined
    assert out == ""
    assert threading.active_count() == threads


@pytest.mark.parametrize("chunk_rows, threads", [(8192, 0), (1000, 1)], ids=["one-chunk", "two-chunks"])
def test_sweep_starts_a_thread_for_each_chunk_after_the_first(chunk_rows, threads, monkeypatch, capsys):
    # grid 12 certifies 1728 points: a sweep of one chunk, like perfbench's
    # sweep-sparse, starts no thread at all; one of two chunks starts one
    real_thread, started = threading.Thread, []

    def counted_thread(*args, **kwargs):
        assert len(started) < threads, "the sweep started a thread beyond one per later chunk"
        started.append(kwargs["name"])
        return real_thread(*args, **kwargs)

    monkeypatch.setattr(threading, "Thread", counted_thread)
    monkeypatch.setattr(cli, "CHUNK_ROWS", chunk_rows)
    code, out, _ = run_cli(capsys, "sweep", "--grid", "12")
    assert code == 0
    assert len(started) == threads
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SWEEP_GRID12["json"]


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
    # 8x the points must not take 8x the memory: besides the point selection
    # (O(N^2)) and the flat index list of the certified points (8 bytes each),
    # a sweep holds two chunks at a time, one written while the next is evaluated
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


class _Discard:
    """A byte sink that keeps nothing, so only the sweep's own memory is traced."""

    def write(self, data):
        return len(data)


def test_sparse_sweep_memory_grows_like_the_grid_squared(monkeypatch):
    # at margin 0.24 few points are certified: doubling the grid is 8x the
    # points but only 4x the (a, c) rows, which alone the selection holds
    monkeypatch.setattr(cli, "CHUNK_ROWS", 256)

    def peak(grid):
        tracemalloc.start()
        try:
            cli._run_sweep(cli.SweepConfig(grid_n=grid, margin=0.24), _Discard())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(192) < 4 * peak(96)


@pytest.mark.parametrize("chunk_rows", [None, 7], ids=["default-chunk", "chunk-7"])
@pytest.mark.parametrize("grid", [2, 3, 12, 40, 80, 97])
def test_sweep_selection_equals_the_dense_mask(grid, chunk_rows, monkeypatch):
    # the row bound and the pieces must keep exactly the mask's points, in its
    # order and dtype; margins at attained values hit the strict > and the
    # row bound with equality, and 7 cuts the pieces inside rows
    if chunk_rows is not None:
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk_rows)
    ticks = np.arange(1, grid + 1) / (grid + 1)
    measure = _dense_measure(grid)
    for margin in [1e-6, 0.1, 0.24, 0.2499, *_attained_margins(grid)]:
        expected = np.flatnonzero(measure > margin)
        got = kernels.beyond_margin(ticks, ticks * np.pi, margin, cli.CHUNK_ROWS)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


# sha256 of a sparse sweep on a finer grid than perfbench's, pinned before the
# selection stopped building the N^3 mask
GOLDEN_SPARSE_GRID160_CSV = "41e3d1ca0f2ba0290fcf6b38e9eeb0f5e53c543e4a0041699abbe5bd0deafc69"


def test_sparse_grid160_sweep_golden_sha256(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--grid", "160", "--margin", "0.24", "--format", "csv", "--out", str(target))
    assert code == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN_SPARSE_GRID160_CSV


@pytest.mark.parametrize("to_file", [True, False])
def test_sweep_out_of_memory_is_a_usage_error(to_file, monkeypatch, tmp_path, capsys):
    # a grid too large to select from: exit 2 with one line, not the
    # certification-failure code with a traceback, and no spool left behind
    def too_large(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

    monkeypatch.setattr(cli.kernels, "beyond_margin", too_large)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # where a stdout spool goes
    out_flags = ["--out", str(tmp_path / "sweep.ndjson")] if to_file else []
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--grid", "1000000", *out_flags])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "qflip: error: not enough memory: Unable to allocate 7.28 TiB for an array with shape (1000000000000,)\n"
    )
    assert list(tmp_path.iterdir()) == []


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
