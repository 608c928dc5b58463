import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflip.report import ReportRecord, fmt_float, sweep_block

finite = st.floats(allow_nan=False, allow_infinity=False)
index = st.integers(min_value=0, max_value=10**6)
label = st.sampled_from([None, "Q2Q1:a1>b1>b3>a3>a2>b2", "Q3Q3:a1>b1>b2>a2>a3>b3"])
verdict = st.sampled_from(["Incomparable", "ForwardCertain"])

sweep_row = st.fixed_dictionaries(
    {
        "a": finite, "c": finite, "theta": finite,
        "ia": index, "ic": index, "itheta": index,
        "alpha1": finite, "alpha2": finite, "alpha3": finite,
        "beta1": finite, "beta2": finite, "beta3": finite,
        "A": finite, "B": finite, "Bprime": finite,
        "ordering": label, "verdict": verdict, "max_err": finite,
    }
)


def _record(row) -> ReportRecord:
    return ReportRecord(
        experiment_id="sweep",
        params={k: row[k] for k in ("a", "c", "theta", "ia", "ic", "itheta")},
        lambda_initial=[row["alpha1"], row["alpha2"], row["alpha3"]],
        lambda_final=[row["beta1"], row["beta2"], row["beta3"]],
        A=row["A"],
        B=row["B"],
        Bprime=row["Bprime"],
        ordering=row["ordering"],
        verdict=row["verdict"],
        max_analytic_numeric_error=row["max_err"],
        degeneracy_flag=False,
    )


def _columns(rows) -> dict:
    # the six params arrive as text, formatted once per grid tick by a sweep
    text = {"a": fmt_float, "c": fmt_float, "theta": fmt_float, "ia": str, "ic": str, "itheta": str}
    columns = {}
    for name in rows[0]:
        values = [text[name](row[name]) if name in text else row[name] for row in rows]
        is_text = name in text or isinstance(values[0], str) or name == "ordering"
        columns[name] = np.array(values, dtype=object if is_text else None)
    return columns


@pytest.mark.parametrize("fmt", ["json", "csv"])
@settings(max_examples=60, deadline=None)
@given(rows=st.lists(sweep_row, min_size=1, max_size=5))
def test_sweep_template_rows_match_report_record(fmt, rows):
    # the streamed templates and ReportRecord are two serializers of one format
    expected = [
        _record(row).to_csv_row() if fmt == "csv" else _record(row).to_json_line() for row in rows
    ]
    assert sweep_block(fmt, _columns(rows)).split("\n") == expected


def test_csv_row_refuses_a_spectrum_longer_than_three():
    # the row has three cells per spectrum: shorter spectra are padded, longer ones refused
    record = ReportRecord(experiment_id="check-pair", lambda_initial=[1.0, 0.0], lambda_final=[0.5, 0.5])
    assert record.to_csv_row() == ",,,,,,1,0,,0.5,0.5,,,,,false"
    with pytest.raises(ValueError, match="at most three"):
        ReportRecord(experiment_id="check-pair", lambda_initial=[0.4, 0.3, 0.2, 0.1]).to_csv_row()
