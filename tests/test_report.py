import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflip import report
from qflip.report import NonFiniteError, ReportRecord, float_text, fmt_float, sweep_block

finite = st.floats(allow_nan=False, allow_infinity=False)
index = st.integers(min_value=0, max_value=10**6)
label = st.sampled_from([None, "Q2Q1:a1>b1>b3>a3>a2>b2", "Q3Q3:a1>b1>b2>a2>a3>b3"])

sweep_row = st.fixed_dictionaries(
    {
        "a": finite, "c": finite, "theta": finite,
        "ia": index, "ic": index, "itheta": index,
        "alpha1": finite, "alpha2": finite, "alpha3": finite,
        "beta1": finite, "beta2": finite, "beta3": finite,
        "A": finite, "B": finite, "Bprime": finite,
        "ordering": label, "max_err": finite,
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
        verdict="Incomparable",
        max_analytic_numeric_error=row["max_err"],
        degeneracy_flag=False,
    )


def _columns(rows) -> dict:
    # the six params arrive as bytes of text, formatted once per grid tick by a sweep
    text = {name: lambda x: fmt_float(x).encode() for name in ("a", "c", "theta")}
    text.update({name: lambda i: str(i).encode() for name in ("ia", "ic", "itheta")})
    columns = {}
    for name in rows[0]:
        values = [text[name](row[name]) if name in text else row[name] for row in rows]
        is_text = name in text or name == "ordering"
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
    assert sweep_block(fmt, _columns(rows)).decode().split("\n") == expected


def test_csv_row_refuses_a_spectrum_longer_than_three():
    # the row has three cells per spectrum: shorter spectra are padded, longer ones refused
    record = ReportRecord(experiment_id="check-pair", lambda_initial=[1.0, 0.0], lambda_final=[0.5, 0.5])
    assert record.to_csv_row() == ",,,,,,1,0,,0.5,0.5,,,,,false"
    with pytest.raises(ValueError, match="at most three"):
        ReportRecord(experiment_id="check-pair", lambda_initial=[0.4, 0.3, 0.2, 0.1]).to_csv_row()


_SWEEP_FLOATS = ("alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3", "A", "B", "Bprime", "max_err")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("field, value", [("max_err", float("nan")), ("A", float("inf"))])
def test_sweep_block_refuses_a_non_finite_float(fmt, field, value):
    # NaN and infinity have no JSON form; the writer names the column it met them in
    row = {name: 0.25 for name in _SWEEP_FLOATS}
    row.update(a=0.5, c=0.5, theta=1.0, ia=0, ic=0, itheta=0, ordering=None)
    row[field] = value
    with pytest.raises(NonFiniteError, match=f"non-finite float {value!r} in column {field}"):
        sweep_block(fmt, _columns([row]))



def _reference(x: np.ndarray) -> list[bytes]:
    return [format(v, ".17g").encode() for v in x.tolist()]


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(finite, st.floats(min_value=-10, max_value=10)), max_size=40))
def test_float_text_is_format_17g(values):
    x = np.array(values, dtype=float)
    assert float_text(x, "x") == _reference(x)


def _ties(rng, size):
    """Doubles whose 17-digit rounding is an exact tie: odd multiples of
    2^-(17-k) in [10^k, 10^(k+1)), k = -8..0, so that |x| * 10^(16-k) ends in
    .5.  Each is some j * 2^-57 (k >= -1) or j * 2^-80."""
    ties = []
    for k in range(-8, 1):
        unit = 2.0 ** (k - 17)
        x = (2 * rng.integers(int(10.0**k / unit) // 2, int(10.0 ** (k + 1) / unit) // 2, size) + 1) * unit
        ties.append(x[(x >= 10.0**k) & (x < 10.0 ** (k + 1))])
    return np.concatenate(ties)


def _bulk_sets(rng, n):
    """Seeded sets of doubles, by class, for :func:`float_text` against ``format``."""
    signs = rng.choice([-1.0, 1.0], n)
    powers = 10.0 ** np.arange(-30, 3)
    edges = np.array([1e-28, 1.0, 10.0, 0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308])
    ties = _ties(rng, n // 40)
    return {
        "uniform": rng.random(n) * signs,
        "log-uniform": np.exp(rng.uniform(np.log(1e-30), np.log(1e18), n)) * signs,
        "bit patterns": rng.integers(0, 2**64, n // 4, dtype=np.uint64).view(np.float64),
        "powers of ten": np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, 1)]),
        "edges": np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf), [np.finfo(float).max]]),
        "k 2^-57": rng.integers(1, 2**57, n // 2) * 2.0**-57,
        "k 2^-80": rng.integers(1, 2**62, n // 2) * 2.0**-80,
        "ties": np.concatenate([ties, -ties]),
        "next to ties": np.concatenate([np.nextafter(ties, 0), np.nextafter(ties, 1)]),
    }


def test_float_text_matches_format_on_seeded_bulk_sets(monkeypatch):
    # about two million doubles; every finite one must read exactly as format(x, '.17g')
    fallback = []
    monkeypatch.setattr(report, "fmt_float", lambda x: fallback.append(x) or fmt_float(x))
    for name, x in _bulk_sets(np.random.default_rng(20240817), 500_000).items():
        x = x[np.isfinite(x)]
        fallback.clear()
        assert float_text(x, name) == _reference(x), name
        in_range = x[(np.abs(x) >= 1e-28) & (np.abs(x) < 10)]
        if name == "ties":  # no double rounding: every tie goes to format itself
            assert sorted(fallback) == sorted(x.tolist())
        elif name in ("uniform", "log-uniform", "k 2^-57", "k 2^-80", "next to ties"):
            # the numpy route takes all but a handful of the values in its range
            assert len(fallback) - (x.size - in_range.size) <= 5, name
