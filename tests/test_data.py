"""Dataset ingestion, pattern classification, and summary checks."""

import csv
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cacegibbs.data import (
    CSV_HEADER,
    Dataset,
    ObservedPattern,
    PatientRecord,
    classify_observed_pattern,
    ingest_dataset,
    summarize_dataset,
    write_dataset_csv,
)
from cacegibbs.cli import EXIT_INPUT, main
from cacegibbs.distributions import RngStream
from cacegibbs.errors import EmptyArmError, ParseError, ValidationError
from cacegibbs.simulation import (
    ORAL_SURGERY_MARGINS,
    DgpConfig,
    generate_dataset,
    generate_matched_fixture,
)


def test_pattern_classification_all_cells():
    assert classify_observed_pattern(0, 0) is ObservedPattern.MIXTURE_CONTROL_ARM
    assert classify_observed_pattern(0, 1) is ObservedPattern.KNOWN_ALWAYS_TAKER
    assert classify_observed_pattern(1, 0) is ObservedPattern.KNOWN_NEVER_TAKER
    assert classify_observed_pattern(1, 1) is ObservedPattern.MIXTURE_TREATED_ARM
    with pytest.raises(ValidationError):
        classify_observed_pattern(2, 0)


def _records():
    return [
        PatientRecord("p1", 0, 0, 10.5, 12.0),
        PatientRecord("p2", 0, 1, None, 14.0),
        PatientRecord("p3", 1, 0, 9.25, 11.0),
        PatientRecord("p4", 1, 1, 13.0, 15.0),
        PatientRecord("p5", 1, 1, None, 16.0),
    ]


def test_dataset_columns_and_counts():
    ds = Dataset(_records())
    assert ds.n == 5
    assert np.array_equal(ds.z, [0, 0, 1, 1, 1])
    assert np.array_equal(ds.d_obs, [0, 1, 0, 1, 1])
    assert np.array_equal(ds.y_missing, [False, True, False, False, True])
    summary = summarize_dataset(ds)
    assert summary[ObservedPattern.MIXTURE_TREATED_ARM].n == 2
    assert summary[ObservedPattern.KNOWN_ALWAYS_TAKER].n == 1
    assert summary[ObservedPattern.MIXTURE_TREATED_ARM].n_missing_y == 1
    assert summary[ObservedPattern.KNOWN_ALWAYS_TAKER].n_missing_y == 1
    assert sum(s.n_missing_y for s in summary.values()) == 2
    with pytest.raises(ValueError):
        ds.z[0] = 9  # columns are read-only


def test_dataset_requires_both_arms():
    with pytest.raises(EmptyArmError):
        Dataset([PatientRecord("a", 0, 0, 1.0, 2.0)])
    with pytest.raises(EmptyArmError):
        Dataset([])


def test_ingest_round_trip(tmp_path):
    ds = Dataset(_records())
    path = tmp_path / "trial.csv"
    write_dataset_csv(ds, path)
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    # missing outcomes serialize to an empty field
    assert ",,14" in text
    back = ingest_dataset(path)
    assert back.n == ds.n
    assert np.array_equal(back.z, ds.z)
    assert np.array_equal(back.d_obs, ds.d_obs)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y_missing, ds.y_missing)
    obs = ~ds.y_missing
    assert np.array_equal(back.y[obs], ds.y[obs])


def test_round_trip_preserves_float_precision(tmp_path):
    val = 1.0 + 2**-45
    ds = Dataset(
        [
            PatientRecord("a", 0, 0, val, np.pi),
            PatientRecord("b", 1, 1, -val, np.e),
        ]
    )
    path = tmp_path / "precise.csv"
    write_dataset_csv(ds, path)
    back = ingest_dataset(path)
    assert back.y[0] == val
    assert back.x[0] == np.pi


def test_ingest_bad_header():
    with pytest.raises(ValidationError, match="header"):
        ingest_dataset(io.StringIO("id,z,treat,y_obs,x\na,0,0,1,2\n"))


def test_ingest_reports_row_numbers():
    good = "id,z,d_obs,y_obs,x\n"
    with pytest.raises(ParseError, match="row 2"):
        ingest_dataset(io.StringIO(good + "a,0,0,1.0,2.0\nb,1,7,1.0,2.0\n"))
    with pytest.raises(ParseError, match="row 1"):
        ingest_dataset(io.StringIO(good + "a,0,0,oops,2.0\n"))
    with pytest.raises(ParseError, match="row 1"):
        ingest_dataset(io.StringIO(good + "a,0,0,1.0\n"))  # short row


def test_ingest_missing_covariate_is_an_error():
    src = "id,z,d_obs,y_obs,x\na,0,0,1.0,\nb,1,1,2.0,3.0\n"
    with pytest.raises(ParseError, match="x is required"):
        ingest_dataset(io.StringIO(src))


def test_ingest_missing_outcome_is_allowed():
    src = "id,z,d_obs,y_obs,x\na,0,0,,2.0\nb,1,1,2.0,3.0\n"
    ds = ingest_dataset(io.StringIO(src))
    assert ds.y_missing[0] and not ds.y_missing[1]


def test_ingest_rejects_nonfinite_values():
    good = "id,z,d_obs,y_obs,x\n"
    with pytest.raises(ParseError, match="finite"):
        ingest_dataset(io.StringIO(good + "a,0,0,inf,2.0\nb,1,1,2.0,3.0\n"))
    with pytest.raises(ParseError, match="finite"):
        ingest_dataset(io.StringIO(good + "a,0,0,1.0,nan\nb,1,1,2.0,3.0\n"))


def test_ingest_empty_inputs():
    with pytest.raises(EmptyArmError):
        ingest_dataset(io.StringIO(""))
    with pytest.raises(EmptyArmError):
        ingest_dataset(io.StringIO("id,z,d_obs,y_obs,x\n"))


def test_summaries_match_direct_computation():
    ds = Dataset(_records())
    summ = summarize_dataset(ds)
    mt = summ[ObservedPattern.MIXTURE_TREATED_ARM]
    assert mt.n == 2
    assert mt.n_missing_y == 1
    assert mt.x_mean == pytest.approx(15.5)
    assert mt.x_sd == pytest.approx(np.std([15.0, 16.0], ddof=1))
    assert mt.y_mean == pytest.approx(13.0)
    assert mt.y_sd is None  # only one observed outcome
    at = summ[ObservedPattern.KNOWN_ALWAYS_TAKER]
    assert at.n == 1 and at.n_missing_y == 1
    assert at.y_mean is None and at.x_sd is None


def test_summaries_permutation_invariant():
    rng = RngStream(seed=21).generator()
    recs = _records()
    base = summarize_dataset(Dataset(recs))
    for _ in range(5):
        perm = [recs[i] for i in rng.permutation(len(recs))]
        assert summarize_dataset(Dataset(perm)) == base


def test_matched_fixture_hits_margins_exactly():
    ds = generate_matched_fixture(RngStream(seed=17))
    assert ds.n == 142
    summ = summarize_dataset(ds)
    for gm in ORAL_SURGERY_MARGINS:
        got = summ[gm.pattern]
        assert got.n == gm.n
        assert got.n_missing_y == gm.n_missing_y
        assert got.x_mean == pytest.approx(gm.x_mean, abs=1e-9)
        assert got.x_sd == pytest.approx(gm.x_sd, abs=1e-9)
        assert got.y_mean == pytest.approx(gm.y_mean, abs=1e-9)
        assert got.y_sd == pytest.approx(gm.y_sd, abs=1e-9)


def test_matched_fixture_differs_by_seed_but_not_in_margins():
    a = generate_matched_fixture(RngStream(seed=1))
    b = generate_matched_fixture(RngStream(seed=2))
    assert not np.array_equal(a.x, b.x)
    assert summarize_dataset(a)[
        ObservedPattern.MIXTURE_CONTROL_ARM
    ].x_mean == pytest.approx(
        summarize_dataset(b)[ObservedPattern.MIXTURE_CONTROL_ARM].x_mean
    )


def _sha256_of_csv(dataset, tmp_path):
    path = tmp_path / "data.csv"
    write_dataset_csv(dataset, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_generated_data_is_pinned(tmp_path):
    """Monte Carlo replicates are reproduced from their seeds alone, so the
    generators must keep drawing the same data, byte for byte."""
    dataset, _ = generate_dataset(DgpConfig(n=300, corr_xy=0.6), RngStream(5))
    assert _sha256_of_csv(dataset, tmp_path) == (
        "0527207ee9a05e96d0ad1a500b3cfdbfab072165c84c26384eb7f53542421f51"
    )
    assert _sha256_of_csv(generate_matched_fixture(RngStream(0)), tmp_path) == (
        "6a9492b5b4c1b60856274c28c866e702fa6c201fbc29772d8d610940a66dab30"
    )


def test_records_are_built_from_the_columns():
    ds = Dataset(_records())
    assert ds.records == tuple(_records())
    (rec,) = ds.records[1:2]
    assert type(rec.id) is str and type(rec.z) is int and type(rec.d_obs) is int
    assert rec.y_obs is None and type(rec.x) is float
    assert type(ds.records[0].y_obs) is float
    assert [r.pattern.value for r in ds.records] == ds.pattern.tolist()
    assert np.array_equal(ds.pattern, 2 * ds.z + ds.d_obs)
    assert ds.ids.tolist() == ["p1", "p2", "p3", "p4", "p5"]
    with pytest.raises(ValueError):
        ds.ids[0] = "q"  # columns are read-only


def test_from_columns_checks_its_columns():
    cols = (["a", "b"], [0, 1], [0, 1], [1.0, np.nan], [2.0, 3.0])
    ds = Dataset.from_columns(*cols)
    assert ds.n == len(ds) == 2 and ds.y_missing.tolist() == [False, True]
    with pytest.raises(ValidationError, match=r"got \(1, 2\)"):
        Dataset.from_columns(["a", "b"], [0, 1], [0, 2], [1.0, 1.0], [2.0, 3.0])
    with pytest.raises(ValidationError, match="one length"):
        Dataset.from_columns(["a", "b"], [0, 1], [0, 1], [1.0], [2.0, 3.0])
    with pytest.raises(EmptyArmError, match="arms"):
        Dataset.from_columns(["a", "b"], [1, 1], [0, 1], [1.0, 1.0], [2.0, 3.0])
    with pytest.raises(EmptyArmError, match="no records"):
        Dataset.from_columns([], [], [], [], [])


def test_ingest_raises_a_broken_line_after_the_rows_before_it():
    src = "id,z,d_obs,y_obs,x\na,0,0,1,2.0\nb,0,0,1\r2,2.0\nok,1,1,2.0,3.0\n"
    with pytest.raises(csv.Error, match="new-line character"):
        ingest_dataset(io.StringIO(src))


def test_ingest_accepts_an_iterable_of_lines():
    lines = ["id,z,d_obs,y_obs,x\n", "a,0,0,,2.0\n", "b,1,1,2.5,3.0\n"]
    ds = ingest_dataset(lines)
    assert ds.ids.tolist() == ["a", "b"]
    assert ds.y_missing.tolist() == [True, False]


def test_ingest_skips_blank_rows_and_keeps_whitespace():
    src = (
        "id,z,d_obs,y_obs,x\n"
        "\n  \n,,,,\n , ,\t, , \n"
        " ,0,0, ,2.0\n"  # a whitespace id is an id; a whitespace outcome is missing
        "b,1,1, 2.5 ,3.0\n"
    )
    ds = ingest_dataset(io.StringIO(src))
    assert ds.ids.tolist() == [" ", "b"]
    assert ds.y_missing.tolist() == [True, False]
    assert ds.y[1] == 2.5


_H = "id,z,d_obs,y_obs,x\n"
_OK = "ok,1,1,2.0,3.0\n"

# (case, CSV text, error type, message); the messages are those of the
# row-by-row ingest that preceded the columnar one
MALFORMED = [
    ("empty file", "", EmptyArmError, "dataset file is empty"),
    ("bad header", "id,z,treat,y_obs,x\na,0,0,1,2\n", ValidationError,
     "expected header id,z,d_obs,y_obs,x, got id,z,treat,y_obs,x"),
    ("extra header field", "id,z,d_obs,y_obs,x,w\na,0,0,1,2,3\n", ValidationError,
     "expected header id,z,d_obs,y_obs,x, got id,z,d_obs,y_obs,x,w"),
    ("header only", _H, EmptyArmError, "dataset has no data rows"),
    ("blank rows only", _H + "\n   \n,,,,\n , , ,\t, \n", EmptyArmError,
     "dataset has no data rows"),
    ("missing id", _H + ",0,0,1.0,2.0\n" + _OK, ParseError, "row 1: missing id"),
    ("z not an integer", _H + "a,x,0,1.0,2.0\n" + _OK, ParseError,
     "row 1: z and d_obs must be integers"),
    ("z a float", _H + "a,0.0,0,1.0,2.0\n" + _OK, ParseError,
     "row 1: z and d_obs must be integers"),
    ("d blank", _H + "a,0,,1.0,2.0\n" + _OK, ParseError,
     "row 1: z and d_obs must be integers"),
    ("z out of range", _H + "a,2,0,1.0,2.0\n" + _OK, ParseError,
     "row 1: z and d_obs must be 0 or 1, got (2, 0)"),
    ("d negative", _H + "a,0,-1,1.0,2.0\n" + _OK, ParseError,
     "row 1: z and d_obs must be 0 or 1, got (0, -1)"),
    ("z past int8", _H + "a,300,0,1.0,2.0\n" + _OK, ParseError,
     "row 1: z and d_obs must be 0 or 1, got (300, 0)"),
    ("z past int64", _H + "a,99999999999999999999,0,1.0,2.0\n" + _OK, ParseError,
     "row 1: z and d_obs must be 0 or 1, got (99999999999999999999, 0)"),
    ("y not a number", _H + "a,0,0,oops,2.0\n" + _OK, ParseError,
     "row 1: y_obs is not a number: 'oops'"),
    ("y infinite", _H + "a,0,0,inf,2.0\n" + _OK, ParseError,
     "row 1: y_obs must be finite, got 'inf'"),
    ("y nan", _H + "a,0,0,nan,2.0\n" + _OK, ParseError,
     "row 1: y_obs must be finite, got 'nan'"),
    ("y overflows", _H + "a,0,0,1e400,2.0\n" + _OK, ParseError,
     "row 1: y_obs must be finite, got '1e400'"),
    ("x blank", _H + "a,0,0,1.0,\n" + _OK, ParseError,
     "row 1: x is required for every record"),
    ("x whitespace", _H + "a,0,0,1.0,  \n" + _OK, ParseError,
     "row 1: x is required for every record"),
    ("x not a number", _H + "a,0,0,1.0,abc\n" + _OK, ParseError,
     "row 1: x is not a number: 'abc'"),
    ("x infinite", _H + "a,0,0,1.0,-inf\n" + _OK, ParseError,
     "row 1: x must be finite, got '-inf'"),
    ("x nan", _H + "a,0,0,1.0,NaN\n" + _OK, ParseError,
     "row 1: x must be finite, got 'NaN'"),
    ("short row", _H + "a,0,0,1.0\n" + _OK, ParseError,
     "row 1: expected 5 fields, got 4"),
    ("long row", _H + "a,0,0,1.0,2.0,3\n" + _OK, ParseError,
     "row 1: expected 5 fields, got 6"),
    ("one field", _H + "a\n" + _OK, ParseError, "row 1: expected 5 fields, got 1"),
    ("blank rows count", _H + "\n  \n,,,,\nb,0,7,1.0,2.0\n" + _OK, ParseError,
     "row 4: z and d_obs must be 0 or 1, got (0, 7)"),
    ("bad value, then short row", _H + "a,0,0,oops,2.0\nb,0,0\n" + _OK, ParseError,
     "row 1: y_obs is not a number: 'oops'"),
    ("short row, then bad value", _H + "a,0,0\nb,0,0,oops,2.0\n" + _OK, ParseError,
     "row 1: expected 5 fields, got 3"),
    ("bad x, then bad z", _H + _OK + "a,0,0,1.0,zz\nb,5,0,1.0,2.0\n", ParseError,
     "row 2: x is not a number: 'zz'"),
    ("bad d, then missing id", _H + _OK + "a,0,3,1.0,2.0\n,0,0,1.0,2.0\n", ParseError,
     "row 2: z and d_obs must be 0 or 1, got (0, 3)"),
    ("bad value, then broken line", _H + "a,0,0,oops,2.0\nb,0,0,1\r2,2.0\n" + _OK,
     ParseError, "row 1: y_obs is not a number: 'oops'"),
    ("good rows, then short row", _H + "a,0,0,1.0,2.0\n" + _OK + "c,1\n", ParseError,
     "row 3: expected 5 fields, got 2"),
    ("control arm only", _H + "a,0,0,1.0,2.0\nb,0,1,,3.0\n", EmptyArmError,
     "both randomization arms must be nonempty"),
    ("treated arm only", _H + "a,1,0,1.0,2.0\nb,1,1,,3.0\n", EmptyArmError,
     "both randomization arms must be nonempty"),
]


@pytest.mark.parametrize(
    "text, error, message", [case[1:] for case in MALFORMED], ids=[c[0] for c in MALFORMED]
)
def test_malformed_input_is_reported_exactly(text, error, message, tmp_path, capsys):
    with pytest.raises(error) as info:
        ingest_dataset(io.StringIO(text))
    assert type(info.value) is error
    assert str(info.value) == message
    if error is ParseError:
        assert info.value.row == int(message.split(":")[0].split()[1])
    path = tmp_path / "bad.csv"
    path.write_text(text)
    code = main(["fit", "--dataset", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_INPUT
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": error.__name__, "message": message}


_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, 1.0 + 2**-52]
)
_ids = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8)


@st.composite
def _datasets(draw):
    n = draw(st.integers(2, 25))
    z = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    z[0], z[1] = 0, 1
    return Dataset(
        PatientRecord(ident, zi, d, y, x)
        for ident, zi, d, y, x in zip(
            draw(st.lists(_ids, min_size=n, max_size=n)),
            z,
            draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
            draw(st.lists(st.none() | _finite, min_size=n, max_size=n)),
            draw(st.lists(_finite, min_size=n, max_size=n)),
        )
    )


def _assert_same_columns(a, b):
    assert a.ids.tolist() == b.ids.tolist()
    for name in ("z", "d_obs", "pattern", "y_missing"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("y", "x"):  # bitwise, NaN and signed zeros included
        assert np.array_equal(getattr(a, name).view(np.int64), getattr(b, name).view(np.int64))


@settings(max_examples=60, deadline=None)
@given(
    ds=_datasets(),
    blanks=st.lists(
        st.tuples(st.integers(0, 30), st.sampled_from(["", "  ", "\t", ",,,,", " , ,\t, , ", ","])),
        max_size=4,
    ),
)
def test_csv_round_trip_is_exact(ds, blanks, tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "data.csv"
    write_dataset_csv(ds, path)
    back = ingest_dataset(path)
    _assert_same_columns(back, ds)
    # blank rows anywhere between the data rows change nothing
    with open(path, newline="") as handle:
        lines = handle.readlines()
    reader = csv.reader(lines)
    ends = [reader.line_num for _ in reader]  # first line after each row
    for at, blank in sorted(blanks, reverse=True):
        lines.insert(ends[min(at, len(ends) - 1)], blank + "\r\n")
    _assert_same_columns(ingest_dataset(lines), ds)


@settings(max_examples=60, deadline=None)
@given(ds=_datasets())
def test_records_and_columns_build_the_same_dataset(ds):
    _assert_same_columns(Dataset(ds.records), ds)
    _assert_same_columns(Dataset.from_columns(ds.ids, ds.z, ds.d_obs, ds.y, ds.x), ds)
