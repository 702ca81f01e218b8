"""Dataset ingestion, pattern classification, and summary checks."""

import io

import numpy as np
import pytest

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
from cacegibbs.distributions import RngStream
from cacegibbs.errors import EmptyArmError, ParseError, ValidationError
from cacegibbs.simulation import ORAL_SURGERY_MARGINS, generate_matched_fixture


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
