"""Each output check passes on real program output and rejects a corrupted copy.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import copy
import csv
import io
import json

import numpy as np
import pytest

import cacegibbs
import cacegibbs.cli

import checks
from workloads import DIAGNOSE_FILES, dataset_csv

SCHEDULE = {"burn_in": 20, "kept": 40, "thin": 2, "n_chains": 2}
VARIANTS = ("A", "Astar", "B", "D")


def run_cli(*argv):
    assert cacegibbs.cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def fixture_fits(tmp_path_factory):
    """Fits and diagnoses of four variants on the trial fixture."""
    root = tmp_path_factory.mktemp("fits")
    data_path = root / "fixture.csv"
    dataset_csv(
        cacegibbs.generate_matched_fixture(cacegibbs.RngStream(seed=3).generator()),
        data_path,
    )
    (root / "model.json").write_text(json.dumps(SCHEDULE))
    out = {}
    for v in VARIANTS:
        fit_dir = root / v
        run_cli("fit", "--dataset", data_path, "--config", root / "model.json",
                "--out", fit_dir, "--variant", v, "--seed", 5)
        run_cli("diagnose", "--dataset", data_path, "--draws", fit_dir,
                "--out", fit_dir / "diagnose")
        out[v] = {
            "draws": (fit_dir / "draws.csv").read_text(),
            "summary": (fit_dir / "summary.json").read_text(),
            "diagnose": {n: (fit_dir / "diagnose" / n).read_text() for n in DIAGNOSE_FILES},
        }
    data = checks.parse_dataset(data_path.read_text())
    return data, out


def edit_csv(text, edit):
    """Apply ``edit(rows)`` to the data rows of a CSV text."""
    header, rows = checks.read_rows(text)
    edit(header, rows)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def set_column(name, value, row=0):
    def edit(header, rows):
        rows[row][header.index(name)] = str(value)
    return edit


def fit_check(fits, variant, draws=None, summary=None):
    data, out = fits
    checks.check_fit(
        draws or out[variant]["draws"],
        summary or out[variant]["summary"],
        data,
        variant,
        SCHEDULE["n_chains"],
        SCHEDULE["kept"],
        SCHEDULE["thin"],
    )


@pytest.mark.parametrize("variant", VARIANTS)
def test_real_fits_pass(fixture_fits, variant):
    fit_check(fixture_fits, variant)
    checks.check_diagnose(fixture_fits[1][variant]["diagnose"], fixture_fits[0])


def test_missing_draw_row_is_rejected(fixture_fits):
    draws = edit_csv(fixture_fits[1]["A"]["draws"], lambda h, rows: rows.pop(3))
    with pytest.raises(checks.CheckError, match="draws"):
        fit_check(fixture_fits, "A", draws=draws)


def test_wrong_iteration_is_rejected(fixture_fits):
    draws = edit_csv(fixture_fits[1]["A"]["draws"], set_column("iteration", 3, row=1))
    with pytest.raises(checks.CheckError, match="iterations"):
        fit_check(fixture_fits, "A", draws=draws)


def test_b_draw_with_nonzero_slope_is_rejected(fixture_fits):
    draws = edit_csv(fixture_fits[1]["B"]["draws"], set_column("y_c1_slope", 0.25))
    with pytest.raises(checks.CheckError, match="nonzero outcome slope"):
        checks.check_model_properties(checks.DrawsTable(draws), "B")


def test_unshared_astar_slope_is_rejected(fixture_fits):
    draws = edit_csv(fixture_fits[1]["Astar"]["draws"], set_column("y_a_slope", 9.0))
    with pytest.raises(checks.CheckError, match="differ across groups"):
        checks.check_model_properties(checks.DrawsTable(draws), "Astar")


def test_d_proportions_off_the_simplex_are_rejected(fixture_fits):
    draws = edit_csv(fixture_fits[1]["D"]["draws"], set_column("prop_never", 0.99))
    with pytest.raises(checks.CheckError, match="sum to 1"):
        checks.check_model_properties(checks.DrawsTable(draws), "D")


def test_nonpositive_sigma2_is_rejected(fixture_fits):
    draws = edit_csv(fixture_fits[1]["A"]["draws"], set_column("sigma2", 0.0))
    with pytest.raises(checks.CheckError, match="sigma2"):
        checks.check_model_properties(checks.DrawsTable(draws), "A")


def test_complier_count_beyond_mixtures_is_rejected(fixture_fits):
    data, out = fixture_fits
    too_many = sum(checks.mixture_sizes(data)) + 1
    draws = edit_csv(out["A"]["draws"], set_column("n_c", too_many))
    with pytest.raises(checks.CheckError, match="n_c outside"):
        checks.check_complier_counts(checks.DrawsTable(draws), too_many - 1)


@pytest.mark.parametrize("key", ["mean", "q2.5", "q97.5"])
def test_summary_shifted_by_one_sd_is_rejected(fixture_fits, key):
    summary = json.loads(fixture_fits[1]["A"]["summary"])
    summary["cace"][key] += summary["cace"]["sd"]
    with pytest.raises(checks.CheckError, match=f"summary cace {key}"):
        fit_check(fixture_fits, "A", summary=json.dumps(summary))


def test_d_far_from_wald_is_rejected(fixture_fits):
    data, out = fixture_fits
    summary = json.loads(out["D"]["summary"])
    checks.check_against_wald(summary, data)
    summary["cace"]["mean"] = checks.wald_estimate(data) + summary["cace"]["sd"]
    with pytest.raises(checks.CheckError, match="Wald"):
        checks.check_against_wald(summary, data)


def test_truth_check_rejects_a_shifted_cace_and_a_lost_slope():
    params = {s: {"mean": 1.4, "sd": 0.05} for s in checks.SLOPES}
    params.update({p: {"mean": 0.3, "sd": 0.005}
                   for p in ("never_probit_slope", "always_probit_slope")})
    summary = {"cace": {"mean": 5.1, "sd": 0.25}, "parameters": params}
    checks.check_against_truth(summary, 5.0, 1.4, 0.3)
    shifted = copy.deepcopy(summary)
    shifted["cace"]["mean"] = 5.0 + 5 * 0.25
    with pytest.raises(checks.CheckError, match="realized"):
        checks.check_against_truth(shifted, 5.0, 1.4, 0.3)
    flat = copy.deepcopy(summary)
    flat["parameters"]["y_c0_slope"]["mean"] = 0.0
    with pytest.raises(checks.CheckError, match="y_c0_slope"):
        checks.check_against_truth(flat, 5.0, 1.4, 0.3)


def test_histogram_count_off_by_one_is_rejected(fixture_fits):
    data, out = fixture_fits
    files = dict(out["A"]["diagnose"])
    files["shaded_hist_z1.csv"] = edit_csv(
        files["shaded_hist_z1.csv"],
        lambda h, rows: rows[0].__setitem__(2, str(int(rows[0][2]) + 1)),
    )
    with pytest.raises(checks.CheckError, match="histogram counts"):
        checks.check_diagnose(files, data)


def halve_mean_at_widest_lo(header, rows):
    row = max(rows, key=lambda r: float(r[2]))
    row[1] = str(float(row[2]) / 2)


def test_grid_mean_outside_its_band_is_rejected(fixture_fits):
    data, out = fixture_fits
    files = dict(out["A"]["diagnose"])
    files["complier_grid_z0.csv"] = edit_csv(files["complier_grid_z0.csv"], halve_mean_at_widest_lo)
    with pytest.raises(checks.CheckError, match="impossible for band"):
        checks.check_diagnose(files, data)


def test_grid_band_upside_down_is_rejected(fixture_fits):
    data, out = fixture_fits
    files = dict(out["A"]["diagnose"])
    files["complier_grid_z1.csv"] = edit_csv(
        files["complier_grid_z1.csv"],
        lambda h, rows: rows[3].__setitem__(3, str(float(rows[3][2]) - 0.01)),
    )
    with pytest.raises(checks.CheckError, match="lo <= hi"):
        checks.check_diagnose(files, data)


def cells(b_high=-8.0, a_high=0.5, b_low=-0.7, failed=0):
    values = {(0.6, "B"): b_high, (0.6, "A"): a_high, (0.0, "B"): b_low, (0.0, "A"): 0.2}
    return {k: {"mean_cace": v, "reps": 3, "failed": failed} for k, v in values.items()}


def test_bias_pattern_and_completeness():
    grid = list(cells())
    checks.check_cells_complete(cells(), grid, 3)
    checks.check_bias_pattern(cells())
    with pytest.raises(checks.CheckError, match="failed"):
        checks.check_cells_complete(cells(failed=1), grid, 3)
    with pytest.raises(checks.CheckError, match="does not exceed"):
        checks.check_bias_pattern(cells(a_high=-9.0))
    with pytest.raises(checks.CheckError, match="does not exceed"):
        checks.check_bias_pattern(cells(b_low=8.5))


def test_replicate_refit_with_neighbouring_seed_is_rejected(tmp_path):
    mc = {"reps": 1, "corr_grid": [0.6], "variants": ["A"], "master_seed": 4,
          "dgp": {"n": 80}, "fit": SCHEDULE}
    (tmp_path / "mc.json").write_text(json.dumps(mc))
    run_cli("simulate", "--config", tmp_path / "mc.json", "--out", tmp_path / "sim")
    (row,) = checks.parse_mc_replicates((tmp_path / "sim" / "mc_replicates.csv").read_text())
    dataset, _ = cacegibbs.generate_dataset(
        cacegibbs.DgpConfig(n=80, corr_xy=0.6),
        cacegibbs.RngStream(seed=row["dataset_seed"]).generator(),
    )
    dataset_csv(dataset, tmp_path / "rep.csv")
    (tmp_path / "model.json").write_text(json.dumps(SCHEDULE))
    summaries = {}
    for seed in (row["fit_seed"], row["fit_seed"] + 1):
        run_cli("fit", "--dataset", tmp_path / "rep.csv", "--config", tmp_path / "model.json",
                "--variant", "A", "--seed", seed, "--out", tmp_path / str(seed))
        summaries[seed] = json.loads((tmp_path / str(seed) / "summary.json").read_text())
    checks.check_replicate_refit(row["post_mean"], summaries[row["fit_seed"]])
    with pytest.raises(checks.CheckError, match="re-fitted"):
        checks.check_replicate_refit(row["post_mean"], summaries[row["fit_seed"] + 1])


def test_replicate_far_from_truth_is_rejected():
    checks.check_replicate_near_truth({"post_mean": 5.2, "realized_cace": 4.9})
    with pytest.raises(checks.CheckError, match="realized"):
        checks.check_replicate_near_truth({"post_mean": 7.0, "realized_cace": 4.9})


def test_changed_rerun_output_is_rejected():
    checks.check_same_digests({"a": "1", "b": "2"}, {"a": "1", "b": "2"}, "rerun")
    with pytest.raises(checks.CheckError, match="b changed"):
        checks.check_same_digests({"a": "1", "b": "2"}, {"a": "1", "b": "3"}, "rerun")


def test_bulk_ess_tracks_autocorrelation():
    rng = np.random.default_rng(0)
    iid = rng.standard_normal((4, 1000))
    assert 3200 < checks.bulk_ess(iid) < 4800
    rho = 0.9
    ar = np.zeros((4, 1000))
    for t in range(1, 1000):
        ar[:, t] = rho * ar[:, t - 1] + rng.standard_normal(4)
    expected = 4000 * (1 - rho) / (1 + rho)
    assert 0.6 * expected < checks.bulk_ess(ar) < 1.5 * expected


def test_missing_hook_and_failing_counter_are_recorded(monkeypatch):
    import cacegibbs.engine
    from spans import HOOKS, Tracer

    monkeypatch.delattr(cacegibbs.engine, "compute_cace")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["engine.compute_cace"]
    assert not hasattr(cacegibbs.engine.gibbs_iteration, "__wrapped__")

    # gibbs_iteration's counter reads the patient count of its first argument
    count_sweep = next(c for _, attr, c in HOOKS if attr == "gibbs_iteration")
    traced = tracer._wrapper("engine.gibbs_iteration", lambda *args: None, count_sweep)
    traced(object())
    assert "AttributeError" in tracer.counter_errors["engine.gibbs_iteration"]


def test_layer_that_reads_zero_is_reported_unless_idle():
    from spans import unread_layers

    metrics = {
        "strata.latent_utilities_us": 0.0,
        "strata.mlogit_update_us": 0.0,
        "strata.proportions_update_us": 0.0,
        "distributions.clamped_entries": 0.0,
        "engine.sweep_us.A": 10.0,
        "engine.sweep_us.D": 0.0,
    }
    assert unread_layers(metrics, ("A",)) == ["strata.latent_utilities_us"]
    assert unread_layers(metrics, ("A", "D")) == [
        "strata.latent_utilities_us",
        "strata.proportions_update_us",
        "engine.sweep_us.D",
    ]
