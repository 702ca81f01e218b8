"""End-to-end command-line checks: fit, diagnose, simulate, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cacegibbs.cli import main
from cacegibbs.data import Dataset, PatientRecord, write_dataset_csv
from cacegibbs.distributions import RngStream, derive_seed
from cacegibbs.runio import file_digest
from cacegibbs.simulation import DgpConfig, generate_dataset

FIT_CONFIG = {
    "variant": "D",
    "burn_in": 100,
    "kept": 150,
    "thin": 5,
    "n_chains": 2,
    "seed": 7,
}


@pytest.fixture()
def dataset_csv(tmp_path):
    ds, _ = generate_dataset(DgpConfig(n=50), RngStream(seed=91))
    path = tmp_path / "trial.csv"
    write_dataset_csv(ds, path)
    return path


@pytest.fixture()
def config_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FIT_CONFIG))
    return path


def _fit(dataset_csv, config_json, out, extra=()):
    return main(
        [
            "fit",
            "--dataset", str(dataset_csv),
            "--config", str(config_json),
            "--out", str(out),
            *extra,
        ]
    )


def test_fit_writes_verified_outputs(dataset_csv, config_json, tmp_path):
    out = tmp_path / "fit"
    assert _fit(dataset_csv, config_json, out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert manifest["tool"] == "cacegibbs"
    assert manifest["dataset"]["sha256"] == file_digest(dataset_csv)
    for name, digest in manifest["outputs"].items():
        assert file_digest(out / name) == digest
    assert set(manifest["outputs"]) == {"draws.csv", "summary.json"}
    assert manifest["seeds"] == {"seed": 7, "chain_stream_ids": [0, 1]}
    assert manifest["failures"] == []
    assert manifest["n_records"] == 50

    summary = json.loads((out / "summary.json").read_text())
    assert summary["variant"] == "D"
    assert summary["n_pooled_draws"] == 60
    assert summary["cace"]["n_draws"] + summary["cace"]["n_undefined"] == 60

    header = (out / "draws.csv").read_text().splitlines()[0]
    assert header.startswith("chain,iteration,prop_complier")
    assert header.endswith("sigma2,cace,n_c")


def test_fit_reruns_are_byte_identical(dataset_csv, config_json, tmp_path):
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    assert _fit(dataset_csv, config_json, out1) == 0
    assert _fit(dataset_csv, config_json, out2) == 0
    assert _fit(dataset_csv, config_json, out3, extra=("--workers", "2")) == 0
    draws = (out1 / "draws.csv").read_bytes()
    assert (out2 / "draws.csv").read_bytes() == draws
    assert (out3 / "draws.csv").read_bytes() == draws  # workers don't matter
    summary = (out1 / "summary.json").read_bytes()
    assert (out2 / "summary.json").read_bytes() == summary


def test_summary_reports_cstar_metropolis_acceptance(dataset_csv, config_json, tmp_path):
    """Cstar fits report each chain's post-burn-in acceptance and final
    proposal scales, byte-stable across reruns; other variants do not."""
    out1, out2, out_a = (tmp_path / d for d in ("c1", "c2", "a"))
    assert _fit(dataset_csv, config_json, out1, extra=("--variant", "Cstar")) == 0
    assert _fit(dataset_csv, config_json, out2, extra=("--variant", "Cstar")) == 0
    assert _fit(dataset_csv, config_json, out_a, extra=("--variant", "A")) == 0
    summary = (out1 / "summary.json").read_bytes()
    assert (out2 / "summary.json").read_bytes() == summary
    report = json.loads(summary)["metropolis"]
    assert [entry["chain"] for entry in report] == [0, 1]
    for entry in report:
        assert set(entry["acceptance"]) == {"never", "always"}
        assert all(0.0 <= rate <= 1.0 for rate in entry["acceptance"].values())
        for sd in entry["proposal_sd"].values():
            assert len(sd) == 2 and all(v > 0 for v in sd)
    assert "metropolis" not in json.loads((out_a / "summary.json").read_text())


def test_fit_flag_overrides_config(dataset_csv, config_json, tmp_path):
    out = tmp_path / "fit"
    code = _fit(
        dataset_csv, config_json, out,
        extra=("--seed", "99", "--variant", "B", "--chains", "3"),
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 99
    assert manifest["config"]["variant"] == "B"
    assert manifest["config"]["n_chains"] == 3


def test_fit_missing_dataset_is_input_error(config_json, tmp_path, capsys):
    code = main(
        ["fit", "--dataset", str(tmp_path / "absent.csv"),
         "--config", str(config_json), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "FileNotFoundError"


def test_fit_malformed_dataset_is_input_error(config_json, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,z,d_obs,y_obs,x\na,0,5,1.0,2.0\nb,1,1,2.0,3.0\n")
    code = main(
        ["fit", "--dataset", str(bad), "--config", str(config_json),
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ParseError"
    assert "row 1" in err["message"]


def test_fit_bad_config_is_input_error(dataset_csv, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"variant": "Q"}')
    code = main(
        ["fit", "--dataset", str(dataset_csv), "--config", str(cfg),
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ValidationError"


def test_diagnose_round_trip(dataset_csv, config_json, tmp_path):
    fit_out = tmp_path / "fit"
    assert _fit(dataset_csv, config_json, fit_out) == 0
    diag_out = tmp_path / "diag"
    code = main(
        ["diagnose", "--dataset", str(dataset_csv), "--draws", str(fit_out),
         "--out", str(diag_out), "--grid-points", "21"]
    )
    assert code == 0
    for z in (0, 1):
        grid_lines = (diag_out / f"complier_grid_z{z}.csv").read_text().splitlines()
        assert grid_lines[0] == "x,mean,lo,hi"
        assert len(grid_lines) == 22
        for line in grid_lines[1:]:
            x, mean, lo, hi = map(float, line.split(","))
            assert 0.0 <= lo <= mean <= hi <= 1.0
        hist_lines = (diag_out / f"shaded_hist_z{z}.csv").read_text().splitlines()
        assert hist_lines[0] == "bin_lo,bin_hi,count,shading"
        counts = [int(l.split(",")[2]) for l in hist_lines[1:]]
        assert sum(counts) > 0
        shadings = [float(l.split(",")[3]) for l in hist_lines[1:]]
        assert all(0.0 <= s <= 1.0 for s in shadings)
    psrf_lines = (diag_out / "psrf.csv").read_text().splitlines()
    assert psrf_lines[0] == "parameter,psrf,above_threshold"
    names = [l.split(",")[0] for l in psrf_lines[1:]]
    assert "sigma2" in names and "prop_complier" in names
    manifest = json.loads((diag_out / "manifest.json").read_text())
    assert manifest["command"] == "diagnose"
    assert manifest["psrf_threshold"] == 1.06
    assert manifest["source_draws_sha256"] == file_digest(fit_out / "draws.csv")


def test_fit_with_every_chain_failed_then_diagnose(tmp_path, capsys):
    # a collinear shared-slope update under a flat prior aborts every chain
    records = [PatientRecord(f"c{i}", 0, 0, float(40 + i), 12.0) for i in range(10)]
    records += [PatientRecord(f"t{i}", 1, 1, float(44 + i), 12.0) for i in range(10)]
    data = tmp_path / "collinear.csv"
    write_dataset_csv(Dataset(records), data)
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({
        "variant": "Astar", "burn_in": 20, "kept": 20, "thin": 2, "n_chains": 2,
        "priors": {"intercept_variance": 1e300, "slope_variance": 1e300},
    }))
    fit_out = tmp_path / "fit"
    assert _fit(data, cfg, fit_out) == 3
    assert (fit_out / "draws.csv").read_text().splitlines()[1:] == []  # header only
    assert not (fit_out / "summary.json").exists()
    manifest = json.loads((fit_out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"draws.csv"}
    assert len(manifest["failures"]) == 2
    capsys.readouterr()
    code = main(
        ["diagnose", "--dataset", str(data), "--draws", str(fit_out),
         "--out", str(tmp_path / "diag")]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValidationError"
    assert err["message"] == "draws table has no data rows"


def test_diagnose_rejects_tampered_draws(dataset_csv, config_json, tmp_path, capsys):
    fit_out = tmp_path / "fit"
    assert _fit(dataset_csv, config_json, fit_out) == 0
    draws = fit_out / "draws.csv"
    lines = draws.read_text().splitlines()
    fields = lines[1].split(",")
    fields[2] = "0.5"
    lines[1] = ",".join(fields)
    draws.write_text("\n".join(lines) + "\n")
    code = main(
        ["diagnose", "--dataset", str(dataset_csv), "--draws", str(fit_out),
         "--out", str(tmp_path / "diag")]
    )
    assert code == 4
    assert json.loads(capsys.readouterr().err.strip())["error"] == "DigestMismatchError"


def test_diagnose_rejects_changed_dataset(dataset_csv, config_json, tmp_path, capsys):
    fit_out = tmp_path / "fit"
    assert _fit(dataset_csv, config_json, fit_out) == 0
    dataset_csv.write_text(dataset_csv.read_text() + "zz,0,0,1.0,2.0\n")
    code = main(
        ["diagnose", "--dataset", str(dataset_csv), "--draws", str(fit_out),
         "--out", str(tmp_path / "diag")]
    )
    assert code == 4


def test_diagnose_requires_fit_manifest(dataset_csv, tmp_path, capsys):
    code = main(
        ["diagnose", "--dataset", str(dataset_csv), "--draws", str(tmp_path),
         "--out", str(tmp_path / "diag")]
    )
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ValidationError"


@pytest.mark.parametrize(
    "flags, named",
    [
        (("--bins", "-2"), "--bins"),
        (("--grid-points", "-1"), "--grid-points"),
        (("--bins", "0", "--grid-points", "0"), "must be at least 1"),
    ],
)
def test_diagnose_rejects_nonpositive_sizes(
    dataset_csv, config_json, tmp_path, capsys, flags, named
):
    fit_out = tmp_path / "fit"
    assert _fit(dataset_csv, config_json, fit_out) == 0
    capsys.readouterr()
    code = main(
        ["diagnose", "--dataset", str(dataset_csv), "--draws", str(fit_out),
         "--out", str(tmp_path / "diag"), *flags]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValidationError"
    assert named in err["message"]
    assert not (tmp_path / "diag").exists()


_FIT_MANIFEST = {
    "command": "fit",
    "config": FIT_CONFIG,
    "dataset": {"path": "trial.csv", "sha256": "0" * 64},
    "outputs": {"draws.csv": "0" * 64},
}


@pytest.mark.parametrize(
    "manifest, named",
    [
        ([_FIT_MANIFEST], "JSON object"),
        ({k: v for k, v in _FIT_MANIFEST.items() if k != "config"}, "config"),
        ({**_FIT_MANIFEST, "config": [1, 2]}, "bad model config"),
        ({**_FIT_MANIFEST, "dataset": {"path": "trial.csv"}}, "sha256"),
        ({k: v for k, v in _FIT_MANIFEST.items() if k != "outputs"}, "outputs"),
        ({**_FIT_MANIFEST, "outputs": {"summary.json": "0" * 64}}, "draws.csv"),
    ],
)
def test_diagnose_rejects_malformed_manifest(
    dataset_csv, tmp_path, capsys, manifest, named
):
    fit_out = tmp_path / "fit"
    fit_out.mkdir()
    (fit_out / "manifest.json").write_text(json.dumps(manifest))
    code = main(
        ["diagnose", "--dataset", str(dataset_csv), "--draws", str(fit_out),
         "--out", str(tmp_path / "diag")]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValidationError"
    assert named in err["message"]


def test_every_written_table_ends_lines_in_newline_only(
    dataset_csv, config_json, tmp_path
):
    fit_out, diag_out, sim_out = tmp_path / "fit", tmp_path / "diag", tmp_path / "sim"
    assert _fit(dataset_csv, config_json, fit_out) == 0
    assert main(
        ["diagnose", "--dataset", str(dataset_csv), "--draws", str(fit_out),
         "--out", str(diag_out)]
    ) == 0
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps({
        "reps": 1, "corr_grid": [0.0], "variants": ["D"], "dgp": {"n": 40},
        "fit": {"variant": "D", "burn_in": 50, "kept": 50, "thin": 5, "n_chains": 2},
    }))
    assert main(["simulate", "--config", str(cfg), "--out", str(sim_out)]) == 0
    tables = [p for d in (fit_out, diag_out, sim_out) for p in sorted(d.glob("*.csv"))]
    assert [p.name for p in tables] == [
        "draws.csv",
        "complier_grid_z0.csv",
        "complier_grid_z1.csv",
        "psrf.csv",
        "shaded_hist_z0.csv",
        "shaded_hist_z1.csv",
        "mc_replicates.csv",
        "mc_results.csv",
    ]
    for path in tables:
        text = path.read_bytes()
        assert b"\r" not in text, path.name
        assert text.endswith(b"\n"), path.name


def test_simulate_tiny_grid(tmp_path):
    cfg = {
        "reps": 1,
        "corr_grid": [0.0],
        "variants": ["B"],
        "master_seed": 3,
        "dgp": {"n": 40},
        "fit": {"variant": "B", "burn_in": 100, "kept": 100, "thin": 5,
                "n_chains": 2},
    }
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sim"
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    results = (out / "mc_results.csv").read_text().splitlines()
    assert results[0] == "corr_xy,variant,mean_cace,lo,hi,frac_excluding_zero,reps,failed"
    assert len(results) == 2
    row = results[1].split(",")
    assert row[1] == "B" and row[6] == "1" and row[7] == "0"
    reps = (out / "mc_replicates.csv").read_text().splitlines()
    assert len(reps) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["cells_failed"] == 0
    assert manifest["replicate_failures"] == []
    assert manifest["seeds"] == {"master_seed": 3}
    assert "dataset" not in manifest


# a degenerate covariate with flat outcome priors aborts every chain
DEGENERATE_MC = {
    "reps": 1,
    "corr_grid": [0.0],
    "variants": ["Astar"],
    "master_seed": 5,
    "dgp": {"n": 30, "x_law": {"mean": 12.0, "sd": 0.0}},
    "fit": {"burn_in": 20, "kept": 20, "thin": 2, "n_chains": 2,
            "priors": {"intercept_variance": 1e300, "slope_variance": 1e300}},
}


def test_simulate_records_why_replicates_failed(tmp_path):
    """The manifest says why every chain aborted; the tables only count the
    failure."""
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(DEGENERATE_MC))
    out = tmp_path / "sim"
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert code == 3
    row = (out / "mc_results.csv").read_text().splitlines()[1].split(",")
    assert row[6:] == ["0", "1"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["cells_failed"] == 1
    (entry,) = manifest["replicate_failures"]
    assert entry["corr_xy"] == 0.0 and entry["variant"] == "Astar"
    assert entry["rep"] == 0
    assert entry["fit_seed"] == derive_seed(5, 0, 0, 1)
    assert [f["chain_index"] for f in entry["failures"]] == [0, 1]
    assert all(f["error_type"] == "ChainAbortError" for f in entry["failures"])


def test_simulate_seed_and_reps_overrides(tmp_path):
    cfg = {
        "reps": 5,
        "corr_grid": [0.0],
        "variants": ["D"],
        "dgp": {"n": 40},
        "fit": {"variant": "D", "burn_in": 50, "kept": 50, "thin": 5,
                "n_chains": 2},
    }
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sim"
    code = main(
        ["simulate", "--config", str(cfg_path), "--out", str(out),
         "--seed", "11", "--reps", "2"]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 11
    assert manifest["config"]["reps"] == 2
    assert len((out / "mc_replicates.csv").read_text().splitlines()) == 3


def test_unknown_variant_flag_rejected(dataset_csv, tmp_path):
    with pytest.raises(SystemExit):
        main(
            ["fit", "--dataset", str(dataset_csv), "--variant", "Q",
             "--out", str(tmp_path / "o")]
        )


def test_cells_failed_counts_cells_not_replicates(tmp_path):
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps({**DEGENERATE_MC, "reps": 2}))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 3
    row = (out / "mc_results.csv").read_text().splitlines()[1].split(",")
    assert row[6:] == ["0", "2"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["cells_failed"] == 1
    assert [e["rep"] for e in manifest["replicate_failures"]] == [0, 1]


def test_import_leaves_scipy_optimize_unloaded():
    """The root finder is imported only when a simulation calibrates, which
    keeps it out of every command's start-up time."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, cacegibbs, cacegibbs.cli; "
        "print('scipy.optimize' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"
