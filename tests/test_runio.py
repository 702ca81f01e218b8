"""Serialization checks: configs, draws tables, summaries, manifests."""

import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from cacegibbs.distributions import RngStream
from cacegibbs.engine import ModelConfig, ModelFit, PriorConfig, run_model
from cacegibbs.errors import (
    DigestMismatchError,
    ParseError,
    ValidationError,
)
from cacegibbs.runio import (
    DRAWS_NAME,
    MANIFEST_NAME,
    check_digest,
    config_from_dict,
    file_digest,
    fmt,
    load_json_config,
    make_manifest,
    mc_config_from_dict,
    read_draws_csv,
    read_manifest,
    summary_payload,
    write_csv,
    write_draws_csv,
    write_json,
    write_mc_replicates_csv,
    write_mc_results_csv,
)
from cacegibbs.simulation import (
    CellResult,
    DgpConfig,
    McConfig,
    McResult,
    ReplicateResult,
    XLaw,
    generate_dataset,
)

FAST = dict(burn_in=100, kept=150, thin=5, n_chains=2)


def test_fmt_full_precision_and_missing():
    assert fmt(float("nan")) == ""
    assert fmt(1.5) == "1.5"
    v = 1.0 + 2**-45
    assert float(fmt(v)) == v
    assert float(fmt(np.pi)) == np.pi


def test_write_csv_renders_fields_and_returns_digest(tmp_path):
    path = tmp_path / "t.csv"
    rows = [
        ["a", 3, np.int32(-4), True, 0.1, np.float64(2.5)],
        ["", 0, np.int64(7), False, float("nan"), -math.inf],
    ]
    digest = write_csv(path, ["s", "i", "ni", "b", "f", "nf"], rows)
    assert path.read_bytes() == (
        b"s,i,ni,b,f,nf\na,3,-4,1,0.10000000000000001,2.5\n,0,7,0,,-inf\n"
    )
    assert digest == file_digest(path)


def test_model_config_round_trip():
    config = ModelConfig(
        variant="Cstar",
        burn_in=123,
        kept=456,
        thin=3,
        n_chains=4,
        seed=99,
        priors=PriorConfig(
            beta_variance=2.5,
            dirichlet_concentration=(2.0, 1.0, 0.5),
        ),
    )
    d = json.loads(json.dumps(asdict(config)))
    assert config_from_dict(d) == config
    with pytest.raises(ValidationError):
        config_from_dict({"no_such_field": 1})


def test_mc_config_round_trip():
    mc = McConfig(
        reps=7,
        corr_grid=(-0.3, 0.0),
        variants=("A", "D"),
        dgp=DgpConfig(n=77, stratum_base=(-3.5, -4.5), x_law=XLaw(mean=11.0)),
        fit=ModelConfig(variant="A", burn_in=10, kept=10, thin=2, n_chains=2),
        master_seed=17,
    )
    d = json.loads(json.dumps(asdict(mc)))
    assert mc_config_from_dict(d) == mc
    with pytest.raises(ValidationError):
        mc_config_from_dict({"reps": 1, "bogus": True})


def test_load_json_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"variant": "B"}')
    assert load_json_config(path) == {"variant": "B"}
    path.write_text("{invalid")
    with pytest.raises(ParseError):
        load_json_config(path)
    path.write_text("[1, 2]")
    with pytest.raises(ValidationError):
        load_json_config(path)


def _fit(seed=81, variant="D"):
    ds, _ = generate_dataset(DgpConfig(n=50), RngStream(seed=seed))
    config = ModelConfig(variant=variant, seed=seed, **FAST)
    return run_model(ds, config), config


def test_draws_csv_round_trip_bitwise(tmp_path):
    fit, config = _fit()
    path = tmp_path / DRAWS_NAME
    write_draws_csv(fit, path)
    back = read_draws_csv(path, config)
    assert len(back.chains) == len(fit.chains)
    for c1, c2 in zip(fit.chains, back.chains):
        assert np.array_equal(c1.params, c2.params)  # .17g is lossless
        assert np.array_equal(c1.cace, c2.cace, equal_nan=True)
        assert np.array_equal(c1.n_compliers, c2.n_compliers)
        assert c2.param_names == c1.param_names


def test_draws_csv_header_guards_variant(tmp_path):
    fit, config = _fit()
    path = tmp_path / DRAWS_NAME
    write_draws_csv(fit, path)
    wrong = ModelConfig(variant="A", **FAST)
    with pytest.raises(ValidationError, match="variant"):
        read_draws_csv(path, wrong)


def test_draws_csv_undefined_effect_round_trips(tmp_path):
    fit, config = _fit()
    path = tmp_path / DRAWS_NAME
    write_draws_csv(fit, path)
    text = path.read_text().splitlines()
    # blank out one effect cell to mimic an undefined draw
    fields = text[1].split(",")
    fields[-2] = ""
    text[1] = ",".join(fields)
    path.write_text("\n".join(text) + "\n")
    back = read_draws_csv(path, config)
    assert math.isnan(back.chains[0].cace[0])


def test_draws_csv_malformed_rows(tmp_path):
    fit, config = _fit()
    path = tmp_path / DRAWS_NAME
    write_draws_csv(fit, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], lines[1] + ",9"]) + "\n")
    with pytest.raises(ParseError, match="row 1"):
        read_draws_csv(path, config)
    path.write_text(lines[0] + "\n")
    with pytest.raises(ValidationError):
        read_draws_csv(path, config)


def test_draws_csv_rejects_ragged_chains(tmp_path):
    fit, config = _fit()
    path = tmp_path / DRAWS_NAME
    write_draws_csv(fit, path)
    lines = path.read_text().splitlines()
    n = config.n_saved_per_chain
    path.write_text("\n".join(lines[:n] + lines[n + 1 :]) + "\n")  # chain 0 short
    with pytest.raises(ValidationError, match="chain 0"):
        read_draws_csv(path, config)
    path.write_text("\n".join([lines[0], *lines[n + 1 :], *lines[1 : n + 1]]) + "\n")
    with pytest.raises(ValidationError, match="ascending"):
        read_draws_csv(path, config)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="chain 1"):
        read_draws_csv(path, replace(config, n_chains=1))


def test_draws_csv_rejects_wrong_iterations(tmp_path):
    fit, config = _fit()
    path = tmp_path / DRAWS_NAME
    write_draws_csv(fit, path)
    lines = path.read_text().splitlines()
    with pytest.raises(ValidationError, match="iterations"):
        read_draws_csv(path, replace(config, thin=3))
    fields = lines[2].split(",")
    fields[1] = str(int(fields[1]) + 1)
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="iterations"):
        read_draws_csv(path, config)


def test_summary_payload_structure():
    fit, _ = _fit()
    payload = summary_payload(fit)
    assert payload["variant"] == "D"
    assert payload["n_chains"] == 2
    assert payload["n_pooled_draws"] == 60
    assert "prop_complier" in payload["parameters"]
    entry = payload["parameters"]["sigma2"]
    assert set(entry) == {"mean", "sd", "q2.5", "q97.5", "n_draws"}
    assert set(payload["cace"]) == {
        "mean", "sd", "q2.5", "q97.5", "n_draws", "n_undefined",
    }
    psrf = payload["psrf"]
    assert psrf["threshold"] == 1.06
    assert "sigma2" in psrf["values"]
    json.dumps(payload)  # JSON-clean, including any non-finite substitutions


def test_summary_payload_single_chain_psrf_unavailable():
    ds, _ = generate_dataset(DgpConfig(n=50), RngStream(seed=82))
    fit = run_model(ds, ModelConfig(variant="D", burn_in=100, kept=150, thin=5, n_chains=1))
    payload = summary_payload(fit)
    assert "unavailable" in payload["psrf"]
    json.dumps(payload)


def test_write_json_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        write_json(tmp_path / "bad.json", {"x": float("nan")})
    write_json(tmp_path / "ok.json", {"x": 1.0})
    assert json.loads((tmp_path / "ok.json").read_text()) == {"x": 1.0}


def test_manifest_round_trip(tmp_path):
    data_file = tmp_path / "input.csv"
    data_file.write_text("id,z,d_obs,y_obs,x\na,0,0,1.0,2.0\nb,1,1,3.0,4.0\n")
    out1 = tmp_path / "draws.csv"
    out1.write_text("stub")
    manifest = make_manifest(
        command="fit",
        dataset_path=data_file,
        config_dict={"variant": "D"},
        seeds={"seed": 7, "chain_stream_ids": [0, 1]},
        outputs={"draws.csv": file_digest(out1)},
        extra={"failures": []},
    )
    assert manifest["tool"] == "cacegibbs"
    assert manifest["command"] == "fit"
    assert manifest["dataset"]["sha256"] == file_digest(data_file)
    assert manifest["failures"] == []
    write_json(tmp_path / MANIFEST_NAME, manifest)
    back = read_manifest(tmp_path)
    assert back == json.loads(json.dumps(manifest))
    with pytest.raises(ValidationError):
        read_manifest(tmp_path / "nowhere")


def test_check_digest(tmp_path):
    f = tmp_path / "x.bin"
    f.write_bytes(b"abc123")
    good = file_digest(f)
    check_digest(f, good, "dataset")  # no raise
    f.write_bytes(b"tampered")
    with pytest.raises(DigestMismatchError, match="dataset"):
        check_digest(f, good, "dataset")


def _fake_mc_result():
    rep = ReplicateResult(
        rep=0,
        dataset_seed=11,
        fit_seed=12,
        post_mean=1.25,
        q2_5=-0.5,
        q97_5=3.0,
        n_undefined=2,
        realized_cace=1.1,
    )
    cell = CellResult(
        corr_xy=0.3,
        variant="B",
        reps_done=1,
        mean_cace=1.25,
        lo=-0.5,
        hi=3.0,
        frac_excluding_zero=0.0,
        replicates=(rep,),
        n_failed=1,
    )
    mc = McConfig(reps=1, corr_grid=(0.3,), variants=("B",))
    return McResult(config=mc, cells=(cell,))


def test_mc_results_csv(tmp_path):
    result = _fake_mc_result()
    path = tmp_path / "mc_results.csv"
    write_mc_results_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "corr_xy,variant,mean_cace,lo,hi,frac_excluding_zero,reps,failed"
    assert lines[1].split(",") == [
        "0.29999999999999999", "B", "1.25", "-0.5", "3", "0", "1", "1",
    ]


def test_mc_replicates_csv(tmp_path):
    result = _fake_mc_result()
    path = tmp_path / "mc_replicates.csv"
    write_mc_replicates_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == [
        "corr_xy", "variant", "rep", "dataset_seed", "fit_seed",
        "post_mean", "q2.5", "q97.5", "n_undefined", "realized_cace",
    ]
    row = lines[1].split(",")
    assert row[2] == "0" and row[3] == "11" and row[4] == "12"
    assert float(row[5]) == 1.25 and row[8] == "2"
