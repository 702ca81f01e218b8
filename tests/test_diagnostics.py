"""Convergence and membership-visualization diagnostics."""

import math

import numpy as np
import pytest
from scipy.special import expit

from cacegibbs.data import Dataset, PatientRecord
from cacegibbs.diagnostics import (
    PSRF_THRESHOLD,
    complier_prob_grid,
    complier_probability_estimates,
    compute_psrf,
    default_x_grid,
    psrf_report,
    shaded_histogram,
    PosteriorSummary,
    summarize_draws,
    summarize_fit,
    sturges_bins,
)
from cacegibbs.distributions import RngStream
from cacegibbs.engine import Chain, ModelConfig, ModelFit, default_param_names, run_model
from cacegibbs.errors import (
    AllUndefinedError,
    EmptyPatternError,
    InsufficientDrawsError,
)
from cacegibbs.simulation import DgpConfig, generate_dataset

FAST = dict(burn_in=200, kept=300, thin=5, n_chains=3)


def test_psrf_identical_chains_frozen_value():
    rng = RngStream(seed=61).generator()
    draws = rng.standard_normal(500)
    # identical chains: B = 0, so the factor is sqrt((n-1)/n)
    assert compute_psrf([draws, draws.copy()]) == pytest.approx(
        0.9989994994993742, abs=1e-15
    )


def test_psrf_constant_chain_conventions():
    flat = np.full(50, 3.0)
    assert compute_psrf([flat, flat.copy()]) == 1.0
    assert compute_psrf([flat, np.full(50, 4.0)]) == math.inf


def test_psrf_matches_direct_formula():
    rng = RngStream(seed=62).generator()
    chains = [rng.standard_normal(200) + k for k in range(3)]
    w = np.mean([c.var(ddof=1) for c in chains])
    b = 200 * np.var([c.mean() for c in chains], ddof=1)
    expected = math.sqrt((199 / 200 * w + b / 200) / w)
    assert compute_psrf(chains) == pytest.approx(expected, abs=1e-14)
    assert compute_psrf(chains) > PSRF_THRESHOLD  # separated chains flag


def test_psrf_input_validation():
    with pytest.raises(InsufficientDrawsError):
        compute_psrf([np.zeros(50)])
    with pytest.raises(InsufficientDrawsError):
        compute_psrf([np.zeros(20), np.zeros(30)])
    with pytest.raises(InsufficientDrawsError):
        compute_psrf([np.zeros(5), np.zeros(5)])


def test_summarize_draws_quantiles():
    summ = summarize_draws(np.arange(1.0, 1001.0))
    assert summ.q2_5 == pytest.approx(25.975, abs=1e-9)
    assert summ.q97_5 == pytest.approx(975.025, abs=1e-9)
    assert summ.mean == pytest.approx(500.5)
    assert summ.n_draws == 1000 and summ.n_undefined == 0


def test_summarize_draws_handles_undefined():
    vals = np.array([1.0, np.nan, 3.0, np.nan])
    summ = summarize_draws(vals)
    assert summ.mean == pytest.approx(2.0)
    assert summ.n_draws == 2 and summ.n_undefined == 2
    with pytest.raises(AllUndefinedError):
        summarize_draws(np.array([np.nan, np.nan]))
    single = summarize_draws(np.array([7.0]))
    assert single.sd == 0.0 and single.q2_5 == 7.0


def _fake_fit(cace_arrays, seed=63):
    """Hand-built variant-D fit with random parameter draws."""
    rng = RngStream(seed=seed).generator()
    names = default_param_names("D")
    config = ModelConfig(variant="D", burn_in=0, kept=len(cace_arrays[0]), thin=1,
                         n_chains=len(cace_arrays))
    chains = []
    for k, cace in enumerate(cace_arrays):
        n = len(cace)
        params = rng.standard_normal((n, len(names))) * 0.01 + 1.0
        chains.append(
            Chain(
                chain_index=k,
                thin=1,
                param_names=names,
                params=params,
                cace=np.asarray(cace, dtype=float),
                n_compliers=np.ones(n, dtype=np.int32),
            )
        )
    return ModelFit(config=config, chains=tuple(chains), failures=())


def test_psrf_report_includes_cace_only_when_fully_defined():
    rng = RngStream(seed=64).generator()
    clean = _fake_fit([rng.standard_normal(50), rng.standard_normal(50)])
    report = psrf_report(clean)
    assert "cace" in report
    assert set(default_param_names("D")).issubset(report)
    withnan = _fake_fit(
        [rng.standard_normal(50), np.r_[np.nan, rng.standard_normal(49)]]
    )
    assert "cace" not in psrf_report(withnan)


def test_summarize_fit_omits_cace_when_all_undefined():
    allnan = _fake_fit([np.full(50, np.nan), np.full(50, np.nan)])
    out = summarize_fit(allnan)
    assert "cace" not in out
    assert isinstance(out["sigma2"], PosteriorSummary)


def _fitted(seed=65, variant="D", n=60):
    ds, _ = generate_dataset(
        DgpConfig(n=n, corr_xy=0.3, true_cace=4.0), RngStream(seed=seed)
    )
    fit = run_model(ds, ModelConfig(variant=variant, **FAST))
    return ds, fit


def test_complier_grid_matches_per_draw_average():
    """The grid's pointwise mean equals the average over saved draws of the
    closed-form membership probability."""
    ds, fit = _fitted()
    x_grid = np.array([8.0, 12.0, 16.0])
    y_eval = 43.0
    grid = complier_prob_grid(fit, ds, 0, y_eval, x_grid)

    pooled = fit.pooled_params()
    pi_c = pooled["prop_complier"]
    pi_n = pooled["prop_never"]
    a_c0 = pooled["y_c0_intercept"]
    a_n = pooled["y_n_intercept"]
    s2 = pooled["sigma2"]
    log_num = np.log(pi_c) - 0.5 * (np.log(2 * np.pi * s2) + (y_eval - a_c0) ** 2 / s2)
    log_alt = np.log(pi_n) - 0.5 * (np.log(2 * np.pi * s2) + (y_eval - a_n) ** 2 / s2)
    manual = expit(log_num - log_alt).mean()
    # variant D is covariate-free, so every grid point shares the value
    assert np.allclose(grid.mean, manual, atol=1e-12)
    assert np.all((grid.lo <= grid.mean) & (grid.mean <= grid.hi))
    assert np.all((grid.mean >= 0) & (grid.mean <= 1))
    assert grid.y_eval == y_eval and grid.z == 0


def test_complier_grid_varies_over_x_for_probit_variant():
    ds, fit = _fitted(seed=66, variant="Astar")
    grid = complier_prob_grid(fit, ds, 1, 43.0, default_x_grid(ds))
    assert grid.x[0] == ds.x.min() and grid.x[-1] == ds.x.max()
    assert grid.x.size == 101
    assert np.ptp(grid.mean) > 0  # the covariate moves the probability


def test_default_x_grid_points():
    ds, _ = generate_dataset(DgpConfig(n=40), RngStream(seed=67))
    grid = default_x_grid(ds, 11)
    assert grid.size == 11
    assert grid[0] == ds.x.min() and grid[-1] == ds.x.max()


def test_sturges_bins():
    assert sturges_bins(100) == 8
    assert sturges_bins(53) == 7
    assert sturges_bins(2) == 2
    assert sturges_bins(1) == 1


def test_shaded_histogram_partition_and_shading():
    ds, fit = _fitted(seed=68, variant="Astar", n=80)
    for z in (0, 1):
        hist = shaded_histogram(fit, ds, z)
        pattern_size = int(((ds.z == z) & (ds.d_obs == z)).sum())
        assert hist.counts.sum() == pattern_size
        assert np.all(hist.bin_lo < hist.bin_hi)
        assert np.allclose(hist.bin_lo[1:], hist.bin_hi[:-1])
        assert np.all((hist.shading >= 0) & (hist.shading <= 1))
        assert hist.counts.size == hist.shading.size
    explicit = shaded_histogram(fit, ds, 0, n_bins=5)
    assert explicit.counts.size == 5


def test_shaded_histogram_empty_pattern():
    # both arms present, but no treated-arm mixture (every treated refuses)
    records = [PatientRecord(f"c{i}", 0, 0, 40.0 + i, 10.0 + i) for i in range(8)]
    records += [PatientRecord(f"n{i}", 1, 0, 41.0 + i, 11.0 + i) for i in range(8)]
    ds = Dataset(records)
    fit = run_model(ds, ModelConfig(variant="D", burn_in=50, kept=50, thin=5, n_chains=2))
    with pytest.raises(EmptyPatternError):
        shaded_histogram(fit, ds, 1)
    hist = shaded_histogram(fit, ds, 0)
    assert hist.counts.sum() == 8


def test_complier_estimates_zero_for_revealed_patients():
    ds, fit = _fitted(seed=69, variant="D")
    est = complier_probability_estimates(fit, ds)
    revealed = (ds.pattern == 1) | (ds.pattern == 2)
    assert np.all(est[revealed] == 0.0)
    mixture = ~revealed
    assert np.all((est[mixture] > 0) & (est[mixture] < 1))


def test_complier_estimates_missing_y_uses_membership_ratio():
    records = [
        PatientRecord("miss", 0, 0, None, 12.0),
        PatientRecord("c1", 0, 0, 40.0, 11.0),
        PatientRecord("t1", 1, 1, 44.0, 13.0),
        PatientRecord("t2", 1, 1, 46.0, 12.5),
    ]
    ds = Dataset(records)
    fit = run_model(ds, ModelConfig(variant="D", burn_in=100, kept=200, thin=2, n_chains=2))
    est = complier_probability_estimates(fit, ds)
    pooled = fit.pooled_params()
    manual = expit(np.log(pooled["prop_complier"]) - np.log(pooled["prop_never"]))
    assert est[0] == pytest.approx(float(manual.mean()), abs=1e-12)


def test_grid_requires_surviving_chains():
    empty = ModelFit(config=ModelConfig(variant="D"), chains=(), failures=())
    with pytest.raises(InsufficientDrawsError):
        complier_prob_grid(empty, None, 0, 40.0, np.array([1.0]))
    with pytest.raises(InsufficientDrawsError):
        complier_probability_estimates(empty, None)
