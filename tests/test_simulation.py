"""Synthetic-trial generator, exact small-sample posterior, and bias harness."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ndtr

from cacegibbs.data import Dataset, PatientRecord
from cacegibbs.diagnostics import complier_probability_estimates
import cacegibbs.simulation as simulation
from cacegibbs.distributions import RngStream, derive_seed
from cacegibbs.engine import (
    ModelConfig,
    PriorConfig,
    resolve_outcome_priors,
    run_model,
)
from cacegibbs.errors import CalibrationError, TooLargeError, ValidationError
from cacegibbs.outcomes import OutcomePriors
from cacegibbs.simulation import (
    DgpConfig,
    McConfig,
    XLaw,
    brute_force_posterior,
    calibrate_stratum_base,
    generate_dataset,
    law_moments,
    law_support,
    outcome_slope_for_corr,
    run_cell,
    run_monte_carlo,
)
from cacegibbs.strata import ALWAYS_TAKER, COMPLIER, NEVER_TAKER

# intercepts solving the default calibration (slope 0.3, never 0.5, always 0.145)
CAL_BASE_N = -3.8399966884513437
CAL_BASE_A = -4.9245804223160015


def test_law_support_is_a_distribution():
    pts, w = law_support(XLaw())
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w >= 0)
    assert pts[0] == 0.0 and pts[-1] == 25.0
    assert np.all(pts == np.round(pts))


def test_law_support_continuous_moments():
    law = XLaw(mean=10.0, sd=2.0, lo=0.0, hi=20.0, round_to_int=False)
    mean, sd = law_moments(law)
    # symmetric truncation at +-5 sd: essentially the untruncated moments
    assert mean == pytest.approx(10.0, abs=1e-6)
    assert sd == pytest.approx(2.0, abs=1e-3)


def test_law_support_degenerate_point():
    pts, w = law_support(XLaw(mean=7.0, sd=0.0))
    assert np.array_equal(pts, [7.0]) and np.array_equal(w, [1.0])


def test_calibration_hits_targets():
    cfg = DgpConfig()
    base_n, base_a = calibrate_stratum_base(cfg)
    assert base_n == pytest.approx(CAL_BASE_N, abs=1e-9)
    assert base_a == pytest.approx(CAL_BASE_A, abs=1e-9)
    pts, w = law_support(cfg.x_law)
    s = cfg.stratum_slope
    p_never = float((w * (1.0 - ndtr(base_n + s * pts))).sum())
    p_always = float((w * ndtr(base_n + s * pts) * ndtr(base_a + s * pts)).sum())
    assert p_never == pytest.approx(0.5, abs=1e-10)
    assert p_always == pytest.approx(0.145, abs=1e-10)


def test_calibration_rejects_infeasible_targets():
    with pytest.raises(CalibrationError):
        calibrate_stratum_base(DgpConfig(target_never=0.7, target_always=0.4))


def test_symmetric_base_gives_quarter_half_quarter():
    """Slope 0 and both intercepts 0: stratum shares (1/4, 1/2, 1/4)."""
    cfg = DgpConfig(
        n=100000, stratum_slope=0.0, stratum_base=(0.0, 0.0), corr_xy=0.0
    )
    _, truth = generate_dataset(cfg, RngStream(seed=71))
    shares = np.bincount(truth.labels, minlength=3) / cfg.n
    for share, target in zip(shares, (0.25, 0.5, 0.25)):
        se = math.sqrt(target * (1 - target) / cfg.n)
        assert abs(share - target) < 3 * se


def test_default_calibrated_shares():
    cfg = DgpConfig(n=100000)
    _, truth = generate_dataset(cfg, RngStream(seed=72))
    shares = np.bincount(truth.labels, minlength=3) / cfg.n
    assert abs(shares[NEVER_TAKER] - 0.5) < 3 * math.sqrt(0.25 / cfg.n)
    assert abs(shares[ALWAYS_TAKER] - 0.145) < 3 * math.sqrt(0.145 * 0.855 / cfg.n)


def test_outcome_slope_inverts_correlation_formula():
    cfg = DgpConfig(corr_xy=0.3)
    b = outcome_slope_for_corr(cfg)
    _, sd_x = law_moments(cfg.x_law)
    implied = b * sd_x / math.sqrt(b * b * sd_x * sd_x + cfg.sigma_y**2)
    assert implied == pytest.approx(0.3, abs=1e-12)
    assert outcome_slope_for_corr(DgpConfig(corr_xy=0.0)) == 0.0
    neg = outcome_slope_for_corr(DgpConfig(corr_xy=-0.6))
    assert neg < 0
    with pytest.raises(CalibrationError):
        outcome_slope_for_corr(
            DgpConfig(corr_xy=0.3, x_law=XLaw(mean=5.0, sd=0.0))
        )


def test_generated_correlation_matches_target():
    cfg = DgpConfig(n=100000, corr_xy=0.3, true_cace=0.0)
    ds, _ = generate_dataset(cfg, RngStream(seed=73))
    r = np.corrcoef(ds.x, ds.y)[0, 1]
    assert abs(r - 0.3) < 3 * (1 - 0.09) / math.sqrt(cfg.n)


def test_generated_dataset_structure():
    cfg = DgpConfig(n=5000, corr_xy=0.3, true_cace=8.0)
    ds, truth = generate_dataset(cfg, RngStream(seed=74))
    assert ds.n == 5000
    assert len({r.id for r in ds.records}) == ds.n
    assert np.all(ds.x >= 0) and np.all(ds.x <= 25)
    assert np.all(ds.x == np.round(ds.x))
    assert not ds.y_missing.any()  # generator leaves outcomes complete
    # receipt follows the stratum deterministically
    never = truth.labels == NEVER_TAKER
    always = truth.labels == ALWAYS_TAKER
    compl = truth.labels == COMPLIER
    assert np.all(ds.d_obs[never] == 0)
    assert np.all(ds.d_obs[always] == 1)
    assert np.array_equal(ds.d_obs[compl], ds.z[compl])
    # realized effect is the sample complier contrast
    manual = float(np.mean(truth.y_treated[compl] - truth.y_control[compl]))
    assert truth.realized_cace == pytest.approx(manual)
    assert abs(truth.realized_cace - 8.0) < 1.0
    # observed outcome reveals the assigned arm's potential outcome
    assert np.array_equal(ds.y[ds.z == 1], truth.y_treated[ds.z == 1])
    assert np.array_equal(ds.y[ds.z == 0], truth.y_control[ds.z == 0])


def test_zero_effect_realized_near_zero():
    cfg = DgpConfig(n=100000, corr_xy=0.3, true_cace=0.0)
    _, truth = generate_dataset(cfg, RngStream(seed=75))
    n_c = int((truth.labels == COMPLIER).sum())
    se = cfg.sigma_y * math.sqrt(2.0 / n_c)
    assert abs(truth.realized_cace) < 3 * se


def test_truth_is_sealed():
    _, truth = generate_dataset(DgpConfig(n=50), RngStream(seed=76))
    with pytest.raises(dataclasses.FrozenInstanceError):
        truth.true_cace = 99.0


def test_dgp_validation():
    with pytest.raises(ValidationError):
        DgpConfig(n=0)
    with pytest.raises(CalibrationError):
        DgpConfig(corr_xy=1.0)
    with pytest.raises(ValidationError):
        DgpConfig(sigma_y=0.0)


def _priors():
    return OutcomePriors(center=43.0)


def test_brute_force_no_mixture_patients():
    ds = Dataset(
        [
            PatientRecord("a", 0, 1, 44.0, 12.0),
            PatientRecord("b", 1, 0, 41.0, 13.0),
        ]
    )
    res = brute_force_posterior(ds, _priors())
    assert np.array_equal(res.complier_prob, [0.0, 0.0])
    assert math.isnan(res.cace_mean)
    assert math.isfinite(res.log_evidence)


def test_brute_force_two_patient_exact_weights():
    """One mixture patient per arm with complete outcomes: every labeling
    puts each patient in a singleton outcome group with the same prior, so
    the outcome marginals cancel and only the label-count factor remains.
    Enumerating the four labelings with unit concentration gives weights
    2:1:1:1 (both compliers doubles a count), hence P(complier) = 3/5 for
    both patients, independent of the outcome and covariate values."""
    ds = Dataset(
        [
            PatientRecord("ctrl", 0, 0, 37.2, 5.0),
            PatientRecord("trt", 1, 1, 55.1, 9.0),
        ]
    )
    res = brute_force_posterior(ds, _priors())
    assert res.complier_prob[0] == pytest.approx(0.6, abs=1e-12)
    assert res.complier_prob[1] == pytest.approx(0.6, abs=1e-12)
    # the cancellation is exact: outcome values must not matter
    other = Dataset(
        [
            PatientRecord("ctrl", 0, 0, -3.0, 1.0),
            PatientRecord("trt", 1, 1, 120.0, 24.0),
        ]
    )
    res2 = brute_force_posterior(other, _priors())
    assert np.allclose(res2.complier_prob, res.complier_prob, atol=1e-12)


def test_brute_force_grid_doubling_stable():
    rng = RngStream(seed=77).generator()
    records = []
    for i in range(3):
        records.append(PatientRecord(f"c{i}", 0, 0, float(rng.normal(42, 10)), 12.0))
    for i in range(3):
        records.append(PatientRecord(f"t{i}", 1, 1, float(rng.normal(46, 10)), 13.0))
    ds = Dataset(records)
    coarse = brute_force_posterior(ds, _priors(), grid_size=800)
    fine = brute_force_posterior(ds, _priors(), grid_size=1600)
    assert np.allclose(coarse.complier_prob, fine.complier_prob, atol=1e-6)
    assert coarse.cace_mean == pytest.approx(fine.cace_mean, abs=1e-5)
    assert np.all((coarse.complier_prob >= 0) & (coarse.complier_prob <= 1))


def test_brute_force_size_and_completeness_guards():
    records = [PatientRecord(f"c{i}", 0, 0, 40.0 + i, 12.0) for i in range(10)]
    records.append(PatientRecord("t", 1, 1, 44.0, 12.0))
    with pytest.raises(TooLargeError):
        brute_force_posterior(Dataset(records), _priors())


def _batch_means_se(chains, n_batches=20):
    """Monte Carlo SE of the pooled mean from per-chain batch means."""
    means = [
        np.nanmean(batch)
        for draws in chains
        for batch in np.array_split(draws, n_batches)
    ]
    return float(np.std(means, ddof=1) / math.sqrt(len(means)))


def test_missing_outcomes_match_exact_posterior():
    """Variant D with one missing outcome per arm against exact enumeration.

    A criterion-3-style fixture whose two missing outcomes sit in the two
    mixture patterns, so the sampler's imputation path feeds its membership
    draws and its effect.  Per-patient complier probabilities must agree
    within criterion 3's 0.02 and the pooled effect within 4 batch-means
    Monte Carlo standard errors.  Twelve chains keep the Monte Carlo error
    of the per-patient probabilities well inside that bound.
    """
    rows = (
        ("m0", 0, 0, 40.0, 10.0), ("m1", 0, 0, None, 16.0), ("m2", 0, 1, 44.0, 14.0),
        ("m3", 1, 1, 41.0, 11.0), ("m4", 1, 1, None, 18.0), ("m5", 1, 0, 42.0, 13.0),
        ("m6", 0, 0, 45.0, 15.0),
    )
    dataset = Dataset([PatientRecord(*row) for row in rows])
    config = ModelConfig(variant="D", seed=911, n_chains=12)
    fit = run_model(dataset, config)
    exact = brute_force_posterior(
        dataset,
        resolve_outcome_priors(dataset, config.priors),
        dirichlet_concentration=config.priors.dirichlet_concentration,
    )
    estimate = complier_probability_estimates(fit, dataset)
    assert np.abs(estimate - exact.complier_prob).max() < 0.02
    cace = fit.pooled_cace()
    se = _batch_means_se([c.cace for c in fit.chains])
    assert abs(np.nanmean(cace) - exact.cace_mean) < 4 * se


def _tiny_mc(variants=("D",), corr_grid=(0.0,), **fit_overrides):
    fit = ModelConfig(
        variant="D", burn_in=100, kept=100, thin=5, n_chains=2, **fit_overrides
    )
    return McConfig(
        reps=2,
        corr_grid=corr_grid,
        variants=variants,
        dgp=DgpConfig(n=40),
        fit=fit,
        master_seed=123,
    )


def test_monte_carlo_deterministic():
    mc = _tiny_mc()
    r1 = run_monte_carlo(mc)
    r2 = run_monte_carlo(mc)
    assert r1.cells == r2.cells
    cell = r1.cells[0]
    assert cell.reps_done == 2 and cell.n_failed == 0
    assert not r1.any_failures
    reps = cell.replicates
    assert reps[0].dataset_seed != reps[1].dataset_seed
    assert reps[0].dataset_seed != reps[0].fit_seed
    assert math.isfinite(cell.mean_cace)
    assert cell.lo <= cell.mean_cace <= cell.hi


def test_monte_carlo_cell_ordering():
    mc = dataclasses.replace(
        _tiny_mc(variants=("D", "B"), corr_grid=(0.0, 0.3)), reps=1
    )
    result = run_monte_carlo(mc)
    got = [(c.corr_xy, c.variant) for c in result.cells]
    assert got == [(0.0, "D"), (0.0, "B"), (0.3, "D"), (0.3, "B")]


def test_monte_carlo_counts_failed_replicates():
    """A degenerate covariate with flat outcome priors makes the shared-slope
    update singular; the harness records the failure and moves on."""
    mc = McConfig(
        reps=1,
        corr_grid=(0.0,),
        variants=("Astar",),
        dgp=DgpConfig(n=30, x_law=XLaw(mean=12.0, sd=0.0)),
        fit=ModelConfig(
            variant="Astar",
            burn_in=20,
            kept=20,
            thin=2,
            n_chains=2,
            priors=PriorConfig(intercept_variance=1e300, slope_variance=1e300),
        ),
        master_seed=5,
    )
    result = run_monte_carlo(mc)
    cell = result.cells[0]
    assert cell.n_failed == 1 and cell.reps_done == 0
    assert math.isnan(cell.mean_cace)
    assert result.any_failures
    # the cell keeps why the replicate failed
    (failed,) = cell.failures
    assert failed.rep == 0
    assert failed.fit_seed == derive_seed(5, 0, 0, 1)
    assert [f.chain_index for f in failed.failures] == [0, 1]
    for f in failed.failures:
        assert f.error_type == "ChainAbortError"
        assert "outcome update" in f.message


@pytest.mark.parametrize("variant", ["B", "Cstar", "D"])
def test_batched_cell_replicates_equal_their_lone_fits(monkeypatch, variant):
    """A cell fits all replicates in one batch; each replicate's draws are
    those of its own fit, from its recorded dataset and fit seeds."""
    batched = []

    def keep_fits(*args, **kwargs):
        fits = run_model(*args, **kwargs)
        batched.extend(fits)
        return fits

    monkeypatch.setattr(simulation, "run_model", keep_fits)
    mc = dataclasses.replace(
        _tiny_mc(variants=(variant,), corr_grid=(0.3,)), reps=3
    )
    calls = []
    cell = run_cell(mc, 1, 0.3, variant, progress=lambda *args: calls.append(args))
    assert [r.rep for r in cell.replicates] == [0, 1, 2]
    assert calls == [(1, 0.3, variant, done, 3) for done in (1, 2, 3)]
    assert len(batched) == 3
    for r, fit in zip(cell.replicates, batched):
        dataset, _ = generate_dataset(
            DgpConfig(n=40, corr_xy=0.3), RngStream(seed=r.dataset_seed)
        )
        config = dataclasses.replace(mc.fit, variant=variant, seed=r.fit_seed)
        lone = run_model(dataset, config)
        assert fit.config == config
        assert len(fit.chains) == len(lone.chains) == 2
        for got, want in zip(fit.chains, lone.chains):
            assert np.array_equal(got.params, want.params)
            assert np.array_equal(got.cace, want.cace, equal_nan=True)
            assert np.array_equal(got.n_compliers, want.n_compliers)
            assert got.acceptance == want.acceptance


def test_mc_config_validation():
    with pytest.raises(ValidationError):
        McConfig(reps=0)
