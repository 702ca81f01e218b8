"""Acceptance suite: one test (and one pass/fail line) per numbered criterion.

Criterion 1 runs a 20-replicate smoke study by default; set
CACEGIBBS_ACCEPTANCE_FULL=1 to run the full 50 replicates per cell.
Criteria 1 and 6 are marked ``slow``; ``pytest -m "not slow"`` leaves them
out for a quick loop.
"""

import json
import math
import os

import numpy as np
import pytest
from scipy import stats

from cacegibbs.cli import main
from cacegibbs.data import (
    Dataset,
    PatientRecord,
    ingest_dataset,
    summarize_dataset,
    write_dataset_csv,
)
from cacegibbs.diagnostics import (
    complier_probability_estimates,
    compute_psrf,
    shaded_histogram,
    summarize_fit,
)
from cacegibbs.distributions import (
    NormalLinearPrior,
    RngStream,
    conjugate_linear_posterior,
    sample_conjugate_linear,
    sample_conjugate_sums_2,
    sample_dirichlet,
    sample_precision_gamma,
    truncated_normal_draws,
)
from cacegibbs.engine import ModelConfig, resolve_outcome_priors, run_model
from cacegibbs.simulation import (
    ORAL_SURGERY_MARGINS,
    DgpConfig,
    McConfig,
    brute_force_posterior,
    generate_dataset,
    generate_matched_fixture,
    run_monte_carlo,
)

FULL = os.environ.get("CACEGIBBS_ACCEPTANCE_FULL", "") == "1"
MC_REPS = 50 if FULL else 20
ALL_VARIANTS = ("A", "Astar", "B", "Cstar", "D")


def _passed(number, detail):
    print(f"criterion {number}: PASS ({detail})")


@pytest.mark.slow
def test_criterion_1_confounding_bias_pattern():
    """Ignoring the covariate biases the CACE more as confounding grows."""
    mc = McConfig(reps=MC_REPS)
    result = run_monte_carlo(mc)
    assert not result.any_failures
    sigma_y = mc.dgp.sigma_y
    cells = {(c.corr_xy, c.variant): c for c in result.cells}

    # (a) covariate-blind model: |mean posterior effect| nondecreasing in
    # |corr|, at most one adjacent dip and only a small one
    drops = []
    for sign in (1.0, -1.0):
        path = [abs(cells[(sign * c, "B")].mean_cace) for c in (0.0, 0.3, 0.6)]
        drops += [lo - hi for lo, hi in zip(path, path[1:]) if hi < lo]
    assert len(drops) <= 1, f"bias not monotone: {drops}"
    assert all(d <= 0.1 * sigma_y for d in drops), f"dip too large: {drops}"

    # (b) at the strongest confounding the blind model flags a spurious
    # effect often while the covariate model rarely does
    frac_b = np.mean([cells[(c, "B")].frac_excluding_zero for c in (-0.6, 0.6)])
    frac_a = np.mean([cells[(c, "A")].frac_excluding_zero for c in (-0.6, 0.6)])
    assert frac_b >= 0.40, f"covariate-blind rejection rate {frac_b:.2f}"
    assert frac_a <= 0.10, f"covariate-model rejection rate {frac_a:.2f}"

    # (c) the covariate model stays nearly unbiased on the whole grid
    bias_a = max(abs(cells[(c, "A")].mean_cace) for c in mc.corr_grid)
    assert bias_a <= 0.15 * sigma_y, f"max |bias| {bias_a:.3f}"

    _passed(
        1,
        f"reps={MC_REPS}, blind-model rejections {frac_b:.2f}, "
        f"covariate-model rejections {frac_a:.2f}, max |bias| {bias_a:.2f}",
    )


def test_criterion_2_shading_direction():
    """Complier shading rises with x in the control-arm mixture, falls in
    the treated-arm mixture."""
    rng = RngStream(seed=31).generator()
    dataset, _ = generate_dataset(DgpConfig(corr_xy=0.3), rng)
    fit = run_model(
        dataset,
        ModelConfig(variant="A", burn_in=1000, kept=2000, thin=2,
                    n_chains=2, seed=31),
    )
    rho = {}
    for z in (0, 1):
        hist = shaded_histogram(fit, dataset, z=z)
        midpoints = 0.5 * (hist.bin_lo + hist.bin_hi)
        rho[z] = float(stats.spearmanr(midpoints, hist.shading).statistic)
    assert rho[0] >= 0.5, f"control-arm shading trend {rho[0]:.2f}"
    assert rho[1] <= -0.5, f"treated-arm shading trend {rho[1]:.2f}"
    _passed(2, f"spearman z=0 {rho[0]:+.2f}, z=1 {rho[1]:+.2f}")


# Outcome spreads are kept moderate on purpose: strongly bimodal outcomes
# make the n=6 label posterior metastable, which inflates the Monte Carlo
# error of a fixed-length run without changing what is being verified.
CRITERION_3_FIXTURES = (
    # balanced: every pattern present
    (877,
     (("p0", 0, 0, 40.0, 10.0), ("p1", 0, 0, 46.0, 16.0), ("p2", 0, 1, 44.0, 14.0),
      ("p3", 1, 1, 41.0, 11.0), ("p4", 1, 1, 47.0, 18.0), ("p5", 1, 0, 42.0, 13.0))),
    # trend: mixtures dominate, outcomes drift upward with the covariate
    (766,
     (("q0", 0, 0, 39.0, 9.0), ("q1", 0, 0, 42.0, 12.0), ("q2", 0, 0, 46.0, 15.0),
      ("q3", 1, 1, 47.0, 16.0), ("q4", 1, 1, 40.0, 10.0), ("q5", 1, 0, 41.0, 11.0))),
    # skewed: revealed strata outnumber one of the mixtures
    (322,
     (("r0", 0, 0, 44.0, 13.0), ("r1", 0, 1, 46.0, 17.0), ("r2", 0, 1, 45.0, 15.0),
      ("r3", 1, 1, 42.0, 12.0), ("r4", 1, 1, 47.0, 16.0), ("r5", 1, 0, 40.0, 11.0))),
)


def test_criterion_3_exact_posterior_agreement():
    """Gibbs per-patient complier probabilities match exact enumeration."""
    worst = 0.0
    for k, (seed, rows) in enumerate(CRITERION_3_FIXTURES):
        dataset = Dataset([PatientRecord(*row) for row in rows])
        config = ModelConfig(variant="D", seed=seed)
        fit = run_model(dataset, config)
        estimate = complier_probability_estimates(fit, dataset)
        exact = brute_force_posterior(
            dataset,
            resolve_outcome_priors(dataset, config.priors),
            dirichlet_concentration=config.priors.dirichlet_concentration,
        )
        gap = float(np.abs(estimate - exact.complier_prob).max())
        worst = max(worst, gap)
        assert gap < 0.02, f"fixture {k}: max |p_gibbs - p_exact| = {gap:.4f}"
    _passed(3, f"3 fixtures, worst per-patient gap {worst:.4f}")


def test_criterion_4_distribution_primitives():
    """Samplers reproduce closed-form moments within 4 standard errors."""
    rng = np.random.default_rng(404)
    n = 100_000

    # one-sided truncated normals against exact truncated-normal moments
    for mean, bound, above in ((0.0, 0.0, True), (0.0, 2.0, True),
                               (1.0, -1.0, False)):
        a, b = ((bound - mean, np.inf) if above else (-np.inf, bound - mean))
        exact_mean, exact_var = stats.truncnorm.stats(a, b, loc=mean, moments="mv")
        draws = truncated_normal_draws(
            np.full(n, mean), bound, np.full(n, above, dtype=bool), [rng]
        )
        assert abs(draws.mean() - exact_mean) < 4 * math.sqrt(exact_var / n)
        var_se = np.std((draws - exact_mean) ** 2) / math.sqrt(n)
        assert abs(draws.var() - exact_var) < 4 * var_se

    # conjugate linear regression against its closed-form posterior
    x = np.array([-1.5, -0.6, 0.0, 0.4, 1.1, 2.0])
    design = np.column_stack([np.ones_like(x), x])
    y = np.array([1.0, 1.8, 2.1, 2.6, 3.9, 5.2])
    prior = NormalLinearPrior(np.zeros(2), np.array([100.0, 25.0]))
    post_mean, post_cov = conjugate_linear_posterior(y, design, 2.0, prior)
    m = 30_000
    draws = np.array([
        sample_conjugate_linear(y, design, 2.0, prior, rng) for _ in range(m)
    ])
    for j in range(2):
        sd_j = math.sqrt(post_cov[j, j])
        assert abs(draws[:, j].mean() - post_mean[j]) < 4 * sd_j / math.sqrt(m)
        assert abs(draws[:, j].var() - sd_j**2) < 4 * sd_j**2 * math.sqrt(2.0 / m)

    # precision update against its gamma posterior
    m = 20_000
    prec = np.array([
        sample_precision_gamma(6.0, 4, 0.01, 0.01, [rng]) for _ in range(m)
    ])
    shape, rate = 0.01 + 2.0, 0.01 + 3.0
    g_mean, g_var = shape / rate, shape / rate**2
    assert abs(prec.mean() - g_mean) < 4 * math.sqrt(g_var / m)
    g_m4 = (3 * shape**2 + 6 * shape) / rate**4
    assert abs(prec.var() - g_var) < 4 * math.sqrt((g_m4 - g_var**2) / m)

    # proportion update against its Dirichlet posterior
    counts = np.array([2, 3, 5])
    alpha = counts + 1.0
    total = alpha.sum()
    probs = np.array([
        sample_dirichlet(counts, (1.0, 1.0, 1.0), [rng]) for _ in range(m)
    ])
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    for j in range(3):
        d_mean = alpha[j] / total
        d_var = alpha[j] * (total - alpha[j]) / (total**2 * (total + 1))
        assert abs(probs[:, j].mean() - d_mean) < 4 * math.sqrt(d_var / m)

    # the sweep's regression draw, fed the sums of the same design: one
    # chain drawing m regressions in one call
    m = 30_000
    sums = (x.size, x.sum(), (x * x).sum(), y.sum(), (x * y).sum())
    draws = sample_conjugate_sums_2(
        *(np.full(m, float(v)) for v in sums), 2.0, prior, [rng]
    )
    for j in range(2):
        sd_j = math.sqrt(post_cov[j, j])
        assert abs(draws[:, j].mean() - post_mean[j]) < 4 * sd_j / math.sqrt(m)
        assert abs(draws[:, j].var() - sd_j**2) < 4 * sd_j**2 * math.sqrt(2.0 / m)

    _passed(4, "truncated normal, conjugate linear (design and sums), gamma, dirichlet")


def test_criterion_5_convergence_diagnostic_calibration():
    """PSRF near 1 for same-distribution chains, above 1.06 when separated."""
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        value = compute_psrf(rng.standard_normal((3, 500)))
        hits += 0.99 <= value <= 1.05
    assert hits >= 99, f"only {hits}/100 trials inside [0.99, 1.05]"
    rng = np.random.default_rng(5)
    separated = rng.standard_normal((3, 500)) + np.array([[-5.0], [0.0], [5.0]])
    assert compute_psrf(separated) > 1.06
    _passed(5, f"{hits}/100 calibrated trials, separated chains flagged")


@pytest.mark.slow
def test_criterion_6_schedule_and_reproducibility(tmp_path):
    """Default schedule gives exactly 1500 pooled draws, byte-stable."""
    dataset, _ = generate_dataset(DgpConfig(n=40), RngStream(seed=61).generator())
    csv_path = tmp_path / "trial.csv"
    write_dataset_csv(dataset, csv_path)

    outs = [tmp_path / name for name in ("run1", "run2", "run3")]
    for out, workers in zip(outs, ("1", "1", "2")):
        code = main(
            ["fit", "--dataset", str(csv_path), "--out", str(out),
             "--seed", "61", "--workers", workers]
        )
        assert code == 0

    summary = json.loads((outs[0] / "summary.json").read_text())
    assert summary["n_pooled_draws"] == 1500
    n_rows = len((outs[0] / "draws.csv").read_text().splitlines()) - 1
    assert n_rows == 1500

    draws = (outs[0] / "draws.csv").read_bytes()
    assert (outs[1] / "draws.csv").read_bytes() == draws
    assert (outs[2] / "draws.csv").read_bytes() == draws
    summary_bytes = (outs[0] / "summary.json").read_bytes()
    assert (outs[1] / "summary.json").read_bytes() == summary_bytes
    assert (outs[2] / "summary.json").read_bytes() == summary_bytes
    _passed(6, "1500 pooled draws, reruns and worker counts byte-identical")


def test_criterion_7_margin_fixture_and_variant_coverage(tmp_path):
    """Margin-matched fixture round-trips exactly; every variant completes
    on it despite ~47% missing outcomes."""
    fixture = generate_matched_fixture(RngStream(seed=71).generator())
    path = tmp_path / "fixture.csv"
    write_dataset_csv(fixture, path)
    dataset = ingest_dataset(path)
    summaries = summarize_dataset(dataset)
    for margin in ORAL_SURGERY_MARGINS:
        got = summaries[margin.pattern]
        assert got.n == margin.n
        assert got.n_missing_y == margin.n_missing_y
        assert abs(got.x_mean - margin.x_mean) < 1e-9
    assert sorted(s.n for s in summaries.values()) == [9, 40, 40, 53]
    missing = sum(s.n_missing_y for s in summaries.values())
    assert 0.45 < missing / dataset.n < 0.49

    for k, variant in enumerate(ALL_VARIANTS):
        fit = run_model(
            dataset,
            ModelConfig(variant=variant, burn_in=500, kept=500, thin=5,
                        n_chains=2, seed=700 + k),
        )
        assert fit.chains, f"{variant}: all chains failed"
        stats_by_name = summarize_fit(fit)
        assert "cace" in stats_by_name
        for name, entry in stats_by_name.items():
            assert math.isfinite(entry.mean), f"{variant}: {name} mean"
            assert math.isfinite(entry.sd), f"{variant}: {name} sd"
    _passed(7, f"margins exact, {missing}/{dataset.n} outcomes missing, "
               "all 5 variants finite")
