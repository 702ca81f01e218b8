"""Distribution primitive checks against frozen oracle values and moments."""

import numpy as np
import pytest
from scipy.stats import truncnorm

from cacegibbs.distributions import (
    NormalLinearPrior,
    RngStream,
    conjugate_linear_posterior,
    derive_seed,
    sample_conjugate_linear,
    sample_conjugate_sums_2,
    sample_dirichlet,
    sample_precision_gamma,
    truncated_normal_draws,
)
from cacegibbs.errors import SingularPosteriorError


def test_rng_stream_reproducible():
    a = RngStream(seed=42, stream_id=3).generator().standard_normal(100)
    b = RngStream(seed=42, stream_id=3).generator().standard_normal(100)
    c = RngStream(seed=42, stream_id=4).generator().standard_normal(100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_seed_stable_and_keyed():
    s1 = derive_seed(7, 1, 2)
    s2 = derive_seed(7, 1, 2)
    s3 = derive_seed(7, 2, 1)
    assert s1 == s2
    assert s1 != s3
    assert 0 <= s1 < 2**63


def test_truncated_tail_mean_matches_inverse_mills():
    """mean 0, sd 1, truncated above 2: mean is phi(2)/(1-Phi(2))."""
    rng = RngStream(seed=1).generator()
    draws = truncated_normal_draws(np.zeros(20000), 2.0, np.ones(20000, bool), rng)
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - 2.373215532822843) < 4 * se
    assert np.all(draws > 2.0)


def test_truncated_half_normal_moments():
    rng = RngStream(seed=2).generator()
    means = np.zeros(100000)
    draws = truncated_normal_draws(means, 0.0, np.ones(means.size, dtype=bool), rng)
    n = draws.size
    assert abs(draws.mean() - 0.7978845608028654) < 4 * 0.6028102749890869 / np.sqrt(n)
    # sd of the half normal
    assert abs(draws.std(ddof=1) - 0.6028102749890869) < 0.01
    assert np.all(draws > 0.0)


def test_truncated_below_by_symmetry():
    rng = RngStream(seed=3).generator()
    draws = truncated_normal_draws(np.zeros(20000), 0.0, np.zeros(20000, bool), rng)
    assert np.all(draws < 0.0)
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() + 0.7978845608028654) < 4 * se


def test_truncated_moments_vs_exact_sweep():
    """20 random unit-variance configurations against exact moments.

    Means and bounds in [-6, 6] put some truncations more than 5 standard
    deviations into the tail, where the rejection sampler takes over.
    """
    rng = RngStream(seed=4).generator()
    cfg_rng = RngStream(seed=5).generator()
    n_tail = 0
    for _ in range(20):
        mean = cfg_rng.uniform(-6, 6)
        cfg_rng.uniform(0.3, 4.0)  # a scale draw, unused at unit variance
        bound = cfg_rng.uniform(-6, 6)
        above = bool(cfg_rng.uniform() < 0.5)
        n_tail += (bound - mean if above else mean - bound) > 5.0
        if above:
            dist = truncnorm(bound - mean, np.inf, loc=mean)
        else:
            dist = truncnorm(-np.inf, bound - mean, loc=mean)
        n = 4000
        draws = truncated_normal_draws(np.full(n, mean), bound, np.full(n, above), rng)
        exact_mean, exact_var = dist.stats(moments="mv")
        se = np.sqrt(float(exact_var) / n)
        assert abs(draws.mean() - float(exact_mean)) < 4 * se
        if above:
            assert np.all(draws > bound)
        else:
            assert np.all(draws < bound)
    assert n_tail > 0


def test_truncated_vacuous_bound_is_standard_normal():
    rng = RngStream(seed=6).generator()
    means = np.zeros(50000)
    draws = truncated_normal_draws(means, -12.0, np.ones(means.size, dtype=bool), rng)
    n = draws.size
    assert abs(draws.mean()) < 4 / np.sqrt(n)
    assert abs(draws.std(ddof=1) - 1.0) < 0.02


def test_truncated_degenerate_raises_and_clamps():
    rng = RngStream(seed=7).generator()
    # an underflowed region is clamped so a chain survives a wild state
    draws = truncated_normal_draws(np.zeros(3), 40.0, np.ones(3, dtype=bool), rng)
    assert np.allclose(draws, 40.0 + 1e-8)
    draws = truncated_normal_draws(np.zeros(3), -40.0, np.zeros(3, dtype=bool), rng)
    assert np.allclose(draws, -40.0 - 1e-8)


def test_conjugate_linear_posterior_vs_quadrature():
    """Closed-form posterior of (intercept, slope) against 2-D grid integration."""
    rng = RngStream(seed=8).generator()
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    y = np.array([1.0, 2.2, 2.8, 4.1, 5.2])
    design = np.column_stack([np.ones(5), x])
    prior = NormalLinearPrior(np.array([0.0, 0.0]), np.array([4.0, 4.0]))
    noise = 0.5
    mean, cov = conjugate_linear_posterior(y, design, noise, prior)

    # independent oracle: normalized moments on a dense grid
    a = np.linspace(mean[0] - 6 * np.sqrt(cov[0, 0]), mean[0] + 6 * np.sqrt(cov[0, 0]), 401)
    b = np.linspace(mean[1] - 6 * np.sqrt(cov[1, 1]), mean[1] + 6 * np.sqrt(cov[1, 1]), 401)
    aa, bb = np.meshgrid(a, b, indexing="ij")
    resid = y[None, None, :] - (aa[..., None] + bb[..., None] * x[None, None, :])
    log_post = (
        -0.5 * (resid**2).sum(axis=-1) / noise
        - 0.5 * aa**2 / 4.0
        - 0.5 * bb**2 / 4.0
    )
    w = np.exp(log_post - log_post.max())
    w /= w.sum()
    grid_mean = np.array([(w * aa).sum(), (w * bb).sum()])
    assert np.allclose(mean, grid_mean, atol=1e-4)
    grid_var_a = (w * (aa - grid_mean[0]) ** 2).sum()
    grid_var_b = (w * (bb - grid_mean[1]) ** 2).sum()
    grid_cov = (w * (aa - grid_mean[0]) * (bb - grid_mean[1])).sum()
    assert cov[0, 0] == pytest.approx(grid_var_a, rel=1e-3)
    assert cov[1, 1] == pytest.approx(grid_var_b, rel=1e-3)
    assert cov[0, 1] == pytest.approx(grid_cov, rel=1e-3)

    draws = np.array(
        [sample_conjugate_linear(y, design, noise, prior, rng) for _ in range(20000)]
    )
    assert np.allclose(draws.mean(axis=0), mean, atol=4 * np.sqrt(np.diag(cov) / 20000))


def test_conjugate_linear_no_rows_draws_prior():
    rng = RngStream(seed=9).generator()
    prior = NormalLinearPrior(np.array([2.0, -1.0]), np.array([9.0, 0.25]))
    design = np.empty((0, 2))
    y = np.empty(0)
    draws = np.array(
        [sample_conjugate_linear(y, design, 1.0, prior, rng) for _ in range(20000)]
    )
    assert abs(draws[:, 0].mean() - 2.0) < 4 * 3.0 / np.sqrt(20000)
    assert abs(draws[:, 1].mean() + 1.0) < 4 * 0.5 / np.sqrt(20000)
    assert abs(draws[:, 0].std(ddof=1) - 3.0) < 0.1
    assert abs(draws[:, 1].std(ddof=1) - 0.5) < 0.02


def test_sums_based_draw_matches_design_based_posterior():
    rng = RngStream(seed=10).generator()
    x = np.array([1.0, 2.0, 4.0, 4.5, 7.0, 9.0])
    y = np.array([2.0, 2.5, 4.9, 5.4, 8.1, 9.7])
    design = np.column_stack([np.ones(x.size), x])
    prior = NormalLinearPrior(np.array([0.5, 0.0]), np.array([100.0, 100.0]))
    noise = 2.0
    mean, cov = conjugate_linear_posterior(y, design, noise, prior)
    n = x.size
    draws = np.array(
        [
            sample_conjugate_sums_2(
                n, x.sum(), (x * x).sum(), y.sum(), (x * y).sum(), noise, prior, rng
            )
            for _ in range(30000)
        ]
    )
    assert np.allclose(
        draws.mean(axis=0), mean, atol=4 * np.sqrt(np.diag(cov) / 30000)
    )
    sample_cov = np.cov(draws.T)
    assert np.allclose(sample_cov, cov, rtol=0.08, atol=1e-4)


def test_constant_covariate_still_draws_finite():
    # collinear design is rescued by the proper prior
    rng = RngStream(seed=11).generator()
    prior = NormalLinearPrior(np.array([0.0, 0.0]), np.array([100.0, 100.0]))
    draw = sample_conjugate_sums_2(4.0, 12.0, 36.0, 8.0, 24.0, 1.0, prior, rng)
    assert np.all(np.isfinite(draw))


def test_singular_posterior_raises():
    rng = RngStream(seed=12).generator()
    prior = NormalLinearPrior(np.array([0.0, 0.0]), np.array([1e300, 1e300]))
    with pytest.raises(SingularPosteriorError):
        sample_conjugate_sums_2(4.0, 12.0, 36.0, 8.0, 24.0, 1.0, prior, rng)


def test_precision_gamma_moments():
    """residual ss 6 over 4 points: posterior Gamma(2.01, rate 3.01)."""
    rng = RngStream(seed=13).generator()
    draws = np.array(
        [sample_precision_gamma(6.0, 4, 0.01, 0.01, rng) for _ in range(100000)]
    )
    target_mean = 2.01 / 3.01
    target_sd = np.sqrt(2.01) / 3.01
    assert abs(draws.mean() - target_mean) < 4 * target_sd / np.sqrt(draws.size)
    assert abs(draws.std(ddof=1) - target_sd) < 0.01
    assert np.all(draws > 0)


def test_dirichlet_moments_and_simplex():
    rng = RngStream(seed=14).generator()
    counts = np.array([2.0, 3.0, 5.0])
    conc = np.array([1.0, 1.0, 1.0])
    draws = np.array([sample_dirichlet(counts, conc, rng) for _ in range(50000)])
    assert np.allclose(draws.sum(axis=1), 1.0, atol=1e-12)
    target = np.array([3.0, 4.0, 6.0]) / 13.0
    sd = np.sqrt(target * (1 - target) / 14.0)
    assert np.all(np.abs(draws.mean(axis=0) - target) < 4 * sd / np.sqrt(draws.size))
