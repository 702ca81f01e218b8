"""Stratum-membership model checks: probabilities, latent utilities, updates."""

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import chisquare, ks_2samp

from cacegibbs.distributions import (
    NormalLinearPrior,
    RngStream,
    conjugate_linear_posterior,
)
from cacegibbs.strata import (
    ALWAYS_TAKER,
    COMPLIER,
    NEVER_TAKER,
    MlogitProposal,
    MlogitStratumParams,
    ProbitStratumParams,
    StratumProportions,
    log_stratum_probs,
    mlogit_log_likelihood,
    sample_latent_utilities,
    update_mlogit_gamma,
    update_probit_beta,
    update_proportions,
)

PHI_1 = 0.8413447460685429  # standard normal CDF at 1


# Linear-space stratum probabilities: an oracle for the log-space kernel
# ``log_stratum_probs`` that the sampler and the diagnostics use.


def stratum_probs_probit(x, params: ProbitStratumParams):
    """Stratum probabilities (complier, never, always) under the linked probits.

    The always-taker probability is the residual 1 - p_never - p_complier,
    written in its cancellation-free product form Phi(eta_n) * Phi(eta_a).
    """
    x = np.asarray(x, dtype=float)
    b = params.beta
    phi_n = ndtr(b[0] + b[1] * x)  # P(not never-taker)
    phi_a = ndtr(b[2] + b[3] * x)  # P(always | not never-taker)
    p_never = 1.0 - phi_n
    p_complier = phi_n * (1.0 - phi_a)
    p_always = phi_n * phi_a
    return p_complier, p_never, p_always


def stratum_probs_mlogit(x, params: MlogitStratumParams):
    """Stratum probabilities under the multinomial logit, complier reference."""
    x = np.asarray(x, dtype=float)
    score_n = params.gamma_n[0] + params.gamma_n[1] * x
    score_a = params.gamma_a[0] + params.gamma_a[1] * x
    score_c = np.zeros_like(score_n)
    m = np.maximum(np.maximum(score_n, score_a), score_c)
    e_c = np.exp(score_c - m)
    e_n = np.exp(score_n - m)
    e_a = np.exp(score_a - m)
    total = e_c + e_n + e_a
    return e_c / total, e_n / total, e_a / total


def stratum_probs(x, params):
    """Dispatch to the probability rule matching the parameter type."""
    if isinstance(params, ProbitStratumParams):
        return stratum_probs_probit(x, params)
    if isinstance(params, MlogitStratumParams):
        return stratum_probs_mlogit(x, params)
    if isinstance(params, StratumProportions):
        x = np.asarray(x, dtype=float)
        ones = np.ones_like(x)
        return params.pi[0] * ones, params.pi[1] * ones, params.pi[2] * ones
    raise TypeError(f"unknown stratum parameter type {type(params)!r}")


def _oracle_and_kernel(x, params):
    """The oracle's probabilities and the log-space kernel's, exponentiated."""
    return stratum_probs(x, params), np.exp(log_stratum_probs(x, params))


def test_probit_probs_frozen_point():
    params = ProbitStratumParams(np.array([1.0, 0.0, 1.0, 0.0]))
    for p_c, p_n, p_a in _oracle_and_kernel(np.array([3.7]), params):
        assert p_n[0] == pytest.approx(1.0 - PHI_1, abs=1e-12)
        assert p_c[0] == pytest.approx(PHI_1 * (1.0 - PHI_1), abs=1e-12)
        assert p_a[0] == pytest.approx(PHI_1 * PHI_1, abs=1e-12)
        assert p_c[0] + p_n[0] + p_a[0] == pytest.approx(1.0, abs=1e-12)


def test_probit_probs_slope_direction():
    # positive slopes: high x pushes mass from never toward always
    params = ProbitStratumParams(np.array([-3.8, 0.3, -4.9, 0.3]))
    x = np.array([5.0, 20.0])
    for p_c, p_n, p_a in _oracle_and_kernel(x, params):
        assert p_n[0] > p_n[1]
        assert p_a[0] < p_a[1]


def test_mlogit_probs_frozen_softmax():
    params = MlogitStratumParams(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    for p_c, p_n, p_a in _oracle_and_kernel(np.array([0.0]), params):
        assert p_c[0] == pytest.approx(0.24472847105479767, abs=1e-12)
        assert p_n[0] == pytest.approx(0.6652409557748219, abs=1e-12)
        assert p_a[0] == pytest.approx(0.09003057317038046, abs=1e-12)


def test_proportions_broadcast():
    params = StratumProportions(np.array([0.2, 0.5, 0.3]))
    x = np.linspace(0, 10, 7)
    p_c, p_n, p_a = stratum_probs(x, params)
    assert np.all(p_c == 0.2) and np.all(p_n == 0.5) and np.all(p_a == 0.3)
    assert p_c.shape == x.shape
    for logged, p in zip(log_stratum_probs(x, params), (0.2, 0.5, 0.3)):
        assert logged.shape == x.shape and np.allclose(np.exp(logged), p, atol=1e-15)


def test_proportions_validation():
    with pytest.raises(ValueError):
        StratumProportions(np.array([0.5, 0.6, 0.2]))
    with pytest.raises(ValueError):
        StratumProportions(np.array([-0.1, 0.6, 0.5]))


def test_log_probs_agree_with_linear_at_moderate_scores():
    x = np.linspace(-3, 3, 13)
    for params in (
        ProbitStratumParams(np.array([0.4, -0.2, -0.3, 0.5])),
        MlogitStratumParams(np.array([0.5, 0.2]), np.array([-0.4, 0.1])),
        StratumProportions(np.array([0.3, 0.45, 0.25])),
    ):
        lin = stratum_probs(x, params)
        logd = log_stratum_probs(x, params)
        for linear, logged in zip(lin, logd):
            assert np.allclose(logged, np.log(linear), atol=1e-12)


def test_log_probs_finite_in_extreme_tails():
    x = np.array([-1e4, -50.0, 0.0, 50.0, 1e4])
    probit = ProbitStratumParams(np.array([0.0, 1.0, 0.0, -1.0]))
    mlogit = MlogitStratumParams(np.array([0.0, 2.0]), np.array([0.0, -2.0]))
    for params in (probit, mlogit):
        for logged in log_stratum_probs(x, params):
            assert not np.any(np.isnan(logged))
            assert np.all(logged <= 0.0)
    # zero-probability proportions hit -inf but never NaN
    degenerate = StratumProportions(np.array([0.0, 0.5, 0.5]))
    log_c, log_n, log_a = log_stratum_probs(np.array([1.0]), degenerate)
    assert np.isneginf(log_c[0]) and np.isfinite(log_n[0])


def test_latent_utilities_respect_label_constraints():
    rng = RngStream(seed=31).generator()
    n = 3000
    labels = rng.integers(0, 3, size=n).astype(np.int8)
    x = rng.normal(size=n)
    params = ProbitStratumParams(np.array([0.3, 0.1, -0.2, 0.4]))
    u_never, u_split = sample_latent_utilities(labels[None], x[None], params, [rng])
    u_never, u_split = u_never[0], u_split[0]
    never = labels == NEVER_TAKER
    assert np.all(u_never[never] <= 0.0)
    assert np.all(u_never[~never] > 0.0)
    assert np.all(np.isnan(u_split[never]))
    assert np.all(u_split[labels == COMPLIER] <= 0.0)
    assert np.all(u_split[labels == ALWAYS_TAKER] > 0.0)


def test_latent_utility_magnitudes_half_normal_at_zero_coefficients():
    rng = RngStream(seed=32).generator()
    n = 60000
    labels = rng.integers(0, 3, size=n).astype(np.int8)
    x = rng.normal(size=n)
    params = ProbitStratumParams(np.zeros(4))
    u_never, u_split = sample_latent_utilities(labels[None], x[None], params, [rng])
    target = 0.7978845608028654  # mean of |N(0,1)|
    assert abs(np.abs(u_never).mean() - target) < 4 * 0.6028102749890869 / np.sqrt(n)
    mags = np.abs(u_split[~np.isnan(u_split)])
    assert abs(mags.mean() - target) < 4 * 0.6028102749890869 / np.sqrt(mags.size)


def test_probit_update_recovers_generating_coefficients():
    """Conditioned on true utilities, the posterior concentrates on the truth."""
    rng = RngStream(seed=33).generator()
    n = 10000
    x = rng.normal(0.0, 2.0, size=n)
    beta = np.array([0.5, 0.1, -0.3, 0.05])
    u_never = beta[0] + beta[1] * x + rng.standard_normal(n)
    labels = np.where(u_never <= 0, NEVER_TAKER, COMPLIER).astype(np.int8)
    not_never = labels != NEVER_TAKER
    u_split = np.full(n, np.nan)
    u_split[not_never] = (
        beta[2] + beta[3] * x[not_never] + rng.standard_normal(int(not_never.sum()))
    )
    labels[not_never & (u_split > 0)] = ALWAYS_TAKER

    prior_variance = 5.0
    draws = np.array(
        [
            update_probit_beta(u_never[None], u_split[None], x[None], prior_variance, [rng])
            .beta[:, 0, 0]
            for _ in range(300)
        ]
    )
    prior = NormalLinearPrior(np.zeros(2), np.full(2, prior_variance))
    mean_n, cov_n = conjugate_linear_posterior(
        u_never, np.column_stack([np.ones(n), x]), 1.0, prior
    )
    xs = x[not_never]
    mean_c, cov_c = conjugate_linear_posterior(
        u_split[not_never], np.column_stack([np.ones(xs.size), xs]), 1.0, prior
    )
    exact_mean = np.concatenate([mean_n, mean_c])
    exact_sd = np.sqrt(np.concatenate([np.diag(cov_n), np.diag(cov_c)]))
    # the sampler reproduces the exact conditional posterior
    assert np.all(np.abs(draws.mean(axis=0) - exact_mean) < 5 * exact_sd / np.sqrt(300))
    # and that posterior sits on the generating coefficients
    assert np.all(np.abs(exact_mean - beta) < 5 * exact_sd)


def test_probit_gibbs_matches_direct_posterior_sampler():
    """Utility-augmented Gibbs and a collapsed random-walk sampler target the
    same label posterior; their coefficient marginals must agree."""
    rng = RngStream(seed=34).generator()
    x = np.array([-1.2, -0.5, 0.0, 0.4, 0.9, 1.5])
    labels = np.array(
        [COMPLIER, NEVER_TAKER, ALWAYS_TAKER, COMPLIER, NEVER_TAKER, ALWAYS_TAKER],
        dtype=np.int8,
    )
    prior_variance = 5.0

    params = ProbitStratumParams(np.zeros(4))
    gibbs = []
    for sweep in range(30000):
        u_never, u_split = sample_latent_utilities(labels[None], x[None], params, [rng])
        params = update_probit_beta(u_never, u_split, x[None], prior_variance, [rng])
        if sweep >= 2000 and sweep % 14 == 0:
            gibbs.append(params.beta[:, 0, 0])
    gibbs = np.array(gibbs)

    def log_post(beta):
        p = ProbitStratumParams(beta)
        log_c, log_n, log_a = log_stratum_probs(x, p)
        by_label = np.stack([log_c, log_n, log_a], axis=0)
        ll = float(by_label[labels, np.arange(x.size)].sum())
        return ll - 0.5 * float(beta @ beta) / prior_variance

    beta = np.zeros(4)
    cur = log_post(beta)
    direct = []
    for sweep in range(60000):
        cand = beta + 0.8 * rng.standard_normal(4)
        cand_lp = log_post(cand)
        if np.log(rng.uniform()) < cand_lp - cur:
            beta, cur = cand, cand_lp
        if sweep >= 2000 and sweep % 28 == 0:
            direct.append(beta.copy())
    direct = np.array(direct)

    for j in range(4):
        pooled_sd = np.sqrt(0.5 * (gibbs[:, j].var() + direct[:, j].var()))
        assert abs(gibbs[:, j].mean() - direct[:, j].mean()) < 0.12 * pooled_sd
        ratio = gibbs[:, j].std() / direct[:, j].std()
        assert 0.85 < ratio < 1.18
        stat = ks_2samp(gibbs[:, j], direct[:, j]).statistic
        assert stat < 0.06


def test_mlogit_update_preserves_prior_without_data():
    """With an empty label vector the Metropolis target is the prior."""
    rng = RngStream(seed=35).generator()
    labels = np.zeros((1, 0), dtype=np.int8)
    x = np.zeros((1, 0))
    prior_variance = 1.0
    params = MlogitStratumParams(np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))
    proposal = MlogitProposal.default(1)
    draws = []
    for sweep in range(40000):
        params = update_mlogit_gamma(params, labels, x, prior_variance, [rng], proposal)
        if sweep < 4000:
            if sweep % 100 == 99:
                proposal.adapt()
        elif sweep % 10 == 0:
            draws.append(np.concatenate([params.gamma_n, params.gamma_a])[:, 0, 0])
    draws = np.array(draws)
    assert np.all(np.abs(draws.mean(axis=0)) < 0.12)
    assert np.all(np.abs(draws.std(axis=0) - 1.0) < 0.12)


def test_mlogit_proposal_adaptation_bounds():
    proposal = MlogitProposal.default(1)
    sd0 = proposal.sd_n.copy()
    proposal.attempted[:] = 100
    proposal.accepted[:] = 90  # above the 0.5 ceiling: widen
    proposal.adapt()
    assert np.allclose(proposal.sd_n, sd0 * 1.25)
    assert proposal.attempted[0, 0] == 0 and proposal.accepted[0, 0] == 0
    proposal.attempted[:] = 100
    proposal.accepted[:] = 10  # below the 0.3 floor: shrink
    proposal.adapt()
    assert np.allclose(proposal.sd_n, sd0)
    proposal.attempted[:] = 100
    proposal.accepted[:] = 40  # inside the window: unchanged
    proposal.adapt()
    assert np.allclose(proposal.sd_n, sd0)


def test_mlogit_update_recovers_generating_coefficients():
    rng = RngStream(seed=36).generator()
    n = 4000
    x = rng.normal(0.0, 1.5, size=n)
    truth = MlogitStratumParams(np.array([0.6, -0.4]), np.array([-0.5, 0.7]))
    p_c, p_n, p_a = stratum_probs_mlogit(x, truth)
    u = rng.uniform(size=n)
    labels = np.where(u < p_c, COMPLIER, np.where(u < p_c + p_n, NEVER_TAKER, ALWAYS_TAKER)).astype(np.int8)

    params = MlogitStratumParams(np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))
    proposal = MlogitProposal.default(1)
    kept = []
    for sweep in range(12000):
        params = update_mlogit_gamma(params, labels[None], x[None], 5.0, [rng], proposal)
        if sweep < 3000:
            if sweep % 100 == 99:
                proposal.adapt()
        elif sweep % 5 == 0:
            kept.append(np.concatenate([params.gamma_n, params.gamma_a])[:, 0, 0])
    kept = np.array(kept)
    est = kept.mean(axis=0)
    target = np.concatenate([truth.gamma_n, truth.gamma_a])
    assert np.all(np.abs(est - target) < np.array([0.25, 0.2, 0.25, 0.2]))


def test_mlogit_log_likelihood_matches_manual():
    params = MlogitStratumParams(np.array([0.3, 0.1]), np.array([-0.2, 0.05]))
    x = np.array([1.0, 2.0, 3.0])
    labels = np.array([COMPLIER, NEVER_TAKER, ALWAYS_TAKER])
    p_c, p_n, p_a = stratum_probs_mlogit(x, params)
    manual = np.log(p_c[0]) + np.log(p_n[1]) + np.log(p_a[2])
    assert mlogit_log_likelihood(labels, x, params) == pytest.approx(manual, abs=1e-12)


def test_update_proportions_is_conjugate_dirichlet():
    rng = RngStream(seed=37).generator()
    labels = np.array([0, 0, 1, 2, 2, 2], dtype=np.int8)
    conc = np.array([1.0, 1.0, 1.0])
    draws = np.array(
        [update_proportions(labels[None], conc, [rng]).pi[:, 0, 0] for _ in range(40000)]
    )
    target = np.array([3.0, 2.0, 4.0]) / 9.0
    sd = np.sqrt(target * (1 - target) / 10.0)
    assert np.all(np.abs(draws.mean(axis=0) - target) < 4 * sd / np.sqrt(draws.shape[0]))


def test_membership_draws_match_probabilities_chi_square():
    """Labels drawn from the probit probabilities pass a goodness-of-fit check."""
    rng = RngStream(seed=38).generator()
    params = ProbitStratumParams(np.array([0.5, 0.0, -0.2, 0.0]))
    p_c, p_n, p_a = stratum_probs_probit(np.zeros(1), params)
    probs = np.array([p_c[0], p_n[0], p_a[0]])
    n = 30000
    u = rng.uniform(size=n)
    labels = np.where(u < probs[0], 0, np.where(u < probs[0] + probs[1], 1, 2))
    counts = np.bincount(labels, minlength=3)
    stat, pval = chisquare(counts, probs * n)
    assert pval > 0.001
