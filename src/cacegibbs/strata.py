"""Stratum-membership models: linked probits, multinomial logit, plain proportions.

Stratum labels use integer codes COMPLIER=0, NEVER_TAKER=1, ALWAYS_TAKER=2
throughout; probability tuples are ordered (complier, never-taker,
always-taker) to match.

Every coefficient array may carry trailing draw axes after its coefficient
axis (``beta`` of shape (4, D, 1), say): broadcasting against covariates of
shape (n,) then evaluates all D saved draws at once as (D, n) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

from .distributions import (
    NormalLinearPrior,
    sample_conjugate_sums_2,
    sample_dirichlet,
    truncated_normal_draws,
)

COMPLIER = 0
NEVER_TAKER = 1
ALWAYS_TAKER = 2


@dataclass(frozen=True)
class ProbitStratumParams:
    """Coefficients of the two linked probit equations.

    beta = (b_n0, b_n1, b_c0, b_c1): the first pair drives the never-taker
    split, the second the always-vs-complier split among non-never-takers.
    """

    beta: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        if beta.shape[:1] != (4,):
            raise ValueError("beta must have four entries")
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class MlogitStratumParams:
    """Multinomial-logit stratum coefficients, complier as reference.

    gamma_n and gamma_a are (intercept, slope) pairs for the never-taker
    and always-taker scores; the complier score is pinned at zero.
    """

    gamma_n: np.ndarray
    gamma_a: np.ndarray

    def __post_init__(self):
        for name in ("gamma_n", "gamma_a"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape[:1] != (2,):
                raise ValueError(f"{name} must have two entries")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class StratumProportions:
    """Covariate-free stratum probabilities (complier, never, always)."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if pi.shape[:1] != (3,):
            raise ValueError("pi must have three entries")
        if np.any(pi < 0) or np.any(np.abs(pi.sum(axis=0) - 1.0) > 1e-8):
            raise ValueError("pi must be a probability vector")
        object.__setattr__(self, "pi", pi)


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


def log_stratum_probs(x, params):
    """Log stratum probabilities (complier, never, always).

    Stays finite far into the tails where the linear probabilities underflow,
    which keeps membership draws well defined for overdispersed chain starts.
    This is the one membership kernel: the sweep's membership draw, the
    logit likelihood and the diagnostics (over all saved draws) all use it.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(params, ProbitStratumParams):
        b = params.beta
        eta_n = b[0] + b[1] * x
        eta_a = b[2] + b[3] * x
        log_phi_n = log_ndtr(eta_n)
        return (
            log_phi_n + log_ndtr(-eta_a),
            log_ndtr(-eta_n),
            log_phi_n + log_ndtr(eta_a),
        )
    if isinstance(params, MlogitStratumParams):
        score_n = params.gamma_n[0] + params.gamma_n[1] * x
        score_a = params.gamma_a[0] + params.gamma_a[1] * x
        score_c = np.zeros_like(score_n)
        m = np.maximum(np.maximum(score_n, score_a), score_c)
        norm = m + np.log(
            np.exp(score_n - m) + np.exp(score_a - m) + np.exp(score_c - m)
        )
        return score_c - norm, score_n - norm, score_a - norm
    if isinstance(params, StratumProportions):
        ones = np.ones_like(x)
        with np.errstate(divide="ignore"):
            log_pi = np.log(params.pi)
        return log_pi[0] * ones, log_pi[1] * ones, log_pi[2] * ones
    raise TypeError(f"unknown stratum parameter type {type(params)!r}")


def sample_latent_utilities(labels, x, params: ProbitStratumParams, rng):
    """Draw the probit latent utilities consistent with the current labels.

    Returns (u_never, u_split).  u_never is drawn for every patient:
    nonpositive for never-takers, positive otherwise.  u_split exists only
    for non-never-takers (NaN elsewhere): nonpositive for compliers,
    positive for always-takers.  Underflowed truncations are clamped just
    past the bound so extreme transient coefficients cannot kill a chain.
    """
    labels = np.asarray(labels)
    x = np.asarray(x, dtype=float)
    b = params.beta
    eta_n = b[0] + b[1] * x
    above_n = labels != NEVER_TAKER
    u_never = truncated_normal_draws(eta_n, 0.0, above_n, rng)

    not_never = labels != NEVER_TAKER
    u_split = np.full(x.shape, np.nan)
    if not_never.any():
        eta_c = b[2] + b[3] * x[not_never]
        above_c = labels[not_never] == ALWAYS_TAKER
        u_split[not_never] = truncated_normal_draws(eta_c, 0.0, above_c, rng)
    return u_never, u_split


def update_probit_beta(u_never, u_split, x, prior_variance, rng):
    """Conjugate draw of all four probit coefficients given latent utilities.

    Both equations are unit-noise linear regressions of a utility on (1, x);
    the split equation uses only rows where u_split is present.  Coefficients
    are a priori independent N(0, prior_variance).
    """
    x = np.asarray(x, dtype=float)
    prior = NormalLinearPrior(np.zeros(2), np.full(2, float(prior_variance)))

    n = x.size
    b_n = sample_conjugate_sums_2(
        n,
        float(x.sum()),
        float((x * x).sum()),
        float(u_never.sum()),
        float((x * u_never).sum()),
        1.0,
        prior,
        rng,
    )
    mask = ~np.isnan(u_split)
    xs = x[mask]
    us = u_split[mask]
    b_c = sample_conjugate_sums_2(
        int(mask.sum()),
        float(xs.sum()),
        float((xs * xs).sum()),
        float(us.sum()),
        float((xs * us).sum()),
        1.0,
        prior,
        rng,
    )
    return ProbitStratumParams(np.concatenate([b_n, b_c]))


def mlogit_log_likelihood(labels, x, params: MlogitStratumParams) -> float:
    """Log likelihood of the current labels under the multinomial logit."""
    log_probs = np.stack(log_stratum_probs(x, params), axis=0)
    return float(log_probs[np.asarray(labels), np.arange(len(labels))].sum())


def _gaussian_log_prior(coefs, prior_variance):
    return float(-0.5 * np.sum(coefs * coefs) / prior_variance)


@dataclass
class MlogitProposal:
    """Random-walk proposal scales with burn-in acceptance tracking."""

    sd_n: np.ndarray
    sd_a: np.ndarray
    accepted: np.ndarray  # per block
    attempted: np.ndarray

    @classmethod
    def default(cls):
        return cls(
            sd_n=np.array([0.5, 0.05]),
            sd_a=np.array([0.5, 0.05]),
            accepted=np.zeros(2),
            attempted=np.zeros(2),
        )

    def adapt(self, low=0.3, high=0.5, factor=1.25):
        """Rescale each block toward the target acceptance window, then reset."""
        for i, sd in enumerate((self.sd_n, self.sd_a)):
            if self.attempted[i] == 0:
                continue
            rate = self.accepted[i] / self.attempted[i]
            if rate > high:
                sd *= factor
            elif rate < low:
                sd /= factor
        self.accepted[:] = 0.0
        self.attempted[:] = 0.0


def update_mlogit_gamma(
    params: MlogitStratumParams,
    labels,
    x,
    prior_variance,
    rng,
    proposal: MlogitProposal,
):
    """One Metropolis sweep over the two logit coefficient blocks.

    Each block gets a Gaussian random-walk proposal accepted against the
    label likelihood times the N(0, prior_variance) prior.  Acceptance
    counts accumulate in ``proposal`` for burn-in adaptation.
    """
    labels = np.asarray(labels)
    x = np.asarray(x, dtype=float)
    gamma_n = params.gamma_n.copy()
    gamma_a = params.gamma_a.copy()

    cur_ll = mlogit_log_likelihood(labels, x, MlogitStratumParams(gamma_n, gamma_a))
    for block, (gamma, sd) in enumerate(
        ((gamma_n, proposal.sd_n), (gamma_a, proposal.sd_a))
    ):
        cand = gamma + sd * rng.standard_normal(2)
        if block == 0:
            cand_params = MlogitStratumParams(cand, gamma_a)
        else:
            cand_params = MlogitStratumParams(gamma_n, cand)
        cand_ll = mlogit_log_likelihood(labels, x, cand_params)
        log_ratio = (
            cand_ll
            - cur_ll
            + _gaussian_log_prior(cand, prior_variance)
            - _gaussian_log_prior(gamma, prior_variance)
        )
        proposal.attempted[block] += 1
        if np.log(rng.uniform()) < log_ratio:
            gamma[:] = cand
            cur_ll = cand_ll
            proposal.accepted[block] += 1
    return MlogitStratumParams(gamma_n, gamma_a)


def update_proportions(labels, concentration, rng) -> StratumProportions:
    """Conjugate Dirichlet draw of the covariate-free stratum proportions."""
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=3).astype(float)
    return StratumProportions(sample_dirichlet(counts, concentration, rng))
