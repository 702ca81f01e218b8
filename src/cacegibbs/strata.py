"""Stratum-membership models: linked probits, multinomial logit, plain proportions.

Stratum labels use integer codes COMPLIER=0, NEVER_TAKER=1, ALWAYS_TAKER=2
throughout; probability tuples are ordered (complier, never-taker,
always-taker) to match.

Every coefficient array may carry trailing draw axes after its coefficient
axis (``beta`` of shape (4, D, 1), say): broadcasting against covariates of
shape (n,) then evaluates all D saved draws at once as (D, n) arrays.  The
sweep holds K chains this way, as (K, 1) trailing axes against (K, n)
labels; the updates below take such a batch with one generator per chain
(``distributions``), or a lone chain with a lone generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

from .distributions import (
    NormalLinearPrior,
    chain_draws,
    sample_conjugate_sums_2,
    sample_dirichlet,
    truncated_normal_draws,
)

COMPLIER = 0
NEVER_TAKER = 1
ALWAYS_TAKER = 2


def coefficients_first(values, lead):
    """Per-chain values with the chains leading, ``lead`` = (K,), as the
    parameter layout: the value axes first, then a (K, 1) chain axis that
    broadcasts over patients.  A lone chain (``lead`` = ()) keeps its shape.
    """
    values = np.asarray(values)
    if not lead:
        return values
    return values.transpose(*range(1, values.ndim), 0)[..., None]


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

    Returns (u_never, u_split), shaped like ``labels``.  u_never is drawn for
    every patient: nonpositive for never-takers, positive otherwise.  u_split
    exists only for non-never-takers (NaN elsewhere): nonpositive for
    compliers, positive for always-takers.  Underflowed truncations are
    clamped just past the bound so extreme transient coefficients cannot
    kill a chain.
    """
    labels = np.asarray(labels)
    x = np.asarray(x, dtype=float)
    b = params.beta
    not_never = labels != NEVER_TAKER
    u_never = truncated_normal_draws(b[0] + b[1] * x, 0.0, not_never, rng)

    u_split = np.full(labels.shape, np.nan)
    if not_never.any():
        eta_c = b[2] + b[3] * x
        above_c = labels[not_never] == ALWAYS_TAKER
        u_split[not_never] = truncated_normal_draws(
            eta_c[not_never],
            0.0,
            above_c,
            rng,
            np.atleast_1d(not_never.sum(axis=-1)),
        )
    return u_never, u_split


def update_probit_beta(u_never, u_split, x, prior_variance, rng):
    """Conjugate draw of all four probit coefficients given latent utilities.

    Both equations are unit-noise linear regressions of a utility on (1, x);
    the split equation uses only rows where u_split is present.  Coefficients
    are a priori independent N(0, prior_variance).  Each chain's split sums
    run over its own rows, so they add up in the order a lone chain's do.
    """
    x = np.asarray(x, dtype=float)
    u_never = np.asarray(u_never, dtype=float)
    prior = NormalLinearPrior.of((0.0, 0.0), (prior_variance, prior_variance))
    lead = u_never.shape[:-1]

    # split sums chain by chain, over each chain's non-never-takers
    mask = ~np.isnan(u_split)
    counts = np.atleast_1d(mask.sum(axis=-1))
    columns = np.empty((4, counts.sum()))
    xs, xxs, us, xus = columns
    xs[:] = np.broadcast_to(x, mask.shape)[mask]
    np.multiply(xs, xs, out=xxs)
    us[:] = u_split[mask]
    np.multiply(xs, us, out=xus)
    ends = np.cumsum(counts)
    split = [columns[:, a:b].sum(axis=1) for a, b in zip(ends - counts, ends)]

    # (n, sum x, sum x^2, sum u, sum xu) by chain and equation (never, split)
    stats = np.empty((5, counts.size, 2))
    stats[:3, :, 0] = np.array([x.size, x.sum(), (x * x).sum()])[:, None]
    stats[3, :, 0] = u_never.sum(axis=-1)
    stats[4, :, 0] = (x * u_never).sum(axis=-1)
    stats[0, :, 1] = counts
    stats[1:, :, 1] = np.transpose(split)
    # one call draws both equations, never then split, for every chain
    coefs = sample_conjugate_sums_2(
        *stats.reshape(5, *lead, 2), 1.0, prior, rng
    )
    return ProbitStratumParams(coefficients_first(coefs.reshape(*lead, 4), lead))


def mlogit_log_likelihood(labels, x, params: MlogitStratumParams):
    """Log likelihood of the current labels under the multinomial logit."""
    # log_stratum_probs is ordered by label code (complier, never, always)
    return np.choose(labels, log_stratum_probs(x, params)).sum(axis=-1)


def _gaussian_log_prior(coefs, prior_variance, lead):
    return np.reshape(-0.5 * np.sum(coefs * coefs, axis=0) / prior_variance, lead)


@dataclass
class MlogitProposal:
    """Random-walk proposal scales with acceptance tracking.

    ``sd_n`` and ``sd_a`` hold each block's (intercept, slope) scales and
    ``accepted``/``attempted`` the (never, always) block counts, one row per
    chain; ``default()`` without a chain count is a lone chain's single row.
    """

    sd_n: np.ndarray
    sd_a: np.ndarray
    accepted: np.ndarray  # per block
    attempted: np.ndarray

    @classmethod
    def default(cls, n_chains=None):
        lead = () if n_chains is None else (n_chains,)
        return cls(
            sd_n=np.tile([0.5, 0.05], (*lead, 1)),
            sd_a=np.tile([0.5, 0.05], (*lead, 1)),
            accepted=np.zeros((*lead, 2)),
            attempted=np.zeros((*lead, 2)),
        )

    def adapt(self, low=0.3, high=0.5, factor=1.25):
        """Rescale each block toward the target acceptance window, then reset."""
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = self.accepted / self.attempted
        for i, sd in enumerate((self.sd_n, self.sd_a)):
            # an untried block (rate NaN) keeps its scale
            sd *= np.where(rate[..., i] > high, factor, 1.0)[..., None]
            sd /= np.where(rate[..., i] < low, factor, 1.0)[..., None]
        self.reset()

    def reset(self):
        self.accepted[:] = 0.0
        self.attempted[:] = 0.0

    def report(self, row):
        """Chain ``row``'s acceptance rate of each block since the last
        reset (None for a block never tried) and its (never, always)
        proposal scales, as plain floats."""
        acceptance = tuple(
            float(a / t) if t else None
            for a, t in zip(self.accepted[row], self.attempted[row])
        )
        scales = (tuple(map(float, self.sd_n[row])), tuple(map(float, self.sd_a[row])))
        return acceptance, scales

    def select(self, rows) -> MlogitProposal:
        """The proposals of the chains in ``rows``."""
        return MlogitProposal(
            self.sd_n[rows], self.sd_a[rows], self.accepted[rows], self.attempted[rows]
        )


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
    label likelihood times the N(0, prior_variance) prior; every chain
    accepts or rejects on its own.  Acceptance counts accumulate in
    ``proposal`` for burn-in adaptation and the run report.
    """
    labels = np.asarray(labels)
    x = np.asarray(x, dtype=float)
    lead = labels.shape[:-1]
    gamma_n = params.gamma_n.copy()
    gamma_a = params.gamma_a.copy()

    cur_ll = mlogit_log_likelihood(labels, x, MlogitStratumParams(gamma_n, gamma_a))
    for block, (gamma, sd) in enumerate(
        ((gamma_n, proposal.sd_n), (gamma_a, proposal.sd_a))
    ):
        step = sd * chain_draws(rng, "standard_normal", sd.shape)
        cand = gamma + coefficients_first(step, lead)
        if block == 0:
            cand_params = MlogitStratumParams(cand, gamma_a)
        else:
            cand_params = MlogitStratumParams(gamma_n, cand)
        cand_ll = mlogit_log_likelihood(labels, x, cand_params)
        log_ratio = (
            cand_ll
            - cur_ll
            + _gaussian_log_prior(cand, prior_variance, lead)
            - _gaussian_log_prior(gamma, prior_variance, lead)
        )
        accept = np.log(chain_draws(rng, "random", lead)) < log_ratio
        proposal.attempted[..., block] += 1
        proposal.accepted[..., block] += accept
        gamma[:] = np.where(np.reshape(accept, gamma.shape[1:]), cand, gamma)
        cur_ll = np.where(accept, cand_ll, cur_ll)
    return MlogitStratumParams(gamma_n, gamma_a)


def update_proportions(labels, concentration, rng) -> StratumProportions:
    """Conjugate Dirichlet draw of the covariate-free stratum proportions."""
    labels = np.asarray(labels)
    lead = labels.shape[:-1]
    rows = np.atleast_2d(labels)
    bins = rows + 3 * np.arange(len(rows))[:, None]
    counts = np.bincount(bins.ravel(), minlength=3 * len(rows)).astype(float)
    pi = sample_dirichlet(counts.reshape(*lead, 3), concentration, rng)
    return StratumProportions(coefficients_first(pi, lead))
