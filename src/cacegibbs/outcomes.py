"""Outcome models: per-group normal regressions with a shared noise variance.

Outcomes split into four groups: never-takers and always-takers (one group
each under exclusion) and compliers by assigned arm.  Variants differ in how
the covariate slope is tied: free per group, shared across groups, or absent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    NormalLinearPrior,
    chain_draws,
    generators,
    ragged_draws,
    sample_conjugate_sums_2,
    sample_precision_gamma,
)
from .errors import SingularPosteriorError
from .strata import ALWAYS_TAKER, COMPLIER, NEVER_TAKER, coefficients_first
from .variants import VARIANT_TABLE

GROUP_NEVER = 0
GROUP_ALWAYS = 1
GROUP_COMPLIER_CTRL = 2
GROUP_COMPLIER_TRT = 3


def outcome_group(label: int, z: int) -> int:
    """Map a stratum label and assignment to the outcome group index."""
    if label == NEVER_TAKER:
        return GROUP_NEVER
    if label == ALWAYS_TAKER:
        return GROUP_ALWAYS
    if label == COMPLIER:
        return GROUP_COMPLIER_TRT if z else GROUP_COMPLIER_CTRL
    raise ValueError(f"unknown stratum label {label!r}")


# outcome group of each (stratum label, assignment)
_GROUP_OF = np.zeros((3, 2), dtype=np.int8)
_GROUP_OF[NEVER_TAKER] = GROUP_NEVER
_GROUP_OF[ALWAYS_TAKER] = GROUP_ALWAYS
_GROUP_OF[COMPLIER] = (GROUP_COMPLIER_CTRL, GROUP_COMPLIER_TRT)


def outcome_groups(labels, z):
    """Vectorized ``outcome_group``; ``z`` broadcasts against ``labels``."""
    return _GROUP_OF[np.asarray(labels), np.asarray(z)]


@dataclass(frozen=True)
class OutcomeParams:
    """Intercept/slope per group plus the shared noise variance.

    ``alpha`` has one (intercept, slope) row per group in the order
    (n, a, c0, c1).
    Like the stratum coefficients, ``alpha`` and ``sigma2`` may carry
    trailing draw axes, (4, 2, D, 1) and (D, 1), to evaluate D draws at once.
    """

    alpha: np.ndarray
    sigma2: float
    variant: str

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.shape[:2] != (4, 2):
            raise ValueError("alpha must be 4x2")
        if not np.all(self.sigma2 > 0):
            raise ValueError("sigma2 must be positive")
        if self.variant not in VARIANT_TABLE:
            raise ValueError(f"unknown variant {self.variant!r}")
        mode = VARIANT_TABLE[self.variant].slope
        slopes = alpha[:, 1]
        if mode == "none" and np.any(slopes != 0.0):
            raise ValueError(f"variant {self.variant} requires zero slopes")
        if mode == "shared" and np.any(slopes != slopes[0]):
            raise ValueError(f"variant {self.variant} requires one shared slope")
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class OutcomePriors:
    """Hyperparameters of the outcome model.

    ``center`` anchors every intercept prior (conventionally the overall
    mean of the observed outcomes, frozen at ingest).  The precision prior
    is Gamma in the shape-rate convention.
    """

    center: float
    intercept_variance: float = 100.0
    slope_variance: float = 100.0
    precision_shape: float = 0.01
    precision_rate: float = 0.01


def group_means(x, groups, params: OutcomeParams, chain=None):
    """Model mean for each patient given their outcome group.

    With K chains in ``params``, ``groups`` is (K, n), or flat with ``chain``
    giving each entry's chain.
    """
    x = np.asarray(x, dtype=float)
    groups = np.asarray(groups)
    a = params.alpha.reshape(4, 2, -1)
    k = a.shape[-1]
    if chain is None:
        chain = np.arange(k).reshape(-1, *(1,) * (groups.ndim - 1))
    cells = a.transpose(2, 0, 1).reshape(4 * k, 2)
    return _cell_means(cells, groups + 4 * chain, x)


def _cell_means(cells, bins, x):
    """Mean of each entry from its (chain, group) cell's (intercept, slope)."""
    return cells[:, 0].take(bins) + cells[:, 1].take(bins) * x


def outcome_log_density(y, x, group, params: OutcomeParams):
    """Normal log density of an outcome value in a given outcome group."""
    mean = params.alpha[group, 0] + params.alpha[group, 1] * np.asarray(x, float)
    resid = np.asarray(y, float) - mean
    return -0.5 * (np.log(2.0 * np.pi * params.sigma2) + resid * resid / params.sigma2)


def _group_sums(y, x, bins, n_cells):
    """Sufficient statistics per (chain, group) cell: n, sum x, sum x^2, sum y,
    sum xy, each of length ``n_cells``; every cell adds its patients in
    patient order."""
    bins = bins.ravel()
    k = y.size // x.size
    xk = np.concatenate([x] * k)

    def total(weights=None):
        return np.bincount(bins, weights=weights, minlength=n_cells)

    return (
        total().astype(float),
        total(xk),
        total(xk * xk),
        total(y.ravel()),
        total(xk * y.ravel()),
    )


def _draw_shared_slope(counts, sx, sxx, sy, sxy, sigma2, priors, rng):
    # stacked regression per chain: four group intercepts plus one common slope
    prior_prec = np.concatenate(
        [np.full(4, 1.0 / priors.intercept_variance), [1.0 / priors.slope_variance]]
    )
    prior_mean = np.concatenate([np.full(4, priors.center), [0.0]])
    lead = counts.shape[:-1]
    precision = np.zeros((*lead, 5, 5))
    rhs = np.empty((*lead, 5))
    precision.reshape(*lead, 25)[..., 0:20:6] = counts / sigma2  # group diagonal
    precision[..., :4, 4] = precision[..., 4, :4] = sx / sigma2
    rhs[..., :4] = sy / sigma2
    precision[..., 4, 4] = sxx.sum(axis=-1) / sigma2[..., 0]
    rhs[..., 4] = sxy.sum(axis=-1) / sigma2[..., 0]
    precision.reshape(*lead, 25)[..., ::6] += prior_prec
    rhs += prior_prec * prior_mean
    cond = np.linalg.cond(precision)
    bad = ~np.isfinite(cond) | (cond > 1e12)
    if bad.any():
        row = int(np.argmax(bad.ravel()))
        raise SingularPosteriorError(
            f"shared-slope posterior condition number {cond.ravel()[row]:.3g}", row
        )
    chol = np.linalg.cholesky(precision)
    mean = np.linalg.solve(precision, rhs[..., None])[..., 0]
    # draw = mean + solve(L^T, z) has covariance precision^{-1}
    z = chain_draws(rng, "standard_normal", rhs.shape)
    draw = mean + np.linalg.solve(np.swapaxes(chol, -1, -2), z[..., None])[..., 0]
    alpha = np.empty((*lead, 4, 2))
    alpha[..., 0] = draw[..., :4]
    alpha[..., 1] = draw[..., 4:]
    return alpha


def update_outcome_params(
    y, x, groups, sigma2, priors: OutcomePriors, variant: str, rng
) -> OutcomeParams:
    """Draw new outcome coefficients, then the shared noise variance.

    ``y`` must be complete (missing outcomes already imputed).  Coefficients
    are drawn conditional on the current ``sigma2``; the precision update then
    pools squared residuals under the new coefficients across all groups, so
    its degrees of freedom equal the total outcome count.  Raises
    ``SingularPosteriorError`` for the first singular chain before any chain
    draws.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    lead = y.shape[:-1]
    k = math.prod(lead)
    mode = VARIANT_TABLE[variant].slope
    # cell 4 k + g holds group g of chain k
    bins = np.asarray(groups) + 4 * np.arange(k).reshape(*lead, 1)
    sums = _group_sums(y, x, bins, 4 * k)
    counts, sx, sxx, sy, sxy = (s.reshape(*lead, 4) for s in sums)
    sigma2 = np.reshape(sigma2, (*lead, 1))  # per chain, against the group axis

    if mode == "shared":
        alpha = _draw_shared_slope(counts, sx, sxx, sy, sxy, sigma2, priors, rng)
    elif mode == "free":
        prior = NormalLinearPrior.of(
            (priors.center, 0.0), (priors.intercept_variance, priors.slope_variance)
        )
        alpha = sample_conjugate_sums_2(counts, sx, sxx, sy, sxy, sigma2, prior, rng)
    else:  # intercept-only
        post_prec = counts / sigma2 + 1.0 / priors.intercept_variance
        post_mean = (
            sy / sigma2 + priors.center / priors.intercept_variance
        ) / post_prec
        z = chain_draws(rng, "standard_normal", post_prec.shape)
        intercept = post_mean + z / np.sqrt(post_prec)
        alpha = np.stack([intercept, np.zeros_like(intercept)], axis=-1)

    resid = y - _cell_means(alpha.reshape(4 * k, 2), bins, x)
    # an elementwise sum, not resid @ resid: at large n the BLAS dot leaves a
    # worker thread spinning that slows the rest of the sweep
    precision = sample_precision_gamma(
        (resid * resid).sum(axis=-1),
        y.shape[-1],
        priors.precision_shape,
        priors.precision_rate,
        rng,
    )
    return OutcomeParams(
        coefficients_first(alpha, lead),
        coefficients_first(1.0 / precision, lead),
        variant,
    )


def impute_outcomes(x, groups, params: OutcomeParams, rng, chain=None):
    """Draw outcomes from their group regressions.

    Used for missing outcomes and for complier counterfactuals.  The inputs
    are flat; with K chains, ``chain`` gives each entry's chain
    (nondecreasing), and each chain draws its noise in one call.
    """
    if chain is None:
        chain = np.zeros(len(x), dtype=np.intp)
    means = group_means(x, groups, params, chain)
    sd = np.sqrt(params.sigma2).reshape(-1)[chain]
    counts = np.bincount(chain, minlength=len(generators(rng)))
    return means + sd * ragged_draws(rng, "standard_normal", counts)
