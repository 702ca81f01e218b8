"""Outcome models: per-group normal regressions with a shared noise variance.

Outcomes split into four groups: never-takers and always-takers (one group
each under exclusion) and compliers by assigned arm.  Variants differ in how
the covariate slope is tied: free per group, shared across groups, or absent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    NormalLinearPrior,
    sample_conjugate_sums_2,
    sample_precision_gamma,
)
from .errors import SingularPosteriorError
from .strata import ALWAYS_TAKER, COMPLIER, NEVER_TAKER
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


def outcome_groups(labels, z):
    """Vectorized ``outcome_group`` over aligned label/assignment arrays."""
    labels = np.asarray(labels)
    z = np.asarray(z)
    out = np.empty(labels.shape, dtype=np.int8)
    out[labels == NEVER_TAKER] = GROUP_NEVER
    out[labels == ALWAYS_TAKER] = GROUP_ALWAYS
    compl = labels == COMPLIER
    out[compl] = np.where(z[compl] == 1, GROUP_COMPLIER_TRT, GROUP_COMPLIER_CTRL)
    return out


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


def group_means(x, groups, params: OutcomeParams):
    """Model mean for each patient given their outcome group."""
    x = np.asarray(x, dtype=float)
    groups = np.asarray(groups)
    a = params.alpha[groups]
    return a[:, 0] + a[:, 1] * x


def outcome_log_density(y, x, group, params: OutcomeParams):
    """Normal log density of an outcome value in a given outcome group."""
    mean = params.alpha[group, 0] + params.alpha[group, 1] * np.asarray(x, float)
    resid = np.asarray(y, float) - mean
    return -0.5 * (np.log(2.0 * np.pi * params.sigma2) + resid * resid / params.sigma2)


def _group_sums(y, x, groups):
    """Sufficient statistics per group: n, sum x, sum x^2, sum y, sum xy."""
    counts = np.bincount(groups, minlength=4).astype(float)
    sx = np.bincount(groups, weights=x, minlength=4)
    sxx = np.bincount(groups, weights=x * x, minlength=4)
    sy = np.bincount(groups, weights=y, minlength=4)
    sxy = np.bincount(groups, weights=x * y, minlength=4)
    return counts, sx, sxx, sy, sxy


def _draw_shared_slope(counts, sx, sxx, sy, sxy, sigma2, priors, rng):
    # stacked regression: four group intercepts plus one common slope
    prior_prec = np.concatenate(
        [np.full(4, 1.0 / priors.intercept_variance), [1.0 / priors.slope_variance]]
    )
    prior_mean = np.concatenate([np.full(4, priors.center), [0.0]])
    precision = np.zeros((5, 5))
    rhs = np.zeros(5)
    for g in range(4):
        precision[g, g] = counts[g] / sigma2
        precision[g, 4] = precision[4, g] = sx[g] / sigma2
        rhs[g] = sy[g] / sigma2
    precision[4, 4] = sxx.sum() / sigma2
    rhs[4] = sxy.sum() / sigma2
    precision += np.diag(prior_prec)
    rhs += prior_prec * prior_mean
    cond = np.linalg.cond(precision)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularPosteriorError(
            f"shared-slope posterior condition number {cond:.3g}"
        )
    chol = np.linalg.cholesky(precision)
    mean = np.linalg.solve(precision, rhs)
    # draw = mean + solve(L^T, z) has covariance precision^{-1}
    z = rng.standard_normal(5)
    draw = mean + np.linalg.solve(chol.T, z)
    alpha = np.column_stack([draw[:4], np.full(4, draw[4])])
    return alpha


def update_outcome_params(
    y, x, groups, sigma2, priors: OutcomePriors, variant: str, rng
) -> OutcomeParams:
    """Draw new outcome coefficients, then the shared noise variance.

    ``y`` must be complete (missing outcomes already imputed).  Coefficients
    are drawn conditional on the current ``sigma2``; the precision update then
    pools squared residuals under the new coefficients across all groups, so
    its degrees of freedom equal the total outcome count.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    groups = np.asarray(groups)
    mode = VARIANT_TABLE[variant].slope
    counts, sx, sxx, sy, sxy = _group_sums(y, x, groups)

    if mode == "shared":
        alpha = _draw_shared_slope(counts, sx, sxx, sy, sxy, sigma2, priors, rng)
    elif mode == "free":
        prior = NormalLinearPrior(
            np.array([priors.center, 0.0]),
            np.array([priors.intercept_variance, priors.slope_variance]),
        )
        alpha = np.empty((4, 2))
        for g in range(4):
            alpha[g] = sample_conjugate_sums_2(
                counts[g], sx[g], sxx[g], sy[g], sxy[g], sigma2, prior, rng
            )
    else:  # intercept-only
        alpha = np.zeros((4, 2))
        for g in range(4):
            post_prec = counts[g] / sigma2 + 1.0 / priors.intercept_variance
            post_mean = (
                sy[g] / sigma2 + priors.center / priors.intercept_variance
            ) / post_prec
            alpha[g, 0] = post_mean + rng.standard_normal() / np.sqrt(post_prec)

    resid = y - group_means(x, groups, OutcomeParams(alpha, 1.0, variant))
    # an elementwise sum, not resid @ resid: at large n the BLAS dot leaves a
    # worker thread spinning that slows the rest of the sweep
    precision = sample_precision_gamma(
        float((resid * resid).sum()),
        y.size,
        priors.precision_shape,
        priors.precision_rate,
        rng,
    )
    return OutcomeParams(alpha, 1.0 / precision, variant)


def impute_outcomes(x, groups, params: OutcomeParams, rng):
    """Draw outcomes from their group regressions.

    Used for missing outcomes and for complier counterfactuals.
    """
    means = group_means(x, groups, params)
    return means + np.sqrt(params.sigma2) * rng.standard_normal(means.shape)
