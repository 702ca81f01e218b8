"""Low-level sampling primitives shared by the Gibbs updates.

Everything here draws from a ``numpy.random.Generator`` owned by the caller,
so the same seed always reproduces the same sequence of values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import SingularPosteriorError

# Beyond this standardized bound the body inverse-CDF loses accuracy and a
# tail rejection sampler takes over.
_TAIL_CUTOFF = 5.0
# Beyond this bound the tail probability underflows in double precision.
_DEGENERATE_CUTOFF = 37.0

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Streams with the same ``seed`` but different ``stream_id`` are
    statistically independent.  The underlying generator is PCG64 keyed by
    ``SeedSequence(seed, spawn_key=(stream_id,))``, so a (seed, stream_id)
    pair yields a bit-identical sequence on every run.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))


def derive_seed(master_seed: int, *key: int) -> int:
    """Derive a child seed from a master seed and an index path.

    Used by the simulation harness so every (cell, replicate) pair gets an
    independent, reproducible seed that can be recorded as a plain integer.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    words = ss.generate_state(2, np.uint64)
    return int(words[0] ^ (words[1] << 1)) & (2**63 - 1)


def _std_trunc_above(a, rng):
    """Draw standard normals conditioned on being strictly greater than ``a``.

    Vectorized over ``a``.  Uses the inverse CDF through the survival
    function in the body and an exponential-proposal rejection sampler when
    the region is a far upper tail (a > 5).  Entries with a > 37 are the
    caller's problem; values there are meaningless.
    """
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a)

    body = a <= _TAIL_CUTOFF
    if body.any():
        ab = a[body]
        u = rng.uniform(size=ab.shape)
        # P(X > x) = (1 - u) * P(X > a)  =>  x = -ndtri((1-u) * ndtr(-a))
        out[body] = -ndtri((1.0 - u) * ndtr(-ab))

    tail = ~body
    if tail.any():
        at = a[tail]
        lam = 0.5 * (at + np.sqrt(at * at + 4.0))
        draws = np.empty_like(at)
        pending = np.ones(at.shape, dtype=bool)
        while pending.any():
            idx = np.nonzero(pending)[0]
            x = at[idx] + rng.exponential(size=idx.shape) / lam[idx]
            accept = rng.uniform(size=idx.shape) <= np.exp(-0.5 * (x - lam[idx]) ** 2)
            hit = idx[accept]
            draws[hit] = x[accept]
            pending[hit] = False
        out[tail] = draws

    # enforce the strict inequality even when u rounded to 0
    np.maximum(out, np.nextafter(a, np.inf), out=out)
    return out


def truncated_normal_draws(means, bound, above_mask, rng):
    """Vector of unit-variance truncated normal draws for the latent utilities.

    Each entry i is N(means[i], 1) conditioned on being strictly above
    ``bound`` where ``above_mask[i]`` and strictly below it otherwise.
    Entries whose truncation region has underflowed are clamped to
    bound +/- 1e-8 on the correct side (treated as a numerically pinned
    draw).
    """
    means = np.asarray(means, dtype=float)
    # flip 'below' entries into 'above' form
    sign = np.where(above_mask, 1.0, -1.0)
    a = (bound - means) * sign
    degenerate = a > _DEGENERATE_CUTOFF
    if degenerate.any():
        a = np.where(degenerate, 0.0, a)
    z = _std_trunc_above(a, rng)
    out = means + sign * z
    if degenerate.any():
        out[degenerate] = bound + sign[degenerate] * 1e-8
    return out


@dataclass(frozen=True)
class NormalLinearPrior:
    """Independent normal priors for linear-model coefficients."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, float)))
        object.__setattr__(
            self, "variance", np.atleast_1d(np.asarray(self.variance, float))
        )
        if self.mean.shape != self.variance.shape:
            raise ValueError("prior mean and variance must have the same shape")
        if not np.all(self.variance > 0):
            raise ValueError("prior variances must be positive")


def conjugate_linear_posterior(y, design, noise_variance, prior):
    """Posterior mean and covariance of coefficients in a normal linear model.

    The model is y = design @ coeffs + noise with known noise variance and
    independent normal priors on the coefficients.  Returns (mean, cov).
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    if design.ndim != 2:
        raise ValueError("design must be 2-D")
    p = design.shape[1]
    if prior.mean.shape[0] != p:
        raise ValueError("prior length does not match design columns")
    prior_prec = 1.0 / prior.variance
    precision = design.T @ design / noise_variance + np.diag(prior_prec)
    cond = np.linalg.cond(precision)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularPosteriorError(
            f"posterior precision condition number {cond:.3g} exceeds {_COND_LIMIT:.0e}"
        )
    rhs = design.T @ y / noise_variance + prior_prec * prior.mean
    cov = np.linalg.inv(precision)
    mean = cov @ rhs
    return mean, cov


def sample_conjugate_linear(y, design, noise_variance, prior, rng):
    """Draw coefficients from the conjugate normal linear posterior.

    With zero data rows the draw comes from the prior.
    """
    design = np.asarray(design, dtype=float)
    if design.shape[0] == 0:
        return prior.mean + np.sqrt(prior.variance) * rng.standard_normal(
            prior.mean.shape
        )
    mean, cov = conjugate_linear_posterior(y, design, noise_variance, prior)
    chol = np.linalg.cholesky(cov)
    return mean + chol @ rng.standard_normal(mean.shape)


def sample_conjugate_sums_2(
    n, sx, sxx, sy, sxy, noise_variance, prior, rng
):
    """Fast (intercept, slope) draw from sufficient statistics.

    Equivalent to ``sample_conjugate_linear`` with design columns (1, x),
    using n = count, sx = sum(x), sxx = sum(x^2), sy = sum(y), sxy = sum(x*y).
    """
    pm = prior.mean
    pv = prior.variance
    if n == 0:
        z = rng.standard_normal(2)
        return pm + np.sqrt(pv) * z
    p11 = n / noise_variance + 1.0 / pv[0]
    p12 = sx / noise_variance
    p22 = sxx / noise_variance + 1.0 / pv[1]
    det = p11 * p22 - p12 * p12
    tr = p11 + p22
    # eigenvalue ratio of the 2x2 precision
    disc = np.sqrt(max(tr * tr - 4.0 * det, 0.0))
    lam_min = 0.5 * (tr - disc)
    if not det > 0 or lam_min <= 0 or (0.5 * (tr + disc)) / lam_min > _COND_LIMIT:
        raise SingularPosteriorError("2x2 posterior precision is ill conditioned")
    r1 = sy / noise_variance + pm[0] / pv[0]
    r2 = sxy / noise_variance + pm[1] / pv[1]
    m1 = (p22 * r1 - p12 * r2) / det
    m2 = (p11 * r2 - p12 * r1) / det
    # precision = L L^T; draw = mean + solve(L^T, z)
    l11 = np.sqrt(p11)
    l21 = p12 / l11
    l22 = np.sqrt(p22 - l21 * l21)
    z1, z2 = rng.standard_normal(2)
    w2 = z2 / l22
    w1 = (z1 - l21 * w2) / l11
    return np.array([m1 + w1, m2 + w2])


def sample_precision_gamma(residual_ss, n, shape0, rate0, rng):
    """Draw a noise precision from its conjugate gamma posterior.

    Shape-rate convention: posterior is Gamma(shape0 + n/2, rate0 + ss/2)
    with density proportional to x^(shape-1) exp(-rate x).
    """
    if residual_ss < 0:
        raise ValueError("residual sum of squares must be nonnegative")
    shape = shape0 + 0.5 * n
    rate = rate0 + 0.5 * residual_ss
    return rng.gamma(shape, 1.0 / rate)


def sample_dirichlet(counts, concentration, rng):
    """Draw stratum proportions from Dirichlet(concentration + counts)."""
    counts = np.asarray(counts, dtype=float)
    concentration = np.asarray(concentration, dtype=float)
    if counts.shape != concentration.shape:
        raise ValueError("counts and concentration must have the same shape")
    if np.any(counts < 0) or np.any(concentration <= 0):
        raise ValueError("counts must be >= 0 and concentration > 0")
    return rng.dirichlet(concentration + counts)
