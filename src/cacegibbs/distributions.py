"""Low-level sampling primitives shared by the Gibbs updates.

Everything here draws from ``numpy.random.Generator``s owned by the caller,
so the same seed always reproduces the same sequence of values.

A sweep advances several chains at once, each with its own generator.  The
``rng`` argument is either one generator per chain, with the chain as the
leading axis of every per-chain array, or a lone generator, which is one
chain with no chain axis.  Chain k takes its draws from its own generator,
in the order and in the calls it would make running alone, so its values do
not depend on which other chains share the batch.
"""

from __future__ import annotations

import functools
import math
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


def generators(rng) -> list:
    """The per-chain generators of ``rng``: a lone generator is one chain."""
    if type(rng) is list:
        return rng
    return [rng] if isinstance(rng, np.random.Generator) else list(rng)


def ragged_draws(rng, method, counts, *args):
    """Draws of ``Generator.<method>``, ``counts[k]`` of them from chain k.

    ``method`` is one that fills an ``out`` array: ``random`` (the uniform
    draws of ``Generator.uniform``), ``standard_normal``,
    ``standard_exponential`` or ``standard_gamma``.  Each chain fills its
    values in one call, and the values are concatenated in chain order; a
    chain with no values draws nothing.
    """
    out = np.empty(sum(counts))
    start = 0
    for gen, c in zip(generators(rng), counts):
        if c:
            getattr(gen, method)(*args, out=out[start : start + c])
            start += c
    return out


def chain_draws(rng, method, shape, *args):
    """Draws of ``Generator.<method>`` filling ``shape``, its leading axis the chains.

    Chain k fills its row in one call; a lone generator fills all of ``shape``.
    """
    k = len(generators(rng))
    return ragged_draws(rng, method, [math.prod(shape) // k] * k, *args).reshape(shape)


def derive_seed(master_seed: int, *key: int) -> int:
    """Derive a child seed from a master seed and an index path.

    Used by the simulation harness so every (cell, replicate) pair gets an
    independent, reproducible seed that can be recorded as a plain integer.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    words = ss.generate_state(2, np.uint64)
    return int(words[0] ^ (words[1] << 1)) & (2**63 - 1)


def _chain_counts(mask, sizes):
    """How many entries of the flat ``mask`` each chain holds, chain k
    owning the next ``sizes[k]`` entries."""
    ends = np.cumsum(sizes)
    hits = np.concatenate([[0], np.cumsum(mask)])
    return hits[ends] - hits[ends - sizes]


def _std_trunc_above(a, rng, sizes):
    """Draw standard normals conditioned on being strictly greater than ``a``.

    Vectorized over the flat ``a``, whose first ``sizes[0]`` entries belong
    to chain 0, the next ``sizes[1]`` to chain 1, and so on.  Uses the
    inverse CDF through the survival function in the body and an
    exponential-proposal rejection sampler when the region is a far upper
    tail (a > 5); each chain runs its own rejection rounds until all of its
    entries are accepted.  Entries with a > 37 are the caller's problem;
    values there are meaningless.
    """
    k = len(sizes)
    body = a <= _TAIL_CUTOFF
    whole = body.all()
    out = None if whole else np.empty_like(a)
    if whole or body.any():
        ab = a if whole else a[body]
        u = ragged_draws(rng, "random", sizes if whole else _chain_counts(body, sizes))
        # P(X > x) = (1 - u) * P(X > a)  =>  x = -ndtri((1-u) * ndtr(-a))
        p_above = ndtr(np.negative(ab))
        np.subtract(1.0, u, out=u)
        u *= p_above
        ndtri(u, out=u)
        np.negative(u, out=u)
        if whole:
            out = u
        else:
            out[body] = u

    if not whole:
        tail = ~body
        at = a[tail]
        chain_t = np.repeat(np.arange(k), sizes)[tail]
        lam = 0.5 * (at + np.sqrt(at * at + 4.0))
        draws = np.empty_like(at)
        pending = np.ones(at.shape, dtype=bool)
        while pending.any():
            idx = np.nonzero(pending)[0]
            counts = np.bincount(chain_t[idx], minlength=k)
            x = at[idx] + ragged_draws(rng, "standard_exponential", counts) / lam[idx]
            u = ragged_draws(rng, "random", counts)
            accept = u <= np.exp(-0.5 * (x - lam[idx]) ** 2)
            hit = idx[accept]
            draws[hit] = x[accept]
            pending[hit] = False
        out[tail] = draws

    # enforce the strict inequality even when u rounded to 0
    np.maximum(out, np.nextafter(a, np.inf), out=out)
    return out


def truncated_normal_draws(means, bound, above_mask, rng, sizes=None):
    """Unit-variance truncated normal draws for the latent utilities.

    Each entry i is N(means[i], 1) conditioned on being strictly above
    ``bound`` where ``above_mask[i]`` and strictly below it otherwise.
    Entries whose truncation region has underflowed are clamped to
    bound +/- 1e-8 on the correct side (treated as a numerically pinned
    draw).  ``sizes`` gives the entries of each chain in a flat ``means``,
    in chain order; without it the leading axis of ``means`` is the chain
    axis.
    """
    means = np.asarray(means, dtype=float)
    if sizes is None:
        k = len(generators(rng))
        sizes = np.full(k, means.size // k)
    # flip 'below' entries into 'above' form
    sign = np.where(above_mask, 1.0, -1.0)
    a = np.subtract(bound, means)
    a *= sign
    degenerate = a > _DEGENERATE_CUTOFF
    clamped = degenerate.any()
    if clamped:
        a[degenerate] = 0.0
    z = _std_trunc_above(a.reshape(-1), rng, sizes).reshape(a.shape)
    z *= sign
    z += means
    if clamped:
        z[degenerate] = bound + sign[degenerate] * 1e-8
    return z


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

    @staticmethod
    @functools.lru_cache(maxsize=64)
    def of(mean: tuple, variance: tuple) -> NormalLinearPrior:
        """The prior with these (hashable) means and variances, built once."""
        return NormalLinearPrior(np.array(mean), np.array(variance))


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
    """Fast (intercept, slope) draws from sufficient statistics.

    Equivalent to ``sample_conjugate_linear`` with design columns (1, x),
    using n = count, sx = sum(x), sxx = sum(x^2), sy = sum(y), sxy = sum(x*y).
    The statistics may be arrays of one shape, the chains leading, with one
    regression per entry; the draws have that shape plus a trailing
    (intercept, slope) axis, and each chain draws two normals per regression
    in one call.  A regression with n = 0 draws from the prior.  Raises
    ``SingularPosteriorError`` naming the first chain with an ill-conditioned
    posterior before any chain draws.
    """
    pm = prior.mean
    pv = prior.variance
    p11 = n / noise_variance + 1.0 / pv[0]
    p12 = sx / noise_variance
    p22 = sxx / noise_variance + 1.0 / pv[1]
    det = p11 * p22 - p12 * p12
    tr = p11 + p22
    # eigenvalues of the 2x2 precision: positive, with a bounded ratio
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    lam_min = 0.5 * (tr - disc)
    ok = (det > 0) & (lam_min > 0) & (0.5 * (tr + disc) <= _COND_LIMIT * lam_min)
    if not np.all(ok | (n == 0)):
        shape = np.broadcast_shapes(*map(np.shape, (n, sx, sxx, sy, sxy, noise_variance)))
        bad = np.broadcast_to(~ok & (n != 0), shape)
        row = int(np.argmax(bad.reshape(len(generators(rng)), -1).any(axis=1)))
        raise SingularPosteriorError("2x2 posterior precision is ill conditioned", row)
    r1 = sy / noise_variance + pm[0] / pv[0]
    r2 = sxy / noise_variance + pm[1] / pv[1]
    m1 = (p22 * r1 - p12 * r2) / det
    m2 = (p11 * r2 - p12 * r1) / det
    z = chain_draws(rng, "standard_normal", (*m1.shape, 2))
    # precision = L L^T; draw = mean + solve(L^T, z)
    l11 = np.sqrt(p11)
    l21 = p12 / l11
    l22 = np.sqrt(p22 - l21 * l21)
    w2 = z[..., 1] / l22
    w1 = (z[..., 0] - l21 * w2) / l11
    draws = np.empty_like(z)
    draws[..., 0] = m1 + w1
    draws[..., 1] = m2 + w2
    if not np.all(n):
        draws = np.where((n == 0)[..., None], pm + np.sqrt(pv) * z, draws)
    return draws


def sample_precision_gamma(residual_ss, n, shape0, rate0, rng):
    """Draw a noise precision from its conjugate gamma posterior.

    Shape-rate convention: posterior is Gamma(shape0 + n/2, rate0 + ss/2)
    with density proportional to x^(shape-1) exp(-rate x).  ``residual_ss``
    may hold one value per chain.
    """
    residual_ss = np.asarray(residual_ss, dtype=float)
    if np.any(residual_ss < 0):
        raise ValueError("residual sum of squares must be nonnegative")
    shape = shape0 + 0.5 * n
    rate = rate0 + 0.5 * residual_ss
    # Generator.gamma(shape, scale) is scale times a standard gamma draw
    return chain_draws(rng, "standard_gamma", rate.shape, shape) * (1.0 / rate)


def sample_dirichlet(counts, concentration, rng):
    """Draw stratum proportions from Dirichlet(concentration + counts).

    ``counts`` may hold one row per chain.
    """
    counts = np.asarray(counts, dtype=float)
    concentration = np.asarray(concentration, dtype=float)
    if counts.shape[-1:] != concentration.shape:
        raise ValueError("counts and concentration must have the same shape")
    if np.any(counts < 0) or np.any(concentration <= 0):
        raise ValueError("counts must be >= 0 and concentration > 0")
    alpha = concentration + counts
    rows = alpha.reshape(-1, alpha.shape[-1])
    draws = [gen.dirichlet(a) for gen, a in zip(generators(rng), rows)]
    return np.array(draws).reshape(alpha.shape)
