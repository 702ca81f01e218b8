"""Posterior summaries, convergence checks, and complier-membership displays."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, ObservedPattern
from .engine import ModelFit, ParameterState, complier_probability, covariate_center
from .errors import AllUndefinedError, EmptyPatternError, InsufficientDrawsError

DEFAULT_GRID_POINTS = 101
PSRF_THRESHOLD = 1.06


def compute_psrf(chain_draws) -> float:
    """Potential scale reduction factor over parallel chains of one scalar.

    Uses sqrt(((n-1)/n * W + B/n) / W) with W the mean within-chain variance
    and B the between-chain variance of the chain means scaled by n.  Two
    special cases: all chains constant at one value gives 1.0; constant
    chains at different values give +inf.
    """
    arrays = [np.asarray(c, dtype=float) for c in chain_draws]
    if len(arrays) < 2:
        raise InsufficientDrawsError("need at least two chains")
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise InsufficientDrawsError("chains must have equal lengths")
    if n < 10:
        raise InsufficientDrawsError("need at least 10 draws per chain")
    w = float(np.mean([a.var(ddof=1) for a in arrays]))
    means = np.array([a.mean() for a in arrays])
    b = n * float(means.var(ddof=1))
    if w == 0.0:
        return 1.0 if b == 0.0 else math.inf
    return math.sqrt(((n - 1) / n * w + b / n) / w)


@dataclass(frozen=True)
class PsrfEntry:
    value: float
    above_threshold: bool


def psrf_report(fit: ModelFit, threshold: float = PSRF_THRESHOLD):
    """PSRF per scalar parameter (plus the effect when fully defined).

    Returns a dict name -> PsrfEntry.  The causal-effect sequence is included
    only when no chain recorded an undefined value.
    """
    report: dict[str, PsrfEntry] = {}
    for j, name in enumerate(fit.param_names):
        value = compute_psrf([c.params[:, j] for c in fit.chains])
        report[name] = PsrfEntry(value, bool(value > threshold))
    if all(c.n_undefined_cace == 0 for c in fit.chains):
        value = compute_psrf([c.cace for c in fit.chains])
        report["cace"] = PsrfEntry(value, bool(value > threshold))
    return report


@dataclass(frozen=True)
class PosteriorSummary:
    """Pooled-draw summary of one scalar quantity."""

    mean: float
    sd: float
    q2_5: float
    q97_5: float
    n_draws: int
    n_undefined: int = 0


def summarize_draws(values, drop_undefined: bool = True) -> PosteriorSummary:
    """Mean, n-1 SD, and interpolated 2.5/97.5 percentiles of pooled draws.

    NaN entries (undefined values, e.g. the effect at iterations with no
    labeled compliers) are dropped and counted.  Raises AllUndefinedError
    when nothing remains.
    """
    values = np.asarray(values, dtype=float)
    defined = values[~np.isnan(values)] if drop_undefined else values
    n_undefined = values.size - defined.size
    if defined.size == 0:
        raise AllUndefinedError("every draw of this quantity is undefined")
    sd = float(defined.std(ddof=1)) if defined.size >= 2 else 0.0
    return PosteriorSummary(
        mean=float(defined.mean()),
        sd=sd,
        q2_5=float(np.quantile(defined, 0.025)),
        q97_5=float(np.quantile(defined, 0.975)),
        n_draws=int(defined.size),
        n_undefined=int(n_undefined),
    )


def summarize_fit(fit: ModelFit) -> dict[str, PosteriorSummary]:
    """Posterior summaries for every scalar parameter and the causal effect.

    The "cace" entry is omitted when every pooled draw is undefined (zero
    compliers in every saved state).
    """
    out = {}
    for name, column in fit.pooled_params().items():
        out[name] = summarize_draws(column)
    try:
        out["cace"] = summarize_draws(fit.pooled_cace())
    except AllUndefinedError:
        pass
    return out


def _pooled_state(fit: ModelFit) -> ParameterState:
    """Every saved draw of every chain as one state with a (D, 1) draw axis."""
    if not fit.chains:
        raise InsufficientDrawsError("fit has no surviving chains")
    stacked = np.concatenate([c.params for c in fit.chains], axis=0)
    return ParameterState.from_vector(fit.config.variant, stacked.T[..., None])


@dataclass(frozen=True)
class ComplierGrid:
    """Pointwise posterior curve of the complier probability over x."""

    z: int
    y_eval: float
    x: np.ndarray
    mean: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def default_x_grid(dataset: Dataset, n_points: int = DEFAULT_GRID_POINTS):
    """Equally spaced evaluation grid spanning the dataset's covariate range."""
    return np.linspace(float(dataset.x.min()), float(dataset.x.max()), n_points)


def complier_prob_grid(
    fit: ModelFit, dataset: Dataset, z: int, y_eval: float, x_grid
) -> ComplierGrid:
    """Posterior mean and 95% band of the mixture complier probability.

    Evaluates the membership probability for arm ``z`` at outcome value
    ``y_eval`` across ``x_grid`` for every saved draw, then reduces
    pointwise (mean and interpolated 2.5/97.5 percentiles).  ``x_grid`` is
    in raw covariate units; ``dataset`` must be the fitted data, which pins
    the design's covariate origin.
    """
    state = _pooled_state(fit)
    x_grid = np.asarray(x_grid, dtype=float)
    probs = complier_probability(
        x_grid - covariate_center(dataset),
        np.full(x_grid.shape, float(y_eval)),
        z,
        state,
    )
    return ComplierGrid(
        z=z,
        y_eval=float(y_eval),
        x=x_grid,
        mean=probs.mean(axis=0),
        lo=np.quantile(probs, 0.025, axis=0),
        hi=np.quantile(probs, 0.975, axis=0),
    )


@dataclass(frozen=True)
class ShadedHistogram:
    """Covariate histogram of one mixture pattern, shaded by complier share."""

    z: int
    y_eval: float
    bin_lo: np.ndarray
    bin_hi: np.ndarray
    counts: np.ndarray
    shading: np.ndarray  # posterior mean complier probability at bin midpoints


def sturges_bins(n: int) -> int:
    return max(1, int(math.ceil(math.log2(n))) + 1) if n > 1 else 1


def shaded_histogram(
    fit: ModelFit, dataset: Dataset, z: int, n_bins: int | None = None
) -> ShadedHistogram:
    """Histogram of the mixture pattern's covariate, shaded by membership.

    Bins are equal width over the pattern's observed covariate range
    (rightmost edge inclusive, so counts sum to the pattern size).  Shading
    is the posterior mean complier probability at each bin midpoint with the
    outcome pinned at the pattern's mean observed outcome.
    """
    pattern = (
        ObservedPattern.MIXTURE_CONTROL_ARM if z == 0
        else ObservedPattern.MIXTURE_TREATED_ARM
    )
    mask = dataset.pattern == pattern.value
    if not mask.any():
        raise EmptyPatternError(f"no records in pattern {pattern.name}")
    xs = dataset.x[mask]
    ys = dataset.y[mask]
    ys = ys[~np.isnan(ys)]
    if ys.size:
        y_eval = float(ys.mean())
    else:
        pooled = dataset.y[~dataset.y_missing]
        y_eval = float(pooled.mean())

    if n_bins is None:
        n_bins = sturges_bins(xs.size)
    lo, hi = float(xs.min()), float(xs.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, n_bins + 1)
    counts, _ = np.histogram(xs, bins=edges)
    midpoints = 0.5 * (edges[:-1] + edges[1:])
    grid = complier_prob_grid(fit, dataset, z, y_eval, x_grid=midpoints)
    return ShadedHistogram(
        z=z,
        y_eval=y_eval,
        bin_lo=edges[:-1],
        bin_hi=edges[1:],
        counts=counts,
        shading=grid.mean,
    )


def complier_probability_estimates(fit: ModelFit, dataset: Dataset) -> np.ndarray:
    """Posterior complier-membership probability per patient.

    Mixture patients get the average of their per-draw membership
    probabilities over all saved draws (patients with a missing outcome use
    the membership-model ratio, which is their correct marginal).  Patients
    whose pattern reveals their stratum get exactly 0.
    """
    state = _pooled_state(fit)
    out = np.zeros(dataset.n)
    for z, pattern in (
        (0, ObservedPattern.MIXTURE_CONTROL_ARM),
        (1, ObservedPattern.MIXTURE_TREATED_ARM),
    ):
        idx = np.nonzero(dataset.pattern == pattern.value)[0]
        if idx.size == 0:
            continue
        x = dataset.x[idx] - covariate_center(dataset)
        y = dataset.y[idx]
        observed = ~np.isnan(y)
        for mask, y_mask in ((observed, y[observed]), (~observed, None)):
            if mask.any():
                probs = complier_probability(x[mask], y_mask, z, state)
                out[idx[mask]] = probs.mean(axis=0)
    return out
