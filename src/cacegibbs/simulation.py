"""Synthetic-data generation, an exact small-sample posterior, and the
repeated-sampling harness used to study covariate-blind estimation bias.

The default generating process mimics a surgical trial: an integer injury
severity score drives both stratum membership (severe injuries lean toward
always-taking, mild ones toward never-taking) and the health outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import logsumexp, ndtr, gammaln

from .data import Dataset, ObservedPattern
from .distributions import RngStream, derive_seed
from .engine import ChainFailure, ModelConfig, run_model
from .diagnostics import summarize_draws
from .errors import CalibrationError, TooLargeError, ValidationError
from .outcomes import (
    GROUP_COMPLIER_CTRL,
    GROUP_COMPLIER_TRT,
    OutcomePriors,
    outcome_groups,
)
from .strata import ALWAYS_TAKER, COMPLIER, NEVER_TAKER


@dataclass(frozen=True)
class XLaw:
    """Law of the covariate: a normal truncated to [lo, hi], optionally
    rounded to integers."""

    mean: float = 12.8
    sd: float = 2.7
    lo: float = 0.0
    hi: float = 25.0
    round_to_int: bool = True

    def __post_init__(self):
        if not self.sd >= 0:
            raise ValidationError("x_law sd must be nonnegative")
        if not self.lo < self.hi:
            raise ValidationError("x_law requires lo < hi")


def law_support(x_law: XLaw):
    """Quadrature representation (points, weights) of the covariate law.

    Exact for the rounded law (finite support); high-order Gauss-Legendre
    against the truncated normal density otherwise.
    """
    if x_law.sd == 0:
        return np.array([x_law.mean]), np.array([1.0])
    a = (x_law.lo - x_law.mean) / x_law.sd
    b = (x_law.hi - x_law.mean) / x_law.sd
    z_norm = ndtr(b) - ndtr(a)
    if z_norm <= 0:
        raise CalibrationError("x law has no mass inside [lo, hi]")
    if x_law.round_to_int:
        k = np.arange(math.ceil(x_law.lo), math.floor(x_law.hi) + 1, dtype=float)
        lo_e = np.maximum((k - 0.5 - x_law.mean) / x_law.sd, a)
        hi_e = np.minimum((k + 0.5 - x_law.mean) / x_law.sd, b)
        p = np.clip(ndtr(hi_e) - ndtr(lo_e), 0.0, None) / z_norm
        return k, p / p.sum()
    nodes, weights = np.polynomial.legendre.leggauss(256)
    x = 0.5 * (x_law.hi - x_law.lo) * nodes + 0.5 * (x_law.hi + x_law.lo)
    dens = np.exp(-0.5 * ((x - x_law.mean) / x_law.sd) ** 2) / (
        x_law.sd * math.sqrt(2 * math.pi) * z_norm
    )
    w = weights * 0.5 * (x_law.hi - x_law.lo) * dens
    return x, w / w.sum()


def law_moments(x_law: XLaw):
    """Mean and SD of the covariate law, accounting for truncation/rounding."""
    pts, w = law_support(x_law)
    mean = float((w * pts).sum())
    var = float((w * (pts - mean) ** 2).sum())
    return mean, math.sqrt(var)


@dataclass(frozen=True)
class DgpConfig:
    """Design of one synthetic trial.

    ``stratum_slope`` is the common covariate slope of both membership
    probit equations, oriented so low covariate values predict never-taking
    and high values predict always-taking.  ``stratum_base`` pins the two
    probit intercepts; None calibrates them so the marginal stratum
    proportions hit (target_never, target_always) under the covariate law.
    ``corr_xy`` is the marginal covariate/outcome correlation, induced by a
    single outcome slope shared by all strata (exact when true_cace is 0).
    """

    n: int = 500
    stratum_slope: float = 0.3
    corr_xy: float = 0.0
    true_cace: float = 0.0
    sigma_y: float = 12.0
    outcome_base: float = 43.0
    assignment_prob: float = 0.5
    x_law: XLaw = field(default_factory=XLaw)
    stratum_base: tuple[float, float] | None = None
    target_never: float = 0.5
    target_always: float = 0.145

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be positive")
        if not 0 < self.assignment_prob < 1:
            raise ValidationError("assignment_prob must be in (0, 1)")
        if not self.sigma_y > 0:
            raise ValidationError("sigma_y must be positive")
        if not abs(self.corr_xy) < 1:
            raise CalibrationError("corr_xy must lie strictly inside (-1, 1)")


def calibrate_stratum_base(cfg: DgpConfig) -> tuple[float, float]:
    """Solve for the two probit intercepts hitting the target proportions."""
    # imported here: scipy.optimize is a third of the package's import time
    from scipy.optimize import brentq

    if not (
        0 < cfg.target_never < 1
        and 0 < cfg.target_always < 1
        and cfg.target_never + cfg.target_always < 1
    ):
        raise CalibrationError("target stratum proportions must fit in the simplex")
    pts, w = law_support(cfg.x_law)
    s = cfg.stratum_slope

    def never_gap(b):
        return float((w * (1.0 - ndtr(b + s * pts))).sum()) - cfg.target_never

    base_n = brentq(never_gap, -80.0, 80.0, xtol=1e-12)
    phi_n = ndtr(base_n + s * pts)

    def always_gap(b):
        return float((w * phi_n * ndtr(b + s * pts)).sum()) - cfg.target_always

    # the always share can reach at most 1 - target_never
    if cfg.target_always >= float((w * phi_n).sum()):
        raise CalibrationError(
            "target always-taker share exceeds what the never-taker share allows"
        )
    base_c = brentq(always_gap, -80.0, 80.0, xtol=1e-12)
    return float(base_n), float(base_c)


def outcome_slope_for_corr(cfg: DgpConfig) -> float:
    """Outcome slope giving marginal Corr(x, y) = corr_xy.

    With y = a + b x + noise, corr = b sd_x / sqrt(b^2 sd_x^2 + sigma_y^2).
    Exact under the shared-intercept design when true_cace is 0.
    """
    if cfg.corr_xy == 0.0:
        return 0.0
    _, sd_x = law_moments(cfg.x_law)
    if sd_x == 0:
        raise CalibrationError(
            "corr_xy cannot be nonzero when the covariate law is degenerate"
        )
    c = cfg.corr_xy
    return c * cfg.sigma_y / (sd_x * math.sqrt(1.0 - c * c))


@dataclass(frozen=True)
class DgpTruth:
    """Sealed record of how a synthetic dataset was generated.

    Kept apart from the Dataset handed to estimators; nothing here feeds a
    fit.  ``realized_cace`` is the sample mean treated-minus-control
    difference over the true compliers.
    """

    labels: np.ndarray
    y_treated: np.ndarray
    y_control: np.ndarray
    stratum_base: tuple[float, float]
    stratum_slope: float
    outcome_slope: float
    true_cace: float
    realized_cace: float


def generate_dataset(cfg: DgpConfig, rng) -> tuple[Dataset, DgpTruth]:
    """Draw one synthetic trial; returns the dataset and its sealed truth."""
    if isinstance(rng, RngStream):
        rng = rng.generator()
    law = cfg.x_law
    if law.sd == 0:
        x = np.full(cfg.n, law.mean)
    else:
        x = rng.normal(law.mean, law.sd, size=cfg.n)
        bad = (x < law.lo) | (x > law.hi)
        while bad.any():
            x[bad] = rng.normal(law.mean, law.sd, size=int(bad.sum()))
            bad = (x < law.lo) | (x > law.hi)
    if law.round_to_int:
        x = np.clip(np.rint(x), math.ceil(law.lo), math.floor(law.hi))

    base = cfg.stratum_base or calibrate_stratum_base(cfg)
    s = cfg.stratum_slope
    u_never = base[0] + s * x + rng.standard_normal(cfg.n)
    u_split = base[1] + s * x + rng.standard_normal(cfg.n)
    labels = np.where(
        u_never <= 0, NEVER_TAKER, np.where(u_split > 0, ALWAYS_TAKER, COMPLIER)
    ).astype(np.int8)

    z = (rng.uniform(size=cfg.n) < cfg.assignment_prob).astype(np.int8)
    d = np.where(labels == NEVER_TAKER, 0, np.where(labels == ALWAYS_TAKER, 1, z))

    b = outcome_slope_for_corr(cfg)
    base_mean = cfg.outcome_base + b * x
    compl = labels == COMPLIER
    # exclusion restriction: one outcome draw serves both arms off the compliers
    shared = base_mean + cfg.sigma_y * rng.standard_normal(cfg.n)
    y_control = shared.copy()
    y_treated = shared.copy()
    n_c = int(compl.sum())
    if n_c:
        y_control[compl] = base_mean[compl] + cfg.sigma_y * rng.standard_normal(n_c)
        y_treated[compl] = (
            base_mean[compl]
            + cfg.true_cace
            + cfg.sigma_y * rng.standard_normal(n_c)
        )
    y_obs = np.where(z == 1, y_treated, y_control)

    realized = float(np.mean(y_treated[compl] - y_control[compl])) if n_c else math.nan
    truth = DgpTruth(
        labels=labels,
        y_treated=y_treated,
        y_control=y_control,
        stratum_base=(float(base[0]), float(base[1])),
        stratum_slope=s,
        outcome_slope=b,
        true_cace=cfg.true_cace,
        realized_cace=realized,
    )
    ids = [f"s{i:05d}" for i in range(cfg.n)]
    return Dataset.from_columns(ids, z, d, y_obs, x), truth


# ---------------------------------------------------------------------------
# trial-shaped fixture with published-margin group statistics


@dataclass(frozen=True)
class GroupMargin:
    """Exact per-pattern targets for the matched fixture."""

    pattern: ObservedPattern
    n: int
    x_mean: float
    x_sd: float
    y_mean: float
    y_sd: float
    n_missing_y: int


# Margins of the motivating oral-surgery trial: injury severity score x,
# oral-health outcome y, with heavy outcome nonresponse in both arms.
ORAL_SURGERY_MARGINS = (
    GroupMargin(ObservedPattern.MIXTURE_CONTROL_ARM, 53, 12.8, 2.7, 42.8, 12.1, 25),
    GroupMargin(ObservedPattern.KNOWN_ALWAYS_TAKER, 9, 14.0, 2.0, 42.8, 11.9, 5),
    GroupMargin(ObservedPattern.MIXTURE_TREATED_ARM, 40, 13.2, 2.3, 44.5, 12.1, 19),
    GroupMargin(ObservedPattern.KNOWN_NEVER_TAKER, 40, 12.2, 3.0, 41.7, 9.3, 18),
)


def _standardize_to(values, mean, sd):
    v = np.asarray(values, dtype=float)
    if v.size == 1:
        return np.array([mean])
    centered = v - v.mean()
    scale = centered.std(ddof=1)
    if scale == 0:
        return np.full(v.size, mean)
    return mean + sd * centered / scale


def generate_matched_fixture(rng, margins=ORAL_SURGERY_MARGINS) -> Dataset:
    """Synthetic trial whose per-pattern summary statistics are matched exactly.

    Within each observed pattern the covariate sample mean/SD, the observed
    outcome sample mean/SD, and the missing-outcome count hit the specified
    margins (n-1 SDs), so dataset summaries reproduce the targets up to
    floating-point noise.
    """
    if isinstance(rng, RngStream):
        rng = rng.generator()
    columns = []
    for gm in margins:
        x = _standardize_to(rng.standard_normal(gm.n), gm.x_mean, gm.x_sd)
        n_obs = gm.n - gm.n_missing_y
        if n_obs < 0:
            raise ValidationError("missing count exceeds group size")
        y_obs_vals = _standardize_to(rng.standard_normal(n_obs), gm.y_mean, gm.y_sd)
        y = np.full(gm.n, np.nan)
        missing_slots = np.zeros(gm.n, dtype=bool)
        missing_slots[rng.permutation(gm.n)[: gm.n_missing_y]] = True
        y[~missing_slots] = y_obs_vals
        z, d = divmod(gm.pattern.value, 2)
        ids = [f"{gm.pattern.name.lower()}_{i:03d}" for i in range(gm.n)]
        columns.append((ids, np.full(gm.n, z), np.full(gm.n, d), y, x))
    return Dataset.from_columns(*map(np.concatenate, zip(*columns)))


# ---------------------------------------------------------------------------
# exact posterior for the covariate-free variant on tiny datasets


_BRUTE_FORCE_LIMIT = 10


@dataclass(frozen=True)
class BruteForceResult:
    """Exact-up-to-quadrature posterior for variant D.

    ``complier_prob`` is per patient (0 where the pattern reveals the
    stratum); ``cace_mean`` conditions on at least one complier.
    """

    complier_prob: np.ndarray
    cace_mean: float
    log_evidence: float


def brute_force_posterior(
    dataset: Dataset,
    priors: OutcomePriors,
    dirichlet_concentration=(1.0, 1.0, 1.0),
    grid_size: int = 800,
    grid_span: tuple[float, float] = (1e-6, 1e8),
) -> BruteForceResult:
    """Enumerate stratum labelings and integrate the variant-D parameters.

    The stratum proportions and the group means integrate in closed form
    (Dirichlet-multinomial and normal-normal conjugacy); the shared noise
    variance is integrated on a fixed log-spaced grid of ``grid_size`` points
    spanning ``grid_span`` times the observed outcome variance.  A missing
    outcome drops its likelihood factor; a complier with a missing outcome
    contributes the difference of the two complier group means to the effect.
    """
    if dataset.n > _BRUTE_FORCE_LIMIT:
        raise TooLargeError(
            f"exact enumeration is limited to {_BRUTE_FORCE_LIMIT} records"
        )

    conc = np.asarray(dirichlet_concentration, dtype=float)
    y = dataset.y
    z = dataset.z.astype(int)
    observed = ~dataset.y_missing
    y_obs = y[observed]
    var_y = max(float(y_obs.var(ddof=1)), 1e-8) if y_obs.size > 1 else 1.0

    # sigma^2 grid on a log scale, trapezoid weights, jacobian folded in
    u = np.linspace(
        math.log(grid_span[0] * var_y), math.log(grid_span[1] * var_y), grid_size
    )
    s2 = np.exp(u)
    du = u[1] - u[0]
    trapz = np.full(grid_size, du)
    trapz[0] *= 0.5
    trapz[-1] *= 0.5
    shape, rate = priors.precision_shape, priors.precision_rate
    # inverse-gamma density of sigma^2 induced by the gamma precision prior
    log_prior_s2 = (
        shape * math.log(rate) - gammaln(shape) - (shape + 1) * u - rate / s2
    )
    log_grid_w = log_prior_s2 + u + np.log(trapz)  # + u is the jacobian

    v0 = priors.intercept_variance
    m0 = priors.center

    mix_idx = np.nonzero(
        (dataset.pattern == ObservedPattern.MIXTURE_CONTROL_ARM.value)
        | (dataset.pattern == ObservedPattern.MIXTURE_TREATED_ARM.value)
    )[0]
    ctrl_mask = dataset.pattern[mix_idx] == ObservedPattern.MIXTURE_CONTROL_ARM.value
    base_labels = np.empty(dataset.n, dtype=np.int8)
    base_labels[dataset.pattern == ObservedPattern.KNOWN_NEVER_TAKER.value] = (
        NEVER_TAKER
    )
    base_labels[dataset.pattern == ObservedPattern.KNOWN_ALWAYS_TAKER.value] = (
        ALWAYS_TAKER
    )
    base_labels[mix_idx] = COMPLIER

    m = mix_idx.size
    n_configs = 1 << m
    log_weights = np.empty(n_configs)
    cace_contrib = np.empty(n_configs)  # E[effect | config], NaN when no compliers
    is_complier = np.zeros((n_configs, m), dtype=bool)

    log_dirmult_const = gammaln(conc.sum()) - gammaln(conc).sum() - gammaln(
        conc.sum() + dataset.n
    )

    for cfg_idx in range(n_configs):
        labels = base_labels.copy()
        bits = np.array(
            [(cfg_idx >> j) & 1 for j in range(m)], dtype=bool
        )  # 1 = complier
        alt = np.where(ctrl_mask, NEVER_TAKER, ALWAYS_TAKER)
        labels[mix_idx] = np.where(bits, COMPLIER, alt)
        is_complier[cfg_idx] = bits

        counts = np.bincount(labels, minlength=3).astype(float)
        log_dirmult = log_dirmult_const + gammaln(conc + counts).sum()

        groups = outcome_groups(labels, z)
        log_marg = np.zeros(grid_size)
        post_mean = {}  # group -> posterior mean of its intercept per grid point
        for g in range(4):
            sel = (groups == g) & observed
            n_g = int(sel.sum())
            if n_g == 0:
                post_mean[g] = np.full(grid_size, m0)
                continue
            yg = y[sel]
            ss0 = float(((yg - m0) ** 2).sum())
            t = float((yg - m0).sum())
            # marginal of yg with the intercept integrated out
            logdet = (n_g - 1) * u + np.log(s2 + n_g * v0)
            quad = (ss0 - v0 * t * t / (s2 + n_g * v0)) / s2
            log_marg += -0.5 * (n_g * math.log(2 * math.pi) + logdet + quad)
            post_mean[g] = (m0 / v0 + (t + n_g * m0) / s2) / (1.0 / v0 + n_g / s2)

        log_joint = log_marg + log_grid_w
        log_weights[cfg_idx] = log_dirmult + logsumexp(log_joint)

        compl = labels == COMPLIER
        if compl.any():
            grid_post = np.exp(log_joint - logsumexp(log_joint))
            # a complier's unobserved outcomes enter through their group
            # posterior means: the other arm's always, its own when missing
            mu0 = post_mean[GROUP_COMPLIER_CTRL][None, :]
            mu1 = post_mean[GROUP_COMPLIER_TRT][None, :]
            yc = y[compl][:, None]
            effs = np.where(z[compl][:, None] == 1, yc - mu0, mu1 - yc)
            effs = np.where(np.isnan(yc), mu1 - mu0, effs)
            cace_contrib[cfg_idx] = float((effs.mean(axis=0) * grid_post).sum())
        else:
            cace_contrib[cfg_idx] = math.nan

    log_evidence = float(logsumexp(log_weights))
    config_probs = np.exp(log_weights - log_evidence)

    complier_prob = np.zeros(dataset.n)
    if m:
        complier_prob[mix_idx] = config_probs @ is_complier

    defined = ~np.isnan(cace_contrib)
    if defined.any():
        w = config_probs[defined]
        cace_mean = float((w / w.sum()) @ cace_contrib[defined])
    else:
        cace_mean = math.nan
    return BruteForceResult(
        complier_prob=complier_prob, cace_mean=cace_mean, log_evidence=log_evidence
    )


# ---------------------------------------------------------------------------
# repeated-sampling bias harness


@dataclass(frozen=True)
class McConfig:
    """Grid of generating correlations crossed with model variants."""

    reps: int = 50
    corr_grid: tuple[float, ...] = (-0.6, -0.3, 0.0, 0.3, 0.6)
    variants: tuple[str, ...] = ("A", "B")
    dgp: DgpConfig = field(default_factory=DgpConfig)
    fit: ModelConfig = field(
        default_factory=lambda: ModelConfig(
            variant="A", burn_in=1000, kept=2000, thin=2, n_chains=2
        )
    )
    master_seed: int = 0

    def __post_init__(self):
        if self.reps < 1:
            raise ValidationError("reps must be positive")


@dataclass(frozen=True)
class ReplicateResult:
    rep: int
    dataset_seed: int
    fit_seed: int
    post_mean: float
    q2_5: float
    q97_5: float
    n_undefined: int
    realized_cace: float


@dataclass(frozen=True)
class ReplicateFailure:
    """A replicate all of whose chains aborted, and why each did."""

    rep: int
    fit_seed: int
    failures: tuple[ChainFailure, ...]


@dataclass(frozen=True)
class CellResult:
    """Replicate-averaged posterior summaries for one (corr, variant) cell."""

    corr_xy: float
    variant: str
    reps_done: int
    mean_cace: float
    lo: float
    hi: float
    frac_excluding_zero: float
    replicates: tuple[ReplicateResult, ...]
    n_failed: int
    failures: tuple[ReplicateFailure, ...] = ()


def run_cell(
    mc: McConfig, cell_index: int, corr: float, variant: str, progress=None
) -> CellResult:
    """All replicates of one cell; failed replicates are counted, not fatal.

    The chains of every replicate advance together in one batch; replicate r
    still draws its dataset from ``dataset_seed`` and its chains from
    ``fit_seed``, so its fit is the one ``run_model`` gives it alone.
    """
    dgp = replace(mc.dgp, corr_xy=corr)
    # (dataset seed, fit seed) of each replicate
    seeds = [
        tuple(derive_seed(mc.master_seed, cell_index, rep, s) for s in (0, 1))
        for rep in range(mc.reps)
    ]
    drawn = [
        generate_dataset(dgp, RngStream(seed=dataset_seed, stream_id=0).generator())
        for dataset_seed, _ in seeds
    ]
    fits = run_model(
        [dataset for dataset, _ in drawn],
        [replace(mc.fit, variant=variant, seed=fit_seed) for _, fit_seed in seeds],
    )
    reps: list[ReplicateResult] = []
    failed: list[ReplicateFailure] = []
    for rep, ((dataset_seed, fit_seed), (_, truth), fit) in enumerate(
        zip(seeds, drawn, fits)
    ):
        if not fit.chains:
            failed.append(ReplicateFailure(rep, fit_seed, fit.failures))
            continue
        summ = summarize_draws(fit.pooled_cace())
        reps.append(
            ReplicateResult(
                rep=rep,
                dataset_seed=dataset_seed,
                fit_seed=fit_seed,
                post_mean=summ.mean,
                q2_5=summ.q2_5,
                q97_5=summ.q97_5,
                n_undefined=summ.n_undefined,
                realized_cace=truth.realized_cace,
            )
        )
        if progress is not None:
            progress(cell_index, corr, variant, rep + 1, mc.reps)
    if reps:
        mean_cace = float(np.mean([r.post_mean for r in reps]))
        lo = float(np.mean([r.q2_5 for r in reps]))
        hi = float(np.mean([r.q97_5 for r in reps]))
        excl = float(np.mean([(r.q2_5 > 0) or (r.q97_5 < 0) for r in reps]))
    else:
        mean_cace = lo = hi = excl = math.nan
    return CellResult(
        corr_xy=corr,
        variant=variant,
        reps_done=len(reps),
        mean_cace=mean_cace,
        lo=lo,
        hi=hi,
        frac_excluding_zero=excl,
        replicates=tuple(reps),
        n_failed=len(failed),
        failures=tuple(failed),
    )


@dataclass(frozen=True)
class McResult:
    config: McConfig
    cells: tuple[CellResult, ...]

    @property
    def any_failures(self) -> bool:
        return any(c.n_failed for c in self.cells)


def run_monte_carlo(mc: McConfig, progress=None) -> McResult:
    """Run the full corr-by-variant grid in a fixed deterministic order.

    Cell seeds derive from (master_seed, cell_index, replicate), so results
    are reproducible and independent of execution interleaving.
    """
    cells = []
    cell_index = 0
    for corr in mc.corr_grid:
        for variant in mc.variants:
            cells.append(run_cell(mc, cell_index, corr, variant, progress=progress))
            cell_index += 1
    return McResult(config=mc, cells=tuple(cells))
