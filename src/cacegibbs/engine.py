"""Data-augmentation Gibbs sampler for complier average causal effects.

Each iteration alternates: stratum membership draws for the two mixture
patterns, imputation of missing observed outcomes, imputation of complier
counterfactual outcomes, a stratum-parameter update, an outcome-parameter
update, and the causal-effect computation over currently labeled compliers.
The model variants are listed in ``variants``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.special import expit

from .data import Dataset, ObservedPattern
from .distributions import RngStream, sample_dirichlet
from .errors import ChainAbortError, SingularPosteriorError, ValidationError
from .outcomes import (
    GROUP_ALWAYS,
    GROUP_COMPLIER_CTRL,
    GROUP_COMPLIER_TRT,
    GROUP_NEVER,
    OutcomeParams,
    OutcomePriors,
    impute_outcomes,
    outcome_groups,
    outcome_log_density,
    update_outcome_params,
)
from .strata import (
    ALWAYS_TAKER,
    COMPLIER,
    NEVER_TAKER,
    MlogitProposal,
    MlogitStratumParams,
    ProbitStratumParams,
    StratumProportions,
    log_stratum_probs,
    sample_latent_utilities,
    update_mlogit_gamma,
    update_probit_beta,
    update_proportions,
)
from .variants import VARIANT_TABLE, default_param_names, normalize_variant

# how many iterations between mlogit proposal adaptations during burn-in
_ADAPT_EVERY = 50


@dataclass(frozen=True)
class PriorConfig:
    """All prior hyperparameters, with the conventional defaults.

    The outcome precision has a gamma(``precision_shape``, ``precision_rate``)
    prior, mean shape/rate = 1.  ``outcome_center`` of None means "use the
    overall mean of the observed outcomes", frozen when a fit starts.
    """

    beta_variance: float = 5.0
    mlogit_variance: float = 5.0
    intercept_variance: float = 100.0
    slope_variance: float = 100.0
    outcome_center: float | None = None
    precision_shape: float = 0.01
    precision_rate: float = 0.01
    dirichlet_concentration: tuple[float, float, float] = (1.0, 1.0, 1.0)


@dataclass(frozen=True)
class ModelConfig:
    """Everything that determines a fit besides the dataset itself."""

    variant: str = "Astar"
    burn_in: int = 5000
    kept: int = 5000
    thin: int = 10
    n_chains: int = 3
    seed: int = 0
    priors: PriorConfig = field(default_factory=PriorConfig)

    def __post_init__(self):
        object.__setattr__(self, "variant", normalize_variant(self.variant))
        if self.burn_in < 0 or self.kept < 0:
            raise ValidationError("burn_in and kept must be nonnegative")
        if self.thin < 1:
            raise ValidationError("thin must be at least 1")
        if self.n_chains < 1:
            raise ValidationError("n_chains must be at least 1")

    @property
    def n_saved_per_chain(self) -> int:
        return self.kept // self.thin


@dataclass
class ParameterState:
    """Current stratum and outcome parameters of one chain."""

    stratum: object
    outcome: OutcomeParams

    def to_vector(self) -> np.ndarray:
        """Parameters in saved-draw column order (``default_param_names``)."""
        # each stratum type's fields hold its saved columns in order
        head = [getattr(self.stratum, f.name) for f in fields(self.stratum)]
        return np.concatenate(
            [*head, self.outcome.alpha.ravel(), [self.outcome.sigma2]]
        )

    @classmethod
    def from_vector(cls, variant: str, vector) -> ParameterState:
        """Inverse of ``to_vector``.

        Axes of ``vector`` after the first become trailing draw axes of every
        coefficient: a (n_params, D, 1) stack of saved draws gives one state
        whose membership kernels return (D, n) arrays for n patients.
        """
        spec = VARIANT_TABLE[variant]
        v = np.asarray(vector, dtype=float)
        k = len(spec.stratum_names)
        if spec.family == "probit":
            stratum = ProbitStratumParams(v[:k])
        elif spec.family == "mlogit":
            stratum = MlogitStratumParams(v[:2], v[2:k])
        else:
            stratum = StratumProportions(v[:k])
        alpha = v[k:-1].reshape(4, 2, *v.shape[1:])
        return cls(stratum, OutcomeParams(alpha, v[-1], variant))


@dataclass
class StratumState:
    """Per-patient latent state of one chain."""

    labels: np.ndarray  # stratum codes, known patients fixed
    y_fill: np.ndarray  # observed outcome, or current imputation
    y_cf: np.ndarray  # complier counterfactual outcome, NaN elsewhere


@dataclass(frozen=True)
class Chain:
    """Saved draws of one chain."""

    chain_index: int
    thin: int
    param_names: tuple[str, ...]
    params: np.ndarray  # (n_saved, n_params)
    cace: np.ndarray  # (n_saved,), NaN where no compliers were labeled
    n_compliers: np.ndarray  # (n_saved,)

    @property
    def n_saved(self) -> int:
        return self.params.shape[0]

    @property
    def saved_iterations(self) -> np.ndarray:
        return np.arange(1, self.n_saved + 1) * self.thin

    @property
    def n_undefined_cace(self) -> int:
        return int(np.isnan(self.cace).sum())


@dataclass(frozen=True)
class ChainFailure:
    """Why a chain produced no draws."""

    chain_index: int
    error_type: str
    message: str


@dataclass(frozen=True)
class ModelFit:
    """Result of running all chains of one configuration."""

    config: ModelConfig
    chains: tuple[Chain, ...]
    failures: tuple[ChainFailure, ...]

    @property
    def param_names(self) -> tuple[str, ...]:
        return default_param_names(self.config.variant)

    def pooled_params(self) -> dict[str, np.ndarray]:
        """Concatenate saved scalar parameters over chains, in chain order."""
        stacked = np.concatenate([c.params for c in self.chains], axis=0)
        return {name: stacked[:, j] for j, name in enumerate(self.param_names)}

    def pooled_cace(self) -> np.ndarray:
        return np.concatenate([c.cace for c in self.chains])


def covariate_center(dataset: Dataset) -> float:
    """Covariate origin of the internal model design, frozen per fit.

    Every design matrix uses x minus this sample mean, so intercepts are
    interpretable at a typical patient: outcome intercepts are comparable
    to the observed outcome mean (where their prior is centered) and
    membership intercepts to the marginal stratum shares.  Without this,
    a steep outcome slope would put the true intercept far from the
    data-centered prior and bias the fit.
    """
    return float(dataset.x.mean())


def resolve_outcome_priors(dataset: Dataset, priors: PriorConfig) -> OutcomePriors:
    """Freeze the data-dependent intercept prior center for a fit."""
    if priors.outcome_center is not None:
        center = float(priors.outcome_center)
    else:
        observed = dataset.y[~dataset.y_missing]
        if observed.size == 0:
            raise ValidationError(
                "cannot center outcome priors: no observed outcomes"
            )
        center = float(observed.mean())
    return OutcomePriors(
        center=center,
        intercept_variance=priors.intercept_variance,
        slope_variance=priors.slope_variance,
        precision_shape=priors.precision_shape,
        precision_rate=priors.precision_rate,
    )


def complier_probability(x, y, z, state: ParameterState):
    """Posterior probability that a mixture patient is a complier.

    For a control-arm patient (z=0) the alternative stratum is never-taker;
    for a treated-arm patient (z=1) it is always-taker.  ``y`` may be the
    observed or currently imputed outcome; pass ``y=None`` to drop the
    outcome-density factor and use the membership probabilities alone.
    Works entirely in log space; when both strata are impossible under the
    current parameters (both log membership probabilities -inf) the draw
    degrades to an even split.  A ``state`` with trailing draw axes
    (``ParameterState.from_vector``) gives one row per draw.
    """
    x = np.asarray(x, dtype=float)
    log_psi_c, log_psi_n, log_psi_a = log_stratum_probs(x, state.stratum)
    if z == 0:
        log_alt, t_group, c_group = log_psi_n, GROUP_NEVER, GROUP_COMPLIER_CTRL
    else:
        log_alt, t_group, c_group = log_psi_a, GROUP_ALWAYS, GROUP_COMPLIER_TRT
    log_num = log_psi_c
    if y is not None:
        y = np.asarray(y, dtype=float)
        log_num = log_num + outcome_log_density(y, x, c_group, state.outcome)
        log_alt = log_alt + outcome_log_density(y, x, t_group, state.outcome)
    with np.errstate(invalid="ignore"):
        diff = log_num - log_alt
    return np.where(np.isnan(diff), 0.5, expit(diff))


class _ChainContext:
    """Immutable per-fit data shared by all iterations of a chain."""

    def __init__(self, dataset: Dataset, config: ModelConfig):
        self.config = config
        self.variant = config.variant
        self.spec = VARIANT_TABLE[config.variant]
        self.z = dataset.z.astype(np.int8)
        self.x = dataset.x - covariate_center(dataset)
        self.y = dataset.y
        self.y_missing = dataset.y_missing
        self.n = dataset.n
        pat = dataset.pattern
        self.ctrl_mix = np.nonzero(pat == ObservedPattern.MIXTURE_CONTROL_ARM.value)[0]
        self.trt_mix = np.nonzero(pat == ObservedPattern.MIXTURE_TREATED_ARM.value)[0]
        self.base_labels = np.empty(self.n, dtype=np.int8)
        self.base_labels[pat == ObservedPattern.KNOWN_NEVER_TAKER.value] = NEVER_TAKER
        self.base_labels[pat == ObservedPattern.KNOWN_ALWAYS_TAKER.value] = (
            ALWAYS_TAKER
        )
        self.base_labels[self.ctrl_mix] = COMPLIER
        self.base_labels[self.trt_mix] = COMPLIER
        self.outcome_priors = resolve_outcome_priors(dataset, config.priors)
        observed = dataset.y[~dataset.y_missing]
        if observed.size < 2:
            raise ValidationError(
                "fitting requires at least two observed outcomes"
            )
        self.sigma2_init = float(observed.var(ddof=1))
        if self.sigma2_init <= 0:
            raise ValidationError("observed outcomes are constant")
        self.missing_idx = np.nonzero(self.y_missing)[0]


def _sample_memberships(ctx: _ChainContext, state, params: ParameterState, rng):
    """Redraw the latent stratum of every mixture patient.

    A patient with a missing outcome is drawn given its current imputation.
    """
    for idx, alt_label, arm in (
        (ctx.ctrl_mix, NEVER_TAKER, 0),
        (ctx.trt_mix, ALWAYS_TAKER, 1),
    ):
        if idx.size == 0:
            continue
        p = complier_probability(ctx.x[idx], state.y_fill[idx], arm, params)
        draws = rng.uniform(size=idx.size)
        state.labels[idx] = np.where(draws < p, COMPLIER, alt_label)


def _impute_missing(ctx: _ChainContext, state, params: ParameterState, rng):
    idx = ctx.missing_idx
    if idx.size == 0:
        return
    groups = outcome_groups(state.labels[idx], ctx.z[idx])
    state.y_fill[idx] = impute_outcomes(ctx.x[idx], groups, params.outcome, rng)


def _impute_counterfactuals(ctx: _ChainContext, state, params: ParameterState, rng):
    compl = state.labels == COMPLIER
    state.y_cf.fill(np.nan)
    idx = np.nonzero(compl)[0]
    if idx.size == 0:
        return
    cf_groups = np.where(
        ctx.z[idx] == 1, GROUP_COMPLIER_CTRL, GROUP_COMPLIER_TRT
    ).astype(np.int8)
    state.y_cf[idx] = impute_outcomes(ctx.x[idx], cf_groups, params.outcome, rng)


def compute_cace(state: StratumState, z) -> tuple[float, int]:
    """Mean complier treatment-minus-control difference at the current draw.

    The mean of y(1) - y(0) over the patients labeled compliers, each with
    its observed (or imputed) outcome in its own arm and its imputed
    counterfactual in the other.  Returns (value, n_compliers); the value is
    NaN when no patient is currently labeled a complier.
    """
    compl = state.labels == COMPLIER
    n_c = int(compl.sum())
    if n_c == 0:
        return math.nan, 0
    z = np.asarray(z)
    y1 = np.where(z[compl] == 1, state.y_fill[compl], state.y_cf[compl])
    y0 = np.where(z[compl] == 1, state.y_cf[compl], state.y_fill[compl])
    return float(np.mean(y1 - y0)), n_c


def gibbs_iteration(
    ctx: _ChainContext,
    state: StratumState,
    params: ParameterState,
    rng,
    proposal: MlogitProposal | None,
    chain_index: int,
    iteration: int,
) -> tuple[ParameterState, float, int]:
    """One full systematic-scan update.  Mutates ``state`` in place."""
    _sample_memberships(ctx, state, params, rng)
    _impute_missing(ctx, state, params, rng)
    _impute_counterfactuals(ctx, state, params, rng)

    family = ctx.spec.family
    try:
        if family == "probit":
            u_never, u_split = sample_latent_utilities(
                state.labels, ctx.x, params.stratum, rng
            )
            stratum = update_probit_beta(
                u_never,
                u_split,
                ctx.x,
                ctx.config.priors.beta_variance,
                rng,
            )
        elif family == "mlogit":
            stratum = update_mlogit_gamma(
                params.stratum,
                state.labels,
                ctx.x,
                ctx.config.priors.mlogit_variance,
                rng,
                proposal,
            )
        else:
            stratum = update_proportions(
                state.labels,
                np.asarray(ctx.config.priors.dirichlet_concentration, float),
                rng,
            )
    except SingularPosteriorError as exc:
        raise ChainAbortError(str(exc), chain_index, iteration, "stratum update")

    try:
        groups = outcome_groups(state.labels, ctx.z)
        outcome = update_outcome_params(
            state.y_fill,
            ctx.x,
            groups,
            params.outcome.sigma2,
            ctx.outcome_priors,
            ctx.variant,
            rng,
        )
    except SingularPosteriorError as exc:
        raise ChainAbortError(str(exc), chain_index, iteration, "outcome update")

    cace, n_c = compute_cace(state, ctx.z)
    return ParameterState(stratum, outcome), cace, n_c


def _initial_params(ctx: _ChainContext, chain_index: int, rng) -> ParameterState:
    """Overdispersed start: prior means offset by one prior SD, sign by chain.

    Only intercepts are offset; slopes start at their prior mean.  A slope
    offset of a full prior SD puts linear predictors tens of units into a
    probit tail at typical covariate magnitudes, and a chain started there
    can shed all compliers before the always-split equation relaxes, leaving
    it frozen by inactive truncations for practical purposes.  Intercept
    offsets still separate the chains (one mixture arm starts flooded with
    compliers, the other starved) while keeping every predictor moderate.
    For the logit the two score equations take opposite signs, since shared
    extreme scores starve the reference stratum in both arms.
    """
    delta = 1.0 if chain_index % 2 == 0 else -1.0
    pr = ctx.config.priors
    if ctx.spec.family == "probit":
        off = delta * np.sqrt(pr.beta_variance)
        stratum = ProbitStratumParams(np.array([off, 0.0, off, 0.0]))
    elif ctx.spec.family == "mlogit":
        off = delta * np.sqrt(pr.mlogit_variance)
        stratum = MlogitStratumParams(
            np.array([off, 0.0]), np.array([-off, 0.0])
        )
    else:
        stratum = StratumProportions(
            sample_dirichlet(
                np.zeros(3), np.asarray(pr.dirichlet_concentration, float), rng
            )
        )
    op = ctx.outcome_priors
    intercept = op.center + delta * np.sqrt(op.intercept_variance)
    alpha = np.column_stack([np.full(4, intercept), np.zeros(4)])
    outcome = OutcomeParams(alpha, ctx.sigma2_init, ctx.variant)
    return ParameterState(stratum, outcome)


def _initial_state(ctx: _ChainContext, params: ParameterState, rng) -> StratumState:
    labels = ctx.base_labels.copy()
    for idx, alt in ((ctx.ctrl_mix, NEVER_TAKER), (ctx.trt_mix, ALWAYS_TAKER)):
        if idx.size:
            labels[idx] = np.where(
                rng.uniform(size=idx.size) < 0.5, COMPLIER, alt
            )
    y_fill = ctx.y.copy()
    state = StratumState(
        labels=labels,
        y_fill=y_fill,
        y_cf=np.full(ctx.n, np.nan),
    )
    _impute_missing(ctx, state, params, rng)
    return state


def run_chain(
    dataset: Dataset, config: ModelConfig, chain_index: int, progress=None
) -> Chain:
    """Run one chain to completion and return its saved draws.

    ``progress`` is an optional callable(chain_index, iteration,
    total_iterations, n_compliers) invoked every few hundred iterations.
    """
    ctx = _ChainContext(dataset, config)
    rng = RngStream(seed=config.seed, stream_id=chain_index).generator()
    params = _initial_params(ctx, chain_index, rng)
    state = _initial_state(ctx, params, rng)
    proposal = MlogitProposal.default() if ctx.spec.family == "mlogit" else None

    n_saved = config.n_saved_per_chain
    saved_params = np.empty((n_saved, len(ctx.spec.param_names)))
    saved_cace = np.empty(n_saved)
    saved_n_c = np.empty(n_saved, dtype=np.int32)

    total = config.burn_in + config.kept
    save_slot = 0
    last_n_c = 0
    for it in range(1, total + 1):
        adapting = proposal is not None and it <= config.burn_in
        params, cace, n_c = gibbs_iteration(
            ctx, state, params, rng, proposal, chain_index, it
        )
        last_n_c = n_c
        if adapting and it % _ADAPT_EVERY == 0:
            proposal.adapt()
        post = it - config.burn_in
        if post > 0 and post % config.thin == 0:
            saved_params[save_slot] = params.to_vector()
            saved_cace[save_slot] = cace
            saved_n_c[save_slot] = n_c
            save_slot += 1
        if progress is not None and (it % 500 == 0 or it == total):
            progress(chain_index, it, total, n_c)

    assert save_slot == n_saved
    return Chain(
        chain_index=chain_index,
        thin=config.thin,
        param_names=ctx.spec.param_names,
        params=saved_params,
        cace=saved_cace,
        n_compliers=saved_n_c,
    )


def run_model(dataset: Dataset, config: ModelConfig, progress=None) -> ModelFit:
    """Run all chains one after another and pool the survivors.

    Chain k always draws from random stream k.  A chain that aborts is
    reported in ``failures`` while the remaining chains still return their
    draws.
    """
    chains: list[Chain] = []
    failures: list[ChainFailure] = []
    for k in range(config.n_chains):
        try:
            chains.append(run_chain(dataset, config, k, progress=progress))
        except ChainAbortError as exc:
            failures.append(ChainFailure(k, type(exc).__name__, str(exc)))
    return ModelFit(config=config, chains=tuple(chains), failures=tuple(failures))
