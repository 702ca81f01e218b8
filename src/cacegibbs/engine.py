"""Data-augmentation Gibbs sampler for complier average causal effects.

Each iteration alternates: stratum membership draws for the two mixture
patterns, imputation of missing observed outcomes, imputation of complier
counterfactual outcomes, a stratum-parameter update, an outcome-parameter
update, and the causal-effect computation over currently labeled compliers.
The model variants are listed in ``variants``.

One sweep advances every chain of a fit: the latent state holds a (K, n)
row per chain and every parameter a trailing (K, 1) chain axis, while chain
k takes its random draws from stream k in exactly the order it would alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
from scipy.special import expit

from .data import Dataset, ObservedPattern
from .distributions import RngStream, chain_draws, generators, sample_dirichlet
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
    coefficients_first,
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
    """Current stratum and outcome parameters of a batch of chains.

    Every coefficient carries the batch's trailing (K, 1) chain axes; a lone
    chain's have none.
    """

    stratum: object
    outcome: OutcomeParams

    def to_vector(self) -> np.ndarray:
        """Parameters in saved-draw column order (``default_param_names``),
        followed by any chain axes."""
        # each stratum type's fields hold its saved columns in order
        head = [getattr(self.stratum, f.name) for f in fields(self.stratum)]
        alpha = self.outcome.alpha
        sigma2 = np.asarray(self.outcome.sigma2)
        return np.concatenate(
            [*head, alpha.reshape(8, *alpha.shape[2:]), sigma2[None]]
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

    def select(self, rows) -> ParameterState:
        """The parameters of the chains in ``rows``."""
        return ParameterState(_select(self.stratum, rows), _select(self.outcome, rows))


def _select(params, rows):
    """A parameter dataclass for the chains in ``rows``: the chain axis of
    every array field is second to last."""
    values = {f.name: getattr(params, f.name) for f in fields(params)}
    return type(params)(
        **{
            name: v[..., rows, :] if isinstance(v, np.ndarray) else v
            for name, v in values.items()
        }
    )


@dataclass
class StratumState:
    """Per-patient latent state, (K, n) for a batch of K chains."""

    labels: np.ndarray  # stratum codes, known patients fixed
    y_fill: np.ndarray  # observed outcome, or current imputation
    y_cf: np.ndarray  # complier counterfactual outcome, NaN elsewhere


@dataclass(frozen=True)
class Chain:
    """Saved draws of one chain.

    ``acceptance`` and ``proposal_sd`` are the Metropolis report of a
    multinomial-logit chain: the post-burn-in acceptance rate of each block
    (never, always), None for a block never tried, and each block's final
    (intercept, slope) proposal scales.  Other variants leave them None.
    """

    chain_index: int
    thin: int
    param_names: tuple[str, ...]
    params: np.ndarray  # (n_saved, n_params)
    cace: np.ndarray  # (n_saved,), NaN where no compliers were labeled
    n_compliers: np.ndarray  # (n_saved,)
    acceptance: tuple | None = None
    proposal_sd: tuple | None = None

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
    """Immutable per-fit data shared by all iterations of every chain."""

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
    Each chain draws one uniform per mixture patient, control arm first.
    """
    n_ctrl = ctx.ctrl_mix.size
    lead = state.labels.shape[:-1]
    u = chain_draws(rng, "random", (*lead, n_ctrl + ctx.trt_mix.size))
    for idx, alt_label, arm, draws in (
        (ctx.ctrl_mix, NEVER_TAKER, 0, u[..., :n_ctrl]),
        (ctx.trt_mix, ALWAYS_TAKER, 1, u[..., n_ctrl:]),
    ):
        if idx.size == 0:
            continue
        p = complier_probability(ctx.x[idx], state.y_fill[..., idx], arm, params)
        state.labels[..., idx] = np.where(draws < p, COMPLIER, alt_label)


def _impute_missing(ctx: _ChainContext, state, params: ParameterState, rng):
    idx = ctx.missing_idx
    if idx.size == 0:
        return
    groups = outcome_groups(state.labels[..., idx], ctx.z[idx])
    k = len(generators(rng))
    x = np.concatenate([ctx.x[idx]] * k)
    chain = np.repeat(np.arange(k), idx.size)
    state.y_fill[..., idx] = impute_outcomes(
        x, groups.ravel(), params.outcome, rng, chain
    ).reshape(groups.shape)


def _impute_counterfactuals(ctx: _ChainContext, state, params: ParameterState, rng):
    compl = state.labels == COMPLIER
    state.y_cf.fill(np.nan)
    chain, idx = np.nonzero(np.atleast_2d(compl))
    if idx.size == 0:
        return
    cf_groups = np.where(
        ctx.z[idx] == 1, GROUP_COMPLIER_CTRL, GROUP_COMPLIER_TRT
    ).astype(np.int8)
    state.y_cf[compl] = impute_outcomes(
        ctx.x[idx], cf_groups, params.outcome, rng, chain
    )


def compute_cace(state: StratumState, z):
    """Mean complier treatment-minus-control difference at the current draw.

    The mean of y(1) - y(0) over the patients labeled compliers, each with
    its observed (or imputed) outcome in its own arm and its imputed
    counterfactual in the other.  Returns (value, n_compliers), one entry per
    chain of a (K, n) state; the value is NaN when no patient is currently
    labeled a complier.  Each chain sums its own compliers, in patient order.
    """
    compl = state.labels == COMPLIER
    n_c = compl.sum(axis=-1)
    diff = state.y_fill - state.y_cf  # y(1) - y(0) of a treated complier
    np.subtract(state.y_cf, state.y_fill, out=diff, where=np.asarray(z) != 1)
    flat = diff[compl]
    counts = np.atleast_1d(n_c)
    ends = np.cumsum(counts)
    sums = np.array([flat[a:b].sum() for a, b in zip(ends - counts, ends)])
    cace = np.divide(
        sums.reshape(n_c.shape), n_c, out=np.full(n_c.shape, np.nan), where=n_c > 0
    )
    return cace, n_c


class _Batch:
    """The chains a sweep advances: their streams, state, parameters and draws.

    Row r of every per-chain array belongs to chain ``chains[r]``.  A chain
    whose update turns singular leaves the batch with a ``ChainFailure``;
    the other rows carry on with the draws they would make without it.
    """

    def __init__(self, ctx: _ChainContext, chain_indices):
        config = ctx.config
        self.chains = np.asarray(chain_indices, dtype=int)
        self.rngs = [
            RngStream(seed=config.seed, stream_id=int(k)).generator()
            for k in self.chains
        ]
        self.params = _initial_params(ctx, self.chains, self.rngs)
        self.state = _initial_state(ctx, self.params, self.rngs)
        self.proposal = (
            MlogitProposal.default(self.chains.size)
            if ctx.spec.family == "mlogit"
            else None
        )
        n_saved = config.n_saved_per_chain
        self.saved_params = np.empty(
            (self.chains.size, n_saved, len(ctx.spec.param_names))
        )
        self.saved_cace = np.empty((self.chains.size, n_saved))
        self.saved_n_c = np.empty((self.chains.size, n_saved), dtype=np.int32)
        self.failures: list[ChainFailure] = []

    @property
    def size(self) -> int:
        return self.chains.size

    def abort(self, row: int, iteration: int, block: str, message: str):
        """Drop the chain in ``row`` and record why."""
        exc = ChainAbortError(message, int(self.chains[row]), iteration, block)
        self.failures.append(
            ChainFailure(int(self.chains[row]), type(exc).__name__, str(exc))
        )
        keep = np.delete(np.arange(self.size), row)
        self.chains = self.chains[keep]
        del self.rngs[row]
        self.params = self.params.select(keep)
        state = self.state
        self.state = StratumState(state.labels[keep], state.y_fill[keep], state.y_cf[keep])
        if self.proposal is not None:
            self.proposal = self.proposal.select(keep)
        self.saved_params = self.saved_params[keep]
        self.saved_cace = self.saved_cace[keep]
        self.saved_n_c = self.saved_n_c[keep]

    def guarded(self, iteration: int, block: str, update):
        """``update(rows)`` for the rows (of the batch as it is now) still alive.

        An update raises ``SingularPosteriorError`` before any chain draws,
        so the failing chain leaves and the update runs again for the rest.
        Returns the result and the rows it covers; the result is None once
        no chain is left.
        """
        rows = slice(None)
        alive = np.arange(self.size)
        while alive.size:
            try:
                return update(rows), rows
            except SingularPosteriorError as exc:
                self.abort(exc.row, iteration, block, str(exc))
                rows = alive = np.delete(alive, exc.row)
        return None, rows


def gibbs_iteration(ctx: _ChainContext, batch: _Batch, iteration: int):
    """One full systematic-scan update of every chain in ``batch``, in place.

    Returns the (cace, n_compliers) of each chain still in the batch, or
    None once every chain has failed.
    """
    state, params, rngs = batch.state, batch.params, batch.rngs
    _sample_memberships(ctx, state, params, rngs)
    _impute_missing(ctx, state, params, rngs)
    _impute_counterfactuals(ctx, state, params, rngs)

    family = ctx.spec.family
    priors = ctx.config.priors
    if family == "probit":
        u_never, u_split = sample_latent_utilities(
            state.labels, ctx.x, params.stratum, rngs
        )
        stratum, _ = batch.guarded(
            iteration,
            "stratum update",
            lambda rows: update_probit_beta(
                u_never[rows], u_split[rows], ctx.x, priors.beta_variance, batch.rngs
            ),
        )
    elif family == "mlogit":
        stratum = update_mlogit_gamma(
            params.stratum,
            state.labels,
            ctx.x,
            priors.mlogit_variance,
            rngs,
            batch.proposal,
        )
    else:
        stratum = update_proportions(
            state.labels,
            np.asarray(priors.dirichlet_concentration, float),
            rngs,
        )

    if not batch.size:
        return None
    state = batch.state
    groups = outcome_groups(state.labels, ctx.z)
    sigma2 = batch.params.outcome.sigma2
    outcome, rows = batch.guarded(
        iteration,
        "outcome update",
        lambda rows: update_outcome_params(
            state.y_fill[rows],
            ctx.x,
            groups[rows],
            sigma2[rows],
            ctx.outcome_priors,
            ctx.variant,
            batch.rngs,
        ),
    )
    if not batch.size:
        return None
    if not isinstance(rows, slice):  # a chain left in the outcome update
        stratum = _select(stratum, rows)
    batch.params = ParameterState(stratum, outcome)
    return compute_cace(batch.state, ctx.z)


def _initial_params(ctx: _ChainContext, chains, rng) -> ParameterState:
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
    delta = np.where(np.asarray(chains) % 2 == 0, 1.0, -1.0)[:, None]
    zero = np.zeros_like(delta)
    pr = ctx.config.priors
    if ctx.spec.family == "probit":
        off = delta * np.sqrt(pr.beta_variance)
        stratum = ProbitStratumParams(np.stack([off, zero, off, zero]))
    elif ctx.spec.family == "mlogit":
        off = delta * np.sqrt(pr.mlogit_variance)
        stratum = MlogitStratumParams(
            np.stack([off, zero]), np.stack([-off, zero])
        )
    else:
        pi = sample_dirichlet(
            np.zeros((delta.shape[0], 3)),
            np.asarray(pr.dirichlet_concentration, float),
            rng,
        )
        stratum = StratumProportions(coefficients_first(pi, pi.shape[:1]))
    op = ctx.outcome_priors
    intercept = op.center + delta * np.sqrt(op.intercept_variance)
    alpha = np.stack([np.stack([intercept, zero])] * 4)
    outcome = OutcomeParams(alpha, np.full_like(delta, ctx.sigma2_init), ctx.variant)
    return ParameterState(stratum, outcome)


def _initial_state(ctx: _ChainContext, params: ParameterState, rng) -> StratumState:
    k = len(rng)
    state = StratumState(
        labels=np.tile(ctx.base_labels, (k, 1)),
        y_fill=np.tile(ctx.y, (k, 1)),
        y_cf=np.full((k, ctx.n), np.nan),
    )
    n_ctrl = ctx.ctrl_mix.size
    u = chain_draws(rng, "random", (k, n_ctrl + ctx.trt_mix.size))
    for idx, alt, draws in (
        (ctx.ctrl_mix, NEVER_TAKER, u[:, :n_ctrl]),
        (ctx.trt_mix, ALWAYS_TAKER, u[:, n_ctrl:]),
    ):
        state.labels[:, idx] = np.where(draws < 0.5, COMPLIER, alt)
    _impute_missing(ctx, state, params, rng)
    return state


def run_chain(
    dataset: Dataset, config: ModelConfig, chain_indices, progress=None
) -> ModelFit:
    """Run the chains ``chain_indices`` together, one sweep advancing all.

    Chain k always draws from random stream k, exactly as it would alone, so
    its draws do not depend on which chains run beside it.  A chain that
    aborts is reported in ``failures`` while the others still return their
    draws.  ``progress`` is an optional callable(chain_index, iteration,
    total_iterations, n_compliers), invoked for each chain every few hundred
    iterations.
    """
    ctx = _ChainContext(dataset, config)
    batch = _Batch(ctx, chain_indices)
    total = config.burn_in + config.kept
    save_slot = 0
    for it in range(1, total + 1):
        draw = gibbs_iteration(ctx, batch, it)
        if draw is None:
            break
        cace, n_c = draw
        if batch.proposal is not None and it <= config.burn_in:
            if it % _ADAPT_EVERY == 0:
                batch.proposal.adapt()
            if it == config.burn_in:
                batch.proposal.reset()  # report post-burn-in acceptance only
        post = it - config.burn_in
        if post > 0 and post % config.thin == 0:
            vector = batch.params.to_vector()
            batch.saved_params[:, save_slot] = vector.reshape(vector.shape[0], -1).T
            batch.saved_cace[:, save_slot] = cace
            batch.saved_n_c[:, save_slot] = n_c
            save_slot += 1
        if progress is not None and (it % 500 == 0 or it == total):
            for k, n_c_k in zip(batch.chains, n_c):
                progress(int(k), it, total, int(n_c_k))

    chains = []
    for row, k in enumerate(batch.chains):
        report = {}
        if batch.proposal is not None:
            acceptance, proposal_sd = batch.proposal.report(row)
            report = dict(acceptance=acceptance, proposal_sd=proposal_sd)
        chains.append(
            Chain(
                chain_index=int(k),
                thin=config.thin,
                param_names=ctx.spec.param_names,
                params=batch.saved_params[row],
                cace=batch.saved_cace[row],
                n_compliers=batch.saved_n_c[row],
                **report,
            )
        )
    failures = sorted(batch.failures, key=lambda f: f.chain_index)
    return ModelFit(config=config, chains=tuple(chains), failures=tuple(failures))


def run_model(dataset: Dataset, config: ModelConfig, progress=None) -> ModelFit:
    """Run all chains of ``config`` as one batch and pool the survivors."""
    return run_chain(dataset, config, range(config.n_chains), progress=progress)
