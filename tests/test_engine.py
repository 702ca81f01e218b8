"""Sampler orchestration checks: configs, membership draws, chains, pooling."""

import hashlib

import numpy as np
import pytest

from cacegibbs.data import Dataset, PatientRecord
from cacegibbs.distributions import RngStream
import cacegibbs.engine as engine
from cacegibbs.engine import (
    ChainFailure,
    ModelConfig,
    ParameterState,
    PriorConfig,
    StratumState,
    _Batch,
    _ChainContext,
    _impute_counterfactuals,
    _sample_memberships,
    complier_probability,
    compute_cace,
    default_param_names,
    gibbs_iteration,
    normalize_variant,
    resolve_outcome_priors,
    run_chain,
    run_model,
)
from cacegibbs.errors import SingularPosteriorError, ValidationError
from cacegibbs.outcomes import OutcomeParams
from cacegibbs.simulation import (
    DgpConfig,
    XLaw,
    generate_dataset,
    generate_matched_fixture,
)
from cacegibbs.strata import COMPLIER, ProbitStratumParams, StratumProportions


def _flat_outcome(intercepts, sigma2, variant="D"):
    alpha = np.column_stack([np.asarray(intercepts, float), np.zeros(4)])
    return OutcomeParams(alpha, sigma2, variant)


def _small_dataset(seed=0, n=60, corr=0.3):
    cfg = DgpConfig(n=n, corr_xy=corr, true_cace=4.0)
    ds, _ = generate_dataset(cfg, RngStream(seed=seed))
    return ds


FAST = dict(burn_in=200, kept=300, thin=5, n_chains=3)


def test_normalize_variant_aliases():
    assert normalize_variant("A*") == "Astar"
    assert normalize_variant("C*") == "Cstar"
    assert normalize_variant("D") == "D"
    with pytest.raises(ValidationError):
        normalize_variant("E")


def test_default_param_names_by_variant():
    a = default_param_names("A")
    assert a[0] == "never_probit_intercept"
    assert a[-1] == "sigma2"
    assert len(a) == 13
    assert len(default_param_names("Cstar")) == 13
    d = default_param_names("D")
    assert d[:3] == ("prop_complier", "prop_never", "prop_always")
    assert len(d) == 12


def test_model_config_validation():
    with pytest.raises(ValidationError):
        ModelConfig(thin=0)
    with pytest.raises(ValidationError):
        ModelConfig(n_chains=0)
    with pytest.raises(ValidationError):
        ModelConfig(burn_in=-1)
    assert ModelConfig(variant="A*").variant == "Astar"
    assert ModelConfig(kept=5000, thin=10).n_saved_per_chain == 500


def test_complier_probability_frozen_value():
    """Proportions (0.25, 0.5, 0.25), flat outcome means 40/45, sigma2=100,
    control-arm patient with y=45: posterior complier probability has a
    closed form 0.25 / (0.25 + 0.5 exp(-1/8))."""
    state = ParameterState(
        StratumProportions(np.array([0.25, 0.5, 0.25])),
        _flat_outcome([40.0, 0.0, 45.0, 0.0], 100.0),
    )
    p = complier_probability(np.array([7.0]), np.array([45.0]), 0, state)
    assert p[0] == pytest.approx(0.36166446309228156, abs=1e-12)


def test_complier_probability_zero_when_stratum_impossible():
    state = ParameterState(
        StratumProportions(np.array([0.0, 0.5, 0.5])),
        _flat_outcome([40.0, 40.0, 40.0, 40.0], 100.0),
    )
    p = complier_probability(np.array([1.0]), np.array([41.0]), 0, state)
    assert p[0] == 0.0


def test_complier_probability_even_split_when_both_impossible():
    # control-arm mixture but all mass on always-takers: 0/0 resolves to 1/2
    state = ParameterState(
        StratumProportions(np.array([0.0, 0.0, 1.0])),
        _flat_outcome([40.0, 40.0, 40.0, 40.0], 100.0),
    )
    p = complier_probability(np.array([1.0]), np.array([41.0]), 0, state)
    assert p[0] == 0.5


def test_complier_probability_without_outcome():
    state = ParameterState(
        StratumProportions(np.array([0.25, 0.5, 0.25])),
        _flat_outcome([0.0, 0.0, 0.0, 0.0], 1.0),
    )
    p0 = complier_probability(np.array([1.0]), None, 0, state)
    p1 = complier_probability(np.array([1.0]), None, 1, state)
    assert p0[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert p1[0] == pytest.approx(0.5, abs=1e-12)


def test_membership_frequency_matches_probability():
    """One membership sweep over many identical patients lands on the
    analytic complier probability."""
    n_mix = 5000
    records = [
        PatientRecord(f"c{i}", 0, 0, 45.0, 12.0) for i in range(n_mix)
    ] + [PatientRecord("t0", 1, 1, 47.0, 12.0)]
    ds = Dataset(records)
    config = ModelConfig(variant="D", **FAST)
    ctx = _ChainContext([ds], config, [0])  # a batch of one chain
    params = ParameterState(
        StratumProportions(np.array([0.25, 0.5, 0.25])),
        _flat_outcome([40.0, 0.0, 45.0, 0.0], 100.0),
    )
    state = StratumState(
        labels=ctx.base_labels.copy(),
        y_fill=ctx.y.copy(),
        y_cf=np.full(ctx.y.shape, np.nan),
    )
    rng = RngStream(seed=51).generator()
    _sample_memberships(ctx, state, params, [rng])
    p = 0.36166446309228156
    freq = float((state.labels[0, :n_mix] == COMPLIER).mean())
    assert abs(freq - p) < 4 * np.sqrt(p * (1 - p) / n_mix)


def test_compute_cace_direct():
    labels = np.array([[COMPLIER, COMPLIER, 1, 2]], dtype=np.int8)
    z = np.array([[1, 0, 0, 1]])
    state = StratumState(
        labels=labels,
        y_fill=np.array([[10.0, 3.0, 99.0, 99.0]]),
        y_cf=np.array([[6.0, 8.0, np.nan, np.nan]]),
    )
    (value,), (n_c,) = compute_cace(state, z)
    # treated complier: 10 - 6; control complier: 8 - 3
    assert value == pytest.approx(0.5 * (4.0 + 5.0))
    assert n_c == 2
    state.labels = np.array([[1, 1, 1, 2]], dtype=np.int8)
    (value,), (n_c,) = compute_cace(state, z)
    assert np.isnan(value) and n_c == 0


def test_resolve_outcome_priors_centering():
    ds = Dataset(
        [
            PatientRecord("a", 0, 0, 10.0, 1.0),
            PatientRecord("b", 1, 1, 20.0, 1.0),
            PatientRecord("c", 1, 0, None, 1.0),
        ]
    )
    priors = resolve_outcome_priors(ds, PriorConfig())
    assert priors.center == pytest.approx(15.0)
    explicit = resolve_outcome_priors(ds, PriorConfig(outcome_center=42.0))
    assert explicit.center == 42.0
    all_missing = Dataset(
        [
            PatientRecord("a", 0, 0, None, 1.0),
            PatientRecord("b", 1, 1, None, 1.0),
        ]
    )
    with pytest.raises(ValidationError):
        resolve_outcome_priors(all_missing, PriorConfig())


def test_chain_shapes_and_saved_iterations():
    ds = _small_dataset(seed=1)
    config = ModelConfig(variant="D", burn_in=40, kept=60, thin=10, n_chains=1)
    chain = run_chain(ds, config, [0]).chains[0]
    assert chain.n_saved == 6
    assert np.array_equal(chain.saved_iterations, [10, 20, 30, 40, 50, 60])
    assert chain.params.shape == (6, 12)
    assert chain.cace.shape == (6,)
    assert chain.param_names == default_param_names("D")
    # saved proportions live on the simplex
    assert np.allclose(chain.params[:, :3].sum(axis=1), 1.0)
    assert np.all(chain.params[:, -1] > 0)  # sigma2


def test_complier_indicators_only_vary_on_mixture_patients():
    """Checks on the live sweep state of every chain in a batch: labels,
    complier count, counterfactuals."""
    ds = _small_dataset(seed=2)
    config = ModelConfig(variant="A", **FAST)
    ctx = _ChainContext([ds], config, [0] * 3)
    batch = _Batch(ctx, range(3), [config.seed] * 3, [0] * 3)
    mixture = (ds.pattern == 0) | (ds.pattern == 3)
    z = np.asarray(ds.z)
    # complier groups far apart, so a counterfactual shows which it came from
    lone = ParameterState(
        ProbitStratumParams(np.zeros(4)),
        _flat_outcome([0.0, 0.0, 100.0, 200.0], 1.0, "A"),
    )
    separated = ParameterState.from_vector(
        "A", np.repeat(lone.to_vector()[:, None, None], 3, axis=1)
    )
    seen = np.zeros((3, ds.n), dtype=bool)
    for it in range(1, 61):
        _, n_c = gibbs_iteration(ctx, batch, it)
        state = batch.state
        for row in range(3):
            compl = state.labels[row] == COMPLIER
            seen[row] |= compl
            assert not compl[~mixture].any()  # revealed patients are never compliers
            assert n_c[row] == int(compl.sum())
            assert np.array_equal(~np.isnan(state.y_cf[row]), compl)
        _impute_counterfactuals(ctx, state, separated, batch.rngs)
        for row in range(3):
            compl = state.labels[row] == COMPLIER
            y_cf = state.y_cf[row]
            # treated compliers draw from the control complier group, and back
            assert np.all(np.abs(y_cf[compl & (z == 1)] - 100.0) < 6.0)
            assert np.all(np.abs(y_cf[compl & (z == 0)] - 200.0) < 6.0)
            assert np.all(np.isnan(y_cf[~compl]))
    assert seen[:, mixture].any(axis=1).all()


def _missing_in_both_mixtures(seed=9, n=90):
    """Generated data with every fifth outcome missing, in both mixture patterns."""
    ds = _small_dataset(seed=seed, n=n)
    records = [
        PatientRecord(r.id, r.z, r.d_obs, None if i % 5 == 2 else r.y_obs, r.x)
        for i, r in enumerate(ds.records)
    ]
    ds = Dataset(records)
    missing_patterns = set(ds.pattern[ds.y_missing].tolist())
    assert {0, 3} <= missing_patterns
    return ds


def _assert_same_chain(a, b):
    assert a.chain_index == b.chain_index
    assert np.array_equal(a.params, b.params)
    assert np.array_equal(a.cace, b.cace, equal_nan=True)
    assert np.array_equal(a.n_compliers, b.n_compliers)


@pytest.mark.parametrize("variant", ["A", "Astar", "B", "Cstar", "D"])
def test_lone_chain_equals_its_row_of_the_batch(variant):
    """Chain k draws from stream k exactly as it would alone."""
    ds = _missing_in_both_mixtures()
    config = ModelConfig(variant=variant, burn_in=60, kept=60, thin=3, n_chains=3)
    batch = run_model(ds, config)
    assert len(batch.chains) == 3
    for k in range(3):
        _assert_same_chain(run_chain(ds, config, [k]).chains[0], batch.chains[k])


@pytest.mark.parametrize(
    "variant, update, block",
    [
        ("A", "update_probit_beta", "stratum update"),
        ("Astar", "update_outcome_params", "outcome update"),
    ],
)
def test_singular_chain_leaves_batch_others_unchanged(monkeypatch, variant, update, block):
    """Chain 1 of three turns singular at iteration 7: it is reported, and
    chains 0 and 2 keep the draws of a batch of {0, 2}."""
    ds = _missing_in_both_mixtures()
    config = ModelConfig(variant=variant, burn_in=30, kept=30, thin=3, n_chains=3)
    expected = run_chain(ds, config, [0, 2])
    real = getattr(engine, update)
    full_batch_calls = []

    def singular_for_chain_1(*args):
        if len(args[0]) == 3:  # the whole batch is still in
            full_batch_calls.append(1)
            if len(full_batch_calls) == 7:
                raise SingularPosteriorError("forced", row=1)
        return real(*args)

    monkeypatch.setattr(engine, update, singular_for_chain_1)
    fit = run_model(ds, config)
    assert fit.failures == (
        ChainFailure(
            1,
            "ChainAbortError",
            f"chain 1 aborted at iteration 7 in {block}: forced",
        ),
    )
    assert [c.chain_index for c in fit.chains] == [0, 2]
    for got, want in zip(fit.chains, expected.chains):
        _assert_same_chain(got, want)


@pytest.mark.parametrize("variant", ["A", "Astar", "B", "Cstar", "D"])
def test_run_model_bitwise_deterministic(variant):
    ds = _small_dataset(seed=3)
    config = ModelConfig(variant=variant, **FAST)
    fit1 = run_model(ds, config)
    fit2 = run_model(ds, config)
    assert len(fit1.chains) == 3
    for c1, c2 in zip(fit1.chains, fit2.chains):
        assert np.array_equal(c1.params, c2.params)
        assert np.array_equal(c1.cace, c2.cace, equal_nan=True)


def test_chains_differ_from_each_other():
    ds = _small_dataset(seed=5)
    fit = run_model(ds, ModelConfig(variant="D", **FAST))
    assert not np.array_equal(fit.chains[0].params, fit.chains[1].params)


def test_pooled_shapes():
    ds = _small_dataset(seed=6)
    config = ModelConfig(variant="B", **FAST)
    fit = run_model(ds, config)
    pooled = fit.pooled_params()
    n_total = 3 * config.n_saved_per_chain
    assert set(pooled) == set(default_param_names("B"))
    assert pooled["sigma2"].shape == (n_total,)
    assert fit.pooled_cace().shape == (n_total,)
    assert np.all(pooled["y_n_slope"] == 0.0)  # covariate-free outcome model


def test_chain_failure_reported_not_raised():
    """A collinear shared-slope update with a flat prior aborts the chain;
    the fit reports the failure instead of crashing."""
    records = [PatientRecord(f"c{i}", 0, 0, float(40 + i), 12.0) for i in range(10)]
    records += [PatientRecord(f"t{i}", 1, 1, float(44 + i), 12.0) for i in range(10)]
    ds = Dataset(records)
    priors = PriorConfig(intercept_variance=1e300, slope_variance=1e300)
    config = ModelConfig(
        variant="Astar", burn_in=20, kept=20, thin=2, n_chains=2, priors=priors
    )
    fit = run_model(ds, config)
    assert len(fit.chains) == 0
    assert len(fit.failures) == 2
    assert all("aborted at iteration" in f.message for f in fit.failures)
    assert all(f.error_type == "ChainAbortError" for f in fit.failures)


def test_constant_covariate_fits_with_default_priors():
    # proper priors keep the collinear design invertible
    records = [PatientRecord(f"c{i}", 0, 0, float(40 + i), 12.0) for i in range(10)]
    records += [PatientRecord(f"t{i}", 1, 1, float(44 + i), 12.0) for i in range(10)]
    ds = Dataset(records)
    config = ModelConfig(variant="Astar", burn_in=50, kept=50, thin=5, n_chains=2)
    fit = run_model(ds, config)
    assert len(fit.chains) == 2
    assert not fit.failures
    for c in fit.chains:
        assert np.all(np.isfinite(c.params))


def test_progress_callback_cadence():
    ds = _small_dataset(seed=7)
    config = ModelConfig(variant="D", burn_in=300, kept=700, thin=10, n_chains=2)
    calls = []
    run_model(ds, config, progress=lambda k, it, total, n_c: calls.append((k, it, total)))
    assert calls == [(0, 500, 1000), (1, 500, 1000), (0, 1000, 1000), (1, 1000, 1000)]


def test_parameter_vector_matches_names():
    ds = _small_dataset(seed=8)
    for variant in ("A", "Cstar", "D"):
        config = ModelConfig(variant=variant, burn_in=10, kept=10, thin=5, n_chains=1)
        chain = run_chain(ds, config, [0]).chains[0]
        assert chain.params.shape[1] == len(default_param_names(variant))


@pytest.mark.parametrize("variant", ["A", "Astar", "B", "Cstar", "D"])
def test_batch_of_fits_equals_their_lone_fits(variant):
    """Two fits of datasets with different mixture and missing-outcome
    counts, run in one batch: each fit's draws are those of its own run."""
    records = generate_matched_fixture(RngStream(seed=11)).records
    datasets = [Dataset(records[:90]), Dataset(records[40:130])]
    assert len({int(ds.y_missing.sum()) for ds in datasets}) == 2
    assert len({int(np.isin(ds.pattern, (0, 3)).sum()) for ds in datasets}) == 2
    configs = [
        ModelConfig(variant=variant, burn_in=40, kept=40, thin=2, n_chains=2, seed=seed)
        for seed in (3, 4)
    ]
    fits = run_model(datasets, configs)
    assert len(fits) == 2
    for ds, config, fit in zip(datasets, configs, fits):
        lone = run_model(ds, config)
        assert fit.config == config and not fit.failures
        assert len(fit.chains) == 2
        for got, want in zip(fit.chains, lone.chains):
            _assert_same_chain(got, want)
            assert got.acceptance == want.acceptance


def test_fit_whose_chains_all_abort_leaves_the_batch_others_unchanged():
    """A degenerate covariate with flat outcome priors makes the shared-slope
    update singular for that dataset's chains only."""
    flat = PriorConfig(intercept_variance=1e300, slope_variance=1e300)
    degenerate, _ = generate_dataset(
        DgpConfig(n=100, x_law=XLaw(mean=12.0, sd=0.0)), RngStream(seed=1)
    )
    spread, _ = generate_dataset(DgpConfig(n=100), RngStream(seed=2))
    datasets = [spread, degenerate, spread]
    configs = [
        ModelConfig(
            variant="Astar", burn_in=20, kept=20, thin=2, n_chains=2, seed=seed, priors=flat
        )
        for seed in (3, 4, 5)
    ]
    fits = run_model(datasets, configs)
    assert not fits[1].chains
    assert [f.chain_index for f in fits[1].failures] == [0, 1]
    for ds, config, fit in zip(datasets, configs, fits):
        lone = run_model(ds, config)
        assert fit.failures == lone.failures
        assert len(fit.chains) == len(lone.chains)
        for got, want in zip(fit.chains, lone.chains):
            _assert_same_chain(got, want)


def test_batched_fits_must_share_all_but_the_seed():
    ds = _small_dataset(seed=3)
    configs = [ModelConfig(variant="D", **FAST), ModelConfig(variant="B", **FAST)]
    with pytest.raises(ValidationError):
        run_model([ds, ds], configs)
    with pytest.raises(ValidationError):
        run_model([ds, _small_dataset(seed=3, n=61)], [configs[0]] * 2)


def test_too_few_observed_outcomes_rejected():
    ds = Dataset(
        [
            PatientRecord("a", 0, 0, 5.0, 1.0),
            PatientRecord("b", 1, 1, None, 1.0),
        ]
    )
    with pytest.raises(ValidationError):
        run_chain(ds, ModelConfig(variant="D", **FAST), [0])


# SHA-256 of every chain's params, cace and n_compliers bytes, in chain order
# (fit after fit for a batch), recorded before the sampler took one batch
# layout; a change to the sampler's arithmetic or draw order changes them.
PINNED_FIT_DIGESTS = {
    "A": "bb963fe9a86c6f74bb548f62012966b8571c5a52f057ee7a0f507f02597dd832",
    "Astar": "9a60c0c67f2411465c17a1a0b1b3e9d8c6099ae04e521af90ffdb12d5c1f184b",
    "B": "22ca66c897d88ee25e491e9317f67c642eae7d7dc0286144f368ec32ea3a1ac3",
    "Cstar": "984c3d8207607c2d489946e327912f75fc3e39ea248735192aac3541f04c8eec",
    "D": "2df0df281ba03091dc469529f66a8befc10fffe4e318bea0d459337842789f85",
}
PINNED_BATCH_DIGESTS = {
    "A": "5d0350baf0b34e3e5242ede5742e638c9d9d1ec6ac9b9dad8db95fb42deccf97",
    "Astar": "b539ac9a9825e817d50bd0e3185042b538c0b30aebbe0c56ba729e696aec6531",
    "B": "cda80795642da82dea3f104ea5e37323d4105adf0eec72e23d6ab95eea0b6c01",
    "Cstar": "f15321ee5dcb1f9a346ded634c903f3e2d74505a6e6eda1a1b7f384c00e51de7",
    "D": "86a7de28c8c87c84d064a5f9f6a47be8291ce5ce620571405280a9b2e0e9cc90",
}


def _draws_digest(fits):
    h = hashlib.sha256()
    for fit in fits:
        for chain in fit.chains:
            for values in (chain.params, chain.cace, chain.n_compliers):
                h.update(values.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("variant", ["A", "Astar", "B", "Cstar", "D"])
def test_fit_draws_match_pinned_digest(variant):
    """Three chains on the matched fixture, with its missing outcomes."""
    ds = generate_matched_fixture(RngStream(seed=0))
    config = ModelConfig(variant=variant, burn_in=30, kept=60, thin=3, n_chains=3, seed=7)
    fit = run_model(ds, config)
    assert _draws_digest([fit]) == PINNED_FIT_DIGESTS[variant]


@pytest.mark.parametrize("variant", ["A", "Astar", "B", "Cstar", "D"])
def test_batched_fit_draws_match_pinned_digest(variant):
    """Three fits in one batch: 90-patient slices of a matched fixture with
    42, 40 and 40 missing outcomes and 81, 73 and 53 mixture patients."""
    records = generate_matched_fixture(RngStream(seed=11)).records
    datasets = [Dataset(records[start : start + 90]) for start in (0, 20, 40)]
    configs = [
        ModelConfig(variant=variant, burn_in=30, kept=60, thin=3, n_chains=2, seed=seed)
        for seed in (3, 4, 5)
    ]
    fits = run_model(datasets, configs)
    assert _draws_digest(fits) == PINNED_BATCH_DIGESTS[variant]
