"""Outcome-model checks: grouping, densities, conjugate updates, imputation."""

import numpy as np
import pytest

from cacegibbs.data import Dataset, PatientRecord
from cacegibbs.distributions import RngStream
from cacegibbs.engine import (
    ModelConfig,
    ParameterState,
    StratumState,
    _ChainContext,
    _impute_counterfactuals,
)
from cacegibbs.outcomes import (
    GROUP_ALWAYS,
    GROUP_COMPLIER_CTRL,
    GROUP_COMPLIER_TRT,
    GROUP_NEVER,
    OutcomeParams,
    OutcomePriors,
    group_means,
    impute_outcomes,
    outcome_group,
    outcome_groups,
    outcome_log_density,
    update_outcome_params,
)
from cacegibbs.strata import ALWAYS_TAKER, COMPLIER, NEVER_TAKER, StratumProportions


def test_outcome_group_mapping():
    # never- and always-takers keep one group regardless of assignment
    assert outcome_group(NEVER_TAKER, 0) == GROUP_NEVER
    assert outcome_group(NEVER_TAKER, 1) == GROUP_NEVER
    assert outcome_group(ALWAYS_TAKER, 0) == GROUP_ALWAYS
    assert outcome_group(ALWAYS_TAKER, 1) == GROUP_ALWAYS
    # compliers split by arm
    assert outcome_group(COMPLIER, 0) == GROUP_COMPLIER_CTRL
    assert outcome_group(COMPLIER, 1) == GROUP_COMPLIER_TRT


def test_outcome_groups_vectorized():
    labels = np.array([NEVER_TAKER, ALWAYS_TAKER, COMPLIER, COMPLIER])
    z = np.array([1, 0, 0, 1])
    got = outcome_groups(labels, z)
    assert np.array_equal(
        got, [GROUP_NEVER, GROUP_ALWAYS, GROUP_COMPLIER_CTRL, GROUP_COMPLIER_TRT]
    )
    scalar = [outcome_group(int(l), int(zz)) for l, zz in zip(labels, z)]
    assert np.array_equal(got, scalar)


def _flat_params(intercepts, sigma2, variant="D"):
    alpha = np.column_stack([np.asarray(intercepts, float), np.zeros(4)])
    return OutcomeParams(alpha, sigma2, variant)


def test_outcome_log_density_frozen_value():
    """N(40, 100) density at 45: -0.5 log(200 pi) - 0.125."""
    params = _flat_params([40.0, 0.0, 0.0, 0.0], 100.0)
    got = outcome_log_density(45.0, 7.0, GROUP_NEVER, params)
    assert got == pytest.approx(-3.3465236261987186, abs=1e-12)


def test_outcome_log_density_uses_slope():
    alpha = np.array([[1.0, 0.5], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    params = OutcomeParams(alpha, 2.0, "A")
    got = outcome_log_density(2.0, 4.0, GROUP_NEVER, params)
    manual = -0.5 * (np.log(4.0 * np.pi) + (2.0 - 3.0) ** 2 / 2.0)
    assert got == pytest.approx(manual, abs=1e-12)


def test_outcome_params_variant_validation():
    alpha_free = np.array([[1.0, 0.2], [2.0, -0.1], [3.0, 0.0], [4.0, 0.3]])
    OutcomeParams(alpha_free, 1.0, "A")  # free slopes accepted
    with pytest.raises(ValueError):
        OutcomeParams(alpha_free, 1.0, "B")  # zero slopes required
    with pytest.raises(ValueError):
        OutcomeParams(alpha_free, 1.0, "Astar")  # shared slope required
    shared = np.column_stack([np.arange(4.0), np.full(4, 0.7)])
    OutcomeParams(shared, 1.0, "Astar")
    OutcomeParams(shared, 1.0, "Cstar")
    with pytest.raises(ValueError):
        OutcomeParams(shared, -1.0, "Astar")
    with pytest.raises(ValueError):
        OutcomeParams(shared, 1.0, "Z")


def test_group_means_indexing():
    alpha = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, -1.0], [4.0, 0.5]])
    params = OutcomeParams(alpha, 1.0, "A")
    x = np.array([10.0, 10.0, 10.0, 10.0])
    groups = np.array([0, 1, 2, 3])
    assert np.allclose(group_means(x, groups, params), [1.0, 12.0, -7.0, 9.0])


def _simulate_groups(rng, n, alpha, sigma):
    x = rng.normal(10.0, 3.0, size=n)
    groups = rng.integers(0, 4, size=n)
    a = alpha[groups]
    y = a[:, 0] + a[:, 1] * x + sigma * rng.standard_normal(n)
    return y, x, groups


@pytest.mark.parametrize(
    "variant,alpha_true",
    [
        ("A", np.array([[40.0, 1.2], [45.0, -0.5], [38.0, 0.8], [50.0, 0.2]])),
        ("Astar", np.column_stack([[40.0, 45.0, 38.0, 50.0], np.full(4, 0.9)])),
        ("B", np.column_stack([[40.0, 45.0, 38.0, 50.0], np.zeros(4)])),
    ],
)
def test_update_recovers_coefficients(variant, alpha_true):
    rng = RngStream(seed=41).generator()
    sigma = 3.0
    y, x, groups = _simulate_groups(rng, 4000, alpha_true, sigma)
    priors = OutcomePriors(center=float(y.mean()))
    draws = []
    sig_draws = []
    for _ in range(200):
        p = update_outcome_params(y, x, groups, sigma**2, priors, variant, rng)
        draws.append(p.alpha.copy())
        sig_draws.append(p.sigma2)
    mean_alpha = np.mean(draws, axis=0)
    # per-group n ~ 1000: intercept se ~ sigma*sqrt(1/n + xbar^2/(n var_x)) ~ 0.35
    assert np.all(np.abs(mean_alpha[:, 0] - alpha_true[:, 0]) < 1.5)
    assert np.all(np.abs(mean_alpha[:, 1] - alpha_true[:, 1]) < 0.15)
    assert abs(np.mean(sig_draws) - sigma**2) < 0.1 * sigma**2
    if variant == "B":
        assert np.all(mean_alpha[:, 1] == 0.0)
    if variant == "Astar":
        for a in draws:
            assert np.all(a[:, 1] == a[0, 1])


def test_update_empty_group_draws_from_prior():
    rng = RngStream(seed=42).generator()
    n = 400
    x = rng.normal(0.0, 1.0, size=n)
    y = 5.0 + 2.0 * rng.standard_normal(n)
    groups = np.zeros(n, dtype=int)  # every patient in group 0
    priors = OutcomePriors(center=3.0, intercept_variance=4.0, slope_variance=0.25)
    empty = np.array(
        [
            update_outcome_params(y, x, groups, 4.0, priors, "A", rng).alpha[2]
            for _ in range(4000)
        ]
    )
    # group 2 saw no data: intercept ~ N(3, 4), slope ~ N(0, 0.25)
    assert abs(empty[:, 0].mean() - 3.0) < 4 * 2.0 / np.sqrt(4000)
    assert abs(empty[:, 1].mean()) < 4 * 0.5 / np.sqrt(4000)
    assert abs(empty[:, 0].std(ddof=1) - 2.0) < 0.1
    assert abs(empty[:, 1].std(ddof=1) - 0.5) < 0.03


def test_variance_update_matches_conjugate_moments():
    """Holding coefficients at truth, 1/sigma2 is Gamma(a0+n/2, b0+ss/2)."""
    rng = RngStream(seed=43).generator()
    n = 50
    x = rng.normal(0.0, 1.0, size=n)
    y = rng.standard_normal(n)  # truth: all coefficients 0, sigma 1
    groups = np.zeros(n, dtype=int)
    priors = OutcomePriors(
        center=0.0, intercept_variance=1e-12, slope_variance=1e-12
    )  # pin coefficients at zero
    prec = np.array(
        [
            1.0 / update_outcome_params(y, x, groups, 1.0, priors, "B", rng).sigma2
            for _ in range(20000)
        ]
    )
    shape = 0.01 + n / 2
    rate = 0.01 + float(y @ y) / 2
    assert abs(prec.mean() - shape / rate) < 4 * np.sqrt(shape) / rate / np.sqrt(20000)


def test_impute_outcomes_moments():
    rng = RngStream(seed=44).generator()
    alpha = np.array([[10.0, 0.0], [20.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    params = OutcomeParams(alpha, 9.0, "A")
    n = 40000
    x = np.full(n, 2.0)
    groups = np.array([0, 1] * (n // 2))
    draws = impute_outcomes(x, groups, params, rng)
    g0 = draws[groups == 0]
    g1 = draws[groups == 1]
    assert abs(g0.mean() - 10.0) < 4 * 3.0 / np.sqrt(g0.size)
    assert abs(g1.mean() - 22.0) < 4 * 3.0 / np.sqrt(g1.size)
    assert abs(g0.std(ddof=1) - 3.0) < 0.05


def _impute_sweep_counterfactuals(records, outcome, seed):
    """Run the sweep's counterfactual block once, mixture patients as compliers."""
    ctx = _ChainContext(Dataset(records), ModelConfig(variant=outcome.variant))
    state = StratumState(ctx.base_labels.copy(), ctx.y.copy(), np.full(ctx.n, np.nan))
    params = ParameterState(StratumProportions(np.full(3, 1.0 / 3.0)), outcome)
    _impute_counterfactuals(ctx, state, params, RngStream(seed=seed).generator())
    return state.y_cf


def test_counterfactual_imputation_uses_opposite_arm():
    alpha = np.array([[0.0, 0.0], [0.0, 0.0], [100.0, 0.0], [200.0, 0.0]])
    records = [
        PatientRecord("t", 1, 1, 50.0, 5.0),  # treated mixture: a complier
        PatientRecord("c", 0, 0, 60.0, 5.0),  # control mixture: a complier
        PatientRecord("n", 1, 0, 55.0, 5.0),  # revealed never-taker
    ]
    y_cf = _impute_sweep_counterfactuals(records, OutcomeParams(alpha, 1.0, "D"), 45)
    # treated complier draws a control-arm value
    assert abs(y_cf[0] - 100.0) < 6.0
    # control complier draws a treated-arm value
    assert abs(y_cf[1] - 200.0) < 6.0
    assert np.isnan(y_cf[2])


def test_counterfactual_imputation_applies_slope():
    alpha = np.array([[0.0, 1.5], [0.0, 1.5], [10.0, 1.5], [30.0, 1.5]])
    # the sweep centers x at its sample mean, so these sit at x = 4 and -4
    records = [PatientRecord(f"c{i}", 0, 0, 40.0 + i % 7, 4.0) for i in range(2000)]
    records += [PatientRecord(f"t{i}", 1, 1, 40.0 + i % 7, -4.0) for i in range(2000)]
    outcome = OutcomeParams(alpha, 0.01, "Astar")
    y_cf = _impute_sweep_counterfactuals(records, outcome, 46)
    assert abs(y_cf[:2000].mean() - 36.0) < 0.02
    assert abs(y_cf[2000:].mean() - 4.0) < 0.02
