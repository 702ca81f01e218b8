"""Bayesian complier average causal effect estimation for randomized trials
with two-sided noncompliance, outcome nonresponse, and a compliance-predictive
covariate."""

__version__ = "0.1.0"

from .data import (
    Dataset,
    ObservedPattern,
    PatientRecord,
    classify_observed_pattern,
    ingest_dataset,
    summarize_dataset,
    write_dataset_csv,
)
from .diagnostics import (
    complier_prob_grid,
    complier_probability_estimates,
    compute_psrf,
    default_x_grid,
    psrf_report,
    shaded_histogram,
    summarize_draws,
    summarize_fit,
)
from .distributions import RngStream
from .engine import (
    ModelConfig,
    ModelFit,
    PriorConfig,
    complier_probability,
    run_chain,
    run_model,
)
from .variants import VARIANTS
from .simulation import (
    BruteForceResult,
    DgpConfig,
    McConfig,
    XLaw,
    brute_force_posterior,
    generate_dataset,
    generate_matched_fixture,
    run_monte_carlo,
)

__all__ = [
    "BruteForceResult",
    "Dataset",
    "DgpConfig",
    "McConfig",
    "ModelConfig",
    "ModelFit",
    "ObservedPattern",
    "PatientRecord",
    "PriorConfig",
    "RngStream",
    "VARIANTS",
    "XLaw",
    "brute_force_posterior",
    "classify_observed_pattern",
    "complier_prob_grid",
    "complier_probability",
    "complier_probability_estimates",
    "compute_psrf",
    "default_x_grid",
    "generate_dataset",
    "generate_matched_fixture",
    "ingest_dataset",
    "psrf_report",
    "run_chain",
    "run_model",
    "run_monte_carlo",
    "shaded_histogram",
    "summarize_draws",
    "summarize_dataset",
    "summarize_fit",
    "write_dataset_csv",
]
