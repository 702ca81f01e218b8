"""Command-line interface: fit, diagnose, simulate.

Exit codes: 0 success, 2 input error, 3 partial failure (some chains or
replicates aborted), 4 consistency error (digest mismatch), 5 internal error.
Errors are printed to stderr as one JSON object per failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from .data import ingest_dataset
from .diagnostics import (
    complier_prob_grid,
    default_x_grid,
    psrf_report,
    shaded_histogram,
    PSRF_THRESHOLD,
)
from .engine import ModelConfig, run_model
from .errors import (
    DigestMismatchError,
    InputError,
    InsufficientDrawsError,
    ValidationError,
)
from . import runio
from .simulation import run_monte_carlo
from .variants import VARIANTS

log = logging.getLogger("cacegibbs")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PARTIAL = 3
EXIT_CONSISTENCY = 4
EXIT_INTERNAL = 5

_INPUT_ERRORS = (InputError, FileNotFoundError, IsADirectoryError, PermissionError)


def _setup_logging(verbose: bool) -> None:
    level_name = os.environ.get("CACEGIBBS_LOG", "DEBUG" if verbose else "INFO")
    level = getattr(logging, level_name.upper(), logging.INFO)
    logging.basicConfig(level=level, format="%(levelname)s %(message)s")


def _emit_error(exc: BaseException) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _override(config, **options):
    """``config`` with every option the command line set."""
    given = {name: value for name, value in options.items() if value is not None}
    return dataclasses.replace(config, **given)


def _load_model_config(args) -> ModelConfig:
    data = runio.load_json_config(args.config) if args.config else {}
    return _override(
        runio.config_from_dict(data),
        seed=args.seed,
        n_chains=args.chains,
        variant=args.variant,
    )


def _progress_logger(chain_index, iteration, total, n_c):
    log.debug("chain %d: iteration %d/%d, %d compliers", chain_index, iteration, total, n_c)


def cmd_fit(args) -> int:
    dataset = ingest_dataset(args.dataset)
    config = _load_model_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log.info(
        "fitting variant %s: %d chains x (%d burn-in + %d kept, thin %d) on %d records",
        config.variant,
        config.n_chains,
        config.burn_in,
        config.kept,
        config.thin,
        dataset.n,
    )
    fit = run_model(dataset, config, progress=_progress_logger)
    for failure in fit.failures:
        log.error("chain %d failed: %s", failure.chain_index, failure.message)

    outputs = {
        runio.DRAWS_NAME: runio.write_draws_csv(fit, out / runio.DRAWS_NAME)
    }
    if fit.chains:
        outputs["summary.json"] = runio.write_json(
            out / "summary.json", runio.summary_payload(fit)
        )

    manifest = runio.make_manifest(
        command="fit",
        dataset_path=args.dataset,
        config_dict=dataclasses.asdict(config),
        seeds={
            "seed": config.seed,
            "chain_stream_ids": list(range(config.n_chains)),
        },
        outputs=outputs,
        extra={
            "failures": [dataclasses.asdict(f) for f in fit.failures],
            "n_records": dataset.n,
        },
    )
    runio.write_json(out / runio.MANIFEST_NAME, manifest)
    log.info("wrote %s", ", ".join([*outputs, runio.MANIFEST_NAME]))
    return EXIT_PARTIAL if fit.failures else EXIT_OK


def cmd_diagnose(args) -> int:
    if args.bins is not None and args.bins < 1:
        raise ValidationError("--bins must be at least 1")
    if args.grid_points < 1:
        raise ValidationError("--grid-points must be at least 1")
    draws_dir = Path(args.draws)
    manifest = runio.read_manifest(draws_dir)
    if manifest.get("command") != "fit":
        raise ValidationError("manifest does not describe a fit run")
    try:
        config_data = manifest["config"]
        dataset_sha = manifest["dataset"]["sha256"]
        draws_sha = manifest["outputs"][runio.DRAWS_NAME]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"fit manifest lacks an entry: {exc!r}")
    config = runio.config_from_dict(config_data)

    # both inputs must match the digests the fit recorded
    runio.check_digest(args.dataset, dataset_sha, "dataset")
    draws_path = draws_dir / runio.DRAWS_NAME
    runio.check_digest(draws_path, draws_sha, "draws table")

    dataset = ingest_dataset(args.dataset)
    fit = runio.read_draws_csv(draws_path, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = {}

    grid = default_x_grid(dataset, args.grid_points)
    for z in (0, 1):
        hist = shaded_histogram(fit, dataset, z, n_bins=args.bins)
        curve = complier_prob_grid(fit, dataset, z, hist.y_eval, grid)
        name = f"complier_grid_z{z}.csv"
        outputs[name] = runio.write_csv(
            out / name,
            ["x", "mean", "lo", "hi"],
            zip(curve.x, curve.mean, curve.lo, curve.hi),
        )
        name = f"shaded_hist_z{z}.csv"
        outputs[name] = runio.write_csv(
            out / name,
            ["bin_lo", "bin_hi", "count", "shading"],
            zip(hist.bin_lo, hist.bin_hi, hist.counts, hist.shading),
        )

    try:
        report = psrf_report(fit)
    except InsufficientDrawsError as exc:
        log.warning("skipping psrf.csv: %s", exc)
    else:
        outputs["psrf.csv"] = runio.write_csv(
            out / "psrf.csv",
            ["parameter", "psrf", "above_threshold"],
            ((name, e.value, e.above_threshold) for name, e in report.items()),
        )

    manifest_out = runio.make_manifest(
        command="diagnose",
        dataset_path=args.dataset,
        config_dict=dataclasses.asdict(config),
        seeds={"source_fit_seed": config.seed},
        outputs=outputs,
        extra={
            "source_draws": str(draws_path),
            "source_draws_sha256": draws_sha,
            "psrf_threshold": PSRF_THRESHOLD,
        },
    )
    runio.write_json(out / runio.MANIFEST_NAME, manifest_out)
    log.info("wrote %s", ", ".join([*outputs, runio.MANIFEST_NAME]))
    return EXIT_OK


def cmd_simulate(args) -> int:
    data = runio.load_json_config(args.config) if args.config else {}
    mc = _override(
        runio.mc_config_from_dict(data), master_seed=args.seed, reps=args.reps
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def progress(cell_index, corr, variant, done, total):
        log.debug(
            "cell %d (corr=%g, %s): replicate %d/%d",
            cell_index, corr, variant, done, total,
        )

    log.info(
        "simulating %d cells x %d replicates (n=%d per dataset)",
        len(mc.corr_grid) * len(mc.variants),
        mc.reps,
        mc.dgp.n,
    )
    result = run_monte_carlo(mc, progress=progress)

    outputs = {
        name: writer(result, out / name)
        for name, writer in (
            ("mc_results.csv", runio.write_mc_results_csv),
            ("mc_replicates.csv", runio.write_mc_replicates_csv),
        )
    }

    manifest = runio.make_manifest(
        command="simulate",
        dataset_path=None,
        config_dict=dataclasses.asdict(mc),
        seeds={"master_seed": mc.master_seed},
        outputs=outputs,
        extra={
            "cells_failed": sum(c.n_failed > 0 for c in result.cells),
            # why each dropped replicate's chains aborted; the CSVs only count them
            "replicate_failures": [
                {"corr_xy": c.corr_xy, "variant": c.variant, **dataclasses.asdict(f)}
                for c in result.cells
                for f in c.failures
            ],
        },
    )
    runio.write_json(out / runio.MANIFEST_NAME, manifest)
    log.info("wrote %s", ", ".join([*outputs, runio.MANIFEST_NAME]))
    return EXIT_PARTIAL if result.any_failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cacegibbs",
        description=(
            "Bayesian complier average causal effect estimation under "
            "two-sided noncompliance"
        ),
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="run the Gibbs sampler on a dataset")
    fit.add_argument("--dataset", required=True, help="patient CSV (id,z,d_obs,y_obs,x)")
    fit.add_argument("--config", help="JSON model config")
    fit.add_argument("--out", required=True, help="output directory")
    fit.add_argument("--seed", type=int, help="override the config seed")
    fit.add_argument("--chains", type=int, help="override the chain count")
    fit.add_argument(
        "--variant",
        choices=VARIANTS,
        help="override the model variant",
    )
    fit.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted but unused: all chains of a fit advance together, "
        "one Gibbs sweep updating every chain, in one process",
    )
    fit.set_defaults(func=cmd_fit)

    diag = sub.add_parser("diagnose", help="membership curves, histograms, PSRF")
    diag.add_argument("--dataset", required=True, help="the CSV the fit used")
    diag.add_argument("--draws", required=True, help="directory with draws.csv + manifest.json")
    diag.add_argument("--out", required=True, help="output directory")
    diag.add_argument("--grid-points", type=int, default=101, help="curve grid size")
    diag.add_argument("--bins", type=int, default=None, help="histogram bins (default Sturges)")
    diag.set_defaults(func=cmd_diagnose)

    sim = sub.add_parser("simulate", help="repeated-sampling bias study")
    sim.add_argument("--config", help="JSON simulation config")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, help="override the master seed")
    sim.add_argument("--reps", type=int, help="override replicates per cell")
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _setup_logging(args.verbose)
    try:
        return args.func(args)
    except DigestMismatchError as exc:
        _emit_error(exc)
        return EXIT_CONSISTENCY
    except _INPUT_ERRORS as exc:
        _emit_error(exc)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - map anything unexpected to exit 5
        _emit_error(exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
