"""File formats for runs: saved-draw tables, summaries, manifests, digests.

Every table a command writes goes through ``write_csv``: numeric fields are
rendered with 17 significant digits so a rerun with the same inputs
reproduces the files byte for byte, undefined values render as empty
fields, and every line ends in ``\n``.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import PSRF_THRESHOLD, PosteriorSummary, psrf_report, summarize_fit
from .engine import (
    Chain,
    ModelConfig,
    ModelFit,
    PriorConfig,
    default_param_names,
)
from .errors import (
    DigestMismatchError,
    InsufficientDrawsError,
    ParseError,
    ValidationError,
)
from .simulation import DgpConfig, McConfig, McResult, XLaw

MANIFEST_NAME = "manifest.json"
DRAWS_NAME = "draws.csv"


def fmt(value) -> str:
    """Full-precision decimal rendering; empty for undefined."""
    v = float(value)
    if math.isnan(v):
        return ""
    return format(v, ".17g")


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _field(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return fmt(value)


def write_csv(path, header, rows) -> str:
    """Write one table and return its digest.

    Strings are written as they are, integers as integers, and every other
    value through ``fmt``.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_field(v) for v in row] for row in rows)
    return file_digest(path)


# ---------------------------------------------------------------------------
# config readers (``dataclasses.asdict`` writes them)


def config_from_dict(data: dict) -> ModelConfig:
    try:
        data = dict(data)
        priors_data = dict(data.pop("priors", {}))
        if "dirichlet_concentration" in priors_data:
            priors_data["dirichlet_concentration"] = tuple(
                priors_data["dirichlet_concentration"]
            )
        priors = PriorConfig(**priors_data)
        return ModelConfig(priors=priors, **data)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad model config: {exc}")


def mc_config_from_dict(data: dict) -> McConfig:
    data = dict(data)
    try:
        dgp_data = dict(data.pop("dgp", {}))
        x_law = XLaw(**dgp_data.pop("x_law", {}))
        if dgp_data.get("stratum_base") is not None:
            dgp_data["stratum_base"] = tuple(dgp_data["stratum_base"])
        dgp = DgpConfig(x_law=x_law, **dgp_data)
        fit = config_from_dict(data.pop("fit", {}))
        if "corr_grid" in data:
            data["corr_grid"] = tuple(data["corr_grid"])
        if "variants" in data:
            data["variants"] = tuple(data["variants"])
        return McConfig(dgp=dgp, fit=fit, **data)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad simulation config: {exc}")


def load_json_config(path) -> dict:
    try:
        with open(path, "r") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ValidationError("config root must be a JSON object")
    return data


# ---------------------------------------------------------------------------
# draws table


def write_draws_csv(fit: ModelFit, path) -> str:
    """One row per saved draw: chain, iteration, parameters, effect, count."""
    rows = (
        (chain.chain_index, iteration, *params, cace, n_c)
        for chain in fit.chains
        for iteration, params, cace, n_c in zip(
            chain.saved_iterations, chain.params, chain.cace, chain.n_compliers
        )
    )
    header = ["chain", "iteration", *fit.param_names, "cace", "n_c"]
    return write_csv(path, header, rows)


def read_draws_csv(path, config: ModelConfig) -> ModelFit:
    """Rebuild a ModelFit (scalar draws only) from a draws table.

    The table must be one a fit of ``config`` writes: chains in ascending
    order of distinct ids below ``n_chains``, each with exactly
    ``n_saved_per_chain`` rows at iterations thin, 2*thin, ...
    """
    names = default_param_names(config.variant)
    expected = ["chain", "iteration", *names, "cace", "n_c"]
    with open(path, "r", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("draws table is empty")
        if header != expected:
            raise ValidationError(
                "draws table header does not match the configured variant"
            )
        by_chain: dict[int, list] = {}
        for i, row in enumerate(reader, start=1):
            if len(row) != len(expected):
                raise ParseError("wrong field count", row=i)
            try:
                chain_idx = int(row[0])
                iteration = int(row[1])
                params = [float(v) for v in row[2 : 2 + len(names)]]
                cace = math.nan if row[-2] == "" else float(row[-2])
                n_c = int(row[-1])
            except ValueError as exc:
                raise ParseError(str(exc), row=i)
            if by_chain and chain_idx < max(by_chain):
                raise ValidationError(
                    f"draws table row {i}: chain {chain_idx} out of ascending order"
                )
            by_chain.setdefault(chain_idx, []).append((iteration, params, cace, n_c))

    saved = (np.arange(config.n_saved_per_chain) + 1) * config.thin
    chains = []
    for chain_idx, rows in by_chain.items():
        if not 0 <= chain_idx < config.n_chains:
            raise ValidationError(
                f"draws table chain {chain_idx} is not one of the "
                f"{config.n_chains} chains the config runs"
            )
        if [r[0] for r in rows] != saved.tolist():
            raise ValidationError(
                f"draws table chain {chain_idx} does not hold the "
                f"{saved.size} draws at iterations {config.thin}, "
                f"{2 * config.thin}, ... that the config saves"
            )
        chains.append(
            Chain(
                chain_index=chain_idx,
                thin=config.thin,
                param_names=names,
                params=np.array([r[1] for r in rows]),
                cace=np.array([r[2] for r in rows]),
                n_compliers=np.array([r[3] for r in rows], dtype=np.int32),
            )
        )
    if not chains:
        raise ValidationError("draws table has no data rows")
    return ModelFit(config=config, chains=tuple(chains), failures=())


# ---------------------------------------------------------------------------
# summaries and manifests


def summary_payload(fit: ModelFit) -> dict:
    summaries = summarize_fit(fit)
    if "cace" not in summaries:
        # every draw had zero compliers; record that instead of a summary
        n_undef = int(sum(c.n_undefined_cace for c in fit.chains))
        summaries["cace"] = PosteriorSummary(None, None, None, None, 0, n_undef)
    parameters = {
        name: {
            "mean": s.mean,
            "sd": s.sd,
            "q2.5": s.q2_5,
            "q97.5": s.q97_5,
            "n_draws": s.n_draws,
        }
        for name, s in summaries.items()
    }
    cace_entry = parameters.pop("cace")
    cace_entry["n_undefined"] = summaries["cace"].n_undefined
    payload = {
        "variant": fit.config.variant,
        "n_chains": len(fit.chains),
        "n_pooled_draws": int(sum(c.n_saved for c in fit.chains)),
        "parameters": parameters,
        "cace": cace_entry,
    }
    try:
        report = psrf_report(fit)
        payload["psrf"] = {
            "threshold": PSRF_THRESHOLD,
            "values": {
                # non-finite values are not valid JSON numbers
                name: {
                    "value": e.value if math.isfinite(e.value) else "inf",
                    "above_threshold": e.above_threshold,
                }
                for name, e in report.items()
            },
        }
    except InsufficientDrawsError as exc:
        payload["psrf"] = {"threshold": PSRF_THRESHOLD, "unavailable": str(exc)}
    if any(c.acceptance is not None for c in fit.chains):
        payload["metropolis"] = [
            {
                "chain": c.chain_index,
                "acceptance": dict(zip(("never", "always"), c.acceptance)),
                "proposal_sd": dict(zip(("never", "always"), map(list, c.proposal_sd))),
            }
            for c in fit.chains
        ]
    return payload


def write_json(path, payload) -> str:
    """Write ``payload`` as sorted, indented JSON and return its digest."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    return file_digest(path)


def make_manifest(command: str, dataset_path, config_dict, seeds, outputs, extra=None):
    """Everything needed to reproduce and verify a run.

    ``outputs`` maps file names to their digests; the manifest itself is
    written after all other outputs so the digests are final.
    """
    payload = {
        "tool": "cacegibbs",
        "version": __version__,
        "command": command,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config_dict,
        "seeds": seeds,
        "outputs": outputs,
    }
    if dataset_path is not None:
        payload["dataset"] = {
            "path": str(dataset_path),
            "sha256": file_digest(dataset_path),
        }
    if extra:
        payload.update(extra)
    return payload


def read_manifest(directory) -> dict:
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        raise ValidationError(f"no {MANIFEST_NAME} in {directory}")
    with open(path, "r") as handle:
        try:
            manifest = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"manifest is not valid JSON: {exc}")
    if not isinstance(manifest, dict):
        raise ValidationError("manifest root must be a JSON object")
    return manifest


def check_digest(path, recorded: str, what: str) -> None:
    actual = file_digest(path)
    if actual != recorded:
        raise DigestMismatchError(
            f"{what} digest {actual} does not match manifest value {recorded}"
        )


# ---------------------------------------------------------------------------
# simulation results


def write_mc_results_csv(result: McResult, path) -> str:
    """Cell-level table: replicate-averaged interval and exclusion rate."""
    header = [
        "corr_xy",
        "variant",
        "mean_cace",
        "lo",
        "hi",
        "frac_excluding_zero",
        "reps",
        "failed",
    ]
    rows = (
        [
            cell.corr_xy,
            cell.variant,
            cell.mean_cace,
            cell.lo,
            cell.hi,
            cell.frac_excluding_zero,
            cell.reps_done,
            cell.n_failed,
        ]
        for cell in result.cells
    )
    return write_csv(path, header, rows)


def write_mc_replicates_csv(result: McResult, path) -> str:
    """Replicate-level table: each cell's ``ReplicateResult`` fields in order."""
    header = [
        "corr_xy",
        "variant",
        "rep",
        "dataset_seed",
        "fit_seed",
        "post_mean",
        "q2.5",
        "q97.5",
        "n_undefined",
        "realized_cace",
    ]
    rows = (
        [cell.corr_xy, cell.variant, *dataclasses.astuple(r)]
        for cell in result.cells
        for r in cell.replicates
    )
    return write_csv(path, header, rows)
