"""Output checks made apart from the program.

Every check reads the text of an output file and recomputes what it claims
with code of its own (the csv module, numpy and plain Python), never with
the package's functions.  A failed check raises ``CheckError``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from statistics import NormalDist

import numpy as np


class CheckError(Exception):
    """An output disagrees with what the benchmark recomputed."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# parsing


def read_rows(text):
    """Header and rows of a CSV text."""
    rows = list(csv.reader(io.StringIO(text)))
    require(rows, "empty CSV")
    return rows[0], rows[1:]


def parse_dataset(text):
    """Columns of a patient CSV (id,z,d_obs,y_obs,x); y is NaN when missing."""
    header, rows = read_rows(text)
    require(header == ["id", "z", "d_obs", "y_obs", "x"], f"dataset header {header}")
    z = np.array([int(r[1]) for r in rows])
    d = np.array([int(r[2]) for r in rows])
    y = np.array([math.nan if r[3] == "" else float(r[3]) for r in rows])
    x = np.array([float(r[4]) for r in rows])
    return {"z": z, "d": d, "y": y, "x": x}


def mixture_sizes(data):
    """Patients in the control-arm (z=0,d=0) and treated-arm (z=1,d=1) mixtures."""
    z, d = data["z"], data["d"]
    return int(((z == 0) & (d == 0)).sum()), int(((z == 1) & (d == 1)).sum())


class DrawsTable:
    """A parsed draws.csv: chain, iteration, parameter columns, cace, n_c."""

    def __init__(self, text):
        header, rows = read_rows(text)
        require(header[:2] == ["chain", "iteration"], "draws header must start chain,iteration")
        require(header[-2:] == ["cace", "n_c"], "draws header must end cace,n_c")
        self.names = header[2:-2]
        width = len(header)
        require(all(len(r) == width for r in rows), "ragged draws row")
        self.chain = np.array([int(r[0]) for r in rows], dtype=int)
        self.iteration = np.array([int(r[1]) for r in rows], dtype=int)
        self.params = np.array(
            [[float(v) for v in r[2:-2]] for r in rows], dtype=float
        ).reshape(len(rows), len(self.names))
        self.cace = np.array([math.nan if r[-2] == "" else float(r[-2]) for r in rows])
        self.n_c = np.array([int(r[-1]) for r in rows], dtype=int)

    def column(self, name):
        require(name in self.names, f"draws table has no column {name}")
        return self.params[:, self.names.index(name)]

    def chains(self):
        return sorted(set(self.chain.tolist()))


# ---------------------------------------------------------------------------
# checks on fits


def check_draws_layout(table: DrawsTable, n_chains, kept, thin):
    """n_chains x kept/thin rows; iterations thin, 2 thin, ..., kept per chain."""
    per_chain = kept // thin
    require(
        table.chain.size == n_chains * per_chain,
        f"{table.chain.size} draws, expected {n_chains} x {per_chain}",
    )
    require(table.chains() == list(range(n_chains)), f"chains {table.chains()}")
    expected = np.arange(1, per_chain + 1) * thin
    for k in range(n_chains):
        rows = table.chain == k
        require(
            np.array_equal(table.iteration[rows], expected),
            f"chain {k} iterations are not {thin}, {2 * thin}, ..., {per_chain * thin}",
        )
    require(np.all(np.diff(table.chain) >= 0), "chains are not in order")


SLOPES = ("y_n_slope", "y_a_slope", "y_c0_slope", "y_c1_slope")


def check_model_properties(table: DrawsTable, variant):
    """Slope ties of each variant, proper proportions, positive variance."""
    slopes = np.column_stack([table.column(s) for s in SLOPES])
    if variant in ("B", "D"):
        require(np.all(slopes == 0.0), f"variant {variant} draws a nonzero outcome slope")
    if variant in ("Astar", "Cstar"):
        require(
            np.all(slopes == slopes[:, :1]),
            f"variant {variant} outcome slopes differ across groups",
        )
    if variant == "D":
        props = np.column_stack(
            [table.column(p) for p in ("prop_complier", "prop_never", "prop_always")]
        )
        require(np.all(props >= 0.0), "variant D proportion below 0")
        require(
            np.all(np.abs(props.sum(axis=1) - 1.0) <= 1e-9),
            "variant D proportions do not sum to 1",
        )
    require(np.all(table.column("sigma2") > 0.0), "sigma2 draw is not positive")


def check_complier_counts(table: DrawsTable, n_mixture):
    """Every imputed complier count lies in [0, number of mixture patients]."""
    require(
        np.all((table.n_c >= 0) & (table.n_c <= n_mixture)),
        f"n_c outside [0, {n_mixture}]",
    )


def quantile7(sorted_values, p):
    """Linear-interpolation quantile (Hyndman-Fan type 7) of a sorted list."""
    h = (len(sorted_values) - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (h - lo) * (sorted_values[hi] - sorted_values[lo])


def recompute_summary(values):
    """Mean, n-1 SD and 2.5/97.5% quantiles of the defined values."""
    defined = [v for v in values if not math.isnan(v)]
    n = len(defined)
    require(n >= 2, "fewer than two defined CACE draws")
    mean = math.fsum(defined) / n
    sd = math.sqrt(math.fsum((v - mean) ** 2 for v in defined) / (n - 1))
    ordered = sorted(defined)
    return {
        "mean": mean,
        "sd": sd,
        "q2.5": quantile7(ordered, 0.025),
        "q97.5": quantile7(ordered, 0.975),
        "n_draws": n,
        "n_undefined": len(values) - n,
    }


def check_cace_summary(summary: dict, table: DrawsTable):
    """summary.json's CACE entry agrees with a recomputation from draws.csv."""
    got = summary["cace"]
    want = recompute_summary(table.cace.tolist())
    tol = 1e-9 * (abs(want["mean"]) + want["sd"])
    for key in ("mean", "sd", "q2.5", "q97.5"):
        require(
            got[key] is not None and abs(got[key] - want[key]) <= tol,
            f"summary cace {key} {got[key]} != recomputed {want[key]}",
        )
    for key in ("n_draws", "n_undefined"):
        require(got[key] == want[key], f"summary cace {key} {got[key]} != {want[key]}")


def check_fit(fit_text, summary_text, data, variant, n_chains, kept, thin):
    """All fit checks on one draws.csv / summary.json pair; returns the table."""
    table = DrawsTable(fit_text)
    summary = json.loads(summary_text)
    require(summary["variant"] == variant, f"summary variant {summary['variant']}")
    check_draws_layout(table, n_chains, kept, thin)
    check_model_properties(table, variant)
    check_complier_counts(table, sum(mixture_sizes(data)))
    check_cace_summary(summary, table)
    return table, summary


def wald_estimate(data):
    """Complete-case intention-to-treat ratio (Wald/IV) from the dataset."""
    z, d, y = data["z"], data["d"], data["y"]
    obs = ~np.isnan(y)
    itt_y = y[obs & (z == 1)].mean() - y[obs & (z == 0)].mean()
    itt_d = d[z == 1].mean() - d[z == 0].mean()
    return float(itt_y / itt_d)


# |variant-D posterior mean - Wald| must stay below this many posterior SDs
WALD_MARGIN_SD = 0.75


def check_against_wald(summary: dict, data):
    wald = wald_estimate(data)
    cace = summary["cace"]
    require(
        abs(cace["mean"] - wald) <= WALD_MARGIN_SD * cace["sd"],
        f"variant D CACE {cace['mean']:.3f} is more than {WALD_MARGIN_SD} "
        f"posterior SD ({cace['sd']:.3f}) from the Wald estimate {wald:.3f}",
    )


# the large-trial CACE must lie within this many posterior SDs of the truth
TRUTH_MARGIN_SD = 4.0
# slopes: within this many posterior SDs, or this share of the true value
SLOPE_MARGIN_SD = 6.0
SLOPE_MARGIN_SHARE = 0.1


def check_against_truth(summary: dict, realized_cace, outcome_slope, stratum_slope):
    cace = summary["cace"]
    require(
        abs(cace["mean"] - realized_cace) <= TRUTH_MARGIN_SD * cace["sd"],
        f"CACE {cace['mean']:.3f} is more than {TRUTH_MARGIN_SD} posterior SD "
        f"({cace['sd']:.3f}) from the realized {realized_cace:.3f}",
    )
    params = summary["parameters"]
    targets = {s: outcome_slope for s in SLOPES}
    targets["never_probit_slope"] = stratum_slope
    targets["always_probit_slope"] = stratum_slope
    for name, true in targets.items():
        est = params[name]
        margin = max(SLOPE_MARGIN_SD * est["sd"], SLOPE_MARGIN_SHARE * abs(true))
        require(
            abs(est["mean"] - true) <= margin,
            f"{name} {est['mean']:.4f} is not within {margin:.4f} of {true:.4f}",
        )


# ---------------------------------------------------------------------------
# diagnose outputs


def check_diagnose(files: dict, data):
    """Histogram counts match the mixture sizes; curves are ordered probabilities.

    ``files`` maps output names (complier_grid_z0.csv, ...) to their text.
    """
    for z, size in enumerate(mixture_sizes(data)):
        header, rows = read_rows(files[f"shaded_hist_z{z}.csv"])
        require(header == ["bin_lo", "bin_hi", "count", "shading"], "histogram header")
        counts = sum(int(r[2]) for r in rows)
        require(counts == size, f"arm {z} histogram counts {counts} != pattern size {size}")
        require(
            all(0.0 <= float(r[3]) <= 1.0 for r in rows), f"arm {z} shading outside [0, 1]"
        )
        header, rows = read_rows(files[f"complier_grid_z{z}.csv"])
        require(header == ["x", "mean", "lo", "hi"], "grid header")
        require(rows, f"arm {z} grid is empty")
        for r in rows:
            mean, lo, hi = float(r[1]), float(r[2]), float(r[3])
            require(0.0 <= lo <= hi <= 1.0, f"arm {z} grid at x={r[0]} breaks 0 <= lo <= hi <= 1")
            # A skewed mean can leave its own 95% band (bias_study seed 15:
            # mean 0.9999678 < lo 0.9999717), but with over 97% of the draws
            # in [lo, hi] and all in [0, 1] it stays within these limits.
            require(
                0.97 * lo <= mean <= 0.97 * hi + 0.03,
                f"arm {z} grid at x={r[0]}: mean {mean} is impossible for band [{lo}, {hi}]",
            )


# ---------------------------------------------------------------------------
# simulate outputs


def parse_mc_results(text):
    """{(corr, variant): {"mean_cace", "reps", "failed"}} from mc_results.csv."""
    header, rows = read_rows(text)
    require(header[:2] == ["corr_xy", "variant"], "mc_results header")
    cells = {}
    for r in rows:
        row = dict(zip(header, r))
        cells[(float(row["corr_xy"]), row["variant"])] = {
            "mean_cace": math.nan if row["mean_cace"] == "" else float(row["mean_cace"]),
            "reps": int(row["reps"]),
            "failed": int(row["failed"]),
        }
    return cells


def parse_mc_replicates(text):
    """Rows of mc_replicates.csv as dicts with typed seeds and estimates."""
    header, rows = read_rows(text)
    out = []
    for r in rows:
        row = dict(zip(header, r))
        out.append(
            {
                "corr_xy": float(row["corr_xy"]),
                "variant": row["variant"],
                "rep": int(row["rep"]),
                "dataset_seed": int(row["dataset_seed"]),
                "fit_seed": int(row["fit_seed"]),
                "post_mean": float(row["post_mean"]),
                "realized_cace": float(row["realized_cace"]),
            }
        )
    return out


def check_cells_complete(cells: dict, grid, reps):
    """Every (corr, variant) cell ran all its replicates with none failed."""
    require(set(cells) == set(grid), f"cells {sorted(cells)} != {sorted(grid)}")
    for key, cell in cells.items():
        require(cell["failed"] == 0, f"cell {key} has {cell['failed']} failed replicates")
        require(cell["reps"] == reps, f"cell {key} finished {cell['reps']} of {reps}")


def check_bias_pattern(cells: dict, low=0.0, high=0.6):
    """The covariate-blind B is biased at high correlation, A is not, B at 0 is not."""
    b_high = abs(cells[(high, "B")]["mean_cace"])
    a_high = abs(cells[(high, "A")]["mean_cace"])
    b_low = abs(cells[(low, "B")]["mean_cace"])
    require(
        b_high > a_high and b_high > b_low,
        f"|mean CACE| of B at {high} ({b_high:.3f}) does not exceed A at {high} "
        f"({a_high:.3f}) and B at {low} ({b_low:.3f})",
    )


def check_replicate_refit(recorded_post_mean, refit_summary: dict):
    """A replicate re-fitted alone reproduces its recorded posterior mean exactly."""
    got = refit_summary["cace"]["mean"]
    require(
        got == recorded_post_mean,
        f"re-fitted posterior mean {got!r} != recorded {recorded_post_mean!r}",
    )


# a large replicate's posterior mean must lie this close to its realized CACE
REPLICATE_MARGIN = 1.5


def check_replicate_near_truth(replicate: dict):
    gap = abs(replicate["post_mean"] - replicate["realized_cace"])
    require(
        gap <= REPLICATE_MARGIN,
        f"replicate posterior mean {replicate['post_mean']:.3f} is {gap:.3f} from "
        f"its realized CACE {replicate['realized_cace']:.3f}",
    )


# ---------------------------------------------------------------------------
# determinism


def check_same_digests(reference: dict, digests: dict, what):
    """Files of a repeated round are byte-identical to the first round's."""
    require(set(reference) == set(digests), f"{what}: output sets differ")
    changed = sorted(k for k in reference if reference[k] != digests[k])
    require(not changed, f"{what}: {', '.join(changed)} changed between identical rounds")


# ---------------------------------------------------------------------------
# effective sample size


def bulk_ess(chains):
    """Rank-normalised split-chain bulk ESS (Vehtari et al. 2021).

    ``chains`` is a (n_chains, n_draws) array.  Each chain is split in half,
    all draws are replaced by normal scores of their ranks, and the
    autocorrelations are summed with Geyer's initial monotone sequence.
    """
    draws = np.asarray(chains, dtype=float)
    half = draws.shape[1] // 2
    split = np.concatenate([draws[:, :half], draws[:, draws.shape[1] - half:]])
    m, n = split.shape
    flat = split.ravel()
    order = flat.argsort(kind="stable")
    ranks = np.empty(flat.size)
    ranks[order] = np.arange(1, flat.size + 1)
    # average ranks over ties
    _, inverse, counts = np.unique(flat, return_inverse=True, return_counts=True)
    sums = np.bincount(inverse, weights=ranks)
    ranks = (sums / counts)[inverse]
    inv = NormalDist().inv_cdf
    z = np.array([inv((r - 0.375) / (flat.size + 0.25)) for r in ranks]).reshape(m, n)

    centered = z - z.mean(axis=1, keepdims=True)
    spectrum = np.fft.rfft(centered, n=2 * n, axis=1)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), axis=1)[:, :n] / n
    chain_var = acov[:, 0] * n / (n - 1)
    within = chain_var.mean()
    var_plus = within * (n - 1) / n + z.mean(axis=1).var(ddof=1)
    mean_acov = acov.mean(axis=0)
    rho = 1.0 - (within - mean_acov) / var_plus
    rho[0] = 1.0

    # Geyer: sum pairs while positive, forced monotone
    total = 0.0
    prev_pair = math.inf
    for t in range(0, n - 1, 2):
        pair = rho[t] + rho[t + 1]
        if pair < 0:
            break
        pair = min(pair, prev_pair)
        total += pair
        prev_pair = pair
    tau = max(-1.0 + 2.0 * total, 1.0 / math.log10(m * n))
    return float(m * n / tau)
