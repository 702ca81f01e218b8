"""The benchmark's workloads: inputs made from a seed, rounds of CLI commands,
and the checks on what the commands wrote.

A round runs the same commands on the same inputs every time, so every round
of a run attempts the same operations and writes byte-identical files.  An
operation is one ``fit`` or ``diagnose`` command or one Monte Carlo
replicate of a ``simulate`` command.

``prepare`` builds a workload's inputs.  The benchmark runs it in a child
process, so that the memory it takes never shows in the benchmark process's
peak resident set:

    PYTHONPATH=src python3 bench/workloads.py <workload> <directory> <seed>
"""

from __future__ import annotations

import hashlib
import itertools
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import cacegibbs
import cacegibbs.cli

import checks
from calibrate import wait_until_quiet

KINDS = ("fit", "diagnose", "simulate")
DIAGNOSE_FILES = (
    "complier_grid_z0.csv",
    "complier_grid_z1.csv",
    "shaded_hist_z0.csv",
    "shaded_hist_z1.csv",
    "psrf.csv",
)


def first_quartile(values) -> float:
    values = list(values)
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


class Session:
    """Runs CLI commands through ``cacegibbs.cli.main``, timing each one.

    The speed probe runs before every command and once more at the end of
    each round (``calibrate``), so every command has a probe on either side;
    a traced run compares rounds scaled by those probes.
    With a tracer, each command is the root span of its layers' spans.
    """

    def __init__(self, speed_probe):
        self.tracer = None
        self.speed_probe = speed_probe
        self.probes: list[float] = []  # probe seconds / reference seconds
        self.waits: list[float] = []  # seconds each probe waited for a quiet process
        # per round: (kind, position in the round) -> (time, index of the probe before it)
        self.rounds: list[dict[tuple[str, int], tuple[float, int]]] = []

    def calibrate(self):
        self.waits.append(wait_until_quiet())
        seconds, reference = self.speed_probe()
        self.probes.append(seconds / reference)

    def start_round(self):
        self.attempted = 0
        self.failed = 0
        self.rounds.append({})
        self._position = dict.fromkeys(KINDS, 0)

    def command(self, kind, argv) -> int:
        argv = [kind, *map(str, argv)]
        self.calibrate()
        t0 = perf_counter()
        if self.tracer is None:
            code = cacegibbs.cli.main(argv)
        else:
            code = self.tracer.call(f"cli.{kind}", cacegibbs.cli.main, (argv,), {})
        elapsed = perf_counter() - t0
        self.rounds[-1][kind, self._position[kind]] = (elapsed, len(self.probes) - 1)
        self._position[kind] += 1
        return code

    def round_time(self) -> float:
        """Scaled time of the last round's commands."""
        return sum(self.scaled(*times) for times in self.rounds[-1].values())

    def scaled(self, elapsed, probe) -> float:
        """A command's time divided by the slowdown the probes around it read."""
        return elapsed / ((self.probes[probe] + self.probes[probe + 1]) / 2)

    def command_time(self, kind, scaled=True) -> float:
        """Time a round spends in ``kind`` commands, at the machine's full speed.

        A shared machine slows in bursts shorter than a command and in spells
        of minutes, and never speeds up.  Each command's time is the first
        quartile of its times over the run's rounds, which the bursts miss;
        the sum is divided by the first quartile of the run's probe readings,
        which carries the spell the whole run was in.
        """
        total = sum(
            first_quartile([times[key][0] for times in self.rounds])
            for key in self.rounds[0]
            if key[0] == kind
        )
        return total / first_quartile(self.probes) if scaled else total

    def operation(self, kind, argv) -> int:
        """A fit or diagnose command: one operation, failed on a nonzero exit."""
        code = self.command(kind, argv)
        self.attempted += 1
        self.failed += code != 0
        return code

    def simulate(self, argv, out: Path, replicates) -> None:
        """A simulate command: one operation per replicate it was asked for."""
        code = self.command("simulate", argv)
        self.attempted += replicates
        if code not in (0, cacegibbs.cli.EXIT_PARTIAL):
            self.failed += replicates
            return
        cells = checks.parse_mc_results((out / "mc_results.csv").read_text())
        self.failed += sum(cell["failed"] for cell in cells.values())


class Workload:
    """Base: a working directory, a seed, and the files every round rewrites."""

    name = ""
    variants: tuple[str, ...] = ()  # model variants the round fits
    commands = 0  # CLI commands per round
    replicates = 0  # Monte Carlo replicates per round

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.seed = seed
        self.dir.mkdir(parents=True, exist_ok=True)

    def path(self, *parts) -> Path:
        return self.dir.joinpath(*parts)

    def prepare(self) -> None:
        """Write the inputs every round reads; runs in a process of its own."""
        raise NotImplementedError

    def run_round(self, session: Session) -> None:
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        """Deterministic outputs (manifests carry a timestamp and are left out)."""
        return sorted(
            p for p in self.dir.rglob("*")
            if p.is_file() and p.parent != self.dir and p.name != "manifest.json"
        )

    def digests(self) -> dict:
        return {str(p.relative_to(self.dir)): digest(p) for p in self.outputs()}

    def fits(self) -> list[tuple[Path, int]]:
        """(fit directory, chain count) of every fit a round makes."""
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def cace_ess(self) -> float:
        """Smallest bulk ESS of the CACE over the round's fits."""
        values = []
        for fit_dir, n_chains in self.fits():
            table = checks.DrawsTable((fit_dir / "draws.csv").read_text())
            values.append(checks.bulk_ess(table.cace.reshape(n_chains, -1)))
        return min(values)

    # helpers shared by the workloads

    def fit_and_diagnose(self, session, dataset, fit_dirs, fit_args):
        for fit_dir, args in zip(fit_dirs, fit_args):
            session.operation(
                "fit",
                ["--dataset", dataset, "--out", fit_dir, "--workers", 1, *args],
            )
        for fit_dir in fit_dirs:
            session.operation(
                "diagnose",
                ["--dataset", dataset, "--draws", fit_dir, "--out", fit_dir / "diagnose"],
            )

    def check_fit_dir(self, fit_dir, data, variant, schedule):
        table, summary = checks.check_fit(
            (fit_dir / "draws.csv").read_text(),
            (fit_dir / "summary.json").read_text(),
            data,
            variant,
            schedule["n_chains"],
            schedule["kept"],
            schedule["thin"],
        )
        files = {
            name: (fit_dir / "diagnose" / name).read_text() for name in DIAGNOSE_FILES
        }
        checks.check_diagnose(files, data)
        return summary


def dataset_csv(dataset, path: Path, blank=None) -> None:
    """Write a dataset; ``blank`` marks outcomes to write as missing."""
    if blank is not None:
        dataset = cacegibbs.Dataset(
            cacegibbs.PatientRecord(r.id, r.z, r.d_obs, None if b else r.y_obs, r.x)
            for r, b in zip(dataset.records, blank)
        )
    cacegibbs.write_dataset_csv(dataset, path)


class TrialFixture(Workload):
    """Five variants fitted and diagnosed on the 142-patient trial fixture,
    plus a simulation study at the trial's size."""

    name = "trial_fixture"
    variants = ("A", "Astar", "B", "Cstar", "D")
    schedule = {"burn_in": 100, "kept": 200, "thin": 2, "n_chains": 3}
    sim_grid = ((0.6, "A"), (0.6, "D"))
    sim = {
        "reps": 1,
        "corr_grid": [0.6],
        "variants": ["A", "D"],
        "dgp": {"n": 142},
        "fit": {"burn_in": 100, "kept": 200, "thin": 2, "n_chains": 2},
    }
    commands = 2 * len(variants) + 1
    replicates = 2

    def prepare(self):
        fixture = cacegibbs.generate_matched_fixture(
            cacegibbs.RngStream(seed=self.seed).generator()
        )
        dataset_csv(fixture, self.path("fixture.csv"))
        write_json(self.path("model.json"), self.schedule)
        write_json(self.path("mc.json"), {**self.sim, "master_seed": self.seed})

    def fit_dir(self, variant):
        return self.path("fits", variant)

    def run_round(self, session):
        self.fit_and_diagnose(
            session,
            self.path("fixture.csv"),
            [self.fit_dir(v) for v in self.variants],
            [
                ["--config", self.path("model.json"), "--seed", self.seed, "--variant", v]
                for v in self.variants
            ],
        )
        out = self.path("simulate")
        session.simulate(
            ["--config", self.path("mc.json"), "--out", out], out, self.replicates
        )

    def fits(self):
        return [(self.fit_dir(v), self.schedule["n_chains"]) for v in self.variants]

    def check(self):
        data = checks.parse_dataset(self.path("fixture.csv").read_text())
        for v in self.variants:
            summary = self.check_fit_dir(self.fit_dir(v), data, v, self.schedule)
            if v == "D":
                checks.check_against_wald(summary, data)
        cells = checks.parse_mc_results(self.path("simulate", "mc_results.csv").read_text())
        checks.check_cells_complete(cells, self.sim_grid, self.sim["reps"])


class LargeTrial(Workload):
    """Variant A fitted and diagnosed on 50 000 patients with ~47% of the
    outcomes blanked, plus one simulated replicate of the same size."""

    name = "large_trial"
    n = 50_000
    corr_xy = 0.3
    true_cace = 5.0
    missing_share = 0.47
    variants = ("A",)
    schedule = {"variant": "A", "burn_in": 20, "kept": 20, "thin": 1, "n_chains": 2}
    commands = 3
    replicates = 1

    def prepare(self):
        dgp = cacegibbs.DgpConfig(n=self.n, corr_xy=self.corr_xy, true_cace=self.true_cace)
        dataset, truth = cacegibbs.generate_dataset(
            dgp, cacegibbs.RngStream(seed=self.seed).generator()
        )
        blank = np.random.default_rng([self.seed, 1]).uniform(size=self.n) < self.missing_share
        dataset_csv(dataset, self.path("trial.csv"), blank)
        write_json(
            self.path("truth.json"),
            {
                "realized_cace": truth.realized_cace,
                "outcome_slope": truth.outcome_slope,
                "stratum_slope": truth.stratum_slope,
            },
        )
        write_json(self.path("model.json"), self.schedule)
        write_json(
            self.path("mc.json"),
            {
                "reps": 1,
                "corr_grid": [self.corr_xy],
                "variants": ["A"],
                "master_seed": self.seed,
                "dgp": {"n": self.n, "true_cace": self.true_cace},
                "fit": {"burn_in": 10, "kept": 10, "thin": 1, "n_chains": 1},
            },
        )

    def run_round(self, session):
        self.fit_and_diagnose(
            session,
            self.path("trial.csv"),
            [self.path("fit")],
            [["--config", self.path("model.json"), "--seed", self.seed]],
        )
        out = self.path("simulate")
        session.simulate(
            ["--config", self.path("mc.json"), "--out", out], out, self.replicates
        )

    def fits(self):
        return [(self.path("fit"), self.schedule["n_chains"])]

    def check(self):
        data = checks.parse_dataset(self.path("trial.csv").read_text())
        summary = self.check_fit_dir(self.path("fit"), data, "A", self.schedule)
        truth = json.loads(self.path("truth.json").read_text())
        checks.check_against_truth(
            summary, truth["realized_cace"], truth["outcome_slope"], truth["stratum_slope"]
        )
        cells = checks.parse_mc_results(self.path("simulate", "mc_results.csv").read_text())
        checks.check_cells_complete(cells, [(self.corr_xy, "A")], 1)
        (replicate,) = checks.parse_mc_replicates(
            self.path("simulate", "mc_replicates.csv").read_text()
        )
        checks.check_replicate_near_truth(replicate)


class BiasStudy(Workload):
    """The repeated-sampling study on a 2 x 2 grid, one ``simulate`` per cell,
    then one replicate per cell re-fitted alone from its recorded seeds and
    diagnosed."""

    name = "bias_study"
    corr_grid = (0.0, 0.6)
    variants = ("A", "B")
    n = 500
    reps = 3
    schedule = {"burn_in": 100, "kept": 200, "thin": 2, "n_chains": 2}
    cells = list(itertools.product(corr_grid, variants))
    commands = 3 * len(cells)
    replicates = reps * len(cells)
    refits = None  # (replicate row, dataset CSV, fit directory), set in the first round

    def prepare(self):
        # one command per cell times each cell's ~0.7 s on its own; a
        # distinct master seed keeps the cells' datasets independent
        for i, (corr, variant) in enumerate(self.cells):
            write_json(
                self.path(f"mc_{i}.json"),
                {
                    "reps": self.reps,
                    "corr_grid": [corr],
                    "variants": [variant],
                    "master_seed": len(self.cells) * self.seed + i,
                    "dgp": {"n": self.n},
                    "fit": self.schedule,
                },
            )
        write_json(self.path("model.json"), self.schedule)

    def choose_refits(self):
        """One recorded replicate per cell, its dataset regenerated from its seed.

        They are built in the benchmark's process, but with 500 patients each
        they are small next to the simulations the round has just run."""
        self.refits = []
        for i, (corr, variant) in enumerate(self.cells):
            rows = checks.parse_mc_replicates(
                self.path("simulate", str(i), "mc_replicates.csv").read_text()
            )
            row = rows[(self.seed + i) % self.reps]
            dgp = cacegibbs.DgpConfig(n=self.n, corr_xy=corr)
            dataset, _ = cacegibbs.generate_dataset(
                dgp, cacegibbs.RngStream(seed=row["dataset_seed"]).generator()
            )
            csv_path = self.path(f"replicate_{i}.csv")
            dataset_csv(dataset, csv_path)
            self.refits.append((row, csv_path, self.path("refits", str(i))))

    def run_round(self, session):
        for i in range(len(self.cells)):
            out = self.path("simulate", str(i))
            session.simulate(
                ["--config", self.path(f"mc_{i}.json"), "--out", out], out, self.reps
            )
        if self.refits is None:
            self.choose_refits()
        for row, csv_path, fit_dir in self.refits:
            self.fit_and_diagnose(
                session,
                csv_path,
                [fit_dir],
                [[
                    "--config", self.path("model.json"),
                    "--seed", row["fit_seed"],
                    "--variant", row["variant"],
                ]],
            )

    def fits(self):
        return [(fit_dir, self.schedule["n_chains"]) for _, _, fit_dir in self.refits]

    def check(self):
        cells = {}
        for i in range(len(self.cells)):
            cells.update(checks.parse_mc_results(
                self.path("simulate", str(i), "mc_results.csv").read_text()
            ))
        checks.check_cells_complete(cells, self.cells, self.reps)
        checks.check_bias_pattern(cells, *self.corr_grid)
        for row, csv_path, fit_dir in self.refits:
            data = checks.parse_dataset(csv_path.read_text())
            summary = self.check_fit_dir(fit_dir, data, row["variant"], self.schedule)
            checks.check_replicate_refit(row["post_mean"], summary)


WORKLOADS = {w.name: w for w in (TrialFixture, LargeTrial, BiasStudy)}


if __name__ == "__main__":
    name, directory, seed = sys.argv[1:]
    WORKLOADS[name](Path(directory), int(seed)).prepare()
