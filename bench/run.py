"""Benchmark of the cacegibbs command line: fit, diagnose and simulate.

Run from the root of a source checkout:

    python3 bench/run.py --workload trial_fixture --seed 1 --seconds 30 --trace 0

It imports the package from ``src/``, builds the workload's inputs from the
seed, and repeats whole rounds of the workload's commands until ``--seconds``
have passed.  Each command time is the first quartile of that command's
times over the rounds, scaled by a speed probe (``calibrate.py``).
``--trace 1`` alternates untraced and traced rounds and reports per-layer
figures from the traced ones instead.  The last line of standard output is
one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os
import time


def _process_age() -> float:
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    try:
        with open("/proc/self/stat") as handle:
            stat = handle.read()
    except OSError:
        return 0.0
    ticks = int(stat[stat.rindex(")") + 2 :].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")


_BORN = time.perf_counter() - _process_age()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"

WORKLOAD_NAMES = ("trial_fixture", "large_trial", "bias_study")
COLD_STARTS = 7  # cold starts timed per run: this process's and six children's
# a reference cold start (numpy and scipy.special) at the sandbox's full speed
REFERENCE_START_S = 0.23


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--cold-start",
        choices=("program", "reference"),
        help="only import the program (or numpy and scipy.special) and print "
        "the seconds since process start",
    )
    args = parser.parse_args(argv)
    if not args.cold_start and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")
    return args


def import_program():
    """Import cacegibbs from this checkout's src/; exit nonzero when it is not there."""
    if not (SRC / "cacegibbs" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'cacegibbs'}")
    sys.path.insert(0, str(SRC))
    import cacegibbs
    import cacegibbs.cli  # noqa: F401

    if Path(cacegibbs.__file__).resolve().parent != SRC / "cacegibbs":
        sys.exit(f"bench: cacegibbs was imported from {cacegibbs.__file__}, not {SRC}")


def cold_start(kind: str) -> float:
    """Set-up time of a fresh interpreter running this script with --cold-start."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--cold-start", kind],
        capture_output=True, text=True, check=True,
    )
    return float(proc.stdout)


def setup_seconds(own: float):
    """Median cold start of the program, in seconds at the sandbox's full speed.

    Program cold starts alternate with reference ones, which import only
    numpy and scipy.special and slow with the machine as the program's do.
    Each program start is divided by the mean of the references on either
    side (``own``, this process's start, has one only after it).  Returns
    the figure and the unscaled program and reference starts.
    """
    starts = [own]
    references = [cold_start("reference")]
    for _ in range(COLD_STARTS - 1):
        starts.append(cold_start("program"))
        references.append(cold_start("reference"))
    ratios = [own / references[0]] + [
        t / ((a + b) / 2) for t, a, b in zip(starts[1:], references, references[1:])
    ]
    return REFERENCE_START_S * statistics.median(ratios), starts, references


def prepare(workload, workdir, seed) -> None:
    """Build the workload's inputs in a child process, so that the memory it
    takes stays out of this process's peak resident set."""
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "workloads.py"), workload, str(workdir), str(seed)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.cold_start == "reference":
        import numpy  # noqa: F401
        import scipy.special  # noqa: F401

        print(repr(_process_age()))
        return 0
    import_program()
    setup_s = time.perf_counter() - _BORN
    if args.cold_start:
        print(repr(setup_s))
        return 0

    import checks
    from spans import Tracer, layer_metrics, unread_layers
    from calibrate import speed_probe
    from workloads import KINDS, WORKLOADS, Session

    # keep the program's INFO lines off the benchmark's output
    os.environ["CACEGIBBS_LOG"] = "WARNING"
    setup_s, cold_starts, reference_starts = setup_seconds(setup_s)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](workdir, args.seed)
    try:
        prepare(args.workload, workdir, args.seed)
        session = Session(speed_probe(args.workload))
        tracer = Tracer() if args.trace else None
        rounds = {False: [], True: []}  # traced? -> scaled round times
        reference = None
        problems = []
        attempted = failed = 0
        start = time.perf_counter()
        while not rounds[bool(args.trace)] or time.perf_counter() - start < args.seconds:
            # a traced run alternates untraced and traced rounds
            traced = bool(args.trace) and len(rounds[False]) > len(rounds[True])
            session.start_round()
            session.tracer = tracer if traced else None
            if traced:
                tracer.install()
            try:
                workload.run_round(session)
            finally:
                if traced:
                    tracer.uninstall()
            session.calibrate()
            rounds[traced].append(session.round_time())
            attempted += session.attempted
            failed += session.failed
            digests = workload.digests()
            if reference is None:
                reference = digests
            else:
                try:
                    checks.check_same_digests(reference, digests, "rerun")
                except checks.CheckError as exc:
                    problems.append(str(exc))
        # before the checks, which parse whole datasets in this process
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            workload.check()
        except (checks.CheckError, OSError, KeyError, ValueError) as exc:
            problems.append(f"{type(exc).__name__}: {exc}")

        if args.trace:
            n_traced = len(rounds[True])
            metrics = layer_metrics(tracer, n_traced, workload.commands, workload.replicates)
            metrics["engine.cace_ess"] = workload.cace_ess()
            metrics["trace.overhead_pct"] = 100.0 * (
                statistics.median(rounds[True]) / statistics.median(rounds[False]) - 1.0
            )
            tracer.write(OUT / f"trace-{args.workload}.npz")
            # a renamed or re-plumbed function must not read as a layer made free
            problems += [f"trace: no hook for {name}" for name in tracer.missing]
            problems += [
                f"trace: counter of {name} failed: {error}"
                for name, error in tracer.counter_errors.items()
            ]
            problems += [
                f"trace: {name} read 0, but {args.workload} runs that layer"
                for name in unread_layers(metrics, workload.variants)
            ]
            units = LAYER_UNITS
        else:
            metrics = {f"{kind}_s": session.command_time(kind) for kind in KINDS}
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mib"] = peak_rss_mib
            raw = {k: round(session.command_time(k, scaled=False), 4) for k in KINDS}
            print(f"bench: unscaled {raw}, cold starts {[round(t, 4) for t in cold_starts]} s, "
                  f"reference starts {[round(t, 4) for t in reference_starts]} s, "
                  f"slowdowns {[round(p, 3) for p in session.probes]}, longest wait for "
                  f"a quiet process {max(session.waits):.3f} s", file=sys.stderr)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    n_rounds = sum(len(r) for r in rounds.values())
    print(f"bench: {args.workload} seed {args.seed}: {n_rounds} rounds", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0


E2E_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "diagnose_s": "s",
    "simulate_s": "s",
    "peak_rss_mib": "MiB",
}

LAYER_UNITS = {
    "engine.sweeps": "count",
    "engine.sweep_us": "us/sweep",
    "engine.ns_per_patient_sweep": "ns",
    "engine.membership_us": "us/sweep",
    "engine.cace_us": "us/sweep",
    "engine.chain_overhead_ms": "ms/chain",
    "engine.cace_ess": "count",
    "strata.latent_utilities_us": "us/sweep",
    "strata.probit_update_us": "us/sweep",
    "strata.mlogit_update_us": "us/sweep",
    "strata.mlogit_accept_ratio": "ratio",
    "strata.proportions_update_us": "us/sweep",
    "distributions.truncnorm_us": "us/sweep",
    "distributions.truncnorm_entries": "count",
    "distributions.tail_entries": "count",
    "distributions.clamped_entries": "count",
    "outcomes.update_us": "us/sweep",
    "outcomes.impute_us": "us/sweep",
    "outcomes.imputed_values": "count",
    "data.ingest_ms": "ms/call",
    "runio.write_draws_ms": "ms/call",
    "runio.read_draws_ms": "ms/call",
    "runio.digest_ms": "ms/call",
    "runio.draws_bytes": "bytes",
    "diagnostics.summary_ms": "ms/call",
    "diagnostics.grid_ms": "ms/call",
    "diagnostics.prob_cells": "count",
    "simulation.generate_ms": "ms/replicate",
    "simulation.replicate_s": "s/replicate",
    "cli.self_ms": "ms/command",
    "trace.overhead_pct": "%",
    **{
        f"engine.{m}.{v}": "us/sweep"
        for m in ("sweep_us", "membership_us", "cace_us")
        for v in ("A", "Astar", "B", "Cstar", "D")
    },
}


if __name__ == "__main__":
    sys.exit(main())
