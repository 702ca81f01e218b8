"""Run the benchmark on several seeds and report the spread of each metric.

    python3 bench/steady.py --workload trial_fixture --seeds 1-10

Each run is untraced and lasts ``run_seconds`` from ``BENCHMARK.json``.
For each end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  Every run's
result line is appended to ``.bench_runs/steady-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args(argv)
    seconds = str(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])

    log = ROOT / ".bench_runs" / f"steady-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [
                sys.executable, "bench/run.py", "--workload", args.workload,
                "--seed", str(seed), "--seconds", seconds, "--trace", "0",
            ],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        results.append(result)
        with open(log, "a") as handle:
            handle.write(json.dumps({"seed": seed, **result}) + "\n")
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(seed, result["correct"], result["attempted"], result["failed"], values,
              flush=True)

    print(f"{'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{name:<16} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} {(q3 - q1) / med:>8.3f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print("correct:", all(r["correct"] for r in results), "failed shares:", sorted(shares))


if __name__ == "__main__":
    main()
