"""A fixed probe of how fast this machine runs the sampler's kind of code.

The probe is the benchmark's own code and never changes with the program:
a loop of small numpy, scipy.special and random-generator calls with the
Python-level bookkeeping of one Gibbs sweep, on arrays of a workload's size.
On a shared host the same code runs tens of percent slower for minutes at
a time; the probe slows with it, and the end-to-end times are scaled by
the ratio of the probe's reference time to the first quartile of its times
over a run.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from time import perf_counter, process_time, sleep

import numpy as np
from scipy import special


@dataclass(frozen=True)
class _Draw:
    labels: np.ndarray
    utility: np.ndarray
    slope: float


def probe(n: int, sweeps: int) -> float:
    """Seconds to run ``sweeps`` sweep-like steps on ``n`` patients.

    Each step has a numpy part (the sweep's array calls) and a plain-Python
    part (writing and parsing CSV rows, as ingest and the draws tables do).
    """
    rng = np.random.default_rng(20111509)
    x = rng.standard_normal(n)
    rows = max(10, n // 100)
    draw = _Draw(np.zeros(n, dtype=np.int8), np.zeros(n), 0.3)
    t0 = perf_counter()
    for _ in range(sweeps):
        eta = 0.2 + draw.slope * x
        p = special.expit(special.log_ndtr(eta) - special.log_ndtr(-eta))
        labels = np.where(rng.uniform(size=n) < p, 0, 1).astype(np.int8)
        a = np.where(labels == 0, -eta, eta)
        u = -special.ndtri((1.0 - rng.uniform(size=n)) * special.ndtr(-a))
        counts = np.bincount(labels, weights=x, minlength=3)
        slope = float((x * u).sum()) / (float((x * x).sum()) + 1.0) + 1e-3 * counts[0]
        text = "\n".join(
            f"p{i:05d},{i & 1},{int(labels[i])},{u[i]:.17g},{x[i]:.17g}"
            for i in range(rows)
        )
        parsed = [
            (r[0], int(r[1]), int(r[2]), float(r[3]), float(r[4]))
            for r in csv.reader(io.StringIO(text))
        ]
        draw = _Draw(labels, u, 0.3 + 0.01 * np.tanh(slope + parsed[0][3]))
    return perf_counter() - t0


# workload -> (patients, sweeps, reference seconds).  The reference is the
# probe's time on the 2-core sandbox the benchmark was tuned on, in a spell
# when it ran at full speed, so scaled times read as seconds at that speed.
PROBES = {
    "trial_fixture": (142, 300, 0.021),
    "bias_study": (500, 300, 0.029),
    "large_trial": (50_000, 6, 0.040),
}


def wait_until_quiet(step: float = 0.01, limit: float = 2.0) -> float:
    """Sleep until no other thread of this process uses a CPU; seconds waited.

    A library's thread pool may spin on after a command returns: OpenBLAS's
    worker does for a while after a threaded dot product at n=50 000.  A
    probe run beside it would read the machine as slower than it is.
    """
    t0 = perf_counter()
    while perf_counter() - t0 < limit:
        cpu = process_time()
        sleep(step)
        if process_time() - cpu < 0.25 * step:
            break
    return perf_counter() - t0


def speed_probe(workload: str):
    """The workload's probe as a callable returning (seconds, reference seconds)."""
    n, sweeps, reference = PROBES[workload]
    probe(n, 10)  # first calls into numpy and scipy are slower; keep them out
    return lambda: (probe(n, sweeps), reference)
