"""Span tracing of the program's layers, installed from outside the package.

``Tracer.install`` replaces a function by a timing wrapper at the module
attribute where its caller looks it up (``cacegibbs.engine.gibbs_iteration``
is what ``run_chain`` calls), and ``uninstall`` puts the originals back.
Spans (name, parent, enclosing sweep, start, end) are kept in flat arrays in
memory and written out once at the end.  A span's self time is its duration
minus the time its child spans cover; the program is single-threaded here,
so child spans never overlap and cover the sum of their durations.
"""

from __future__ import annotations

import importlib
import os
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

SWEEP = "engine.gibbs_iteration"
VARIANTS = ("A", "Astar", "B", "Cstar", "D")


# Counters read a call's arguments (positional, as the callers pass them)
# and its result; they run after the call's span has closed.


def _count_sweep(counts, args, kwargs, result):
    counts["patient_sweeps"] += args[0].n


def _count_truncnorm(counts, args, kwargs, result):
    means, bound, above = args[:3]
    # standardized distance of the truncation bound into the kept side
    a = np.where(above, bound - means, means - bound)
    beyond_tail = int(np.count_nonzero(a > 5.0))
    clamped = int(np.count_nonzero(a > 37.0))
    counts["truncnorm_entries"] += a.size
    counts["tail_entries"] += beyond_tail - clamped
    counts["clamped_entries"] += clamped


def _count_imputed(counts, args, kwargs, result):
    counts["imputed_values"] += len(args[0])


def _count_mlogit(counts, args, kwargs, result):
    before = args[0]
    counts["mlogit_proposed"] += 2
    counts["mlogit_accepted"] += int(not np.array_equal(result.gamma_n, before.gamma_n))
    counts["mlogit_accepted"] += int(not np.array_equal(result.gamma_a, before.gamma_a))


def _count_prob_cells(counts, args, kwargs, result):
    fit = args[0]
    x_grid = args[4] if len(args) > 4 else kwargs["x_grid"]
    counts["prob_cells"] += sum(c.n_saved for c in fit.chains) * len(x_grid)


def _count_draws_bytes(counts, args, kwargs, result):
    counts["draws_bytes"] += os.path.getsize(args[1])


# (module, attribute, counter): each function is wrapped where its caller
# looks it up; the span is named "<module>.<attribute>".
HOOKS = (
    ("engine", "run_chain", None),
    ("engine", "gibbs_iteration", _count_sweep),
    ("engine", "complier_probability", None),
    ("engine", "compute_cace", None),
    ("engine", "sample_latent_utilities", None),
    ("engine", "update_probit_beta", None),
    ("engine", "update_mlogit_gamma", _count_mlogit),
    ("engine", "update_proportions", None),
    ("engine", "update_outcome_params", None),
    ("engine", "impute_outcomes", _count_imputed),
    ("strata", "truncated_normal_draws", _count_truncnorm),
    ("simulation", "generate_dataset", None),
    ("simulation", "run_model", None),
    ("cli", "ingest_dataset", None),
    ("cli", "run_model", None),
    ("cli", "run_monte_carlo", None),
    ("cli", "complier_prob_grid", _count_prob_cells),
    ("cli", "shaded_histogram", None),
    ("cli", "psrf_report", None),
    ("diagnostics", "complier_prob_grid", _count_prob_cells),
    ("runio", "write_draws_csv", _count_draws_bytes),
    ("runio", "read_draws_csv", None),
    ("runio", "file_digest", None),
    ("runio", "summarize_fit", None),
    ("runio", "psrf_report", None),
)


class Tracer:
    """In-memory span recorder with wrappers installed on module attributes."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.sweep = array("i")  # enclosing sweep span, -1 outside sweeps
        self.variant = array("b")  # variant of the enclosing sweep, -1 outside
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self._current = -1
        self._sweep = -1
        self._variant = -1
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.counter_errors: dict[str, str] = {}

    def _name(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name, fn, args, kwargs, is_sweep=False):
        """Run ``fn`` inside a span named ``name``."""
        idx = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._current)
        outer = (self._current, self._sweep, self._variant)
        if is_sweep:
            self._sweep = idx
            v = getattr(args[0], "variant", None)
            self._variant = VARIANTS.index(v) if v in VARIANTS else -1
        self.sweep.append(self._sweep)
        self.variant.append(self._variant)
        self.start.append(0)
        self.end.append(0)
        self._current = idx
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            self.start[idx] = t0
            self.end[idx] = t1
            self._current, self._sweep, self._variant = outer

    def _wrapper(self, name, fn, counter):
        is_sweep = name == SWEEP

        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs, is_sweep)
            if counter is not None:
                try:
                    counter(self.counts, args, kwargs, result)
                except Exception as exc:  # noqa: BLE001 - a counter must not fail the call
                    self.counter_errors[name] = f"{type(exc).__name__}: {exc}"
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every hook that exists; names of absent hooks go to ``missing``."""
        self.missing = []
        for module_name, attr, counter in HOOKS:
            module = importlib.import_module(f"cacegibbs.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, fn))
            setattr(module, attr, self._wrapper(f"{module_name}.{attr}", fn, counter))

    def uninstall(self):
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def arrays(self):
        """Spans as numpy arrays, with durations and self times in ns."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        dur = (end - start).astype(float)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return {
            "name_id": name_id,
            "parent": parent,
            "sweep": np.frombuffer(self.sweep, dtype=np.int32),
            "variant": np.frombuffer(self.variant, dtype=np.int8),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - covered,
        }

    def write(self, path):
        spans = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            **{k: spans[k] for k in ("name_id", "parent", "sweep", "variant", "start", "end")},
        )


# layers that only some variants run
VARIANT_LAYERS = {
    "strata.probit_update_us": ("A", "Astar", "B"),
    "strata.mlogit_update_us": ("Cstar",),
    "strata.mlogit_accept_ratio": ("Cstar",),
    "strata.proportions_update_us": ("D",),
}
PER_VARIANT = ("sweep_us", "membership_us", "cace_us")  # engine.<name>.<variant>
# guards whose good reading is 0
ZERO_GUARDS = ("distributions.tail_entries", "distributions.clamped_entries")


def unread_layers(metrics: dict, variants) -> list[str]:
    """Figures that read 0 although a round fitting ``variants`` runs their layer."""
    idle = set(ZERO_GUARDS)
    idle.update(
        f"engine.{m}.{v}" for m in PER_VARIANT for v in VARIANTS if v not in variants
    )
    idle.update(
        name for name, users in VARIANT_LAYERS.items() if not set(users) & set(variants)
    )
    return [name for name, value in metrics.items() if value == 0 and name not in idle]


def layer_metrics(tracer: Tracer, rounds: int, commands: int, replicates: int):
    """Per-layer figures from the spans of ``rounds`` traced rounds.

    ``commands`` and ``replicates`` are the CLI commands and Monte Carlo
    replicates each round runs.  Times per sweep divide by the sweeps in
    which the layer ran at all, so a layer that only some variants use is
    not diluted by the others.  Counts are per round.
    """
    s = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    c = tracer.counts

    def mask(*names):
        m = np.zeros(s["dur"].size, dtype=bool)
        for name in names:
            if name in ids:
                m |= s["name_id"] == ids[name]
        return m

    def total(*names, field="dur"):
        return float(s[field][mask(*names)].sum())

    def calls(*names):
        return int(mask(*names).sum())

    def per_call_ms(*names):
        n = calls(*names)
        return total(*names) / n / 1e6 if n else 0.0

    def per_sweep_us(name, variant=None):
        m = mask(name) & (s["sweep"] >= 0)
        if variant is not None:
            m &= s["variant"] == VARIANTS.index(variant)
        sweeps = np.unique(s["sweep"][m]).size
        return float(s["dur"][m].sum()) / sweeps / 1e3 if sweeps else 0.0

    sweeps = mask(SWEEP)
    chains = mask("engine.run_chain")
    # run_chain time outside its sweeps: chain set-up and draw saving
    in_sweep_of_chain = sweeps & (s["parent"] >= 0)
    chain_sweep_time = np.bincount(
        s["parent"][in_sweep_of_chain],
        weights=s["dur"][in_sweep_of_chain],
        minlength=s["dur"].size,
    )
    chain_overhead = s["dur"][chains] - chain_sweep_time[chains]
    roots = s["parent"] < 0
    proposed = c["mlogit_proposed"]

    m = {
        "engine.sweeps": calls(SWEEP) / rounds,
        "engine.sweep_us": per_sweep_us(SWEEP),
        "engine.ns_per_patient_sweep": (
            total(SWEEP) / c["patient_sweeps"] if c["patient_sweeps"] else 0.0
        ),
        "engine.membership_us": per_sweep_us("engine.complier_probability"),
        "engine.cace_us": per_sweep_us("engine.compute_cace"),
        "engine.chain_overhead_ms": (
            float(chain_overhead.mean()) / 1e6 if chain_overhead.size else 0.0
        ),
        "strata.latent_utilities_us": per_sweep_us("engine.sample_latent_utilities"),
        "strata.probit_update_us": per_sweep_us("engine.update_probit_beta"),
        "strata.mlogit_update_us": per_sweep_us("engine.update_mlogit_gamma"),
        "strata.mlogit_accept_ratio": (
            c["mlogit_accepted"] / proposed if proposed else 0.0
        ),
        "strata.proportions_update_us": per_sweep_us("engine.update_proportions"),
        "distributions.truncnorm_us": per_sweep_us("strata.truncated_normal_draws"),
        "distributions.truncnorm_entries": c["truncnorm_entries"] / rounds,
        "distributions.tail_entries": c["tail_entries"] / rounds,
        "distributions.clamped_entries": c["clamped_entries"] / rounds,
        "outcomes.update_us": per_sweep_us("engine.update_outcome_params"),
        "outcomes.impute_us": per_sweep_us("engine.impute_outcomes"),
        "outcomes.imputed_values": c["imputed_values"] / rounds,
        "data.ingest_ms": per_call_ms("cli.ingest_dataset"),
        "runio.write_draws_ms": per_call_ms("runio.write_draws_csv"),
        "runio.read_draws_ms": per_call_ms("runio.read_draws_csv"),
        "runio.digest_ms": per_call_ms("runio.file_digest"),
        "runio.draws_bytes": c["draws_bytes"] / rounds,
        "diagnostics.summary_ms": per_call_ms(
            "runio.summarize_fit", "runio.psrf_report", "cli.psrf_report"
        ),
        "diagnostics.grid_ms": per_call_ms(
            "cli.complier_prob_grid", "diagnostics.complier_prob_grid"
        ),
        "diagnostics.prob_cells": c["prob_cells"] / rounds,
        "simulation.generate_ms": (
            total("simulation.generate_dataset") / (replicates * rounds) / 1e6
            if replicates
            else 0.0
        ),
        "simulation.replicate_s": (
            total("simulation.run_model") / (replicates * rounds) / 1e9
            if replicates
            else 0.0
        ),
        "cli.self_ms": float(s["self"][roots].sum()) / (commands * rounds) / 1e6,
    }
    for v in VARIANTS:
        m[f"engine.sweep_us.{v}"] = per_sweep_us(SWEEP, v)
        m[f"engine.membership_us.{v}"] = per_sweep_us("engine.complier_probability", v)
        m[f"engine.cace_us.{v}"] = per_sweep_us("engine.compute_cace", v)
    return m
