"""Trial data model: records, observed compliance patterns, ingestion, summaries.

A record is one randomized patient: assignment z, treatment received d_obs,
outcome y_obs (possibly missing), and a pretreatment covariate x.  Under
monotonicity the (z, d_obs) pair either reveals the patient's stratum
(never-taker or always-taker) or leaves a two-stratum mixture.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyArmError, ParseError, ValidationError

CSV_HEADER = ["id", "z", "d_obs", "y_obs", "x"]


class ObservedPattern(enum.Enum):
    """What the (z, d_obs) cell reveals about stratum membership."""

    MIXTURE_CONTROL_ARM = 0  # z=0, d=0: complier or never-taker
    KNOWN_ALWAYS_TAKER = 1  # z=0, d=1
    KNOWN_NEVER_TAKER = 2  # z=1, d=0
    MIXTURE_TREATED_ARM = 3  # z=1, d=1: complier or always-taker


_PATTERN_BY_CELL = {
    (0, 0): ObservedPattern.MIXTURE_CONTROL_ARM,
    (0, 1): ObservedPattern.KNOWN_ALWAYS_TAKER,
    (1, 0): ObservedPattern.KNOWN_NEVER_TAKER,
    (1, 1): ObservedPattern.MIXTURE_TREATED_ARM,
}

MIXTURE_PATTERNS = (
    ObservedPattern.MIXTURE_CONTROL_ARM,
    ObservedPattern.MIXTURE_TREATED_ARM,
)


def classify_observed_pattern(z: int, d_obs: int) -> ObservedPattern:
    """Map an assignment/receipt pair to its observed pattern."""
    try:
        return _PATTERN_BY_CELL[(int(z), int(d_obs))]
    except KeyError:
        raise ValidationError(f"z and d_obs must be 0 or 1, got ({z!r}, {d_obs!r})")


@dataclass(frozen=True)
class PatientRecord:
    """One patient row as ingested."""

    id: str
    z: int
    d_obs: int
    y_obs: float | None
    x: float

    @property
    def pattern(self) -> ObservedPattern:
        return classify_observed_pattern(self.z, self.d_obs)


class Dataset:
    """Immutable column view of a set of patient records.

    Arrays are aligned with ``records`` and marked read-only.  Outcome
    missingness is encoded as NaN in ``y`` plus the ``y_missing`` mask.
    """

    def __init__(self, records):
        records = tuple(records)
        if not records:
            raise EmptyArmError("dataset has no records")
        self.records = records
        n = len(records)
        self.z = np.fromiter((r.z for r in records), dtype=np.int8, count=n)
        self.d_obs = np.fromiter((r.d_obs for r in records), dtype=np.int8, count=n)
        self.x = np.fromiter((r.x for r in records), dtype=float, count=n)
        self.y = np.fromiter(
            (math.nan if r.y_obs is None else r.y_obs for r in records),
            dtype=float,
            count=n,
        )
        self.y_missing = np.isnan(self.y)
        self.pattern = np.fromiter(
            (r.pattern.value for r in records), dtype=np.int8, count=n
        )
        if not (self.z == 0).any() or not (self.z == 1).any():
            raise EmptyArmError("both randomization arms must be nonempty")
        for arr in (self.z, self.d_obs, self.x, self.y, self.y_missing, self.pattern):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.records)

    def __len__(self) -> int:
        return len(self.records)


def _parse_row(raw, row_number):
    ident = raw.get("id")
    if ident is None or ident == "":
        raise ParseError("missing id", row=row_number)
    try:
        z = int(raw["z"])
        d = int(raw["d_obs"])
    except (KeyError, TypeError, ValueError):
        raise ParseError("z and d_obs must be integers", row=row_number)
    if z not in (0, 1) or d not in (0, 1):
        raise ParseError(f"z and d_obs must be 0 or 1, got ({z}, {d})", row=row_number)
    y_raw = raw.get("y_obs")
    if y_raw is None or y_raw.strip() == "":
        y = None
    else:
        try:
            y = float(y_raw)
        except ValueError:
            raise ParseError(f"y_obs is not a number: {y_raw!r}", row=row_number)
        if not math.isfinite(y):
            raise ParseError(f"y_obs must be finite, got {y_raw!r}", row=row_number)
    x_raw = raw.get("x")
    if x_raw is None or x_raw.strip() == "":
        # covariate missingness is not modeled
        raise ParseError("x is required for every record", row=row_number)
    try:
        x = float(x_raw)
    except ValueError:
        raise ParseError(f"x is not a number: {x_raw!r}", row=row_number)
    if not math.isfinite(x):
        raise ParseError(f"x must be finite, got {x_raw!r}", row=row_number)
    return PatientRecord(id=ident, z=z, d_obs=d, y_obs=y, x=x)


def ingest_dataset(source) -> Dataset:
    """Read a dataset from a CSV path or open text handle.

    Expected header: ``id,z,d_obs,y_obs,x``.  An empty y_obs field marks a
    missing outcome.  Raises ParseError with the offending row number,
    ValidationError for a bad header, EmptyArmError when either arm is empty.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", newline="") as handle:
            return ingest_dataset(handle)
    if isinstance(source, io.TextIOBase) or hasattr(source, "read"):
        reader = csv.reader(source)
    else:
        reader = csv.reader(iter(source))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyArmError("dataset file is empty")
    header = [h.strip() for h in header]
    if header != CSV_HEADER:
        raise ValidationError(
            f"expected header {','.join(CSV_HEADER)}, got {','.join(header)}"
        )
    records = []
    for i, row in enumerate(reader, start=1):
        if not row or all(f.strip() == "" for f in row):
            continue
        if len(row) != len(CSV_HEADER):
            raise ParseError(
                f"expected {len(CSV_HEADER)} fields, got {len(row)}", row=i
            )
        records.append(_parse_row(dict(zip(CSV_HEADER, row)), i))
    if not records:
        raise EmptyArmError("dataset has no data rows")
    return Dataset(records)


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Write a dataset back out in the ingestion format."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for r in dataset.records:
            y = "" if r.y_obs is None else format(r.y_obs, ".17g")
            writer.writerow([r.id, r.z, r.d_obs, y, format(r.x, ".17g")])


@dataclass(frozen=True)
class PatternSummary:
    """Per-pattern covariate and outcome summary."""

    n: int
    n_missing_y: int
    x_mean: float | None
    x_sd: float | None
    y_mean: float | None
    y_sd: float | None


def summarize_dataset(dataset: Dataset) -> dict[ObservedPattern, PatternSummary]:
    """Mean and SD of x and of the observed outcomes, by observed pattern.

    SDs use the n-1 denominator and are omitted (None) below two values;
    outcome stats are omitted when every outcome in the pattern is missing.
    """
    out = {}
    for p in ObservedPattern:
        mask = dataset.pattern == p.value
        n = int(mask.sum())
        if n == 0:
            out[p] = PatternSummary(0, 0, None, None, None, None)
            continue
        xs = dataset.x[mask]
        ys = dataset.y[mask]
        ys = ys[~np.isnan(ys)]
        out[p] = PatternSummary(
            n=n,
            n_missing_y=n - ys.size,
            x_mean=float(xs.mean()),
            x_sd=float(xs.std(ddof=1)) if n >= 2 else None,
            y_mean=float(ys.mean()) if ys.size >= 1 else None,
            y_sd=float(ys.std(ddof=1)) if ys.size >= 2 else None,
        )
    return out
