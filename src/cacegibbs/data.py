"""Trial data model: the columnar dataset, observed compliance patterns,
CSV ingestion, summaries.

A patient is one randomized trial participant: assignment z, treatment
received d_obs, outcome y_obs (possibly missing), and a pretreatment
covariate x.  Under monotonicity the (z, d_obs) pair either reveals the
patient's stratum (never-taker or always-taker) or leaves a two-stratum
mixture.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

import numpy as np

from .errors import EmptyArmError, ParseError, ValidationError

CSV_HEADER = ["id", "z", "d_obs", "y_obs", "x"]


class ObservedPattern(enum.Enum):
    """What the (z, d_obs) cell reveals about stratum membership.

    Each value is ``2 * z + d_obs``.
    """

    MIXTURE_CONTROL_ARM = 0  # z=0, d=0: complier or never-taker
    KNOWN_ALWAYS_TAKER = 1  # z=0, d=1
    KNOWN_NEVER_TAKER = 2  # z=1, d=0
    MIXTURE_TREATED_ARM = 3  # z=1, d=1: complier or always-taker


MIXTURE_PATTERNS = (
    ObservedPattern.MIXTURE_CONTROL_ARM,
    ObservedPattern.MIXTURE_TREATED_ARM,
)


def classify_observed_pattern(z: int, d_obs: int) -> ObservedPattern:
    """Map an assignment/receipt pair to its observed pattern."""
    if int(z) not in (0, 1) or int(d_obs) not in (0, 1):
        raise ValidationError(f"z and d_obs must be 0 or 1, got ({z!r}, {d_obs!r})")
    return ObservedPattern(2 * int(z) + int(d_obs))


@dataclass(frozen=True)
class PatientRecord:
    """One patient row."""

    id: str
    z: int
    d_obs: int
    y_obs: float | None
    x: float

    @property
    def pattern(self) -> ObservedPattern:
        return classify_observed_pattern(self.z, self.d_obs)


class Dataset:
    """Immutable columns of one trial, one entry per patient.

    ``ids`` (str objects), ``z``, ``d_obs``, ``y``, ``x``, ``y_missing`` and
    ``pattern`` (the ``ObservedPattern`` value, ``2 * z + d_obs``) are
    read-only arrays of length ``n``.  Outcome missingness is encoded as NaN
    in ``y`` plus the ``y_missing`` mask.  ``Dataset(records)`` takes
    ``PatientRecord``s; ``Dataset.from_columns`` takes the columns.
    """

    def __init__(self, records):
        records = tuple(records)
        self._set_columns(
            [r.id for r in records],
            [r.z for r in records],
            [r.d_obs for r in records],
            [math.nan if r.y_obs is None else r.y_obs for r in records],
            [r.x for r in records],
        )

    @classmethod
    def from_columns(cls, ids, z, d_obs, y, x) -> Dataset:
        """A dataset from its columns; NaN in ``y`` marks a missing outcome."""
        dataset = cls.__new__(cls)
        dataset._set_columns(ids, z, d_obs, y, x)
        return dataset

    def _set_columns(self, ids, z, d_obs, y, x):
        ids = np.array(ids, dtype=object)
        if ids.size == 0:
            raise EmptyArmError("dataset has no records")
        z = np.array(z)
        d_obs = np.array(d_obs)
        y = np.array(y, dtype=float)
        x = np.array(x, dtype=float)
        if not all(col.shape == ids.shape for col in (z, d_obs, y, x)):
            raise ValidationError("dataset columns must be 1-d and of one length")
        valid = ((z == 0) | (z == 1)) & ((d_obs == 0) | (d_obs == 1))
        if not valid.all():
            i = int(np.argmin(valid))
            classify_observed_pattern(z[i].item(), d_obs[i].item())
        self.ids = ids
        self.z = z.astype(np.int8)
        self.d_obs = d_obs.astype(np.int8)
        self.y = y
        self.x = x
        self.y_missing = np.isnan(y)
        self.pattern = 2 * self.z + self.d_obs
        if not (self.z == 0).any() or not (self.z == 1).any():
            raise EmptyArmError("both randomization arms must be nonempty")
        for arr in (self.ids, self.z, self.d_obs, self.x, self.y, self.y_missing, self.pattern):
            arr.flags.writeable = False

    @property
    def records(self) -> tuple[PatientRecord, ...]:
        """The patients as records, built from the columns on every access."""
        y = [None if m else v for v, m in zip(self.y.tolist(), self.y_missing.tolist())]
        return tuple(
            map(
                PatientRecord,
                self.ids.tolist(),
                self.z.tolist(),
                self.d_obs.tolist(),
                y,
                self.x.tolist(),
            )
        )

    @property
    def n(self) -> int:
        return self.z.size

    def __len__(self) -> int:
        return self.z.size


_WIDTH = len(CSV_HEADER)


def _read_columns(reader):
    """Stream data rows into one list per field.

    Rows of any width whose fields are all blank are skipped but keep their
    row number.  Reading stops at the first other row of the wrong width, or
    at a malformed line, whose error is returned to be raised once the rows
    before it have been checked.  Returns the five field lists, the row
    number of each entry, and that error (None when the input was read to
    the end).
    """
    columns = ([], [], [], [], [])
    add_id, add_z, add_d, add_y, add_x = (col.append for col in columns)
    skipped = []
    stop = None
    try:
        for i, row in enumerate(reader, start=1):
            if len(row) == _WIDTH:
                ident, z, d, y, x = row
                add_id(ident)
                add_z(z)
                add_d(d)
                add_y(y)
                add_x(x)
            elif any(f.strip() for f in row):
                stop = ParseError(f"expected {_WIDTH} fields, got {len(row)}", row=i)
                break
            else:
                skipped.append(i)
    except csv.Error as exc:
        stop = exc
    rows = range(1, len(columns[0]) + len(skipped) + 1)
    if skipped:
        skipped = set(skipped)
        rows = [i for i in rows if i not in skipped]
    ids = columns[0]
    # a row of full width is blank only if its id is
    if "" in ids or any(map(str.isspace, ids)):
        keep = [
            j for j, fields in enumerate(zip(*columns)) if any(f.strip() for f in fields)
        ]
        columns = tuple([col[j] for j in keep] for col in columns)
        rows = [rows[j] for j in keep]
    return columns, rows, stop


def _check_row(fields, row):
    """Raise the ParseError of the first fault in one data row, if any."""
    ident, z_raw, d_raw, y_raw, x_raw = fields
    if ident == "":
        raise ParseError("missing id", row=row)
    try:
        z = int(z_raw)
        d = int(d_raw)
    except ValueError:
        raise ParseError("z and d_obs must be integers", row=row)
    if z not in (0, 1) or d not in (0, 1):
        raise ParseError(f"z and d_obs must be 0 or 1, got ({z}, {d})", row=row)
    if y_raw.strip() != "":
        try:
            y = float(y_raw)
        except ValueError:
            raise ParseError(f"y_obs is not a number: {y_raw!r}", row=row)
        if not math.isfinite(y):
            raise ParseError(f"y_obs must be finite, got {y_raw!r}", row=row)
    if x_raw.strip() == "":
        # covariate missingness is not modeled
        raise ParseError("x is required for every record", row=row)
    try:
        x = float(x_raw)
    except ValueError:
        raise ParseError(f"x is not a number: {x_raw!r}", row=row)
    if not math.isfinite(x):
        raise ParseError(f"x must be finite, got {x_raw!r}", row=row)


def _convert_columns(columns):
    """The field lists as (ids, z, d_obs, y, x) arrays, or None when any
    value fails a check that ``_check_row`` makes."""
    ids, zs, ds, ys, xs = columns
    n = len(ids)
    if "" in ids:
        return None
    observed = list(map(bool, map(str.strip, ys)))
    try:
        z = np.fromiter(map(int, zs), np.int64, n)
        d = np.fromiter(map(int, ds), np.int64, n)
        y_obs = np.fromiter(map(float, compress(ys, observed)), float)
        x = np.fromiter(map(float, xs), float, n)
    except (ValueError, OverflowError):
        return None
    if not (
        (((z == 0) | (z == 1)) & ((d == 0) | (d == 1))).all()
        and np.isfinite(y_obs).all()
        and np.isfinite(x).all()
    ):
        return None
    y = np.full(n, math.nan)
    y[np.array(observed, dtype=bool)] = y_obs
    return ids, z, d, y, x


def ingest_dataset(source) -> Dataset:
    """Read a dataset from a CSV path, an open text handle or an iterable of
    lines.

    Expected header: ``id,z,d_obs,y_obs,x``.  An empty y_obs field marks a
    missing outcome; blank rows are skipped but counted in row numbers.
    Raises ParseError for the first faulty row in file order, with its row
    number, ValidationError for a bad header, EmptyArmError when either arm
    is empty.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", newline="") as handle:
            return ingest_dataset(handle)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyArmError("dataset file is empty")
    header = [h.strip() for h in header]
    if header != CSV_HEADER:
        raise ValidationError(
            f"expected header {','.join(CSV_HEADER)}, got {','.join(header)}"
        )
    columns, rows, stop = _read_columns(reader)
    converted = _convert_columns(columns)
    if converted is None:
        for fields, row in zip(zip(*columns), rows):
            _check_row(fields, row)
        raise AssertionError("bulk and per-row dataset checks disagree")
    if stop is not None:
        raise stop
    if not rows:
        raise EmptyArmError("dataset has no data rows")
    return Dataset.from_columns(*converted)


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Write a dataset back out in the ingestion format."""
    y = [
        "" if missing else format(v, ".17g")
        for v, missing in zip(dataset.y.tolist(), dataset.y_missing.tolist())
    ]
    x = [format(v, ".17g") for v in dataset.x.tolist()]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        writer.writerows(
            zip(dataset.ids.tolist(), dataset.z.tolist(), dataset.d_obs.tolist(), y, x)
        )


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
