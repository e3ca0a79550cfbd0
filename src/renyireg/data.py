"""CSV ingestion, the two bundled example datasets, and the table writers
of every report."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .exceptions import DomainError, is_index
from .model import ModelData

__all__ = [
    "DatasetDescriptor",
    "load_csv",
    "load_dataset",
    "exclude_rows",
]


@dataclass(frozen=True)
class DatasetDescriptor:
    name: str
    data: ModelData
    transform: str
    outlier_rows: tuple  # 1-based row indices conventionally treated as outliers

    @property
    def n_obs(self) -> int:
        return self.data.n_obs


def _parse_cell(text, row, col):
    try:
        value = float(text)
    except ValueError:
        raise DomainError(
            f"non-numeric value {text!r} at row {row}, column {col}"
        ) from None
    if not math.isfinite(value):
        raise DomainError(f"non-finite value {text!r} at row {row}, column {col}")
    return value


def load_csv(
    path,
    response_column,
    covariate_columns,
    header: bool = True,
    add_intercept: bool = True,
    transform: str = "none",
) -> ModelData:
    """Read a comma-separated numeric table into model data.

    Columns may be named (requires ``header=True``) or given as 0-based
    positions.  ``transform="log_log"`` applies the natural logarithm to the
    response and to every covariate (intercept excluded); values must then
    be positive.  Missing values are not supported.

    Raises
    ------
    DomainError
        On non-numeric or non-finite cells (with row/column location),
        unknown column names, or empty files.
    """
    if transform not in ("none", "log_log"):
        raise DomainError(f"unknown transform {transform!r}")
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise DomainError(f"no data rows in {path}")
    names = None
    if header:
        names = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
        if not rows:
            raise DomainError(f"no data rows in {path}")

    def column_index(spec):
        if isinstance(spec, (int, np.integer)):
            if not is_index(spec, len(rows[0])):
                raise DomainError(f"column position {spec} outside 0..{len(rows[0]) - 1}")
            return int(spec)
        if names is None:
            raise DomainError(f"column {spec!r} named but the file has no header")
        if spec not in names:
            raise DomainError(f"no column named {spec!r} (have {names})")
        return names.index(spec)

    y_idx = column_index(response_column)
    x_idx = [column_index(c) for c in covariate_columns]
    n = len(rows)
    y = np.empty(n)
    x = np.empty((n, len(x_idx)))
    for r, row in enumerate(rows):
        for idx in [y_idx, *x_idx]:
            if idx >= len(row) or row[idx].strip() == "":
                raise DomainError(f"missing value at row {r + 1}, column {idx}")
        y[r] = _parse_cell(row[y_idx], r + 1, y_idx)
        for c, idx in enumerate(x_idx):
            x[r, c] = _parse_cell(row[idx], r + 1, idx)
    if transform == "log_log":
        if np.any(y <= 0) or np.any(x <= 0):
            raise DomainError("log transform requires strictly positive values")
        y = np.log(y)
        x = np.log(x)
    if add_intercept:
        x = np.column_stack([np.ones(n), x])
    return ModelData(design=x, response=y)


def write_csv(path, columns, rows) -> None:
    """Write a header and rows; floats are written with ``repr``, so reading
    the table back reproduces them bit-exactly."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            # float() drops numpy's scalar type, whose repr is not a number
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def write_json(path, payload) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)


# name -> (response column, covariate columns, transform, 1-based outlier
# rows); the file is datasets/<name>.csv, see datasets/PROVENANCE.md
BUNDLED_DATASETS = {
    "brain_weight": ("brain_g", ("body_kg",), "log_log", (6, 16, 25)),
    "first_word": ("gesell_score", ("age_months",), "none", (18,)),
}


def load_dataset(name: str) -> DatasetDescriptor:
    """Load a bundled dataset by name; see datasets/PROVENANCE.md."""
    if name not in BUNDLED_DATASETS:
        raise DomainError(
            f"unknown dataset {name!r}; bundled: {sorted(BUNDLED_DATASETS)}"
        )
    response, covariates, transform, outlier_rows = BUNDLED_DATASETS[name]
    csv_file = resources.files("renyireg.datasets").joinpath(f"{name}.csv")
    with resources.as_file(csv_file) as path:
        data = load_csv(path, response, covariates, transform=transform)
    return DatasetDescriptor(
        name=name, data=data, transform=transform, outlier_rows=outlier_rows
    )


def exclude_rows(data: ModelData, rows_1based) -> ModelData:
    """Drop the given 1-based rows (the bundled outlier convention); each is
    an index by ``is_index``, so a bool or a float is refused."""
    rows = list(rows_1based)
    if not all(is_index(r) and 1 <= r <= data.n_obs for r in rows):
        raise DomainError(f"row indices must be integers in 1..{data.n_obs}, got {rows}")
    if not rows:
        return data
    keep = np.ones(data.n_obs, dtype=bool)
    keep[[r - 1 for r in rows]] = False
    return data.subset(keep)
