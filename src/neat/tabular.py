"""CSV ingestion into a normalized numeric matrix, plus seeded sampling and splits.

The target column is held out at load time and never touches feature-side
computation. Nothing reads it yet: the downstream evaluation that will is
ROADMAP item 1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DuplicateColumnName, EmptyAfterCleaning, MissingTarget, TooFewRows

TaskKind = str  # "classification" | "regression"


@dataclass(frozen=True)
class DataTable:
    """An immutable numeric dataset with the target column split off.

    ``values`` holds the z-scored feature matrix (population statistics,
    computed once at load). Columns whose raw variance is zero are centered
    but not scaled. ``raw_mean``/``raw_std`` keep the statistics used.
    """

    values: np.ndarray            # (n, d) float64, Fortran order
    column_names: list[str]
    target: np.ndarray            # (n,) float64
    task: TaskKind
    target_name: str
    dataset_id: str
    dropped_rows: int = 0
    raw_mean: np.ndarray = field(default=None, repr=False)
    raw_std: np.ndarray = field(default=None, repr=False)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class RowSample:
    """A deterministic, sorted subset of row indices."""

    indices: np.ndarray
    seed: int


def _parse_cell(text: str) -> float:
    # Returns NaN for anything that does not parse as a finite real;
    # the caller drops such rows.
    try:
        return float(text)
    except (TypeError, ValueError):
        return float("nan")


def load_csv(path: str | Path, target_column: str, task: TaskKind,
             dataset_id: str | None = None) -> DataTable:
    """Load an RFC-4180-style CSV with a header row into a DataTable.

    Rows containing cells that do not parse as finite reals are dropped and
    counted in ``dropped_rows``. Feature columns are z-scored in place with
    population statistics; zero-variance columns are centered only.

    Args:
        path: CSV file location.
        target_column: header name of the column to hold out as the target.
        task: "classification" or "regression".
        dataset_id: identifier stored on the table; defaults to the file stem.

    Raises:
        MissingTarget: header does not contain ``target_column``.
        DuplicateColumnName: header repeats a name.
        EmptyAfterCleaning: fewer than 2 usable rows or no feature columns.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyAfterCleaning(f"{path}: file is empty")
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            seen, dup = set(), None
            for h in header:
                if h in seen:
                    dup = h
                    break
                seen.add(h)
            raise DuplicateColumnName(f"{path}: column {dup!r} appears more than once")
        if target_column not in header:
            raise MissingTarget(f"{path}: no column named {target_column!r}")
        t_idx = header.index(target_column)

        rows: list[list[float]] = []
        dropped = 0
        for raw in reader:
            if not raw or all(not c.strip() for c in raw):
                continue
            if len(raw) != len(header):
                dropped += 1
                continue
            parsed = [_parse_cell(c) for c in raw]
            if all(np.isfinite(v) for v in parsed):
                rows.append(parsed)
            else:
                dropped += 1

    names = [h for i, h in enumerate(header) if i != t_idx]
    if len(rows) < 2:
        raise EmptyAfterCleaning(f"{path}: {len(rows)} usable rows after dropping {dropped}")
    if not names:
        raise EmptyAfterCleaning(f"{path}: no feature columns besides the target")

    data = np.asarray(rows, dtype=np.float64)
    target = data[:, t_idx].copy()
    features = np.delete(data, t_idx, axis=1)

    mean = features.mean(axis=0)
    std = features.std(axis=0)          # population (ddof=0)
    scale = np.where(std > 0.0, std, 1.0)
    normalized = (features - mean) / scale
    normalized = np.asfortranarray(normalized)
    normalized.setflags(write=False)
    target.setflags(write=False)

    return DataTable(
        values=normalized,
        column_names=names,
        target=target,
        task=task,
        target_name=target_column,
        dataset_id=dataset_id if dataset_id is not None else path.stem,
        dropped_rows=dropped,
        raw_mean=mean,
        raw_std=std,
    )


def sample_indices(n: int, max_rows: int, seed: int) -> np.ndarray:
    """Sorted sample of min(n, max_rows) distinct indices from [0, n)."""
    if n <= max_rows:
        return np.arange(n)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    picked = rng.choice(n, size=max_rows, replace=False)
    picked.sort()
    return picked


def train_test_folds(table: DataTable, folds: int, seed: int
                     ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition rows into ``folds`` cross-validation splits.

    Every row appears in exactly one test fold; splits are a pure function
    of (n, folds, seed).

    Raises:
        TooFewRows: fewer rows than folds.
    """
    n = table.n_rows
    if n < folds:
        raise TooFewRows(f"cannot split {n} rows into {folds} folds")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = rng.permutation(n)
    parts = np.array_split(order, folds)
    out = []
    for i, part in enumerate(parts):
        test = np.sort(part)
        train = np.sort(np.concatenate([p for j, p in enumerate(parts) if j != i]))
        out.append((train, test))
    return out
