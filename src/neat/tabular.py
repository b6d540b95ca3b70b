"""CSV ingestion into a normalized numeric matrix, plus seeded sampling and splits.

The target column is held out at load time and never touches feature-side
computation. Only ``DataTable.take`` reads it, to copy it with its rows; the
downstream evaluation that will use it is ROADMAP item 1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DuplicateColumnName, EmptyAfterCleaning, MissingTarget, TooFewRows

TaskKind = str  # "classification" | "regression"


@dataclass(frozen=True, eq=False)
class DataTable:
    """An immutable numeric dataset with the target column split off.

    ``values`` holds the z-scored feature matrix (population statistics,
    computed once at load). Columns whose raw variance is zero are centered
    but not scaled.

    A table equals only itself and hashes by identity, so it can key a
    ``weakref.WeakKeyDictionary``: ``collector.collect`` keeps the scored
    base set of each live table there, and relies on its values not
    changing while the table lives. ``load_csv`` and ``take`` make them
    read-only.
    """

    values: np.ndarray            # (n, d) float64, Fortran order
    column_names: list[str]
    target: np.ndarray            # (n,) float64
    task: TaskKind
    target_name: str
    dataset_id: str
    dropped_rows: int = 0

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def take(self, indices: np.ndarray) -> "DataTable":
        """The table's rows at ``indices``, with their targets. Its values are
        Fortran-ordered and read-only, as ``load_csv`` makes them: a column
        is then contiguous, so an elementwise op runs the same loop on it as
        on the full table's column and gives the same bits row by row."""
        values = np.asfortranarray(self.values[indices])
        target = self.target[indices]
        values.setflags(write=False)
        target.setflags(write=False)
        return replace(self, values=values, target=target)


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
    counted in ``dropped_rows``. Feature columns are z-scored with population
    statistics; zero-variance columns are centered only. Each column is first
    divided by a power of two near its largest magnitude, so its moments
    neither overflow nor underflow at any finite scale; the division is exact,
    so a column and its multiple by ``2**k`` load to the same bits.

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
            try:
                rows.append(list(map(float, raw)))
            except ValueError:          # some cell is no number: NaN for it
                rows.append([_parse_cell(c) for c in raw])

    data = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(header))
    finite = np.isfinite(data).all(axis=1)
    dropped += len(data) - int(finite.sum())
    data = data[finite]
    names = [h for i, h in enumerate(header) if i != t_idx]
    if len(data) < 2:
        raise EmptyAfterCleaning(f"{path}: {len(data)} usable rows after dropping {dropped}")
    if not names:
        raise EmptyAfterCleaning(f"{path}: no feature columns besides the target")

    target = data[:, t_idx].copy()
    features = np.delete(data, t_idx, axis=1)

    features = np.ldexp(features, -np.frexp(np.abs(features).max(axis=0))[1])
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
    )


def sample_indices(n: int, max_rows: int, seed: int) -> np.ndarray:
    """Sorted sample of min(n, max_rows) distinct indices from [0, n)."""
    if n <= max_rows:
        return np.arange(n)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    picked = rng.choice(n, size=max_rows, replace=False)
    picked.sort()
    return picked


def train_test_folds(n: int, folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition rows ``0..n-1`` into ``folds`` cross-validation splits.

    Every row appears in exactly one test fold; splits are a pure function
    of (n, folds, seed).

    Raises:
        ValueError: ``folds`` is below 2, so no row could train.
        TooFewRows: fewer rows than folds.
    """
    if folds < 2:
        raise ValueError(f"folds={folds}: need at least 2 folds")
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
