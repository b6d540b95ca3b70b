import numpy as np
import pytest

from neat.tabular import DataTable


def make_table(values: np.ndarray, task: str = "regression",
               target=None, names=None, dataset_id: str = "fixture") -> DataTable:
    """Wrap a raw matrix as an already-normalized DataTable for unit tests."""
    values = np.asarray(values, dtype=np.float64)
    n, d = values.shape
    if target is None:
        target = np.zeros(n)
    if names is None:
        names = [f"col{i}" for i in range(d)]
    return DataTable(
        values=np.asfortranarray(values),
        column_names=list(names),
        target=np.asarray(target, dtype=np.float64),
        task=task,
        target_name="y",
        dataset_id=dataset_id,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_table(rng):
    return make_table(rng.normal(size=(40, 5)))
