import numpy as np
import pytest

from neat import expr
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


def clamp_range_table(seed: int, n: int) -> DataTable:
    """Leaf columns at the evaluator's limits: VALUE_CAP, the exp clamp, the
    divisor floor and signed zeros, beside ordinary values."""
    rng = np.random.default_rng(seed)
    return make_table(np.column_stack([
        rng.normal(size=n),
        rng.choice([-expr.VALUE_CAP, 0.0, expr.VALUE_CAP], size=n),
        rng.uniform(-1.2 * expr.EXP_MAX, 1.2 * expr.EXP_MAX, size=n),
        rng.choice([-expr.DIV_EPSILON, -1e-9, -0.0, 0.0, 1e-9, expr.DIV_EPSILON], size=n),
        1e3 * rng.normal(size=n),
    ]), target=rng.normal(size=n))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_table(rng):
    return make_table(rng.normal(size=(40, 5)))


def latent_view_table(rows: int, seed: int, noise: float = 0.7) -> np.ndarray:
    """A ``(rows, 12)`` table of related features: z ~ N(0, I_3), and columns
    4k..4k+3 are four noisy views z_k + ``noise`` * N(0, 1) of latent k,
    each z-scored (population statistics, as ``load_csv`` does)."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(rows, 3))
    X = np.repeat(z, 4, axis=1) + noise * rng.normal(size=(rows, 12))
    return (X - X.mean(axis=0)) / X.std(axis=0)
