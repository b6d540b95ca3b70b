"""Linear evaluation of the pretrained encoder (ROADMAP item 10).

A ridge regression from the embeddings ``H`` of held-out records predicts a
property of each record; its held-out Spearman rho says how much of that
property ``H`` carries. This is the linear evaluation protocol of SimCLR
(Chen et al., ICML 2020), applied to the graph contrastive setup of GraphCL
(You et al., NeurIPS 2020). The property here is the record's column count
on the sampled rows, which needs no utility scoring.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from neat.encoder import encode_many, materialize_graphs
from neat.tabular import train_test_folds
from neat.utility import _rank_codes

BENCH = Path(__file__).resolve().parent.parent / "bench"

PROBE_RECORDS = 256    # a seeded sample of the pretrain workload's 512 records
FOLDS = 5
RIDGE_ALPHA = 1.0      # on standardized embeddings


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman's rho, ties given their average rank: the utility's rank
    codes are an affine map of average ranks, which leaves rho unchanged."""
    return float(np.corrcoef(_rank_codes(np.column_stack([a, b])).T)[0, 1])


def ridge_probe(H: np.ndarray, y: np.ndarray, seed: int) -> float:
    """Held-out Spearman rho between ``y`` and a ``FOLDS``-fold ridge
    prediction of it from ``H``, each fold standardized on its training rows."""
    H = np.asarray(H, dtype=np.float64)
    pred = np.empty(len(y))
    for train, test in train_test_folds(len(y), FOLDS, seed):
        mean, std = H[train].mean(axis=0), H[train].std(axis=0)
        std[std == 0.0] = 1.0
        X, Xt = (H[train] - mean) / std, (H[test] - mean) / std
        offset = y[train].mean()
        w = np.linalg.solve(X.T @ X + RIDGE_ALPHA * np.eye(X.shape[1]),
                            X.T @ (y[train] - offset))
        pred[test] = Xt @ w + offset
    return spearman(pred, y)


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


def embeddings(inp, model, seed):
    """``H`` of a seeded sample of the corpus, and each record's node count."""
    pick = np.sort(np.random.default_rng(seed).choice(len(inp.corpus), PROBE_RECORDS,
                                                      replace=False))
    stacks, order = materialize_graphs([inp.corpus[i] for i in pick], inp.table, inp.rows)
    assert sorted(order) == list(range(PROBE_RECORDS))
    H, _, _ = encode_many(stacks, model)
    return H, np.concatenate([np.full(len(s.attrs), s.n_nodes) for s in stacks])


def test_spearman_gives_ties_their_average_rank():
    a = np.array([1.0, 2.0, 2.0, 3.0])
    assert spearman(a, np.array([10.0, 20.0, 20.0, 30.0])) == pytest.approx(1.0)


def test_ridge_probe_reads_a_linear_signal_and_not_noise():
    rng = np.random.default_rng(0)
    H = rng.normal(size=(200, 8))
    assert ridge_probe(H, H @ rng.normal(size=8), seed=0) > 0.99
    assert abs(ridge_probe(H, rng.normal(size=200), seed=0)) < 0.2


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pretrained_embeddings_predict_the_column_count(workloads, tmp_path, seed):
    # The bench's pretrain workload, as its timed unit runs it: 512 records,
    # 10 epochs. Raw attributes gave |rho| <= 0.13 here.
    spec = workloads.WORKLOADS["pretrain"]
    inp = spec.setup(seed, tmp_path)
    _, model, _ = spec.stage(inp)
    H, columns = embeddings(inp, model, seed)
    assert ridge_probe(H, columns, seed) >= 0.6
