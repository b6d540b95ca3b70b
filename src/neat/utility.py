"""Unsupervised feature-set utility: the mean discounted cumulative gain metric,
a redundancy baseline, and per-feature importance scores.

The metric rewards feature sets whose near-neighbor instance pairs stay
consistent per feature, discounting by feature variance. It needs no labels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateK
from .expr import FeatureMatrix
from .tabular import sample_indices

__all__ = [
    "UtilityConfig",
    "pair_gain",
    "knn_indicator",
    "mdcg",
    "feature_importance",
    "redundancy_utility",
]


@dataclass(frozen=True)
class UtilityConfig:
    """Knobs for the utility metric.

    ``max_rows`` caps the O(n^2) pairwise work via a seeded row subsample;
    ``row_seed`` fixes that subsample so the metric is a pure function.
    """

    k_neighbors: int = 5
    constant: float = 2.0
    var_epsilon: float = 1e-12
    max_rows: int = 1000
    row_seed: int = 0


def _values(F) -> np.ndarray:
    v = F.values if isinstance(F, FeatureMatrix) else np.asarray(F, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got shape {v.shape}")
    return v


def pair_gain(F, i: int, j: int, q: int, constant: float = 2.0) -> float:
    """Discounted gain of feature q between rows i and j.

    (F_iq - F_jq)^2 * exp(-||F_i - F_j||^2 / constant); lower means the pair
    stays more consistent on that feature.
    """
    v = _values(F)
    diff = v[i, q] - v[j, q]
    dist2 = float(np.sum((v[i, :] - v[j, :]) ** 2))
    return float(diff * diff * np.exp(-dist2 / constant))


def _pairwise_sq_dists(v: np.ndarray) -> np.ndarray:
    sq = np.einsum("ij,ij->i", v, v)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (v @ v.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _knn_membership(d2: np.ndarray, k: int) -> np.ndarray:
    # member[i, j] = 1 iff i is among the k nearest rows to j,
    # self excluded, distance ties broken toward the lower row index.
    n = d2.shape[0]
    work = d2.copy()
    np.fill_diagonal(work, np.inf)
    kth = np.partition(work, k - 1, axis=0)[k - 1, :]
    member = work < kth[None, :]
    for j in np.nonzero(member.sum(axis=0) < k)[0]:
        ties = np.nonzero(work[:, j] == kth[j])[0]
        need = k - int(member[:, j].sum())
        member[ties[:need], j] = True
    return member


def knn_indicator(F, k: int) -> np.ndarray:
    """Symmetric binary matrix with S_ij = 1 iff i in kNN(j) or j in kNN(i).

    Euclidean distance over rows; the diagonal is always 0.

    Raises:
        DegenerateK: k >= number of rows.
    """
    v = _values(F)
    n = v.shape[0]
    if k >= n:
        raise DegenerateK(f"k={k} with only {n} rows")
    member = _knn_membership(_pairwise_sq_dists(v), k)
    return (member | member.T).astype(np.int8)


def _discounted_terms(v: np.ndarray, cfg: UtilityConfig) -> np.ndarray:
    rows = sample_indices(v.shape[0], cfg.max_rows, cfg.row_seed)
    v = v[rows]
    n = v.shape[0]
    if cfg.k_neighbors >= n:
        raise DegenerateK(f"k={cfg.k_neighbors} with only {n} subsampled rows")
    d2 = _pairwise_sq_dists(v)
    member = _knn_membership(d2, cfg.k_neighbors)
    pair_i, pair_j = np.nonzero(member | member.T)     # ordered pairs, both directions
    weights = np.exp(-d2[pair_i, pair_j] / cfg.constant)
    diffs = v[pair_i, :] - v[pair_j, :]
    cumulative = np.einsum("pq,p->q", diffs * diffs, weights)
    variance = v.var(axis=0)
    guarded = variance >= cfg.var_epsilon
    terms = np.ones(v.shape[1])
    terms[guarded] = 1.0 - cumulative[guarded] / variance[guarded]
    return terms


def feature_importance(F, cfg: UtilityConfig = UtilityConfig()) -> np.ndarray:
    """Per-feature discounted consistency scores; their mean is the set utility.

    Zero-variance columns score exactly 1 (a constant feature trivially keeps
    neighbor pairs consistent).
    """
    return _discounted_terms(_values(F), cfg)


def mdcg(F, cfg: UtilityConfig = UtilityConfig()) -> float:
    """Mean discounted cumulative gain of a feature set (may be negative).

    Rows beyond ``cfg.max_rows`` are dropped by a seeded subsample before the
    pairwise computation.
    """
    return float(feature_importance(F, cfg).mean())


def redundancy_utility(F) -> float:
    """1 minus the mean absolute pairwise correlation between features.

    Constant columns correlate 0 with everything. A single-feature set has no
    pairs; it scores 1 with a warning.
    """
    v = _values(F)
    m = v.shape[1]
    if m == 1:
        warnings.warn("redundancy utility of a single feature is trivially 1",
                      stacklevel=2)
        return 1.0
    centered = v - v.mean(axis=0)
    sd = v.std(axis=0)
    safe = np.where(sd > 0.0, sd, 1.0)
    corr = (centered.T @ centered) / v.shape[0] / np.outer(safe, safe)
    corr[sd == 0.0, :] = 0.0
    corr[:, sd == 0.0] = 0.0
    iu = np.triu_indices(m, k=1)
    total = np.abs(corr[iu]).sum()
    return float(1.0 - total * 2.0 / (m * (m - 1)))
