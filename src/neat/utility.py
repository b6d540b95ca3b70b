"""Unsupervised feature-set utility: the mean discounted cumulative gain metric,
a redundancy baseline, and per-feature importance scores.

The metric rewards feature sets whose near-neighbor instance pairs stay
consistent per feature, discounting by feature variance. It needs no labels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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
    "DistanceCache",
    "redundancy_utility",
]


DISCOUNT_SCALE = 2.0   # a pair at squared distance d2 weighs exp(-d2 / DISCOUNT_SCALE)
VAR_EPSILON = 1e-12    # columns with a smaller variance score exactly 1


@dataclass(frozen=True)
class UtilityConfig:
    """Settings of the utility metric.

    ``k_neighbors`` is the neighbourhood size; ``max_rows`` caps the O(n^2)
    pairwise work via a seeded row subsample; ``row_seed`` fixes that
    subsample so the metric is a pure function. The pair discount
    (``DISCOUNT_SCALE``) and the variance floor (``VAR_EPSILON``) are module
    constants. Squared distances are summed per column in column order, so
    results with and without a ``DistanceCache`` are bit-identical.
    """

    k_neighbors: int = 5
    max_rows: int = 1000
    row_seed: int = 0


def _values(F) -> np.ndarray:
    v = F.values if isinstance(F, FeatureMatrix) else np.asarray(F, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got shape {v.shape}")
    return v


def pair_gain(F, i: int, j: int, q: int, constant: float = DISCOUNT_SCALE) -> float:
    """Discounted gain of feature q between rows i and j.

    (F_iq - F_jq)^2 * exp(-||F_i - F_j||^2 / constant); lower means the pair
    stays more consistent on that feature.
    """
    v = _values(F)
    diff = v[i, q] - v[j, q]
    dist2 = float(np.sum((v[i, :] - v[j, :]) ** 2))
    return float(diff * diff * np.exp(-dist2 / constant))


# Rows of d2 updated per pass in _add_sq_dists, so the (block, n) temporary
# stays in cache; it does not change the result.
_ROW_BLOCK = 64


def _add_sq_dists(d2: np.ndarray, columns: np.ndarray) -> None:
    # d2 += (c_i - c_j)^2 for each column c, in column order. Every entry is
    # summed in the same order as its transpose partner, so d2 stays exactly
    # symmetric, and a set grown column by column gets the same bits as one
    # summed at once.
    n = d2.shape[0]
    columns = np.ascontiguousarray(columns.T)
    diff = np.empty((min(n, _ROW_BLOCK), n))
    for start in range(0, n, _ROW_BLOCK):
        block = d2[start:start + _ROW_BLOCK]
        tmp = diff[:len(block)]
        for c in columns:
            np.subtract(c[start:start + _ROW_BLOCK, None], c[None, :], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            block += tmp


def _pairwise_sq_dists(v: np.ndarray) -> np.ndarray:
    # Squared Euclidean distances between rows; +inf on the diagonal, so a
    # row is never its own neighbor.
    n = v.shape[0]
    d2 = np.zeros((n, n))
    np.fill_diagonal(d2, np.inf)
    _add_sq_dists(d2, v)
    return d2


def _knn_membership(d2: np.ndarray, k: int) -> np.ndarray:
    # near[j, i] = 1 iff i is among the k nearest rows to j, self excluded,
    # distance ties broken toward the lower row index. d2 must be exactly
    # symmetric with +inf on its diagonal, so each row holds one query's
    # distances and can be partitioned in place of its column.
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
    near = d2 <= kth[:, None]
    np.fill_diagonal(near, False)      # matters only when the k-th distance is inf
    counts = np.count_nonzero(near, axis=1)
    for j in np.nonzero(counts > k)[0]:
        ties = np.nonzero(near[j] & (d2[j] == kth[j]))[0]
        near[j, ties[k - counts[j] + len(ties):]] = False
    return near


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
    near = _knn_membership(_pairwise_sq_dists(v), k)
    return (near | near.T).astype(np.int8)


class DistanceCache:
    """Row subsample and pairwise squared distances of the last set scored.

    A set that grows by appended columns pays only for the new columns: when
    the cached subsampled columns are a prefix of the new set's, their
    distances are extended; otherwise they are rebuilt. Results are
    bit-identical with and without a cache. Holds one d^2 matrix of
    ``min(n, max_rows)``^2 floats, so give it the lifetime of one growing set.
    """

    def __init__(self):
        self.key: tuple[int, int, int] | None = None   # (n, max_rows, row_seed)
        self.rows: np.ndarray | None = None
        self.columns: np.ndarray | None = None         # subsampled columns in d2
        self.d2: np.ndarray | None = None

    def distances(self, v: np.ndarray, cfg: UtilityConfig
                  ) -> tuple[np.ndarray, np.ndarray]:
        """The row subsample of ``v`` and its pairwise squared distances."""
        key = (v.shape[0], cfg.max_rows, cfg.row_seed)
        if key != self.key:
            self.key, self.rows, self.columns = key, sample_indices(*key), None
        sub = v[self.rows]
        cached = 0 if self.columns is None else self.columns.shape[1]
        if cached and cached <= sub.shape[1] and np.array_equal(
                self.columns, sub[:, :cached]):
            _add_sq_dists(self.d2, sub[:, cached:])
        else:
            self.d2 = None                              # free it before rebuilding
            self.d2 = _pairwise_sq_dists(sub)
        self.columns = sub
        return sub, self.d2

    def copy(self) -> "DistanceCache":
        """An independent cache that starts from this one's set: d^2 is
        copied, since appending columns updates it in place."""
        other = DistanceCache()
        other.key, other.rows, other.columns = self.key, self.rows, self.columns
        other.d2 = None if self.d2 is None else self.d2.copy()
        return other


def _discounted_terms(v: np.ndarray, cfg: UtilityConfig,
                      cache: DistanceCache | None) -> np.ndarray:
    if cache is None:
        cache = DistanceCache()
    v, d2 = cache.distances(v, cfg)
    n = v.shape[0]
    if cfg.k_neighbors >= n:
        raise DegenerateK(f"k={cfg.k_neighbors} with only {n} subsampled rows")
    near = _knn_membership(d2, cfg.k_neighbors)
    # Ordered pairs, both directions, in row-major order (np.nonzero's order;
    # the flat form is several times faster on an (n, n) mask).
    pair_i, pair_j = np.divmod(np.flatnonzero(near | near.T), n)
    weights = np.exp(-d2[pair_i, pair_j] / DISCOUNT_SCALE)
    diffs = v[pair_i, :] - v[pair_j, :]
    cumulative = np.einsum("pq,p->q", diffs * diffs, weights)
    variance = v.var(axis=0)
    guarded = variance >= VAR_EPSILON
    terms = np.ones(v.shape[1])
    terms[guarded] = 1.0 - cumulative[guarded] / variance[guarded]
    return terms


def feature_importance(F, cfg: UtilityConfig = UtilityConfig(),
                       cache: DistanceCache | None = None) -> np.ndarray:
    """Per-feature discounted consistency scores; their mean is the set utility.

    Zero-variance columns score exactly 1 (a constant feature trivially keeps
    neighbor pairs consistent). ``cache`` is as for ``mdcg``.
    """
    return _discounted_terms(_values(F), cfg, cache)


def mdcg(F, cfg: UtilityConfig = UtilityConfig(),
         cache: DistanceCache | None = None) -> float:
    """Mean discounted cumulative gain of a feature set (may be negative).

    Rows beyond ``cfg.max_rows`` are dropped by a seeded subsample before the
    pairwise computation. Squared distances are summed column by column in
    column order. Pass the same ``cache`` while a set grows by appended
    columns to pay only for the new columns; the result is bit-identical to a
    call without one.
    """
    return float(feature_importance(F, cfg, cache).mean())


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
