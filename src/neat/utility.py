"""Unsupervised feature-set utility: the mean discounted cumulative gain
metric (``mdcg``), its per-feature terms (``feature_importance``), a
``DistanceCache`` that lets a set grown by appended columns pay only for the
new ones, and a redundancy baseline (``redundancy_utility``) that no stage
calls yet (ROADMAP item 2).

The metric rewards feature sets whose near-neighbor instance pairs stay
consistent per feature, discounting by feature variance. It needs no labels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateK
from .tabular import sample_indices

__all__ = [
    "UtilityConfig",
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
    constants. Squared distances are summed per column in column order;
    neighbours are the same sets whether found from whole d^2 rows or from a
    cache's candidate lists (ties at the k-th distance go to the lower row
    index either way); and neighbour pairs are summed in row-major order. So
    results with and without a ``DistanceCache`` are bit-identical.
    """

    k_neighbors: int = 5
    max_rows: int = 1000
    row_seed: int = 0


def _values(v: np.ndarray) -> np.ndarray:
    if v.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got shape {v.shape}")
    return v


# Candidate rows kept per subsampled row by a DistanceCache, and the row
# count above which re-ranking those lists beats re-partitioning whole rows.
# Neither changes the result.
LIST_LEN = 32
LIST_MIN_ROWS = 256

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


def _knn_membership(d2: np.ndarray, k: int,
                    rows: np.ndarray | None = None) -> np.ndarray:
    # Row-major codes j * n + i of the pairs with i among the k nearest rows
    # to j, self excluded, distance ties broken toward the lower row index;
    # for every row j, or for ``rows`` only. d2 must be exactly symmetric
    # with +inf on its diagonal, so each row holds one query's distances and
    # can be partitioned in place of its column.
    n = d2.shape[0]
    block = d2 if rows is None else d2[rows]
    kth = np.partition(block, k - 1, axis=1)[:, k - 1]
    near = block <= kth[:, None]
    if rows is None:
        np.fill_diagonal(near, False)  # matters only when the k-th distance is inf
    else:
        near[np.arange(len(rows)), rows] = False
    if np.count_nonzero(near) > k * len(near):  # some row holds a tie at its k-th
        _drop_extra_ties(near, block, kth, k)
    codes = np.flatnonzero(near)
    if rows is not None:
        r, i = np.divmod(codes, n)
        codes = rows[r] * n + i
    return codes


def _drop_extra_ties(near: np.ndarray, dist: np.ndarray, kth: np.ndarray, k: int) -> None:
    # A row of ``near`` with more than k entries has ties at its k-th distance
    # ``kth``: keep the tied entries of the lowest slots, so k remain. Slots
    # are in row order: whole d2 rows, or a cache's sorted candidate lists.
    counts = np.count_nonzero(near, axis=1)
    for r in np.nonzero(counts > k)[0]:
        ties = np.nonzero(near[r] & (dist[r] == kth[r]))[0]
        near[r, ties[k - counts[r] + len(ties):]] = False


def _pair_codes(codes: np.ndarray, n: int) -> np.ndarray:
    # The union of the pairs j * n + i in ``codes`` and their mirrors
    # i * n + j, sorted and deduplicated: the row-major order in which
    # np.flatnonzero lists the symmetric kNN indicator. Sorting and dropping
    # repeats is several times faster than np.unique.
    j, i = np.divmod(codes, n)
    both = np.concatenate([codes, i * n + j])
    both.sort()
    keep = np.empty(len(both), dtype=bool)
    keep[:1] = True
    np.not_equal(both[1:], both[:-1], out=keep[1:])
    return both[keep]


class DistanceCache:
    """Row subsample and pairwise squared distances of the last set scored,
    with a short candidate list of near rows per subsampled row.

    A set that grows by appended columns pays only for the new columns: when
    the cached subsampled columns are a prefix of the new set's, their
    distances are extended; otherwise they are rebuilt. Results are
    bit-identical with and without a cache.

    Growth only adds non-negative squares to d^2, so a distance never falls.
    On the first extended call of a set above ``LIST_MIN_ROWS`` rows, each row
    records its ``LIST_LEN`` nearest rows and ``outside``, the next smallest
    d^2, a lower bound on every row not in its list from then on. A later
    call re-ranks only the list: when its k-th distance is below ``outside``,
    the k nearest rows, ties included, all lie in it. Rows that fail refresh
    their list from their full d^2 row.

    Holds one d^2 matrix of ``min(n, max_rows)``^2 floats (8 MB at 1000
    rows) and the lists (~0.25 MB at 1000 rows), so give it the lifetime of
    one growing set.
    """

    def __init__(self):
        self.key: tuple[int, int, int] | None = None   # (n, max_rows, row_seed)
        self.rows: np.ndarray | None = None
        self.columns: np.ndarray | None = None         # subsampled columns in d2
        self.d2: np.ndarray | None = None
        self.grown = False              # the last call extended d2, not rebuilt it
        self.lists: np.ndarray | None = None           # (rows, LIST_LEN) sorted codes into d2
        self.outside: np.ndarray | None = None         # d2 lower bound beyond each list

    def distances(self, v: np.ndarray, cfg: UtilityConfig
                  ) -> tuple[np.ndarray, np.ndarray]:
        """The row subsample of ``v`` and its pairwise squared distances."""
        key = (v.shape[0], cfg.max_rows, cfg.row_seed)
        if key != self.key:
            self.key, self.rows, self.columns = key, sample_indices(*key), None
        sub = v[self.rows]
        cached = 0 if self.columns is None else self.columns.shape[1]
        self.grown = bool(cached) and cached <= sub.shape[1] and np.array_equal(
            self.columns, sub[:, :cached])
        if self.grown:
            _add_sq_dists(self.d2, sub[:, cached:])
        else:
            self.d2 = self.lists = self.outside = None  # free d2 before rebuilding
            self.d2 = _pairwise_sq_dists(sub)
        self.columns = sub
        return sub, self.d2

    def neighbours(self, k: int) -> np.ndarray:
        """``_knn_membership(d2, k)`` of the last set, from the candidate
        lists when the set was grown and has more than ``LIST_MIN_ROWS``
        rows."""
        n = self.d2.shape[0]
        if not self.grown or n <= LIST_MIN_ROWS or k >= LIST_LEN:
            return _knn_membership(self.d2, k)
        if self.lists is None:
            self.lists = np.empty((n, LIST_LEN), dtype=np.intp)
            self.outside = np.empty(n)
            self._refresh(np.arange(n))
        cand = self.d2.take(self.lists)
        kth = np.partition(cand, k - 1, axis=1)[:, k - 1]
        stale = np.flatnonzero(kth >= self.outside)
        if len(stale):
            self._refresh(stale)
            cand[stale] = self.d2.take(self.lists[stale])
            kth[stale] = np.partition(cand[stale], k - 1, axis=1)[:, k - 1]
        exact = kth < self.outside     # fails only on a tie at the list's bound
        member = (cand <= kth[:, None]) & exact[:, None]
        if np.count_nonzero(member) > k * np.count_nonzero(exact):
            _drop_extra_ties(member, cand, kth, k)
        return np.concatenate([self.lists[member],
                               _knn_membership(self.d2, k, np.flatnonzero(~exact))])

    def _refresh(self, rows: np.ndarray) -> None:
        # Each row's LIST_LEN nearest rows, as codes row * n + i into d2 in
        # increasing i, and the next smallest d2 as the row's bound;
        # _ROW_BLOCK rows at a time, so the temporaries stay small next to d2.
        for start in range(0, len(rows), _ROW_BLOCK):
            chunk = rows[start:start + _ROW_BLOCK]
            block = self.d2[chunk]
            part = np.argpartition(block, LIST_LEN, axis=1)
            self.lists[chunk] = np.sort(part[:, :LIST_LEN], axis=1) + chunk[:, None] * len(self.d2)
            self.outside[chunk] = block[np.arange(len(chunk)), part[:, LIST_LEN]]

    def copy(self) -> "DistanceCache":
        """An independent cache that starts from this one's set: d^2 and the
        lists are copied, since appending columns updates them in place."""
        other = DistanceCache()
        other.key, other.rows, other.columns = self.key, self.rows, self.columns
        for name in ("d2", "lists", "outside"):
            value = getattr(self, name)
            setattr(other, name, None if value is None else value.copy())
        return other


def feature_importance(F: np.ndarray, cfg: UtilityConfig = UtilityConfig(),
                       cache: DistanceCache | None = None) -> np.ndarray:
    """Per-feature discounted consistency scores; their mean is the set utility.

    Zero-variance columns score exactly 1 (a constant feature trivially keeps
    neighbor pairs consistent). ``cache`` is as for ``mdcg``.

    Raises:
        DegenerateK: ``cfg.k_neighbors`` is below 1, or not below the
            number of subsampled rows.
    """
    if cache is None:
        cache = DistanceCache()
    v, d2 = cache.distances(_values(F), cfg)
    n = v.shape[0]
    if not 1 <= cfg.k_neighbors < n:
        raise DegenerateK(f"k={cfg.k_neighbors}: need 1 <= k < {n}, the subsampled row count")
    # Ordered pairs, both directions, in row-major order, so the sums below
    # run in the same order whichever way the neighbours were found.
    codes = _pair_codes(cache.neighbours(cfg.k_neighbors), n)
    pair_i, pair_j = np.divmod(codes, n)
    weights = np.exp(-d2.take(codes) / DISCOUNT_SCALE)
    diffs = v[pair_i, :] - v[pair_j, :]
    cumulative = np.einsum("pq,p->q", diffs * diffs, weights)
    variance = v.var(axis=0)
    guarded = variance >= VAR_EPSILON
    terms = np.ones(v.shape[1])
    terms[guarded] = 1.0 - cumulative[guarded] / variance[guarded]
    return terms


def mdcg(F: np.ndarray, cfg: UtilityConfig = UtilityConfig(),
         cache: DistanceCache | None = None) -> float:
    """Mean discounted cumulative gain of a feature set (may be negative).

    Rows beyond ``cfg.max_rows`` are dropped by a seeded subsample before the
    pairwise computation. Squared distances are summed column by column in
    column order. Pass the same ``cache`` while a set grows by appended
    columns to pay only for the new columns; the result is bit-identical to a
    call without one.
    """
    return float(feature_importance(F, cfg, cache).mean())


def redundancy_utility(F: np.ndarray) -> float:
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
