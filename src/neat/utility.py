"""Unsupervised feature-set utility: the mean discounted cumulative gain
metric (``mdcg``), its per-feature terms (``feature_importance``), and a
``DistanceCache``, the scored state of one set, which finds each row's
nearest rows and lets a set grown by appended columns pay only for the new
ones.

The metric needs no labels. It rewards a feature set whose columns agree with
the neighbourhoods that the whole set defines. On the seeded subsample of n
rows (at most ``max_rows``):

1. Each column is replaced by its ranks, r / (n - 1) - 0.5 for r in
   0..n - 1, tied values sharing the mean of their ranks. Scaled columns lie
   in [-0.5, 0.5], so no column rules the distances by its units or its
   extremes (crosses reach +-1e150), and a column is scaled on its own, so
   appending one leaves every earlier column and distance as it was. Ranks,
   not ``arcsinh``: a +-1e150 column still spans ~700 after ``arcsinh``.
2. A scaled column equal to a kept one is dropped. That covers a bitwise
   duplicate and any order-keeping re-encoding (``2x + 1``, ``exp(x)``):
   they carry nothing new, and kept they would count one column twice.
   This is the utility's duplicate rule, decided on what it reads, and the
   only one a collected set answers to: ``DistanceCache.add`` codes a
   column once, keeps it only if it passes, and says whether it did, and
   ``collect`` refuses a cross whose column was not kept, so a recorded
   set's added columns each earn a term. A set's own array drops nothing;
   the graph encoder decides its nodes by its own reading
   (``encoder.materialize_graphs``).
3. Row j's k nearest other rows, by the squared distance d^2 over the kept
   columns, are ordered by (d^2, row index). The neighbour of rank
   r = 1..k weighs 1 / log2(1 + r), normalised to sum to 1: the discount of
   nDCG (Jarvelin & Kekalainen, "Cumulated gain-based evaluation of IR
   techniques", ACM TOIS 2002). Nearer neighbours count more, and a row's
   weights sum to 1 whatever k is.
4. Column q's discounted squared difference is
   g_q = (1/n) sum_j sum_r w_r (x_jq - x_(i_r(j))q)^2, an average over rows,
   so the score does not grow with n. Its term is 1 - g_q / (2 s_q^2), with
   s_q^2 the column's variance (ddof 1). Two distinct rows drawn at random
   have a squared difference of 2 s_q^2 in expectation, so a column that
   ignores the neighbourhoods scores 0, and one whose neighbours share its
   values scores 1. A constant column scores 0: it tells no rows apart.
5. ``mdcg`` is the mean of the kept columns' terms.

Range: every term is at most 1. A scaled column that is not constant spans
at most 1 and has a variance of at least n / (4 (n - 1)^2), reached by one row
apart from n - 1 tied ones, so every term, and the mean, is at least
1 - 2 (n - 1)^2 / n. Set scores seen in practice lie in [0, 1]: iid N(0,1)
columns score about 0.96 (1000 x 4), 0.85 (1000 x 8) and 0.39 (100 x 32), and
200 rows about 0.1 less than 1000, since their neighbours lie farther apart.

Neighbours are exact. The code works on integer rank codes, 2 r - (n - 1)
for a value of mean rank r: the scaled columns times 2 (n - 1), a common
factor that moves no neighbour and no term. Codes lie in [-(n - 1), n - 1],
so a pair's d^2 over m kept columns is an integer of at most 4 m (n - 1)^2,
and its key n d^2 + j, for row j, is an integer below 4 m n^3. While that is
below 2^53 (``feature_importance`` refuses larger sets), every norm, dot
product, sum and key is a float64 integer, exact in any order of summation,
so results do not depend on the BLAS or its thread count, and a set grown
column by column gets the bits of the same set scored at once. A block of
keys is one matrix product: row i of the left operand is
[-2 n c_i, 1, n |c_i|^2] and column j of the right one [c_j; n |c_j|^2 + j; 1],
and the absolute values of their m + 2 products sum to at most
4 m n (n - 1)^2 + n - 1 < 4 m n^3, so every partial sum is exact too. Keys are
distinct, and sorting them orders rows by (d^2, row index), so ties at the
k-th distance go to the lower row index; ``neighbours`` splits them into rows
and d^2 in int64.

A ``DistanceCache`` stores the right operand itself, (m + 2, n) in row-major
order: one row of codes per kept column, then n |c_j|^2 + j, then ones. Its
codes are kept nowhere else, a block of keys is the left block times the
operand as it is stored, and appending a column writes a new operand with
one more code row and n c_j^2 added to row m. Beside it the cache keeps
each row's candidate rows and their keys, so a set grown by a column adds
that column's squared differences at the listed rows without deriving them
again, and a row's k nearest are the first k of its sorted keys: one sort
of a list width, not a partition and a sort.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateK
from .tabular import sample_indices

__all__ = [
    "UtilityConfig",
    "mdcg",
    "feature_importance",
    "DistanceCache",
]


@dataclass(frozen=True)
class UtilityConfig:
    """Settings of the utility metric (defined in the module docstring).

    ``k_neighbors`` is the number of ranked neighbours per row; ``max_rows``
    caps the pairwise work via a seeded row subsample, on which the columns
    are also rank-scaled; ``row_seed`` fixes that subsample so the metric is
    a pure function. Results with and without a ``DistanceCache``, built
    for the whole set or grown to it by ``add``, are bit-identical.
    """

    k_neighbors: int = 5
    max_rows: int = 1000
    row_seed: int = 0


def _rank_codes(columns: np.ndarray) -> np.ndarray:
    # Each value's code 2 r - (n - 1), with r its mean rank among its
    # column's values (ties share it): integers in [-(n - 1), n - 1].
    n = len(columns)
    codes = np.empty(columns.shape)
    for out, column in zip(codes.T, columns.T):
        order = np.argsort(column, kind="stable")
        ordered = column[order]
        edges = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1], [True]]))
        out[order] = np.repeat(edges[:-1] + edges[1:] - n, np.diff(edges))
    return codes


def _spread(codes: np.ndarray) -> np.ndarray:
    # Each code row's 2 s^2, exact: see ``DistanceCache``.
    squares = np.einsum("ij,ij->i", codes, codes)
    return 2.0 * (squares / (codes.shape[1] - 1))


def _appended(operand: np.ndarray, codes: np.ndarray) -> np.ndarray:
    # A new operand: ``operand``'s code rows, then ``codes`` (rows of n
    # codes), then row m, n |c_j|^2 + j grown by the new rows' n c_j^2, and
    # the ones. ``operand`` is not written, so copies of a cache share it.
    m, n = len(operand) - 2, operand.shape[1]
    out = np.empty((m + len(codes) + 2, n))
    out[:m] = operand[:m]
    out[m:-2] = codes
    squares = np.einsum("ij,ij->j", codes, codes)
    squares *= n
    np.add(operand[m], squares, out=out[-2])
    out[-1] = 1.0
    return out


# Candidate rows kept per subsampled row by a DistanceCache: the nearest
# min(n - 1, max(LIST_LEN, k)) of the n - 1 other rows, for every set. When
# n - 1 <= LIST_LEN, that is every other row. Keys are exact, so the width
# changes no result.
LIST_LEN = 32

# Rows ranked per product, so the (block, n) work array stays small; it does
# not change the result. At n = 1000 and K = m + 2 = 14-26 under 2 OpenBLAS
# threads (2-vCPU Intel Xeon), a 32-row product, left block @ operand, takes
# 25-37 us (median) and its partition 74-80 us; a 64-row product takes
# 47-81 us and its partition 152-160 us. Whole ranks of 150 and 1000 rows
# took 0.70 and 4.7 ms in 32-row blocks, 0.99 and 5.4 ms in 64-row ones, and
# 64-row blocks made collect-tall's stage_s 6% slower (10 of 10 pairs).
_ROW_BLOCK = 32


class DistanceCache:
    """The scored state of one feature set: its row subsample ``rows``, its
    ``operand``, the (m + 2, n) right operand of its key products (rows
    0..m - 1 the m kept code columns, row m n |c_j|^2 + j, row m + 1 ones;
    module docstring), the kept columns' 2 s^2 ``spread``, the bytes of each
    code column ``seen``, and each subsampled row's candidate list: ``keys``,
    n d^2 + j of each listed row j, ``listed``, those rows j, and
    ``outside``, the smallest key of any row not listed.

    ``DistanceCache(F, cfg)`` codes ``F``'s columns on the utility's row
    subsample and keeps the distinct ones; ``add`` appends one more column,
    coded once. That is the only way a set changes: a cache is built for one
    row count and ``UtilityConfig`` (``built_for``), and ``mdcg`` and
    ``feature_importance`` refuse it for any other. ``copy`` starts another
    set from this one.

    A list holds its row's min(n - 1, max(``LIST_LEN``, k)) nearest rows
    when it is ranked, for every n; when n - 1 <= ``LIST_LEN`` that is every
    other row, with ``outside`` +inf. Keys are distinct, so a row's k
    smallest listed keys are its k nearest rows while the k-th is below
    ``outside``; a row whose k-th key exceeds it is ranked again from all
    its keys. ``neighbours`` reads them from one sort of each row's keys.

    A column that ``add`` keeps adds n (c_j - c_i)^2 to the keys (n x list
    length work), gathered at the rows in ``listed``. Adding n d^2 leaves a
    key's row j as it was, so ``listed`` is written only when a row is
    ranked. Keys only grow, so ``outside`` stays a lower bound. The keys
    take about 0.3 MB at 1000 rows. Rows are ranked ``_ROW_BLOCK`` at a
    time, each block's keys one product of its left rows, sliced from the
    operand, and the operand as it is stored, written into one
    (``_ROW_BLOCK``, n) work array per ranking, so no (n, n) array exists
    and nothing of the operand is rebuilt per ranking. Row m is an integer
    below 4 m n^3, exact while ``feature_importance`` accepts the set.

    ``spread`` holds each kept column's 2 s^2 = 2 sum(c^2) / (n - 1), computed
    once when the column is kept: a column's codes are integers that sum to
    0, so its mean is exactly 0 and its sum of squares exact, and this is
    ``2 * var(ddof=1)`` bit for bit.
    """

    def __init__(self, F: np.ndarray, cfg: UtilityConfig):
        self.built_for = (F.shape[0], cfg)
        self.rows = sample_indices(F.shape[0], cfg.max_rows, cfg.row_seed)
        # Codes are float64 integers, never -0.0 or NaN, so equal bytes are
        # equal values; the first of equal columns is kept.
        n = len(self.rows)
        distinct = {column.tobytes(): column for column in _rank_codes(F[self.rows]).T}
        codes = np.array(list(distinct.values())).reshape(-1, n)
        self.seen = frozenset(distinct)             # the bytes of each code column
        # (m + 2, n): code rows, n |c_j|^2 + j, ones; no code rows is [j; 1]
        self.operand = _appended(np.stack([np.arange(n, dtype=float), np.ones(n)]), codes)
        self.spread = _spread(codes)                # (kept,) 2 s^2 of each code column
        self.keys: np.ndarray | None = None      # (n, width) n d2 + j of listed rows j
        self.listed: np.ndarray | None = None    # (n, width) intp: those rows j
        self.outside: np.ndarray | None = None   # (n,) smallest key of the rest

    def add(self, column: np.ndarray) -> bool:
        """Append ``column``, a column of the table's rows, unless its rank
        codes on the row subsample equal a kept column's: then it would earn
        no term and leave the score as it is. Returns whether it was kept;
        a column that is not kept leaves the cache as it was."""
        codes = _rank_codes(column[self.rows, None]).T
        key = codes.tobytes()
        if key in self.seen:
            return False
        self.seen = self.seen | {key}
        self.operand = _appended(self.operand, codes)
        self.spread = np.concatenate([self.spread, _spread(codes)])
        if self.keys is not None:
            c = codes[0]
            diff = c.take(self.listed)
            diff -= c[:, None]
            diff *= diff
            diff *= len(c)
            self.keys += diff
        return True

    def neighbours(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Each row's k nearest rows, ordered by (d^2, row index), for the
        cache's set: (n, k) integer arrays of rows and their d^2 over the
        codes. Ties at the k-th distance go to the lower row index."""
        n = self.operand.shape[1]
        width = min(n - 1, max(LIST_LEN, k))
        if self.keys is None or self.keys.shape[1] < width:
            self.keys, self.outside = np.empty((n, width)), np.empty(n)
            self.listed = np.empty((n, width), dtype=np.intp)
            self._rank(np.arange(n))
        near = np.sort(self.keys, axis=1)[:, :k]
        stale = np.flatnonzero(near[:, k - 1] > self.outside)
        if len(stale):
            self._rank(stale)
            near[stale] = np.sort(self.keys[stale], axis=1)[:, :k]
        d2, index = np.divmod(near.astype(np.int64), n)
        return index.astype(np.intp, copy=False), d2

    def _rank(self, rows: np.ndarray) -> None:
        # Relist ``rows``: the keys of each row's nearest rows and those rows,
        # and the next smallest key as ``outside``. A row's own key is +inf,
        # so a list of every other row gets +inf.
        # Left row i is [-2n c_i, 1, n |c_i|^2], read off the operand (row m
        # at i, minus i), and operand column j is [c_j; n |c_j|^2 + j; 1], so
        # one row-major product per block, left block @ operand, gives the
        # keys n d^2 + j, written into one work array for the whole call.
        # Every product and partial sum is an integer of magnitude below
        # 4 m n^3 < 2^53, so it is exact in any order.
        n, width = self.keys.shape
        operand = self.operand
        m = len(operand) - 2
        left = np.empty((len(rows), m + 2))
        np.multiply(operand[:m, rows].T, -2.0 * n, out=left[:, :m])
        left[:, m] = 1.0
        np.subtract(operand[m, rows], rows, out=left[:, m + 1])
        work = np.empty((min(len(rows), _ROW_BLOCK), n))
        for start in range(0, len(rows), _ROW_BLOCK):
            block = rows[start:start + _ROW_BLOCK]
            keys = work[:len(block)]
            np.matmul(left[start:start + _ROW_BLOCK], operand, out=keys)
            keys[np.arange(len(block)), block] = np.inf
            keys.partition(width, axis=1)
            near = keys[:, :width]
            self.keys[block], self.outside[block] = near, keys[:, width]
            self.listed[block] = near.astype(np.intp) % n

    def copy(self) -> "DistanceCache":
        """An independent cache of the same set: the lists are copied, since
        ``add`` and ranking update them in place. The other fields, the
        operand among them, are replaced, never written (``add`` builds a new
        operand with its code row), so the two share them."""
        other = copy.copy(self)
        if self.keys is not None:
            other.keys, other.outside = self.keys.copy(), self.outside.copy()
            other.listed = self.listed.copy()
        return other


def feature_importance(F: np.ndarray, cfg: UtilityConfig = UtilityConfig(),
                       cache: DistanceCache | None = None) -> np.ndarray:
    """The terms of ``F``'s kept columns, in order; their mean is the set
    utility. A column whose rank-scaled values equal an earlier column's has
    no term (see the module docstring). ``cache`` is as for ``mdcg``.

    Raises:
        DegenerateK: ``cfg.k_neighbors`` is below 1, or not below the
            number of subsampled rows.
        ValueError: ``F`` is not 2-D or has no columns, or 4 m n^3 reaches
            2^53 (m columns, n subsampled rows), so keys would not be exact,
            or ``cache`` was built for another row count or config.
    """
    if F.ndim != 2 or F.shape[1] == 0:
        raise ValueError(f"expected a 2-D feature matrix with columns, got shape {F.shape}")
    n = min(F.shape[0], cfg.max_rows)
    k = cfg.k_neighbors
    if not 1 <= k < n:
        raise DegenerateK(f"k={k}: need 1 <= k < {n}, the subsampled row count")
    if 4 * F.shape[1] * n ** 3 >= 2 ** 53:
        raise ValueError(f"{F.shape[1]} columns of {n} rows: need 4 m n^3 < 2^53")
    if cache is None:
        cache = DistanceCache(F, cfg)
    elif cache.built_for != (F.shape[0], cfg):
        raise ValueError(f"a cache built for {cache.built_for}, "
                         f"not for {F.shape[0]} rows under {cfg}")
    codes = cache.operand[:-2]
    index, _ = cache.neighbours(k)
    discount = 1.0 / np.log2(np.arange(2.0, k + 2.0))
    discount /= discount.sum()
    gain = np.zeros(len(codes))
    for rank in range(k):
        diffs = codes.take(index[:, rank], axis=1)
        diffs -= codes
        np.square(diffs, out=diffs)
        gain += discount[rank] * diffs.sum(axis=1)
    gain /= n
    spread = cache.spread
    return np.divide(spread - gain, spread, out=np.zeros_like(gain), where=spread > 0.0)


def mdcg(F: np.ndarray, cfg: UtilityConfig = UtilityConfig(),
         cache: DistanceCache | None = None) -> float:
    """Mean discounted cumulative gain of a feature set: the mean of its
    kept columns' terms, at most 1 (the module docstring gives the
    definition and its range). Without ``cache``, one is built for ``F``.
    A ``cache`` passed in is ``F``'s own, built for ``F`` or for its first
    columns and grown to it by ``add``, and is read as it stands: ``F``'s
    values are not read again, so a grown set pays only for its new columns,
    and the result is bit-identical to a call without one.

    Raises:
        DegenerateK, ValueError: as ``feature_importance``, no columns included.
    """
    return float(feature_importance(F, cfg, cache).mean())
