"""Unsupervised feature-set utility: the mean discounted cumulative gain
metric (``mdcg``), its per-feature terms (``feature_importance``), and a
``DistanceCache`` that finds each row's nearest rows and lets a set grown by
appended columns pay only for the new ones.

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

Neighbours are exact. A pair's d^2 is the sum of its per-column squares
``(x_q - y_q)^2`` in column order, so a pair and its mirror get the same bits,
and so do a set grown column by column and the same set scored at once. Ties
at the k-th distance go to the lower row index.

No (n, n) array is built. Each row keeps a list of candidate rows with their
exact d^2 and a lower bound on the d^2 of every other row (``DistanceCache``).
A Gram screen picks the candidates. Small and large sets share this one path
and differ only in list width: a set of at most ``LIST_MIN_ROWS`` rows lists
every other row, so every row passes its screen and the bound is +inf.
For rows x and y of m columns with r_x = |x|^2 and r_y = |y|^2, one matrix
product gives ``approx = r_x + r_y - 2 x.y``, and

    |approx - d^2| <= delta = 4 (m + 2) eps (r_x + r_y),

with eps the float64 machine epsilon and d^2 the exact, column-order sum.
Derivation, with unit roundoff u = eps / 2: the norms, summed in any order,
are within m u r of r each; a dot product, in any order and with or without
fused multiply-adds, is within m u sum|x_q y_q| <= m u (r_x + r_y) / 2 of x.y;
the last add and subtract round twice on values below 2 (r_x + r_y). So
approx is within (2m + 3) u (r_x + r_y) of the true distance. The exact sum
adds m non-negative terms that each round twice (subtract, square) and m - 1
times more as they add up, so it is within (m + 2) u d^2, and
d^2 <= 2 (r_x + r_y). The two together are below (4m + 7) u (r_x + r_y) up to
O(u^2) terms, and delta = 8 (m + 2) u (r_x + r_y) leaves room for those and for
the few roundings of the comparison itself, which moves each row's own terms
to the side of its limit. The screen decides only which pairs get an exact
d^2, never a value that is used, so results do not depend on the BLAS or its
thread count.
"""

from __future__ import annotations

from collections.abc import Iterator
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
    a pure function. Results with and without a ``DistanceCache``, cold or
    grown, are bit-identical.
    """

    k_neighbors: int = 5
    max_rows: int = 1000
    row_seed: int = 0


def _rank_scale(columns: np.ndarray) -> np.ndarray:
    # Each column's ranks r / (n - 1) - 0.5, ties sharing their mean rank.
    n = len(columns)
    scaled = np.empty(columns.shape)
    for out, column in zip(scaled.T, columns.T):
        order = np.argsort(column, kind="stable")
        ordered = column[order]
        edges = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1], [True]]))
        out[order] = np.repeat((edges[:-1] + edges[1:] - 1) / 2.0, np.diff(edges))
    scaled /= n - 1
    scaled -= 0.5
    return scaled


def _append_distinct(kept: np.ndarray, new: np.ndarray) -> np.ndarray:
    # ``kept`` with each column of ``new`` appended that equals none before it.
    for column in new.T:
        if not (kept == column[:, None]).all(axis=0).any():
            kept = np.column_stack([kept, column])
    return kept


# Candidate rows kept per subsampled row by a DistanceCache (more when k is
# larger). Sets of at most LIST_MIN_ROWS rows keep every other row instead.
# Neither changes the result.
LIST_LEN = 32
LIST_MIN_ROWS = 256

# Rows screened per pass, so the (block, n) temporaries stay small; it does
# not change the result.
_ROW_BLOCK = 64


def _add_pair_sq_dists(d2: np.ndarray, columns: np.ndarray,
                       i: np.ndarray, j: np.ndarray) -> None:
    # d2 += (c[j] - c[i])^2 for each column c of ``columns`` (one per array
    # row), in column order: the sum that defines every distance here. ``j``
    # has the shape of d2, and ``i`` broadcasts to it.
    for c in columns:
        diff = c.take(j)
        diff -= c.take(i)
        diff *= diff
        d2 += diff


def _nearest(dist: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    # Mask of each row's k smallest entries, ties at the k-th value going to
    # the lowest slots, and that k-th value. NaN entries are never picked.
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
    near = dist <= kth[:, None]
    if np.count_nonzero(near) > k * len(near):   # some row has a tie at its k-th
        over = np.flatnonzero(np.count_nonzero(near, axis=1) > k)
        d, bound = dist[over], kth[over, None]
        tied = d == bound
        room = k - np.count_nonzero(d < bound, axis=1)
        near[over] = (d < bound) | (tied & (np.cumsum(tied, axis=1) <= room[:, None]))
    return near, kth


class DistanceCache:
    """Row subsample of the last set scored, its kept rank-scaled columns,
    and each subsampled row's candidate list: rows with their exact d^2, and
    ``outside``, a lower bound on the d^2 of every row not in the list.

    A list holds its row's ``LIST_LEN`` nearest rows (``k`` if larger) when
    it is built, and ``outside`` is the next smallest d^2. Sets of at most
    ``LIST_MIN_ROWS`` rows take the same path with lists of every other row:
    every row passes their screen, and ``outside`` is +inf.
    ``neighbours`` gives each row's k nearest rows in rank order.
    A row's k nearest rows, ties included, all lie in its list while the
    list's k-th d^2 is below ``outside``. A row whose k-th d^2 reaches it
    rebuilds its list by the Gram screen (see the module docstring). If the
    k-th d^2 still equals the bound, a tie runs past the list, and the row
    takes the exact d^2 of every row the screen cannot place beyond it.

    The bound relies on an append-only contract: when the cached raw
    columns are a prefix of the next set's, only the new columns are scaled,
    and the squares of those kept are added to the list values (n x list
    length work). Each column is scaled on its own, so the kept columns only
    grow, and adding non-negative squares never lowers a d^2, in floats too,
    so ``outside`` stays a lower bound. Any other set, or another row count
    or subsample, drops the lists.

    Holds the subsampled raw and scaled columns and two (n, ``LIST_LEN``)
    arrays of lists and values, about 0.4 MB at 1000 rows; (n, n - 1) ones
    for the small sets. The screen works ``_ROW_BLOCK`` rows at a time, so no (n, n)
    temporary exists either.
    """

    def __init__(self):
        self.key: tuple[int, int, int] | None = None   # (n, max_rows, row_seed)
        self.rows: np.ndarray | None = None
        self.raw: np.ndarray | None = None       # (n, m): the subsampled set
        self.columns: np.ndarray | None = None   # (n, kept): its distinct scaled columns
        self.lists: np.ndarray | None = None     # (n, width) candidate rows, increasing
        self.values: np.ndarray | None = None    # (n, width) their d2
        self.outside: np.ndarray | None = None   # (n,) d2 lower bound beyond each list

    def update(self, F: np.ndarray, cfg: UtilityConfig) -> np.ndarray:
        """Make the row subsample of ``F`` the cache's set and return its
        kept scaled columns. When the cached set is a prefix of it, scale
        only the appended columns and extend the lists by those kept."""
        key = (F.shape[0], cfg.max_rows, cfg.row_seed)
        if key != self.key:
            self.key, self.rows, self.raw = key, sample_indices(*key), None
        sub = F[self.rows]
        cached = 0 if self.raw is None else self.raw.shape[1]
        if not (cached and cached <= sub.shape[1]
                and np.array_equal(self.raw, sub[:, :cached])):
            cached, self.columns = 0, np.empty((len(sub), 0))
            self.lists = self.values = self.outside = None
        kept = self.columns.shape[1]
        self.raw = sub
        self.columns = _append_distinct(self.columns, _rank_scale(sub[:, cached:]))
        if self.lists is not None:
            _add_pair_sq_dists(self.values, self.columns[:, kept:].T,
                               np.arange(len(self.lists))[:, None], self.lists)
        return self.columns

    def neighbours(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Each row's k nearest rows, ordered by (d^2, row index), for the
        set last passed to ``update``: (n, k) arrays of rows and their d^2.
        Ties at the k-th distance go to the lower row index."""
        n = len(self.columns)
        fresh = self._build(k)
        near, kth = _nearest(self.values, k)
        ties = np.flatnonzero(kth >= self.outside)
        if len(ties) and not fresh:        # stale lists: rebuild them first
            self._refresh(ties)
            near[ties], kth[ties] = _nearest(self.values[ties], k)
            ties = ties[kth[ties] >= self.outside[ties]]
        near[ties] = False                 # a tie at the list's bound
        listed = np.ones(n, dtype=bool)
        listed[ties] = False
        index, d2 = np.empty((n, k), dtype=np.intp), np.empty((n, k))
        index[listed] = self.lists[near].reshape(-1, k)
        d2[listed] = self.values[near].reshape(-1, k)
        for block, rows, dist in self._screen(ties, kth[ties]):
            mask = _nearest(dist, k)[0]
            index[block], d2[block] = rows[mask].reshape(-1, k), dist[mask].reshape(-1, k)
        # Each row's k arrive in increasing row order, so a stable sort on
        # d^2 ranks them by (d^2, row index).
        order = np.argsort(d2, axis=1, kind="stable")
        return np.take_along_axis(index, order, axis=1), np.take_along_axis(d2, order, axis=1)

    def _build(self, k: int) -> bool:
        # Build every list, when there are none or they are too short for k.
        n = len(self.columns)
        width = n - 1 if n <= LIST_MIN_ROWS else min(n - 1, max(LIST_LEN, k))
        if self.lists is not None and self.lists.shape[1] >= width:
            return False
        self.lists = np.empty((n, width), dtype=np.int32)
        self.values = np.empty((n, width))
        self.outside = np.empty(n)
        self._refresh(np.arange(n))
        return True

    def _refresh(self, rows: np.ndarray) -> None:
        # Rebuild the lists of ``rows``: each row's nearest rows in
        # increasing row order with their d2, and the next smallest d2 as the
        # row's bound.
        n, width = self.lists.shape
        for block, index, dist in self._screen(rows, None):
            if width == n - 1:             # every other row passes the screen
                self.lists[block], self.values[block] = index, dist
                self.outside[block] = np.inf
                continue
            part = np.argpartition(dist, width, axis=1)   # NaN padding sorts last
            slots = np.sort(part[:, :width], axis=1)     # slots run in row order
            self.lists[block] = np.take_along_axis(index, slots, axis=1)
            self.values[block] = np.take_along_axis(dist, slots, axis=1)
            self.outside[block] = np.take_along_axis(dist, part[:, width:width + 1], axis=1)[:, 0]

    def _screen(self, rows: np.ndarray, limits: np.ndarray | None
                ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        # For each block of ``rows``: every row that the Gram screen cannot
        # place beyond the row's limit, or with ``limits`` None beyond its
        # (width + 1)-th nearest, as (block, index, d2). ``index`` and ``d2``
        # hold one row of the block each, in increasing row order, padded
        # with NaN d2.
        if not len(rows):
            return
        columns = self.columns.T
        m, n = columns.shape
        width = self.lists.shape[1]
        c = 4 * (m + 2) * np.finfo(float).eps        # delta = c (r_x + r_y)
        norms = np.einsum("qi,qi->i", columns, columns)
        up, down = (1.0 + c) * norms, 2.0 * c * norms
        for start in range(0, len(rows), _ROW_BLOCK):
            block = rows[start:start + _ROW_BLOCK]
            here = np.arange(len(block))
            own = norms[block]
            # s + (1 + c) r_x = approx + delta; s - down + (1 - c) r_x =
            # approx - delta. The row's own terms join its limit instead.
            s = (-2.0 * columns[:, block]).T @ columns
            s += up
            if limits is None:
                s[here, block] = np.inf
                limit = np.partition(s, width, axis=1)[:, width] + 2.0 * c * own
            else:
                limit = limits[start:start + _ROW_BLOCK] - (1.0 - c) * own
            s -= down
            candidate = s <= limit[:, None]
            candidate[here, block] = False
            cand_rows, cand_cols = np.divmod(np.flatnonzero(candidate), n)
            counts = np.bincount(cand_rows, minlength=len(block))
            slots = np.arange(len(cand_rows)) - np.repeat(np.cumsum(counts) - counts, counts)
            index = np.zeros((len(block), counts.max()), dtype=np.intp)
            dist = np.full(index.shape, np.nan)
            index[cand_rows, slots] = cand_cols
            exact = np.zeros(len(cand_rows))
            _add_pair_sq_dists(exact, columns, block[cand_rows], cand_cols)
            dist[cand_rows, slots] = exact
            yield block, index, dist

    def copy(self) -> "DistanceCache":
        """An independent cache that starts from this one's set: the lists
        are copied, since appending columns updates them in place."""
        other = DistanceCache()
        other.key, other.rows, other.raw, other.columns = (
            self.key, self.rows, self.raw, self.columns)
        for name in ("lists", "values", "outside"):
            value = getattr(self, name)
            setattr(other, name, None if value is None else value.copy())
        return other


def feature_importance(F: np.ndarray, cfg: UtilityConfig = UtilityConfig(),
                       cache: DistanceCache | None = None) -> np.ndarray:
    """The terms of ``F``'s kept columns, in order; their mean is the set
    utility. A column whose rank-scaled values equal an earlier column's has
    no term (see the module docstring). ``cache`` is as for ``mdcg``.

    Raises:
        DegenerateK: ``cfg.k_neighbors`` is below 1, or not below the
            number of subsampled rows.
    """
    if F.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got shape {F.shape}")
    n = min(F.shape[0], cfg.max_rows)
    k = cfg.k_neighbors
    if not 1 <= k < n:
        raise DegenerateK(f"k={k}: need 1 <= k < {n}, the subsampled row count")
    if cache is None:
        cache = DistanceCache()
    v = cache.update(F, cfg)
    index, _ = cache.neighbours(k)
    discount = 1.0 / np.log2(np.arange(2.0, k + 2.0))
    discount /= discount.sum()
    gain = np.zeros(v.shape[1])
    for rank in range(k):
        diffs = v[index[:, rank]]
        diffs -= v
        np.square(diffs, out=diffs)
        gain += discount[rank] * diffs.sum(axis=0)
    gain /= n
    spread = 2.0 * v.var(axis=0, ddof=1)
    return np.divide(spread - gain, spread, out=np.zeros_like(gain), where=spread > 0.0)


def mdcg(F: np.ndarray, cfg: UtilityConfig = UtilityConfig(),
         cache: DistanceCache | None = None) -> float:
    """Mean discounted cumulative gain of a feature set: the mean of its
    kept columns' terms, at most 1 (the module docstring gives the
    definition and its range). Pass the same ``cache`` while a set grows by
    appended columns to pay only for the new columns; the result is
    bit-identical to a call without one.
    """
    return float(feature_importance(F, cfg, cache).mean())
