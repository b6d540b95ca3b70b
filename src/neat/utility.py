"""Unsupervised feature-set utility: the mean discounted cumulative gain
metric (``mdcg``), its per-feature terms (``feature_importance``), a
``DistanceCache`` that finds each row's nearest rows and lets a set grown by
appended columns pay only for the new ones, and a redundancy baseline
(``redundancy_utility``) that no stage calls yet (ROADMAP item 2).

The metric rewards feature sets whose near-neighbor instance pairs stay
consistent per feature, discounting by feature variance. It needs no labels.

Neighbours are exact. A pair's squared distance d^2 is the sum of its
per-column squares ``(x_q - y_q)^2`` in column order, so a pair and its mirror
get the same bits, and so do a set grown column by column and the same set
scored at once. Row j's k nearest rows are the k smallest d^2 over rows
i != j, and ties at the k-th distance go to the lower row index.

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
to the side of its limit. A value that is not finite (squares or products
that overflow) bounds nothing, so that pair is always a candidate. The screen
decides only which pairs get an exact d^2, never a value that is used, so
results do not depend on the BLAS or its thread count.
"""

from __future__ import annotations

import warnings
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
    "redundancy_utility",
]


DISCOUNT_SCALE = 2.0   # a pair at squared distance d2 weighs exp(-d2 / DISCOUNT_SCALE)
VAR_EPSILON = 1e-12    # columns with a smaller variance score exactly 1


@dataclass(frozen=True)
class UtilityConfig:
    """Settings of the utility metric.

    ``k_neighbors`` is the neighbourhood size; ``max_rows`` caps the
    pairwise work via a seeded row subsample; ``row_seed`` fixes that
    subsample so the metric is a pure function. The pair discount
    (``DISCOUNT_SCALE``) and the variance floor (``VAR_EPSILON``) are module
    constants. Squared distances are exact column-order sums; the candidate
    lists and the Gram screen only choose which pairs to sum, never change a
    sum, so the neighbour sets (ties at the k-th distance to the lower row
    index) are the same however the set was reached, and small and large
    sets share one path that differs only in list width. Neighbour pairs are
    summed in row-major order. So results with and without a
    ``DistanceCache``, cold or grown, are bit-identical.
    """

    k_neighbors: int = 5
    max_rows: int = 1000
    row_seed: int = 0


def _values(v: np.ndarray) -> np.ndarray:
    if v.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got shape {v.shape}")
    return v


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
    """Row subsample of the last set scored, and each subsampled row's
    candidate list: rows with their exact d^2, and ``outside``, a lower bound
    on the d^2 of every row not in the list.

    A list holds its row's ``LIST_LEN`` nearest rows (``k`` if larger) when
    it is built, and ``outside`` is the next smallest d^2. Sets of at most
    ``LIST_MIN_ROWS`` rows take the same path with lists of every other row:
    every row passes their screen, and ``outside`` is +inf.
    ``neighbours`` gives each row's own k nearest rows, and ``pairs`` their
    symmetric merge, the pairs that the metric sums.
    A row's k nearest rows, ties included, all lie in its list while the
    list's k-th d^2 is below ``outside``. A row whose k-th d^2 reaches it
    rebuilds its list by the Gram screen (see the module docstring). If the
    k-th d^2 still equals the bound, a tie runs past the list, and the row
    takes the exact d^2 of every row the screen cannot place beyond it.

    The bound relies on an append-only contract: when the cached columns
    are a prefix of the next set's, only the new columns' squares are added
    to the list values (n x list length work). Adding non-negative squares
    never lowers a d^2, in floats too, so ``outside`` stays a lower bound.
    Any other set, or another row count or subsample, drops the lists.

    Holds the subsampled columns and two (n, ``LIST_LEN``) arrays of lists
    and values, about 0.4 MB at 1000 rows; (n, n - 1) ones for the small
    sets. The screen works ``_ROW_BLOCK`` rows at a time, so no (n, n)
    temporary exists either.
    """

    def __init__(self):
        self.key: tuple[int, int, int] | None = None   # (n, max_rows, row_seed)
        self.rows: np.ndarray | None = None
        self.columns: np.ndarray | None = None   # (n, m): the subsampled set
        self.lists: np.ndarray | None = None     # (n, width) candidate rows, increasing
        self.values: np.ndarray | None = None    # (n, width) their d2
        self.outside: np.ndarray | None = None   # (n,) d2 lower bound beyond each list

    def update(self, F: np.ndarray, cfg: UtilityConfig) -> np.ndarray:
        """Make the row subsample of ``F`` the cache's set and return it;
        extend the lists by the appended columns when the cached set is a
        prefix of it."""
        key = (F.shape[0], cfg.max_rows, cfg.row_seed)
        if key != self.key:
            self.key, self.rows, self.columns = key, sample_indices(*key), None
        sub = F[self.rows]
        cached = 0 if self.columns is None else self.columns.shape[1]
        if not (cached and cached <= sub.shape[1]
                and np.array_equal(self.columns, sub[:, :cached])):
            self.lists = self.values = self.outside = None
        elif self.lists is not None:
            _add_pair_sq_dists(self.values, sub[:, cached:].T,
                               np.arange(len(self.lists))[:, None], self.lists)
        self.columns = sub
        return sub

    def pairs(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Codes j * n + i, increasing, of the pairs with i among the k
        nearest rows to j or j among those to i, for the set last passed to
        ``update``, and their d^2: the symmetric kNN indicator's pairs.
        A pair and its mirror have the same d^2, so either copy may stay."""
        n = len(self.columns)
        codes, d2 = self.neighbours(k)
        j, i = np.divmod(codes, n)
        both = np.concatenate([codes, i * n + j])
        order = np.argsort(both)
        both = both[order]
        keep = np.empty(len(both), dtype=bool)
        keep[:1] = True
        np.not_equal(both[1:], both[:-1], out=keep[1:])
        return both[keep], np.concatenate([d2, d2])[order[keep]]

    def neighbours(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Codes j * n + i of the pairs with i among the k nearest rows to
        j, for every row j of the set last passed to ``update``, and their
        d^2."""
        n = len(self.columns)
        fresh = self._build(k)
        near, kth = _nearest(self.values, k)
        ties = np.flatnonzero(kth >= self.outside)
        if len(ties) and not fresh:        # stale lists: rebuild them first
            self._refresh(ties)
            near[ties], kth[ties] = _nearest(self.values[ties], k)
            ties = ties[kth[ties] >= self.outside[ties]]
        near[ties] = False                 # a tie at the list's bound
        found = [(np.arange(n), self.lists, self.values, near)]
        for block, index, dist in self._screen(ties, kth[ties]):
            found.append((block, index, dist, _nearest(dist, k)[0]))
        codes, d2 = [], []
        for rows, index, dist, mask in found:
            flat = np.flatnonzero(mask)
            codes.append(rows[flat // mask.shape[1]] * n + index.take(flat))
            d2.append(dist.take(flat))
        return np.concatenate(codes), np.concatenate(d2)

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
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.einsum("qi,qi->i", columns, columns)
            finite = np.isfinite(3.0 * norms.max())   # then no screen value overflows
            up, down = (1.0 + c) * norms, 2.0 * c * norms
        for start in range(0, len(rows), _ROW_BLOCK):
            block = rows[start:start + _ROW_BLOCK]
            here = np.arange(len(block))
            own = norms[block]
            with np.errstate(over="ignore", invalid="ignore"):
                # s + (1 + c) r_x = approx + delta; s - down + (1 - c) r_x =
                # approx - delta. The row's own terms join its limit instead.
                s = (-2.0 * columns[:, block]).T @ columns
                s += up
                if not finite:
                    s[~np.isfinite(s)] = np.nan   # bounds nothing: a candidate
                if limits is None:
                    s[here, block] = np.inf
                    limit = np.partition(s, width, axis=1)[:, width] + 2.0 * c * own
                else:
                    limit = limits[start:start + _ROW_BLOCK] - (1.0 - c) * own
                limit[~np.isfinite(own)] = np.inf
                s -= down
                candidate = ~(s > limit[:, None])
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
        other.key, other.rows, other.columns = self.key, self.rows, self.columns
        for name in ("lists", "values", "outside"):
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
    v = cache.update(_values(F), cfg)
    n = v.shape[0]
    if not 1 <= cfg.k_neighbors < n:
        raise DegenerateK(f"k={cfg.k_neighbors}: need 1 <= k < {n}, the subsampled row count")
    # Ordered pairs, both directions, in row-major order, so the sums below
    # run in the same order whichever way the neighbours were found.
    codes, d2 = cache.pairs(cfg.k_neighbors)
    pair_i, pair_j = np.divmod(codes, n)
    weights = np.exp(-d2 / DISCOUNT_SCALE)
    diffs = v[pair_i]
    diffs -= v[pair_j]
    np.square(diffs, out=diffs)
    cumulative = np.einsum("pq,p->q", diffs, weights)
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
