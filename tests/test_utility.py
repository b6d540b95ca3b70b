import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import clamp_range_table, latent_view_table, make_table
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neat
from neat.errors import DegenerateK
from neat.expr import VALUE_CAP, FeatureCross, eval_cross, feature_token, random_cross
from neat.tabular import load_csv
from neat.tabular import sample_indices
from neat.utility import (
    _ROW_BLOCK,
    LIST_LEN,
    DistanceCache,
    UtilityConfig,
    feature_importance,
    mdcg,
)


# -- independent reference implementations, deliberately written as plain loops --

def oracle_scaled(F):
    # Each column's rank codes 2 r - (n - 1), r the value's mean rank among
    # its column's values; a column equal to an earlier coded column is left
    # out.
    n, m = F.shape
    kept = []
    for q in range(m):
        col = F[:, q]
        scaled = np.empty(n)
        for i in range(n):
            below, tied = int((col < col[i]).sum()), int((col == col[i]).sum())
            scaled[i] = 2 * below + tied - n
        if not any(np.array_equal(scaled, other) for other in kept):
            kept.append(scaled)
    return np.column_stack(kept)


def oracle_sq_dists(F):
    # squared distances as the metric defines them: per-column squares summed
    # in column order
    n, m = F.shape
    d2 = np.zeros((n, n))
    for q in range(m):
        d2 += (F[:, q, None] - F[None, :, q]) ** 2
    return d2


def oracle_ranked(S, k):
    # each row's k nearest other rows of the coded set S, ordered by (d2,
    # row index): a stable sort of each whole distance row, self placed last
    d2 = oracle_sq_dists(S)
    np.fill_diagonal(d2, np.nan)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def oracle_indicator(F, k):
    # S[j, i] = 1 when row i is among row j's k nearest
    n = F.shape[0]
    S = np.zeros((n, n), dtype=np.int8)
    for j, row in enumerate(oracle_ranked(oracle_scaled(F), k)):
        for i in row:
            S[j, i] = 1
    return S


def knn_indicator(F, k):
    """The metric's own kNN relation, as an (n, n) 0/1 matrix: S[j, i] = 1
    when row i is among row j's k nearest."""
    n = F.shape[0]
    cache = DistanceCache(F, BIG)
    S = np.zeros((n, n), dtype=np.int8)
    index, _ = cache.neighbours(k)
    S[np.arange(n)[:, None], index] = 1
    return S


def oracle_terms(F, k):
    S = oracle_scaled(F)
    n, m = S.shape
    ranked = oracle_ranked(S, k)
    discount = [1.0 / math.log2(1 + r) for r in range(1, k + 1)]
    weights = [w / sum(discount) for w in discount]
    terms = []
    for q in range(m):
        mean = sum(S[:, q]) / n
        variance = sum((x - mean) ** 2 for x in S[:, q]) / (n - 1)
        if variance == 0.0:
            terms.append(0.0)
            continue
        gain = 0.0
        for j in range(n):
            for r in range(k):
                gain += weights[r] * (S[j, q] - S[ranked[j, r], q]) ** 2
        terms.append(1.0 - gain / n / (2.0 * variance))
    return terms


def oracle_mdcg(F, k):
    return float(np.mean(oracle_terms(F, k)))


BIG = UtilityConfig(max_rows=10_000)


class TestKnnIndicator:
    def test_two_points(self):
        S = knn_indicator(np.array([[0.0], [1.0]]), k=1)
        assert S.tolist() == [[0, 1], [1, 0]]

    def test_line_of_three(self):
        S = knn_indicator(np.array([[0.0], [1.0], [10.0]]), k=1)
        # Ranks space the rows evenly: 0 and 10 both pick 1, and 1 has a tie
        # between 0 and 10 that goes to the lower row index.
        assert S.tolist() == [[0, 1, 0], [1, 0, 0], [0, 1, 0]]

    def test_zero_diagonal_and_k_per_row(self, rng):
        F = rng.normal(size=(25, 3))
        S = knn_indicator(F, k=4)
        assert np.all(np.diag(S) == 0)
        assert np.all(S.sum(axis=1) == 4)

    def test_degenerate_k(self):
        with pytest.raises(DegenerateK):
            feature_importance(np.zeros((3, 2)), UtilityConfig(k_neighbors=3))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_oracle_on_random(self, seed):
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(30, 4))
        k = int(rng.integers(1, 8))
        assert np.array_equal(knn_indicator(F, k), oracle_indicator(F, k))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_oracle_with_duplicate_rows(self, seed):
        # exact distance ties; both sides must break toward the lower index
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(20, 3))
        F[5] = F[11]
        F[6] = F[11]
        F[0] = F[19]
        k = int(rng.integers(1, 6))
        assert np.array_equal(knn_indicator(F, k), oracle_indicator(F, k))


    @pytest.mark.parametrize("dims,k", [(2, 1), (2, 2), (3, 1), (3, 4), (3, 9)])
    def test_matches_oracle_on_integer_lattice(self, dims, k):
        # Lattice rows share distances in groups of 4 to 12; shuffled, so the
        # lower-index tie-break is not just the generation order. Every level
        # holds as many rows, so the ranks form the same lattice.
        rng = np.random.default_rng(dims * 10 + k)
        axes = np.meshgrid(*[np.arange(4.0)] * dims, indexing="ij")
        F = np.column_stack([a.ravel() for a in axes])[rng.permutation(4 ** dims)]
        d2 = ((F[:, None, :] - F[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        kth = np.sort(d2, axis=1)[:, k - 1]
        below = (d2 < kth[:, None]).sum(axis=1)
        shared = (d2 == kth[:, None]).sum(axis=1)
        # some row has k+2 rows at its k-th distance and keeps at least one
        assert np.any((shared >= k + 2) & (below < k))
        assert np.array_equal(knn_indicator(F, k), oracle_indicator(F, k))

    @pytest.mark.parametrize("seed", range(3))
    def test_pairwise_sq_dists_exactly_symmetric(self, seed):
        # a pair's d2 must equal its mirror's bit for bit, and the oracle's on
        # the coded columns, and each row must come ranked by (d2, row index)
        F = np.random.default_rng(seed).normal(size=(60, 7)) * 10.0 ** np.arange(-3, 4)
        n = len(F)
        cache = DistanceCache(F, BIG)
        index, d2 = cache.neighbours(n - 1)            # every pair
        assert np.array_equal(index, oracle_ranked(oracle_scaled(F), n - 1))
        D = np.full((n, n), np.nan)
        D[np.arange(n)[:, None], index] = d2
        assert np.array_equal(D, D.T, equal_nan=True)
        assert np.isnan(np.diag(D)).all()
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(D[off], oracle_sq_dists(oracle_scaled(F))[off])


class TestMdcg:
    def test_all_constant_columns(self):
        # One constant column is kept, the others are its duplicates, and a
        # constant tells no rows apart.
        F = np.ones((10, 3)) * 4.2
        assert feature_importance(F, UtilityConfig(k_neighbors=2)).tolist() == [0.0]
        assert mdcg(F, UtilityConfig(k_neighbors=2)) == 0.0

    def test_hand_case_two_by_two(self):
        # The columns rank alike, so one is kept; a 2-row set's one pair is
        # as good as a random pair, and scores 0.
        F = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert feature_importance(F, UtilityConfig(k_neighbors=1)).tolist() == [0.0]

    def test_hand_case_three_rows(self):
        # Coded: a = (-2, 0, 2), b = (-2, 2, 0). d2 is 20 from row 0 to rows
        # 1 and 2, a tie that goes to row 1, and 8 between rows 1 and 2.
        # Squared differences along the pairs 0-1, 1-2, 2-1 average to 4 in a
        # and 8 in b; each column's variance is 4.
        F = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
        assert feature_importance(F, UtilityConfig(k_neighbors=1)).tolist() == [0.5, 0.0]
        assert mdcg(F, UtilityConfig(k_neighbors=1)) == 0.25

    def test_oracle_equivalence_runtime(self):
        rng = np.random.default_rng(7)
        start = time.monotonic()
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(8, 51))
            m = int(rng.integers(2, 9))
            k = int(rng.integers(1, min(6, n - 1) + 1))
            F = rng.normal(size=(n, m))
            got = mdcg(F, UtilityConfig(k_neighbors=k, max_rows=10_000))
            worst = max(worst, abs(got - oracle_mdcg(F, k)))
        assert worst < 1e-9
        assert time.monotonic() - start < 10.0

    def test_column_permutation_invariance(self, rng):
        F = rng.normal(size=(30, 5))
        perm = rng.permutation(5)
        a = mdcg(F, BIG)
        b = mdcg(F[:, perm], BIG)
        assert a == pytest.approx(b, abs=1e-9)

    def test_row_permutation_invariance(self, rng):
        F = rng.normal(size=(30, 5))
        perm = rng.permutation(30)
        assert mdcg(F, BIG) == pytest.approx(mdcg(F[perm], BIG), abs=1e-9)

    def test_subsample_is_deterministic(self, rng):
        F = rng.normal(size=(400, 4))
        cfg = UtilityConfig(max_rows=100, row_seed=5)
        assert mdcg(F, cfg) == mdcg(F, cfg)
        # and actually subsampled: differs from the full computation
        assert mdcg(F, cfg) != mdcg(F, BIG)

    def test_negative_values_allowed(self):
        # Every pair lies at d2 = 24, so each row takes its lowest other row;
        # those pairs differ in the first column more than random pairs do.
        F = np.array([[0.0, 1.0, 0.0], [2.0, 2.0, 1.0], [1.0, 0.0, 2.0]])
        assert feature_importance(F, UtilityConfig(k_neighbors=1)).tolist() == [-0.5, 0.5, 0.0]

    def test_degenerate_k_propagates(self):
        for k in (5, 0, -1):
            with pytest.raises(DegenerateK):
                mdcg(np.zeros((4, 2)), UtilityConfig(k_neighbors=k))

    def test_a_set_with_no_columns_is_refused(self):
        # The mean of no terms would be nan.
        for score in (mdcg, feature_importance):
            with pytest.raises(ValueError, match="columns"):
                score(np.zeros((10, 0)))


def _bits(a):
    # An array's dtype, shape and bytes: equal exactly when the arrays are
    # equal bit for bit.
    return a.dtype, a.shape, a.tobytes()


def _grown(cache, *columns):
    # A copy of ``cache`` with ``columns`` added in turn, as collect grows a set.
    grown = cache.copy()
    for column in columns:
        grown.add(column)
    return grown


class TestDistanceCache:
    # (rows, max_rows): the subsample path, then the full-row path
    @pytest.mark.parametrize("n,max_rows", [(300, 120), (80, 1000)])
    def test_grown_set_matches_cold_calls(self, n, max_rows):
        F = np.random.default_rng(n).normal(size=(n, 9))
        F[:, 6] = np.exp(np.exp(F[:, 0]))
        cfg = UtilityConfig(k_neighbors=4, max_rows=max_rows, row_seed=3)
        cache = DistanceCache(F[:, :1], cfg)
        for width in range(1, F.shape[1] + 1):
            assert cache.add(F[:, width - 1]) == (width not in (1, 7))   # f6 ranks as f0
            assert mdcg(F[:, :width], cfg, cache) == mdcg(F[:, :width], cfg)
            assert np.array_equal(feature_importance(F[:, :width], cfg, cache),
                                  feature_importance(F[:, :width], cfg))

    # (rows, max_rows): the full-row path, then the subsample path
    @pytest.mark.parametrize("rows,max_rows", [(20, 1000), (36, 20)])
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4), constant=st.booleans(),
           kind=st.sampled_from(["copy", "x + x", "exp(x)", "constant", "ties",
                                 "copy on the subsample", "fresh"]))
    @settings(max_examples=60, deadline=None)
    def test_add_agrees_with_a_cold_cache(self, rows, max_rows, seed, m, constant, kind):
        # add keeps a column exactly when a cold cache of the grown set keeps
        # one more code column; a column it refuses leaves every field as it
        # was, and one it keeps scores as the cold call does.
        rng = np.random.default_rng(seed)
        cfg = UtilityConfig(k_neighbors=3, max_rows=max_rows)
        F = rng.normal(size=(rows, m))
        if constant:
            F[:, -1] = 1.5
        x = F[:, int(rng.integers(m))]
        cache = DistanceCache(F, cfg)
        feature_importance(F, cfg, cache)           # the lists exist
        if kind == "copy":
            c = x.copy()
        elif kind == "x + x":
            c = x + x
        elif kind == "exp(x)":
            c = np.exp(x)
        elif kind == "constant":
            c = np.full(rows, -4.0)
        elif kind == "ties":
            c = np.round(x)
        elif kind == "copy on the subsample":   # differs only off the subsampled rows
            c = rng.normal(size=rows)
            c[cache.rows] = x[cache.rows]
        else:
            c = rng.normal(size=rows)
        grown = np.column_stack([F, c])
        fields = ("columns", "spread", "keys", "listed", "outside")
        before = [_bits(getattr(cache, name)) for name in fields]
        seen = cache.seen
        kept = cache.add(c)
        assert kept == (DistanceCache(grown, cfg).columns.shape[1] == before[0][1][1] + 1)
        if kept:
            assert (_bits(feature_importance(grown, cfg, cache))
                    == _bits(feature_importance(grown, cfg)))
        else:
            assert [_bits(getattr(cache, name)) for name in fields] == before
            assert cache.seen == seen
            assert mdcg(grown, cfg) == mdcg(F, cfg)
        if kind in ("copy", "x + x", "exp(x)", "copy on the subsample") or (
                kind == "constant" and constant):
            assert not kept

    def test_a_cache_for_another_row_count_or_config_is_refused(self):
        F = np.random.default_rng(9).normal(size=(300, 4))
        cfg = UtilityConfig(max_rows=100)
        cache = DistanceCache(F, cfg)
        score = mdcg(F, cfg, cache)
        assert score == mdcg(F, cfg)
        for other, rows in [(cfg, F[:250]), (UtilityConfig(max_rows=100, row_seed=1), F),
                            (UtilityConfig(max_rows=1000), F),
                            (UtilityConfig(max_rows=100, k_neighbors=4), F)]:
            for scored in (mdcg, feature_importance):
                with pytest.raises(ValueError, match="built for"):
                    scored(rows, other, cache)
        assert mdcg(F, cfg, cache) == score


# Columns that stress the coding and the candidate lists: integer lattices
# tie rows at their k-th distance and at a list's bound; a constant adds
# nothing; +-VALUE_CAP and values beyond it would overflow d2 uncoded, and
# rank as three tied groups; exp(exp(x)) reorders most rows' neighbours, so
# most lists are ranked again; and near-duplicates at a large common offset
# would cancel in the Gram form uncoded.
COLUMN_KINDS = ("normal", "lattice", "constant", "cap", "expexp", "overflow", "offset")


def _column(kind, rng, n):
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "lattice":
        return rng.integers(0, 4, size=n).astype(float)
    if kind == "constant":
        return np.full(n, 2.5)
    if kind == "cap":
        return rng.choice([-VALUE_CAP, 0.0, VALUE_CAP], size=n)
    if kind == "overflow":
        return rng.choice([-1e155, 0.0, 1e155], size=n, p=[0.01, 0.98, 0.01])
    if kind == "offset":
        return 1e8 + 1e-7 * rng.normal(size=n)
    return np.exp(np.exp(rng.normal(size=n)))


def _check_neighbours(caches, F, cfg, k):
    # Each cache's ranked neighbours of F's row subsample are the oracle's,
    # and so are their d2 bits.
    scaled = oracle_scaled(F[sample_indices(F.shape[0], cfg.max_rows, cfg.row_seed)])
    want = oracle_ranked(scaled, k)
    d2_want = np.take_along_axis(oracle_sq_dists(scaled), want, axis=1)
    for cache in caches:
        assert np.array_equal(cache.columns, scaled)
        index, d2 = cache.neighbours(k)
        assert np.array_equal(index, want)
        assert np.array_equal(d2, d2_want)


class TestCandidateLists:
    """A DistanceCache finds neighbours from per-row candidate lists of
    exact keys; cold and grown sets must both find the oracle's."""

    # (rows, max_rows): the subsample path, the full-row path at 300 and at
    # 200 rows, all on lists narrower than a row's n - 1 others, then a set
    # of n - 1 = LIST_LEN other rows, whose lists hold them all
    PATHS = [(400, 300), (300, 1000), (200, 1000), (LIST_LEN + 1, 1000)]

    @given(seed=st.integers(0, 2**32 - 1),
           shared=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=3),
           branches=st.lists(st.tuples(st.sampled_from(COLUMN_KINDS),
                                       st.sampled_from(COLUMN_KINDS)),
                             min_size=1, max_size=3),
           k=st.integers(1, LIST_LEN),
           path=st.sampled_from(PATHS))
    @example(seed=1, shared=["lattice", "lattice"], branches=[("expexp", "overflow")],
             k=1, path=PATHS[0])
    @example(seed=2, shared=["normal"], branches=[("cap", "constant")],
             k=LIST_LEN, path=PATHS[1])
    @example(seed=3, shared=["offset", "normal"], branches=[("offset", "lattice")],
             k=4, path=PATHS[0])
    # Narrow lists at 200 rows, and lists of every other row, grown by a
    # column of three tied groups.
    @example(seed=4, shared=["normal"], branches=[("overflow", "lattice")],
             k=5, path=PATHS[2])
    @example(seed=4, shared=["normal"], branches=[("overflow", "lattice")],
             k=5, path=PATHS[3])
    @settings(max_examples=40, deadline=None)
    def test_grown_sets_match_cold_calls(self, seed, shared, branches, k, path):
        n, max_rows = path
        rng = np.random.default_rng(seed)
        cfg = UtilityConfig(k_neighbors=k, max_rows=max_rows, row_seed=seed % 7)

        def check(F, cache):
            assert np.array_equal(feature_importance(F, cfg, cache), feature_importance(F, cfg))
            cold = DistanceCache(F, cfg)
            _check_neighbours([cache, cold], F, cfg, k)
            # One width rule: every other row is listed only when there are
            # at most LIST_LEN of them, and only then is nothing outside.
            rows = min(n, max_rows)
            for c in (cache, cold):
                assert c.keys.shape == (rows, min(rows - 1, max(LIST_LEN, k)))
                assert np.isinf(c.outside).all() == (rows - 1 <= LIST_LEN)

        F = rng.normal(size=(n, 1))
        cache = DistanceCache(F, cfg)
        for kind in shared:
            check(F, cache)
            column = _column(kind, rng, n)
            cache.add(column)
            F = np.column_stack([F, column])
        check(F, cache)
        # Two branches grown apart from one set, in turns, so that a list
        # shared between them would show.
        sets, caches = [F, F], [cache, cache.copy()]
        for kinds in branches:
            for b, kind in enumerate(kinds):
                column = _column(kind, rng, n)
                caches[b].add(column)
                sets[b] = np.column_stack([sets[b], column])
                check(sets[b], caches[b])

    def test_tie_at_the_list_bound_is_rescreened(self):
        # In codes, column a holds row 0 and rows 1..LIST_LEN in a group of
        # mean rank 16, and row LIST_LEN + 1 with the last two rows in a group
        # of mean rank 34: those sit at exactly the list's bound, the other
        # rows beyond it. Column b puts row 0 and row LIST_LEN + 1 in a group
        # of mean rank 16 and rows 1..LIST_LEN in one of mean rank 34, so it
        # moves rows 1..LIST_LEN to the bound's d2 from row 0: row 0's k
        # nearest tie with unlisted rows. Their keys still order them by row
        # index, so the list answers: rows 1, 2, 3.
        n, k = 300, 3
        a = 2.0 + np.arange(n)
        a[:LIST_LEN + 1] = 0.0
        a[[LIST_LEN + 1, n - 2, n - 1]] = 1.0
        b = 2.0 + np.arange(n)
        b[100:115] = -np.arange(1.0, 16.0)                # 15 rows below row 0
        b[[0, LIST_LEN + 1, 200]] = 0.0
        b[1:LIST_LEN + 1] = b[201] = 1.0
        bound = n * (2 * 34 - 2 * 16) ** 2 + LIST_LEN + 1   # row LIST_LEN + 1's key
        cfg = UtilityConfig(k_neighbors=k)
        cache = DistanceCache(a[:, None], cfg)
        mdcg(a[:, None], cfg, cache)
        assert cache.add(np.zeros(n))
        mdcg(np.column_stack([a, np.zeros(n)]), cfg, cache)
        assert sorted(cache.keys[0] % n) == list(range(1, LIST_LEN + 1))
        assert cache.outside[0] == bound
        F = np.column_stack([a, np.zeros(n), b])
        assert cache.add(b)
        assert np.array_equal(feature_importance(F, cfg, cache), feature_importance(F, cfg))
        _check_neighbours([cache], F, cfg, k)
        assert cache.neighbours(k)[0][0].tolist() == [1, 2, 3]

    def test_ties_beside_fallback_rows_are_repaired(self):
        # Rows 0..49 are duplicates, more than a list holds, so each lists
        # only its tied rows. Row 200 then has two rows
        # at its nearest distance (199 and 201, each the other's duplicate),
        # and the list rule must drop the higher-indexed one although the
        # members over all rows number fewer than k per row.
        n, k = 300, 1
        x = np.zeros(n)
        x[50:] = 1000.0 + np.cumsum(np.random.default_rng(3).uniform(2.0, 3.0, n - 50))
        x[[199, 201]], x[200] = 5000.0, 6000.0
        cfg = UtilityConfig(k_neighbors=k)
        cache = DistanceCache(x[:, None], cfg)
        mdcg(x[:, None], cfg, cache)
        assert cache.add(np.zeros(n))
        F = np.column_stack([x, np.zeros(n)])
        assert np.array_equal(feature_importance(F, cfg, cache), feature_importance(F, cfg))
        _check_neighbours([cache], F, cfg, k)
        assert cache.neighbours(k)[0][200].tolist() == [199]

    def test_no_array_grows_with_the_square_of_the_rows(self):
        # The lists hold n x LIST_LEN keys; rows are ranked in row blocks.
        n = 1000
        rng = np.random.default_rng(4)
        F = np.column_stack([rng.normal(size=(n, 6)), np.exp(np.exp(rng.normal(size=n)))])
        cfg = UtilityConfig()
        cache = DistanceCache(F[:, :6], cfg)
        mdcg(F[:, :6], cfg, cache)
        tracemalloc.start()
        cache.add(F[:, 6])
        mdcg(F, cfg, cache)                   # grown, and most rows are ranked again
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        held = [value for c in (cache, cache.copy()) for value in vars(c).values()
                if isinstance(value, np.ndarray)]
        assert held and max(value.size for value in held) < n * n
        assert peak < n * n * 8 // 2


def _cross_set(seed, n, crosses, clamp):
    # A table's columns and random crosses of them; with ``clamp`` the table
    # holds columns at the evaluator's limits (VALUE_CAP, the exp clamp, the
    # divisor floor, signed zeros).
    rng = np.random.default_rng(seed)
    table = clamp_range_table(seed, n) if clamp else make_table(rng.normal(size=(n, 4)))
    d = table.n_features
    columns = [table.values[:, j] for j in range(d)]
    columns += [eval_cross(random_cross(d, 3, rng), table) for _ in range(crosses)]
    return np.column_stack(columns), rng


def _rounding_sets():
    # Sets whose Gram form loses digits on raw floats: N(0,1); columns from
    # 1e-3 to 1e3; rows that differ by 1e-7 at an offset of 1e8; +-VALUE_CAP;
    # a lattice; 64 columns; and rows from 1e-100 to 1e100.
    rng = np.random.default_rng(8)
    yield rng.normal(size=(120, 5))
    yield rng.normal(size=(120, 7)) * 10.0 ** np.arange(-3, 4)
    yield 1e8 + 1e-7 * rng.normal(size=(120, 4))
    yield rng.choice([-VALUE_CAP, 0.0, VALUE_CAP], size=(120, 6))
    yield rng.integers(0, 3, size=(120, 8)).astype(float)
    yield rng.normal(size=(120, 64))
    yield rng.normal(size=(120, 3)) * 10.0 ** rng.integers(-100, 101, size=(120, 1))


# the rounding sets, then two whose raw norms would overflow; the keys see
# them coded
_EXTREME_SETS = list(_rounding_sets()) + [
    1e154 * (1.0 + 1e-12 * np.random.default_rng(9).normal(size=(120, 3))),
    1e154 * np.linspace(0.3, 1.0, 120)[:, None] * np.ones(2)]


class TestGramScreen:
    """The Gram form that ranks rows, on the codes, needs no screen: its
    rounding bound is 0, and every row within a rank's distance is found."""

    @pytest.mark.parametrize("F", list(_rounding_sets()))
    def test_gram_form_is_within_its_bound(self, F):
        # On raw floats the Gram form n_x + n_y - 2 x.y is off from the exact
        # column-order d2 by up to 4 (m + 2) eps (n_x + n_y). On the codes
        # every norm, product and sum is an integer below 2^53, so the bound
        # is 0: the form equals the exact d2 bit for bit, and so does every
        # d2 a cold cache decodes from its keys (every other row, at 120 rows).
        n, m = F.shape
        assert 4 * m * n ** 3 < 2 ** 53
        cache = DistanceCache(F, BIG)
        c = cache.columns
        exact = oracle_sq_dists(oracle_scaled(F))
        norms = np.einsum("ij,ij->i", c, c)
        assert np.array_equal(norms[:, None] + norms[None, :] - 2.0 * (c @ c.T), exact)
        cache.neighbours(1)
        d2, listed = np.divmod(cache.keys, n)
        assert np.array_equal(d2, np.take_along_axis(exact, listed.astype(np.intp), axis=1))

    @pytest.mark.parametrize("rank", [7, 100])
    @pytest.mark.parametrize("F", _EXTREME_SETS)
    def test_screen_passes_every_row_within_the_limit(self, F, rank):
        # Every row of the coded set nearer than the row's rank-th distance
        # must come back from neighbours(rank), each with its exact d2, and
        # no warning be raised (pytest makes one an error).
        n = len(F)
        cache = DistanceCache(F, BIG)
        index, d2 = cache.neighbours(rank)
        assert np.array_equal(cache.columns, oracle_scaled(F))
        exact = oracle_sq_dists(cache.columns)
        np.fill_diagonal(exact, np.inf)
        limits = np.sort(exact, axis=1)[:, rank - 1]
        for r in range(n):
            within = np.flatnonzero(exact[r] < limits[r])
            assert set(within.tolist()) <= set(index[r].tolist())
            assert np.array_equal(d2[r], exact[r, index[r]])
            assert d2[r, -1] == limits[r]


class TestExactKeys:
    """Keys are exact: n d2 + j on the codes, whatever the raw columns."""

    @pytest.mark.parametrize("k", [7, 100])
    @pytest.mark.parametrize("F", _EXTREME_SETS + [
        # 1000 rows, so lists narrower than the set, of 64 columns
        _cross_set(10, 1000, 59, clamp=True)[0]])
    def test_keys_equal_the_oracle(self, F, k):
        # Cold and grown by the last column, every stored key is the oracle's
        # bit for bit. Cold, ``outside`` is the next smallest key; grown, it
        # is at most the key of any row not listed.
        n = len(F)
        want = oracle_sq_dists(oracle_scaled(F)) * n + np.arange(n)
        np.fill_diagonal(want, np.inf)
        ordered = np.sort(want, axis=1)
        cold, grown = DistanceCache(F, BIG), DistanceCache(F[:, :-1], BIG)
        grown.neighbours(k)
        grown.add(F[:, -1])
        for cache in (cold, grown):
            index, d2 = cache.neighbours(k)
            assert np.array_equal(d2 * n + index, ordered[:, :k])
            listed = cache.keys.astype(np.intp) % n
            assert np.array_equal(cache.keys, np.take_along_axis(want, listed, axis=1))
        width = cold.keys.shape[1]
        assert np.array_equal(np.sort(cold.keys, axis=1), ordered[:, :width])
        assert np.array_equal(cold.outside, ordered[:, width])
        rest = want.copy()
        np.put_along_axis(rest, grown.keys.astype(np.intp) % n, np.inf, axis=1)
        assert np.all(grown.outside <= rest.min(axis=1))

    def test_a_stale_set_over_several_blocks_is_listed_exactly(self):
        # Rows ranked again in blocks of _ROW_BLOCK, the last one partial, at
        # n not a multiple of the block: each ranked row's keys are its
        # width smallest exact keys, and ``outside`` the next one.
        n = 3 * _ROW_BLOCK + 7
        rng = np.random.default_rng(13)
        F = np.column_stack([rng.normal(size=(n, 2)), np.exp(np.exp(rng.normal(size=n))),
                             rng.integers(0, 4, size=n).astype(float)])
        want = oracle_sq_dists(oracle_scaled(F)) * n + np.arange(n)
        np.fill_diagonal(want, np.inf)
        ordered = np.sort(want, axis=1)
        cache = DistanceCache(F[:, :2], BIG)
        cache.neighbours(3)
        assert cache.add(F[:, 2]) and cache.add(F[:, 3])
        stale = np.flatnonzero(rng.random(n) < 0.8)
        assert len(stale) > 2 * _ROW_BLOCK and len(stale) % _ROW_BLOCK
        cache._rank(stale)
        width = cache.keys.shape[1]
        assert width < n - 1
        assert np.array_equal(np.sort(cache.keys[stale], axis=1), ordered[stale, :width])
        assert np.array_equal(cache.outside[stale], ordered[stale, width])
        cold = DistanceCache(F, BIG)
        cold.neighbours(3)                  # every row, in four blocks
        assert np.array_equal(np.sort(cold.keys, axis=1), ordered[:, :width])
        assert np.array_equal(cold.outside, ordered[:, width])

    def test_results_do_not_depend_on_the_blas_threads(self):
        # The same bits from one BLAS thread and from two.
        script = ("import sys; import numpy as np; from neat.utility import *\n"
                  "F = np.random.default_rng(5).normal(size=(1000, 64))\n"
                  "cache = DistanceCache(F, UtilityConfig())\n"
                  "score = mdcg(F, UtilityConfig(), cache)\n"
                  "index, d2 = cache.neighbours(5)\n"
                  "sys.stdout.buffer.write(np.float64(score).tobytes()"
                  " + index.tobytes() + d2.tobytes())\n")
        src = os.path.dirname(os.path.dirname(neat.__file__))
        outputs = [subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                                  env={**os.environ, "PYTHONPATH": src,
                                       "OPENBLAS_NUM_THREADS": threads}).stdout
                   for threads in ("1", "2")]
        assert len(outputs[0]) == 8 + 2 * 8 * 1000 * 5
        assert outputs[0] == outputs[1]

    def test_a_set_too_large_for_exact_keys_is_refused(self):
        # 4 m n^3 = 2^54 here; refused before any row is touched.
        F = np.broadcast_to(0.0, (2 ** 17, 2))
        start = time.monotonic()
        with pytest.raises(ValueError, match="2\\^53"):
            feature_importance(F, UtilityConfig(max_rows=2 ** 17))
        assert time.monotonic() - start < 5.0


def _int_keys(codes, row):
    # Row ``row``'s key n d2 + j to every row j, in int64 from the codes, with
    # its own key the largest int64.
    n = len(codes)
    diff = codes - codes[row]
    keys = n * np.einsum("ij,ij->i", diff, diff) + np.arange(n)
    keys[row] = np.iinfo(np.int64).max
    return keys


class TestKeysAtTheGuard:
    """Keys stay exact up to the guard 4 m n^3 < 2^53, with every column of
    a set in one product, and the guard still refuses the next column."""

    @staticmethod
    def _check(cache, rows, k):
        # The listed keys and ``outside`` of ``rows``, and the rows and d2
        # that ``neighbours(k)`` returns for them, against int64 oracle keys.
        index, d2 = cache.neighbours(k)
        n, width = cache.keys.shape
        codes = cache.columns.astype(np.int64)
        assert np.array_equal(codes, cache.columns)
        for row in rows:
            ordered = np.sort(_int_keys(codes, row))
            assert np.array_equal(np.sort(cache.keys[row]).astype(np.int64), ordered[:width])
            assert cache.outside[row] == ordered[width]
            assert np.array_equal(index[row], ordered[:k] % n)
            assert np.array_equal(d2[row], ordered[:k] // n)
        assert d2.dtype == np.int64 and index.dtype == np.intp

    def test_a_cold_set_of_2251_columns(self):
        # 1000 rows of 2251 distinct columns: each key of a cold cache comes
        # from one product over 2253 terms. Appending the columns is linear
        # in their number: about 0.3 s for coding, appending and ranking,
        # where comparing each new column with every kept one and stacking
        # it took about 6 s.
        n, m = 1000, 2251
        F = np.random.default_rng(21).normal(size=(n, m))
        start = time.monotonic()
        cache = DistanceCache(F, UtilityConfig())
        cache.neighbours(5)
        assert time.monotonic() - start < 2.0
        assert cache.columns.shape == (n, m)
        self._check(cache, np.random.default_rng(22).choice(n, 20, replace=False), 5)

    def test_rows_at_the_guard(self):
        # n = 2^15 rows of m = 63 columns: 4 m n^3 = 0.98 * 2^53, the largest
        # m at this n. Rows 0-39 are the 40 lowest in every column, so their
        # codes are near -(n - 1) and their nearest rows are each other: the
        # terms of such a key, -2n c_i.c_j, n |c_i|^2 and n |c_j|^2, have
        # absolute values that sum to almost 4 m n^3. A cold rank of 2^15
        # rows is too slow for a unit test, so 20 rows are ranked into lists
        # that hold 0, which ``neighbours`` then leaves as they are. A 64th
        # column reaches 2^53 and is refused.
        n, m = 2 ** 15, 63
        assert 4 * m * n ** 3 < 2 ** 53 <= 4 * (m + 1) * n ** 3
        rng = np.random.default_rng(23)
        F = rng.normal(size=(n, m))
        F[:40] = -10.0 - rng.random((40, m))
        cfg = UtilityConfig(max_rows=n)
        cache = DistanceCache(F, cfg)
        cache.keys, cache.outside = np.zeros((n, LIST_LEN)), np.zeros(n)
        cache.listed = np.zeros((n, LIST_LEN), dtype=np.intp)
        rows = np.concatenate([np.arange(10), rng.choice(np.arange(40, n), 10, replace=False)])
        cache._rank(rows)
        self._check(cache, rows, 5)
        assert np.all(cache.listed[:10] < 40)
        wider = np.broadcast_to(0.0, (n, m + 1))
        with pytest.raises(ValueError, match="2\\^53"):
            mdcg(wider, cfg)


class TestSpread:
    """Each kept code column's 2 s^2 is kept beside it, and equals
    ``2 * var(ddof=1)`` of the column bit for bit."""

    @staticmethod
    def _check(cache):
        assert cache.spread.shape == (cache.columns.shape[1],)
        assert np.array_equal(cache.spread, 2.0 * cache.columns.var(axis=0, ddof=1))

    @pytest.mark.parametrize("n,max_rows", [(400, 300), (120, 1000)])
    def test_cold_grown_copied_and_dropped(self, n, max_rows):
        rng = np.random.default_rng(n)
        # Every kind of column, then a copy of the first one, which is not kept.
        F = np.column_stack([_column(kind, rng, n) for kind in COLUMN_KINDS])
        F = np.column_stack([F, F[:, 0]])
        cfg = UtilityConfig(k_neighbors=3, max_rows=max_rows)
        cold = DistanceCache(F, cfg)
        self._check(cold)
        grown = DistanceCache(F[:, :1], cfg)
        for width in range(1, F.shape[1] + 1):
            grown.add(F[:, width - 1])
            feature_importance(F[:, :width], cfg, grown)
            self._check(grown)
        assert np.array_equal(grown.spread, cold.spread)
        assert len(grown.spread) == len(COLUMN_KINDS)
        before = grown.spread.copy()
        column = rng.normal(size=n)
        branch = _grown(grown, column)
        feature_importance(np.column_stack([F, column]), cfg, branch)
        self._check(branch)
        assert np.array_equal(grown.spread, before)
        assert np.array_equal(branch.spread[:-1], before)


class TestListedRows:
    """``listed`` holds the row j of each listed key n d2 + j: written when a
    row is ranked, read as the set grows, and copied with the keys."""

    @staticmethod
    def _check(cache):
        assert cache.listed.dtype == np.intp
        assert np.array_equal(cache.listed, cache.keys.astype(np.intp) % len(cache.columns))

    @pytest.mark.parametrize("n,max_rows", [(400, 300), (120, 1000)])
    def test_cold_grown_re_ranked_and_copied(self, n, max_rows, monkeypatch):
        ranked = []
        rank = DistanceCache._rank

        def counted_rank(cache, rows):
            ranked.append(len(rows))
            return rank(cache, rows)

        monkeypatch.setattr(DistanceCache, "_rank", counted_rank)
        rng = np.random.default_rng(n + 5)
        rows = min(n, max_rows)
        cfg = UtilityConfig(k_neighbors=3, max_rows=max_rows)
        F = rng.normal(size=(n, 2))
        cache = DistanceCache(F, cfg)
        feature_importance(F, cfg, cache)               # a cold build
        self._check(cache)
        assert ranked == [rows]
        for kind in ("lattice", "expexp"):              # grown, then most rows ranked again
            column = _column(kind, rng, n)
            cache.add(column)
            F = np.column_stack([F, column])
            feature_importance(F, cfg, cache)
            self._check(cache)
        assert len(ranked) > 1 and ranked.count(rows) == 1
        # A copy that ranks rows again writes its own lists only.
        listed, keys = cache.listed.copy(), cache.keys.copy()
        branch = cache.copy()
        self._check(branch)
        del ranked[:]
        column = _column("expexp", rng, n)
        branch.add(column)
        feature_importance(np.column_stack([F, column]), cfg, branch)
        assert ranked
        self._check(branch)
        assert np.array_equal(cache.listed, listed) and np.array_equal(cache.keys, keys)
        self._check(cache)
        assert not np.array_equal(branch.listed, listed)


class TestFeatureImportance:
    def test_mean_equals_mdcg_exactly(self, rng):
        F = rng.normal(size=(40, 6))
        cfg = UtilityConfig(k_neighbors=3)
        assert float(feature_importance(F, cfg).mean()) == mdcg(F, cfg)

    def test_constant_column_scores_zero(self, rng):
        F = rng.normal(size=(20, 3))
        F[:, 1] = 7.0
        imp = feature_importance(F, UtilityConfig(k_neighbors=2))
        assert imp[1] == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_per_column_oracle(self, seed):
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(20, 4))
        got = feature_importance(F, UtilityConfig(k_neighbors=3, max_rows=10_000))
        want = oracle_terms(F, k=3)
        assert np.allclose(got, want, atol=1e-9)


def _keeps_order(x, y):
    # y orders and ties the rows exactly as x does
    order = np.argsort(x, kind="stable")
    return (np.array_equal(order, np.argsort(y, kind="stable"))
            and np.array_equal(np.diff(x[order]) == 0, np.diff(y[order]) == 0))


SETS = dict(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([12, 60, 300, 1100]),
            crosses=st.integers(0, 8), clamp=st.booleans(), k=st.integers(1, 8))


class TestScale:
    """The definition's invariances: bounded scores, and no credit for a
    column that adds no information."""

    @given(**SETS)
    @settings(max_examples=40, deadline=None)
    def test_finite_and_within_the_documented_range(self, seed, n, crosses, clamp, k):
        F, _ = _cross_set(seed, n, crosses, clamp)
        rows = min(n, UtilityConfig().max_rows)
        terms = feature_importance(F, UtilityConfig(k_neighbors=k))
        assert np.all(np.isfinite(terms))
        assert np.all(terms <= 1.0)
        assert np.all(terms >= 1.0 - 2.0 * (rows - 1) ** 2 / rows)

    @given(**SETS)
    @settings(max_examples=40, deadline=None)
    def test_no_gain_from_a_column_that_adds_nothing(self, seed, n, crosses, clamp, k):
        F, rng = _cross_set(seed, n, crosses, clamp)
        cfg = UtilityConfig(k_neighbors=k)
        base = mdcg(F, cfg)
        c = F[:, int(rng.integers(F.shape[1]))]
        dense = np.unique(c, return_inverse=True)[1].astype(float)
        extras = [np.full(n, 3.0), c.copy(), dense]
        extras += [g for g in (2.0 * c + 1.0, np.arcsinh(c)) if _keeps_order(c, g)]
        for extra in extras:
            assert mdcg(np.column_stack([F, extra]), cfg) <= base
        for extra in extras[1:]:                # a re-encoding is no column at all
            assert mdcg(np.column_stack([F, extra]), cfg) == base

    def test_re_encodings_are_dropped(self, rng):
        x = rng.normal(size=50)
        F = np.column_stack([x, rng.normal(size=50), 2.0 * x + 1.0, np.exp(x), x])
        assert np.array_equal(feature_importance(F), feature_importance(F[:, :2]))

    def test_iid_tables_of_200_and_1000_rows_agree(self):
        # A score averaged over rows, not summed: 8 iid N(0,1) columns read
        # about 0.76 at 200 rows and 0.85 at 1000 (nearer neighbours).
        for seed in range(3):
            small = mdcg(np.random.default_rng(seed).normal(size=(200, 8)))
            large = mdcg(np.random.default_rng(seed + 10).normal(size=(1000, 8)))
            assert abs(small - large) <= 0.15

    def test_large_offset_column_scores_as_its_unshifted_copy(self):
        # z has 3 decimals, so 1e8 + 1e-3 z keeps z's order and ties in
        # float64, and ranks the same, so its lists hold the same keys.
        rng = np.random.default_rng(31)
        X, z = rng.normal(size=(1000, 12)), rng.normal(size=1000).round(3)
        F, G = np.column_stack([X, 1e8 + 1e-3 * z]), np.column_stack([X, z])
        shifted, plain = DistanceCache(F, UtilityConfig()), DistanceCache(G, UtilityConfig())
        assert mdcg(F, UtilityConfig(), shifted) == mdcg(G, UtilityConfig(), plain)
        assert np.array_equal(shifted.keys, plain.keys)


BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


class TestEqualWidth:
    """What ``mdcg`` gets right between sets of the same width, on the
    bench's planted tables (1000 x 12, y = x0 x1 + sin(x2) + noise): the
    originals plus the planted crosses ``f0 f1 *`` and ``f2 sin``, plus two
    N(0,1) noise columns, or plus two random crosses (depth <= 3). Each
    bound sits below the value measured at its seed, so the tests pin the
    utility's behaviour and are not tuned to it; a change to the utility
    that fails one says so and why."""

    RANDOM_SETS = 100

    @pytest.fixture(scope="class")
    def scores(self, workloads, tmp_path_factory):
        out = {}
        for seed in (1, 2, 3):
            path = tmp_path_factory.mktemp("planted") / "table.csv"
            workloads.write_table(path, 1000, 12, seed)
            table = load_csv(path, "y", "regression")
            originals = np.column_stack([eval_cross(FeatureCross((feature_token(i),)), table)
                                         for i in range(12)])
            base = DistanceCache(originals, UtilityConfig())   # each wider set grows a copy

            def score(*columns):
                return mdcg(np.column_stack([originals, *columns]), UtilityConfig(),
                            _grown(base, *columns))

            rng = np.random.default_rng(100 + seed)
            out[seed] = (
                mdcg(originals, UtilityConfig(), base),
                score(*[eval_cross(FeatureCross(tuple(c.split())), table)
                        for c in ("f0 f1 *", "f2 sin")]),
                score(*np.random.default_rng(seed).normal(size=(1000, 2)).T),
                np.array([score(*[eval_cross(random_cross(12, 3, rng), table)
                                  for _ in range(2)]) for _ in range(self.RANDOM_SETS)]))
        return out

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_the_planted_set_beats_most_random_crosses(self, scores, seed):
        # Measured at seeds 1-3: above 85 / 93 / 86% of them.
        _, planted, _, random_sets = scores[seed]
        assert np.mean(planted > random_sets) >= 0.80

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_noise_columns_score_below_the_originals(self, scores, seed):
        # Measured at seeds 1-3: 0.7150 / 0.7173 / 0.7167 against 0.7541 /
        # 0.7545 / 0.7552.
        originals, _, noise, _ = scores[seed]
        assert noise < originals

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_the_planted_set_beats_the_originals(self, scores, seed):
        # Measured at seeds 1-3: 0.75475 / 0.75579 / 0.75677, that is
        # +0.00063 / +0.00131 / +0.00157: a thin margin.
        originals, planted, _, _ = scores[seed]
        assert planted > originals


class TestLatentViews:
    """The utility finds structure where the features are related: on
    ``latent_view_table``'s four noisy views of each of three latents, a
    sum of two views of one latent denoises it, and a sum across latents
    mixes two. Between sets of the originals plus one sum, ``mdcg`` ranks
    every same-latent sum above every cross-latent sum. On iid tables no
    label-free score can prefer one cross to another, so no rank is pinned
    there."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_same_latent_sum_beats_every_cross_latent_sum(self, seed):
        # Measured at seeds 1-3: a margin of 0.0025 / 0.0028 / 0.0024.
        X = latent_view_table(1000, seed)
        base = DistanceCache(X, UtilityConfig())   # each wider set grows a copy
        mdcg(X, UtilityConfig(), base)
        same, cross = [], []
        for a in range(12):
            for b in range(a + 1, 12):
                column = X[:, a] + X[:, b]
                score = mdcg(np.column_stack([X, column]), UtilityConfig(),
                             _grown(base, column))
                (same if a // 4 == b // 4 else cross).append(score)
        assert len(same) == 18 and len(cross) == 48
        assert min(same) > max(cross)
