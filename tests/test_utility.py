import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neat import utility
from neat.errors import DegenerateK
from neat.expr import VALUE_CAP
from neat.tabular import sample_indices
from neat.utility import (
    LIST_LEN,
    LIST_MIN_ROWS,
    DistanceCache,
    UtilityConfig,
    feature_importance,
    mdcg,
    redundancy_utility,
)


# -- independent reference implementations, deliberately written as plain loops --

def oracle_sq_dists(F):
    # squared distances as the metric defines them: per-column squares summed
    # in column order
    n, m = F.shape
    d2 = np.zeros((n, n))
    with np.errstate(over="ignore"):      # overflow columns square to inf
        for q in range(m):
            d2 += (F[:, q, None] - F[None, :, q]) ** 2
    return d2


def oracle_knn_sets(F, k):
    # each row's k nearest other rows, ties toward the lower row index: a
    # stable sort of each whole distance row, self placed last
    d2 = oracle_sq_dists(F)
    np.fill_diagonal(d2, np.nan)
    order = np.argsort(d2, axis=1, kind="stable")
    return [set(row[:k].tolist()) for row in order]


def oracle_indicator(F, k):
    n = F.shape[0]
    knn = oracle_knn_sets(F, k)
    S = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        for j in range(n):
            if i != j and (i in knn[j] or j in knn[i]):
                S[i, j] = 1
    return S


def knn_indicator(F, k):
    """The metric's own symmetric kNN pairs, as an (n, n) 0/1 matrix."""
    n = F.shape[0]
    cache = DistanceCache()
    cache.update(F, BIG)
    S = np.zeros(n * n, dtype=np.int8)
    S[cache.pairs(k)[0]] = 1
    return S.reshape(n, n)


def oracle_terms(F, k, constant=2.0, var_epsilon=1e-12):
    n, m = F.shape
    S = oracle_indicator(F, k)
    terms = []
    for q in range(m):
        var = float(F[:, q].var())
        if var < var_epsilon:
            terms.append(1.0)
            continue
        total = 0.0
        for i in range(n):
            for j in range(n):
                if S[i, j]:
                    d2 = float(((F[i] - F[j]) ** 2).sum())
                    total += (F[i, q] - F[j, q]) ** 2 * math.exp(-d2 / constant)
        terms.append(1.0 - total / var)
    return terms


def oracle_mdcg(F, k, constant=2.0):
    return float(np.mean(oracle_terms(F, k, constant)))


BIG = UtilityConfig(max_rows=10_000)


class TestKnnIndicator:
    def test_two_points(self):
        S = knn_indicator(np.array([[0.0], [1.0]]), k=1)
        assert S.tolist() == [[0, 1], [1, 0]]

    def test_line_of_three(self):
        S = knn_indicator(np.array([[0.0], [1.0], [10.0]]), k=1)
        # 10's nearest is 1; 0 and 1 pick each other
        assert S[0, 1] == S[1, 0] == 1
        assert S[1, 2] == S[2, 1] == 1
        assert S[0, 2] == S[2, 0] == 0

    def test_zero_diagonal_and_symmetry(self, rng):
        F = rng.normal(size=(25, 3))
        S = knn_indicator(F, k=4)
        assert np.all(np.diag(S) == 0)
        assert np.array_equal(S, S.T)

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
        # lower-index tie-break is not just the generation order.
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
        # pair weights read whichever direction a pair was found in, so a
        # pair's d2 must equal its mirror's bit for bit, and the oracle's
        F = np.random.default_rng(seed).normal(size=(60, 7)) * 10.0 ** np.arange(-3, 4)
        n = len(F)
        cache = DistanceCache()
        cache.update(F, BIG)
        codes, d2 = cache.neighbours(n - 1)            # every pair
        D = np.full(n * n, np.nan)
        D[codes] = d2
        D = D.reshape(n, n)
        assert np.array_equal(D, D.T, equal_nan=True)
        assert np.isnan(np.diag(D)).all()
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(D[off], oracle_sq_dists(F)[off])


class TestMdcg:
    def test_all_constant_columns(self):
        F = np.ones((10, 3)) * 4.2
        assert mdcg(F, UtilityConfig(k_neighbors=2)) == 1.0

    def test_hand_case_two_by_two(self):
        F = np.array([[0.0, 0.0], [1.0, 1.0]])
        got = mdcg(F, UtilityConfig(k_neighbors=1))
        assert got == pytest.approx(1.0 - 8.0 * math.exp(-1.0), abs=1e-9)

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
        F = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert mdcg(F, UtilityConfig(k_neighbors=1)) < 0.0

    def test_degenerate_k_propagates(self):
        for k in (5, 0, -1):
            with pytest.raises(DegenerateK):
                mdcg(np.zeros((4, 2)), UtilityConfig(k_neighbors=k))


class TestDistanceCache:
    # (rows, max_rows): the subsample path, then the full-row path
    @pytest.mark.parametrize("n,max_rows", [(300, 120), (80, 1000)])
    def test_grown_set_matches_cold_calls(self, n, max_rows):
        F = np.random.default_rng(n).normal(size=(n, 9))
        F[:, 6] = np.exp(np.exp(F[:, 0]))
        cfg = UtilityConfig(k_neighbors=4, max_rows=max_rows, row_seed=3)
        cache = DistanceCache()
        for width in range(1, F.shape[1] + 1):
            assert mdcg(F[:, :width], cfg, cache) == mdcg(F[:, :width], cfg)
            assert np.array_equal(feature_importance(F[:, :width], cfg, cache),
                                  feature_importance(F[:, :width], cfg))

    @pytest.mark.parametrize("n,max_rows", [(300, 120), (80, 1000)])
    def test_stale_prefix_rebuilds(self, n, max_rows):
        F = np.random.default_rng(n + 1).normal(size=(n, 6))
        cfg = UtilityConfig(k_neighbors=3, max_rows=max_rows)
        cache = DistanceCache()
        mdcg(F, cfg, cache)
        assert mdcg(F[:, :3], cfg, cache) == mdcg(F[:, :3], cfg)   # shorter after longer
        mdcg(F, cfg, cache)
        changed = F.copy()
        changed[:, 1] *= 3.0                  # same width, an earlier column differs
        assert mdcg(changed, cfg, cache) == mdcg(changed, cfg)

    def test_other_row_count_or_seed_rebuilds(self):
        F = np.random.default_rng(9).normal(size=(300, 4))
        cache = DistanceCache()
        for cfg, rows in [(UtilityConfig(max_rows=100), F), (UtilityConfig(max_rows=100), F[:250]),
                          (UtilityConfig(max_rows=100, row_seed=1), F[:250]),
                          (UtilityConfig(max_rows=1000), F[:250])]:
            assert mdcg(rows, cfg, cache) == mdcg(rows, cfg)


# Columns that stress the candidate lists and the screen: integer lattices tie
# rows at their k-th distance and at a list's bound; a constant adds nothing;
# +-VALUE_CAP squares to 4e300; exp(exp(x)) reorders most rows' neighbours, so
# most lists refresh; values beyond the cap overflow d2 to inf, so rows in
# small groups have an infinite k-th distance; and near-duplicates at a large
# common offset cancel in the Gram form, so the screen must pass most rows.
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


def _neighbour_sets(codes, n):
    # row j's neighbours from the codes j * n + i
    found = [set() for _ in range(n)]
    for j, i in zip(*np.divmod(codes, n)):
        found[j].add(int(i))
    return found


def _check_neighbours(caches, F, cfg, k):
    # Each cache's neighbours of F's row subsample, and the symmetric pairs
    # the metric sums, are the oracle's, and so are their d2 bits.
    sub = F[sample_indices(F.shape[0], cfg.max_rows, cfg.row_seed)]
    n = len(sub)
    want, d2_want = oracle_knn_sets(sub, k), oracle_sq_dists(sub)
    union = sorted({c for j, near in enumerate(want) for i in near for c in (j * n + i, i * n + j)})
    for cache in caches:
        with np.errstate(over="ignore"):             # overflow columns
            codes, d2 = cache.neighbours(k)
            pairs, pair_d2 = cache.pairs(k)
        assert _neighbour_sets(codes, n) == want
        assert np.array_equal(d2, d2_want.take(codes))
        assert pairs.tolist() == union
        assert np.array_equal(pair_d2, d2_want.take(pairs))


class TestCandidateLists:
    """A DistanceCache finds neighbours from per-row candidate lists that a
    Gram screen chooses; cold and grown sets must both find the oracle's."""

    # (rows, max_rows): the subsample path and the full-row path above
    # LIST_MIN_ROWS, then a set whose lists hold every other row
    PATHS = [(400, 300), (LIST_MIN_ROWS + 44, 1000), (LIST_MIN_ROWS - 56, 1000)]

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
    @settings(max_examples=40, deadline=None)
    def test_grown_sets_match_cold_calls(self, seed, shared, branches, k, path):
        n, max_rows = path
        rng = np.random.default_rng(seed)
        cfg = UtilityConfig(k_neighbors=k, max_rows=max_rows, row_seed=seed % 7)

        def check(F, cache):
            with np.errstate(over="ignore", invalid="ignore"):    # overflow columns
                assert np.array_equal(feature_importance(F, cfg, cache),
                                      feature_importance(F, cfg), equal_nan=True)
            cold = DistanceCache()
            cold.update(F, cfg)
            _check_neighbours([cache, cold], F, cfg, k)

        F = rng.normal(size=(n, 1))
        cache = DistanceCache()
        for kind in shared:
            check(F, cache)
            F = np.column_stack([F, _column(kind, rng, n)])
        check(F, cache)
        # Two branches grown apart from one set, in turns, so that a list
        # shared between them would show.
        sets, caches = [F, F], [cache, cache.copy()]
        for kinds in branches:
            for b, kind in enumerate(kinds):
                sets[b] = np.column_stack([sets[b], _column(kind, rng, n)])
                check(sets[b], caches[b])
        # The other branch's set is no prefix of this one's: a rebuild, whose
        # next growth must not re-rank the old set's lists.
        check(sets[1], caches[0])
        check(np.column_stack([sets[1], _column(shared[0], rng, n)]), caches[0])

    def test_tie_at_the_list_bound_is_rescreened(self, monkeypatch):
        # Row 0 and rows 1..LIST_LEN share column a; row LIST_LEN + 1 sits at
        # exactly the list's bound (d2 = 9) and the other rows beyond it.
        # Column b then moves rows 1..LIST_LEN to d2 = 9 from row 0: its k-th
        # candidate equals its bound, and a refresh meets the same tie. The
        # row is screened again at that distance, so only the LIST_LEN + 1
        # rows at d2 = 9 get an exact d2, not the whole row.
        n, k = LIST_MIN_ROWS + 44, 3
        a = np.zeros(n)
        a[LIST_LEN + 1] = 3.0
        a[LIST_LEN + 2:] = 3.0 + 0.01 * np.arange(1, n - LIST_LEN - 1)
        b = np.zeros(n)
        b[1:LIST_LEN + 1] = 3.0
        cfg = UtilityConfig(k_neighbors=k)
        cache = DistanceCache()
        mdcg(a[:, None], cfg, cache)
        mdcg(np.column_stack([a, np.zeros(n)]), cfg, cache)
        assert sorted(cache.lists[0]) == list(range(1, LIST_LEN + 1))
        assert cache.outside[0] == 9.0
        rescreened = {}
        screen = DistanceCache._screen

        def recorded(self, rows, limits):
            for block, index, dist in screen(self, rows, limits):
                if limits is not None:
                    counts = np.count_nonzero(~np.isnan(dist), axis=1)
                    rescreened.update(zip(block.tolist(), zip(limits.tolist(), counts.tolist())))
                yield block, index, dist

        monkeypatch.setattr(DistanceCache, "_screen", recorded)
        F = np.column_stack([a, np.zeros(n), b])
        assert np.array_equal(feature_importance(F, cfg, cache), feature_importance(F, cfg))
        assert rescreened[0] == (9.0, LIST_LEN + 1)
        _check_neighbours([cache], F, cfg, k)
        assert _neighbour_sets(cache.neighbours(k)[0], n)[0] == {1, 2, 3}

    def test_ties_beside_fallback_rows_are_repaired(self):
        # Rows 0..49 are duplicates, more than a list holds, so each is
        # screened again and has no list members. Row 200 then has two rows
        # at its nearest distance (199 and 201, each with a closer partner of
        # its own), and the list rule must drop the higher-indexed one although
        # the members over all rows number fewer than k per row.
        n, k = LIST_MIN_ROWS + 44, 1
        x = np.zeros(n)
        x[50:] = 1000.0 + np.cumsum(np.random.default_rng(3).uniform(2.0, 3.0, n - 50))
        x[198:203] = [498.6, 499.0, 500.0, 501.0, 501.5]
        cfg = UtilityConfig(k_neighbors=k)
        cache = DistanceCache()
        mdcg(x[:, None], cfg, cache)
        F = np.column_stack([x, np.zeros(n)])
        assert np.array_equal(feature_importance(F, cfg, cache), feature_importance(F, cfg))
        _check_neighbours([cache], F, cfg, k)
        assert _neighbour_sets(cache.neighbours(k)[0], n)[200] == {199}

    def test_no_array_grows_with_the_square_of_the_rows(self):
        # The lists hold n x LIST_LEN entries; the screen works in row blocks.
        n = 1000
        rng = np.random.default_rng(4)
        F = np.column_stack([rng.normal(size=(n, 6)), np.exp(np.exp(rng.normal(size=n)))])
        cfg = UtilityConfig()
        cache = DistanceCache()
        mdcg(F[:, :6], cfg, cache)
        tracemalloc.start()
        mdcg(F, cfg, cache)                   # grown, and most lists refresh
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        held = [value for c in (cache, cache.copy()) for value in vars(c).values()
                if isinstance(value, np.ndarray)]
        assert held and max(value.size for value in held) < n * n
        assert peak < n * n * 8 // 2


def _screen_sets():
    # Sets for the Gram screen: N(0,1); columns from 1e-3 to 1e3; rows that
    # differ by 1e-7 at an offset of 1e8; +-VALUE_CAP; a lattice; 64 columns;
    # and rows from 1e-100 to 1e100.
    rng = np.random.default_rng(8)
    yield rng.normal(size=(120, 5))
    yield rng.normal(size=(120, 7)) * 10.0 ** np.arange(-3, 4)
    yield 1e8 + 1e-7 * rng.normal(size=(120, 4))
    yield rng.choice([-VALUE_CAP, 0.0, VALUE_CAP], size=(120, 6))
    yield rng.integers(0, 3, size=(120, 8)).astype(float)
    yield rng.normal(size=(120, 64))
    yield rng.normal(size=(120, 3)) * 10.0 ** rng.integers(-100, 101, size=(120, 1))


class TestGramScreen:
    @pytest.mark.parametrize("F", list(_screen_sets()))
    def test_gram_form_is_within_its_bound(self, F):
        # |approx - d2| <= delta = 4 (m + 2) eps (r_x + r_y), with d2 the
        # exact column-order sum (utility's module docstring)
        m = F.shape[1]
        norms = np.einsum("ij,ij->i", F, F)
        approx = norms[:, None] + norms[None, :] - 2.0 * (F @ F.T)
        delta = 4 * (m + 2) * np.finfo(float).eps * (norms[:, None] + norms[None, :])
        off = ~np.eye(len(F), dtype=bool)
        assert np.all(np.abs(approx - oracle_sq_dists(F))[off] <= delta[off])

    @pytest.mark.parametrize("rank", [7, 100])
    @pytest.mark.parametrize("F", list(_screen_sets()) + [
        # norms overflow, distances do not
        1e154 * (1.0 + 1e-12 * np.random.default_rng(9).normal(size=(120, 3))),
        # rows t (1, 1) 1e154: the norm overflows above t = 0.95, yet x.y
        # stays finite against rows below t = 0.45, and every d2 is finite
        1e154 * np.linspace(0.3, 1.0, 120)[:, None] * np.ones(2)])
    def test_screen_passes_every_row_within_the_limit(self, F, rank):
        # The re-screen must give an exact d2 to every row at or below the
        # row's limit, and raise no warning (pytest makes one an error).
        n = len(F)
        exact = oracle_sq_dists(F)
        np.fill_diagonal(exact, np.inf)
        limits = np.sort(exact, axis=1)[:, rank]
        cache = DistanceCache()
        cache.update(F, BIG)
        cache.neighbours(1)
        screened = [None] * n
        for block, index, dist in cache._screen(np.arange(n), limits):
            for r, idx, d in zip(block, index, dist):
                keep = ~np.isnan(d)
                screened[r] = dict(zip(idx[keep].tolist(), d[keep].tolist()))
        for r in range(n):
            within = np.flatnonzero(exact[r] <= limits[r])
            assert set(within.tolist()) <= screened[r].keys()
            assert all(screened[r][j] == exact[r, j] for j in screened[r])

    @pytest.mark.parametrize("seed", range(3))
    def test_lists_beside_overflowing_gram_values(self, seed):
        # Half the rows near +-1.35e154: their norms stay finite, but 2 x.y
        # overflows to -inf for pairs whose d2 is large. Such a value bounds
        # nothing and must not pass for a small one when the lists are built.
        rng = np.random.default_rng(seed)
        n = LIST_MIN_ROWS + 44
        F = np.where(rng.random((n, 1)) < 0.5,
                     1e154 * rng.uniform(-1.35, 1.35, size=(n, 1)), rng.normal(size=(n, 1)))
        cfg = UtilityConfig(k_neighbors=LIST_LEN)
        cache = DistanceCache()
        cache.update(F, cfg)
        _check_neighbours([cache], F, cfg, LIST_LEN)


class TestFeatureImportance:
    def test_mean_equals_mdcg_exactly(self, rng):
        F = rng.normal(size=(40, 6))
        cfg = UtilityConfig(k_neighbors=3)
        assert float(feature_importance(F, cfg).mean()) == mdcg(F, cfg)

    def test_constant_column_scores_one(self, rng):
        F = rng.normal(size=(20, 3))
        F[:, 1] = 7.0
        imp = feature_importance(F, UtilityConfig(k_neighbors=2))
        assert imp[1] == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_per_column_oracle(self, seed):
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(20, 4))
        got = feature_importance(F, UtilityConfig(k_neighbors=3, max_rows=10_000))
        want = oracle_terms(F, k=3)
        assert np.allclose(got, want, atol=1e-9)


class TestRedundancyUtility:
    def test_identical_columns(self):
        col = np.array([1.0, 2.0, 3.0, 4.0])
        assert redundancy_utility(np.column_stack([col, col])) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_columns(self):
        F = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        assert redundancy_utility(F) == pytest.approx(1.0, abs=1e-12)

    def test_single_feature_warns(self):
        with pytest.warns(UserWarning):
            assert redundancy_utility(np.ones((5, 1))) == 1.0

    def test_constant_column_counts_as_uncorrelated(self, rng):
        F = rng.normal(size=(30, 3))
        F[:, 2] = 5.0
        with np.errstate(invalid="ignore"):
            got = redundancy_utility(F)
        r01 = abs(np.corrcoef(F[:, 0], F[:, 1])[0, 1])
        assert got == pytest.approx(1.0 - (r01 + 0.0 + 0.0) * 2.0 / 6.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(10, 3))
        total = sum(abs(float(np.corrcoef(F[:, p], F[:, q])[0, 1]))
                    for p in range(3) for q in range(p + 1, 3))
        want = 1.0 - total * 2.0 / 6.0
        assert redundancy_utility(F) == pytest.approx(want, abs=1e-9)
