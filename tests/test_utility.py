import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neat import utility
from neat.errors import DegenerateK
from neat.expr import VALUE_CAP
from neat.utility import (
    LIST_LEN,
    LIST_MIN_ROWS,
    DistanceCache,
    UtilityConfig,
    _knn_membership,
    _pair_codes,
    _pairwise_sq_dists,
    feature_importance,
    mdcg,
    redundancy_utility,
)


# -- independent reference implementations, deliberately written as plain loops --

def oracle_knn_sets(F, k):
    n = F.shape[0]
    out = []
    for j in range(n):
        dists = sorted(
            (float(((F[i] - F[j]) ** 2).sum()), i) for i in range(n) if i != j)
        out.append({i for _, i in dists[:k]})
    return out


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
    S = np.zeros(n * n, dtype=np.int8)
    S[_pair_codes(_knn_membership(_pairwise_sq_dists(F), k), n)] = 1
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
        # the row-wise k-th-distance partition relies on d2 == d2.T bit for bit
        F = np.random.default_rng(seed).normal(size=(60, 7)) * 10.0 ** np.arange(-3, 4)
        d2 = _pairwise_sq_dists(F)
        assert np.array_equal(d2, d2.T)
        assert np.all(np.diag(d2) == np.inf)


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


# Columns that stress the candidate lists: integer lattices tie rows at their
# k-th distance and at a list's bound; a constant adds nothing; +-VALUE_CAP
# squares to 4e300; exp(exp(x)) reorders most rows' neighbours, so most lists
# refresh; and values beyond the cap overflow d2 to inf, so rows in small
# groups have an infinite k-th distance.
COLUMN_KINDS = ("normal", "lattice", "constant", "cap", "expexp", "overflow")


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
    return np.exp(np.exp(rng.normal(size=n)))


def _neighbour_sets(codes, n):
    # row j's neighbours from the codes j * n + i
    found = [set() for _ in range(n)]
    for j, i in zip(*np.divmod(codes, n)):
        found[j].add(int(i))
    return found


class TestCandidateLists:
    """A DistanceCache above LIST_MIN_ROWS re-ranks per-row candidate lists
    on grown sets; the result must equal a cold call bit for bit."""

    # (rows, max_rows): the subsample path, then the full-row path; both
    # above the row count where the lists are used
    PATHS = [(400, 300), (LIST_MIN_ROWS + 44, 1000)]

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
    @settings(max_examples=40, deadline=None)
    def test_grown_sets_match_cold_calls(self, seed, shared, branches, k, path):
        n, max_rows = path
        assert min(n, max_rows) > LIST_MIN_ROWS
        rng = np.random.default_rng(seed)
        cfg = UtilityConfig(k_neighbors=k, max_rows=max_rows, row_seed=seed % 7)

        def check(F, cache):
            with np.errstate(over="ignore", invalid="ignore"):    # overflow columns
                assert np.array_equal(feature_importance(F, cfg, cache),
                                      feature_importance(F, cfg), equal_nan=True)
            # the same neighbour sets as the full-row rule, not only the same sums
            assert np.array_equal(np.sort(cache.neighbours(k)),
                                  utility._knn_membership(cache.d2, k))

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
        assert (caches[0].lists is not None) == (k < LIST_LEN)
        # The other branch's set is no prefix of this one's: a rebuild, whose
        # next growth must not re-rank the old set's lists.
        check(sets[1], caches[0])
        check(np.column_stack([sets[1], _column(shared[0], rng, n)]), caches[0])

    def test_tie_at_the_list_bound_falls_back_to_the_full_row(self, monkeypatch):
        # Row 0 and rows 1..LIST_LEN share column a; row LIST_LEN + 1 sits at
        # exactly the list's bound (d2 = 9) and the other rows beyond it.
        # Column b then moves rows 1..LIST_LEN to d2 = 9 from row 0: its k-th
        # candidate equals its bound, a refresh meets the same tie, and the
        # row takes the full-row rule.
        n, k = LIST_MIN_ROWS + 44, 3
        a = np.zeros(n)
        a[LIST_LEN + 1] = 3.0
        a[LIST_LEN + 2:] = 3.0 + 0.01 * np.arange(1, n - LIST_LEN - 1)
        b = np.zeros(n)
        b[1:LIST_LEN + 1] = 3.0
        cfg = UtilityConfig(k_neighbors=k)
        cache = DistanceCache()
        mdcg(a[:, None], cfg, cache)
        mdcg(np.column_stack([a, np.zeros(n)]), cfg, cache)      # builds the lists
        assert sorted(cache.lists[0] % n) == list(range(1, LIST_LEN + 1))
        assert cache.outside[0] == 9.0
        full_rows = []
        knn = utility._knn_membership

        def recorded(d2, k, rows=None):
            full_rows.append(rows)
            return knn(d2, k, rows)

        monkeypatch.setattr(utility, "_knn_membership", recorded)
        F = np.column_stack([a, np.zeros(n), b])
        assert np.array_equal(feature_importance(F, cfg, cache), feature_importance(F, cfg))
        assert 0 in full_rows[0]
        codes = cache.neighbours(k)
        assert 0 in full_rows[-1]
        found = _neighbour_sets(codes, n)
        assert found == oracle_knn_sets(F, k)
        assert found[0] == {1, 2, 3}

    def test_ties_beside_fallback_rows_are_repaired(self):
        # Rows 0..49 are duplicates, more than a list holds, so each takes the
        # full-row rule and has no list members. Row 200 then has two rows at
        # its nearest distance (199 and 201, each with a closer partner of
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
        assert cache.lists is not None
        codes = cache.neighbours(k)
        found = _neighbour_sets(codes, n)
        assert found == oracle_knn_sets(F, k)
        assert found[200] == {199}


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
