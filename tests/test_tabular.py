import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from neat.errors import (
    DuplicateColumnName,
    EmptyAfterCleaning,
    MissingTarget,
    TooFewRows,
)
from neat.tabular import _parse_cell, load_csv, sample_indices, train_test_folds


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_holds_out_target(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,0\n3,4,1\n5,6,0\n")
        table = load_csv(path, "y", "classification")
        assert len(table.values) == 3
        assert table.n_features == 2
        assert table.column_names == ["a", "b"]
        assert table.target.tolist() == [0.0, 1.0, 0.0]
        assert table.target_name == "y"
        assert table.dataset_id == "data"

    def test_drops_and_counts_bad_rows(self, tmp_path):
        # NaN, a word, an infinite target and a short row
        path = write(tmp_path, "a,b,y\n1,2,0\n3,nan,1\n5,6,0\n7,8,1\nx,9,0\n2,3,-inf\n4,5\n")
        table = load_csv(path, "y", "classification")
        assert len(table.values) == 3
        assert table.dropped_rows == 4
        assert table.values[:, 0].tolist() == load_csv(
            write(tmp_path, "a,b,y\n1,2,0\n5,6,0\n7,8,1\n", "clean.csv"), "y",
            "classification").values[:, 0].tolist()

    def test_whole_row_parse_matches_the_per_cell_parse(self, tmp_path):
        # A row parses with one float() per cell, and a row that raises
        # falls back to _parse_cell per cell: both keep the rows and values
        # that _parse_cell alone would, each odd cell tried in every column.
        cells = [" 1.5", "1_000", "nan", "inf", "", "1e999", "abc", "-2", "3e-3 "]
        rows = []
        for i, cell in enumerate(cells):
            for col in range(3):
                row = [str(i + 1), str(-0.5 * i), str(2.0 * i)]
                row[col] = cell
                rows.append(row)
        path = write(tmp_path, "\n".join(["a,b,y"] + [",".join(r) for r in rows]) + "\n")
        table = load_csv(path, "y", "regression")
        parsed = np.array([[_parse_cell(c) for c in row] for row in rows])
        keep = np.isfinite(parsed).all(axis=1)
        assert table.dropped_rows == int((~keep).sum()) == 15
        assert np.array_equal(table.target, parsed[keep, 2])
        features = parsed[keep, :2]
        assert np.array_equal(table.values, (features - features.mean(axis=0)) / features.std(axis=0))

    def test_missing_target(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,4\n")
        with pytest.raises(MissingTarget):
            load_csv(path, "y", "regression")

    def test_duplicate_column(self, tmp_path):
        path = write(tmp_path, "a,a,y\n1,2,0\n3,4,1\n")
        with pytest.raises(DuplicateColumnName):
            load_csv(path, "y", "regression")

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyAfterCleaning):
            load_csv(write(tmp_path, ""), "y", "regression")

    def test_all_rows_unusable(self, tmp_path):
        path = write(tmp_path, "a,y\nfoo,0\nbar,1\n")
        with pytest.raises(EmptyAfterCleaning):
            load_csv(path, "y", "regression")

    def test_no_feature_columns(self, tmp_path):
        path = write(tmp_path, "y\n1\n2\n")
        with pytest.raises(EmptyAfterCleaning):
            load_csv(path, "y", "regression")

    def test_zscore_population_stats(self, tmp_path):
        path = write(tmp_path, "a,c,y\n1,7,0\n2,7,0\n3,7,1\n6,7,1\n")
        table = load_csv(path, "y", "classification")
        col = table.values[:, 0]
        assert abs(col.mean()) < 1e-12
        assert abs(col.std() - 1.0) < 1e-12      # ddof=0
        # zero-variance column is centered only, never divided
        assert np.all(table.values[:, 1] == 0.0)

    @given(base=st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=2, max_size=8),
           k=st.integers(-1000, 1000))
    @example(base=[0.0, 1.0], k=513)        # squares overflow
    @example(base=[0.0, 1.0], k=-1000)      # the variance underflows to 0
    @settings(max_examples=60, deadline=None)
    def test_a_column_times_a_power_of_two_loads_to_the_same_bits(
            self, tmp_path_factory, base, k):
        # Only finite, normal multiples: the scaling is then exact both ways.
        assume(all(v == 0.0 or -1021 <= math.frexp(v)[1] + k <= 1024 for v in base))
        tables = []
        for column in (base, [math.ldexp(v, k) for v in base]):
            path = tmp_path_factory.mktemp("scaled") / "data.csv"
            path.write_text("a,y\n" + "".join(f"{v!r},0\n" for v in column))
            tables.append(load_csv(path, "y", "regression"))
        assert tables[0].values.tobytes() == tables[1].values.tobytes()

    def test_target_kept_raw(self, tmp_path):
        path = write(tmp_path, "a,y\n1,10\n2,20\n3,40\n")
        table = load_csv(path, "y", "regression")
        assert table.target.tolist() == [10.0, 20.0, 40.0]

    def test_load_is_idempotent(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1.5,2.25,0\n3.125,4,1\n5,6,0\n")
        t1 = load_csv(path, "y", "regression")
        t2 = load_csv(path, "y", "regression")
        assert t1.values.tobytes() == t2.values.tobytes()
        assert t1.target.tobytes() == t2.target.tobytes()

    def test_quoted_names_with_commas(self, tmp_path):
        path = write(tmp_path, '"a,plus",b,y\n1,2,0\n3,4,1\n')
        table = load_csv(path, "y", "regression")
        assert table.column_names == ["a,plus", "b"]


class TestTake:
    def test_rows_with_their_targets_in_the_load_layout(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1,2,10\n3,5,20\n4,4,30\n8,1,40\n")
        table = load_csv(path, "y", "regression")
        idx = np.array([3, 0, 3])
        sub = table.take(idx)
        assert np.array_equal(sub.values, table.values[idx])
        assert sub.target.tolist() == [40.0, 10.0, 40.0]
        assert sub.values.flags.f_contiguous
        assert not sub.values.flags.writeable and not sub.target.flags.writeable
        assert (sub.column_names, sub.task, sub.target_name, sub.dataset_id) == (
            table.column_names, table.task, table.target_name, table.dataset_id)


class TestIdentity:
    def test_a_table_equals_only_itself_and_keys_a_weak_dictionary(self, tmp_path):
        table = load_csv(write(tmp_path, "a,b,y\n1,2,0\n3,5,1\n4,4,0\n"), "y", "regression")
        copy = table.take(np.arange(3))
        assert np.array_equal(copy.values, table.values)
        assert table == table and table != copy
        assert hash(table) == hash(table) and len({table, copy, table}) == 2
        memo = weakref.WeakKeyDictionary({table: "table", copy: "copy"})
        assert (memo[table], memo[copy]) == ("table", "copy")
        del table
        gc.collect()
        assert list(memo.values()) == ["copy"]


class TestSampling:
    def test_small_n_keeps_everything(self):
        idx = sample_indices(40, max_rows=100, seed=3)
        assert idx.tolist() == list(range(40))

    def test_deterministic(self):
        a = sample_indices(40, max_rows=10, seed=1)
        b = sample_indices(40, max_rows=10, seed=1)
        assert a.tolist() == b.tolist()

    def test_sorted_distinct_in_range(self):
        idx = sample_indices(1000, 64, seed=9)
        assert len(idx) == 64
        assert len(set(idx.tolist())) == 64
        assert np.all(np.diff(idx) > 0)
        assert idx.min() >= 0 and idx.max() < 1000

    def test_seed_changes_sample(self):
        a = sample_indices(1000, 64, seed=1)
        b = sample_indices(1000, 64, seed=2)
        assert a.tolist() != b.tolist()


class TestFolds:
    def test_partition(self):
        folds = train_test_folds(40, folds=5, seed=0)
        assert len(folds) == 5
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test.tolist()) == list(range(40))
        for train, test in folds:
            assert len(test) == 8
            assert set(train.tolist()) | set(test.tolist()) == set(range(40))
            assert not set(train.tolist()) & set(test.tolist())

    def test_deterministic(self):
        a = train_test_folds(40, folds=5, seed=7)
        b = train_test_folds(40, folds=5, seed=7)
        for (tr1, te1), (tr2, te2) in zip(a, b):
            assert tr1.tolist() == tr2.tolist()
            assert te1.tolist() == te2.tolist()

    # rows that 5 folds do not divide evenly, and one count they do
    @pytest.mark.parametrize("n", [200, 256, 257])
    def test_fold_sizes_differ_by_at_most_one(self, n):
        folds = train_test_folds(n, folds=5, seed=3)
        sizes = [len(test) for _, test in folds]
        assert sum(sizes) == n and max(sizes) - min(sizes) <= 1
        assert sorted(np.concatenate([test for _, test in folds]).tolist()) == list(range(n))
        for train, test in folds:
            assert len(train) + len(test) == n

    def test_seed_changes_the_split(self):
        a = train_test_folds(40, folds=5, seed=0)
        b = train_test_folds(40, folds=5, seed=1)
        assert any(te1.tolist() != te2.tolist() for (_, te1), (_, te2) in zip(a, b))

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            train_test_folds(3, folds=5, seed=0)

    # 1 fold leaves no training rows; 0 and -1 split nothing
    @pytest.mark.parametrize("folds", [1, 0, -1])
    def test_fewer_than_two_folds_are_refused(self, folds):
        with pytest.raises(ValueError, match=rf"folds={folds}\b"):
            train_test_folds(40, folds=folds, seed=0)
