import dataclasses

import numpy as np
import pytest

from neat import utility
from neat.collector import (
    LEARNING_RATE,
    STATE_WIDTH,
    CollectorConfig,
    QAgent,
    ReplayBuffer,
    bellman_update,
    collect,
    describe_state,
    read_records,
    write_records,
)
from neat.errors import ConfigHashMismatch
from neat.expr import VALUE_CAP, FeatureCross, apply_sequence, eval_cross
from neat.utility import DistanceCache, UtilityConfig, mdcg

# Small enough that the replay buffers fill within the run, so the agents
# train and later actions depend on the TD updates.
SMALL = CollectorConfig(batch_size=4, hidden=8, replay_capacity=32, sync_every=3)


def _collect(table):
    return collect(table, episodes=3, steps=5, cfg=SMALL, rng=np.random.default_rng(11))


class TestCollect:
    def test_seeded_run_repeats(self, small_table):
        first = _collect(small_table)
        assert first == _collect(small_table)
        assert [(r.episode, r.step) for r in first] == [
            (e, s) for e in range(3) for s in range(5)]

    # 40 rows: all of them, then a 30-row subsample
    @pytest.mark.parametrize("max_rows", [1000, 30])
    def test_utilities_equal_a_cold_recompute(self, small_table, max_rows):
        cfg = dataclasses.replace(SMALL, utility=UtilityConfig(max_rows=max_rows))
        records = collect(small_table, episodes=3, steps=5, cfg=cfg,
                          rng=np.random.default_rng(11))
        assert {rec.episode for rec in records} == {0, 1, 2}
        for rec in records:
            assert rec.utility == mdcg(apply_sequence(rec.sequence, small_table), cfg.utility)

    @pytest.mark.parametrize("episodes", [1, 3])
    def test_table_columns_are_scored_once_per_call(self, small_table, monkeypatch, episodes):
        builds, copies = [], []
        build, copy = utility._pairwise_sq_dists, DistanceCache.copy

        def counted_build(v):
            builds.append(v.shape)
            return build(v)

        def counted_copy(cache):
            copies.append(cache)
            return copy(cache)

        monkeypatch.setattr(utility, "_pairwise_sq_dists", counted_build)
        monkeypatch.setattr(DistanceCache, "copy", counted_copy)
        collect(small_table, episodes=episodes, steps=5, cfg=SMALL,
                rng=np.random.default_rng(11))
        assert builds == [(40, 5)]             # one build, over the table's own columns
        # The last episode takes the base cache, so a one-episode call copies
        # no distance matrix.
        assert len(copies) == episodes - 1

    def test_record_file_round_trip(self, small_table, tmp_path):
        records = _collect(small_table)
        path = tmp_path / "records.tsv"
        write_records(path, records, small_table.dataset_id, seed=11, episodes=3, steps=5)
        back, header = read_records(path)
        assert header["dataset_id"] == small_table.dataset_id
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert b.sequence == a.sequence
            assert repr(b.utility) == repr(a.utility)
            assert (b.episode, b.step) == (a.episode, a.step)


class TestRecordHeader:
    def _write(self, table, tmp_path):
        path = tmp_path / "records.tsv"
        write_records(path, _collect(table), table.dataset_id, seed=11, episodes=3, steps=5)
        return path

    def test_other_op_set_is_refused(self, small_table, tmp_path):
        path = self._write(small_table, tmp_path)
        lines = path.read_text().splitlines()
        header = "\t".join("opset=000000000000" if kv.startswith("opset=") else kv
                           for kv in lines[0].split("\t"))
        path.write_text("\n".join([header] + lines[1:]) + "\n")
        with pytest.raises(ConfigHashMismatch):
            read_records(path)

    def test_empty_file_is_refused(self, tmp_path):
        path = tmp_path / "records.tsv"
        path.write_text("")
        with pytest.raises(ConfigHashMismatch):
            read_records(path)

    def test_headerless_file_is_refused(self, small_table, tmp_path):
        path = self._write(small_table, tmp_path)
        path.write_text("\n".join(path.read_text().splitlines()[1:]) + "\n")
        with pytest.raises(ConfigHashMismatch):
            read_records(path)


def _matrix(table, crosses):
    return np.column_stack([eval_cross(FeatureCross(tuple(c.split())), table) for c in crosses])


# Columns near the evaluator's limits: exp(exp(x)) up to e^50, and repeated
# squares clamped at VALUE_CAP, of both signs.
EXTREME = ("f0 exp exp", "f1 exp exp exp", "f0 exp exp f1 exp exp -",
           "f2 exp exp exp square square square", "f4 f3 exp exp exp square square square -",
           "f4")


def _describe_state_loop(v):
    # Reference: each row of per-column statistics summarized on its own.
    q = np.percentile(v, [25.0, 50.0, 75.0], axis=0)
    col_stats = np.vstack([
        v.mean(axis=0), v.std(axis=0), v.min(axis=0), q[0], q[1], q[2], v.max(axis=0)])
    out = np.empty(STATE_WIDTH)
    for s in range(7):
        row = col_stats[s]
        rq = np.percentile(row, [25.0, 50.0, 75.0])
        out[s * 7:(s + 1) * 7] = (
            row.mean(), row.std(), row.min(), rq[0], rq[1], rq[2], row.max())
    return out


class TestDescribeState:
    @pytest.mark.parametrize("shape", [(100, 32), (2000, 12), (7, 2)])
    def test_equals_the_per_row_loop(self, shape):
        v = np.random.default_rng(shape[0]).normal(size=shape)
        assert np.array_equal(describe_state(v), _describe_state_loop(v))

    def test_equals_the_per_row_loop_on_extreme_columns(self, small_table):
        F = _matrix(small_table, EXTREME)
        assert np.array_equal(describe_state(F), _describe_state_loop(F))

    def test_width(self, small_table):
        assert describe_state(_matrix(small_table, ["f0", "f1 f2 *"])).shape == (STATE_WIDTH,)
        assert describe_state(_matrix(small_table, EXTREME)).shape == (STATE_WIDTH,)

    def test_finite_on_extreme_columns(self, small_table):
        F = _matrix(small_table, EXTREME)
        assert F.max() == VALUE_CAP and F.min() == -VALUE_CAP
        assert np.all(np.isfinite(describe_state(F)))

    @pytest.mark.parametrize("seed", range(3))
    def test_column_permutation_invariance(self, small_table, seed):
        F = _matrix(small_table, ["f0", "f1", "f2 f3 *", "f4 exp", "f0 sin", "f1 square"])
        perm = np.random.default_rng(seed).permutation(F.shape[1])
        np.testing.assert_allclose(describe_state(F[:, perm]), describe_state(F),
                                   rtol=1e-12, atol=1e-12)


class TestReplayBuffer:
    @staticmethod
    def _push(buffer, k):
        buffer.push(np.full(STATE_WIDTH, float(k)), k, -float(k),
                    np.full(STATE_WIDTH, k + 0.5), k % 7, k % 3 == 0)

    def test_storage_follows_pushes_not_capacity(self):
        buffer = ReplayBuffer(4096)
        assert len(buffer.states) == 0
        for k in range(3):
            self._push(buffer, k)
        assert len(buffer.states) == ReplayBuffer.MIN_ROWS
        for k in range(3, ReplayBuffer.MIN_ROWS + 1):
            self._push(buffer, k)
        assert len(buffer.states) == 2 * ReplayBuffer.MIN_ROWS
        assert buffer.size == ReplayBuffer.MIN_ROWS + 1

    def test_growth_keeps_rows_and_wraps_at_capacity(self):
        buffer = ReplayBuffer(100)
        for k in range(150):
            self._push(buffer, k)
        assert (buffer.size, buffer.pos) == (100, 50)
        expected = np.array([k + 100 if k < 50 else k for k in range(100)])
        for name in ReplayBuffer.FIELDS:
            assert len(getattr(buffer, name)) == 100
        assert np.array_equal(buffer.states[:, 0], expected)
        assert np.array_equal(buffer.actions, expected)
        assert np.array_equal(buffer.rewards, -expected.astype(float))
        assert np.array_equal(buffer.next_states[:, -1], expected + 0.5)
        assert np.array_equal(buffer.next_valid, expected % 7)
        assert np.array_equal(buffer.terminal, expected % 3 == 0)


class TestBellmanUpdate:
    def test_targets_match_hand_computation(self):
        cfg = CollectorConfig(gamma=0.5, hidden=4, sync_every=1000)
        agent = QAgent("q", 3, cfg, np.random.default_rng(0))
        # Zero weights make every Q-value its layer-2 bias, whatever the state.
        for layer in (agent.d1, agent.d2, agent.t1, agent.t2):
            layer.W.value[...] = 0.0
            layer.b.value[...] = 0.0
        agent.d2.b.value[...] = [0.5, -1.0, 2.0]     # online Q
        agent.t2.b.value[...] = [1.0, 5.0, 3.0]      # target Q
        buffer = ReplayBuffer(8)
        s = np.zeros(STATE_WIDTH)
        buffer.push(s, 0, 1.0, s, 3, False)    # y = 1 + 0.5 * max(1, 5, 3) = 3.5
        buffer.push(s, 1, -2.0, s, 1, False)   # masked to action 0: y = -2 + 0.5 * 1 = -1.5
        buffer.push(s, 2, 0.25, s, 3, True)    # terminal: y = 0.25
        loss = bellman_update(agent, buffer.sample(3, np.random.default_rng(1)))
        diffs = np.array([0.5 - 3.5, -1.0 - -1.5, 2.0 - 0.25])
        assert loss == pytest.approx(np.mean(diffs ** 2), rel=1e-12)
        # A first Adam step moves each picked bias by lr against its TD error.
        step = agent.d2.b.value - np.array([0.5, -1.0, 2.0])
        assert step == pytest.approx(-LEARNING_RATE * np.sign(diffs), rel=1e-6)
        assert agent.updates == 1
