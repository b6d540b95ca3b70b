import numpy as np
import pytest

from neat.collector import (
    STATE_WIDTH,
    CollectorConfig,
    QAgent,
    ReplayBuffer,
    bellman_update,
    collect,
    read_records,
    write_records,
)
from neat.errors import ConfigHashMismatch

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
        assert step == pytest.approx(-cfg.lr * np.sign(diffs), rel=1e-6)
        assert agent.updates == 1
