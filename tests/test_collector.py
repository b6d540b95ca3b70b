import dataclasses

import numpy as np
import pytest
from conftest import make_table

from neat import collector, utility
from neat.collector import (
    LEARNING_RATE,
    STATE_WIDTH,
    CollectorConfig,
    QAgent,
    ReplayBuffer,
    _advance,
    bellman_update,
    collect,
    describe_state,
    read_records,
    write_records,
)
from neat.errors import ConfigHashMismatch, MalformedRecord
from neat.expr import (
    OP_SYMBOLS,
    OPCODES,
    SEGMENT_CAP,
    VALUE_CAP,
    FeatureCross,
    FeatureSet,
    apply_sequence,
    eval_cross,
    random_cross,
)
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

    def test_utilities_equal_a_cold_recompute_on_candidate_lists(self, monkeypatch):
        # 300 subsampled rows: above LIST_MIN_ROWS, so grown sets re-rank the
        # cache's candidate lists instead of whole rows.
        table = make_table(np.random.default_rng(5).normal(size=(400, 5)))
        cfg = dataclasses.replace(SMALL, utility=UtilityConfig(max_rows=300))
        assert cfg.utility.max_rows > utility.LIST_MIN_ROWS
        refreshed = []
        refresh = DistanceCache._refresh

        def counted_refresh(cache, rows):
            refreshed.append(len(rows))
            return refresh(cache, rows)

        monkeypatch.setattr(DistanceCache, "_refresh", counted_refresh)
        records = collect(table, episodes=3, steps=5, cfg=cfg, rng=np.random.default_rng(11))
        assert refreshed.count(300) >= 1        # the lists were built ...
        assert len(refreshed) > refreshed.count(300)    # ... and some rows refreshed
        for rec in records:
            assert rec.utility == mdcg(apply_sequence(rec.sequence, table), cfg.utility)

    @pytest.mark.parametrize("episodes", [1, 3])
    def test_table_columns_are_scored_once_per_call(self, small_table, monkeypatch, episodes):
        builds, copies = [], []
        refresh, copy = DistanceCache._refresh, DistanceCache.copy

        def counted_refresh(cache, rows):
            if len(rows) == len(cache.columns):         # every row: a cold build
                builds.append(cache.columns.shape)
            return refresh(cache, rows)

        def counted_copy(cache):
            copies.append(cache)
            return copy(cache)

        monkeypatch.setattr(DistanceCache, "_refresh", counted_refresh)
        monkeypatch.setattr(DistanceCache, "copy", counted_copy)
        collect(small_table, episodes=episodes, steps=5, cfg=SMALL,
                rng=np.random.default_rng(11))
        assert builds == [(40, 5)]             # one build, over the table's own columns
        # Every episode grows its own copy of the base cache's candidate lists.
        assert len(copies) == episodes

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


class TestAgentProtocol:
    """What each step hands the three agents, recorded from one ``SMALL`` run."""

    @pytest.fixture
    def steps(self, small_table, monkeypatch):
        agents, events = {}, []
        init, select, push = QAgent.__init__, QAgent.select, ReplayBuffer.push
        advance, update = collector._advance, collector.bellman_update

        def named_init(agent, name, *args):
            init(agent, name, *args)
            agents[id(agent)], agents[id(agent.buffer)] = name, name

        def recorded_select(agent, state, valid, epsilon, rng):
            action = select(agent, state, valid, epsilon, rng)
            events.append(("select", agents[id(agent)], state, action))
            return action

        def recorded_advance(features, cross, table, max_features):
            added = advance(features, cross, table, max_features)
            events.append(("advance", added, features.n_features, cross))
            return added

        def recorded_push(buffer, *transition):
            push(buffer, *transition)
            events.append(("push", agents[id(buffer)], transition))

        def recorded_update(agent, batch):
            events.append(("update", agents[id(agent)], agent.buffer.size, len(batch[0])))
            return update(agent, batch)

        monkeypatch.setattr(QAgent, "__init__", named_init)
        monkeypatch.setattr(QAgent, "select", recorded_select)
        monkeypatch.setattr(ReplayBuffer, "push", recorded_push)
        monkeypatch.setattr(collector, "_advance", recorded_advance)
        monkeypatch.setattr(collector, "bellman_update", recorded_update)
        # Seed 28: the run has unary, binary and no-op steps, and the tail
        # agent's buffer fills in time to update on some unary steps.
        collect(small_table, episodes=3, steps=5, cfg=SMALL, rng=np.random.default_rng(28))
        # A step's events start at its head agent's select.
        starts = [i for i, e in enumerate(events) if e[:2] == ("select", "head")]
        return [events[a:b] for a, b in zip(starts, starts[1:] + [len(events)])]

    def test_each_agent_pushes_what_it_chose(self, steps):
        assert len(steps) == 3 * 5
        saw_unary = saw_binary = saw_noop = False
        for k, events in enumerate(steps):
            selects = {e[1]: e for e in events if e[0] == "select"}
            [(_, added, n_after, cross)] = [e for e in events if e[0] == "advance"]
            pushes = {}
            for e in events:
                if e[0] == "push":
                    assert e[1] not in pushes          # at most one push per agent
                    pushes[e[1]] = e[2]
            op = OP_SYMBOLS[selects["op"][3]]
            assert cross.tokens[-1] == op
            binary = OPCODES[op].arity == 2
            saw_binary |= binary
            saw_unary |= not binary
            acted = ["head", "op", "tail"] if binary else ["head", "op"]
            assert list(selects) == acted
            assert sorted(pushes) == sorted(acted)
            for name in acted:
                state, action, _, next_state, valid, terminal = pushes[name]
                assert state is selects[name][2]
                assert action == selects[name][3]
                assert valid == (len(OP_SYMBOLS) if name == "op" else n_after)
                assert terminal == (k % 5 == 4)
                if not added:
                    saw_noop = True
                    assert np.array_equal(next_state, state)
        assert saw_unary and saw_binary and saw_noop

    def test_updates_follow_pushes_in_agent_order(self, steps):
        rows = {"head": 0, "op": 0, "tail": 0}
        tail_updates_unpushed = 0
        for events in steps:
            updated = []
            for e in events:
                if e[0] == "push":
                    assert e[1] not in updated          # no update before its own push
                    rows[e[1]] = min(rows[e[1]] + 1, SMALL.replay_capacity)
                elif e[0] == "update":
                    _, name, size, batch = e
                    assert size == rows[name] >= SMALL.batch_size == batch
                    updated.append(name)
            # Every agent whose buffer holds a batch updates once a step, in the
            # order head, op, tail: the tail too on a unary step, with no push.
            assert updated == [name for name in ("head", "op", "tail")
                               if rows[name] >= SMALL.batch_size]
            tail_updates_unpushed += "tail" in updated and ("push", "tail") not in {
                e[:2] for e in events}
        assert tail_updates_unpushed > 0


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

    # a line with no tab, a blank line, a utility that is not a float or not finite
    @pytest.mark.parametrize("bad", ["<SOS> f0 <EOS>", "", "high\t<SOS> f0 <EOS>",
                                     "nan\t<SOS> f0 <EOS>", "inf\t<SOS> f0 <EOS>",
                                     "-inf\t<SOS> f0 <EOS>"])
    def test_malformed_record_names_its_line(self, small_table, tmp_path, bad):
        path = self._write(small_table, tmp_path)
        lines = path.read_text().splitlines()
        lines[4] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecord, match=r"line 5\b"):
            read_records(path)

    @pytest.mark.parametrize("steps", ["x", "0", "-2", ""])
    def test_bad_steps_header_names_line_1(self, small_table, tmp_path, steps):
        path = self._write(small_table, tmp_path)
        lines = path.read_text().splitlines()
        lines[0] = "\t".join(f"steps={steps}" if kv.startswith("steps=") else kv
                              for kv in lines[0].split("\t"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecord, match=r"line 1\b.*steps"):
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


def _cold(v):
    # A set seen for the first time: no column summaries known.
    return describe_state(v, np.empty((5, 0)))


class TestDescribeState:
    @pytest.mark.parametrize("shape", [(100, 32), (2000, 12), (7, 2)])
    def test_equals_the_per_row_loop(self, shape):
        v = np.random.default_rng(shape[0]).normal(size=shape)
        assert np.array_equal(_cold(v)[0], _describe_state_loop(v))

    def test_equals_the_per_row_loop_on_extreme_columns(self, small_table):
        F = _matrix(small_table, EXTREME)
        assert np.array_equal(_cold(F)[0], _describe_state_loop(F))

    def test_width(self, small_table):
        assert _cold(_matrix(small_table, ["f0", "f1 f2 *"]))[0].shape == (STATE_WIDTH,)
        assert _cold(_matrix(small_table, EXTREME))[0].shape == (STATE_WIDTH,)

    def test_finite_on_extreme_columns(self, small_table):
        F = _matrix(small_table, EXTREME)
        assert F.max() == VALUE_CAP and F.min() == -VALUE_CAP
        assert np.all(np.isfinite(_cold(F)[0]))

    @pytest.mark.parametrize("seed", range(3))
    def test_column_permutation_invariance(self, small_table, seed):
        F = _matrix(small_table, ["f0", "f1", "f2 f3 *", "f4 exp", "f0 sin", "f1 square"])
        perm = np.random.default_rng(seed).permutation(F.shape[1])
        np.testing.assert_allclose(_cold(F[:, perm])[0], _cold(F)[0],
                                   rtol=1e-12, atol=1e-12)

    # 40 rows, and the table's first 2 rows
    @pytest.mark.parametrize("rows", [40, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_grown_equals_cold(self, small_table, rows, seed):
        table = make_table(small_table.values[:rows])
        rng = np.random.default_rng(seed)
        columns = [eval_cross(random_cross(5, 4, rng), table) for _ in range(14)]
        columns += [_matrix(table, [cross])[:, 0] for cross in EXTREME]
        columns.append(np.full(rows, 3.0))
        order = rng.permutation(len(columns))
        v = np.column_stack([columns[i] for i in order])
        # Grow from a 1-column set, by one or two columns at a time.
        widths = [1]
        while widths[-1] < v.shape[1]:
            widths.append(min(v.shape[1], widths[-1] + int(rng.integers(1, 3))))
        known = np.empty((5, 0))
        for m in widths:
            state, known = describe_state(v[:, :m], known)
            cold_state, cold_known = _cold(v[:, :m])
            assert known.shape == (5, m) and not known.flags.writeable
            assert np.array_equal(known, cold_known)
            assert np.array_equal(state, cold_state)
            assert np.array_equal(state, _describe_state_loop(v[:, :m]))

    @pytest.mark.parametrize("episodes", [1, 3])
    def test_every_state_is_a_cold_state(self, small_table, monkeypatch, episodes):
        describe, known_widths = collector.describe_state, []

        def checked(v, known):
            state, summaries = describe(v, known)
            cold_state, cold_summaries = _cold(v)
            assert np.array_equal(state, cold_state)
            assert np.array_equal(summaries, cold_summaries)
            known_widths.append((known.shape[1], v.shape[1]))
            return state, summaries

        monkeypatch.setattr(collector, "describe_state", checked)
        collect(small_table, episodes=episodes, steps=5, cfg=SMALL,
                rng=np.random.default_rng(11))
        # The table's columns are summarized once; every later call summarizes
        # only the column its step appended.
        assert known_widths[0] == (0, small_table.n_features)
        assert len(known_widths) > 1
        assert all(j == m - 1 for j, m in known_widths[1:])


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


def _cross(text):
    return FeatureCross(tuple(text.split()))


class TestActions:
    @pytest.mark.parametrize("epsilon", [0.0, 1.0])
    def test_select_stays_below_valid(self, epsilon):
        agent = QAgent("q", 6, SMALL, np.random.default_rng(0))
        # Q-values rise with the action index, so an unmasked greedy pick
        # would always be the last action.
        agent.d2.b.value[...] = 100.0 * np.arange(agent.n_actions)
        rng = np.random.default_rng(1)
        states = rng.normal(size=(20, STATE_WIDTH))
        for valid in range(1, agent.n_actions + 1):
            picked = [agent.select(state, valid, epsilon, rng) for state in states]
            assert all(0 <= action < valid for action in picked)
            if epsilon == 0.0:
                assert set(picked) == {valid - 1}

    def _features(self, table, crosses):
        features = FeatureSet()
        for text in crosses:
            assert features.add(_cross(text), eval_cross(_cross(text), table))
        return features

    @pytest.mark.parametrize("case", ["cap", "budget", "duplicate"])
    def test_advance_refusals_leave_the_set(self, small_table, monkeypatch, case):
        features = self._features(small_table, ["f0", "f1", "f0 f1 +"])
        max_features, cross = 10, _cross("f2 f3 *")
        if case == "cap":
            max_features = features.n_features
        elif case == "budget":
            cross = _cross("f2" + " sin" * SEGMENT_CAP)      # one token too many
            assert not features.fits(cross)

            def refused(*args):
                raise AssertionError("an over-budget cross was evaluated")

            monkeypatch.setattr(collector, "eval_cross", refused)
        else:
            cross = _cross("f1 f0 +")                       # bitwise equal to f0 f1 +
        provenance, matrix = list(features.provenance), features.matrix()
        assert _advance(features, cross, small_table, max_features) is False
        assert features.provenance == provenance
        assert np.array_equal(features.matrix(), matrix)

    def test_advance_adds_one_column(self, small_table):
        features = self._features(small_table, ["f0", "f1"])
        matrix = features.matrix()
        cross = _cross("f2 f3 *")
        assert _advance(features, cross, small_table, 3) is True
        assert features.provenance == [_cross("f0"), _cross("f1"), cross]
        assert np.array_equal(features.matrix(),
                              np.column_stack([matrix, eval_cross(cross, small_table)]))
