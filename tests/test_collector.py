import gc
import os
import weakref

import numpy as np
import pytest
from conftest import make_table
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from neat import collector, nn
from neat.collector import (
    STATE_WIDTH,
    CollectorConfig,
    ExplorationRecord,
    QAgent,
    ReplayBuffer,
    _advance,
    _quartiles,
    bellman_update,
    collect,
    describe_state,
    read_records,
    write_records,
)
from neat.errors import ConfigHashMismatch, MalformedRecord, SequenceTooLong
from neat.expr import (
    OP_SYMBOLS,
    OPS,
    SEGMENT_CAP,
    VALUE_CAP,
    CrossSequence,
    FeatureCross,
    FeatureSet,
    apply_sequence,
    eval_cross,
    feature_token,
    random_cross,
)
from neat.utility import DistanceCache, UtilityConfig, feature_importance, mdcg


@pytest.fixture
def small_agents(monkeypatch):
    # Small enough that the replay buffers fill within the run, so the agents
    # train and later actions depend on the TD updates.
    for name, value in (("BATCH_SIZE", 4), ("HIDDEN", 8), ("REPLAY_CAPACITY", 32),
                        ("SYNC_EVERY", 3)):
        monkeypatch.setattr(collector, name, value)


def _collect(table):
    return collect(table, episodes=3, steps=5, rng=np.random.default_rng(11))


@pytest.mark.usefixtures("small_agents")
class TestCollect:
    def test_seeded_run_repeats(self, small_table):
        first = _collect(small_table)
        assert first == _collect(small_table)
        assert [(r.episode, r.step) for r in first] == [
            (e, s) for e in range(3) for s in range(5)]

    # 40 rows: all of them, then a 30-row subsample
    @pytest.mark.parametrize("max_rows", [1000, 30])
    def test_utilities_equal_a_cold_recompute(self, small_table, max_rows):
        cfg = CollectorConfig(utility=UtilityConfig(max_rows=max_rows))
        records = collect(small_table, episodes=3, steps=5, cfg=cfg,
                          rng=np.random.default_rng(11))
        assert {rec.episode for rec in records} == {0, 1, 2}
        for rec in records:
            assert rec.utility == mdcg(apply_sequence(rec.sequence, small_table), cfg.utility)

    def test_utilities_equal_a_cold_recompute_on_candidate_lists(self, monkeypatch):
        table = make_table(np.random.default_rng(5).normal(size=(400, 5)))
        cfg = CollectorConfig(utility=UtilityConfig(max_rows=300))
        ranked = []
        rank = DistanceCache._rank

        def counted_rank(cache, rows):
            ranked.append(len(rows))
            return rank(cache, rows)

        monkeypatch.setattr(DistanceCache, "_rank", counted_rank)
        records = collect(table, episodes=3, steps=5, cfg=cfg, rng=np.random.default_rng(11))
        assert ranked.count(300) >= 1           # the lists were built ...
        assert len(ranked) > ranked.count(300)  # ... and some rows ranked again
        for rec in records:
            assert rec.utility == mdcg(apply_sequence(rec.sequence, table), cfg.utility)

    @pytest.mark.parametrize("episodes", [1, 3])
    def test_table_columns_are_scored_once_per_call(self, small_table, monkeypatch, episodes):
        builds, copies = [], []
        rank, copy = DistanceCache._rank, DistanceCache.copy

        def counted_rank(cache, rows):
            if len(rows) == cache.operand.shape[1]:     # every row: a cold build
                builds.append(cache.operand[:-2].shape)
            return rank(cache, rows)

        def counted_copy(cache):
            copies.append(cache)
            return copy(cache)

        monkeypatch.setattr(DistanceCache, "_rank", counted_rank)
        monkeypatch.setattr(DistanceCache, "copy", counted_copy)
        collect(small_table, episodes=episodes, steps=5, rng=np.random.default_rng(11))
        assert builds == [(5, 40)]             # one build, over the table's own columns
        # Every episode grows its own copy of the base cache's candidate lists.
        assert len(copies) == episodes

    def test_a_no_op_step_reuses_the_recorded_sequence(self, small_table, monkeypatch):
        # from_crosses lays out the table's columns once per call, then once
        # per step that grew the set; a no-op step records the sequence
        # that the step before it recorded, the same object.
        built, advanced = [], []
        from_crosses, advance = CrossSequence.from_crosses.__func__, collector._advance

        def counted_from_crosses(cls, crosses):
            built.append(1)
            return from_crosses(cls, crosses)

        def counted_advance(*args):
            advanced.append(advance(*args))
            return advanced[-1]

        monkeypatch.setattr(CrossSequence, "from_crosses", classmethod(counted_from_crosses))
        monkeypatch.setattr(collector, "_advance", counted_advance)
        records = collect(small_table, episodes=3, steps=8, rng=np.random.default_rng(11))
        assert 0 < sum(advanced) < len(advanced)    # both kinds of step ran
        assert len(built) == 1 + sum(advanced)
        originals = CrossSequence.from_crosses(
            [FeatureCross((feature_token(i),)) for i in range(small_table.n_features)])
        for i, (rec, grew) in enumerate(zip(records, advanced)):
            if not grew:
                before = records[i - 1].sequence if rec.step else originals
                assert rec.sequence == before
                assert rec.step == 0 or rec.sequence is before

    def test_a_grown_set_makes_no_whole_set_pass(self, monkeypatch):
        # A seeded call never calls np.percentile; each FeatureSet fills one
        # kept array, allocated once (the base set's, then one per episode's
        # copy); and a cache's listed rows change only inside _rank. 300 of
        # 400 rows, so that lists are narrower than the rows and some rows
        # are ranked again as the sets grow.
        table = make_table(np.random.default_rng(5).normal(size=(400, 5)))
        cfg = CollectorConfig(utility=UtilityConfig(max_rows=300))

        def refused(*args, **kwargs):
            raise AssertionError("np.percentile was called")

        kept = {}           # id -> (FeatureSet, every array its matrix viewed)
        add, copy_set = FeatureSet.add, FeatureSet.copy

        def seen(features):
            kept.setdefault(id(features), (features, []))[1].append(features.matrix().base)

        def watched_add(features, cross, column):
            add(features, cross, column)
            seen(features)

        def watched_copy_set(features):
            other = copy_set(features)
            seen(other)
            return other

        written, ranked = {}, []  # id -> (cache, its listed array, their values)
        rank, copy_cache = DistanceCache._rank, DistanceCache.copy

        def unchanged(cache):
            if cache.listed is not None:
                _, array, values = written[id(cache)]
                assert cache.listed is array and np.array_equal(array, values)

        def watched_rank(cache, rows):
            rank(cache, rows)
            ranked.append(len(rows))
            written[id(cache)] = (cache, cache.listed, cache.listed.copy())

        def guarded(method):
            def run(cache, *args):
                unchanged(cache)
                out = method(cache, *args)
                unchanged(cache)
                return out
            return run

        def watched_copy_cache(cache):
            other = copy_cache(cache)
            unchanged(cache)
            assert other.listed is not cache.listed
            written[id(other)] = (other, other.listed, cache.listed.copy())
            unchanged(other)
            return other

        monkeypatch.setattr(np, "percentile", refused)
        monkeypatch.setattr(FeatureSet, "add", watched_add)
        monkeypatch.setattr(FeatureSet, "copy", watched_copy_set)
        monkeypatch.setattr(DistanceCache, "_rank", watched_rank)
        monkeypatch.setattr(DistanceCache, "add", guarded(DistanceCache.add))
        monkeypatch.setattr(DistanceCache, "neighbours", guarded(DistanceCache.neighbours))
        monkeypatch.setattr(DistanceCache, "copy", watched_copy_cache)
        episodes = 3
        records = collect(table, episodes=episodes, steps=8, cfg=cfg,
                          rng=np.random.default_rng(11))
        assert len(records) == episodes * 8
        arrays = [views for _, views in kept.values()]
        assert len(arrays) == 1 + episodes
        assert all(all(a is views[0] for a in views) for views in arrays)
        assert len({id(views[0]) for views in arrays}) == 1 + episodes
        assert all(views[0].shape == (400, 2 * table.n_features) for views in arrays)
        # The lists were built once, and rows ranked again as the sets grew.
        assert ranked[0] == 300 and len(ranked) > 1 and ranked.count(300) == 1

    def test_reward_is_the_step_gain(self, small_table, monkeypatch):
        # Every push of a step carries its record's utility minus the one
        # before it in the episode; before step 0, the table's own columns.
        rewards, advance, push = [], collector._advance, ReplayBuffer.push

        def marked_advance(*args):
            rewards.append([])
            return advance(*args)

        def recorded_push(buffer, state, action, reward, *rest):
            rewards[-1].append(reward)
            push(buffer, state, action, reward, *rest)

        monkeypatch.setattr(collector, "_advance", marked_advance)
        monkeypatch.setattr(ReplayBuffer, "push", recorded_push)
        # Seed 28: the run has no-op steps (see TestAgentProtocol).
        records = collect(small_table, episodes=3, steps=5, rng=np.random.default_rng(28))
        base = mdcg(small_table.values, CollectorConfig().utility)
        assert len(rewards) == len(records)
        for i, (rec, pushed) in enumerate(zip(records, rewards)):
            previous = base if rec.step == 0 else records[i - 1].utility
            assert len(pushed) in (2, 3) and set(pushed) == {rec.utility - previous}
        assert {0.0} < {r for pushed in rewards for r in pushed}

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

    def test_a_rewrite_reads_back_the_second_contents(self, small_table, tmp_path):
        path = tmp_path / "records.tsv"
        first, second = _collect(small_table), collect(
            small_table, episodes=2, steps=4, rng=np.random.default_rng(12))
        write_records(path, first, small_table.dataset_id, seed=11, episodes=3, steps=5)
        write_records(path, second, small_table.dataset_id, seed=12, episodes=2, steps=4)
        back, header = read_records(path)
        assert (header["seed"], header["episodes"], header["steps"]) == ("12", "2", "4")
        assert _bits(back) == _bits(second)

    def test_a_hard_link_keeps_the_first_bytes(self, small_table, tmp_path):
        path, link = tmp_path / "records.tsv", tmp_path / "kept.tsv"
        records = _collect(small_table)
        write_records(path, records, small_table.dataset_id, seed=11, episodes=3, steps=5)
        first = path.read_bytes()
        os.link(path, link)
        write_records(path, records[:5], small_table.dataset_id, seed=11, episodes=1, steps=5)
        assert link.read_bytes() == first != path.read_bytes()
        assert _bits(read_records(path)[0]) == _bits(records[:5])

    def test_each_sequence_object_is_rendered_once(self, small_table, tmp_path, monkeypatch):
        records = collect(small_table, episodes=3, steps=8, rng=np.random.default_rng(11))
        objects = {id(rec.sequence) for rec in records}
        assert len(objects) < len(records)          # no-op steps share a sequence
        text, rendered = CrossSequence.text, []

        def counted_text(sequence):
            rendered.append(sequence)
            return text(sequence)

        monkeypatch.setattr(CrossSequence, "text", counted_text)
        path = tmp_path / "records.tsv"
        write_records(path, records, small_table.dataset_id, seed=11, episodes=3, steps=8)
        assert len(rendered) == len(objects)
        assert path.read_text().splitlines()[1:] == [
            f"{rec.utility!r}\t{text(rec.sequence)}" for rec in records]

    @pytest.mark.parametrize("width", [63, 64])
    def test_a_table_too_wide_for_the_token_budget_is_refused_unscored(self, monkeypatch,
                                                                       width):
        # 64 one-token crosses make a sequence of 129 tokens, past MAX_LEN.
        scored = []

        def counted_mdcg(*args):
            scored.append(args[0].shape)
            return mdcg(*args)

        monkeypatch.setattr(collector, "mdcg", counted_mdcg)
        table = make_table(np.random.default_rng(width).normal(size=(20, width)))
        if width == 64:
            with pytest.raises(SequenceTooLong):
                collect(table, episodes=1, steps=2, rng=np.random.default_rng(11))
            assert scored == []
        else:
            assert len(collect(table, episodes=1, steps=2, rng=np.random.default_rng(11))) == 2
            assert scored[0] == (20, 63)

    @staticmethod
    def _one_record():
        return [ExplorationRecord(CrossSequence.from_text("<SOS> f0 <EOS>"), 0.5, 0, 0)]

    @pytest.mark.parametrize("dataset_id", ["a\tb", "a\nb", "a\x0cb", "a\rb", "a\u2028b"])
    def test_a_dataset_id_the_header_cannot_hold_is_refused(self, tmp_path, dataset_id):
        # A tab would end the value early, and a line break would split the
        # header, so the file would not read back.
        path = tmp_path / "records.tsv"
        write_records(path, self._one_record(), "d", seed=0, episodes=1, steps=1)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="dataset_id"):
            write_records(path, self._one_record(), dataset_id, seed=0, episodes=1, steps=1)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("n,episodes,steps", [
        (0, 0, 4), (0, 1, 0), (5, 2, 3), (7, 2, 3), (1, -1, -1)])
    def test_counts_that_would_not_read_back_are_refused(self, tmp_path, n, episodes, steps):
        # read_records needs positive episodes and steps, and episodes × steps
        # records; -1 × -1 is 1, so the product alone does not decide. The
        # first case is what collect(table, 0, 4) returns.
        path = tmp_path / "records.tsv"
        write_records(path, self._one_record(), "d", seed=0, episodes=1, steps=1)
        before = path.read_bytes()
        records = self._one_record() * n
        with pytest.raises(ValueError, match="episodes"):
            write_records(path, records, "d", seed=0, episodes=episodes, steps=steps)
        assert path.read_bytes() == before

    def test_a_dataset_id_with_a_space_round_trips(self, tmp_path):
        path = tmp_path / "records.tsv"
        write_records(path, self._one_record(), "a b", seed=0, episodes=1, steps=1)
        assert read_records(path)[1]["dataset_id"] == "a b"

    def test_a_numpy_utility_round_trips(self, tmp_path):
        # repr(np.float64(0.5)) is "np.float64(0.5)" under NumPy 2
        seq = CrossSequence.from_text("<SOS> f0 <EOS>")
        path = tmp_path / "records.tsv"
        write_records(path, [ExplorationRecord(seq, np.float64(0.5), 0, 0)], "d", seed=0,
                      episodes=1, steps=1)
        [back], _ = read_records(path)
        assert back.utility == 0.5 and type(back.utility) is float


class TestAgentProtocol:
    """What each step hands the three agents, recorded from one run with
    ``small_agents``."""

    @pytest.fixture
    def steps(self, small_table, monkeypatch, small_agents):
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

        def recorded_advance(features, cross, table, distances):
            added = advance(features, cross, table, distances)
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
        collect(small_table, episodes=3, steps=5, rng=np.random.default_rng(28))
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
            binary = OPS[op].arity == 2
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
                    rows[e[1]] = min(rows[e[1]] + 1, collector.REPLAY_CAPACITY)
                elif e[0] == "update":
                    _, name, size, batch = e
                    assert size == rows[name] >= collector.BATCH_SIZE == batch
                    updated.append(name)
            # Every agent whose buffer holds a batch updates once a step, in the
            # order head, op, tail: the tail too on a unary step, with no push.
            assert updated == [name for name in ("head", "op", "tail")
                               if rows[name] >= collector.BATCH_SIZE]
            tail_updates_unpushed += "tail" in updated and ("push", "tail") not in {
                e[:2] for e in events}
        assert tail_updates_unpushed > 0


def _bits(records):
    return [(rec.sequence, rec.utility.hex(), rec.episode, rec.step) for rec in records]


@pytest.mark.usefixtures("small_agents")
class TestBaseMemo:
    """``collect`` scores a table's own columns once per table and utility
    config, and later calls on that table start from the kept base."""

    CFG = CollectorConfig(utility=UtilityConfig(max_rows=300))

    @staticmethod
    def _table():
        # 300 of 400 rows: lists narrower than the rows, so some rows are
        # ranked again as the sets grow.
        return make_table(np.random.default_rng(5).normal(size=(400, 5)))

    @pytest.fixture
    def table(self):
        return self._table()

    @pytest.fixture
    def full_ranks(self, monkeypatch):
        builds, rank = [], DistanceCache._rank

        def counted_rank(cache, rows):
            if len(rows) == cache.operand.shape[1]:     # every row: a cold build
                builds.append(cache.operand[:-2].shape)
            return rank(cache, rows)

        monkeypatch.setattr(DistanceCache, "_rank", counted_rank)
        return builds

    def _collect(self, table, seed, cfg=CFG):
        return collect(table, episodes=2, steps=6, cfg=cfg, rng=np.random.default_rng(seed))

    def test_three_calls_make_one_full_row_rank(self, table, full_ranks):
        for seed in (1, 2, 3):
            self._collect(table, seed)
        assert full_ranks == [(5, 300)]

    def test_later_calls_equal_calls_on_a_fresh_copy(self, table):
        calls = [self._collect(table, seed) for seed in (1, 2, 3)]
        for seed, records in zip((2, 3), calls[1:]):
            fresh = table.take(np.arange(len(table.values)))
            assert collector._BASES.get(fresh) is None
            assert _bits(records) == _bits(self._collect(fresh, seed))

    def test_the_base_is_never_written(self, table):
        self._collect(table, 1)
        [base] = collector._BASES[table].values()
        d = base.distances
        arrays = [base.features.matrix(), base.state, base.col_stats, d.rows,
                  d.operand, d.spread, d.keys, d.listed, d.outside]
        before = [a.copy() for a in arrays]
        provenance, seen = list(base.features.provenance), d.seen
        for seed in (2, 3):
            self._collect(table, seed)
        assert collector._BASES[table] == {self.CFG.utility: base}
        assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays, before))
        assert base.features.provenance == provenance and d.seen is seen

    def test_the_entry_dies_with_its_table(self, monkeypatch):
        monkeypatch.setattr(collector, "_BASES", weakref.WeakKeyDictionary())
        table = self._table()       # no fixture holds it
        self._collect(table, 1)
        assert len(collector._BASES) == 1
        dead = weakref.ref(table)
        del table
        gc.collect()
        assert dead() is None and len(collector._BASES) == 0

    def test_each_utility_config_has_its_own_base(self, table, full_ranks):
        other = CollectorConfig(utility=UtilityConfig(max_rows=250))
        first = self._collect(table, 1)
        records = self._collect(table, 2, other)
        assert _bits(self._collect(table, 1)) == _bits(first)
        assert full_ranks == [(5, 300), (5, 250)]
        assert set(collector._BASES[table]) == {self.CFG.utility, other.utility}
        fresh = table.take(np.arange(len(table.values)))
        assert _bits(records) == _bits(self._collect(fresh, 2, other))


@pytest.mark.usefixtures("small_agents")
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

    # a line with no tab, a blank line, a utility that is not a float or not
    # finite; a 41-token cross, an operator short of operands, a feature token
    # that int() cannot read and a token after <EOS>
    @pytest.mark.parametrize("bad", ["<SOS> f0 <EOS>", "", "high\t<SOS> f0 <EOS>",
                                     "nan\t<SOS> f0 <EOS>", "inf\t<SOS> f0 <EOS>",
                                     "-inf\t<SOS> f0 <EOS>",
                                     pytest.param("0.5\t<SOS> f0" + " sin" * 40 + " <EOS>",
                                                  id="0.5-41-token-cross"),
                                     "0.5\t<SOS> + <EOS>", "0.5\t<SOS> f0 <SEP> f\u00b2 <EOS>",
                                     "0.5\t<SOS> f0 <EOS> <PAD>"])
    def test_malformed_record_names_its_line(self, small_table, tmp_path, bad):
        path = self._write(small_table, tmp_path)
        lines = path.read_text().splitlines()
        lines[4] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecord, match=r"line 5\b"):
            read_records(path)

    def test_each_distinct_sequence_is_parsed_once(self, small_table, tmp_path, monkeypatch):
        path = self._write(small_table, tmp_path)
        texts = [line.split("\t", 1)[1] for line in path.read_text().splitlines()[1:]]
        parsed, from_text = [], CrossSequence.from_text.__func__

        def counted(cls, text):
            parsed.append(text)
            return from_text(cls, text)

        monkeypatch.setattr(CrossSequence, "from_text", classmethod(counted))
        back, _ = read_records(path)
        assert len(set(texts)) < len(texts) and sorted(parsed) == sorted(set(texts))
        for rec, text in zip(back, texts):
            assert rec.sequence.text() == text
            assert rec.sequence is back[texts.index(text)].sequence

    # None: no steps= at all, so no record's episode and step can be recovered
    @pytest.mark.parametrize("steps", ["x", "0", "-2", "", None])
    def test_bad_steps_header_names_line_1(self, small_table, tmp_path, steps):
        path = self._write(small_table, tmp_path)
        lines = path.read_text().splitlines()
        kvs = [kv for kv in lines[0].split("\t") if not kv.startswith("steps=")]
        lines[0] = "\t".join(kvs if steps is None else kvs + [f"steps={steps}"])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecord, match=r"line 1\b.*steps"):
            read_records(path)

    # None: no episodes= at all, so the record count cannot be checked
    @pytest.mark.parametrize("episodes", ["x", "0", "-2", "", None])
    def test_bad_episodes_header_names_line_1(self, small_table, tmp_path, episodes):
        path = self._write(small_table, tmp_path)
        lines = path.read_text().splitlines()
        kvs = [kv for kv in lines[0].split("\t") if not kv.startswith("episodes=")]
        lines[0] = "\t".join(kvs if episodes is None else kvs + [f"episodes={episodes}"])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecord, match=r"line 1\b.*episodes"):
            read_records(path)

    # 3 episodes of 5 steps: cut to 13 records, or grown to 16
    @pytest.mark.parametrize("keep", [13, 16])
    def test_a_record_count_other_than_episodes_times_steps_is_refused(
            self, small_table, tmp_path, keep):
        path = self._write(small_table, tmp_path)
        lines = path.read_text().splitlines()
        lines = (lines + lines[-1:])[:1 + keep]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecord, match=rf"\b{keep} records.*episodes=3.*steps=5"):
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


def _whole_matrix_stats(v):
    # Reference: the (7, m) per-column statistics of the whole matrix at once.
    q = np.percentile(v, [25.0, 50.0, 75.0], axis=0)
    return np.vstack([
        v.mean(axis=0), v.std(axis=0), v.min(axis=0), q[0], q[1], q[2], v.max(axis=0)])


def _describe_state_loop(v):
    # Reference: each row of per-column statistics summarized on its own,
    # then arcsinh-scaled.
    col_stats = _whole_matrix_stats(v)
    out = np.empty(STATE_WIDTH)
    for s in range(7):
        row = col_stats[s]
        rq = np.percentile(row, [25.0, 50.0, 75.0])
        out[s * 7:(s + 1) * 7] = (
            row.mean(), row.std(), row.min(), rq[0], rq[1], rq[2], row.max())
    return np.arcsinh(out)


def _cold(v):
    # A set seen for the first time: no column statistics known.
    return describe_state(v, np.empty((7, 0)))


class TestDescribeState:
    @pytest.mark.parametrize("shape", [(100, 32), (2000, 12), (7, 2)])
    def test_equals_the_per_row_loop(self, shape):
        v = np.random.default_rng(shape[0]).normal(size=shape)
        assert np.array_equal(_cold(v)[0], _describe_state_loop(v))

    def test_equals_the_per_row_loop_on_extreme_columns(self, small_table):
        F = _matrix(small_table, EXTREME)
        assert np.array_equal(_cold(F)[0], _describe_state_loop(F))

    @given(a=hnp.arrays(np.float64,
                        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
                        elements=st.one_of(
                            st.sampled_from([-VALUE_CAP, -1.0, 0.0, 1.0, VALUE_CAP]),
                            st.floats(-VALUE_CAP, VALUE_CAP))))
    @example(a=np.array([[3.0, -VALUE_CAP, 0.5, VALUE_CAP]]))              # one row
    @example(a=np.array([[2.0], [2.0], [-1.0], [VALUE_CAP], [2.0]]))       # one column
    @example(a=np.array([[1.0, 1.0], [1.0, 1.0], [1.0, -VALUE_CAP]]))      # ties
    @example(a=np.array([[0.1], [0.7], [1.3], [2.9], [3.1], [4.7]]))       # t = 0.25, 0.75
    @settings(max_examples=300, deadline=None)
    def test_quartiles_equal_np_percentile(self, a):
        # The one-sort quartiles are numpy's linear rule on both axes: the
        # same values (np.array_equal does not tell a zero's sign).
        for axis in (0, 1):
            got = _quartiles(a, axis)
            want = np.percentile(a, [25.0, 50.0, 75.0], axis=axis)
            assert got.shape == want.shape and np.array_equal(got, want)

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
        # Grow from a 1-column set, by one or two columns at a time. The
        # whole-matrix reference holds from 2 columns on (a 1-column set's
        # mean and std are pinned by test_one_column_sums_in_row_order).
        widths = [1]
        while widths[-1] < v.shape[1]:
            widths.append(min(v.shape[1], widths[-1] + int(rng.integers(1, 3))))
        known = np.empty((7, 0))
        for m in widths:
            state, known = describe_state(v[:, :m], known)
            cold_state, cold_known = _cold(v[:, :m])
            assert known.shape == (7, m) and not known.flags.writeable
            assert np.array_equal(known, cold_known)
            assert np.array_equal(state, cold_state)
            if m >= 2:
                assert np.array_equal(state, _describe_state_loop(v[:, :m]))

    @pytest.mark.parametrize("shape", [(2000, 24), (100, 64)])
    def test_grown_by_single_columns_equals_the_whole_matrix(self, shape):
        # Each column's statistics are computed once, when it is appended,
        # and still equal the whole matrix's at every width m >= 2.
        v = np.random.default_rng(shape[1]).normal(size=shape)
        v *= 10.0 ** np.random.default_rng(shape[0]).integers(-6, 7, size=shape[1])
        _, known = _cold(v[:, :1])
        for m in range(2, shape[1] + 1):
            state, known = describe_state(v[:, :m], known)
            assert np.array_equal(known, _whole_matrix_stats(v[:, :m]))
            assert np.array_equal(state, _describe_state_loop(v[:, :m]))

    def test_one_column_sums_in_row_order(self):
        # A 1-column set's mean and std are row-order sums over n, as every
        # column's are in a wider set. numpy sums one contiguous column
        # pairwise, so np.mean may differ here in the last place.
        x = np.random.default_rng(7).normal(size=1000) * 1e3 + 1e-3
        total = 0.0
        for value in x:
            total += value
        mean = total / len(x)
        squares = 0.0
        for value in x:
            squares += (value - mean) * (value - mean)
        _, stats = _cold(x[:, None])
        assert stats[0, 0] == mean
        assert stats[1, 0] == np.sqrt(squares / len(x))
        assert stats[0, 0] == _whole_matrix_stats(np.column_stack([x, x]))[0, 0]

    @pytest.mark.parametrize("episodes", [1, 3])
    @pytest.mark.usefixtures("small_agents")
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
        collect(small_table, episodes=episodes, steps=5, rng=np.random.default_rng(11))
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

    def test_wraps_at_capacity(self):
        buffer = ReplayBuffer(100)
        for k in range(150):
            self._push(buffer, k)
        assert (buffer.size, buffer.pos) == (100, 50)
        expected = np.array([k + 100 if k < 50 else k for k in range(100)])
        assert np.array_equal(buffer.states, np.repeat(expected[:, None], STATE_WIDTH, axis=1))
        assert np.array_equal(buffer.actions, expected)
        assert np.array_equal(buffer.rewards, -expected.astype(float))
        assert np.array_equal(buffer.next_states,
                              np.repeat(expected[:, None] + 0.5, STATE_WIDTH, axis=1))
        assert np.array_equal(buffer.next_valid, expected % 7)
        assert np.array_equal(buffer.terminal, expected % 3 == 0)

    # 3 x 5 steps: below small_agents' REPLAY_CAPACITY (32); 3 x 15: above it
    @pytest.mark.parametrize("steps", [5, 15])
    @pytest.mark.usefixtures("small_agents")
    def test_collect_sizes_each_buffer_once_from_its_step_budget(
            self, small_table, monkeypatch, steps):
        fields = ("states", "actions", "rewards", "next_states", "next_valid", "terminal")
        seen, push = {}, ReplayBuffer.push

        def recorded_push(buffer, *transition):
            arrays = [getattr(buffer, name) for name in fields]
            seen.setdefault(id(buffer), arrays)
            # The same arrays from the first push to the last.
            assert all(a is b for a, b in zip(seen[id(buffer)], arrays))
            push(buffer, *transition)

        monkeypatch.setattr(ReplayBuffer, "push", recorded_push)
        collect(small_table, episodes=3, steps=steps, rng=np.random.default_rng(11))
        rows = min(collector.REPLAY_CAPACITY, 3 * steps)
        assert len(seen) == 3                   # every agent pushed
        for arrays in seen.values():
            assert [len(a) for a in arrays] == [rows] * len(fields)
        # A budget of no steps: buffers of 0 rows, never pushed to.
        for episodes, none in ((0, steps), (3, 0)):
            assert collect(small_table, episodes=episodes, steps=none,
                           rng=np.random.default_rng(11)) == []
        assert len(seen) == 3


class TestBellmanUpdate:
    def test_targets_match_hand_computation(self, monkeypatch):
        for name, value in (("GAMMA", 0.5), ("HIDDEN", 4), ("SYNC_EVERY", 1000)):
            monkeypatch.setattr(collector, name, value)
        agent = QAgent("q", 3, collector.REPLAY_CAPACITY, np.random.default_rng(0))
        # Zero weights make every Q-value its layer-2 bias, whatever the state.
        for p in agent.online.params() + agent.target.params():
            p.value[...] = 0.0
        agent.online.layer2.b.value[...] = [0.5, -1.0, 2.0]     # online Q
        agent.target.layer2.b.value[...] = [1.0, 5.0, 3.0]      # target Q
        buffer = ReplayBuffer(8)
        s = np.zeros(STATE_WIDTH)
        buffer.push(s, 0, 1.0, s, 3, False)    # y = 1 + 0.5 * max(1, 5, 3) = 3.5
        buffer.push(s, 1, -2.0, s, 1, False)   # masked to action 0: y = -2 + 0.5 * 1 = -1.5
        buffer.push(s, 2, 0.25, s, 3, True)    # terminal: y = 0.25
        loss = bellman_update(agent, buffer.sample(3, np.random.default_rng(1)))
        diffs = np.array([0.5 - 3.5, -1.0 - -1.5, 2.0 - 0.25])
        assert loss == pytest.approx(np.mean(diffs ** 2), rel=1e-12)
        # A first Adam step moves each picked bias by lr against its TD error.
        step = agent.online.layer2.b.value - np.array([0.5, -1.0, 2.0])
        assert step == pytest.approx(-nn.ADAM_LR * np.sign(diffs), rel=1e-6)
        assert agent.updates == 1

    def test_target_syncs_every_sync_every_updates(self, monkeypatch):
        monkeypatch.setattr(collector, "SYNC_EVERY", 2)
        agent = QAgent("q", 4, 16, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for k in range(16):
            agent.buffer.push(rng.normal(size=STATE_WIDTH), k % 4, rng.normal(),
                              rng.normal(size=STATE_WIDTH), 4, k % 5 == 0)
        online, target = agent.online.params(), agent.target.params()
        synced = []
        for _ in range(3):
            bellman_update(agent, agent.buffer.sample(8, rng))
            synced.append([np.array_equal(t.value, o.value) for t, o in zip(target, online)])
        # Synced after the 2nd update only; every online param moves at each.
        assert synced == [[False] * 4, [True] * 4, [False] * 4]

    def test_loss_stays_small_on_a_wide_table(self, monkeypatch):
        # Scaled states and bounded rewards: on raw column statistics the
        # median TD loss of this run's shape reached 1e8 to 1e39.
        losses, update = [], collector.bellman_update

        def recorded(agent, batch):
            losses.append(update(agent, batch))
            return losses[-1]

        monkeypatch.setattr(collector, "bellman_update", recorded)
        table = make_table(np.random.default_rng(1).normal(size=(100, 32)))
        collect(table, episodes=16, steps=32, rng=np.random.default_rng(1))
        assert len(losses) > 1000
        assert np.median(losses) < 1e3


def _cross(text):
    return FeatureCross(tuple(text.split()))


class TestActions:
    @pytest.mark.parametrize("epsilon", [0.0, 1.0])
    @pytest.mark.usefixtures("small_agents")
    def test_select_stays_below_valid(self, epsilon):
        agent = QAgent("q", 6, collector.REPLAY_CAPACITY, np.random.default_rng(0))
        # Q-values rise with the action index, so an unmasked greedy pick
        # would always be the last action.
        agent.online.layer2.b.value[...] = 100.0 * np.arange(agent.n_actions)
        rng = np.random.default_rng(1)
        states = rng.normal(size=(20, STATE_WIDTH))
        for valid in range(1, agent.n_actions + 1):
            picked = [agent.select(state, valid, epsilon, rng) for state in states]
            assert all(0 <= action < valid for action in picked)
            if epsilon == 0.0:
                assert set(picked) == {valid - 1}

    def _features(self, table, crosses, room=1):
        features = FeatureSet(len(crosses) + room)
        for text in crosses:
            features.add(_cross(text), eval_cross(_cross(text), table))
        return features

    def _scored(self, features):
        # The set's scored cache, as collect holds it.
        utility = CollectorConfig().utility
        distances = DistanceCache(features.matrix(), utility)
        mdcg(features.matrix(), utility, distances)
        return distances

    @pytest.mark.parametrize("case", ["cap", "budget", "duplicate", "rank"])
    def test_advance_refusals_leave_the_set(self, small_table, monkeypatch, case):
        crosses, cross = ["f0", "f1", "f0 f1 +"], _cross("f2 f3 *")
        features = self._features(small_table, crosses, room=0 if case == "cap" else 1)
        distances = self._scored(features)
        if case == "cap":
            assert not features.fits(cross)
        elif case == "budget":
            cross = _cross("f2" + " sin" * SEGMENT_CAP)      # one token too many
            assert not features.fits(cross)

            def refused(*args):
                raise AssertionError("an over-budget cross was evaluated")

            monkeypatch.setattr(collector, "eval_cross", refused)
        elif case == "duplicate":
            cross = _cross("f1 f0 +")                       # bitwise equal to f0 f1 +
        else:
            cross = _cross("f0 f0 +")                       # ranks as f0 does
            column = eval_cross(cross, small_table)
            assert not any(np.array_equal(column, kept) for kept in features.matrix().T)
        provenance, matrix = list(features.provenance), features.matrix()
        fields = ("operand", "spread", "keys", "listed", "outside")
        cached = [getattr(distances, name).tobytes() for name in fields]
        seen = distances.seen
        assert _advance(features, cross, small_table, distances) is False
        assert features.provenance == provenance
        assert np.array_equal(features.matrix(), matrix)
        assert [getattr(distances, name).tobytes() for name in fields] == cached
        assert distances.seen == seen

    def test_advance_adds_one_column(self, small_table):
        features = self._features(small_table, ["f0", "f1"])
        matrix = features.matrix()
        cross = _cross("f2 f3 *")
        assert _advance(features, cross, small_table, self._scored(features)) is True
        assert features.provenance == [_cross("f0"), _cross("f1"), cross]
        assert np.array_equal(features.matrix(),
                              np.column_stack([matrix, eval_cross(cross, small_table)]))


@pytest.mark.usefixtures("small_agents")
class TestDuplicateRule:
    """A set grows only by columns that the utility keeps: a cross whose
    column ranks as a kept one does on the utility's row subsample is
    refused, like a cross that does not fit."""

    def _collect(self, table, cfg, monkeypatch, episodes, steps, seed):
        # Each step's cross, whether it fit, whether its column is a bitwise
        # duplicate of a kept one, whether it was added, and its rewards.
        steps_seen, advance, push = [], collector._advance, ReplayBuffer.push

        def recorded_advance(features, cross, table, distances):
            fits = features.fits(cross)
            full = features.n_features == 2 * table.n_features
            bitwise = fits and any(np.array_equal(eval_cross(cross, table), kept)
                                   for kept in features.matrix().T)
            added = advance(features, cross, table, distances)
            steps_seen.append(dict(cross=cross, fits=fits, full=full, bitwise=bitwise,
                                   added=added, rewards=[]))
            return added

        def recorded_push(buffer, state, action, reward, *rest):
            steps_seen[-1]["rewards"].append(reward)
            push(buffer, state, action, reward, *rest)

        monkeypatch.setattr(collector, "_advance", recorded_advance)
        monkeypatch.setattr(ReplayBuffer, "push", recorded_push)
        records = collect(table, episodes, steps, cfg, rng=np.random.default_rng(seed))
        assert len(steps_seen) == len(records)
        return records, steps_seen

    # A tall table scored on a 50-row subsample, and a wide one whose sets
    # reach the MAX_LEN token budget before their capacity.
    @pytest.mark.parametrize("shape,max_rows,episodes,steps", [
        ((120, 4), 50, 4, 12), ((30, 40), 1000, 2, 24)], ids=["tall", "wide"])
    def test_every_added_column_earns_a_term(self, monkeypatch, shape, max_rows,
                                             episodes, steps):
        table = make_table(np.random.default_rng(4).normal(size=shape))
        cfg = CollectorConfig(utility=UtilityConfig(max_rows=max_rows))
        records, steps_seen = self._collect(table, cfg, monkeypatch, episodes, steps, 1)
        originals = CrossSequence.from_crosses(
            [FeatureCross((feature_token(i),)) for i in range(table.n_features)])
        for i, (rec, seen) in enumerate(zip(records, steps_seen)):
            if not seen["added"]:
                before = records[i - 1].sequence if rec.step else originals
                assert rec.sequence is before or rec.step == 0 and rec.sequence == before
                assert set(seen["rewards"]) == {0.0}
        refused = [seen for seen in steps_seen if not seen["added"]]
        # Refused by the utility's rule alone: the column fit and was no
        # bitwise duplicate.
        assert any(seen["fits"] and not seen["bitwise"] for seen in refused)
        if shape == (30, 40):
            assert any(not seen["fits"] and not seen["full"] for seen in refused)
        d = table.n_features
        for sequence in {id(rec.sequence): rec.sequence for rec in records}.values():
            F = apply_sequence(sequence, table)
            assert F.shape[1] == len(sequence.crosses)
            assert (len(feature_importance(F, cfg.utility))
                    == len(feature_importance(F[:, :d], cfg.utility)) + F.shape[1] - d)

    def test_a_column_the_cache_keeps_the_set_keeps(self, monkeypatch):
        # x and 2x + 1 rank alike, and each has a bitwise copy: every set
        # starts from all four as given, and the cache codes x once. A column
        # that DistanceCache.add keeps is appended to the set, and one that it
        # refuses never reaches the set.
        rng = np.random.default_rng(6)
        x = rng.normal(size=40)
        table = make_table(np.column_stack([x, 2.0 * x + 1.0, x, 2.0 * x + 1.0,
                                            rng.normal(size=(40, 2))]))
        verdicts = []            # [column, kept by the cache, appended to the set]
        cache_add, set_add = DistanceCache.add, FeatureSet.add

        def watched_cache_add(cache, column):
            kept = cache_add(cache, column)
            verdicts.append([column, kept, False])
            return kept

        def watched_set_add(features, cross, column):
            set_add(features, cross, column)
            if verdicts and verdicts[-1][0] is column:
                verdicts[-1][2] = True

        monkeypatch.setattr(DistanceCache, "add", watched_cache_add)
        monkeypatch.setattr(FeatureSet, "add", watched_set_add)
        records = collect(table, 5, 8, rng=np.random.default_rng(1))
        kept = [by_set for _, by_cache, by_set in verdicts if by_cache]
        refused = [by_set for _, by_cache, by_set in verdicts if not by_cache]
        assert kept and all(kept)
        assert refused and not any(refused)
        # Some refused columns were bitwise copies of a column of the set.
        originals = table.values[:, :2].T
        assert any(any(np.array_equal(column, o) for o in originals)
                   for column, by_cache, _ in verdicts if not by_cache)
        # The bitwise copies among the table's columns start every set, and
        # the utility scores one of the four.
        d, cfg = table.n_features, CollectorConfig()
        for rec in records:
            assert [c.tokens for c in rec.sequence.crosses[:d]] == [
                (feature_token(i),) for i in range(d)]
            F = apply_sequence(rec.sequence, table)
            assert len(feature_importance(F, cfg.utility)) == F.shape[1] - 3

    def test_the_table_columns_are_kept_as_given(self, monkeypatch):
        # x and 2x + 1 rank alike: the utility scores one of them, yet every
        # set starts from both, and a cross that ranks as either is refused.
        rng = np.random.default_rng(5)
        x = rng.normal(size=40)
        table = make_table(np.column_stack([x, 2.0 * x + 1.0, rng.normal(size=(40, 2))]))
        dense = np.unique(x, return_inverse=True)[1]
        assert np.array_equal(np.unique(table.values[:, 1], return_inverse=True)[1], dense)
        cfg = CollectorConfig()
        records, steps_seen = self._collect(table, cfg, monkeypatch, 5, 8, 1)
        d = table.n_features
        originals = [FeatureCross((feature_token(i),)) for i in range(d)]
        for rec in records:
            assert list(rec.sequence.crosses[:d]) == originals
            F = apply_sequence(rec.sequence, table)
            assert len(feature_importance(F, cfg.utility)) == F.shape[1] - 1
        ranks_as_x = [seen for seen in steps_seen if seen["fits"] and np.array_equal(
            np.unique(eval_cross(seen["cross"], table), return_inverse=True)[1], dense)]
        assert ranks_as_x and not any(seen["added"] for seen in ranks_as_x)
