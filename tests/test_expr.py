import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neat import expr
from neat.errors import (
    EmptySegment,
    FeatureIndexOutOfRange,
    InvalidPostfix,
    MissingEOS,
    MissingSOS,
    NeatError,
    SequenceTooLong,
)
from neat.expr import (
    EOS,
    MAX_LEN,
    SEGMENT_CAP,
    SEP,
    SOS,
    CrossSequence,
    FeatureCross,
    FeatureSet,
    apply_sequence,
    eval_cross,
    random_cross,
    render_infix,
)

from conftest import clamp_range_table, make_table


def cross(*tokens):
    return FeatureCross(tuple(tokens))


class TestEvalCross:
    def test_addition(self):
        table = make_table(np.array([[1.0, 3.0], [2.0, 4.0]]))
        out = eval_cross(cross("f0", "f1", "+"), table)
        assert out.tolist() == [4.0, 6.0]

    def test_mixed_expression(self):
        # sin(f0+f1)/f2 - f3 at f0=f1=0, f2=1, f3=1
        table = make_table(np.array([[0.0, 0.0, 1.0, 1.0]]))
        out = eval_cross(cross("f0", "f1", "+", "sin", "f2", "/", "f3", "-"), table)
        assert out.tolist() == [-1.0]

    def test_sqrt_uses_absolute_value(self):
        table = make_table(np.array([[-4.0]]))
        assert eval_cross(cross("f0", "sqrt"), table).tolist() == [2.0]

    def test_divide_by_zero_flooring(self):
        table = make_table(np.array([[3.0, 0.0]]))
        out = eval_cross(cross("f0", "f1", "/"), table)
        assert out[0] == pytest.approx(3.0 / 1e-8)

    def test_divide_keeps_sign_of_small_negative(self):
        table = make_table(np.array([[1.0, -1e-12]]))
        out = eval_cross(cross("f0", "f1", "/"), table)
        assert out[0] == pytest.approx(-1e8)

    def test_negative_zero_divisor_counts_as_positive(self):
        table = make_table(np.array([[1.0, -0.0]]))
        out = eval_cross(cross("f0", "f1", "/"), table)
        assert out[0] == pytest.approx(1e8)

    def test_log_shifted_absolute(self):
        table = make_table(np.array([[0.0], [-np.e]]))
        out = eval_cross(cross("f0", "log"), table)
        assert out[0] == pytest.approx(np.log(1e-8))
        assert out[1] == pytest.approx(np.log(np.e + 1e-8))

    def test_exp_argument_clamp(self):
        table = make_table(np.array([[1000.0], [-1000.0]]))
        out = eval_cross(cross("f0", "exp"), table)
        assert out[0] == pytest.approx(np.exp(50.0))
        assert out[1] == pytest.approx(np.exp(-50.0))

    def test_reciprocal_of_zero(self):
        table = make_table(np.array([[0.0]]))
        assert eval_cross(cross("f0", "reciprocal"), table)[0] == pytest.approx(1e8)

    def test_square(self):
        table = make_table(np.array([[-3.0]]))
        assert eval_cross(cross("f0", "square"), table)[0] == 9.0

    def test_product(self):
        table = make_table(np.array([[1.5, -2.0], [-0.25, -4.0]]))
        assert eval_cross(cross("f0", "f1", "*"), table).tolist() == [-3.0, 1.0]

    def test_cosine(self):
        table = make_table(np.array([[0.0], [np.pi]]))
        assert eval_cross(cross("f0", "cos"), table).tolist() == [1.0, -1.0]

    def test_underflow(self):
        table = make_table(np.zeros((2, 2)))
        with pytest.raises(InvalidPostfix):
            eval_cross(cross("f0", "+"), table)

    def test_leftovers(self):
        table = make_table(np.zeros((2, 2)))
        with pytest.raises(InvalidPostfix):
            eval_cross(cross("f0", "f1"), table)

    def test_feature_out_of_range(self):
        table = make_table(np.zeros((2, 2)))
        with pytest.raises(FeatureIndexOutOfRange):
            eval_cross(cross("f5"), table)

    @pytest.mark.parametrize("leaf", [1e200, -1e200, np.finfo(float).max, -np.finfo(float).max])
    @pytest.mark.parametrize("symbol", [None, *expr.OPS])
    def test_a_leaf_beyond_the_value_cap_is_clipped_before_any_operator(self, symbol, leaf):
        # Table columns are unbounded, and 1e200 squared overflows. Every
        # value read or returned lies within the cap, so nothing warns (and
        # a warning would fail the test).
        table = make_table(np.array([[leaf]]))
        tokens = ("f0",) if symbol is None else ("f0",) * expr.OPS[symbol].arity + (symbol,)
        out = eval_cross(cross(*tokens), table)
        assert np.abs(out).max() <= expr.VALUE_CAP

    @pytest.mark.parametrize("seed", range(20))
    def test_totality_under_stacked_ops(self, seed):
        # hostile magnitudes; every op output must stay finite
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1e6, 1e6, size=(30, 4))
        values[0] = 0.0
        table = make_table(values)
        c = random_cross(4, depth_limit=6, rng=rng)
        out = eval_cross(c, table)
        assert np.all(np.isfinite(out))


def _text(crosses):
    """The text of ``CrossSequence.from_crosses(crosses)``, laid out without
    constructing one, so without its budget check."""
    tokens = [SOS]
    for c in crosses:
        tokens += [*c.tokens, SEP]
    tokens[-1] = EOS
    return " ".join(tokens)


def _too_long(read, arg) -> bool:
    try:
        read(arg)
    except SequenceTooLong:
        return True
    return False


class TestFromText:
    def test_two_segments(self):
        s = CrossSequence.from_text("<SOS> f1 f2 + <SEP> f3 sin <EOS>")
        assert s.crosses == (cross("f1", "f2", "+"), cross("f3", "sin"))

    def test_a_cross_is_walked_where_it_is_read(self):
        # Built in code, the same crosses are left to the walk that uses them.
        with pytest.raises(InvalidPostfix, match=r"^operator '\+' underflows the stack$"):
            CrossSequence.from_text("<SOS> + <SEP> f1 f2 <EOS>")
        built = CrossSequence.from_crosses([cross("+"), cross("f1", "f2")])
        assert built.crosses == (cross("+"), cross("f1", "f2"))

    @pytest.mark.parametrize("text", ["f1 <EOS>", "", "<SEP> f1 <EOS>"])
    def test_missing_sos(self, text):
        with pytest.raises(MissingSOS):
            CrossSequence.from_text(text)

    @pytest.mark.parametrize("text", ["<SOS> f1", "<SOS>", "<SOS> f0 <EOS> <PAD>"])
    def test_missing_eos(self, text):
        with pytest.raises(MissingEOS):
            CrossSequence.from_text(text)

    @pytest.mark.parametrize("text", ["<SOS> f1 <SEP> <EOS>", "<SOS> <EOS>",
                                      "<SOS> <SEP> f1 <EOS>", "<SOS> f1 <SEP> <SEP> f2 <EOS>"])
    def test_empty_segment(self, text):
        with pytest.raises(EmptySegment):
            CrossSequence.from_text(text)

    def test_a_sequence_of_no_cross_is_refused(self):
        with pytest.raises(EmptySegment):
            CrossSequence(())
        with pytest.raises(EmptySegment):
            CrossSequence.from_crosses([])

    # Nothing follows the first <EOS>, and <SOS> comes only first: any other
    # is a stray token inside a cross.
    @pytest.mark.parametrize("text, token", [
        ("<SOS> f0 <EOS> <SEP> f1 <EOS>", "<EOS>"),
        ("<SOS> f0 <EOS> f1 <EOS>", "<EOS>"),
        ("<SOS> f0 <SOS> <EOS>", "<SOS>"),
        ("<SOS> <SOS> f0 <EOS>", "<SOS>"),
    ])
    def test_a_stray_sos_or_eos_is_refused_by_the_walk(self, text, token):
        with pytest.raises(InvalidPostfix, match=re.escape(f"unexpected token {token!r}")):
            CrossSequence.from_text(text)

    @pytest.mark.parametrize("crosses", [
        [cross("f0")] * 100,                # 201 tokens; MAX_LEN is 128
        [cross("f0", *["sin"] * 40)],       # 41 tokens; SEGMENT_CAP is 24
    ], ids=["201-token-sequence", "41-token-cross"])
    def test_token_budgets_enforced(self, crosses):
        with pytest.raises(SequenceTooLong):
            CrossSequence.from_text(_text(crosses))
        with pytest.raises(SequenceTooLong):
            CrossSequence.from_crosses(crosses)

    # Unary chains (feature, length) of up to SEGMENT_CAP + 2 tokens, up to 70
    # of them: both budgets are crossed, and met exactly in the examples.
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(1, SEGMENT_CAP + 2)),
                    min_size=1, max_size=70))
    @example([(0, 1)] * 63)
    @example([(0, 1)] * 64)
    @example([(0, SEGMENT_CAP)])
    @example([(0, SEGMENT_CAP + 1)])
    @settings(max_examples=200, deadline=None)
    def test_budgets_agree_with_from_crosses(self, chains):
        crosses = [_chain(feature, length) for feature, length in chains]
        built = not _too_long(CrossSequence.from_crosses, crosses)
        assert _too_long(CrossSequence.from_text, _text(crosses)) != built
        if built:
            s = CrossSequence.from_crosses(crosses)
            assert s == CrossSequence.from_text(_text(crosses)) and s.text() == _text(crosses)

    # Random crosses after a chain of ``chain`` tokens (none at 0), kept while
    # the sequence stays within its budgets. The examples land on SEGMENT_CAP
    # and on MAX_LEN exactly.
    @given(seed=st.integers(0, 2**32 - 1),
           depths=st.lists(st.integers(1, 5), min_size=1, max_size=40),
           chain=st.integers(0, SEGMENT_CAP))
    @example(seed=0, depths=[1] * 62, chain=2)
    @example(seed=0, depths=[1], chain=SEGMENT_CAP)
    @settings(max_examples=150, deadline=None)
    def test_text_round_trips(self, seed, depths, chain):
        rng = np.random.default_rng(seed)
        kept = [_chain(0, chain)] if chain else []
        for depth in depths:
            c = random_cross(5, depth, rng)
            if not _too_long(CrossSequence.from_crosses, kept + [c]):
                kept.append(c)
        s = CrossSequence.from_crosses(kept)
        assert CrossSequence.from_text(s.text()) == s
        assert s.crosses == tuple(kept)

    def test_the_round_trip_examples_meet_the_budgets(self):
        at_max_len = CrossSequence.from_crosses([_chain(0, 2)] + [cross("f0")] * 62)
        assert len(at_max_len.text().split()) == MAX_LEN
        at_cap = CrossSequence.from_crosses([_chain(0, SEGMENT_CAP), cross("f0")])
        assert max(len(c.tokens) for c in at_cap.crosses) == SEGMENT_CAP

    @given(st.booleans(), st.lists(st.one_of(
        st.sampled_from([SOS, EOS, SEP, "<PAD>", "+", "sin", "/"]),
        st.integers(0, 9).map(expr.feature_token)), max_size=12))
    @example(True, ["f0", "f7", "+", SEP, "f3", "sin"])
    @example(True, ["f0", EOS, "f1"])
    @settings(max_examples=300, deadline=None)
    def test_token_soup_is_refused_or_applies(self, framed, tokens):
        # Framed soups start with <SOS> and end with <EOS>, so many parse.
        text = " ".join([SOS, *tokens, EOS] if framed else tokens)
        try:
            s = CrossSequence.from_text(text)
        except NeatError:
            return
        width = 1 + max(expr.feature_index(t) for c in s.crosses for t in c.tokens
                        if expr.is_feature(t))
        F = apply_sequence(s, make_table(np.eye(width)))
        assert F.shape[1] == len(s.crosses)


class TestApplySequence:
    def test_one_column_per_segment(self, small_table):
        F = apply_sequence(CrossSequence.from_text("<SOS> f0 f1 + <SEP> f2 <EOS>"), small_table)
        assert F.shape == (40, 2)
        assert F.dtype == np.float64

    def test_a_repeated_cross_is_a_column_each_time(self, small_table):
        F = apply_sequence(CrossSequence.from_text("<SOS> f0 <SEP> f0 <EOS>"), small_table)
        assert F.shape == (40, 2) and not F.flags.writeable
        assert F.tobytes() == np.column_stack([small_table.values[:, 0]] * 2).tobytes()

    def test_matches_per_segment_oracle(self, small_table, rng):
        # Random crosses, some of them repeated, and a pair with equal columns.
        crosses = [random_cross(5, 4, rng) for _ in range(6)]
        crosses += [crosses[i] for i in rng.integers(6, size=3)]
        crosses += [cross("f0", "f1", "+"), cross("f1", "f0", "+")]
        crosses = [crosses[i] for i in rng.permutation(len(crosses))]
        F = apply_sequence(CrossSequence.from_crosses(crosses), small_table)
        want = np.column_stack([eval_cross(c, small_table) for c in crosses])
        assert F.shape == (40, len(crosses)) and F.dtype == np.float64
        assert F.tobytes() == want.tobytes()

    def test_each_cross_walked_once(self, small_table, rng, monkeypatch):
        walked = []
        walk = expr._walk

        def counted(tokens, *args):
            walked.append(tuple(tokens))
            return walk(tokens, *args)

        monkeypatch.setattr(expr, "_walk", counted)
        crosses = [random_cross(5, 4, rng) for _ in range(7)]
        apply_sequence(CrossSequence.from_crosses(crosses), small_table)
        assert walked == [c.tokens for c in crosses]

    def test_a_shared_memo_walks_each_cross_once(self, monkeypatch):
        # Crosses shared between sequences, repeated within one, and clamp-range
        # leaves: every output is bitwise the memo-less one.
        table = clamp_range_table(3, 50)
        rng = np.random.default_rng(3)
        shared = [random_cross(table.n_features, 4, rng) for _ in range(4)]
        sequences = [CrossSequence.from_crosses(
            shared[:k] + [random_cross(table.n_features, 3, rng), shared[k - 1]] + shared[k:])
            for k in range(1, 5)]
        expected = [apply_sequence(s, table) for s in sequences]
        calls = []
        evaluate = expr.eval_cross

        def counted(c, t):
            calls.append(c)
            return evaluate(c, t)

        monkeypatch.setattr(expr, "eval_cross", counted)
        memo = {}
        for sequence, want in zip(sequences, expected):
            got = apply_sequence(sequence, table, memo)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert len(calls) == len(set(calls)) and set(calls) == set(memo)
        for c, column in memo.items():
            assert column.tobytes() == evaluate(c, table).tobytes()
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0.0

    @pytest.mark.parametrize("bad", ["f9", "f0 +"])
    def test_a_raising_sequence_leaves_correct_memo_entries(self, small_table, bad):
        memo = {}
        with pytest.raises((FeatureIndexOutOfRange, InvalidPostfix)):
            apply_sequence(CrossSequence.from_crosses(
                [cross("f0", "f1", "+"), cross(*bad.split()), cross("f2", "sin")]),
                small_table, memo)
        assert list(memo) == [cross("f0", "f1", "+")]
        assert memo[cross("f0", "f1", "+")].tobytes() == \
            eval_cross(cross("f0", "f1", "+"), small_table).tobytes()
        again = CrossSequence.from_text("<SOS> f2 sin <SEP> f0 f1 + <EOS>")
        assert apply_sequence(again, small_table, memo).tobytes() == \
            apply_sequence(again, small_table).tobytes()

    def test_underflow_invalid(self, small_table):
        with pytest.raises(InvalidPostfix, match=r"^operator '\+' underflows the stack$"):
            apply_sequence(CrossSequence.from_crosses([cross("+")]), small_table)

    def test_leftovers_invalid(self, small_table):
        with pytest.raises(InvalidPostfix, match=r"^2 operands left on the stack$"):
            apply_sequence(CrossSequence.from_crosses([cross("f1", "f2")]), small_table)


class TestSampledRows:
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 5),
           idx=st.lists(st.integers(0, 49), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_a_cross_on_taken_rows_is_the_full_column_at_them(self, seed, depth, idx):
        table = clamp_range_table(seed, 50)
        sub = table.take(np.array(idx))
        assert sub.values.flags.f_contiguous and not sub.values.flags.writeable
        assert not sub.target.flags.writeable and len(sub.target) == len(idx)
        rng = np.random.default_rng(seed)
        for _ in range(8):
            c = random_cross(table.n_features, depth, rng)
            assert eval_cross(c, sub).tobytes() == eval_cross(c, table)[idx].tobytes(), c


# One move grows every live set: a random cross, a chain of unary ops of a
# given length (around SEGMENT_CAP), a pair of crosses with equal columns, or
# a branch that starts a copy of the newest set.
MOVES = st.one_of(
    st.tuples(st.just("random"), st.integers(1, 6)),
    st.tuples(st.just("chain"), st.integers(1, SEGMENT_CAP + 2)),
    st.tuples(st.just("swap"), st.integers(0, 4)),
    st.tuples(st.just("branch"), st.just(0)),
)


def _chain(feature, length):
    return cross(f"f{feature}", *["sin"] * (length - 1))


def _candidates(move, rng):
    kind, arg = move
    if kind == "random":
        return [random_cross(5, arg, rng)]
    if kind == "chain":
        return [_chain(int(rng.integers(5)), arg)]
    if kind == "swap":     # b+a after a+b: equal columns, different crosses
        a, b = f"f{arg}", f"f{(arg + 1) % 5}"
        return [cross(a, b, "+"), cross(b, a, "+")]
    return []


def _offer(features, c, table):
    """Add ``c`` as a budget-respecting caller would, checking the budget
    rule against its definitions, ``from_crosses`` and ``from_text``. A
    column equal to a kept one is kept too."""
    crosses = features.provenance + [c]
    accepted = not _too_long(CrossSequence.from_crosses, crosses)
    assert _too_long(CrossSequence.from_text, _text(crosses)) != accepted
    assert features.fits(c) == accepted
    if accepted:
        n = features.n_features
        assert features.add(c, eval_cross(c, table)) is None
        assert features.n_features == n + 1 and features.provenance[-1] == c


class TestFeatureSet:
    @given(seed=st.integers(0, 2**32 - 1), moves=st.lists(MOVES, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_is_the_one_rule(self, seed, moves):
        table = make_table(np.random.default_rng(7).normal(size=(20, 5)))
        rng = np.random.default_rng(seed)
        base = FeatureSet(MAX_LEN)     # a sequence holds fewer crosses than tokens
        for i in range(5):
            base.add(cross(f"f{i}"), eval_cross(cross(f"f{i}"), table))
        sets = [base]
        for move in moves:
            if move[0] == "branch":
                sets.append(sets[-1].copy())
            for c in _candidates(move, rng):
                for features in sets:
                    _offer(features, c, table)
        # Fill each set with chains of falling length: the budget checks then
        # land on SEGMENT_CAP and on MAX_LEN exactly.
        for features in sets:
            for length in range(SEGMENT_CAP + 1, 0, -1):
                for feature in range(5):
                    _offer(features, _chain(feature, length), table)
        for features in sets:
            sequence = features.sequence()
            assert list(sequence.crosses) == features.provenance
            assert CrossSequence.from_text(sequence.text()) == sequence
            assert np.array_equal(apply_sequence(sequence, table), features.matrix())


class TestKeptMatrix:
    """A FeatureSet keeps its columns in one array of its capacity's width;
    ``matrix()`` is a read-only view of the filled columns."""

    def test_matrix_is_the_stack_of_the_added_columns_at_every_width(self):
        columns = list(np.random.default_rng(3).normal(size=(6, 50)))
        features = FeatureSet(len(columns))
        views = []
        for i, column in enumerate(columns):
            features.add(cross(f"f{i}"), column)
            views.append(features.matrix())
            assert views[-1].dtype == np.float64 and not views[-1].flags.writeable
            assert np.array_equal(views[-1], np.column_stack(columns[:i + 1]))
        # Adding never moved the array: every earlier view still holds its columns.
        for i, view in enumerate(views):
            assert np.array_equal(view, np.column_stack(columns[:i + 1]))

    def test_growing_a_copy_leaves_the_original(self):
        rng = np.random.default_rng(4)
        columns = list(rng.normal(size=(3, 20)))
        base = FeatureSet(5)
        for i, column in enumerate(columns):
            base.add(cross(f"f{i}"), column)
        before = base.matrix()
        branches = [base.copy(), base.copy()]
        extra = rng.normal(size=(2, 2, 20))
        for branch, (a, b) in zip(branches, extra):
            branch.add(cross("f0", "sin"), a)
            branch.add(cross("f1", "sin"), b)
        for branch, grown in zip(branches, extra):
            assert np.array_equal(branch.matrix(), np.column_stack(columns + list(grown)))
        assert np.array_equal(base.matrix(), np.column_stack(columns))
        assert np.array_equal(before, np.column_stack(columns))
        base.add(cross("f2", "sin"), extra[0, 0] + 1.0)    # and the other way round
        for branch, grown in zip(branches, extra):
            assert np.array_equal(branch.matrix(), np.column_stack(columns + list(grown)))

    def test_a_column_past_the_capacity_is_refused(self):
        features = FeatureSet(2)
        features.add(cross("f0"), np.zeros(4))
        features.add(cross("f1"), np.ones(4))
        for column in (np.full(4, 2.0), np.ones(4)):      # a new column, and an equal one
            with pytest.raises(IndexError):
                features.add(cross("f2"), column)
            assert features.n_features == 2
            assert features.provenance == [cross("f0"), cross("f1")]
        assert np.array_equal(features.matrix(), np.column_stack([np.zeros(4), np.ones(4)]))

    @given(seed=st.integers(0, 2**32 - 1), capacity=st.integers(1, 6),
           depth=st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_a_set_at_its_capacity_fits_no_cross(self, seed, capacity, depth):
        rng = np.random.default_rng(seed)
        features = FeatureSet(capacity)
        for i in range(capacity):
            assert features.fits(cross(f"f{i}"))
            features.add(cross(f"f{i}"), np.full(4, float(i)))
        c = random_cross(5, depth, rng)
        assert not features.fits(c)
        assert not features.copy().fits(c)

    def test_apply_sequence_returns_every_column(self, small_table):
        # A repeated cross in the middle is a column like any other.
        crosses = [cross("f0"), cross("f1", "f2", "*"), cross("f0"), cross("f3", "sin")]
        F = apply_sequence(CrossSequence.from_crosses(crosses), small_table)
        want = np.column_stack([eval_cross(c, small_table) for c in crosses])
        assert F.shape == (40, 4) and not F.flags.writeable
        assert F.tobytes() == want.tobytes()


# Malformed programs: an operator short of operands, two operands left, a
# special token inside a cross, and a token outside the grammar.
MALFORMED = ["f0 +", "f0 f1", "f0 <SEP>", "f0 <PAD>", "f0 foo"]


class TestOneWalker:
    @pytest.mark.parametrize("program", MALFORMED)
    def test_every_walk_raises_the_same_error(self, program):
        c = FeatureCross(tuple(program.split()))
        table = make_table(np.zeros((2, 2)))
        with pytest.raises(InvalidPostfix) as evaluated:
            eval_cross(c, table)
        with pytest.raises(InvalidPostfix) as rendered:
            render_infix(c, ["a", "b"])
        assert str(rendered.value) == str(evaluated.value)
        with pytest.raises(InvalidPostfix) as applied:
            apply_sequence(CrossSequence.from_crosses([cross("f1"), c]), table)
        assert str(applied.value) == str(evaluated.value)
        if SEP in c.tokens:     # a <SEP> in a sequence's text ends the cross instead
            return
        with pytest.raises(InvalidPostfix) as read:
            CrossSequence.from_text(f"<SOS> f1 <SEP> {program} <EOS>")
        assert str(read.value) == str(evaluated.value)

    def test_render_refuses_a_feature_past_its_names(self):
        with pytest.raises(FeatureIndexOutOfRange):
            render_infix(cross("f0", "f2", "+"), ["a", "b"])

    # Spellings that feature_token never makes: f, superscript two (int()
    # fails on it); f, Arabic-Indic three and f01 (int() reads columns 3 and
    # 1); f-1; and f with 5000 digits, past int()'s default conversion limit
    # of 4300. Evaluation and rendering refuse them all.
    @pytest.mark.parametrize("token", ["f\u00b2", "f\u0663", "f01", "f-1",
                                       pytest.param("f" + "1" * 5000, id="f-5000-digits")])
    def test_non_canonical_feature_tokens_are_refused(self, token):
        table = make_table(np.zeros((2, 4)))
        with pytest.raises(InvalidPostfix, match=re.escape(f"unexpected token {token!r}")):
            eval_cross(cross("f0", token, "+"), table)
        with pytest.raises(InvalidPostfix):
            render_infix(cross(token), ["a", "b", "c", "d"])

    def test_feature_digits_stop_at_the_int_conversion_limit(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        assert expr.is_feature("f" + "1" * 4300)
        assert not expr.is_feature("f" + "1" * 4301)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)     # no limit
        assert expr.is_feature("f" + "1" * 5000)

    @given(st.integers(0, 10**6))
    def test_feature_tokens_round_trip(self, index):
        token = expr.feature_token(index)
        assert expr.is_feature(token)
        assert expr.feature_index(token) == index


class TestOperatorSet:
    # Record files and checkpoints carry op_set_hash(), and the op agent's
    # action ids follow this order.
    def test_order_and_hash(self):
        assert expr.OP_SYMBOLS == ("+", "-", "*", "/", "sin", "cos", "log", "exp",
                                   "sqrt", "square", "reciprocal")
        assert expr.op_set_hash() == "dd9677bdc6c5"


class TestRenderInfix:
    # +, sin, square and reciprocal are pinned by the tests below
    @pytest.mark.parametrize("tokens, text", [
        (("f0", "f1", "-"), "([a]-[b])"),
        (("f0", "f1", "*"), "([a]*[b])"),
        (("f0", "f1", "/"), "([a]/[b])"),
        (("f0", "cos"), "cos([a])"),
        (("f0", "log"), "log([a])"),
        (("f0", "exp"), "exp([a])"),
        (("f0", "sqrt"), "sqrt([a])"),
    ])
    def test_operator_shape(self, tokens, text):
        assert render_infix(cross(*tokens), ["a", "b"]) == text

    def test_reciprocal_shape(self):
        assert render_infix(cross("f0", "reciprocal"), ["fixed acidity"]) == "1/([fixed acidity])"

    def test_binary_shape(self):
        assert render_infix(cross("f0", "f1", "+"), ["a", "b"]) == "([a]+[b])"

    def test_square_shape(self):
        assert render_infix(cross("f0", "square"), ["a"]) == "([a])^2"

    def test_nested(self):
        text = render_infix(cross("f0", "f1", "+", "sin"), ["a", "b"])
        assert text == "sin(([a]+[b]))"

    @pytest.mark.parametrize("seed", range(50))
    def test_roundtrip_exact(self, seed, small_table):
        # The leaves read back from the string are exactly the cross's
        # feature tokens, in postfix order, and its parentheses balance.
        names = small_table.column_names
        c = random_cross(5, depth_limit=5, rng=np.random.default_rng(seed))
        text = render_infix(c, names)
        depth = np.cumsum([{"(": 1, ")": -1}.get(ch, 0) for ch in text])
        assert depth[-1] == 0 and depth.min() >= 0
        leaves = [f"[{names[expr.feature_index(t)]}]" for t in c.tokens if expr.is_feature(t)]
        assert re.findall(r"\[[^\]]*\]", text) == leaves


class TestCrossSequence:
    def test_text_roundtrip(self):
        seq = CrossSequence.from_text("<SOS> f0 f1 + <SEP> f2 sin <EOS>")
        assert CrossSequence.from_text(seq.text()) == seq

    def test_from_crosses_layout(self):
        seq = CrossSequence.from_crosses([cross("f0"), cross("f1", "sin")])
        assert seq.text() == "<SOS> f0 <SEP> f1 sin <EOS>"

    def test_token_budget_enforced(self):
        many = [cross("f0")] * 70
        with pytest.raises(SequenceTooLong):
            CrossSequence.from_crosses(many)

    def test_segment_budget_enforced(self):
        wide = cross(*(["f0"] * 13 + ["+"] * 12))
        with pytest.raises(SequenceTooLong):
            CrossSequence.from_crosses([wide])


class TestRandomCross:
    def test_depth_one_is_single_feature(self, rng):
        c = random_cross(7, depth_limit=1, rng=rng)
        assert len(c.tokens) == 1
        assert expr.is_feature(c.tokens[0])

    def test_deterministic(self):
        a = random_cross(5, 4, np.random.default_rng(42))
        b = random_cross(5, 4, np.random.default_rng(42))
        assert a == b

    def test_thousand_samples_parse(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            c = random_cross(6, depth_limit=4, rng=rng)
            seq = CrossSequence.from_crosses([c])
            assert CrossSequence.from_text(seq.text()).crosses == (c,)
