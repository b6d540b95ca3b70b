import re

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
    SequenceTooLong,
    UnknownToken,
)
from neat.expr import (
    EOS,
    SEGMENT_CAP,
    SEP,
    SOS,
    CrossSequence,
    FeatureCross,
    FeatureSet,
    Vocabulary,
    apply_sequence,
    eval_cross,
    parse_sequence,
    random_cross,
    render_infix,
)

from conftest import make_table


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


def seq(*tokens):
    return CrossSequence(tuple(tokens))


def _unchecked(crosses):
    """The layout of ``CrossSequence.from_crosses``, built without its budget
    check."""
    tokens = [SOS]
    for c in crosses:
        tokens += [*c.tokens, SEP]
    tokens[-1] = EOS
    return CrossSequence(tuple(tokens))


def _too_long(read, arg) -> bool:
    try:
        read(arg)
    except SequenceTooLong:
        return True
    return False


class TestParseSequence:
    def test_two_segments(self):
        crosses = parse_sequence(seq("<SOS>", "f1", "f2", "+", "<SEP>", "f3", "<EOS>"))
        assert len(crosses) == 2
        assert crosses[0].tokens == ("f1", "f2", "+")
        assert crosses[1].tokens == ("f3",)

    def test_crosses_are_left_to_their_walk(self):
        crosses = parse_sequence(seq("<SOS>", "+", "<SEP>", "f1", "f2", "<EOS>"))
        assert crosses == [cross("+"), cross("f1", "f2")]

    def test_missing_sos(self):
        with pytest.raises(MissingSOS):
            parse_sequence(seq("f1", "<EOS>"))

    def test_missing_eos(self):
        with pytest.raises(MissingEOS):
            parse_sequence(seq("<SOS>", "f1"))

    def test_empty_segment(self):
        with pytest.raises(EmptySegment):
            parse_sequence(seq("<SOS>", "f1", "<SEP>", "<EOS>"))

    def test_pad_after_eos_ignored(self):
        # Padding past EOS does not count against MAX_LEN either.
        crosses = parse_sequence(seq("<SOS>", "f0", "<EOS>", *["<PAD>"] * 200))
        assert len(crosses) == 1

    def test_accepts_serialized_text(self):
        crosses = parse_sequence(CrossSequence.from_text("<SOS> f1 f2 + <SEP> f3 sin <EOS>"))
        assert [c.tokens for c in crosses] == [("f1", "f2", "+"), ("f3", "sin")]

    @pytest.mark.parametrize("text", [
        "<SOS> " + " <SEP> ".join(["f0"] * 100) + " <EOS>",    # MAX_LEN is 128
        "<SOS> f0" + " sin" * 40 + " <EOS>",                   # SEGMENT_CAP is 24
    ], ids=["201-token-sequence", "41-token-cross"])
    def test_token_budgets_enforced(self, text):
        with pytest.raises(SequenceTooLong):
            parse_sequence(CrossSequence.from_text(text))

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
        assert _too_long(parse_sequence, _unchecked(crosses)) != built
        if built:
            assert CrossSequence.from_crosses(crosses) == _unchecked(crosses)

    @given(st.lists(st.sampled_from(
        ["<SOS>", "<EOS>", "<SEP>", "<PAD>", "f0", "f1", "+", "sin", "/"]),
        max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_never_crashes_on_token_soup(self, tokens):
        # Any input either materializes or raises one of the declared errors:
        # a layout error from parse_sequence, InvalidPostfix from the walk.
        try:
            crosses = parse_sequence(seq(*tokens))
        except (MissingSOS, MissingEOS, EmptySegment):
            return
        assert crosses
        try:
            F = apply_sequence(seq(*tokens), make_table(np.eye(2)))
        except InvalidPostfix:
            return
        assert 1 <= F.shape[1] <= len(crosses)


class TestApplySequence:
    def test_one_column_per_segment(self, small_table):
        F = apply_sequence(CrossSequence.from_text("<SOS> f0 f1 + <SEP> f2 <EOS>"), small_table)
        assert F.shape == (40, 2)
        assert F.dtype == np.float64

    def test_bitwise_duplicates_dropped(self, small_table):
        F = apply_sequence(CrossSequence.from_text("<SOS> f1 <SEP> f1 <EOS>"), small_table)
        assert F.shape == (40, 1)

    def test_matches_per_segment_oracle(self, small_table, rng):
        crosses = [random_cross(5, 4, rng) for _ in range(6)]
        F = apply_sequence(CrossSequence.from_crosses(crosses), small_table)
        expected, seen = [], set()
        for c in crosses:
            col = eval_cross(c, small_table)
            if col.tobytes() not in seen:
                seen.add(col.tobytes())
                expected.append(col)
        assert F.shape[1] == len(expected)
        for got, want in zip(F.T, expected):
            assert np.array_equal(got, want)

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

    def test_underflow_invalid(self, small_table):
        with pytest.raises(InvalidPostfix, match=r"^operator '\+' underflows the stack$"):
            apply_sequence(CrossSequence.from_text("<SOS> + <EOS>"), small_table)

    def test_leftovers_invalid(self, small_table):
        with pytest.raises(InvalidPostfix, match=r"^2 operands left on the stack$"):
            apply_sequence(CrossSequence.from_text("<SOS> f1 f2 <EOS>"), small_table)


# One move grows every live set: a random cross, a chain of unary ops of a
# given length (around SEGMENT_CAP), a forced bitwise duplicate, or a branch
# that starts a copy of the newest set.
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
    """Add ``c`` as a budget-respecting caller would, checking both rules
    against their definitions: ``from_crosses`` and ``parse_sequence`` for
    the budgets, the bytes of the set's own matrix for duplicates."""
    crosses = features.provenance + [c]
    accepted = not _too_long(CrossSequence.from_crosses, crosses)
    assert _too_long(parse_sequence, _unchecked(crosses)) != accepted
    assert features.fits(c) == accepted
    if accepted:
        col = eval_cross(c, table)
        fresh = col.tobytes() not in {
            np.ascontiguousarray(v).tobytes() for v in features.matrix().T}
        n = features.n_features
        assert features.add(c, col) == fresh
        assert features.n_features == n + fresh


class TestFeatureSet:
    @given(seed=st.integers(0, 2**32 - 1), moves=st.lists(MOVES, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_is_the_one_rule(self, seed, moves):
        table = make_table(np.random.default_rng(7).normal(size=(20, 5)))
        rng = np.random.default_rng(seed)
        base = FeatureSet()
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
            assert parse_sequence(sequence) == features.provenance
            assert np.array_equal(apply_sequence(sequence, table), features.matrix())


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
        if SEP in c.tokens:     # a <SEP> in a sequence ends the cross instead
            return
        with pytest.raises(InvalidPostfix) as applied:
            apply_sequence(CrossSequence.from_text(f"<SOS> f1 <SEP> {program} <EOS>"), table)
        assert str(applied.value) == str(evaluated.value)

    def test_render_refuses_a_feature_past_its_names(self):
        with pytest.raises(FeatureIndexOutOfRange):
            render_infix(cross("f0", "f2", "+"), ["a", "b"])


class TestRenderInfix:
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


class TestVocabulary:
    def test_dense_stable_layout(self):
        v = Vocabulary(3)
        assert v.pad_id == 0 and v.sos_id == 1 and v.eos_id == 2
        assert v.id_of("<SEP>") == 3
        assert v.id_of("+") == 4
        assert v.id_of("f0") == 4 + len(expr.OP_SYMBOLS)
        assert v.size == 4 + len(expr.OP_SYMBOLS) + 3

    def test_roundtrip_identity(self):
        v = Vocabulary(4)
        tokens = ["<SOS>", "f0", "f3", "*", "<SEP>", "f1", "sqrt", "<EOS>", "<PAD>"]
        assert v.decode(v.encode(tokens)) == tokens

    def test_unknown_token(self):
        v = Vocabulary(2)
        with pytest.raises(UnknownToken):
            v.encode(["f9"])
        with pytest.raises(UnknownToken):
            v.token_of(99)


class TestCrossSequence:
    def test_text_roundtrip(self):
        seq = CrossSequence.from_text("<SOS> f0 f1 + <SEP> f2 sin <EOS>")
        assert CrossSequence.from_text(seq.text()) == seq

    def test_from_crosses_layout(self):
        seq = CrossSequence.from_crosses([cross("f0"), cross("f1", "sin")])
        assert seq.tokens == ("<SOS>", "f0", "<SEP>", "f1", "sin", "<EOS>")

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
            assert parse_sequence(seq)[0] == c
