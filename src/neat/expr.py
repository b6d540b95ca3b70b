"""Feature-cross expressions: postfix token sequences, safe evaluation, rendering.

A cross is a postfix program over original feature columns; a sequence is
``<SOS> cross (<SEP> cross)* <EOS>``, the unit that the collector records and
the decoder generates. Evaluation is total: every operator carries a guard so
any valid cross produces finite output on any finite table.

A feature set has two forms: its values, a plain ``(n, m)`` float64 array
that the utility and the graph encoder read, and its crosses, a
``CrossSequence``. ``_within_budget`` is the one statement of the
``SEGMENT_CAP`` and ``MAX_LEN`` token budgets, applied by
``CrossSequence.from_crosses``, ``FeatureSet.fits`` and ``parse_sequence``.
``FeatureSet`` owns the rule that a column bitwise equal to a kept one is not
added. ``_walk`` is the one postfix walker: evaluation and rendering are its
callbacks, so both raise the same ``InvalidPostfix`` errors, and a cross is
checked only by the walk that uses it.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .errors import (
    EmptySegment,
    FeatureIndexOutOfRange,
    InvalidPostfix,
    MissingEOS,
    MissingSOS,
    SequenceTooLong,
    UnknownToken,
)
from .tabular import DataTable

log = logging.getLogger(__name__)
T = TypeVar("T")

PAD = "<PAD>"
SOS = "<SOS>"
EOS = "<EOS>"
SEP = "<SEP>"
SPECIALS = (PAD, SOS, EOS, SEP)

BINARY_OPS = ("+", "-", "*", "/")
UNARY_OPS = ("sin", "cos", "log", "exp", "sqrt", "square", "reciprocal")
OP_SYMBOLS = BINARY_OPS + UNARY_OPS

MAX_LEN = 128          # whole-sequence token budget
SEGMENT_CAP = 24       # per-cross token budget
DIV_EPSILON = 1e-8     # divisor floor; sign(0) treated as +1
LOG_EPSILON = 1e-8
EXP_MAX = 50.0         # exp argument clamp
VALUE_CAP = 1e150      # every op output clamped here so stacked ops stay finite
LEAF_PROB = 0.35       # random_cross: chance a subtree above depth 1 is a leaf


@dataclass(frozen=True)
class OpCode:
    symbol: str
    arity: int


OPCODES = {s: OpCode(s, 2) for s in BINARY_OPS}
OPCODES.update({s: OpCode(s, 1) for s in UNARY_OPS})


def is_feature(token: str) -> bool:
    return len(token) > 1 and token[0] == "f" and token[1:].isdigit()


def feature_index(token: str) -> int:
    return int(token[1:])


def feature_token(index: int) -> str:
    return f"f{index}"


def _within_budget(longest: int, length: int) -> bool:
    """The token budgets: no cross longer than ``SEGMENT_CAP`` tokens and no
    sequence, ``<SOS>`` to ``<EOS>``, longer than ``MAX_LEN``."""
    return longest <= SEGMENT_CAP and length <= MAX_LEN


def _over_budget(longest: int, length: int) -> str:
    return (f"{length} tokens with a {longest}-token cross "
            f"(MAX_LEN {MAX_LEN}, SEGMENT_CAP {SEGMENT_CAP})")


@dataclass(frozen=True)
class FeatureCross:
    """A postfix program over feature tokens and operators. Its validity is
    checked by the walk that uses it (``eval_cross``, ``render_infix``)."""

    tokens: tuple[str, ...]


@dataclass(frozen=True)
class CrossSequence:
    """A full token sequence: SOS, SEP-separated crosses, EOS."""

    tokens: tuple[str, ...]

    def text(self) -> str:
        return " ".join(self.tokens)

    @classmethod
    def from_text(cls, text: str) -> "CrossSequence":
        return cls(tuple(text.split()))

    @classmethod
    def from_crosses(cls, crosses: Iterable[FeatureCross]) -> "CrossSequence":
        """Lay ``crosses`` out as a sequence; raises ``SequenceTooLong`` if it
        breaks a token budget."""
        tokens: list[str] = [SOS]
        longest = 0
        for i, cross in enumerate(crosses):
            if i > 0:
                tokens.append(SEP)
            tokens.extend(cross.tokens)
            longest = max(longest, len(cross.tokens))
        tokens.append(EOS)
        if not _within_budget(longest, len(tokens)):
            raise SequenceTooLong(_over_budget(longest, len(tokens)))
        return cls(tuple(tokens))


class Vocabulary:
    """Dense, stable token-id assignment for a fixed feature count.

    Layout: PAD=0, SOS=1, EOS=2, SEP=3, the operator set in declaration
    order, then f0..f{d-1}. Persisted with every checkpoint so artifacts
    trained together always agree on ids.
    """

    def __init__(self, n_features: int):
        self.n_features = n_features
        self._tokens = list(SPECIALS) + list(OP_SYMBOLS) + [
            feature_token(i) for i in range(n_features)]
        self._ids = {t: i for i, t in enumerate(self._tokens)}

    @property
    def size(self) -> int:
        return len(self._tokens)

    @property
    def pad_id(self) -> int:
        return self._ids[PAD]

    @property
    def sos_id(self) -> int:
        return self._ids[SOS]

    @property
    def eos_id(self) -> int:
        return self._ids[EOS]

    def id_of(self, token: str) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise UnknownToken(f"token {token!r} not in vocabulary (d={self.n_features})")

    def token_of(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._tokens):
            raise UnknownToken(f"id {token_id} out of range for vocabulary size {self.size}")
        return self._tokens[token_id]

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        return np.array([self.id_of(t) for t in tokens], dtype=np.int64)

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.token_of(int(i)) for i in ids]


def op_set_hash() -> str:
    """Short digest of the operator set, stamped into records and checkpoints."""
    return hashlib.sha256("|".join(OP_SYMBOLS).encode()).hexdigest()[:12]


def _safe_divide(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # |b| <= eps is replaced by sign(b)*eps with sign(0) = +1
    floor = np.where(b >= 0.0, DIV_EPSILON, -DIV_EPSILON)
    denom = np.where(np.abs(b) > DIV_EPSILON, b, floor)
    return a / denom


def _apply_op(symbol: str, a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    if symbol == "+":
        out = a + b
    elif symbol == "-":
        out = a - b
    elif symbol == "*":
        out = a * b
    elif symbol == "/":
        out = _safe_divide(a, b)
    elif symbol == "sin":
        out = np.sin(a)
    elif symbol == "cos":
        out = np.cos(a)
    elif symbol == "log":
        out = np.log(np.abs(a) + LOG_EPSILON)
    elif symbol == "exp":
        out = np.exp(np.clip(a, -EXP_MAX, EXP_MAX))
    elif symbol == "sqrt":
        out = np.sqrt(np.abs(a))
    elif symbol == "square":
        out = a * a
    else:                   # "reciprocal": _walk passes only OPCODES symbols
        out = _safe_divide(np.ones_like(a), a)
    return np.clip(out, -VALUE_CAP, VALUE_CAP)


def _walk(tokens: Sequence[str], leaf: Callable[[str], T], apply: Callable[..., T]) -> T:
    """Run a postfix program: ``leaf(token)`` for each feature token,
    ``apply(symbol, *operands)`` for each operator; returns the one value
    left. The only place that raises the grammar's ``InvalidPostfix`` errors."""
    stack: list[T] = []
    for token in tokens:
        code = OPCODES.get(token)
        if code is None:
            if not is_feature(token):
                raise InvalidPostfix(f"unexpected token {token!r}")
            stack.append(leaf(token))
            continue
        if len(stack) < code.arity:
            raise InvalidPostfix(f"operator {token!r} underflows the stack")
        if code.arity == 2:
            b = stack.pop()
            stack.append(apply(token, stack.pop(), b))
        else:
            stack.append(apply(token, stack.pop()))
    if len(stack) != 1:
        raise InvalidPostfix(f"{len(stack)} operands left on the stack")
    return stack[0]


def eval_cross(cross: FeatureCross, table: DataTable) -> np.ndarray:
    """Evaluate one postfix cross against a table's original columns.

    Safe rules: the divisor and reciprocal floor small denominators at
    ±1e-8, log and sqrt take |x| (log adds 1e-8), exp clamps its argument to
    ±50, and every op output is clamped to ±1e150, so results are finite
    everywhere.

    Raises:
        InvalidPostfix: stack underflow, leftover operands or a stray token.
        FeatureIndexOutOfRange: a feature token outside the table's columns.
    """
    values = table.values
    d = values.shape[1]

    def column(token: str) -> np.ndarray:
        idx = feature_index(token)
        if idx >= d:
            raise FeatureIndexOutOfRange(f"{token} but table has {d} columns")
        return values[:, idx]

    return np.array(_walk(cross.tokens, column, _apply_op), dtype=np.float64, copy=True)


def parse_sequence(seq: CrossSequence) -> list[FeatureCross]:
    """Split a sequence into its crosses, checking the layout and the token
    budgets but not the crosses themselves (their walk does that).

    Anything after the first EOS is ignored (a decoded sequence ends there,
    padded with PAD); the budgets count tokens up to and including it.

    Raises:
        MissingSOS, MissingEOS, EmptySegment,
        SequenceTooLong: the sequence breaks a token budget.
    """
    tokens = seq.tokens
    if not tokens or tokens[0] != SOS:
        raise MissingSOS("sequence must start with <SOS>")
    if EOS not in tokens:
        raise MissingEOS("sequence has no <EOS>")
    end = tokens.index(EOS)

    crosses: list[FeatureCross] = []
    start = 1
    for i in range(1, end + 1):
        if tokens[i] == SEP or i == end:
            if i == start:
                raise EmptySegment(f"segment {len(crosses)} is empty")
            crosses.append(FeatureCross(tokens[start:i]))
            start = i + 1
    longest = max(len(cross.tokens) for cross in crosses)
    if not _within_budget(longest, end + 1):
        raise SequenceTooLong(_over_budget(longest, end + 1))
    return crosses


class FeatureSet:
    """A feature set under construction: columns, the cross that built each,
    the bytes of every kept column and the running length of its sequence.

    The one owner of the two rules that keep a recorded sequence equal to the
    set it was scored on: ``add`` drops a column bitwise equal to a kept one
    (first occurrence wins), and ``fits`` says whether one more cross keeps
    the sequence inside ``SEGMENT_CAP`` and ``MAX_LEN``. ``add`` does not
    check ``fits``, so a caller that must respect the budgets asks first.
    """

    def __init__(self):
        self.provenance: list[FeatureCross] = []
        self._columns: list[np.ndarray] = []
        self._keys: set[bytes] = set()
        self._length = 1    # <SOS> and <EOS>, less the <SEP> the first cross goes without

    @property
    def n_features(self) -> int:
        return len(self._columns)

    def fits(self, cross: FeatureCross) -> bool:
        """Whether ``CrossSequence.from_crosses`` accepts the set plus
        ``cross``, given that it accepts the set."""
        n = len(cross.tokens)
        return _within_budget(n, self._length + n + 1)

    def add(self, cross: FeatureCross, column: np.ndarray) -> bool:
        """Keep ``column``, built by ``cross``, unless it is a bitwise duplicate."""
        key = column.tobytes()
        if key in self._keys:
            return False
        self._keys.add(key)
        self._columns.append(column)
        self.provenance.append(cross)
        self._length += len(cross.tokens) + 1
        return True

    def copy(self) -> "FeatureSet":
        other = FeatureSet()
        other.provenance = list(self.provenance)
        other._columns = list(self._columns)
        other._keys = set(self._keys)
        other._length = self._length
        return other

    def matrix(self) -> np.ndarray:
        """The set's values, one column per kept cross: ``(n, m)`` float64."""
        return np.column_stack(self._columns)

    def sequence(self) -> CrossSequence:
        return CrossSequence.from_crosses(self.provenance)


def apply_sequence(seq: CrossSequence, table: DataTable) -> np.ndarray:
    """Materialize a sequence into an ``(n, m)`` array, one column per cross.

    Each cross is walked once, by ``eval_cross``. Bitwise-identical duplicate
    columns are dropped (first occurrence wins); the drop count is logged.
    Constant columns are kept.

    Raises:
        the errors of ``parse_sequence`` and of ``eval_cross``.
    """
    crosses = parse_sequence(seq)
    features = FeatureSet()
    for cross in crosses:
        features.add(cross, eval_cross(cross, table))
    if features.n_features < len(crosses):
        log.info("apply_sequence dropped %d duplicate column(s)",
                 len(crosses) - features.n_features)
    return features.matrix()


def _render_op(symbol: str, a: str, b: str | None = None) -> str:
    if b is not None:
        return f"({a}{symbol}{b})"
    if symbol == "square":
        return f"({a})^2"
    if symbol == "reciprocal":
        return f"1/({a})"
    return f"{symbol}({a})"


def render_infix(cross: FeatureCross, names: Sequence[str]) -> str:
    """Render a cross as a fully parenthesized infix string.

    Features appear as ``[column name]``; ``square`` renders as ``(x)^2``
    and ``reciprocal`` as ``1/(x)``.
    """
    def name(token: str) -> str:
        idx = feature_index(token)
        if idx >= len(names):
            raise FeatureIndexOutOfRange(f"{token} but only {len(names)} names")
        return f"[{names[idx]}]"

    return _walk(cross.tokens, name, _render_op)


def random_cross(n_features: int, depth_limit: int, rng: np.random.Generator) -> FeatureCross:
    """Sample a random valid cross; depth_limit bounds expression nesting.

    depth_limit=1 always yields a single feature token.
    """
    def grow(depth: int) -> list[str]:
        if depth <= 1 or rng.random() < LEAF_PROB:
            return [feature_token(int(rng.integers(n_features)))]
        symbol = OP_SYMBOLS[int(rng.integers(len(OP_SYMBOLS)))]
        if OPCODES[symbol].arity == 1:
            return grow(depth - 1) + [symbol]
        return grow(depth - 1) + grow(depth - 1) + [symbol]

    return FeatureCross(tuple(grow(depth_limit)))
