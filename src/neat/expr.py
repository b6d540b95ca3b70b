"""Feature-cross expressions: postfix token sequences, safe evaluation, rendering.

A cross is a postfix program over original feature columns; a sequence is
``<SOS> cross (<SEP> cross)* <EOS>``, the unit that the collector records and
the decoder generates. ``OPS`` is the operator set: each operator's arity,
guarded evaluation and infix form, stated once. Evaluation is total: every
operator carries a guard so any valid cross produces finite output on any
finite table.

A feature set has two forms: its values, a plain ``(n, m)`` float64 array
that the utility and the graph encoder read, and its crosses, a
``CrossSequence``, which checks the ``SEGMENT_CAP`` and ``MAX_LEN`` token
budgets (``_within_budget``, also read by ``FeatureSet.fits``) when it is
constructed. ``CrossSequence.from_text`` is the one parser of a sequence's
text, and it walks each cross's grammar there; a sequence built in code is
walked where it is used. A collected set adds no column that ranks as a
kept one does: that rule is the utility's (``utility.DistanceCache.add``).
``FeatureSet`` keeps only the bitwise rule beneath it, for the columns the
utility's rule does not decide. ``_walk`` is the one postfix walker:
checking, evaluation and rendering are its callbacks, so all raise the same
``InvalidPostfix`` errors.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import sys
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
)
from .tabular import DataTable

log = logging.getLogger(__name__)
T = TypeVar("T")

SOS = "<SOS>"
EOS = "<EOS>"
SEP = "<SEP>"

MAX_LEN = 128          # whole-sequence token budget
SEGMENT_CAP = 24       # per-cross token budget
DIV_EPSILON = 1e-8     # divisor floor; sign(0) treated as +1
LOG_EPSILON = 1e-8
EXP_MAX = 50.0         # exp argument clamp
VALUE_CAP = 1e150      # every leaf and op output clamped here, so no op overflows
LEAF_PROB = 0.35       # random_cross: chance a subtree above depth 1 is a leaf


def _safe_divide(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # |b| <= eps is replaced by sign(b)*eps with sign(0) = +1
    floor = np.where(b >= 0.0, DIV_EPSILON, -DIV_EPSILON)
    denom = np.where(np.abs(b) > DIV_EPSILON, b, floor)
    return a / denom


@dataclass(frozen=True)
class Op:
    """An operator: how many operands it pops, its guarded evaluation on
    columns, and its infix form, a format string over the operands' renderings."""

    arity: int
    evaluate: Callable[..., np.ndarray]
    infix: str


# The operator set. Its order fixes op_set_hash() and the op agent's actions.
# The guards and _apply_op's VALUE_CAP clamp keep each output finite on finite
# input.
OPS = {
    "+": Op(2, np.add, "({}+{})"),
    "-": Op(2, np.subtract, "({}-{})"),
    "*": Op(2, np.multiply, "({}*{})"),
    "/": Op(2, _safe_divide, "({}/{})"),                    # divisor floored off 0
    "sin": Op(1, np.sin, "sin({})"),
    "cos": Op(1, np.cos, "cos({})"),
    "log": Op(1, lambda a: np.log(np.abs(a) + LOG_EPSILON), "log({})"),   # |a|, shifted off 0
    "exp": Op(1, lambda a: np.exp(np.clip(a, -EXP_MAX, EXP_MAX)), "exp({})"),  # can't overflow
    "sqrt": Op(1, lambda a: np.sqrt(np.abs(a)), "sqrt({})"),               # |a|: no NaN below 0
    "square": Op(1, lambda a: a * a, "({})^2"),
    "reciprocal": Op(1, lambda a: _safe_divide(np.ones_like(a), a), "1/({})"),  # as "/"
}
OP_SYMBOLS = tuple(OPS)


def is_feature(token: str) -> bool:
    """Whether ``token`` is spelled as ``feature_token`` spells an index:
    ``f``, then ASCII digits without a leading zero, no more of them than
    ``int`` converts (``sys.get_int_max_str_digits()``, 0 for no limit)."""
    digits = token[1:]
    limit = sys.get_int_max_str_digits()
    return (token[:1] == "f" and digits.isascii() and digits.isdigit()
            and (digits == "0" or digits[0] != "0") and (not limit or len(digits) <= limit))


def feature_index(token: str) -> int:
    return int(token[1:])


def feature_token(index: int) -> str:
    return f"f{index}"


def _within_budget(longest: int, length: int) -> bool:
    """The token budgets: no cross longer than ``SEGMENT_CAP`` tokens and no
    sequence, ``<SOS>`` to ``<EOS>``, longer than ``MAX_LEN``."""
    return longest <= SEGMENT_CAP and length <= MAX_LEN


@dataclass(frozen=True)
class FeatureCross:
    """A postfix program over feature tokens and operators. Its validity is
    checked by the walk that reads it (``from_text``, ``eval_cross``, ``render_infix``)."""

    tokens: tuple[str, ...]


@dataclass(frozen=True)
class CrossSequence:
    """A feature set's crosses in order, written ``<SOS> cross (<SEP> cross)*
    <EOS>``. Constructing one raises ``SequenceTooLong`` if it breaks a token
    budget, and ``EmptySegment`` if it holds no cross."""

    crosses: tuple[FeatureCross, ...]

    def __post_init__(self):
        if not self.crosses:
            raise EmptySegment("a sequence holds no cross")
        lengths = [len(cross.tokens) for cross in self.crosses]
        longest, length = max(lengths), sum(lengths) + len(lengths) + 1
        if not _within_budget(longest, length):
            raise SequenceTooLong(f"{length} tokens with a {longest}-token cross "
                                  f"(MAX_LEN {MAX_LEN}, SEGMENT_CAP {SEGMENT_CAP})")

    def text(self) -> str:
        body = f" {SEP} ".join([" ".join(cross.tokens) for cross in self.crosses])
        return f"{SOS} {body} {EOS}"

    @classmethod
    def from_crosses(cls, crosses: Iterable[FeatureCross]) -> "CrossSequence":
        return cls(tuple(crosses))

    @classmethod
    def from_text(cls, text: str) -> "CrossSequence":
        """Parse ``text()``'s form, walking each distinct cross once.

        Raises:
            MissingSOS, MissingEOS: no ``<SOS>`` first, or no ``<EOS>`` last.
            EmptySegment, SequenceTooLong: as constructing one does.
            InvalidPostfix: a cross that is no postfix program; any other
                ``<SOS>`` or ``<EOS>`` is a stray token in one.
        """
        tokens = tuple(text.split())
        if tokens[:1] != (SOS,):
            raise MissingSOS("sequence must start with <SOS>")
        if len(tokens) < 2 or tokens[-1] != EOS:
            raise MissingEOS("sequence must end with <EOS>")
        ends = [i for i, token in enumerate(tokens) if token == SEP] + [len(tokens) - 1]
        segments = [tokens[a + 1:b] for a, b in zip([0] + ends, ends)]
        if () in segments:
            raise EmptySegment(f"segment {segments.index(())} is empty")
        return cls(tuple(map(_read_cross, segments)))


@functools.lru_cache(maxsize=1 << 14)
def _read_cross(tokens: tuple[str, ...]) -> FeatureCross:
    """The cross of ``tokens`` once ``_walk`` with no-op callbacks accepts it;
    cached, so sequences share each distinct valid cross, walked once."""
    _walk(tokens, lambda token: None, lambda symbol, *operands: None)
    return FeatureCross(tokens)


def op_set_hash() -> str:
    """Short digest of the operator set, stamped into records and checkpoints."""
    return hashlib.sha256("|".join(OP_SYMBOLS).encode()).hexdigest()[:12]


def _apply_op(symbol: str, *operands: np.ndarray) -> np.ndarray:
    return np.clip(OPS[symbol].evaluate(*operands), -VALUE_CAP, VALUE_CAP)


def _walk(tokens: Sequence[str], leaf: Callable[[str], T], apply: Callable[..., T]) -> T:
    """Run a postfix program: ``leaf(token)`` for each feature token,
    ``apply(symbol, *operands)`` for each operator; returns the one value
    left. The only place that raises the grammar's ``InvalidPostfix`` errors."""
    stack: list[T] = []
    for token in tokens:
        op = OPS.get(token)
        if op is None:
            if not is_feature(token):
                raise InvalidPostfix(f"unexpected token {token!r}")
            stack.append(leaf(token))
            continue
        if len(stack) < op.arity:
            raise InvalidPostfix(f"operator {token!r} underflows the stack")
        operands = stack[-op.arity:]
        del stack[-op.arity:]
        stack.append(apply(token, *operands))
    if len(stack) != 1:
        raise InvalidPostfix(f"{len(stack)} operands left on the stack")
    return stack[0]


def eval_cross(cross: FeatureCross, table: DataTable) -> np.ndarray:
    """Evaluate one postfix cross against a table's original columns.

    Leaf columns and each operator's guarded ``OPS`` output are clipped to
    ±``VALUE_CAP``, so no operator overflows and every value lies within it.

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
        return np.clip(values[:, idx], -VALUE_CAP, VALUE_CAP)

    return _walk(cross.tokens, column, _apply_op)


class FeatureSet:
    """A feature set under construction: columns, the cross that built each,
    the bytes of every kept column and the running length of its sequence.

    The one owner of the two rules that keep a recorded sequence equal to the
    set it was scored on: ``add`` drops a column bitwise equal to a kept one
    (first occurrence wins), and ``fits`` says whether the set has room for
    one more cross that keeps the sequence inside ``SEGMENT_CAP`` and
    ``MAX_LEN``. ``add`` does not check ``fits``, so a caller asks first.

    A cross that ``collect`` adds must pass the utility's stricter rule
    first (``utility.DistanceCache.add``: its column ranks as no kept
    one), which also refuses every bitwise duplicate. The bitwise rule
    remains for what that rule does not decide: the table's own columns,
    which start every set as given, and ``apply_sequence``'s replay of a
    sequence on any rows. A sequence built in code (``random_cross``), or a
    record replayed on the encoder's row sample, can hold columns equal
    there, and dropping them defines the nodes of ``materialize_graphs``.

    Columns live in one ``(n, capacity)`` float64 array, allocated at the
    first ``add`` (or by ``copy``) and never grown: ``capacity`` is the
    caller's bound on the columns the set will hold, and adding past it
    raises ``IndexError``. So ``matrix()`` is a read-only view of the filled
    columns, not a stack of them. Columns are only appended, so a view
    returned earlier keeps its values while the set grows.
    """

    def __init__(self, capacity: int):
        self.provenance: list[FeatureCross] = []
        self._capacity = capacity
        self._values: np.ndarray | None = None     # (n, capacity), filled from the left
        self._keys: set[bytes] = set()
        self._length = 1    # <SOS> and <EOS>, less the <SEP> the first cross goes without

    @property
    def n_features(self) -> int:
        return len(self.provenance)

    def fits(self, cross: FeatureCross) -> bool:
        """Whether the set is below its capacity and ``CrossSequence.from_crosses``
        accepts the set plus ``cross``, given that it accepts the set."""
        n = len(cross.tokens)
        return self.n_features < self._capacity and _within_budget(n, self._length + n + 1)

    def add(self, cross: FeatureCross, column: np.ndarray) -> bool:
        """Keep ``column``, built by ``cross``, unless it is a bitwise duplicate."""
        key = column.tobytes()
        if key in self._keys:
            return False
        if self._values is None:
            self._values = np.empty((len(column), self._capacity))
        self._values[:, self.n_features] = column
        self._keys.add(key)
        self.provenance.append(cross)
        self._length += len(cross.tokens) + 1
        return True

    def copy(self) -> "FeatureSet":
        """An independent set with the same columns, in an array of its own."""
        other = FeatureSet(self._capacity)
        other.provenance = list(self.provenance)
        if self._values is not None:
            other._values = self._values.copy()
        other._keys = set(self._keys)
        other._length = self._length
        return other

    def matrix(self) -> np.ndarray:
        """The set's values, one column per kept cross: a read-only
        ``(n, m)`` float64 view of the kept array."""
        view = self._values[:, :self.n_features]
        view.flags.writeable = False
        return view

    def sequence(self) -> CrossSequence:
        return CrossSequence.from_crosses(self.provenance)


def apply_sequence(seq: CrossSequence, table: DataTable,
                   columns: dict[FeatureCross, np.ndarray] | None = None) -> np.ndarray:
    """Materialize a sequence into a read-only ``(n, m)`` array, one column
    per cross: the ``matrix()`` of a ``FeatureSet`` sized to its crosses.

    ``columns`` memoizes ``eval_cross`` by cross (a local memo if None). The
    caller owns it, and it is valid for this ``table`` only. Each column it
    gains is read-only and stays there if a later cross raises, so a cross is
    walked once by all calls sharing the memo. Bitwise-identical duplicate
    columns are dropped (first occurrence wins); the drop count is logged.
    Constant columns are kept.

    Raises:
        the errors of ``eval_cross``: a cross built in code is walked here
        first, and a sequence read by ``CrossSequence.from_text`` can still
        name a feature past ``table``'s columns.
    """
    crosses = seq.crosses
    columns = {} if columns is None else columns
    features = FeatureSet(len(crosses))
    for cross in crosses:
        column = columns.get(cross)
        if column is None:
            column = columns[cross] = eval_cross(cross, table)
            column.flags.writeable = False
        features.add(cross, column)
    if features.n_features < len(crosses):
        log.info("apply_sequence dropped %d duplicate column(s)",
                 len(crosses) - features.n_features)
    return features.matrix()


def render_infix(cross: FeatureCross, names: Sequence[str]) -> str:
    """Render a cross as a fully parenthesized infix string: each operator
    fills its ``OPS`` infix form with its operands' renderings, so
    ``square`` renders as ``(x)^2`` and ``reciprocal`` as ``1/(x)``.
    Features appear as ``[column name]``.
    """
    def name(token: str) -> str:
        idx = feature_index(token)
        if idx >= len(names):
            raise FeatureIndexOutOfRange(f"{token} but only {len(names)} names")
        return f"[{names[idx]}]"

    return _walk(cross.tokens, name, lambda symbol, *operands: OPS[symbol].infix.format(*operands))


def random_cross(n_features: int, depth_limit: int, rng: np.random.Generator) -> FeatureCross:
    """Sample a random valid cross; depth_limit bounds expression nesting.

    depth_limit=1 always yields a single feature token.
    """
    def grow(depth: int) -> list[str]:
        if depth <= 1 or rng.random() < LEAF_PROB:
            return [feature_token(int(rng.integers(n_features)))]
        symbol = OP_SYMBOLS[int(rng.integers(len(OP_SYMBOLS)))]
        if OPS[symbol].arity == 1:
            return grow(depth - 1) + [symbol]
        return grow(depth - 1) + grow(depth - 1) + [symbol]

    return FeatureCross(tuple(grow(depth_limit)))
