"""Exploration-record collection: three cooperating Q-agents (head feature,
operator, tail feature) grow a feature set step by step, rewarded by each
step's gain in the label-free utility of the set.

Each record pairs a full token sequence with the utility of the set it
materializes, forming the training corpus for the encoder/decoder stages.

Every episode starts from the table's own columns, scored once per table
and utility config: ``collect`` keeps that base in a module-level
``weakref.WeakKeyDictionary`` keyed by the ``DataTable``, so later calls on
the same live table copy it instead of scoring it again, and the entry dies
with the table.
"""

from __future__ import annotations

import logging
import math
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nn
from .expr import (
    OP_SYMBOLS,
    OPS,
    CrossSequence,
    FeatureCross,
    FeatureSet,
    eval_cross,
    feature_token,
    op_set_hash,
)
from .errors import ConfigHashMismatch, MalformedRecord, NeatError
from .tabular import DataTable
from .utility import DistanceCache, UtilityConfig, mdcg

log = logging.getLogger(__name__)

STATE_WIDTH = 49
EPSILON_START = 1.0
EPSILON_END = 0.05
EPSILON_FRACTION = 0.7
GAMMA = 0.9               # TD discount
REPLAY_CAPACITY = 4096    # most rows a replay buffer holds
BATCH_SIZE = 64           # transitions per TD update
SYNC_EVERY = 50           # TD updates between target-network syncs
HIDDEN = 64               # Q-network hidden width


@dataclass(frozen=True)
class ExplorationRecord:
    sequence: CrossSequence
    utility: float
    episode: int
    step: int


@dataclass(frozen=True)
class CollectorConfig:
    """Only the utility's settings: a caller needs them again to re-score the records."""

    utility: UtilityConfig = field(default_factory=UtilityConfig)


def _quartiles(a: np.ndarray, axis: int) -> np.ndarray:
    """The 25th, 50th and 75th percentiles of ``a`` along ``axis``, stacked
    first, from one sort. numpy's ``linear`` rule: the quantile q sits at
    virtual index i = (n - 1) q of the sorted values, between positions
    floor(i) and floor(i) + 1, and with t = i - floor(i) it is
    ``lo + (hi - lo) t``, or ``hi - (hi - lo) (1 - t)`` when t >= 0.5, as in
    numpy's ``_lerp``. At n = 1 numpy reads the last value with t = 1."""
    s = np.moveaxis(np.sort(a, axis=axis), axis, 0)
    n = len(s)
    out = np.empty((3,) + s.shape[1:])
    for row, q in zip(out, (0.25, 0.5, 0.75)):
        i = (n - 1) * q
        lo = int(i)
        hi = min(lo + 1, n - 1)
        t = i - lo if hi > lo else 1.0
        diff = s[hi] - s[lo]
        row[...] = s[hi] - diff * (1.0 - t) if t >= 0.5 else s[lo] + diff * t
    return out


def describe_state(v: np.ndarray, known: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-width description of a feature set's ``(n, m)`` values: 7
    per-column statistics, each summarized across columns by the same 7
    statistics, through ``nn.scale_input``. Returns ``(state, col_stats)``.

    ``known`` is the ``(7, j)`` statistics (mean, std, min, 25th percentile,
    median, 75th percentile, max) of ``v``'s first ``j`` columns, as returned
    by the call for the set before it grew; pass ``np.empty((7, 0))`` for a
    set seen for the first time. Sets only grow by appending columns, so only
    columns ``j`` to ``m - 1`` are described here, and ``col_stats`` covers
    all ``m``. It is read-only, so an episode can share the base set's.

    A column's mean is its sum in row order over n, and its std the root of
    the same sum of squared deviations over n: ``np.cumsum(..., axis=0)[-1]``
    takes those sums. On the C-ordered ``(n, m)`` stack with m >= 2,
    ``v.mean(axis=0)`` and ``v.std(axis=0)`` add one row at a time too, so a
    column's statistics carry the same bits whichever set it is described
    in, and a grown set's equal a whole-matrix call's. For a 1-column set
    numpy sums the contiguous column pairwise instead, so there the row-order
    sum defines the bits and ``np.mean`` may differ in the last place.

    Quartiles follow numpy's ``linear`` rule (see ``_quartiles``), so they
    equal ``np.percentile(..., [25, 50, 75], axis)`` bit for bit, apart from
    the sign of a zero read from a tie of 0.0 and -0.0, which a sort and
    numpy's partition may order differently."""
    n = len(v)
    new = v[:, known.shape[1]:]
    mean = np.cumsum(new, axis=0)[-1] / n
    dev = new - mean
    dev *= dev
    std = np.sqrt(np.cumsum(dev, axis=0)[-1] / n)
    q = _quartiles(new, axis=0)
    col_stats = np.hstack([known, np.vstack([mean, std, new.min(axis=0), q, new.max(axis=0)])])
    col_stats.setflags(write=False)
    rq = _quartiles(col_stats, axis=1)
    summary = np.stack([col_stats.mean(axis=1), col_stats.std(axis=1), col_stats.min(axis=1),
                        rq[0], rq[1], rq[2], col_stats.max(axis=1)], axis=1)
    return nn.scale_input(summary.reshape(STATE_WIDTH)), col_stats


class ReplayBuffer:
    """Ring buffer over transition fields; ``next_valid`` is the valid-action
    count at ``next_state``. Its arrays are allocated once, at ``capacity``
    rows: ``collect`` passes the smaller of ``REPLAY_CAPACITY`` and its step
    budget, so no row is allocated that no push can fill. That keeps
    ``peak_rss_mb`` flat: buffers of the default 4096 rows, freed and
    allocated again on each ``collect`` call, once made it jump between 49.5
    and 56.5 MB on ``collect-wide``."""

    def __init__(self, capacity: int):
        self.states = np.zeros((capacity, STATE_WIDTH))
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.next_states = np.zeros((capacity, STATE_WIDTH))
        self.next_valid = np.zeros(capacity, dtype=np.int64)
        self.terminal = np.zeros(capacity, dtype=bool)
        self.pos = 0
        self.size = 0

    def push(self, state: np.ndarray, action: int, reward: float,
             next_state: np.ndarray, next_valid: int, terminal: bool) -> None:
        i = self.pos
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self.next_valid[i] = next_valid
        self.terminal[i] = terminal
        self.pos = (i + 1) % len(self.states)
        self.size = min(self.size + 1, len(self.states))

    def sample(self, batch: int, rng: np.random.Generator):
        idx = rng.choice(self.size, size=batch, replace=False)
        return (self.states[idx], self.actions[idx], self.rewards[idx],
                self.next_states[idx], self.next_valid[idx], self.terminal[idx])


class QAgent:
    """``HIDDEN``-wide ``nn.Mlp`` Q-network ``online``, its synced ``target``, a replay buffer."""

    def __init__(self, name: str, n_actions: int, capacity: int,
                 rng: np.random.Generator):
        self.n_actions = n_actions
        self.online = nn.Mlp(f"{name}.d", STATE_WIDTH, HIDDEN, n_actions, rng)
        self.target = nn.Mlp(f"{name}.t", STATE_WIDTH, HIDDEN, n_actions, rng)
        self._sync_target()
        self.opt = nn.Adam(self.online.params())
        self.buffer = ReplayBuffer(capacity)
        self.updates = 0

    def _sync_target(self) -> None:
        for t, o in zip(self.target.params(), self.online.params()):
            t.value[...] = o.value

    def select(self, state: np.ndarray, valid: int, epsilon: float,
               rng: np.random.Generator) -> int:
        valid = min(valid, self.n_actions)
        if rng.random() < epsilon:
            return int(rng.integers(valid))
        q, _ = self.online.forward(state[None, :])
        q[0, valid:] = -np.inf
        return int(np.argmax(q[0]))


def bellman_update(agent: QAgent, batch) -> float:
    """One TD step on a batch, the tuple that ``ReplayBuffer.sample`` returns:
    y = r + ``GAMMA`` * masked max target-Q (r when terminal); returns the
    mean squared TD error. Syncs the target network every ``SYNC_EVERY``
    updates."""
    states, actions, rewards, next_states, next_valid, terminal = batch
    B = states.shape[0]

    tq, _ = agent.target.forward(next_states)
    mask = np.arange(agent.n_actions)[None, :] < next_valid[:, None]
    tq = np.where(mask, tq, -np.inf)
    best_next = tq.max(axis=1)
    y = np.where(terminal, rewards, rewards + GAMMA * best_next)

    q, cache = agent.online.forward(states)
    picked = q[np.arange(B), actions]
    diff = picked - y
    loss = float(np.mean(diff * diff))
    dq = np.zeros_like(q)
    dq[np.arange(B), actions] = 2.0 * diff / B
    agent.online.backward_params(dq, cache)
    agent.opt.step()
    agent.updates += 1
    if agent.updates % SYNC_EVERY == 0:
        agent._sync_target()
    return loss


def _compose_cross(features: FeatureSet, head: int, symbol: str,
                   tail: int | None) -> FeatureCross:
    tokens = list(features.provenance[head].tokens)
    if tail is not None:
        tokens += features.provenance[tail].tokens
    tokens.append(symbol)
    return FeatureCross(tuple(tokens))


def _advance(features: FeatureSet, cross: FeatureCross, table: DataTable,
             distances: DistanceCache) -> bool:
    """Try to add a cross; a no-op (False, set and cache unchanged) when the
    set does not fit it (``FeatureSet.fits``: no room, or a token budget
    overflows) or ``distances.add``, the set's cache, does not keep its
    column: its rank codes equal a kept column's. A cross that does not fit
    is not evaluated."""
    if not features.fits(cross):
        return False
    column = eval_cross(cross, table)
    if not distances.add(column):
        return False
    features.add(cross, column)
    return True


def _score(features: FeatureSet, distances: DistanceCache, col_stats: np.ndarray,
           utility: UtilityConfig) -> tuple[float, np.ndarray, np.ndarray]:
    """Utility, state and column statistics of the current set, read from
    its kept matrix. ``distances``, the set's cache, and ``col_stats`` let
    each call pay only for the appended column."""
    v = features.matrix()
    state, col_stats = describe_state(v, col_stats)
    return mdcg(v, utility, distances), state, col_stats


@dataclass(frozen=True)
class _Base:
    """A table's own columns as every episode starts them: the set, its
    scored ``DistanceCache``, and its utility, state, column statistics and
    sequence. An episode grows copies of ``features`` and ``distances``, and
    nothing here is ever written, so one base serves every ``collect`` call
    on its table. It holds copies of the table's values, never the table."""

    features: FeatureSet
    distances: DistanceCache
    utility: float
    state: np.ndarray
    col_stats: np.ndarray
    sequence: CrossSequence


# The bases of each live table, one per utility config (see ``collect``).
_BASES: weakref.WeakKeyDictionary[DataTable, dict[UtilityConfig, _Base]] = (
    weakref.WeakKeyDictionary())


def _base(X: DataTable, utility: UtilityConfig) -> _Base:
    """The base of ``X`` under ``utility``: from ``_BASES``, or scored and
    kept there."""
    bases = _BASES.get(X, {})
    base = bases.get(utility)
    if base is None:
        features = FeatureSet(2 * X.n_features)
        for i in range(X.n_features):
            cross = FeatureCross((feature_token(i),))
            features.add(cross, eval_cross(cross, X))
        sequence = features.sequence()      # a table too wide raises before scoring
        distances = DistanceCache(features.matrix(), utility)
        score, state, col_stats = _score(features, distances, np.empty((7, 0)), utility)
        state.setflags(write=False)
        base = bases[utility] = _Base(features, distances, score, state, col_stats, sequence)
        _BASES[X] = bases
    return base


def _epsilon(episode: int, episodes: int) -> float:
    frac = min(1.0, episode / (EPSILON_FRACTION * episodes))
    return EPSILON_START + (EPSILON_END - EPSILON_START) * frac


def collect(X: DataTable, episodes: int, steps: int,
            cfg: CollectorConfig | None = None, *,
            rng: np.random.Generator) -> list[ExplorationRecord]:
    """Q-learning exploration, one record per step. Three agents, shared
    across episodes, pick a cross: the head agent a feature, the op agent an
    operator and, for a binary operator, the tail agent a second feature.
    After the set has grown, one loop runs over the three: an agent that
    acted pushes its transition, rewarded by the step's utility gain (0.0
    on a no-op step), and each agent whose buffer holds
    ``BATCH_SIZE`` rows takes one TD update. Epsilon decays linearly from
    ``EPSILON_START`` to ``EPSILON_END`` over the first ``EPSILON_FRACTION``
    of the episodes. A set's capacity is twice the table's feature count.

    A step adds its cross's column only if the utility keeps it
    (``_advance``), so every added column of a record earns a term of its
    utility. The table's own columns start every set as given, even one that
    ranks as another does (``x`` beside ``2x + 1``) or equals it bit for bit:
    the utility scores one of them, and a cross whose column ranks as either
    is refused.

    The table's own columns are scored once per table and utility config,
    by the first call on that table (``_base``); later calls copy that base
    as each episode does. The base is a function of the table's values and
    ``cfg.utility`` alone, which do not change while the table lives, and
    scoring draws nothing from ``rng``, so a call's records are bit-identical
    to those of the same call on a fresh copy of the table.

    Raises:
        SequenceTooLong: the table has more than 63 columns, so the
            sequence of its own columns exceeds ``MAX_LEN``; raised before
            any set is scored.
        DegenerateK: ``cfg.utility.k_neighbors`` is below 1, or not below
            the number of subsampled rows."""
    cfg = cfg or CollectorConfig()
    max_features = 2 * X.n_features
    seeds = rng.integers(np.iinfo(np.int64).max, size=3)
    # An agent pushes at most once a step, so its buffer needs no more rows.
    capacity = min(REPLAY_CAPACITY, episodes * steps)
    head_agent, op_agent, tail_agent = agents = [
        QAgent(name, n_actions, capacity, np.random.default_rng(int(seed)))
        for name, n_actions, seed in zip(("head", "op", "tail"),
                                         (max_features, len(OP_SYMBOLS), max_features), seeds)]
    records: list[ExplorationRecord] = []
    base = _base(X, cfg.utility)        # every episode starts from the table's columns
    for episode in range(episodes):
        epsilon = _epsilon(episode, episodes)
        features, distances = base.features.copy(), base.distances.copy()
        utility, state, col_stats = base.utility, base.state, base.col_stats
        sequence = base.sequence
        for step in range(steps):
            m_before = features.n_features
            head = head_agent.select(state, m_before, epsilon, rng)
            op = op_agent.select(state, len(OP_SYMBOLS), epsilon, rng)
            symbol = OP_SYMBOLS[op]
            tail = (tail_agent.select(state, m_before, epsilon, rng)
                    if OPS[symbol].arity == 2 else None)
            cross = _compose_cross(features, head, symbol, tail)
            next_state, gain = state, 0.0       # a no-op step leaves the set as it was
            if _advance(features, cross, X, distances):
                score, next_state, col_stats = _score(
                    features, distances, col_stats, cfg.utility)
                gain, utility = score - utility, score
                sequence = features.sequence()
            records.append(ExplorationRecord(sequence, utility, episode, step))
            m_after = features.n_features
            for agent, action, valid in zip(agents, (head, op, tail),
                                            (m_after, len(OP_SYMBOLS), m_after)):
                if action is not None:
                    agent.buffer.push(state, action, gain, next_state, valid,
                                      step == steps - 1)
                if agent.buffer.size >= BATCH_SIZE:
                    bellman_update(agent, agent.buffer.sample(BATCH_SIZE, rng))
            state = next_state
        if (episode + 1) % 32 == 0 or episode == episodes - 1:
            log.info("stage=collect episode=%d epsilon=%.3f utility=%.6f",
                     episode, epsilon, utility)
    return records


# --- record file round-trip ---

def write_records(path: str | Path, records: Sequence[ExplorationRecord],
                  dataset_id: str, seed: int, episodes: int, steps: int) -> None:
    """Line-delimited record file: a key=value header, then
    ``<utility repr>\\t<serialized sequence>`` per record. Byte-deterministic
    for a given record list. The records of no-op steps share their
    sequence object, so each object is rendered once.

    The path is unlinked, then created anew, not truncated in place: on ext4
    with ``auto_da_alloc``, truncating a recently written file waits for its
    writeback. So a hard link to the old file, or a reader that holds it
    open, keeps the old contents, and a symlink at the path is replaced by
    the file.

    Raises:
        ValueError: a file that ``read_records`` would refuse: ``dataset_id``
            holds a tab or a line break (any that ``str.splitlines`` breaks
            on), which the header could not hold, ``episodes`` or ``steps``
            is below 1, or there are not ``episodes × steps`` records;
            raised before the path is touched.
    """
    if "\t" in dataset_id or "".join(dataset_id.splitlines()) != dataset_id:
        raise ValueError(f"dataset_id {dataset_id!r}: a tab or line break "
                         "would not read back from the header")
    if episodes < 1 or steps < 1 or len(records) != episodes * steps:
        raise ValueError(f"{len(records)} records under episodes={episodes} and "
                         f"steps={steps}: read_records needs both positive and "
                         "episodes × steps records")
    lines = [f"dataset_id={dataset_id}\topset={op_set_hash()}\tseed={seed}"
             f"\tepisodes={episodes}\tsteps={steps}"]
    texts: dict[int, str] = {}     # id of a sequence the records hold -> its text
    for rec in records:
        text = texts.get(id(rec.sequence))
        if text is None:
            text = texts[id(rec.sequence)] = rec.sequence.text()
        lines.append(f"{float(rec.utility)!r}\t{text}")
    path = Path(path)
    path.unlink(missing_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _positive(header: dict[str, str], key: str, path: str | Path) -> int:
    """The header's ``key`` as a positive integer; ``MalformedRecord`` otherwise."""
    try:
        value = int(header[key])
    except (KeyError, ValueError):
        value = 0
    if value < 1:
        raise MalformedRecord(
            f"{path}: line 1: header {key}={header.get(key)!r} is not a positive integer")
    return value


def read_records(path: str | Path) -> tuple[list[ExplorationRecord], dict[str, str]]:
    """Inverse of ``write_records``; episode and step are recovered from each
    record's position, since ``collect`` keeps one record per step. Each
    distinct sequence text is parsed once, and its records share the result.

    Raises:
        ConfigHashMismatch: the header is missing or names another op set.
        MalformedRecord: the header's ``episodes`` or ``steps`` is missing or
            not a positive integer, the file does not hold ``episodes × steps``
            records, or a record line has no tab, a utility that is not a
            finite float or a sequence that ``CrossSequence.from_text``
            refuses; the message names the line, if one is at fault.
    """
    lines = Path(path).read_text().splitlines()
    header = dict(kv.split("=", 1) for kv in lines[0].split("\t") if "=" in kv) if lines else {}
    if header.get("opset") != op_set_hash():
        raise ConfigHashMismatch(
            f"{path}: op set {header.get('opset')!r}, this build has {op_set_hash()!r}")
    episodes, steps = (_positive(header, key, path) for key in ("episodes", "steps"))
    if len(lines) - 1 != episodes * steps:
        raise MalformedRecord(f"{path}: {len(lines) - 1} records, but the header's "
                              f"episodes={episodes} and steps={steps} make {episodes * steps}")
    records = []
    parsed: dict[str, CrossSequence] = {}
    try:
        for i, line in enumerate(lines[1:]):
            utility, text = line.split("\t", 1)
            value = float(utility)
            if not math.isfinite(value):
                raise ValueError(f"utility {utility!r} is not finite")
            sequence = parsed.get(text)
            if sequence is None:
                sequence = parsed[text] = CrossSequence.from_text(text)
            episode, step = divmod(i, steps)
            records.append(ExplorationRecord(sequence, value, episode, step))
    except (ValueError, NeatError) as exc:
        raise MalformedRecord(f"{path}: line {i + 2}: {type(exc).__name__}: {exc}") from None
    return records, header
