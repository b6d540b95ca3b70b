"""Exploration-record collection: three cooperating Q-agents (head feature,
operator, tail feature) grow a feature set step by step, rewarded by the
label-free utility of each resulting set.

Each record pairs a full token sequence with the utility of the set it
materializes, forming the training corpus for the encoder/decoder stages.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nn
from .expr import (
    OPCODES,
    OP_SYMBOLS,
    CrossSequence,
    FeatureCross,
    FeatureSet,
    OpCode,
    eval_cross,
    feature_token,
    op_set_hash,
)
from .errors import ConfigHashMismatch, MalformedRecord
from .tabular import DataTable
from .utility import DistanceCache, UtilityConfig, mdcg

log = logging.getLogger(__name__)

STATE_WIDTH = 49
LEARNING_RATE = 0.001     # Adam, for every Q-network
EPSILON_START = 1.0
EPSILON_END = 0.05
EPSILON_FRACTION = 0.7


@dataclass(frozen=True)
class ExplorationRecord:
    sequence: CrossSequence
    utility: float
    episode: int
    step: int


@dataclass(frozen=True)
class CollectorConfig:
    utility: UtilityConfig = field(default_factory=UtilityConfig)
    gamma: float = 0.9
    replay_capacity: int = 4096
    batch_size: int = 64
    sync_every: int = 50
    hidden: int = 64


def describe_state(v: np.ndarray, known: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-width description of a feature set's ``(n, m)`` values: 7
    per-column statistics, each summarized across columns by the same 7
    statistics. Returns ``(state, summaries)``.

    ``known`` is the ``(5, j)`` five-number summary (min, 25th percentile,
    median, 75th percentile, max) of ``v``'s first ``j`` columns, as returned
    by the call for the set before it grew; pass ``np.empty((5, 0))`` for a
    set seen for the first time. Sets only grow by appending columns, so only
    columns ``j`` to ``m - 1`` are summarized here, and ``summaries`` covers
    all ``m``. It is read-only, so an episode can share the base set's.

    Column mean and std are recomputed over the whole of ``v`` on every call:
    ``v.mean(axis=0)`` on the C-ordered matrix sums row by row, while a single
    column's mean sums pairwise, so cached per-column moments would round
    differently from a cold call."""
    new = v[:, known.shape[1]:]
    q = np.percentile(new, [25.0, 50.0, 75.0], axis=0)
    summaries = np.hstack([known, np.vstack([new.min(axis=0), q, new.max(axis=0)])])
    summaries.setflags(write=False)
    col_stats = np.vstack([v.mean(axis=0), v.std(axis=0), summaries])
    rq = np.percentile(col_stats, [25.0, 50.0, 75.0], axis=1)
    summary = np.stack([col_stats.mean(axis=1), col_stats.std(axis=1), col_stats.min(axis=1),
                        rq[0], rq[1], rq[2], col_stats.max(axis=1)], axis=1)
    return summary.reshape(STATE_WIDTH), summaries


class ReplayBuffer:
    """Ring buffer over transition fields; ``next_valid`` is the valid-action
    count at ``next_state``. Storage doubles on demand up to ``capacity``, so
    memory follows the transitions pushed, not the capacity."""

    FIELDS = ("states", "actions", "rewards", "next_states", "next_valid", "terminal")
    MIN_ROWS = 64

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.states = np.zeros((0, STATE_WIDTH))
        self.actions = np.zeros(0, dtype=np.int64)
        self.rewards = np.zeros(0)
        self.next_states = np.zeros((0, STATE_WIDTH))
        self.next_valid = np.zeros(0, dtype=np.int64)
        self.terminal = np.zeros(0, dtype=bool)
        self.pos = 0
        self.size = 0

    def _grow(self) -> None:
        rows = min(self.capacity, max(self.MIN_ROWS, 2 * len(self.states)))
        for name in self.FIELDS:
            old = getattr(self, name)
            new = np.zeros((rows,) + old.shape[1:], dtype=old.dtype)
            new[:len(old)] = old
            setattr(self, name, new)

    def push(self, state: np.ndarray, action: int, reward: float,
             next_state: np.ndarray, next_valid: int, terminal: bool) -> None:
        i = self.pos
        if i == len(self.states):
            self._grow()
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self.next_valid[i] = next_valid
        self.terminal[i] = terminal
        self.pos = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch: int, rng: np.random.Generator):
        idx = rng.choice(self.size, size=batch, replace=False)
        return (self.states[idx], self.actions[idx], self.rewards[idx],
                self.next_states[idx], self.next_valid[idx], self.terminal[idx])


class QAgent:
    """Two-layer Q-network with a synced target copy and replay buffer."""

    def __init__(self, name: str, n_actions: int, cfg: CollectorConfig,
                 rng: np.random.Generator):
        self.n_actions = n_actions
        self.gamma = cfg.gamma
        self.sync_every = cfg.sync_every
        self.batch_size = cfg.batch_size
        self.d1 = nn.Dense(f"{name}.d1", STATE_WIDTH, cfg.hidden, rng)
        self.d2 = nn.Dense(f"{name}.d2", cfg.hidden, n_actions, rng)
        self.t1 = nn.Dense(f"{name}.t1", STATE_WIDTH, cfg.hidden, rng)
        self.t2 = nn.Dense(f"{name}.t2", cfg.hidden, n_actions, rng)
        self._sync_target()
        self.opt = nn.Adam(self.d1.params() + self.d2.params(), lr=LEARNING_RATE)
        self.buffer = ReplayBuffer(cfg.replay_capacity)
        self.updates = 0

    def _sync_target(self) -> None:
        self.t1.W.value[...] = self.d1.W.value
        self.t1.b.value[...] = self.d1.b.value
        self.t2.W.value[...] = self.d2.W.value
        self.t2.b.value[...] = self.d2.b.value

    def q_values(self, states: np.ndarray, target: bool = False):
        """Q-values ``(B, n_actions)`` of a batch of states ``(B, STATE_WIDTH)``,
        with the cache that ``bellman_update`` backpropagates."""
        l1, l2 = (self.t1, self.t2) if target else (self.d1, self.d2)
        a1, c1 = l1.forward(states)
        h1, r1 = nn.relu(a1)
        q, c2 = l2.forward(h1)
        cache = (c1, r1, c2)
        return q, cache

    def select(self, state: np.ndarray, valid: int, epsilon: float,
               rng: np.random.Generator) -> int:
        valid = min(valid, self.n_actions)
        if rng.random() < epsilon:
            return int(rng.integers(valid))
        q, _ = self.q_values(state[None, :])
        q[0, valid:] = -np.inf
        return int(np.argmax(q[0]))


def bellman_update(agent: QAgent, batch) -> float:
    """One TD step on a batch, the tuple that ``ReplayBuffer.sample`` returns:
    y = r + agent.gamma * masked max target-Q (r when terminal); returns the
    mean squared TD error. Syncs the target network every ``sync_every``
    updates."""
    states, actions, rewards, next_states, next_valid, terminal = batch
    B = states.shape[0]

    tq, _ = agent.q_values(next_states, target=True)
    mask = np.arange(agent.n_actions)[None, :] < next_valid[:, None]
    tq = np.where(mask, tq, -np.inf)
    best_next = tq.max(axis=1)
    y = np.where(terminal, rewards, rewards + agent.gamma * best_next)

    q, cache = agent.q_values(states)
    picked = q[np.arange(B), actions]
    diff = picked - y
    loss = float(np.mean(diff * diff))
    dq = np.zeros_like(q)
    dq[np.arange(B), actions] = 2.0 * diff / B
    c1, r1, c2 = cache
    dh = agent.d2.backward(dq, c2)
    da = nn.relu_backward(dh, r1)
    agent.d1.backward_params(da, c1)
    agent.opt.step()
    agent.updates += 1
    if agent.updates % agent.sync_every == 0:
        agent._sync_target()
    return loss


def _compose_cross(features: FeatureSet, head: int, opcode: OpCode,
                   tail: int | None) -> FeatureCross:
    tokens = list(features.provenance[head].tokens)
    if opcode.arity == 2:
        tokens += list(features.provenance[tail].tokens)
    tokens.append(opcode.symbol)
    return FeatureCross(tuple(tokens))


def _advance(features: FeatureSet, cross: FeatureCross, table: DataTable,
             max_features: int) -> bool:
    """Try to add a cross; a no-op (False, set unchanged) when the feature cap
    is hit, the sequence would overflow its token budgets, or the column is a
    bitwise duplicate. An over-budget cross is not evaluated."""
    if features.n_features >= max_features or not features.fits(cross):
        return False
    return features.add(cross, eval_cross(cross, table))


def _score(features: FeatureSet, distances: DistanceCache, summaries: np.ndarray,
           utility: UtilityConfig) -> tuple[float, np.ndarray, np.ndarray]:
    """Utility, state and column summaries of the current set, from one
    stacked matrix that is dropped on return. ``distances`` and
    ``summaries`` let each call pay only for the appended column."""
    v = features.matrix()
    state, summaries = describe_state(v, summaries)
    return mdcg(v, utility, distances), state, summaries


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
    acted pushes its transition, and each agent whose buffer holds
    ``batch_size`` rows takes one TD update. Epsilon decays linearly from
    ``EPSILON_START`` to ``EPSILON_END`` over the first ``EPSILON_FRACTION``
    of the episodes. A set holds at most twice the table's feature count."""
    cfg = cfg or CollectorConfig()
    max_features = 2 * X.n_features
    seeds = rng.integers(np.iinfo(np.int64).max, size=3)
    head_agent, op_agent, tail_agent = agents = [
        QAgent(name, n_actions, cfg, np.random.default_rng(int(seed)))
        for name, n_actions, seed in zip(("head", "op", "tail"),
                                         (max_features, len(OP_SYMBOLS), max_features), seeds)]
    records: list[ExplorationRecord] = []
    base = FeatureSet()                     # every episode starts from the table's columns
    for i in range(X.n_features):
        cross = FeatureCross((feature_token(i),))
        base.add(cross, eval_cross(cross, X))
    base_distances = DistanceCache()
    base_utility, base_state, base_summaries = _score(
        base, base_distances, np.empty((5, 0)), cfg.utility)

    for episode in range(episodes):
        epsilon = _epsilon(episode, episodes)
        features, distances = base.copy(), base_distances.copy()
        utility, state, summaries = base_utility, base_state, base_summaries
        for step in range(steps):
            m_before = features.n_features
            head = head_agent.select(state, m_before, epsilon, rng)
            op = op_agent.select(state, len(OP_SYMBOLS), epsilon, rng)
            opcode = OPCODES[OP_SYMBOLS[op]]
            tail = tail_agent.select(state, m_before, epsilon, rng) if opcode.arity == 2 else None
            cross = _compose_cross(features, head, opcode, tail)
            next_state = state                  # a no-op step leaves the set as it was
            if _advance(features, cross, X, max_features):
                utility, next_state, summaries = _score(
                    features, distances, summaries, cfg.utility)
            records.append(ExplorationRecord(features.sequence(), utility, episode, step))
            m_after = features.n_features
            for agent, action, valid in zip(agents, (head, op, tail),
                                            (m_after, len(OP_SYMBOLS), m_after)):
                if action is not None:
                    agent.buffer.push(state, action, utility, next_state, valid,
                                      step == steps - 1)
                if agent.buffer.size >= agent.batch_size:
                    bellman_update(agent, agent.buffer.sample(agent.batch_size, rng))
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
    for a given record list."""
    lines = [f"dataset_id={dataset_id}\topset={op_set_hash()}\tseed={seed}"
             f"\tepisodes={episodes}\tsteps={steps}"]
    for rec in records:
        lines.append(f"{rec.utility!r}\t{rec.sequence.text()}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_records(path: str | Path) -> tuple[list[ExplorationRecord], dict[str, str]]:
    """Inverse of ``write_records``; episode and step are recovered from each
    record's position, since ``collect`` keeps one record per step.

    Raises:
        ConfigHashMismatch: the header is missing or names another op set.
        MalformedRecord: the header's ``steps`` is not a positive integer, or
            a record line has no tab or a utility that is not a finite float;
            the message names the line.
    """
    lines = Path(path).read_text().splitlines()
    header = dict(kv.split("=", 1) for kv in lines[0].split("\t") if "=" in kv) if lines else {}
    if header.get("opset") != op_set_hash():
        raise ConfigHashMismatch(
            f"{path}: op set {header.get('opset')!r}, this build has {op_set_hash()!r}")
    try:
        steps = int(header.get("steps", 1))
    except ValueError:
        steps = 0
    if steps < 1:
        raise MalformedRecord(
            f"{path}: line 1: header steps={header['steps']!r} is not a positive integer")
    records = []
    try:
        for i, line in enumerate(lines[1:]):
            utility, text = line.split("\t", 1)
            value = float(utility)
            if not math.isfinite(value):
                raise ValueError(f"utility {utility!r} is not finite")
            episode, step = divmod(i, steps)
            records.append(ExplorationRecord(
                CrossSequence.from_text(text), value, episode, step))
    except ValueError as exc:
        raise MalformedRecord(f"{path}: line {i + 2}: {exc}") from None
    return records, header
