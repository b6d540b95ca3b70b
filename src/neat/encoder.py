"""Feature-set embeddings: similarity graph construction, graph augmentation,
a two-layer mean-aggregation GNN with a projection head, and contrastive
pretraining over exploration records.

Graphs within one run share a fixed row subsample so every graph has the same
attribute width and one encoder serves them all.

A batch of graphs stays in node-count stacks from materialization to the
loss. A ``GraphStack`` holds the graphs of one node count ``m``: ``attrs``
(B, m, r) float64, ``adjacency`` (B, m, m) float64 0/1 (symmetric, zero
diagonal) and ``positions`` (B,), the increasing indices of its graphs in the
batch. A batch is a list of stacks in increasing node count; each stack is
encoded in one pass and its results land at its positions.

``augment`` draws from its generator in batch-position order across stacks:
first the edge flips of every graph, then the masked rows of every graph. So
the draws, and the views, do not depend on how a batch splits into stacks.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import nn
from .errors import BatchTooSmall, CheckpointMismatch, NeatError, SingleFeature
from .expr import apply_sequence
from .tabular import RowSample

log = logging.getLogger(__name__)

EDGE_RATIO = 0.2       # edge view: flips round(EDGE_RATIO * edges) node pairs
MASK_RATIO = 0.2       # mask view: zeroes round(MASK_RATIO * nodes) attribute rows
TAU = 0.5              # NT-Xent temperature
LEARNING_RATE = 0.001  # Adam


@dataclass(frozen=True)
class GraphStack:
    """Same-size feature graphs: nodes are features, attributes are the
    subsampled column values."""

    attrs: np.ndarray        # (B, m, r) float64
    adjacency: np.ndarray    # (B, m, m) float64 0/1, symmetric, zero diagonal
    positions: np.ndarray    # (B,) increasing indices of the graphs in their batch

    @property
    def n_nodes(self) -> int:
        return self.attrs.shape[1]


@functools.lru_cache
def _triu(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(m, k=1)``, built once per ``m``; read-only, since
    every caller shares the arrays."""
    iu = np.triu_indices(m, k=1)
    for a in iu:
        a.flags.writeable = False
    return iu


def build_graph(attrs: np.ndarray, positions: np.ndarray) -> GraphStack:
    """Similarity graphs over a stack of same-size feature sets, ``attrs``
    (B, m, r) holding each set's columns over the sampled rows: edge iff the
    pair's cosine >= the 95th percentile (linear interpolation) of that
    graph's unordered pair similarities.

    Zero-vector columns have similarity 0 with everything. Each graph's
    similarities come from its own 2-D ``nn.cosine_matrix`` over a C-ordered
    ``(m, r)`` array: a batched matmul, or another memory layout, can round
    differently and move a tied pair across the threshold. The returned
    ``attrs`` is C-ordered.

    Raises:
        SingleFeature: fewer than two features.
    """
    B, m, _ = attrs.shape
    if m < 2:
        raise SingleFeature("a similarity graph needs at least 2 features")
    attrs = np.ascontiguousarray(attrs)
    i, j = _triu(m)
    pair_sims = np.empty((B, i.size))
    for b in range(B):
        pair_sims[b] = nn.cosine_matrix(attrs[b], attrs[b])[0][i, j]
    threshold = np.percentile(pair_sims, 95.0, axis=1, keepdims=True)
    upper = np.zeros((B, m, m))
    upper[:, i, j] = pair_sims >= threshold
    return GraphStack(attrs, upper + upper.transpose(0, 2, 1), positions)


def _batch_order(stacks: Sequence[GraphStack], chosen: Sequence[np.ndarray]):
    """(stack, row) of every chosen graph, in order of batch position."""
    stack = np.concatenate([np.full(int(c.sum()), k) for k, c in enumerate(chosen)])
    row = np.concatenate([np.flatnonzero(c) for c in chosen])
    order = np.argsort(np.concatenate([s.positions[c] for s, c in zip(stacks, chosen)]))
    return zip(stack[order].tolist(), row[order].tolist())


def _perturb_edges(state: np.ndarray, flips: int, rng: np.random.Generator) -> None:
    """Flip ``flips`` node pairs of one graph's upper-triangle edge ``state``
    in place. Each flip drops an edge or adds a non-edge with equal odds, and
    flips the other kind when there is none of the drawn kind."""
    for _ in range(flips):
        drop = rng.random() < 0.5
        pool = np.flatnonzero(state == drop)
        if pool.size == 0:
            pool = np.flatnonzero(state != drop)
        pick = pool[rng.integers(pool.size)]
        state[pick] = not state[pick]


def augment(stacks: Sequence[GraphStack], rng: np.random.Generator
            ) -> tuple[list[GraphStack], list[GraphStack]]:
    """The two views of one batch: edge perturbation and attribute masking.

    Every graph's edge flips are drawn before any graph's masked rows, each in
    batch-position order; a graph with no pair to flip draws nothing. A view
    shares the array it does not change with its input, and a stack with
    nothing to flip, or too small to mask a row, is its own view.
    """
    states, flips = [], []
    for s in stacks:
        i, j = _triu(s.n_nodes)
        state = s.adjacency[:, i, j] > 0
        states.append(state)
        flips.append(np.rint(EDGE_RATIO * state.sum(axis=1)).astype(np.intp))
    for k, b in _batch_order(stacks, [f > 0 for f in flips]):
        _perturb_edges(states[k][b], int(flips[k][b]), rng)
    masked = [int(round(MASK_RATIO * s.n_nodes)) for s in stacks]
    picks = [np.empty((s.positions.size, c), dtype=np.intp) for s, c in zip(stacks, masked)]
    for k, b in _batch_order(stacks, [np.full(s.positions.size, c > 0)
                                      for s, c in zip(stacks, masked)]):
        picks[k][b] = rng.choice(stacks[k].n_nodes, size=masked[k], replace=False)
    edge_views, mask_views = [], []
    for s, state, f, pick in zip(stacks, states, flips, picks):
        edge_view = mask_view = s
        if f.any():
            i, j = _triu(s.n_nodes)
            upper = np.zeros_like(s.adjacency)
            upper[:, i, j] = state
            edge_view = replace(s, adjacency=upper + upper.transpose(0, 2, 1))
        if pick.size:
            attrs = s.attrs.copy()
            attrs[np.arange(pick.shape[0])[:, None], pick] = 0.0
            mask_view = replace(s, attrs=attrs)
        edge_views.append(edge_view)
        mask_views.append(mask_view)
    return edge_views, mask_views


class EncoderModel:
    """Input projection, two mean-aggregation GNN layers, projection head."""

    def __init__(self, attr_width: int, rng: np.random.Generator, hidden: int = 64):
        self.attr_width = attr_width
        self.hidden = hidden
        self.input_proj = nn.Dense("encoder.input", attr_width, hidden, rng)
        self.gnn1 = nn.Dense("encoder.gnn1", 2 * hidden, hidden, rng)
        self.gnn2 = nn.Dense("encoder.gnn2", 2 * hidden, hidden, rng)
        self.head1 = nn.Dense("encoder.head1", hidden, hidden, rng)
        self.head2 = nn.Dense("encoder.head2", hidden, hidden, rng)

    def params(self) -> list[nn.Param]:
        out = []
        for layer in (self.input_proj, self.gnn1, self.gnn2, self.head1, self.head2):
            out.extend(layer.params())
        return out

    def param_dict(self) -> dict[str, np.ndarray]:
        return {p.name: p.value for p in self.params()}

    def load_param_dict(self, values: dict[str, np.ndarray]) -> None:
        """Copy ``values`` into the model's parameters.

        Raises:
            CheckpointMismatch: a parameter of the model is missing.
            ShapeMismatch: a parameter has another shape than the model's.
        """
        for p in self.params():
            if p.name not in values:
                raise CheckpointMismatch(f"checkpoint missing parameter {p.name}")
            if values[p.name].shape != p.value.shape:
                raise nn.ShapeMismatch(
                    f"{p.name}: checkpoint shape {values[p.name].shape}, model {p.value.shape}")
            p.value[...] = values[p.name]


def forward_stack(model: EncoderModel, attrs: np.ndarray, adj: np.ndarray):
    """Encode a stack of same-size graphs: attrs (B,m,r), adj (B,m,m) floats.

    Returns (h, z, cache) with h/z of shape (B, hidden).
    """
    m = attrs.shape[1]
    denom = np.maximum(adj.sum(axis=2, keepdims=True), 1.0)
    X0, c_in = model.input_proj.forward(attrs)
    N1 = np.matmul(adj, X0) / denom
    C1 = np.concatenate([X0, N1], axis=2)
    A1, c_g1 = model.gnn1.forward(C1)
    H1, r1 = nn.relu(A1)
    N2 = np.matmul(adj, H1) / denom
    C2 = np.concatenate([H1, N2], axis=2)
    A2, c_g2 = model.gnn2.forward(C2)
    H2, r2 = nn.relu(A2)
    h = H2.mean(axis=1)
    P1, c_h1 = model.head1.forward(h)
    R1, rh = nn.relu(P1)
    z, c_h2 = model.head2.forward(R1)
    cache = (adj, denom, m, c_in, c_g1, r1, c_g2, r2, c_h1, rh, c_h2)
    return h, z, cache


def backward_stack(model: EncoderModel, dz: np.ndarray, cache,
                   dh: np.ndarray | None = None) -> None:
    """Accumulate parameter grads for a forward_stack call."""
    adj, denom, m, c_in, c_g1, r1, c_g2, r2, c_h1, rh, c_h2 = cache
    adj_t = adj.transpose(0, 2, 1)
    dR1 = model.head2.backward(dz, c_h2)
    dP1 = nn.relu_backward(dR1, rh)
    dh_total = model.head1.backward(dP1, c_h1)
    if dh is not None:
        dh_total = dh_total + dh
    dH2 = np.broadcast_to(dh_total[:, None, :] / m,
                          (dh_total.shape[0], m, dh_total.shape[1]))
    dA2 = nn.relu_backward(dH2, r2)
    dC2 = model.gnn2.backward(dA2, c_g2)
    hidden = model.hidden
    dH1 = dC2[..., :hidden] + np.matmul(adj_t, dC2[..., hidden:] / denom)
    dA1 = nn.relu_backward(dH1, r1)
    dC1 = model.gnn1.backward(dA1, c_g1)
    dX0 = dC1[..., :hidden] + np.matmul(adj_t, dC1[..., hidden:] / denom)
    model.input_proj.backward_params(dX0, c_in)


def encode_many(stacks: Sequence[GraphStack], model: EncoderModel):
    """Encode a batch of node-count stacks, one ``forward_stack`` per stack.

    Returns (H, Z, caches): H and Z rows in batch-position order, and the
    per-stack caches that ``backward_many`` takes.
    """
    n = sum(s.positions.size for s in stacks)
    H = np.zeros((n, model.hidden))
    Z = np.zeros((n, model.hidden))
    caches = []
    for s in stacks:
        h, z, cache = forward_stack(model, s.attrs, s.adjacency)
        H[s.positions] = h
        Z[s.positions] = z
        caches.append((s.positions, cache))
    return H, Z, caches


def backward_many(model: EncoderModel, dZ: np.ndarray, caches,
                  dH: np.ndarray | None = None) -> None:
    for idxs, cache in caches:
        backward_stack(model, dZ[idxs], cache,
                       dh=None if dH is None else dH[idxs])


def ntxent_loss(Z1: np.ndarray, Z2: np.ndarray):
    """Contrastive loss over N positive pairs (rows of Z1 vs Z2) at
    temperature ``TAU``.

    Each anchor's positive pair is left out of its denominator, so the loss
    may be negative. Returns (loss, cache).

    Raises:
        BatchTooSmall: fewer than 2 pairs.
    """
    N = Z1.shape[0]
    if N < 2:
        raise BatchTooSmall(f"contrastive batch needs >= 2 pairs, got {N}")
    sims, sim_cache = nn.cosine_matrix(Z1, Z2)
    logits = sims / TAU
    masked = logits.copy()
    np.fill_diagonal(masked, -np.inf)
    peak = masked.max(axis=1, keepdims=True)
    expd = np.exp(masked - peak)
    lse = peak[:, 0] + np.log(expd.sum(axis=1))
    loss = float(np.mean(lse - np.diag(logits)))
    return loss, (sim_cache, expd, N)


def ntxent_backward(cache):
    """Gradient of ntxent_loss with respect to (Z1, Z2)."""
    sim_cache, expd, N = cache
    soft = expd / expd.sum(axis=1, keepdims=True)
    dlogits = soft / N
    np.fill_diagonal(dlogits, -1.0 / N)
    dsims = dlogits / TAU
    return nn.cosine_matrix_backward(dsims, sim_cache)


@dataclass
class PretrainResult:
    losses: list[float] = field(default_factory=list)   # [0] is the no-update pass
    skipped_records: int = 0


def materialize_graphs(records, table, rows: RowSample):
    """Build every record's graph, in node-count stacks of increasing node
    count; a graph's position is its record's index among the records kept.
    Returns the stacks and the number of records skipped because they fail
    to materialize."""
    groups: dict[int, list[tuple[int, np.ndarray]]] = {}
    skipped = 0
    for i, rec in enumerate(records):
        try:
            v = apply_sequence(rec.sequence, table)
        except NeatError:
            skipped += 1
            continue
        groups.setdefault(v.shape[1], []).append((i, v[rows.indices, :].T))
    stacks, kept = [], []
    for m in sorted(groups):
        index, attrs = zip(*groups.pop(m))
        try:
            stacks.append(build_graph(np.stack(attrs), np.array(index)))
        except SingleFeature:
            skipped += len(index)
            continue
        kept.extend(index)
    kept = np.sort(kept)
    return [replace(s, positions=np.searchsorted(kept, s.positions)) for s in stacks], skipped


def _gather(stacks: Sequence[GraphStack], chunk: np.ndarray, n: int) -> list[GraphStack]:
    """The stacks of the graphs at ``chunk``, positions in a batch of ``n``,
    each graph moved to its index in ``chunk``."""
    rank = np.full(n, -1)
    rank[chunk] = np.arange(chunk.size)
    out = []
    for s in stacks:
        at = rank[s.positions]
        rows = np.flatnonzero(at >= 0)
        rows = rows[np.argsort(at[rows])]
        if rows.size:
            out.append(GraphStack(s.attrs[rows], s.adjacency[rows], at[rows]))
    return out


def pretrain(records, table, model: EncoderModel, rows: RowSample,
             epochs: int = 100, batch: int = 1024,
             rng: np.random.Generator | None = None) -> PretrainResult:
    """Contrastive pretraining; mutates ``model`` and returns the loss log.

    Epoch 0 in the log is a full evaluation pass before any update, so the
    initial loss is reproducible independently. A trailing batch of one
    record is dropped (the loss needs negatives).

    Raises:
        BatchTooSmall: fewer than two usable records, or ``batch`` < 2.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    stacks, skipped = materialize_graphs(records, table, rows)
    if skipped:
        log.warning("pretrain skipped %d unmaterializable record(s)", skipped)
    n = sum(s.positions.size for s in stacks)
    if n < 2 or batch < 2:
        raise BatchTooSmall(f"pretraining needs >= 2 usable records and batch >= 2, "
                            f"got {n} and {batch}")
    opt = nn.Adam(model.params(), lr=LEARNING_RATE)
    result = PretrainResult(skipped_records=skipped)
    for epoch in range(epochs + 1):
        train = epoch > 0
        order = rng.permutation(n)
        total, count = 0.0, 0
        for start in range(0, len(order), batch):
            chunk = order[start:start + batch]
            if chunk.size < 2:
                continue
            view1, view2 = augment(_gather(stacks, chunk, n), rng)
            _, Z1, c1 = encode_many(view1, model)
            _, Z2, c2 = encode_many(view2, model)
            loss, cache = ntxent_loss(Z1, Z2)
            if train:
                dZ1, dZ2 = ntxent_backward(cache)
                backward_many(model, dZ1, c1)
                backward_many(model, dZ2, c2)
                opt.step()
            total += loss * chunk.size
            count += chunk.size
            del view1, view2, c1, c2    # freed before the next batch's forward pass
        epoch_loss = total / count
        result.losses.append(epoch_loss)
        log.info("stage=pretrain epoch=%d loss=%.6f", epoch, epoch_loss)
    return result
