"""Feature-set embeddings: similarity graph construction, graph augmentation,
a two-layer mean-aggregation GNN with a projection head, and contrastive
pretraining over exploration records.

Graphs within one run share a fixed row subsample so every graph has the same
attribute width and one encoder serves them all.

A batch of graphs stays in node-count stacks from materialization to the
loss. A ``GraphStack`` holds the graphs of one node count ``m``: ``attrs``
(B, m, r) float64 and ``adjacency`` (B, m, m) float64 0/1 (symmetric, zero
diagonal). A batch is its stacks in increasing node count, and its layout
is those stacks laid end to end: graph ``i`` of the layout is row ``i`` of
``encode_many``'s H and Z and of the gradients ``backward_many`` takes, and
``augment`` draws its views in layout order. The contrastive loss does not
depend on the order of its pairs.
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

EDGE_RATIO = 0.2       # edge view: flips max(1, round(EDGE_RATIO * edges)) node pairs
MASK_RATIO = 0.2       # mask view: zeroes round(MASK_RATIO * nodes) attribute rows
TAU = 0.5              # NT-Xent temperature
LEARNING_RATE = 0.001  # Adam


@dataclass(frozen=True)
class GraphStack:
    """Same-size feature graphs: nodes are features, attributes are the
    subsampled column values."""

    attrs: np.ndarray        # (B, m, r) float64
    adjacency: np.ndarray    # (B, m, m) float64 0/1, symmetric, zero diagonal

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


def build_graph(attrs: np.ndarray) -> GraphStack:
    """Similarity graphs over a stack of same-size feature sets, ``attrs``
    (B, m, r) holding each set's columns over the sampled rows: edge iff the
    pair's cosine >= the 95th percentile (linear interpolation) of that
    graph's unordered pair similarities, so every graph has an edge.

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
    return GraphStack(attrs, upper + upper.transpose(0, 2, 1))


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

    Every graph's edge flips are drawn before any graph's masked rows, each
    in layout order. A view shares the array it does not change with its
    input, and a stack too small to mask a row is its own mask view.
    """
    edge_views = []
    for s in stacks:
        i, j = _triu(s.n_nodes)
        state = s.adjacency[:, i, j] > 0
        flips = np.maximum(1, np.rint(EDGE_RATIO * state.sum(axis=1))).astype(np.intp)
        for b, f in enumerate(flips.tolist()):
            _perturb_edges(state[b], f, rng)
        upper = np.zeros_like(s.adjacency)
        upper[:, i, j] = state
        edge_views.append(replace(s, adjacency=upper + upper.transpose(0, 2, 1)))
    mask_views = []
    for s in stacks:
        masked = int(round(MASK_RATIO * s.n_nodes))
        if masked:
            pick = rng.random(s.attrs.shape[:2]).argsort(axis=1)[:, :masked]
            attrs = s.attrs.copy()
            attrs[np.arange(len(attrs))[:, None], pick] = 0.0
            s = replace(s, attrs=attrs)
        mask_views.append(s)
    return edge_views, mask_views


class EncoderModel:
    """Input projection, two mean-aggregation GNN layers, projection head."""

    def __init__(self, attr_width: int, rng: np.random.Generator, hidden: int = 64):
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

    Returns (H, Z, caches): H and Z rows in layout order, and the per-stack
    caches that ``backward_many`` takes.
    """
    hs, zs, caches = zip(*(forward_stack(model, s.attrs, s.adjacency) for s in stacks))
    return np.concatenate(hs), np.concatenate(zs), caches


def backward_many(model: EncoderModel, dZ: np.ndarray, caches,
                  dH: np.ndarray | None = None) -> None:
    """Accumulate parameter grads for an ``encode_many`` call; ``dZ`` and
    ``dH`` rows are in its layout order."""
    stop = 0
    for cache in caches:
        start, stop = stop, stop + len(cache[0])    # the stack's adjacency
        backward_stack(model, dZ[start:stop], cache,
                       dh=None if dH is None else dH[start:stop])


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
    count, each in record order. Returns the stacks and the number of
    records skipped because they fail to materialize."""
    groups: dict[int, list[np.ndarray]] = {}
    skipped = 0
    for rec in records:
        try:
            v = apply_sequence(rec.sequence, table)
        except NeatError:
            skipped += 1
            continue
        groups.setdefault(v.shape[1], []).append(v[rows.indices, :].T)
    stacks = []
    for m in sorted(groups):
        attrs = groups.pop(m)
        try:
            stacks.append(build_graph(np.stack(attrs)))
        except SingleFeature:
            skipped += len(attrs)
    return stacks, skipped


def _gather(stacks: Sequence[GraphStack], chunk: np.ndarray) -> list[GraphStack]:
    """The graphs at layout indices ``chunk``: each stack's rows that are in
    it, in layout order."""
    member = np.zeros(sum(len(s.attrs) for s in stacks), dtype=bool)
    member[chunk] = True
    out, stop = [], 0
    for s in stacks:
        start, stop = stop, stop + len(s.attrs)
        rows = np.flatnonzero(member[start:stop])
        if rows.size:
            out.append(GraphStack(s.attrs[rows], s.adjacency[rows]))
    return out


def pretrain(records, table, model: EncoderModel, rows: RowSample,
             epochs: int = 100, batch: int = 1024, *,
             rng: np.random.Generator) -> PretrainResult:
    """Contrastive pretraining; mutates ``model`` and returns the loss log.

    Epoch 0 in the log is a full evaluation pass before any update, so the
    initial loss is reproducible independently. A trailing batch of one
    record is dropped (the loss needs negatives).

    Raises:
        BatchTooSmall: fewer than two usable records, or ``batch`` < 2.
    """
    stacks, skipped = materialize_graphs(records, table, rows)
    if skipped:
        log.warning("pretrain skipped %d unmaterializable record(s)", skipped)
    n = sum(len(s.attrs) for s in stacks)
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
            view1, view2 = augment(_gather(stacks, chunk), rng)
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
