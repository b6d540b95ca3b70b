"""Feature-set embeddings: similarity graph construction, graph augmentation,
a two-layer mean-aggregation GNN with a projection head, and contrastive
pretraining over exploration records.

Graphs within one run share a fixed row subsample so every graph has the same
attribute width and one encoder serves them all. A batch of graphs is split by
node count, and each stack of same-size graphs is encoded in one pass.
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
class FeatureGraph:
    """Nodes are features; attributes are subsampled column values."""

    attrs: np.ndarray        # (m, r) float64
    adjacency: np.ndarray    # (m, m) int8, symmetric, zero diagonal

    @property
    def n_nodes(self) -> int:
        return self.attrs.shape[0]


@functools.lru_cache
def _triu(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(m, k=1)``, built once per ``m``; read-only, since
    every caller shares the arrays."""
    iu = np.triu_indices(m, k=1)
    for a in iu:
        a.flags.writeable = False
    return iu


def build_graph(v: np.ndarray, rows: RowSample) -> FeatureGraph:
    """Similarity graph over the columns of ``v``, an ``(n, m)`` array: edge
    iff pairwise cosine >= the 95th percentile (linear interpolation) of all
    unordered pair similarities.

    Zero-vector columns have similarity 0 with everything.

    Raises:
        SingleFeature: fewer than two features.
    """
    m = v.shape[1]
    if m < 2:
        raise SingleFeature("a similarity graph needs at least 2 features")
    attrs = np.ascontiguousarray(v[rows.indices, :].T)
    sims, _ = nn.cosine_matrix(attrs, attrs)
    iu = _triu(m)
    pair_sims = sims[iu]
    threshold = np.percentile(pair_sims, 95.0)
    upper = np.zeros((m, m), dtype=np.int8)
    hit = pair_sims >= threshold
    upper[iu[0][hit], iu[1][hit]] = 1
    return FeatureGraph(attrs=attrs, adjacency=upper | upper.T)


def _perturb_edges(adjacency: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    iu = _triu(adjacency.shape[0])
    state = adjacency[iu].astype(bool)
    flips = int(round(EDGE_RATIO * int(state.sum())))
    for _ in range(flips):
        drop = rng.random() < 0.5
        pool = np.nonzero(state if drop else ~state)[0]
        if pool.size == 0:
            pool = np.nonzero(~state if drop else state)[0]
            if pool.size == 0:
                break
            drop = not drop
        pick = pool[int(rng.integers(pool.size))]
        state[pick] = not state[pick]
    out = np.zeros_like(adjacency)
    out[iu[0][state], iu[1][state]] = 1
    return out | out.T


def augment(graphs: Sequence[FeatureGraph], rng: np.random.Generator
            ) -> tuple[list[FeatureGraph], list[FeatureGraph]]:
    """The two views of one batch: edge perturbation and attribute masking.

    Every edge view is drawn before any mask view. A view shares the array it
    does not change with its input; a graph too small to mask a row is its
    own mask view.
    """
    edge_views = [replace(g, adjacency=_perturb_edges(g.adjacency, rng)) for g in graphs]
    mask_views = []
    for g in graphs:
        masked = int(round(MASK_RATIO * g.n_nodes))
        if masked:
            attrs = g.attrs.copy()
            attrs[rng.choice(g.n_nodes, size=masked, replace=False), :] = 0.0
            g = replace(g, attrs=attrs)
        mask_views.append(g)
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
    model.input_proj.backward(dX0, c_in)


def _stacked_groups(graphs: Sequence[FeatureGraph]):
    """Group graph indices by node count for batched encoding."""
    by_m: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        by_m.setdefault(g.n_nodes, []).append(i)
    for m, idxs in sorted(by_m.items()):
        attrs = np.stack([graphs[i].attrs for i in idxs])
        adj = np.stack([graphs[i].adjacency for i in idxs]).astype(np.float64)
        yield idxs, attrs, adj


def encode_many(graphs: Sequence[FeatureGraph], model: EncoderModel):
    """Encode a mixed-size list of graphs via same-size stacks.

    Returns (H, Z, caches): H and Z aligned with the input order, and the
    per-group caches that ``backward_many`` takes.
    """
    H = np.zeros((len(graphs), model.hidden))
    Z = np.zeros((len(graphs), model.hidden))
    caches = []
    for idxs, attrs, adj in _stacked_groups(graphs):
        h, z, cache = forward_stack(model, attrs, adj)
        H[idxs] = h
        Z[idxs] = z
        caches.append((idxs, cache))
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
    """Build one graph per record; returns the graphs and the number of
    records skipped because they fail to materialize."""
    graphs, skipped = [], 0
    for rec in records:
        try:
            F = apply_sequence(rec.sequence, table)
            graphs.append(build_graph(F, rows))
        except NeatError:
            skipped += 1
    return graphs, skipped


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
    graphs, skipped = materialize_graphs(records, table, rows)
    if skipped:
        log.warning("pretrain skipped %d unmaterializable record(s)", skipped)
    if len(graphs) < 2 or batch < 2:
        raise BatchTooSmall(f"pretraining needs >= 2 usable records and batch >= 2, "
                            f"got {len(graphs)} and {batch}")
    opt = nn.Adam(model.params(), lr=LEARNING_RATE)
    result = PretrainResult(skipped_records=skipped)
    for epoch in range(epochs + 1):
        train = epoch > 0
        order = rng.permutation(len(graphs))
        total, count = 0.0, 0
        for start in range(0, len(order), batch):
            chunk = order[start:start + batch]
            if chunk.size < 2:
                continue
            view1, view2 = augment([graphs[i] for i in chunk], rng)
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
        epoch_loss = total / count
        result.losses.append(epoch_loss)
        log.info("stage=pretrain epoch=%d loss=%.6f", epoch, epoch_loss)
    return result
