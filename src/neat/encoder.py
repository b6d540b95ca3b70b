"""Feature-set embeddings: similarity graph construction, graph augmentation,
a two-layer mean-aggregation GNN with a projection head, and contrastive
pretraining over exploration records. A GNN layer is ``relu([H, P @ H] @ W + b)``
with ``P = adj / max(deg, 1)``, run as ``H @ W[:h] + (P @ H) @ W[h:]`` with no
concatenation; its backward cache holds ``P``, ``H`` and the bool ReLU gate.

Graphs within one run share a fixed row subsample so every graph has the same
attribute width and one encoder serves them all. A record's crosses are
evaluated on those sampled rows only (``materialize_graphs``), and its
bitwise-duplicate columns are found there too: columns that agree on every
sampled row give the encoder the same node, whatever they do elsewhere. The
encoder reads those columns through ``nn.scale_input`` (``arcsinh``), so a
clamp-range cross of 1e150 is an attribute of about 346.

A batch of graphs stays in node-count stacks from materialization to the
loss. A ``GraphStack`` holds the graphs of one node count ``m``: ``attrs``
(B, m, r) float32 and ``adjacency`` (B, m, m) float32 0/1 (symmetric, zero
diagonal); ``build_graph`` makes both read-only, so a stack can be shared
between epochs and batches. The encoder computes in float32 on them, since
``nn.Dense`` computes in its input's dtype; its parameters and their
gradients stay float64. A batch is its stacks in increasing node count, and
its layout is those stacks laid end to end: graph ``i`` of the layout is row
``i`` of ``encode_many``'s H and Z and of the gradients ``backward_many`` takes,
``augment`` draws its views in layout order, and ``materialize_graphs``'s
``order[i]`` is its record. The loss does not depend on the order of its pairs.
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


@dataclass(frozen=True)
class GraphStack:
    """Same-size feature graphs: nodes are features, attributes are the
    subsampled column values."""

    attrs: np.ndarray        # (B, m, r) float32
    adjacency: np.ndarray    # (B, m, m) float32 0/1, symmetric, zero diagonal

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
    (B, m, r) holding each set's scaled columns over the sampled rows: edge
    iff the pair's cosine >= the 95th percentile (linear interpolation) of
    that graph's unordered pair similarities, so every graph has an edge.

    Zero-vector columns have similarity 0 with everything. Each graph's
    similarities come from its own 2-D ``nn.cosine_matrix`` over a C-ordered
    float64 ``(m, r)`` array: a batched matmul, another memory layout or
    float32 can round differently and move a tied pair across the threshold.
    So the graph is decided in float64 on the columns the encoder reads, and
    only what the encoder reads is stored in float32: a C-ordered float32
    copy of ``attrs`` (scaled columns stay within ±346) and the 0/1
    adjacency, exact in float32. Both returned arrays are read-only.

    Raises:
        SingleFeature: fewer than two features.
    """
    B, m, _ = attrs.shape
    if m < 2:
        raise SingleFeature("a similarity graph needs at least 2 features")
    attrs = np.ascontiguousarray(attrs, dtype=np.float64)
    i, j = _triu(m)
    pair_sims = np.empty((B, i.size))
    for b in range(B):
        pair_sims[b] = nn.cosine_matrix(attrs[b], attrs[b])[0][i, j]
    threshold = np.percentile(pair_sims, 95.0, axis=1, keepdims=True)
    upper = np.zeros((B, m, m), dtype=np.float32)
    upper[:, i, j] = pair_sims >= threshold
    adjacency = upper + upper.transpose(0, 2, 1)
    attrs = attrs.astype(np.float32)
    attrs.flags.writeable = False
    adjacency.flags.writeable = False
    return GraphStack(attrs, adjacency)


def _edge_flips(state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Flipped copies of the upper-triangle edge states ``state`` (B, E) of
    one stack, from one draw of (B, 2E) uniforms.

    A graph with ``e`` edges flips ``max(1, round(EDGE_RATIO * e))`` distinct
    pairs. Each flip drops an edge or adds a non-edge with equal odds (the
    first E uniforms of its row, one per flip), and flips the other kind when
    none of the drawn kind is left. Within each kind the pairs with the
    smallest of the last E uniforms go first, so the flipped pairs are a
    uniform sample of their kind. The flips never outnumber the pairs: a graph
    with an edge flips at most its edges, and one without flips one pair.
    """
    B, E = state.shape
    edges = state.sum(axis=1)
    flips = np.maximum(1, np.rint(EDGE_RATIO * edges)).astype(np.intp)
    u = rng.random((B, 2 * E))
    drawn = ((u[:, :E] < 0.5) & (np.arange(E) < flips[:, None])).sum(axis=1)
    drops = np.clip(drawn, flips - (E - edges), edges)
    # Walk each graph's pairs in key order, counting each kind as it comes.
    order = np.argsort(u[:, E:], axis=1)
    is_edge = np.take_along_axis(state, order, axis=1)
    edges_so_far = np.cumsum(is_edge, axis=1)
    flip = np.where(is_edge, edges_so_far <= drops[:, None],
                    np.arange(1, E + 1) - edges_so_far <= (flips - drops)[:, None])
    out = np.empty_like(state)
    np.put_along_axis(out, order, is_edge ^ flip, axis=1)
    return out


def augment(stacks: Sequence[GraphStack], rng: np.random.Generator
            ) -> tuple[list[GraphStack], list[GraphStack]]:
    """The two views of one batch: edge perturbation and attribute masking.

    Every stack's edge flips (``_edge_flips``) are drawn before any stack's
    masked rows, each in layout order. A view shares the array it does not
    change with its input, and a stack too small to mask a row is its own
    mask view.
    """
    edge_views = []
    for s in stacks:
        i, j = _triu(s.n_nodes)
        upper = np.zeros_like(s.adjacency)
        upper[:, i, j] = _edge_flips(s.adjacency[:, i, j] > 0, rng)
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
    """Input projection, two mean-aggregation GNN layers, an ``nn.Mlp`` projection head."""

    def __init__(self, attr_width: int, rng: np.random.Generator, hidden: int = 64):
        self.input_proj = nn.Dense("encoder.input", attr_width, hidden, rng)
        self.gnn1 = nn.Dense("encoder.gnn1", 2 * hidden, hidden, rng)
        self.gnn2 = nn.Dense("encoder.gnn2", 2 * hidden, hidden, rng)
        self.head = nn.Mlp("encoder.head", hidden, hidden, hidden, rng)

    def params(self) -> list[nn.Param]:
        out = []
        for layer in (self.input_proj, self.gnn1, self.gnn2, self.head):
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


def _gnn_forward(layer: nn.Dense, H: np.ndarray, P: np.ndarray):
    """``relu([H, P @ H] @ W + b)`` on ``layer``'s (2h, h) ``W``, unconcatenated.
    Its cache holds ``H`` and the bool gate."""
    h = H.shape[-1]
    W = layer.W.value.astype(H.dtype, copy=False)
    A = H.reshape(-1, h) @ W[:h] + np.matmul(P, H).reshape(-1, h) @ W[h:]
    A += layer.b.value.astype(H.dtype, copy=False)
    gate = (A > 0.0).reshape(H.shape)
    return np.maximum(A, 0.0, out=A).reshape(H.shape), (H, gate)


def _gnn_backward(layer: nn.Dense, dout: np.ndarray, cache, P: np.ndarray) -> np.ndarray:
    """Accumulate ``layer``'s grads for a ``_gnn_forward`` call and return
    ``dH``. With ``Q = Pᵀ dA`` once, ``(P H)ᵀ dA = Hᵀ Q``."""
    H, gate = cache
    h = H.shape[-1]
    dA = nn.relu_backward(dout, gate)
    Q = np.matmul(P.transpose(0, 2, 1), dA).reshape(-1, h)
    flat, dA = H.reshape(-1, h), dA.reshape(-1, h)
    layer.W.grad[:h] += flat.T @ dA
    layer.W.grad[h:] += flat.T @ Q
    layer.b.grad += dA.sum(axis=0)
    W = layer.W.value.astype(dA.dtype, copy=False)
    return (dA @ W[:h].T + Q @ W[h:].T).reshape(H.shape)


def forward_stack(model: EncoderModel, attrs: np.ndarray, adj: np.ndarray):
    """Encode a stack of same-size graphs, attrs (B,m,r) and adj (B,m,m), in
    their dtype: float32 for ``build_graph``'s stacks. ``P = adj / max(deg, 1)``
    is formed once, and a GNN layer is ``relu(H @ W[:h] + (P @ H) @ W[h:] + b)``.

    Returns (h, z, cache) with h/z of shape (B, hidden). The cache is
    ``(P, c_in, c_g1, c_g2, c_head)``: ``P``, each GNN layer's (B, m, hidden)
    input and each ReLU's bool gate, the head's among them: no
    pre-activation, no ``P @ H`` and no (·, 2·hidden) array.
    """
    P = adj / np.maximum(adj.sum(axis=2, keepdims=True), 1.0)
    X0, c_in = model.input_proj.forward(attrs)
    H1, c_g1 = _gnn_forward(model.gnn1, X0, P)
    H2, c_g2 = _gnn_forward(model.gnn2, H1, P)
    h = H2.mean(axis=1)
    z, c_head = model.head.forward(h)
    return h, z, (P, c_in, c_g1, c_g2, c_head)


def backward_stack(model: EncoderModel, dz: np.ndarray, cache,
                   dh: np.ndarray | None = None) -> None:
    """Accumulate parameter grads for a forward_stack call. A GNN layer forms
    ``Q = Pᵀ dA`` once and reads only ``P``, its input ``H`` and its gate."""
    P, c_in, c_g1, c_g2, c_head = cache
    dh_total = model.head.backward(dz, c_head)
    if dh is not None:
        dh_total = dh_total + dh
    dH2 = dh_total[:, None, :] / P.shape[1]     # the node mean's grad, broadcast by the gate
    dH1 = _gnn_backward(model.gnn2, dH2, c_g2, P)
    dX0 = _gnn_backward(model.gnn1, dH1, c_g1, P)
    model.input_proj.backward_params(dX0, c_in)


def encode_many(stacks: Sequence[GraphStack], model: EncoderModel):
    """Encode a batch of node-count stacks, one ``forward_stack`` per stack.

    Returns (H, Z, caches): H and Z rows in layout order, and the per-stack
    caches that ``backward_many`` takes.

    A graph's rows depend on the stack it is in only up to rounding: BLAS may
    take another path for a stack of another size, so a graph encoded alone
    and in a mixed batch agree in H and Z, not bit for bit, but to rtol 1e-12
    for float64 stacks, and to rtol 1e-5 plus atol 1e-6 for float32 stacks,
    whose entries are of order 1 (a relative bound alone fails on entries
    near 0: 5.8e-4 was seen on one of 2e-5). Float32 stacks agree with their
    float64 copies to the same rtol and atol.
    """
    hs, zs, caches = zip(*(forward_stack(model, s.attrs, s.adjacency) for s in stacks))
    return np.concatenate(hs), np.concatenate(zs), caches


def backward_many(model: EncoderModel, dZ: np.ndarray, caches,
                  dH: np.ndarray | None = None) -> None:
    """Accumulate parameter grads for an ``encode_many`` call; ``dZ`` and
    ``dH`` rows are in its layout order."""
    stop = 0
    for cache in caches:
        start, stop = stop, stop + len(cache[0])    # the stack's P
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
    skipped_records: int = 0    # records absent from materialize_graphs' order


def materialize_graphs(records, table, rows: RowSample):
    """Build every record's graph, in node-count stacks of increasing node
    count. Returns the stacks and ``order``, an intp array: ``order[i]`` is the
    index in ``records`` of layout row ``i``, increasing within each stack. A
    record is skipped exactly when it is absent from ``order``: a cross built
    in code that the walk refuses, a feature past the table's columns, or one
    column kept on the sampled rows.

    Each record's sequence is applied to ``table.take(rows.indices)``, with one
    ``apply_sequence`` memo for all records. Every operator is elementwise, so
    a column holds the same bits as the full-table column at those rows.
    Duplicates are dropped there, before scaling: a record whose columns agree
    there has fewer nodes. Graphs are built on the ``nn.scale_input`` columns."""
    sampled = table.take(rows.indices)
    columns: dict = {}      # cross -> its column on ``sampled``
    groups: dict[int, list] = {}    # node count -> [(record index, attrs)]
    for i, rec in enumerate(records):
        try:
            v = apply_sequence(rec.sequence, sampled, columns)
        except NeatError:
            continue
        groups.setdefault(v.shape[1], []).append((i, v.T))
    stacks, order = [], []
    for m in sorted(groups):
        kept = groups.pop(m)
        if m > 1:
            index, attrs = zip(*kept)
            stacks.append(build_graph(nn.scale_input(np.stack(attrs))))
            order.extend(index)
    return stacks, np.array(order, dtype=np.intp)


def _gather(stacks: Sequence[GraphStack], chunk: np.ndarray) -> list[GraphStack]:
    """The graphs at layout indices ``chunk``: each stack's rows that are in
    it, in layout order. A stack whose every row is in the chunk is passed
    through, not copied."""
    member = np.zeros(sum(len(s.attrs) for s in stacks), dtype=bool)
    member[chunk] = True
    out, stop = [], 0
    for s in stacks:
        start, stop = stop, stop + len(s.attrs)
        rows = np.flatnonzero(member[start:stop])
        if rows.size == len(s.attrs):
            out.append(s)
        elif rows.size:
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
    stacks, order = materialize_graphs(records, table, rows)
    result = PretrainResult(skipped_records=len(records) - len(order))
    if result.skipped_records:
        log.warning("pretrain skipped %d record(s) without a graph", result.skipped_records)
    n = len(order)
    if n < 2 or batch < 2:
        raise BatchTooSmall(f"pretraining needs >= 2 usable records and batch >= 2, "
                            f"got {n} and {batch}")
    opt = nn.Adam(model.params())
    for epoch in range(epochs + 1):
        train = epoch > 0
        shuffled = rng.permutation(n)
        total, count = 0.0, 0
        for start in range(0, n, batch):
            chunk = shuffled[start:start + batch]
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
