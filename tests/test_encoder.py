import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import clamp_range_table, make_table
from neat import encoder, expr, nn
from neat.checkpoint import load_checkpoint, save_checkpoint
from neat.collector import ExplorationRecord, read_records, write_records
from neat.encoder import (
    EDGE_RATIO,
    MASK_RATIO,
    TAU,
    EncoderModel,
    GraphStack,
    _gather,
    _triu,
    augment,
    backward_many,
    backward_stack,
    build_graph,
    encode_many,
    forward_stack,
    materialize_graphs,
    ntxent_backward,
    ntxent_loss,
    pretrain,
)
from neat.errors import (
    BatchTooSmall,
    CheckpointMismatch,
    MalformedRecord,
    NeatError,
    SingleFeature,
)
from neat.expr import (
    VALUE_CAP,
    CrossSequence,
    FeatureCross,
    apply_sequence,
    eval_cross,
    feature_token,
    random_cross,
)
from neat.nn import Adam, Param, cosine_matrix, grad_check
from neat.tabular import RowSample

ATTR_WIDTH = 5
HIDDEN = 6             # the width of the small models built here


# The per-graph pipeline that node-count stacks replaced, kept as an oracle:
# one object per graph, per-graph views, and stacks built per encode. Its
# batches follow the stacks' layout: graphs sorted stably by node count.
@dataclass(frozen=True)
class Graph:
    attrs: np.ndarray        # (m, r) float32 from graph_of; float64 in float64-path tests
    adjacency: np.ndarray    # (m, m) int8

    @property
    def n_nodes(self) -> int:
        return self.attrs.shape[0]


def graph_of(attrs: np.ndarray) -> Graph:
    """The graph of one set's (scaled) float64 columns; its attributes are
    stored in float32."""
    m = attrs.shape[0]
    if m < 2:
        raise SingleFeature("a similarity graph needs at least 2 features")
    sims, _ = cosine_matrix(attrs, attrs)
    iu = np.triu_indices(m, k=1)
    pair_sims = sims[iu]
    threshold = np.percentile(pair_sims, 95.0)
    upper = np.zeros((m, m), dtype=np.int8)
    hit = pair_sims >= threshold
    upper[iu[0][hit], iu[1][hit]] = 1
    return Graph(attrs.astype(np.float32), upper | upper.T)


def distinct_nodes(scaled: np.ndarray) -> np.ndarray:
    """The rows of ``scaled`` that are nodes: the first of each distinct
    float32 row, with -0.0 equal to 0.0, in their order in ``scaled``."""
    _, first = np.unique(scaled.astype(np.float32) + np.float32(0), axis=0,
                         return_index=True)
    return scaled[np.sort(first)]


def sampled_graph(sequence, table, rows: RowSample) -> Graph:
    """The graph of a sequence's arcsinh-scaled columns over the sampled rows."""
    columns = apply_sequence(sequence, table)[rows.indices].T
    return graph_of(distinct_nodes(np.arcsinh(np.ascontiguousarray(columns))))


def perturbed(adjacency: np.ndarray, rng) -> np.ndarray:
    # One flip at a time: its kind from the flip's uniform, falling back to
    # the other kind when none is left; its pair the unflipped one of that
    # kind with the smallest key.
    iu = np.triu_indices(adjacency.shape[0], k=1)
    state = adjacency[iu].astype(bool)
    coins, keys = np.split(rng.random(2 * state.size), 2)
    left = {kind: sorted(np.flatnonzero(state == kind).tolist(), key=lambda p: keys[p])
            for kind in (True, False)}
    for t in range(max(1, int(round(EDGE_RATIO * int(state.sum()))))):
        drop = bool(coins[t] < 0.5)
        pick = left[drop if left[drop] else not drop].pop(0)
        state[pick] = not state[pick]
    out = np.zeros_like(adjacency)
    out[iu[0][state], iu[1][state]] = 1
    return out | out.T


def views(graphs, rng):
    edge_views = [replace(g, adjacency=perturbed(g.adjacency, rng)) for g in graphs]
    mask_views = []
    for g in graphs:
        masked = int(round(MASK_RATIO * g.n_nodes))
        if masked:
            attrs = g.attrs.copy()
            attrs[np.argsort(rng.random(g.n_nodes))[:masked], :] = 0.0
            g = replace(g, attrs=attrs)
        mask_views.append(g)
    return edge_views, mask_views


def stacked_groups(graphs):
    by_m: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        by_m.setdefault(g.n_nodes, []).append(i)
    for m, idxs in sorted(by_m.items()):
        attrs = np.stack([graphs[i].attrs for i in idxs])
        adj = np.stack([graphs[i].adjacency for i in idxs]).astype(attrs.dtype)
        yield idxs, attrs, adj


def layout(graphs):
    return sorted(graphs, key=lambda g: g.n_nodes)     # stable: ties keep list order


def per_graph_pretrain(records, table, model, rows, epochs, batch, rng):
    graphs = []
    for rec in records:
        try:
            graphs.append(sampled_graph(rec.sequence, table, rows))
        except NeatError:
            pass
    graphs = layout(graphs)
    opt = Adam(model.params())
    losses = []
    for epoch in range(epochs + 1):
        order = rng.permutation(len(graphs))
        total, count = 0.0, 0
        for start in range(0, len(order), batch):
            chunk = np.sort(order[start:start + batch])
            if chunk.size < 2:
                continue
            Z, caches = [], []
            for view in views([graphs[i] for i in chunk], rng):
                z_all = np.zeros((len(view), HIDDEN), dtype=np.float32)
                cache_list = []
                for idxs, attrs, adj in stacked_groups(view):
                    _, z, cache = forward_stack(model, attrs, adj)
                    z_all[idxs] = z
                    cache_list.append((idxs, cache))
                Z.append(z_all)
                caches.append(cache_list)
            loss, cache = ntxent_loss(*Z)
            if epoch:
                for dZ, cache_list in zip(ntxent_backward(cache), caches):
                    for idxs, c in cache_list:
                        backward_stack(model, dZ[idxs], c)
                opt.step()
            total += loss * chunk.size
            count += chunk.size
        losses.append(total / count)
    return losses


def concat_layers(model, attrs, adj) -> dict[str, np.ndarray]:
    """The encoder in its first form, kept as a float64 oracle: each GNN layer
    is relu([H, (adj @ H) / denom] @ W + b) on a concatenated (·, 2·hidden)
    input. Returns every step by name, ``h`` and ``z`` among them."""
    attrs, adj = attrs.astype(np.float64), adj.astype(np.float64)
    denom = np.maximum(adj.sum(axis=2, keepdims=True), 1.0)

    def dense(layer, x):
        return x @ layer.W.value + layer.b.value

    s = {"X0": dense(model.input_proj, attrs)}
    s["N1"] = adj @ s["X0"] / denom
    s["A1"] = dense(model.gnn1, np.concatenate([s["X0"], s["N1"]], axis=2))
    s["H1"] = np.maximum(s["A1"], 0.0)
    s["N2"] = adj @ s["H1"] / denom
    s["A2"] = dense(model.gnn2, np.concatenate([s["H1"], s["N2"]], axis=2))
    s["h"] = np.maximum(s["A2"], 0.0).mean(axis=1)
    s["P1"] = dense(model.head.layer1, s["h"])
    s["z"] = dense(model.head.layer2, np.maximum(s["P1"], 0.0))
    return s


def _graph(m: int, rng: np.random.Generator) -> Graph:
    upper = np.triu((rng.random((m, m)) < 0.5).astype(np.int8), k=1)
    return Graph(attrs=rng.normal(size=(m, ATTR_WIDTH)), adjacency=upper | upper.T)


def _stacks(graphs) -> list[GraphStack]:
    """The node-count stacks of a batch of graphs; their layout is ``layout(graphs)``."""
    return [GraphStack(attrs, adj) for _, attrs, adj in stacked_groups(graphs)]


def _unstack(stacks):
    """(attrs, adjacency) of every graph, in layout order."""
    return [(s.attrs[b], s.adjacency[b]) for s in stacks for b in range(len(s.attrs))]


def _as_dtype(stacks, dtype) -> list[GraphStack]:
    return [GraphStack(s.attrs.astype(dtype), s.adjacency.astype(dtype)) for s in stacks]


def _arrays(tree):
    """The arrays in nested tuples, lists and GraphStacks."""
    if isinstance(tree, np.ndarray):
        yield tree
    elif isinstance(tree, GraphStack):
        yield from (tree.attrs, tree.adjacency)
    elif isinstance(tree, (tuple, list)):
        for item in tree:
            yield from _arrays(item)


# encode_many's stated tolerance for float32 stacks, whose embedding entries
# are of order 1: alone vs in a mixed batch, and against float64 copies.
F32_TOL = dict(rtol=1e-5, atol=1e-6)


@pytest.fixture
def graphs(rng):
    # Node counts 4, 3, 4: the size groups are encoded out of input order.
    return [_graph(m, rng) for m in (4, 3, 4)]


@pytest.fixture
def model(rng):
    return EncoderModel(ATTR_WIDTH, rng, hidden=HIDDEN)


class TestEncodeMany:
    def test_matches_each_graph_alone(self, graphs, model):
        H, Z, _ = encode_many(_stacks(graphs), model)
        for i, g in enumerate(layout(graphs)):
            h, z, _ = encode_many(_stacks([g]), model)
            # A stack of one may take another BLAS path: equal up to rounding.
            np.testing.assert_allclose(H[i], h[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(Z[i], z[0], rtol=0, atol=1e-12)

    def test_alone_and_in_a_mixed_batch_agree_to_rtol(self, mixed_corpus):
        # The tolerances encode_many states: stacks of 1 to 3 graphs of 6-14
        # nodes, at the bench's hidden width, as materialized (float32) and
        # as float64 copies.
        table, records = mixed_corpus
        stacks, _ = materialize_graphs(records, table, ROWS)
        model = EncoderModel(len(ROWS.indices), np.random.default_rng(5), hidden=64)
        for dtype, tol in ((np.float32, F32_TOL), (np.float64, dict(rtol=1e-12, atol=0))):
            typed = _as_dtype(stacks, dtype)
            H, Z, _ = encode_many(typed, model)
            assert H.dtype == Z.dtype == dtype
            for i, (attrs, adj) in enumerate(_unstack(typed)):
                h, z, _ = encode_many([GraphStack(attrs[None], adj[None])], model)
                np.testing.assert_allclose(H[i], h[0], **tol)
                np.testing.assert_allclose(Z[i], z[0], **tol)

    def test_float32_and_float64_encodings_agree(self, mixed_corpus):
        table, records = mixed_corpus
        stacks, _ = materialize_graphs(records, table, ROWS)
        model = EncoderModel(len(ROWS.indices), np.random.default_rng(5), hidden=64)
        H, Z, _ = encode_many(stacks, model)
        H64, Z64, _ = encode_many(_as_dtype(stacks, np.float64), model)
        assert H.dtype == np.float32 and H64.dtype == np.float64
        np.testing.assert_allclose(H, H64, **F32_TOL)
        np.testing.assert_allclose(Z, Z64, **F32_TOL)

    def test_layers_match_the_concatenation_oracle(self, mixed_corpus):
        # Float64 stacks to rtol 1e-12; the materialized float32 stacks within
        # encode_many's float32 tolerance.
        table, records = mixed_corpus
        stacks, _ = materialize_graphs(records, table, ROWS)
        model = EncoderModel(len(ROWS.indices), np.random.default_rng(5), hidden=64)
        for dtype, tol in ((np.float64, dict(rtol=1e-12, atol=0)), (np.float32, F32_TOL)):
            for s in _as_dtype(stacks, dtype):
                h, z, _ = forward_stack(model, s.attrs, s.adjacency)
                steps = concat_layers(model, s.attrs, s.adjacency)
                assert h.dtype == z.dtype == dtype
                np.testing.assert_allclose(h, steps["h"], **tol)
                np.testing.assert_allclose(z, steps["z"], **tol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_training_step_keeps_the_stacks_dtype(self, mixed_corpus, monkeypatch, dtype):
        # One float64 constant or weight in a float32 pass would promote the
        # rest of it to float64. Params and grads stay float64 either way.
        table, records = mixed_corpus
        stacks = _as_dtype(materialize_graphs(records, table, ROWS)[0], dtype)
        model = EncoderModel(len(ROWS.indices), np.random.default_rng(5), hidden=6)
        upstream = []      # the dtype of every gradient a layer receives
        backward_params = nn.Dense.backward_params
        gnn_backward = encoder._gnn_backward

        def spy(layer, dout, cache):
            upstream.append(dout.dtype)
            backward_params(layer, dout, cache)

        def gnn_spy(layer, dout, cache, P):
            upstream.append(dout.dtype)
            return gnn_backward(layer, dout, cache, P)

        monkeypatch.setattr(nn.Dense, "backward_params", spy)
        monkeypatch.setattr(encoder, "_gnn_backward", gnn_spy)
        view1, view2 = augment(stacks, np.random.default_rng(4))
        H1, Z1, c1 = encode_many(view1, model)
        H2, Z2, c2 = encode_many(view2, model)
        _, cache = ntxent_loss(Z1, Z2)
        dZ1, dZ2 = ntxent_backward(cache)
        backward_many(model, dZ1, c1)
        backward_many(model, dZ2, c2)
        arrays = list(_arrays((view1, view2, H1, H2, Z1, Z2, c1, c2, cache, dZ1, dZ2)))
        assert {a.dtype for a in arrays} == {np.dtype(dtype), np.dtype(np.bool_)}
        assert sum(a.dtype == np.bool_ for a in arrays) == 3 * 2 * len(stacks)  # ReLU gates
        assert upstream == [dtype] * (5 * 2 * len(stacks))
        for p in model.params():
            assert p.value.dtype == p.grad.dtype == np.float64 and p.grad.any(), p.name

    def test_cache_holds_bool_gates_not_pre_activations(self, model, rng):
        B, m, h = 3, 4, HIDDEN      # m is neither h nor the attribute width
        (stack,) = _stacks([_graph(m, rng) for _ in range(B)])
        _, _, cache = forward_stack(model, stack.attrs, stack.adjacency)
        arrays = list(_arrays(cache))
        assert [a.shape for a in arrays if a.dtype == np.bool_] == [(B, m, h), (B, m, h), (B, h)]
        # The float arrays are P, the layer inputs X0 and H1 and the heads'
        # inputs: no pre-activation, no neighbour mean, nothing 2·hidden wide.
        steps = concat_layers(model, stack.attrs, stack.adjacency)

        def holds(name):    # a cached array is that step, up to rounding
            return any(a.size == steps[name].size and np.allclose(
                a.ravel(), steps[name].ravel(), rtol=1e-12, atol=0) for a in arrays)

        assert all(a.shape[-1] != 2 * h for a in arrays)
        assert holds("X0") and holds("H1")
        assert not [name for name in ("N1", "A1", "N2", "A2", "P1") if holds(name)]

    @pytest.mark.parametrize("with_dh", [False, True])
    def test_grad_check(self, graphs, model, rng, with_dh):
        stacks = _stacks(graphs)
        RZ = rng.normal(size=(len(graphs), HIDDEN))
        RH = rng.normal(size=(len(graphs), HIDDEN)) if with_dh else None

        def loss_fn():
            H, Z, _ = encode_many(stacks, model)
            return float((Z * RZ).sum() + (0.0 if RH is None else (H * RH).sum()))

        _, _, caches = encode_many(stacks, model)
        backward_many(model, RZ, caches, dH=RH)
        assert grad_check(model.params(), loss_fn) < 1e-4


class TestParamDict:
    def test_names_keep_the_checkpoint_layout(self, model):
        assert list(model.param_dict()) == [
            "encoder.input.W", "encoder.input.b", "encoder.gnn1.W", "encoder.gnn1.b",
            "encoder.gnn2.W", "encoder.gnn2.b", "encoder.head1.W", "encoder.head1.b",
            "encoder.head2.W", "encoder.head2.b"]

    def test_checkpoint_round_trip(self, graphs, model, tmp_path):
        path = tmp_path / "encoder.ckpt"
        save_checkpoint(path, model.param_dict(), {"seed": "0"})
        params, _ = load_checkpoint(path)
        fresh = EncoderModel(ATTR_WIDTH, np.random.default_rng(99), hidden=6)
        fresh.load_param_dict(params)
        stacks = _stacks(graphs)
        for a, b in zip(encode_many(stacks, model)[:2], encode_many(stacks, fresh)[:2]):
            assert np.array_equal(a, b)

    def test_missing_parameter(self, model):
        params = model.param_dict()
        del params["encoder.gnn2.W"]
        with pytest.raises(CheckpointMismatch, match="encoder.gnn2.W"):
            EncoderModel(ATTR_WIDTH, np.random.default_rng(99), hidden=6).load_param_dict(params)


    def test_load_after_adam_moves_the_loaded_values(self, model, rng, monkeypatch):
        monkeypatch.setattr(nn, "ADAM_LR", 0.01)
        opt = Adam(model.params())
        loaded = {name: rng.normal(size=value.shape)
                  for name, value in model.param_dict().items()}
        model.load_param_dict(loaded)
        for p in model.params():
            p.grad[...] = 1.0
        opt.step()
        # A first Adam step moves every coordinate by lr against the sign of its grad.
        for name, value in model.param_dict().items():
            np.testing.assert_allclose(value, loaded[name] - nn.ADAM_LR, rtol=0, atol=1e-9)


def test_cached_triu_indices_are_read_only():
    for m in (2, 5, 13):
        iu = _triu(m)
        assert all(np.array_equal(a, b) for a, b in zip(iu, np.triu_indices(m, k=1)))
        for a in iu:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0


class TestBuildGraph:
    # Columns as vectors over the two sampled rows.
    # Six pair similarities s0 <= ... <= s5 put the 95th percentile at
    # s4 + 0.75 * (s5 - s4).
    @pytest.mark.parametrize("columns, edges", [
        # sims: (0,1) = 2/sqrt5, (1,2) = 1/sqrt5, (0,2) = (2,3) = 0,
        # (1,3) = -2/sqrt5, (0,3) = -1; threshold 1.75/sqrt5: one edge
        ([(1, 0), (2, 1), (0, 1), (-1, 0)], {(0, 1)}),
        # sims 1, 1, 0, 0, 0, 0: threshold 1, so both tied pairs are edges
        ([(1, 0), (1, 0), (0, 1), (0, 1)], {(0, 1), (2, 3)}),
    ])
    def test_threshold_on_hand_worked_cases(self, columns, edges):
        attrs = np.array(columns, dtype=np.float64)[None]          # 1 graph, 4 features
        stack = build_graph(attrs)
        # A read-only float32 copy of the input, which stays writable.
        assert stack.attrs.dtype == stack.adjacency.dtype == np.float32
        assert np.array_equal(stack.attrs, attrs) and not np.shares_memory(stack.attrs, attrs)
        assert attrs.flags.writeable
        assert not stack.attrs.flags.writeable and not stack.adjacency.flags.writeable
        expected = np.zeros((1, 4, 4))
        for i, j in edges:
            expected[0, i, j] = expected[0, j, i] = 1
        assert np.array_equal(stack.adjacency, expected)

    @pytest.mark.parametrize("m", [2, 3, 7, 13])
    def test_each_graph_equals_its_own_build(self, m):
        # Small integer attributes give zero columns and tied similarities.
        rng = np.random.default_rng(m)
        attrs = rng.integers(-1, 2, size=(40, m, 3)).astype(np.float64)
        attrs[::5, 0] = 0.0
        stack = build_graph(attrs)
        assert (~attrs.any(axis=2)).any()
        ties = 0
        for b in range(40):
            expected = graph_of(attrs[b]).adjacency
            assert np.array_equal(stack.adjacency[b], expected), b
            ties += int(expected[np.triu_indices(m, k=1)].sum()) > 1
        assert ties or m == 2        # two nodes have one pair, and it is an edge

    @pytest.mark.parametrize("column_major", [False, True])
    @pytest.mark.parametrize("m", [7, 13])
    def test_near_ties_follow_each_graphs_own_cosines(self, m, column_major):
        # Scaled copies of one column have cosines of 1 give or take an ulp,
        # so a batched matmul's rounding, or a column-major graph's (as from
        # stacking transposed row samples), would move pairs across the
        # threshold.
        rng = np.random.default_rng(m)
        attrs = rng.normal(size=(60, m, 64))
        attrs[:, 1:m // 3] = attrs[:, :1] * rng.uniform(0.1, 10, size=(60, m // 3 - 1, 1))
        given = attrs.transpose(0, 2, 1).copy().transpose(0, 2, 1) if column_major else attrs
        stack = build_graph(given)
        assert np.array_equal(stack.attrs, attrs.astype(np.float32))
        assert stack.attrs.flags.c_contiguous
        for b in range(60):
            assert np.array_equal(stack.adjacency[b], graph_of(attrs[b]).adjacency), b

    def test_single_feature_is_refused(self, rng):
        with pytest.raises(SingleFeature):
            build_graph(rng.normal(size=(3, 1, 4)))


def _random_batch(rng, sizes=(13, 2, 20, 5, 13, 3, 20, 8)):
    # Node counts interleave, so list order is not layout order.
    return [_graph(m, rng) for m in sizes]


class TestAugment:
    def test_edge_views(self, rng):
        stacks = _stacks(_random_batch(rng))
        edge_views, _ = augment(stacks, rng)
        assert len(edge_views) == len(stacks)
        for s, view in zip(stacks, edge_views):
            adj = view.adjacency
            assert adj.dtype == s.adjacency.dtype and set(np.unique(adj)) <= {0.0, 1.0}
            assert np.array_equal(adj, adj.transpose(0, 2, 1))
            assert not adj.diagonal(axis1=1, axis2=2).any()
            i, j = _triu(s.n_nodes)
            changed = (adj[:, i, j] != s.adjacency[:, i, j]).sum(axis=1)
            flips = np.maximum(1, np.rint(EDGE_RATIO * s.adjacency[:, i, j].sum(axis=1)))
            assert np.array_equal(changed, flips)        # distinct pairs, none flipped back
            assert view.attrs is s.attrs

    def test_every_edge_view_is_drawn_first(self, rng):
        # One generator, in layout order: every graph's flips, then every
        # graph's masked rows, one block per stack. The batch's node counts
        # interleave, so its list order is not its layout order.
        graphs = _random_batch(rng)
        draws = np.random.default_rng(3)
        edge_views, mask_views = augment(_stacks(graphs), draws)
        oracle = np.random.default_rng(3)
        expected_edges, expected_masks = views(layout(graphs), oracle)
        assert [g.n_nodes for g in graphs] != [g.n_nodes for g in layout(graphs)]
        for (_, adj), g in zip(_unstack(edge_views), expected_edges, strict=True):
            assert np.array_equal(adj, g.adjacency)
        for (attrs, _), g in zip(_unstack(mask_views), expected_masks, strict=True):
            assert np.array_equal(attrs, g.attrs)
        assert draws.random() == oracle.random()

    @staticmethod
    def _dropped_and_added(m, edges, copies, seed):
        """Augment ``copies`` graphs of ``m`` nodes and the given upper-triangle
        edges; the counts of pairs each graph dropped and added, and how
        often each pair was dropped or added."""
        upper = np.zeros((m, m), dtype=np.float32)
        for i, j in edges:
            upper[i, j] = 1
        adjacency = np.broadcast_to(upper + upper.T, (copies, m, m))
        stack = GraphStack(np.ones((copies, m, 3), dtype=np.float32), adjacency)
        (edge_view,), (mask_view,) = augment([stack], np.random.default_rng(seed))
        assert mask_view.adjacency is stack.adjacency and edge_view.attrs is stack.attrs
        i, j = _triu(m)
        before, after = stack.adjacency[:, i, j] > 0, edge_view.adjacency[:, i, j] > 0
        dropped, added = before & ~after, ~before & after
        return dropped.sum(axis=1), added.sum(axis=1), dropped.sum(axis=0), added.sum(axis=0)

    def test_flip_kinds_and_pairs_follow_the_documented_odds(self):
        # 12 nodes, 10 edges: 2 flips per graph, each a drop or an add with
        # equal odds, so 0/1/2 drops in 1/4, 1/2, 1/4 of the graphs; within a
        # kind every pair is equally likely. Bounds are about 5 standard
        # errors over 4000 graphs.
        edges = [(k, k + 1) for k in range(10)]
        drops, adds, per_edge, per_pair = self._dropped_and_added(12, edges, 4000, seed=8)
        assert ((drops + adds) == 2).all()
        share = np.bincount(drops, minlength=3) / 4000
        np.testing.assert_allclose(share, [0.25, 0.5, 0.25], atol=0.035)
        is_edge = np.isin(np.arange(66), [k * 12 - k * (k + 1) // 2 for k in range(10)])
        for counts, size in ((per_edge[is_edge], 10), (per_pair[~is_edge], 56)):
            expected = counts.sum() / size
            assert np.abs(counts - expected).max() < 5 * np.sqrt(expected), counts

    @pytest.mark.parametrize("edges, drops, adds", [
        ([(i, j) for i in range(5) for j in range(i + 1, 5)], 2, 0),   # complete: drops only
        ([], 0, 1),                                                    # empty: adds only
    ])
    def test_a_kind_with_no_pairs_left_falls_back(self, edges, drops, adds):
        got_drops, got_adds, _, _ = self._dropped_and_added(5, edges, 200, seed=9)
        assert (got_drops == drops).all() and (got_adds == adds).all()

    def test_the_last_non_edge_is_added_once(self):
        # 5 nodes, 9 edges: 2 flips, but one non-edge. Two drawn adds become
        # an add and a drop, so a graph adds a pair with odds 3/4.
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)][1:]
        drops, adds, _, _ = self._dropped_and_added(5, edges, 4000, seed=10)
        assert ((drops + adds) == 2).all() and (adds <= 1).all()
        assert abs(adds.mean() - 0.75) < 0.035

    def test_sparse_graph_flips_one_pair(self, rng):
        # Two edges would round to zero flips; every edge view flips one.
        upper = np.zeros((6, 6), dtype=np.int8)
        upper[0, 1] = upper[2, 3] = 1
        (stack,) = _stacks([Graph(rng.normal(size=(6, ATTR_WIDTH)), upper | upper.T)])
        (view,), _ = augment([stack], rng)
        assert (view.adjacency != stack.adjacency).sum() == 2    # one pair, both halves

    def test_mask_views(self, rng):
        stacks = _stacks(_random_batch(rng))
        _, mask_views = augment(stacks, rng)
        assert len(mask_views) == len(stacks)
        for s, view in zip(stacks, mask_views):
            zeroed = ~view.attrs.any(axis=2)
            assert (zeroed.sum(axis=1) == round(0.2 * s.n_nodes)).all()
            assert np.array_equal(view.attrs[~zeroed], s.attrs[~zeroed])
            assert view.adjacency is s.adjacency

    def test_input_stacks_stay_bit_identical(self, mixed_corpus):
        # pretrain passes the same read-only stacks to every epoch's augment.
        table, records = mixed_corpus
        stacks, _ = materialize_graphs(records, table, ROWS)
        before = [(s.attrs.tobytes(), s.adjacency.tobytes()) for s in stacks]
        draws = np.random.default_rng(4)
        for _ in range(3):
            augment(_gather(stacks, draws.permutation(sum(len(s.attrs) for s in stacks))), draws)
        for s, (attrs, adj) in zip(stacks, before, strict=True):
            assert (s.attrs.tobytes(), s.adjacency.tobytes()) == (attrs, adj)
            for a in (s.attrs, s.adjacency):
                with pytest.raises(ValueError):
                    a[0, 0, 0] = 1.0

    def test_two_node_mask_view_is_the_input(self, rng):
        stacks = _stacks([_graph(2, rng), _graph(2, rng)])
        _, (view,) = augment(stacks, rng)
        assert view is stacks[0]


class TestNtxent:
    def test_loss_matches_per_anchor_formula(self, rng):
        Z1, Z2 = rng.normal(size=(2, 5, 4))
        loss, _ = ntxent_loss(Z1, Z2)
        unit1 = Z1 / np.linalg.norm(Z1, axis=1, keepdims=True)
        unit2 = Z2 / np.linalg.norm(Z2, axis=1, keepdims=True)
        total = 0.0
        for i in range(5):
            logits = [float(unit1[i] @ unit2[j]) / TAU for j in range(5)]
            total += math.log(sum(math.exp(x) for j, x in enumerate(logits) if j != i))
            total -= logits[i]
        assert loss == pytest.approx(total / 5, rel=1e-12)

    def test_grad_check(self, rng):
        Z1 = Param("Z1", rng.normal(size=(5, 4)))
        Z2 = Param("Z2", rng.normal(size=(5, 4)))

        def loss_fn():
            return ntxent_loss(Z1.value, Z2.value)[0]

        _, cache = ntxent_loss(Z1.value, Z2.value)
        Z1.grad[...], Z2.grad[...] = ntxent_backward(cache)
        assert grad_check([Z1, Z2], loss_fn) < 1e-6

    def test_one_pair_is_refused(self, rng):
        with pytest.raises(BatchTooSmall):
            ntxent_loss(rng.normal(size=(1, 4)), rng.normal(size=(1, 4)))


def _record(crosses, step=0):
    return ExplorationRecord(CrossSequence.from_crosses(crosses), 0.0, 0, step)


@pytest.fixture
def corpus(small_table):
    # Every record holds the table's 5 columns plus 1-3 random crosses.
    rng = np.random.default_rng(7)
    originals = [FeatureCross((feature_token(i),)) for i in range(5)]
    return [_record(originals + [random_cross(5, 3, rng) for _ in range(1 + i % 3)], i)
            for i in range(6)]


ROWS = RowSample(np.arange(0, 40, 3), 0)


def _pretrain(table, records, epochs, batch=4):
    model = EncoderModel(len(ROWS.indices), np.random.default_rng(5), hidden=6)
    result = pretrain(records, table, model, ROWS, epochs=epochs, batch=batch,
                      rng=np.random.default_rng(9))
    return model, result


class TestPretrain:
    def test_seeded_run_repeats(self, small_table, corpus):
        # 6 records in batches of 4: one full batch and one of 2 per epoch.
        model, result = _pretrain(small_table, corpus, epochs=2)
        again_model, again = _pretrain(small_table, corpus, epochs=2)
        assert len(result.losses) == 3 and all(map(math.isfinite, result.losses))
        assert result.losses == again.losses
        assert result.skipped_records == 0
        for name, value in model.param_dict().items():
            assert np.array_equal(value, again_model.param_dict()[name]), name

    def test_first_loss_is_a_no_update_pass(self, small_table, corpus):
        fresh = EncoderModel(len(ROWS.indices), np.random.default_rng(5), hidden=6)
        model, result = _pretrain(small_table, corpus, epochs=2)
        _, zero = _pretrain(small_table, corpus, epochs=0)
        assert zero.losses == result.losses[:1]
        assert any(not np.array_equal(value, fresh.param_dict()[name])
                   for name, value in model.param_dict().items())

    def test_one_usable_record_is_refused(self, small_table, corpus):
        # The second record has one feature, so it has no graph.
        records = [corpus[0], _record([FeatureCross(("f0",))], 1)]
        with pytest.raises(BatchTooSmall):
            _pretrain(small_table, records, epochs=3)

    def test_batch_of_one_is_refused(self, small_table, corpus):
        with pytest.raises(BatchTooSmall):
            _pretrain(small_table, corpus, epochs=3, batch=1)

    def test_a_record_of_a_non_canonical_feature_token_is_refused_when_read(
            self, small_table, corpus, tmp_path):
        # "f" and a superscript two: int() cannot read it. read_records walks
        # each record's crosses, so the file is refused before pretraining.
        path = tmp_path / "records.tsv"
        write_records(path, corpus + corpus[:1], small_table.dataset_id, seed=0, episodes=1,
                      steps=len(corpus) + 1)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[-1] = "0.5\t<SOS> f0 <SEP> f\u00b2 <EOS>"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(MalformedRecord,
                           match=rf"line {len(corpus) + 2}\b.*unexpected token 'f\u00b2'"):
            read_records(path)

    def test_a_record_of_a_feature_token_too_long_for_int_is_skipped(
            self, small_table, corpus):
        # Canonical digits past Python's int() digit limit (4300 by default):
        # the walk refuses the token, so the record is skipped, not a crash.
        records = corpus + [_record([FeatureCross(("f0",)), FeatureCross(("f" + "1" * 5000,))])]
        with pytest.raises(ValueError):
            int("1" * 5000)
        _, order = materialize_graphs(records, small_table, ROWS)
        assert sorted(order) == list(range(len(corpus)))
        _, result = _pretrain(small_table, records, epochs=1)
        assert result.skipped_records == 1


@pytest.fixture(scope="module")
def mixed_corpus():
    """Records of 6-14 features over a 40 x 6 table, the larger ones with
    edges to flip and some with near-tied similarities, plus two that do not
    materialize."""
    table = make_table(np.random.default_rng(21).normal(size=(40, 6)))
    rng = np.random.default_rng(11)
    originals = [FeatureCross((feature_token(i),)) for i in range(6)]
    # k * f_i as a sum of k copies: cosine 1 with f_i, give or take an ulp.
    multiples = [FeatureCross(("f2",) + ("f2", "+") * k) for k in range(1, 5)]
    records = [_record(originals + [random_cross(6, 3, rng) for _ in range(k)]
                       + (multiples if i % 3 == 1 else []), i)
               for i, k in enumerate((0, 4, 8, 8, 6, 4, 7, 8, 2, 0, 5))]
    records.insert(3, _record([FeatureCross(("f0",))]))             # one feature
    records.insert(7, _record(originals + [FeatureCross(("f9",))]))  # no such column
    return table, records


class TestMatchesPerGraphPipeline:
    def test_stacks_hold_each_record_graph_in_record_order(self, mixed_corpus):
        table, records = mixed_corpus
        stacks, order = materialize_graphs(records, table, ROWS)
        assert order.dtype == np.intp
        assert sorted(order) == [i for i in range(len(records)) if i not in (3, 7)]
        assert [s.n_nodes for s in stacks] == sorted({s.n_nodes for s in stacks})
        assert 1 in [len(s.attrs) for s in stacks]         # a node count held by one graph
        rows = _unstack(stacks)
        assert len(rows) == len(order)
        for (attrs, adjacency), i in zip(rows, order):
            g = sampled_graph(records[i].sequence, table, ROWS)
            assert np.array_equal(attrs, g.attrs)
            assert np.array_equal(adjacency, g.adjacency)
        stop = 0
        for s in stacks:
            start, stop = stop, stop + len(s.attrs)
            assert np.all(np.diff(order[start:stop]) > 0)     # record order within a stack
        assert any(adjacency.sum() >= 6 for _, adjacency in rows)   # some graph flips an edge

    def test_gather_keeps_the_chunk_in_layout_order(self, rng):
        graphs = layout(_random_batch(rng))
        chunk = np.array([6, 0, 5, 3, 4])       # node counts 20, 2, 13, 8, 13
        stacks = _gather(_stacks(graphs), chunk)
        got = _unstack(stacks)
        assert len(got) == chunk.size
        for (attrs, adj), i in zip(got, np.sort(chunk)):
            assert np.array_equal(attrs, graphs[i].attrs)
            assert np.array_equal(adj, graphs[i].adjacency)
        assert [s.n_nodes for s in stacks] == sorted({graphs[i].n_nodes for i in chunk})

    def test_gather_passes_whole_stacks_through(self, rng):
        # Layout: node counts 2, 3, 5, 8, 13, 13, 20, 20.
        stacks = _stacks(_random_batch(rng))
        got = _gather(stacks, np.array([5, 1, 7, 4]))
        assert got[0] is stacks[1] and got[1] is stacks[4]
        assert got[2] is not stacks[5] and len(got[2].attrs) == 1
        assert np.array_equal(got[2].attrs[0], stacks[5].attrs[1])

    @pytest.mark.parametrize("batch", [2, 3, 7, "N-1", "N", "N+5"])
    def test_pretrain_equals_the_per_graph_pipeline(self, mixed_corpus, batch):
        table, records = mixed_corpus
        n = len(records) - 2
        batch = {"N-1": n - 1, "N": n, "N+5": n + 5}.get(batch, batch)
        width = len(ROWS.indices)
        model = EncoderModel(width, np.random.default_rng(5), hidden=HIDDEN)
        result = pretrain(records, table, model, ROWS, epochs=2, batch=batch,
                          rng=np.random.default_rng(9))
        oracle = EncoderModel(width, np.random.default_rng(5), hidden=HIDDEN)
        losses = per_graph_pretrain(records, table, oracle, ROWS, epochs=2, batch=batch,
                                    rng=np.random.default_rng(9))
        assert result.losses == losses
        for name, value in model.param_dict().items():
            assert np.array_equal(value, oracle.param_dict()[name]), name


class TestSampledRowNodes:
    """A record's nodes are decided on the sampled rows ``ROWS``, by the
    float32 attributes the encoder reads."""

    @pytest.fixture
    def table(self, rng):
        values = rng.normal(size=(40, 5))
        values[ROWS.indices, 1] = values[ROWS.indices, 0]   # f1 is f0 on the sampled rows only
        return make_table(values)

    def test_crosses_equal_on_the_sampled_rows_are_one_node(self, table):
        crosses = [FeatureCross(t) for t in
                   (("f0", "sin"), ("f1", "sin"), ("f2",), ("f3", "f4", "*"))]
        record = _record(crosses)
        assert apply_sequence(record.sequence, table).shape[1] == 4
        (stack,), order = materialize_graphs([record], table, ROWS)
        assert list(order) == [0] and stack.n_nodes == 3
        kept = np.column_stack([eval_cross(c, table) for c in crosses[:1] + crosses[2:]])
        expected = graph_of(np.arcsinh(np.ascontiguousarray(kept[ROWS.indices].T)))
        assert np.array_equal(stack.attrs[0], expected.attrs)
        assert np.array_equal(stack.adjacency[0], expected.adjacency)

    def test_columns_an_ulp_apart_are_one_node(self):
        # 1/(1/x) is x give or take an ulp: distinct float64 columns whose
        # float32 attributes are equal.
        table = make_table(np.random.default_rng(0).normal(size=(50, 3)))
        record = ExplorationRecord(CrossSequence.from_text(
            "<SOS> f0 <SEP> f0 reciprocal reciprocal <SEP> f1 <EOS>"), 0.0, 0, 0)
        values = apply_sequence(record.sequence, table)
        assert values.shape[1] == 3 and not np.array_equal(values[:, 0], values[:, 1])
        (stack,), order = materialize_graphs([record], table, RowSample(np.arange(50), 0))
        assert list(order) == [0] and stack.n_nodes == 2
        assert np.array_equal(stack.attrs[0], np.arcsinh(values[:, [0, 2]].T).astype(np.float32))

    def test_signed_zero_columns_are_one_node(self):
        values = np.random.default_rng(1).normal(size=(40, 3))
        values[:, 0], values[:, 1] = 0.0, -0.0
        table = make_table(values)
        record = _record([FeatureCross((feature_token(i),)) for i in range(3)])
        (stack,), _ = materialize_graphs([record], table, ROWS)
        assert stack.n_nodes == 2
        assert not np.signbit(stack.attrs[0, 0]).any()     # the first, +0.0, is kept

    def test_a_record_left_with_one_sampled_column_is_skipped(self, table, corpus):
        lone = _record([FeatureCross(("f0",)), FeatureCross(("f1",))])
        assert apply_sequence(lone.sequence, table).shape[1] == 2
        stacks, order = materialize_graphs([lone], table, ROWS)
        assert stacks == [] and order.size == 0
        _, result = _pretrain(table, corpus[:3] + [lone] + corpus[3:], epochs=1)
        assert result.skipped_records == 1


def memoless_stacks(records, table, rows):
    """``materialize_graphs`` with each record applied on its own, no memo
    shared between records."""
    sampled = table.take(rows.indices)
    groups: dict[int, list[np.ndarray]] = {}
    for rec in records:
        try:
            v = apply_sequence(rec.sequence, sampled)
        except NeatError:
            continue
        nodes = distinct_nodes(nn.scale_input(v.T))
        groups.setdefault(len(nodes), []).append(nodes)
    return [build_graph(np.stack(g)) for m, g in sorted(groups.items()) if m > 1]


class TestCrossMemo:
    @pytest.fixture
    def records(self):
        # Clamp-range leaves; crosses shared between records and repeated
        # within one; one record with a bad cross before its valid ones.
        rng = np.random.default_rng(17)
        originals = [FeatureCross((feature_token(i),)) for i in range(5)]
        shared = [random_cross(5, 3, rng) for _ in range(3)]
        records = [_record(originals + shared[:k % 4] + [random_cross(5, 3, rng)]
                           + shared[:1], k) for k in range(10)]
        records.insert(4, _record(originals[:2] + [FeatureCross(("f9",))] + originals[2:]))
        return records

    def test_each_distinct_valid_cross_is_evaluated_once(self, records, monkeypatch):
        table = clamp_range_table(5, 50)
        valid = set()
        for rec in records:
            for c in rec.sequence.crosses:
                try:
                    eval_cross(c, table)
                except NeatError:
                    continue
                valid.add(c)
        calls = []
        evaluate = expr.eval_cross

        def counted(c, t):
            column = evaluate(c, t)
            calls.append(c)     # a call that returns a column
            return column

        monkeypatch.setattr(expr, "eval_cross", counted)
        _, order = materialize_graphs(records, table, ROWS)
        assert len(records) - len(order) == 1
        assert sorted(calls, key=repr) == sorted(valid, key=repr)

    def test_stacks_equal_the_memoless_build_bit_for_bit(self, records):
        table = clamp_range_table(5, 50)
        stacks, _ = materialize_graphs(records, table, ROWS)
        expected = memoless_stacks(records, table, ROWS)
        assert len(stacks) == len(expected)
        for got, want in zip(stacks, expected):
            assert got.attrs.tobytes() == want.attrs.tobytes()
            assert got.adjacency.tobytes() == want.adjacency.tobytes()
        assert max(np.abs(s.attrs).max() for s in stacks) == np.float32(np.arcsinh(VALUE_CAP))


def _clamp_range_stacks(seed, depth):
    """The stacks of 8 records over a 50-row clamp-range table, all rows
    sampled: each record holds the table's columns and 1-4 random crosses."""
    table = clamp_range_table(seed, 50)
    rng = np.random.default_rng(seed)
    originals = [FeatureCross((feature_token(i),)) for i in range(table.n_features)]
    records = [_record(originals + [random_cross(table.n_features, depth, rng)
                                    for _ in range(1 + k % 4)]) for k in range(8)]
    stacks, _ = materialize_graphs(records, table, RowSample(np.arange(50), 0))
    return stacks


class TestScaledAttributes:
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_finite_and_within_the_scale_of_the_value_cap(self, seed, depth):
        stacks = _clamp_range_stacks(seed, depth)
        bound = np.float32(np.arcsinh(VALUE_CAP))
        assert stacks and all(s.attrs.dtype == np.float32 for s in stacks)
        assert all(np.isfinite(s.attrs).all() and (np.abs(s.attrs) <= bound).all()
                   for s in stacks)
        # The ±VALUE_CAP leaf column, in every record, reaches the bound.
        assert max(np.abs(s.attrs).max() for s in stacks) == bound

    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 5))
    @example(seed=0, depth=2)       # a corpus with float32-equal columns
    @settings(max_examples=40, deadline=None)
    def test_no_graph_holds_two_equal_attribute_rows(self, seed, depth):
        for s in _clamp_range_stacks(seed, depth):
            for attrs in s.attrs + np.float32(0):      # -0.0 is 0.0
                assert len(np.unique(attrs, axis=0)) == s.n_nodes
