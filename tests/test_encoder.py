import math

import numpy as np
import pytest

from neat.checkpoint import load_checkpoint, save_checkpoint
from neat.collector import ExplorationRecord
from neat.encoder import (
    TAU,
    EncoderModel,
    _perturb_edges,
    _triu,
    FeatureGraph,
    augment,
    backward_many,
    build_graph,
    encode_many,
    ntxent_backward,
    ntxent_loss,
    pretrain,
)
from neat.errors import BatchTooSmall, CheckpointMismatch
from neat.expr import CrossSequence, FeatureCross, feature_token, random_cross
from neat.nn import Adam, Param, grad_check
from neat.tabular import RowSample

ATTR_WIDTH = 5


def _graph(m: int, rng: np.random.Generator) -> FeatureGraph:
    upper = np.triu((rng.random((m, m)) < 0.5).astype(np.int8), k=1)
    return FeatureGraph(attrs=rng.normal(size=(m, ATTR_WIDTH)), adjacency=upper | upper.T)


@pytest.fixture
def graphs(rng):
    # Node counts 4, 3, 4: the size groups are encoded out of input order.
    return [_graph(m, rng) for m in (4, 3, 4)]


@pytest.fixture
def model(rng):
    return EncoderModel(ATTR_WIDTH, rng, hidden=6)


class TestEncodeMany:
    def test_matches_each_graph_alone(self, graphs, model):
        H, Z, _ = encode_many(graphs, model)
        for i, g in enumerate(graphs):
            h, z, _ = encode_many([g], model)
            # A stack of one may take another BLAS path: equal up to rounding.
            np.testing.assert_allclose(H[i], h[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(Z[i], z[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("with_dh", [False, True])
    def test_grad_check(self, graphs, model, rng, with_dh):
        RZ = rng.normal(size=(len(graphs), model.hidden))
        RH = rng.normal(size=(len(graphs), model.hidden)) if with_dh else None

        def loss_fn():
            H, Z, _ = encode_many(graphs, model)
            return float((Z * RZ).sum() + (0.0 if RH is None else (H * RH).sum()))

        _, _, caches = encode_many(graphs, model)
        backward_many(model, RZ, caches, dH=RH)
        assert grad_check(model.params(), loss_fn) < 1e-4


class TestParamDict:
    def test_checkpoint_round_trip(self, graphs, model, tmp_path):
        path = tmp_path / "encoder.ckpt"
        save_checkpoint(path, model.param_dict(), {"seed": "0"})
        params, _ = load_checkpoint(path)
        fresh = EncoderModel(ATTR_WIDTH, np.random.default_rng(99), hidden=6)
        fresh.load_param_dict(params)
        for a, b in zip(encode_many(graphs, model)[:2], encode_many(graphs, fresh)[:2]):
            assert np.array_equal(a, b)

    def test_missing_parameter(self, model):
        params = model.param_dict()
        del params["encoder.gnn2.W"]
        with pytest.raises(CheckpointMismatch, match="encoder.gnn2.W"):
            EncoderModel(ATTR_WIDTH, np.random.default_rng(99), hidden=6).load_param_dict(params)


    def test_load_after_adam_moves_the_loaded_values(self, model, rng):
        opt = Adam(model.params(), lr=0.01)
        loaded = {name: rng.normal(size=value.shape)
                  for name, value in model.param_dict().items()}
        model.load_param_dict(loaded)
        for p in model.params():
            p.grad[...] = 1.0
        opt.step()
        # A first Adam step moves every coordinate by lr against the sign of its grad.
        for name, value in model.param_dict().items():
            np.testing.assert_allclose(value, loaded[name] - 0.01, rtol=0, atol=1e-9)


def test_cached_triu_indices_are_read_only():
    for m in (2, 5, 13):
        iu = _triu(m)
        assert all(np.array_equal(a, b) for a, b in zip(iu, np.triu_indices(m, k=1)))
        for a in iu:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0


class TestBuildGraph:
    # Columns as vectors over the two sampled rows (row 1 is not sampled).
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
        sampled = np.array(columns, dtype=np.float64).T          # (2 rows, 4 features)
        values = np.vstack([sampled[0], np.full(4, 7.0), sampled[1]])
        graph = build_graph(values, RowSample(np.array([0, 2]), 0))
        assert np.array_equal(graph.attrs, sampled.T)
        expected = np.zeros((4, 4), dtype=np.int8)
        for i, j in edges:
            expected[i, j] = expected[j, i] = 1
        assert graph.adjacency.dtype == np.int8
        assert np.array_equal(graph.adjacency, expected)


def _random_graphs(rng, sizes=(2, 3, 5, 8, 13, 20)):
    return [_graph(m, rng) for m in sizes]


class TestAugment:
    def test_edge_views(self, rng):
        graphs = _random_graphs(rng)
        edge_views, _ = augment(graphs, rng)
        assert len(edge_views) == len(graphs)
        for g, view in zip(graphs, edge_views):
            adj = view.adjacency
            assert adj.dtype == np.int8
            assert np.array_equal(adj, adj.T)
            assert not adj.diagonal().any()
            iu = np.triu_indices(g.n_nodes, k=1)
            changed = int((adj[iu] != g.adjacency[iu]).sum())
            assert changed <= round(0.2 * int(g.adjacency[iu].sum()))
            assert view.attrs is g.attrs
        # The larger graphs have edges to flip, so some view must differ.
        assert any(not np.array_equal(g.adjacency, v.adjacency)
                   for g, v in zip(graphs, edge_views))

    def test_every_edge_view_is_drawn_first(self, rng):
        graphs = _random_graphs(rng)
        edge_views, _ = augment(graphs, np.random.default_rng(3))
        alone = np.random.default_rng(3)
        for g, view in zip(graphs, edge_views):
            assert np.array_equal(view.adjacency, _perturb_edges(g.adjacency, alone))

    def test_mask_views(self, rng):
        graphs = _random_graphs(rng)
        _, mask_views = augment(graphs, rng)
        assert len(mask_views) == len(graphs)
        for g, view in zip(graphs, mask_views):
            zeroed = ~view.attrs.any(axis=1)
            assert int(zeroed.sum()) == round(0.2 * g.n_nodes)
            assert np.array_equal(view.attrs[~zeroed], g.attrs[~zeroed])
            assert view.adjacency is g.adjacency

    def test_two_node_mask_view_is_the_input(self, rng):
        graph = _graph(2, rng)
        _, (view,) = augment([graph], rng)
        assert view is graph


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
