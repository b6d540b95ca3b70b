import numpy as np
import pytest

from neat.checkpoint import load_checkpoint, save_checkpoint
from neat.encoder import EncoderModel, FeatureGraph, backward_many, encode_many
from neat.errors import CheckpointMismatch
from neat.nn import grad_check

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
        H, Z = encode_many(graphs, model)
        for i, g in enumerate(graphs):
            h, z = encode_many([g], model)
            # A stack of one may take another BLAS path: equal up to rounding.
            np.testing.assert_allclose(H[i], h[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(Z[i], z[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("with_dh", [False, True])
    def test_grad_check(self, graphs, model, rng, with_dh):
        RZ = rng.normal(size=(len(graphs), model.hidden))
        RH = rng.normal(size=(len(graphs), model.hidden)) if with_dh else None

        def loss_fn():
            H, Z = encode_many(graphs, model)
            return float((Z * RZ).sum() + (0.0 if RH is None else (H * RH).sum()))

        _, _, caches = encode_many(graphs, model, want_cache=True)
        backward_many(model, RZ, caches, dH=RH)
        assert grad_check(model.params(), loss_fn) < 1e-4


class TestParamDict:
    def test_checkpoint_round_trip(self, graphs, model, tmp_path):
        path = tmp_path / "encoder.ckpt"
        save_checkpoint(path, model.param_dict(), {"seed": "0"})
        params, _ = load_checkpoint(path)
        fresh = EncoderModel(ATTR_WIDTH, np.random.default_rng(99), hidden=6)
        fresh.load_param_dict(params)
        for a, b in zip(encode_many(graphs, model), encode_many(graphs, fresh)):
            assert np.array_equal(a, b)

    def test_missing_parameter(self, model):
        params = model.param_dict()
        del params["encoder.gnn2.W"]
        with pytest.raises(CheckpointMismatch, match="encoder.gnn2.W"):
            EncoderModel(ATTR_WIDTH, np.random.default_rng(99), hidden=6).load_param_dict(params)
