import struct

import numpy as np
import pytest

from neat.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from neat.errors import CorruptCheckpoint, ShapeMismatch, VersionMismatch
from neat.nn import (
    Adam,
    Dense,
    LstmCell,
    Param,
    cosine_matrix,
    cosine_matrix_backward,
    glorot_uniform,
    grad_check,
    mse,
    mse_backward,
    relu,
    relu_backward,
    softmax,
    softmax_cross_entropy,
    softmax_cross_entropy_backward,
)


def cosine(u, v):
    """Scalar oracle for ``cosine_matrix``: 0 when either vector is all zero."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


class TestDense:
    def test_identity(self, rng):
        layer = Dense("d", 3, 3, rng)
        layer.W.value = np.eye(3)
        layer.b.value[:] = 0.0
        x = rng.normal(size=(4, 3))
        y, _ = layer.forward(x)
        assert np.allclose(y, x)

    def test_zero_input_zero_bias(self, rng):
        layer = Dense("d", 3, 2, rng)
        y, _ = layer.forward(np.zeros((5, 3)))
        assert np.all(y == 0.0)

    def test_shape_mismatch(self, rng):
        layer = Dense("d", 3, 2, rng)
        with pytest.raises(ShapeMismatch):
            layer.forward(np.zeros((5, 4)))

    def test_gradients_match_finite_differences(self, rng):
        layer = Dense("d", 4, 3, rng)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))

        def loss_fn():
            y, _ = layer.forward(x)
            return mse(y, target)[0]

        y, cache = layer.forward(x)
        loss, mcache = mse(y, target)
        layer.backward(mse_backward(1.0, mcache), cache)
        assert grad_check(layer.params(), loss_fn) < 1e-4

    def test_input_gradient(self, rng):
        # dx checked by treating the input itself as the parameter
        layer = Dense("d", 4, 3, rng)
        xp = Param("x", rng.normal(size=(5, 4)))
        R = rng.normal(size=(5, 3))

        def loss_fn():
            y, _ = layer.forward(xp.value)
            return float((y * R).sum())

        y, cache = layer.forward(xp.value)
        layer.W.grad[...] = 0.0
        layer.b.grad[...] = 0.0
        xp.grad += layer.backward(R, cache)
        assert grad_check([xp], loss_fn) < 1e-4

    def test_backward_params_accumulates_what_backward_does(self, rng):
        full, grads_only = (Dense("d", 4, 3, np.random.default_rng(2)) for _ in range(2))
        x = rng.normal(size=(2, 5, 4))
        dout = rng.normal(size=(2, 5, 3))
        for _ in range(2):                    # grads accumulate across calls
            full.backward(dout, full.forward(x)[1])
            assert grads_only.backward_params(dout, grads_only.forward(x)[1]) is None
        for a, b in zip(full.params(), grads_only.params()):
            assert np.array_equal(a.grad, b.grad) and a.grad.any()

    def test_batched_3d_input(self, rng):
        layer = Dense("d", 4, 3, rng)
        x = rng.normal(size=(2, 5, 4))
        y, _ = layer.forward(x)
        assert y.shape == (2, 5, 3)
        flat, _ = layer.forward(x.reshape(10, 4))
        assert np.allclose(y.reshape(10, 3), flat)


class TestActivationsAndLosses:
    def test_relu_values(self):
        y, _ = relu(np.array([-1.0, 0.0, 2.0]))
        assert y.tolist() == [0.0, 0.0, 2.0]

    def test_relu_backward_gates(self):
        x = np.array([-1.0, 0.5, 0.0])
        _, cache = relu(x)
        dx = relu_backward(np.ones(3), cache)
        assert dx.tolist() == [0.0, 1.0, 0.0]

    def test_uniform_logits_give_uniform_probs(self):
        probs = softmax(np.zeros((2, 7)))
        assert np.allclose(probs, 1.0 / 7.0)

    def test_cross_entropy_of_uniform(self):
        logits = np.zeros((3, 5))
        nll, _ = softmax_cross_entropy(logits, np.array([0, 2, 4]))
        assert np.allclose(nll, np.log(5.0))

    def test_cross_entropy_gradient(self, rng):
        lp = Param("logits", rng.normal(size=(4, 6)))
        targets = np.array([1, 0, 5, 2])
        weights = rng.normal(size=4)

        def loss_fn():
            nll, _ = softmax_cross_entropy(lp.value, targets)
            return float((nll * weights).sum())

        nll, cache = softmax_cross_entropy(lp.value, targets)
        lp.grad += softmax_cross_entropy_backward(weights, cache)
        assert grad_check([lp], loss_fn) < 1e-4

    def test_mse_values_and_backward(self):
        loss, cache = mse(np.array([1.0, 3.0]), np.array([0.0, 1.0]))
        assert loss == pytest.approx(2.5)
        dpred = mse_backward(1.0, cache)
        assert np.allclose(dpred, [1.0, 2.0])

    def test_mse_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mse(np.zeros(3), np.zeros(4))

    def test_cosine_self(self, rng):
        A = rng.normal(size=(3, 8))
        sims, _ = cosine_matrix(A, A)
        assert np.diag(sims) == pytest.approx(1.0)

    def test_cosine_zero_vector(self):
        sims, _ = cosine_matrix(np.zeros((1, 4)), np.ones((2, 4)))
        assert np.all(sims == 0.0)

    def test_cosine_matrix_matches_scalar(self, rng):
        A = rng.normal(size=(3, 5))
        B = rng.normal(size=(4, 5))
        B[2] = 0.0
        sims, _ = cosine_matrix(A, B)
        for i in range(3):
            for j in range(4):
                assert sims[i, j] == pytest.approx(cosine(A[i], B[j]), abs=1e-12)

    def test_cosine_matrix_gradient(self, rng):
        Ap = Param("A", rng.normal(size=(3, 5)))
        Bp = Param("B", rng.normal(size=(4, 5)))
        R = rng.normal(size=(3, 4))

        def loss_fn():
            sims, _ = cosine_matrix(Ap.value, Bp.value)
            return float((sims * R).sum())

        sims, cache = cosine_matrix(Ap.value, Bp.value)
        dA, dB = cosine_matrix_backward(R, cache)
        Ap.grad += dA
        Bp.grad += dB
        assert grad_check([Ap, Bp], loss_fn) < 1e-4


class TestLstm:
    def test_zero_everything_gives_zero_h(self, rng):
        cell = LstmCell("l", 3, 4, rng)
        for p in cell.params():
            p.value[...] = 0.0
        h2, c2, _ = cell.step(np.zeros((1, 3)), np.zeros((1, 4)), np.zeros((1, 4)))
        assert np.all(h2 == 0.0)
        assert np.all(c2 == 0.0)

    def test_deterministic(self, rng):
        cell = LstmCell("l", 3, 4, rng)
        x, h, c = rng.normal(size=(2, 3)), rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        a = cell.step(x, h, c)[0]
        b = cell.step(x, h, c)[0]
        assert np.array_equal(a, b)

    def test_shape_mismatch(self, rng):
        cell = LstmCell("l", 3, 4, rng)
        with pytest.raises(ShapeMismatch):
            cell.step(np.zeros((2, 5)), np.zeros((2, 4)), np.zeros((2, 4)))

    def test_gradients_match_finite_differences(self, rng):
        cell = LstmCell("l", 3, 4, rng)
        x = rng.normal(size=(2, 3))
        h = rng.normal(size=(2, 4))
        c = rng.normal(size=(2, 4))
        Rh = rng.normal(size=(2, 4))
        Rc = rng.normal(size=(2, 4))

        def loss_fn():
            h2, c2, _ = cell.step(x, h, c)
            return float((h2 * Rh).sum() + (c2 * Rc).sum())

        h2, c2, cache = cell.step(x, h, c)
        cell.step_backward(Rh, Rc, cache)
        assert grad_check(cell.params(), loss_fn) < 1e-4

    def test_input_and_state_gradients(self, rng):
        cell = LstmCell("l", 3, 4, rng)
        xp = Param("x", rng.normal(size=(2, 3)))
        hp = Param("h", rng.normal(size=(2, 4)))
        cp = Param("c", rng.normal(size=(2, 4)))
        Rh = rng.normal(size=(2, 4))

        def loss_fn():
            h2, _, _ = cell.step(xp.value, hp.value, cp.value)
            return float((h2 * Rh).sum())

        h2, _, cache = cell.step(xp.value, hp.value, cp.value)
        dx, dh, dc = cell.step_backward(Rh, np.zeros((2, 4)), cache)
        for p in cell.params():
            p.grad[...] = 0.0
        xp.grad += dx
        hp.grad += dh
        cp.grad += dc
        assert grad_check([xp, hp, cp], loss_fn) < 1e-4


class TestOptimizers:
    def test_first_adam_step_is_signed_lr(self):
        p = Param("p", np.array([1.0, -1.0]))
        opt = Adam([p], lr=0.01)
        p.grad[:] = np.array([3.0, -5.0])
        opt.step()
        # m̂=g, v̂=g² at t=1, so the update is lr·sign(g) up to eps
        assert np.allclose(p.value, [1.0 - 0.01, -1.0 + 0.01], atol=1e-6)

    def test_zero_grad_no_change(self):
        p = Param("p", np.array([2.0]))
        opt = Adam([p], lr=0.1)
        opt.step()
        assert p.value.tolist() == [2.0]

    def test_grads_zeroed_after_step(self):
        p = Param("p", np.ones(3))
        opt = Adam([p], lr=0.01)
        p.grad[:] = 1.0
        opt.step()
        assert np.all(p.grad == 0.0)

    def test_flat_step_equals_the_per_param_formula(self, rng):
        shapes = [(3, 4), (4,), (2, 3, 2)]
        params = [Param(f"p{i}", rng.normal(size=shape)) for i, shape in enumerate(shapes)]
        ref = [p.value.copy() for p in params]
        m = [np.zeros(shape) for shape in shapes]
        v = [np.zeros(shape) for shape in shapes]
        opt = Adam(params, lr=0.01)
        for t in range(1, 6):
            grads = [rng.normal(size=shape) for shape in shapes]
            for p, g in zip(params, grads):
                p.grad += g
            opt.step()
            b1t, b2t = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            for i, g in enumerate(grads):
                m[i] *= 0.9
                m[i] += (1.0 - 0.9) * g
                v[i] *= 0.999
                v[i] += (1.0 - 0.999) * (g * g)
                ref[i] -= 0.01 * (m[i] / b1t) / (np.sqrt(v[i] / b2t) + 1e-8)
            for p, r in zip(params, ref):
                assert np.array_equal(p.value, r), (t, p.name)

    def test_params_become_views_of_the_buffers(self, rng):
        layer = Dense("d", 3, 2, rng)
        W0, b0 = layer.W.value.copy(), layer.b.value.copy()
        layer.b.grad[:] = 0.5                       # a grad pending at construction is kept
        opt = Adam(layer.params(), lr=0.01)
        assert np.array_equal(layer.W.value, W0) and np.array_equal(layer.b.value, b0)
        assert np.array_equal(layer.b.grad, [0.5, 0.5])
        for p in layer.params():
            assert np.shares_memory(p.value, opt.value)
            assert np.shares_memory(p.grad, opt.grad)
        x = rng.normal(size=(4, 3))
        _, cache = layer.forward(x)
        layer.backward(np.ones((4, 2)), cache)
        np.testing.assert_allclose(
            opt.grad, np.concatenate([x.sum(axis=0).repeat(2), [4.5, 4.5]]), rtol=1e-12)
        opt.step()
        assert not np.array_equal(layer.W.value, W0)
        assert np.all(opt.grad == 0.0)
        for p in layer.params():
            assert np.all(p.grad == 0.0)

    def test_quadratic_descent_monotone(self):
        p = Param("p", np.array([5.0]))
        opt = Adam([p], lr=0.001)
        losses = []
        for _ in range(100):
            loss = float(p.value[0] ** 2)
            losses.append(loss)
            p.grad[:] = 2.0 * p.value
            opt.step()
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestInit:
    def test_glorot_bound(self):
        rng = np.random.default_rng(0)
        w = glorot_uniform((30, 50), rng)
        bound = np.sqrt(6.0 / 80.0)
        assert np.all(np.abs(w) <= bound)
        assert np.max(np.abs(w)) > 0.8 * bound     # actually fills the range

    def test_seeded_determinism(self):
        a = glorot_uniform((4, 4), np.random.default_rng(3))
        b = glorot_uniform((4, 4), np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_biases_start_at_zero(self):
        layer = Dense("d", 3, 5, np.random.default_rng(0))
        assert layer.b.value.shape == (5,)
        assert np.all(layer.b.value == 0.0)


class TestGradCheckHarness:
    def test_detects_wrong_gradient(self):
        p = Param("p", np.array([2.0]))

        def loss_fn():
            return float(p.value[0] ** 2)

        p.grad[:] = 1.23            # wrong on purpose (true grad is 4.0)
        assert grad_check([p], loss_fn) > 0.1

    def test_sampling_cap(self, rng):
        p = Param("p", rng.normal(size=(40,)))
        target = rng.normal(size=40)

        def loss_fn():
            return mse(p.value, target)[0]

        loss, cache = mse(p.value, target)
        p.grad += mse_backward(1.0, cache)
        assert grad_check([p], loss_fn, max_coords=10) < 1e-4


class TestCheckpoint:
    def params(self, rng):
        return {
            "enc.W": rng.normal(size=(4, 3)),
            "enc.b": rng.normal(size=3),
            "scalar": np.array(2.5),
        }

    def test_roundtrip_exact(self, tmp_path, rng):
        path = tmp_path / "model.ckpt"
        params = self.params(rng)
        meta = {"dataset_id": "demo", "config_hash": "abc123", "tau": "0.5"}
        save_checkpoint(path, params, meta)
        loaded, meta2 = load_checkpoint(path)
        assert meta2 == meta
        assert set(loaded) == set(params)
        for name in params:
            assert np.array_equal(loaded[name], params[name])
            assert loaded[name].shape == np.asarray(params[name]).shape

    def test_save_load_save_byte_identical(self, tmp_path, rng):
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, self.params(rng), {"k": "v", "z": "9"})
        loaded, meta = load_checkpoint(p1)
        save_checkpoint(p2, loaded, meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_truncated(self, tmp_path, rng):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self.params(rng), {})
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 7])
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "future.ckpt"
        path.write_bytes(MAGIC + (99).to_bytes(4, "little") + (0).to_bytes(8, "little") * 2)
        with pytest.raises(VersionMismatch):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", [b"dataset_id", b"demo", b"enc.W"])
    def test_text_that_is_not_utf8(self, tmp_path, rng, text):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self.params(rng), {"dataset_id": "demo"})
        data = path.read_bytes()
        assert data.count(text) == 1
        path.write_bytes(data.replace(text, b"\xff" + text[1:]))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    # (2**32, 2**32) overflows an int64 product to 0 values; (0, 2**63) holds
    # 0 values in a dim numpy cannot make
    @pytest.mark.parametrize("dims", [(2**32, 2**32), (0, 2**63), (400, 3)])
    def test_dims_that_the_values_do_not_fill(self, tmp_path, rng, dims):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self.params(rng), {})
        data = path.read_bytes()
        shape = struct.pack("<QQ", 4, 3)           # enc.W
        assert data.count(shape) == 1
        path.write_bytes(data.replace(shape, struct.pack("<QQ", *dims)))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path, rng):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self.params(rng), {})
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)
