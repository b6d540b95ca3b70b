"""A small float64 neural substrate: layers with explicit forward/backward,
an Adam optimizer, seeded Glorot initialization, and finite-difference
gradient verification. Every training module builds on this.

Layers are stateless between calls: ``forward`` returns (output, cache) and
``backward`` consumes that cache, so one parameter set can run several
forward passes (e.g. two contrastive views) before their backward passes.
Backward passes accumulate into ``Param.grad``; the optimizer zeroes grads
after each step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeMismatch

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_CHECK_H = 1e-5         # central-difference step
GRAD_CHECK_SEED = 0         # coordinate sample when a check is capped


@dataclass
class Param:
    """A named learnable tensor with a gradient accumulator."""

    name: str
    value: np.ndarray
    grad: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float64)
        if self.grad is None:
            self.grad = np.zeros_like(self.value)


def glorot_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Uniform(-bound, bound) with bound = sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = shape[0], int(np.prod(shape[1:]))
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Dense:
    """Affine map y = x @ W + b over the last axis."""

    def __init__(self, name: str, n_in: int, n_out: int, rng: np.random.Generator):
        self.n_in = n_in
        self.n_out = n_out
        self.W = Param(f"{name}.W", glorot_uniform((n_in, n_out), rng))
        self.b = Param(f"{name}.b", np.zeros(n_out))

    def forward(self, x: np.ndarray):
        if x.shape[-1] != self.n_in:
            raise ShapeMismatch(f"{self.W.name}: input width {x.shape[-1]}, expected {self.n_in}")
        flat = x.reshape(-1, self.n_in)
        y = flat @ self.W.value
        y += self.b.value
        return y.reshape(*x.shape[:-1], self.n_out), flat

    def backward_params(self, dout: np.ndarray, cache) -> None:
        """Accumulate ``W.grad`` and ``b.grad`` only: the backward pass of a
        layer whose input gradient nobody reads."""
        flat = cache
        dflat = dout.reshape(-1, self.n_out)
        self.W.grad += flat.T @ dflat
        self.b.grad += dflat.sum(axis=0)

    def backward(self, dout: np.ndarray, cache) -> np.ndarray:
        self.backward_params(dout, cache)
        dx = dout.reshape(-1, self.n_out) @ self.W.value.T
        return dx.reshape(*dout.shape[:-1], self.n_in)

    def params(self) -> list[Param]:
        return [self.W, self.b]


def relu(x: np.ndarray):
    return np.maximum(x, 0.0), x


def relu_backward(dout: np.ndarray, cache) -> np.ndarray:
    return dout * (cache > 0.0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Per-position negative log-likelihood of integer targets.

    Returns (nll, cache) where nll has the targets' shape; the backward pass
    maps upstream weights to dlogits = weight * (softmax - onehot).
    """
    probs = softmax(logits)
    flat_p = probs.reshape(-1, logits.shape[-1])
    flat_t = np.asarray(targets).reshape(-1)
    picked = flat_p[np.arange(flat_t.size), flat_t]
    nll = -np.log(np.maximum(picked, 1e-300)).reshape(np.asarray(targets).shape)
    return nll, (probs, flat_t)


def softmax_cross_entropy_backward(dnll: np.ndarray, cache) -> np.ndarray:
    probs, flat_t = cache
    dlogits = probs.copy().reshape(-1, probs.shape[-1])
    dlogits[np.arange(flat_t.size), flat_t] -= 1.0
    dlogits *= np.asarray(dnll).reshape(-1, 1)
    return dlogits.reshape(probs.shape)


def mse(pred: np.ndarray, target: np.ndarray):
    """Mean squared error over all elements; backward returns dpred."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"mse shapes {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff)), diff


def mse_backward(dloss: float, cache) -> np.ndarray:
    diff = cache
    return (2.0 * dloss / diff.size) * diff


def cosine_matrix(A: np.ndarray, B: np.ndarray):
    """All-pairs cosine similarities between rows of A and rows of B.

    Zero rows yield similarity 0. Returns (sims, cache) for the backward pass.
    """
    na = np.linalg.norm(A, axis=1)
    nb = np.linalg.norm(B, axis=1)
    sa = np.where(na == 0.0, 1.0, na)
    sb = np.where(nb == 0.0, 1.0, nb)
    An = A / sa[:, None]
    Bn = B / sb[:, None]
    sims = An @ Bn.T
    sims[na == 0.0, :] = 0.0
    sims[:, nb == 0.0] = 0.0
    return sims, (An, Bn, sa, sb, na, nb)


def cosine_matrix_backward(dsims: np.ndarray, cache):
    An, Bn, sa, sb, na, nb = cache
    d = dsims.copy()
    d[na == 0.0, :] = 0.0
    d[:, nb == 0.0] = 0.0
    # d/dA of (A/|A|) @ (B/|B|)^T: project out the radial component per row
    dAn = d @ Bn
    dBn = d.T @ An
    dA = (dAn - An * np.sum(dAn * An, axis=1, keepdims=True)) / sa[:, None]
    dB = (dBn - Bn * np.sum(dBn * Bn, axis=1, keepdims=True)) / sb[:, None]
    return dA, dB


class LstmCell:
    """Single recurrent cell with input/forget/cell/output gates."""

    def __init__(self, name: str, n_in: int, n_hidden: int, rng: np.random.Generator):
        self.n_in = n_in
        self.n_hidden = n_hidden
        self.Wx = Param(f"{name}.Wx", glorot_uniform((n_in, 4 * n_hidden), rng))
        self.Wh = Param(f"{name}.Wh", glorot_uniform((n_hidden, 4 * n_hidden), rng))
        self.b = Param(f"{name}.b", np.zeros(4 * n_hidden))

    def step(self, x: np.ndarray, h: np.ndarray, c: np.ndarray):
        """One timestep over a batch: x (B, n_in), h/c (B, n_hidden)."""
        if x.shape[-1] != self.n_in or h.shape[-1] != self.n_hidden:
            raise ShapeMismatch(
                f"{self.Wx.name}: got x {x.shape}, h {h.shape}; cell is "
                f"{self.n_in}->{self.n_hidden}")
        H = self.n_hidden
        gates = x @ self.Wx.value + h @ self.Wh.value + self.b.value
        i = _sigmoid(gates[..., 0:H])
        f = _sigmoid(gates[..., H:2 * H])
        g = np.tanh(gates[..., 2 * H:3 * H])
        o = _sigmoid(gates[..., 3 * H:4 * H])
        c2 = f * c + i * g
        tc2 = np.tanh(c2)
        h2 = o * tc2
        return h2, c2, (x, h, c, i, f, g, o, tc2)

    def step_backward(self, dh2: np.ndarray, dc2: np.ndarray, cache):
        """Backward through one step; returns (dx, dh, dc)."""
        x, h, c, i, f, g, o, tc2 = cache
        do = dh2 * tc2
        dc_total = dc2 + dh2 * o * (1.0 - tc2 * tc2)
        df = dc_total * c
        dc = dc_total * f
        di = dc_total * g
        dg = dc_total * i
        dgate_i = di * i * (1.0 - i)
        dgate_f = df * f * (1.0 - f)
        dgate_g = dg * (1.0 - g * g)
        dgate_o = do * o * (1.0 - o)
        dgates = np.concatenate([dgate_i, dgate_f, dgate_g, dgate_o], axis=-1)
        self.Wx.grad += x.T @ dgates
        self.Wh.grad += h.T @ dgates
        self.b.grad += dgates.sum(axis=0)
        dx = dgates @ self.Wx.value.T
        dh = dgates @ self.Wh.value.T
        return dx, dh, dc

    def params(self) -> list[Param]:
        return [self.Wx, self.Wh, self.b]


class Adam:
    """Adaptive-moment optimizer; zeroes every grad after applying it.

    The values, grads and both moments of all params live in one flat buffer
    each, so a step is a few whole-buffer operations however many params
    there are. Construction copies each param's value and grad into those
    buffers and makes ``p.value`` and ``p.grad`` views of them: write to a
    param in place (``p.value[...] = ...``, ``p.grad += ...``) and never
    rebind either attribute, or the optimizer stops seeing it.
    """

    def __init__(self, params: Sequence[Param], lr: float = 0.001):
        params = list(params)
        self.lr = lr
        self.t = 0
        size = sum(p.value.size for p in params)
        self.value = np.empty(size)
        self.grad = np.empty(size)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        start = 0
        for p in params:
            stop = start + p.value.size
            self.value[start:stop] = p.value.reshape(-1)
            self.grad[start:stop] = p.grad.reshape(-1)
            p.value = self.value[start:stop].reshape(p.value.shape)
            p.grad = self.grad[start:stop].reshape(p.grad.shape)
            start = stop

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        g, m, v = self.grad, self.m, self.v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        self.value -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)
        g[...] = 0.0


def grad_check(params: Sequence[Param], loss_fn: Callable[[], float],
               max_coords: int = 10_000) -> float:
    """Max relative error between stored analytic grads and central differences.

    The caller runs forward+backward first so ``p.grad`` holds the analytic
    gradient of ``loss_fn()``; this routine then perturbs each coordinate by
    ±``GRAD_CHECK_H`` (a sample seeded by ``GRAD_CHECK_SEED`` when the total
    exceeds ``max_coords``) and compares.
    """
    coords = [(pi, idx) for pi, p in enumerate(params)
              for idx in range(p.value.size)]
    if len(coords) > max_coords:
        rng = np.random.default_rng(GRAD_CHECK_SEED)
        picked = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[i] for i in picked]
    worst = 0.0
    for pi, idx in coords:
        flat = params[pi].value.reshape(-1)
        saved = flat[idx]
        flat[idx] = saved + GRAD_CHECK_H
        plus = loss_fn()
        flat[idx] = saved - GRAD_CHECK_H
        minus = loss_fn()
        flat[idx] = saved
        numeric = (plus - minus) / (2.0 * GRAD_CHECK_H)
        analytic = params[pi].grad.reshape(-1)[idx]
        rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
