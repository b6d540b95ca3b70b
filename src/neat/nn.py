"""A small neural substrate: layers with explicit forward/backward (``Dense``,
``Mlp``), a squared-error loss and all-pairs cosine similarity with their
backward passes, Adam at rate ``ADAM_LR``, seeded Glorot initialization,
finite-difference gradient checks, and the one scaling of what the networks
read (``scale_input``). Every training module builds on this.

Parameters, their gradients, the optimizer's state and checkpoints are
float64. A layer computes in its input's dtype: ``Dense`` casts its weights
to that dtype, a no-op for float64, so a float64 input runs on the weights
themselves. The gradients of a float32 pass are float32 products,
accumulated into the float64 ``Param.grad``.

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

ADAM_LR = 0.001
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


def scale_input(x: np.ndarray) -> np.ndarray:
    """``arcsinh``, elementwise: the scaling of every learned component's
    input. It is linear near 0 and logarithmic in the tails, keeps sign and
    zero, and needs no statistics of its input, so a value scales the same
    whatever rows or columns sit beside it. A finite input stays finite:
    ``arcsinh(1e150)`` is about 346.1.

    A ridge probe from the pretrained encoder's embeddings predicted the
    records' utility with held-out Spearman rho 0.75-0.81 on arcsinh-scaled
    attributes, 0.65-0.71 on per-column z-scores, and |rho| <= 0.13 on raw
    values, where clamp-range crosses reach 1e150."""
    return np.arcsinh(x)


class Dense:
    """Affine map y = x @ W + b over the last axis, computed in ``x``'s dtype."""

    def __init__(self, name: str, n_in: int, n_out: int, rng: np.random.Generator):
        self.n_in = n_in
        self.n_out = n_out
        self.W = Param(f"{name}.W", glorot_uniform((n_in, n_out), rng))
        self.b = Param(f"{name}.b", np.zeros(n_out))

    def forward(self, x: np.ndarray):
        if x.shape[-1] != self.n_in:
            raise ShapeMismatch(f"{self.W.name}: input width {x.shape[-1]}, expected {self.n_in}")
        flat = x.reshape(-1, self.n_in)
        y = flat @ self.W.value.astype(x.dtype, copy=False)
        y += self.b.value.astype(x.dtype, copy=False)
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
        dx = dout.reshape(-1, self.n_out) @ self.W.value.astype(dout.dtype, copy=False).T
        return dx.reshape(*dout.shape[:-1], self.n_in)

    def params(self) -> list[Param]:
        return [self.W, self.b]


class Mlp:
    """Dense → ReLU → Dense, layers ``{name}1`` and ``{name}2`` drawn from ``rng`` in turn."""

    def __init__(self, name: str, n_in: int, n_hidden: int, n_out: int, rng: np.random.Generator):
        self.layer1 = Dense(f"{name}1", n_in, n_hidden, rng)
        self.layer2 = Dense(f"{name}2", n_hidden, n_out, rng)

    def forward(self, x: np.ndarray):
        a, c1 = self.layer1.forward(x)
        h, gate = relu(a)
        y, c2 = self.layer2.forward(h)
        return y, (c1, gate, c2)

    def backward_params(self, dout: np.ndarray, cache) -> None:
        """Accumulate the grads only, skipping the input gradient's matmul."""
        c1, gate, c2 = cache
        self.layer1.backward_params(relu_backward(self.layer2.backward(dout, c2), gate), c1)

    def backward(self, dout: np.ndarray, cache) -> np.ndarray:
        c1, gate, c2 = cache
        return self.layer1.backward(relu_backward(self.layer2.backward(dout, c2), gate), c1)

    def params(self) -> list[Param]:
        return self.layer1.params() + self.layer2.params()


def relu(x: np.ndarray):
    """Returns (max(x, 0), gate): the bool ``x > 0``, all that
    ``relu_backward`` needs, in an eighth of the bytes of float64 ``x``."""
    return np.maximum(x, 0.0), x > 0.0


def relu_backward(dout: np.ndarray, gate: np.ndarray) -> np.ndarray:
    return dout * gate


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


class Adam:
    """Adaptive-moment optimizer; zeroes every grad after applying it.

    The values, grads and both moments of all params live in one flat buffer
    each, so a step is a few whole-buffer operations however many params
    there are. Construction copies each param's value and grad into those
    buffers and makes ``p.value`` and ``p.grad`` views of them: write to a
    param in place (``p.value[...] = ...``, ``p.grad += ...``) and never
    rebind either attribute, or the optimizer stops seeing it.
    """

    def __init__(self, params: Sequence[Param]):
        params = list(params)
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
        self.value -= ADAM_LR * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)
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
