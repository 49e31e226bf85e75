"""Minimal fully-connected Q-network: forward pass, exact backprop, Adam.

Everything is float64 numpy; no autodiff framework.  The Huber loss (unit
threshold) is applied to the selected action's output only.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

CHECKPOINT_MAGIC = b"RFQNET01"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class MlpSpec:
    input_dim: int = 1
    hidden_dims: tuple = (512, 512, 128, 64)
    output_dim: int = 3

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(d < 1 for d in dims):
            raise ValueError("all layer dims must be >= 1")

    @property
    def layer_dims(self):
        return (self.input_dim, *self.hidden_dims, self.output_dim)


DESK_SPEC = MlpSpec(hidden_dims=(64, 64))


class QNetwork:
    """Per-layer weight matrices (fan_in x fan_out) and bias vectors."""

    def __init__(self, spec, weights, biases):
        self.spec = spec
        self.weights = weights
        self.biases = biases

    @property
    def n_layers(self):
        return len(self.weights)

    def n_params(self):
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def copy(self):
        return QNetwork(
            self.spec,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )

    def copy_from(self, other):
        for w, ow in zip(self.weights, other.weights):
            np.copyto(w, ow)
        for b, ob in zip(self.biases, other.biases):
            np.copyto(b, ob)


def init_network(spec, seed=0):
    """He-scaled normal weights (variance 2/fan_in), zero biases."""
    rng = np.random.default_rng(seed)
    dims = spec.layer_dims
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return QNetwork(spec, weights, biases)


def forward(net, state):
    """Q-values for a single state vector (shape (input_dim,))."""
    x = np.asarray(state, dtype=np.float64)
    if x.shape != (net.spec.input_dim,):
        raise ValueError(
            f"state shape {x.shape} != ({net.spec.input_dim},)"
        )
    return forward_batch(net, x[None, :])[0]


def forward_batch(net, states):
    """Q-values for a batch of states (shape (B, input_dim))."""
    x = np.asarray(states, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.spec.input_dim:
        raise ValueError(f"bad batch shape {x.shape}")
    h = x
    last = net.n_layers - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if i != last:
            np.maximum(h, 0.0, out=h)
    return h


def _huber(residual):
    a = np.abs(residual)
    return np.where(a <= 1.0, 0.5 * residual * residual, a - 0.5)


def loss_and_gradients(net, states, action_indices, targets):
    """Mean Huber loss of Q(s)[a] vs target, with exact gradients.

    Gradients flow only through the selected action's output.  Returns
    ``(loss, grads)`` where grads is a list of (dW, db) matching the layers.
    """
    x = np.asarray(states, dtype=np.float64)
    a_idx = np.asarray(action_indices, dtype=np.int64)
    y = np.asarray(targets, dtype=np.float64)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite inputs to loss_and_gradients")
    if not ((a_idx >= 0) & (a_idx < net.spec.output_dim)).all():
        raise ValueError("action index out of range")
    batch = x.shape[0]

    # forward, caching pre-activations' masks and activations
    acts = [x]
    h = x
    last = net.n_layers - 1
    relu_masks = []
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        if i != last:
            mask = z > 0.0
            relu_masks.append(mask)
            h = z * mask
        else:
            h = z
        acts.append(h)
    q = acts[-1]

    rows = np.arange(batch)
    residual = q[rows, a_idx] - y
    loss = float(_huber(residual).mean())

    dq = np.zeros_like(q)
    dq[rows, a_idx] = np.clip(residual, -1.0, 1.0) / batch

    grads = [None] * net.n_layers
    delta = dq
    for i in range(last, -1, -1):
        dw = acts[i].T @ delta
        db = delta.sum(axis=0)
        grads[i] = (dw, db)
        if i > 0:
            delta = (delta @ net.weights[i].T) * relu_masks[i - 1]
    return loss, grads


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    base_lr: float = 0.001

    @staticmethod
    def for_network(net):
        zeros = lambda: [
            (np.zeros_like(w), np.zeros_like(b))
            for w, b in zip(net.weights, net.biases)
        ]
        m = zeros()
        v = zeros()
        return AdamState(m=m, v=v)


def adam_step(net, grads, adam, lr):
    """One Adam update with bias correction; mutates net and adam in place.

    Returns ``(net, adam)`` for call-chaining.
    """
    adam.t += 1
    b1, b2, eps = adam.beta1, adam.beta2, adam.eps
    c1 = 1.0 - b1**adam.t
    c2 = 1.0 - b2**adam.t
    for i, (dw, db) in enumerate(grads):
        for which, g, p in ((0, dw, net.weights[i]), (1, db, net.biases[i])):
            m = adam.m[i][which]
            v = adam.v[i][which]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return net, adam


@dataclass(frozen=True)
class LrSchedule:
    base: float = 0.001
    final: float = 0.0
    total_steps: int = 1_000_000


def lr_at(schedule, step):
    """Linear decay base -> final over total_steps, clamped past the end."""
    if step < 0:
        raise ValueError("step must be >= 0")
    if step >= schedule.total_steps:
        return schedule.final
    frac = step / schedule.total_steps
    return schedule.base + (schedule.final - schedule.base) * frac


# -- checkpoint i/o -------------------------------------------------------


def save_checkpoint(net, adam, path):
    """Binary checkpoint: magic, version, layer shapes, params, Adam moments, t."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, net.n_layers))
        for w in net.weights:
            f.write(struct.pack("<II", w.shape[0], w.shape[1]))
        for w, b in zip(net.weights, net.biases):
            f.write(w.astype("<f8").tobytes(order="C"))
            f.write(b.astype("<f8").tobytes())
        for mw, mb in adam.m:
            f.write(mw.astype("<f8").tobytes(order="C"))
            f.write(mb.astype("<f8").tobytes())
        for vw, vb in adam.v:
            f.write(vw.astype("<f8").tobytes(order="C"))
            f.write(vb.astype("<f8").tobytes())
        f.write(struct.pack("<Q", adam.t))


def load_checkpoint(path, expect_spec=None):
    """Load a checkpoint written by save_checkpoint; returns ``(net, adam)``."""
    with open(path, "rb") as f:
        data = f.read()
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(data):
            raise CheckpointError("truncated checkpoint file")
        chunk = data[off : off + n]
        off += n
        return chunk

    if take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic bytes: not a ringflow checkpoint")
    version, n_layers = struct.unpack("<II", take(8))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    shapes = [struct.unpack("<II", take(8)) for _ in range(n_layers)]

    dims = [shapes[0][0]] + [s[1] for s in shapes]
    for i in range(1, n_layers):
        if shapes[i][0] != dims[i]:
            raise CheckpointError(f"layer shapes do not chain at layer {i}")
    spec = MlpSpec(
        input_dim=dims[0], hidden_dims=tuple(dims[1:-1]), output_dim=dims[-1]
    )
    if expect_spec is not None and spec != expect_spec:
        raise CheckpointError(
            f"checkpoint spec {spec} does not match expected {expect_spec}"
        )

    def read_layers():
        ws, bs = [], []
        for rows, cols in shapes:
            ws.append(
                np.frombuffer(take(rows * cols * 8), dtype="<f8")
                .reshape(rows, cols)
                .copy()
            )
            bs.append(np.frombuffer(take(cols * 8), dtype="<f8").copy())
        return ws, bs

    weights, biases = read_layers()
    mw, mb = read_layers()
    vw, vb = read_layers()
    (t,) = struct.unpack("<Q", take(8))
    if off != len(data):
        raise CheckpointError("trailing bytes in checkpoint file")

    net = QNetwork(spec, weights, biases)
    adam = AdamState(m=list(zip(mw, mb)), v=list(zip(vw, vb)), t=t)
    return net, adam
