"""Minimal fully-connected Q-network: forward pass, exact backprop, Adam.

Everything is float64 numpy; no autodiff framework.  The Huber loss (unit
threshold) is applied to the selected action's output only.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass, field

import numpy as np

CHECKPOINT_MAGIC = b"RFQNET01"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


def check_count(name, value, least):
    """``ValueError`` unless ``value`` is an int of at least ``least``: the
    check of every count setting.  Numpy integers pass; bools and fractions
    do not."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ValueError(f"{name} must be >= {least} and an int, "
                         f"not {value!r}")


@dataclass(frozen=True)
class MlpSpec:
    input_dim: int = 1
    hidden_dims: tuple = (512, 512, 128, 64)
    output_dim: int = 3

    def __post_init__(self):
        for d in (self.input_dim, *self.hidden_dims, self.output_dim):
            check_count("a layer dim", d, 1)

    @property
    def layer_dims(self):
        return (self.input_dim, *self.hidden_dims, self.output_dim)

    @property
    def n_params(self):
        dims = self.layer_dims
        return sum(i * o + o for i, o in zip(dims[:-1], dims[1:]))


class QNetwork:
    """All parameters in one float64 vector ``params``: layer by layer, the
    weight matrix (fan_in x fan_out, row-major) and then the bias vector.
    ``weights`` and ``biases`` are views into it."""

    def __init__(self, spec, params):
        self.spec = spec
        self.params = params
        views = self.layers(params)
        self.weights = [w for w, _ in views]
        self.biases = [b for _, b in views]

    @property
    def n_layers(self):
        return len(self.weights)

    def n_params(self):
        return self.params.size

    def layers(self, flat):
        """The per-layer ``(W, b)`` views of a vector laid out like ``params``."""
        views, off = [], 0
        dims = self.spec.layer_dims
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            end = off + fan_in * fan_out
            views.append((flat[off:end].reshape(fan_in, fan_out),
                          flat[end : end + fan_out]))
            off = end + fan_out
        return views

    def gradient_buffer(self):
        """A vector laid out like ``params`` and its ``layers`` views, for
        ``loss_and_gradients`` to write into."""
        flat = np.empty_like(self.params)
        return flat, self.layers(flat)

    def copy(self):
        return QNetwork(self.spec, self.params.copy())

    def copy_from(self, other):
        np.copyto(self.params, other.params)


def init_network(spec, seed=0):
    """He-scaled normal weights (variance 2/fan_in), zero biases."""
    rng = np.random.default_rng(seed)
    net = QNetwork(spec, np.zeros(spec.n_params))
    for w in net.weights:
        w[:] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), w.shape)
    return net


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
    return _forward(net, x)


def _forward(net, x, acts=None):
    """The one layer loop: ``x @ W + b`` per layer, ReLU on all but the
    last.  Each layer's output is appended to ``acts`` when it is given."""
    h = x
    last = net.n_layers - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w
        h += b
        if i != last:
            np.maximum(h, 0.0, out=h)
        if acts is not None:
            acts.append(h)
    return h


def _huber(residual):
    a = np.abs(residual)
    loss = 0.5 * residual * residual
    np.subtract(a, 0.5, out=loss, where=a > 1.0)
    return loss


def loss_and_gradients(net, states, action_indices, targets, out=None):
    """Mean Huber loss of Q(s)[a] vs target, with exact gradients.

    The batch is the first ``len(action_indices)`` rows of ``states``;
    gradients flow only through the selected action's output of those rows.
    ``states`` may hold more rows: the one forward pass covers them too, and
    ``targets`` may then be a function of their Q-values that returns the
    batch's targets.  So a Double-DQN step forwards the online net once over
    ``[s; s2]``: the rows of s2 pick the bootstrap action.  At a batch of
    32, the batch of every profile, that pass gives the bits of two separate
    passes under OpenBLAS's SkylakeX, Haswell and Sandybridge kernels, as
    measured; at other batch sizes a row can be computed by another kernel
    and differ in the last bit, depending on the kernel.

    Returns ``(loss, grads)`` where grads is a vector laid out like
    ``net.params``: the one of ``out``, a ``net.gradient_buffer()`` that a
    training loop keeps across calls, or else a new one.
    """
    x = np.asarray(states, dtype=np.float64)
    a_idx = np.asarray(action_indices, dtype=np.int64)
    if not np.isfinite(x).all():
        raise ValueError("non-finite inputs to loss_and_gradients")
    if not ((a_idx >= 0) & (a_idx < net.spec.output_dim)).all():
        raise ValueError("action index out of range")
    batch = len(a_idx)

    # forward over every row, keeping each layer's input; a ReLU output is
    # > 0 exactly where its pre-activation was, so it is its own mask
    acts = [x]
    q = _forward(net, x, acts)

    y = np.asarray(targets(q[batch:]) if callable(targets) else targets,
                   dtype=np.float64)
    if not np.isfinite(y).all():
        raise ValueError("non-finite inputs to loss_and_gradients")

    rows = np.arange(batch)
    residual = q[rows, a_idx]
    residual -= y
    loss = float(np.add.reduce(_huber(residual)) / batch)  # == .mean()

    # dQ: the clipped residual over the batch at each row's action, zero
    # elsewhere; written over the batch's Q rows, which are read no more
    np.maximum(residual, -1.0, out=residual)
    np.minimum(residual, 1.0, out=residual)
    residual /= batch
    delta = q[:batch]
    delta.fill(0.0)
    delta[rows, a_idx] = residual

    grads, views = net.gradient_buffer() if out is None else out
    for i in range(net.n_layers - 1, -1, -1):
        dw, db = views[i]
        np.matmul(acts[i][:batch].T, delta, out=dw)
        np.add.reduce(delta, axis=0, out=db)
        if i > 0:
            delta = delta @ net.weights[i].T
            delta *= acts[i][:batch] > 0.0
    return loss, grads


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First and second moments, laid out like the network's ``params``, and
    two scratch vectors of that size that ``adam_step`` computes in (not
    part of the state: the checkpoint leaves them out)."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    _scratch: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @staticmethod
    def for_network(net):
        return AdamState(m=np.zeros_like(net.params),
                         v=np.zeros_like(net.params))


def adam_step(net, grads, adam, lr):
    """One Adam update with bias correction; mutates net and adam in place."""
    adam.t += 1
    c1 = 1.0 - ADAM_BETA1**adam.t
    c2 = 1.0 - ADAM_BETA2**adam.t
    s, u = adam._scratch
    # m = B1 m + (1 - B1) g and v = B2 v + ((1 - B2) g) g, in this order of
    # operations: the checkpoints' bits depend on it
    np.multiply(grads, 1.0 - ADAM_BETA1, out=s)
    adam.m *= ADAM_BETA1
    adam.m += s
    np.multiply(grads, 1.0 - ADAM_BETA2, out=s)
    s *= grads
    adam.v *= ADAM_BETA2
    adam.v += s
    # params -= lr (m / c1) / (sqrt(v / c2) + eps)
    np.divide(adam.m, c1, out=u)
    u *= lr
    np.divide(adam.v, c2, out=s)
    np.sqrt(s, out=s)
    s += ADAM_EPS
    u /= s
    net.params -= u


@dataclass(frozen=True)
class LrSchedule:
    base: float = 0.001
    final: float = 0.0
    total_steps: int = 1_000_000

    def __post_init__(self):
        if not all(not isinstance(lr, bool) and 0.0 <= lr < math.inf
                   for lr in (self.base, self.final)):
            raise ValueError("lr base and final must be finite and >= 0, "
                             "not bools")
        check_count("lr total_steps", self.total_steps, 0)


def linear_decay(start, end, steps, step):
    """``start`` -> ``end`` linearly over ``steps`` steps, flat at ``end``
    from then on; the one rule of the lr and epsilon schedules."""
    if step < 0:
        raise ValueError("step must be >= 0")
    if step >= steps:
        return end
    return start + (end - start) * (step / steps)


def lr_at(schedule, step):
    """Linear decay base -> final over total_steps, clamped past the end."""
    return linear_decay(schedule.base, schedule.final, schedule.total_steps,
                        step)


# -- checkpoint i/o -------------------------------------------------------


def save_checkpoint(net, adam, path):
    """Binary checkpoint: magic, version, layer shapes, params, Adam moments, t."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, net.n_layers))
        for w in net.weights:
            f.write(struct.pack("<II", *w.shape))
        for flat in (net.params, adam.m, adam.v):
            f.write(flat.astype("<f8").tobytes())
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
    if n_layers < 1:
        raise CheckpointError("checkpoint has no layers")
    shapes = [struct.unpack("<II", take(8)) for _ in range(n_layers)]

    dims = [shapes[0][0]] + [s[1] for s in shapes]
    for i in range(1, n_layers):
        if shapes[i][0] != dims[i]:
            raise CheckpointError(f"layer shapes do not chain at layer {i}")
    try:
        spec = MlpSpec(input_dim=dims[0], hidden_dims=tuple(dims[1:-1]),
                       output_dim=dims[-1])
    except ValueError as e:
        raise CheckpointError(f"checkpoint layer shapes {shapes}: {e}") \
            from None
    if expect_spec is not None and spec != expect_spec:
        raise CheckpointError(
            f"checkpoint spec {spec} does not match expected {expect_spec}"
        )

    params, m, v = (np.frombuffer(take(spec.n_params * 8), dtype="<f8").copy()
                    for _ in range(3))
    (t,) = struct.unpack("<Q", take(8))
    if off != len(data):
        raise CheckpointError("trailing bytes in checkpoint file")

    return QNetwork(spec, params), AdamState(m=m, v=v, t=t)
