"""Fully-connected Q-network: init, forward, gradients, Adam, checkpoints."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringflow import (
    AdamState,
    CheckpointError,
    LrSchedule,
    MlpSpec,
    adam_step,
    forward,
    init_network,
    load_checkpoint,
    loss_and_gradients,
    lr_at,
    save_checkpoint,
)
from ringflow.net import forward_batch


def small_net(seed=0, dims=(5,)):
    return init_network(MlpSpec(input_dim=1, hidden_dims=dims,
                                output_dim=3), seed=seed)


# ---------------------------------------------------------------- init


def test_init_is_seed_deterministic():
    a = init_network(MlpSpec(1, (4, 3), 3), seed=42)
    b = init_network(MlpSpec(1, (4, 3), 3), seed=42)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_init_differs_across_seeds():
    a = init_network(MlpSpec(1, (8,), 3), seed=1)
    b = init_network(MlpSpec(1, (8,), 3), seed=2)
    assert any((wa != wb).any() for wa, wb in zip(a.weights, b.weights))


def test_biases_start_at_zero():
    net = init_network(MlpSpec(1, (4, 3), 3), seed=0)
    for b in net.biases:
        assert (b == 0.0).all()


def test_weight_variance_tracks_fan_in():
    net = init_network(MlpSpec(512, (512,), 3), seed=0)
    w = net.weights[0]  # 512 x 512
    assert w.var() == pytest.approx(2.0 / 512, rel=0.2)


def test_layer_shapes():
    net = init_network(MlpSpec(1, (512, 512, 128, 64), 3), seed=0)
    shapes = [w.shape for w in net.weights]
    assert shapes == [(1, 512), (512, 512), (512, 128), (128, 64), (64, 3)]


def test_weights_and_biases_are_views_of_one_vector():
    net = init_network(MlpSpec(2, (4, 3), 3), seed=0)
    assert net.n_params() == net.params.size == (2 * 4 + 4) + (4 * 3 + 3) \
        + (3 * 3 + 3)
    for w, b in zip(net.weights, net.biases):
        assert np.shares_memory(w, net.params)
        assert np.shares_memory(b, net.params)
    flat = np.arange(net.n_params(), dtype=np.float64)
    pieces = [x.ravel() for w, b in net.layers(flat) for x in (w, b)]
    np.testing.assert_array_equal(np.concatenate(pieces), flat)
    copy = net.copy()
    assert not np.shares_memory(copy.params, net.params)
    copy.copy_from(init_network(net.spec, seed=1))
    np.testing.assert_array_equal(copy.weights[1],
                                  init_network(net.spec, seed=1).weights[1])


# ---------------------------------------------------------------- forward


def test_zero_net_outputs_zero():
    net = small_net()
    for w in net.weights:
        w[:] = 0.0
    np.testing.assert_array_equal(forward(net, [0.7]), [0.0, 0.0, 0.0])


def _one_one_one(w1, b1, w2, b2):
    net = init_network(MlpSpec(1, (1,), 1), seed=0)
    net.weights[0][:] = w1
    net.biases[0][:] = b1
    net.weights[1][:] = w2
    net.biases[1][:] = b2
    return net


def test_hand_forward_through_relu():
    net = _one_one_one(2.0, -1.0, 3.0, 0.0)
    assert forward(net, [1.0])[0] == pytest.approx(3.0)


def test_hand_forward_dead_relu():
    net = _one_one_one(2.0, -1.0, 3.0, 0.0)
    assert forward(net, [0.0])[0] == pytest.approx(0.0)


def test_output_layer_is_linear():
    # Negative outputs must survive: no ReLU on the last layer.
    net = _one_one_one(1.0, 0.0, -2.0, 0.0)
    assert forward(net, [1.0])[0] == pytest.approx(-2.0)


def test_forward_batch_matches_single():
    net = small_net(seed=3)
    states = np.linspace(0, 1, 7)[:, None]
    batch = forward_batch(net, states)
    for s, row in zip(states, batch):
        np.testing.assert_allclose(forward(net, s), row, atol=1e-12)


def test_forward_rejects_bad_shape():
    net = small_net()
    with pytest.raises(ValueError):
        forward(net, [1.0, 2.0])


# ---------------------------------------------------------------- loss/grads


def test_targets_equal_q_gives_zero_loss_and_grads():
    net = small_net(seed=5)
    states = np.array([[0.2], [0.8]])
    q = forward_batch(net, states)
    actions = np.array([0, 2])
    targets = q[[0, 1], actions]
    loss, grads = loss_and_gradients(net, states, actions, targets)
    assert loss == 0.0
    assert grads.shape == net.params.shape
    for gw, gb in net.layers(grads):
        assert (gw == 0.0).all() and (gb == 0.0).all()


def test_small_residual_quadratic_loss():
    net = small_net(seed=5)
    states = np.array([[0.3]])
    actions = np.array([1])
    q = forward(net, states[0])
    residual = 0.25
    loss, _ = loss_and_gradients(net, states, actions,
                                 np.array([q[1] - residual]))
    assert loss == pytest.approx(0.5 * residual**2, abs=1e-12)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    for trial in range(10):
        dims = tuple(rng.integers(2, 6, rng.integers(1, 3)))
        net = init_network(MlpSpec(1, dims, 3), seed=trial)
        bsz = int(rng.integers(1, 6))
        states = rng.uniform(0, 1, (bsz, 1))
        actions = rng.integers(0, 3, bsz)
        targets = rng.normal(0, 0.5, bsz)
        _, grads = loss_and_gradients(net, states, actions, targets)
        eps = 1e-5
        for (w, b), (gw, gb) in zip(net.layers(net.params),
                                    net.layers(grads)):
            for arr, g in ((w, gw), (b, gb)):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    orig = arr[ix]
                    arr[ix] = orig + eps
                    lp, _ = loss_and_gradients(net, states, actions, targets)
                    arr[ix] = orig - eps
                    lm, _ = loss_and_gradients(net, states, actions, targets)
                    arr[ix] = orig
                    fd = (lp - lm) / (2 * eps)
                    scale = max(abs(fd), abs(g[ix]), 1e-8)
                    assert abs(fd - g[ix]) / scale < 1e-4


def test_huber_gradient_is_clipped_for_large_residual():
    net = _one_one_one(1.0, 0.0, 1.0, 0.0)
    # Q(1) = 1; target far above — slope must saturate at 1, not grow.
    loss_far, grads_far = loss_and_gradients(
        net, np.array([[1.0]]), np.array([0]), np.array([100.0])
    )
    loss_farther, grads_farther = loss_and_gradients(
        net, np.array([[1.0]]), np.array([0]), np.array([200.0])
    )
    np.testing.assert_allclose(net.layers(grads_far)[1][0],
                               net.layers(grads_farther)[1][0], atol=1e-12)
    assert loss_farther > loss_far


def test_bad_action_index_rejected():
    net = small_net()
    with pytest.raises(ValueError):
        loss_and_gradients(net, np.array([[0.5]]), np.array([3]),
                           np.array([0.0]))


def _mask_multiply_loss(net, states, actions, targets):
    """``loss_and_gradients`` with its own layer loop, as it was written
    before it shared the forward pass: each ReLU is a multiply by a kept
    ``h > 0`` mask, and backprop multiplies by the same masks."""
    x = np.asarray(states, dtype=np.float64)
    batch = len(actions)
    last = net.n_layers - 1
    acts, masks, h = [x], [], x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w
        h += b
        if i != last:
            mask = h > 0.0
            masks.append(mask)
            h *= mask
        acts.append(h)
    q = acts[-1]
    y = np.asarray(targets(q[batch:]) if callable(targets) else targets,
                   dtype=np.float64)
    rows = np.arange(batch)
    residual = q[rows, actions] - y
    huber = np.where(np.abs(residual) > 1.0, np.abs(residual) - 0.5,
                     0.5 * residual * residual)
    loss = float(np.add.reduce(huber) / batch)
    delta = np.zeros((batch, q.shape[1]))
    delta[rows, actions] = np.minimum(np.maximum(residual, -1.0), 1.0) / batch
    layers = [None] * net.n_layers
    for i in range(last, -1, -1):
        layers[i] = ((acts[i][:batch].T @ delta).ravel(), delta.sum(axis=0))
        if i > 0:
            delta = delta @ net.weights[i].T
            delta *= masks[i - 1][:batch]
    return loss, np.concatenate([part for layer in layers for part in layer])


@settings(max_examples=80, deadline=None)
@given(input_dim=st.integers(1, 3),
       hidden=st.lists(st.integers(1, 24), max_size=3),
       n_actions=st.integers(1, 4),
       batch=st.integers(1, 40),
       extra_rows=st.integers(0, 40),
       seed=st.integers(0, 2**32 - 1))
def test_loss_equals_the_mask_multiply_loop_bit_for_bit(
        input_dim, hidden, n_actions, batch, extra_rows, seed):
    """The shared layer loop (ReLU by ``np.maximum``, masks read back from
    the activations) gives the loss and gradient bits of the loop that
    multiplied by masks, over ``[s; s2]``-like inputs of any row count."""
    net = init_network(MlpSpec(input_dim, tuple(hidden), n_actions),
                       seed=seed)
    rng = np.random.default_rng(seed)
    for b in net.biases:
        b[:] = rng.normal(0.0, 0.5, b.shape)
    states = rng.normal(0.0, 1.0, (batch + extra_rows, input_dim))
    actions = rng.integers(0, n_actions, batch)
    y = rng.normal(0.0, 3.0, batch)  # residuals on both sides of 1
    targets = (lambda q2: y + 0.5 * q2.max()) if extra_rows else y

    loss, grads = loss_and_gradients(net, states, actions, targets)
    want_loss, want_grads = _mask_multiply_loss(net, states, actions, targets)
    assert loss.hex() == want_loss.hex()
    assert grads.tobytes() == want_grads.tobytes()


# ---------------------------------------------------------------- Adam


def test_adam_zero_grads_only_advance_time():
    net = small_net(seed=1)
    before = [w.copy() for w in net.weights]
    adam = AdamState.for_network(net)
    adam_step(net, np.zeros_like(net.params), adam, lr=0.001)
    assert adam.t == 1
    for w, w0 in zip(net.weights, before):
        np.testing.assert_array_equal(w, w0)


def _scalar_net(theta=0.0):
    net = init_network(MlpSpec(1, (), 1), seed=0)
    net.weights[0][:] = theta
    return net


def test_adam_first_step_hand_value():
    net = _scalar_net(0.0)
    adam = AdamState.for_network(net)
    grads = np.zeros_like(net.params)
    net.layers(grads)[0][0][:] = 1.0
    adam_step(net, grads, adam, lr=0.001)
    expected = -0.001 * 1.0 / (1.0 + 1e-8)
    assert net.weights[0][0, 0] == pytest.approx(expected, abs=1e-12)


def test_adam_two_identical_unit_steps():
    net = _scalar_net(0.0)
    adam = AdamState.for_network(net)
    grads = np.zeros_like(net.params)
    net.layers(grads)[0][0][:] = 1.0
    adam_step(net, grads, adam, lr=0.001)
    adam_step(net, grads, adam, lr=0.001)
    assert net.weights[0][0, 0] == pytest.approx(-0.002, abs=1e-6)


# ---------------------------------------------------------------- schedules


def test_lr_schedule_endpoints_and_midpoint():
    s = LrSchedule(base=0.001, final=0.0, total_steps=1_000_000)
    assert lr_at(s, 0) == 0.001
    assert lr_at(s, 1_000_000) == 0.0
    assert lr_at(s, 500_000) == pytest.approx(0.0005)
    assert lr_at(s, 2_000_000) == 0.0  # clamped past the end


def test_lr_schedule_monotone_non_increasing():
    s = LrSchedule(base=0.001, final=0.0, total_steps=1000)
    vals = [lr_at(s, t) for t in range(0, 1100, 50)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    net = small_net(seed=9, dims=(6, 4))
    adam = AdamState.for_network(net)
    # advance optimizer state so moments are non-trivial
    grads = np.zeros_like(net.params)
    for gw, gb in net.layers(grads):
        gw[:], gb[:] = 0.1, -0.2
    adam_step(net, grads, adam, lr=0.001)
    p = tmp_path / "ck.bin"
    save_checkpoint(net, adam, p)
    net2, adam2 = load_checkpoint(p)
    assert net2.spec == net.spec
    np.testing.assert_array_equal(net2.params, net.params)
    np.testing.assert_array_equal(adam2.m, adam.m)
    np.testing.assert_array_equal(adam2.v, adam.v)
    assert adam2.t == adam.t


def _packed_layers(layers):
    out = b""
    for w, b in layers:
        for row in w:
            out += struct.pack(f"<{len(row)}d", *row)
        out += struct.pack(f"<{len(b)}d", *b)
    return out


def test_checkpoint_v1_format_is_locked(tmp_path):
    net = small_net(seed=4, dims=(3, 2))
    shapes = [(1, 3), (3, 2), (2, 3)]
    g = [(np.full(shape, 0.1 * (i + 1)), np.full(shape[1], -0.2 * (i + 1)))
         for i, shape in enumerate(shapes)]
    adam = AdamState.for_network(net)
    adam_step(net, np.concatenate([x.ravel() for pair in g for x in pair]),
              adam, lr=0.001)
    p = tmp_path / "ck.bin"
    save_checkpoint(net, adam, p)

    # one Adam step from zero moments: m = (1 - 0.9) g, v = (1 - 0.999) g^2
    expected = (
        b"RFQNET01"
        + struct.pack("<II", 1, len(shapes))
        + b"".join(struct.pack("<II", *shape) for shape in shapes)
        + _packed_layers(zip(net.weights, net.biases))
        + _packed_layers([((1.0 - 0.9) * gw, (1.0 - 0.9) * gb)
                          for gw, gb in g])
        + _packed_layers([((1.0 - 0.999) * gw * gw, (1.0 - 0.999) * gb * gb)
                          for gw, gb in g])
        + struct.pack("<Q", 1)
    )
    assert p.read_bytes() == expected


def test_checkpoint_wrong_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOTAFILE" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_checkpoint_without_layers(tmp_path):
    p = tmp_path / "empty.bin"
    p.write_bytes(b"RFQNET01" + struct.pack("<II", 1, 0) + struct.pack("<Q", 0))
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_checkpoint_truncation(tmp_path):
    net = small_net(seed=2)
    adam = AdamState.for_network(net)
    p = tmp_path / "ck.bin"
    save_checkpoint(net, adam, p)
    data = p.read_bytes()
    p.write_bytes(data[: len(data) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_checkpoint_spec_mismatch(tmp_path):
    net = small_net(seed=2, dims=(5,))
    adam = AdamState.for_network(net)
    p = tmp_path / "ck.bin"
    save_checkpoint(net, adam, p)
    with pytest.raises(CheckpointError):
        load_checkpoint(p, expect_spec=MlpSpec(1, (7,), 3))
