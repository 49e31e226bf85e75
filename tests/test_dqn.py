"""Replay buffer, exploration schedule, bootstrap rule, environment, loop."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringflow import (
    AdamState,
    DdqnConfig,
    EnvSpec,
    EpsilonSchedule,
    LrSchedule,
    MlpSpec,
    ReplayBuffer,
    RingEnv,
    adam_step,
    ddqn_targets,
    epsilon_at,
    evaluate,
    forward,
    init_network,
    loss_and_gradients,
    lr_at,
    measure,
    select_action,
    train,
)
from ringflow.dqn import (
    ACTION_ACCELS,
    EnvTerminatedError,
    explore_action,
    observation,
)
from ringflow.net import forward_batch

from conftest import equilibrium_speed, make_ring


# ---------------------------------------------------------------- replay


def test_fifo_eviction_drops_oldest():
    buf = ReplayBuffer(capacity=100_000)
    for i in range(100_001):
        buf.push(float(i), 0, 0.0, 0.0, False)
    assert len(buf) == 100_000
    stored = buf._rows[:len(buf), 0]
    assert 0.0 not in stored
    assert 100_000.0 in stored


def test_sample_returns_the_pushed_transition_with_exact_types():
    buf = ReplayBuffer(capacity=4)
    buf.push(0.25, 2, -3000.5, 0.125, True)
    s, a, r, s2, done = buf.sample(1, np.random.default_rng(0))
    assert a.dtype == np.int64 and done.dtype == bool
    assert (s.tolist(), a.tolist(), r.tolist(), s2.tolist(),
            done.tolist()) == ([0.25], [2], [-3000.5], [0.125], [True])


def test_underfilled_buffer_refuses_to_sample():
    buf = ReplayBuffer(capacity=100)
    for i in range(31):
        buf.push(0.0, 0, 0.0, 0.0, False)
    with pytest.raises(ValueError):
        buf.sample(32, np.random.default_rng(0))


def test_sampling_is_uniform_within_3_sigma():
    buf = ReplayBuffer(capacity=10)
    for i in range(10):
        buf.push(float(i), 0, 0.0, 0.0, False)
    rng = np.random.default_rng(1)
    n = 100_000
    draws = np.concatenate(
        [buf.sample(10, rng)[0] for _ in range(n // 10)]
    )
    counts = np.bincount(draws.astype(int), minlength=10)
    p = 0.1
    sigma = np.sqrt(n * p * (1 - p))
    assert (np.abs(counts - n * p) < 3 * sigma).all()


# ---------------------------------------------------------------- schedules


def test_epsilon_endpoints_and_decay():
    s = EpsilonSchedule(start=1.0, end=0.05, decay_steps=100_000)
    assert epsilon_at(s, 0) == 1.0
    assert epsilon_at(s, 100_000) == 0.05
    assert epsilon_at(s, 200_000) == 0.05
    assert epsilon_at(s, 50_000) == pytest.approx(0.525)
    vals = [epsilon_at(s, t) for t in range(0, 120_000, 5000)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_greedy_action_is_argmax():
    a = select_action(_net_with_outputs([0.1, 0.9, 0.3]), 0.0)
    assert a == 1
    # an exact tie goes to the lowest index
    assert select_action(_net_with_outputs([0.5, 0.9, 0.9]), 0.0) == 1
    assert select_action(_net_with_outputs([0.9, 0.9, 0.9]), 0.0) == 0
    assert select_action(_net_with_outputs([0.0, -0.0, 0.0]), 0.0) == 0


@settings(max_examples=60, deadline=None)
@given(hidden=st.lists(st.integers(1, 40), max_size=3),
       seed=st.integers(0, 2**32 - 1),
       state=st.floats(-2.0, 2.0, allow_nan=False))
def test_greedy_action_is_the_argmax_of_one_single_state_forward(
        hidden, seed, state):
    net = init_network(MlpSpec(1, tuple(hidden), 3), seed=seed)
    assert select_action(net, state) == int(np.argmax(forward(net, [state])))


def test_full_exploration_is_uniform_within_3_sigma():
    rng = np.random.default_rng(2)
    n = 100_000
    counts = np.bincount(
        [explore_action(3, 1.0, rng) for _ in range(n)], minlength=3
    )
    p = 1.0 / 3.0
    sigma = np.sqrt(n * p * (1 - p))
    assert (np.abs(counts - n * p) < 3 * sigma).all()


# ---------------------------------------------------------------- targets


def _batch(r, done):
    return (
        np.array([0.0]),
        np.array([0]),
        np.array([r]),
        np.array([0.0]),
        np.array([done]),
    )


def _net_with_outputs(values):
    """Real 0-hidden-layer net emitting fixed Q-values for input 0."""
    net = init_network(MlpSpec(1, (), 3), seed=0)
    net.weights[0][:] = 0.0
    net.biases[0][:] = np.asarray(values)
    return net


def _q_row(values):
    """Q-values at the one s2 of ``_batch``, shape (1, n_actions)."""
    return np.array([values], dtype=float)


def test_terminal_transition_has_no_bootstrap():
    online = _q_row([1.0, 3.0, 2.0])
    target = _q_row([0.5, 0.2, 0.9])
    y = ddqn_targets(_batch(-2995.8, True), online, target, gamma=0.9)
    assert y[0] == -2995.8


def test_decoupled_selection_and_evaluation():
    online = _q_row([1.0, 3.0, 2.0])
    target = _q_row([0.5, 0.2, 0.9])
    y = ddqn_targets(_batch(2.0, False), online, target, gamma=0.9)
    # online argmax is action 1; target scores it 0.2
    assert y[0] == pytest.approx(2.0 + 0.9 * 0.2, abs=1e-12)
    # the coupled rule would have bootstrapped from max(target) = 0.9
    coupled = 2.0 + 0.9 * 0.9
    assert y[0] != pytest.approx(coupled, abs=1e-3)
    assert coupled == pytest.approx(2.81, abs=1e-12)


def test_identical_nets_collapse_to_coupled_rule():
    q = _q_row([1.0, 3.0, 2.0])
    y = ddqn_targets(_batch(2.0, False), q, q, gamma=0.9)
    assert y[0] == pytest.approx(2.0 + 0.9 * 3.0, abs=1e-12)


# ---------------------------------------------------------------- environment


def _equilibrium_spec(n=20, **kw):
    from ringflow import IdmParams

    p = IdmParams()
    gap = 1000.0 / n - p.vehicle_length
    v_eq = equilibrium_speed(gap, p)
    cavs = [i % 3 == 0 for i in range(n)]
    ring = make_ring([i * 1000.0 / n for i in range(n)], [v_eq] * n,
                     cavs=cavs, params=p)
    kw.setdefault("success_flow_threshold", 1e9)
    return EnvSpec(snapshot=ring, **kw), v_eq


@pytest.mark.parametrize("field, value", [
    ("success_flow_threshold", float("nan")),
    ("success_flow_threshold", float("inf")),
    ("success_flow_threshold", 0.0),
    ("success_flow_threshold", True),
    ("max_episode_steps", 0),
])
def test_env_spec_rejects_out_of_range_fields(field, value):
    with pytest.raises(ValueError, match=field):
        _equilibrium_spec(**{field: value})


def test_state_is_normalized_mean_speed():
    spec, v_eq = _equilibrium_spec()
    env = RingEnv(spec)
    s = env.reset()
    assert s == pytest.approx(v_eq / 30.0)
    ring0 = make_ring([0.0, 500.0], [0.0, 0.0])
    env0 = RingEnv(EnvSpec(snapshot=ring0, success_flow_threshold=1e9))
    assert env0.reset() == 0.0
    ring1 = make_ring([0.0, 500.0], [30.0, 30.0])
    env1 = RingEnv(EnvSpec(snapshot=ring1, success_flow_threshold=1e9))
    assert env1.reset() == 1.0


def test_per_step_reward_is_mean_speed():
    spec, v_eq = _equilibrium_spec()
    env = RingEnv(spec)
    env.reset()
    _, r, done, info = env.step(1)  # hold speed at equilibrium
    assert not done
    assert r == pytest.approx(info["mean_speed"])
    assert r == pytest.approx(v_eq, abs=1e-6)


def test_collision_penalty_and_termination():
    ring = make_ring([0.0, 6.0], [30.0, 0.0], cavs=[True, False])
    env = RingEnv(EnvSpec(snapshot=ring, success_flow_threshold=1e9))
    env.reset()
    _, r, done, info = env.step(1)  # coast into the standing leader
    assert done and info["collision"]
    assert r == pytest.approx(info["mean_speed"] - 3000.0)
    with pytest.raises(EnvTerminatedError):
        env.step(1)


def test_success_bonus_and_termination():
    spec, v_eq = _equilibrium_spec()
    k = spec.snapshot.n  # veh/km on the 1 km loop
    low = EnvSpec(snapshot=spec.snapshot,
                  success_flow_threshold=k * v_eq * 3.6 - 1.0)
    env = RingEnv(low)
    env.reset()
    _, r, done, info = env.step(1)
    assert done and info["success"]
    assert r == pytest.approx(info["mean_speed"] + 1000.0)
    with pytest.raises(EnvTerminatedError):  # the bonus is paid once
        env.step(1)


def test_truncation_at_episode_cap():
    spec, _ = _equilibrium_spec(max_episode_steps=5)
    env = RingEnv(spec)
    env.reset()
    for i in range(5):
        _, _, done, info = env.step(1)
    assert done and info["truncated"] and not info["collision"]


def test_truncation_counts_steps_from_the_snapshot_clock():
    spec, _ = _equilibrium_spec(max_episode_steps=5)
    spec.snapshot.step_count = 120_000  # a snapshot taken mid-experiment
    env = RingEnv(spec)
    for _ in range(2):  # the second episode restarts the count
        env.reset()
        for _ in range(4):
            _, _, done, info = env.step(1)
            assert not done and not info["truncated"]
        _, _, done, info = env.step(1)
        assert done and info["truncated"]
        assert env.ring.step_count == 120_005


def test_scripted_episode_reward_accounting():
    spec, _ = _equilibrium_spec(max_episode_steps=50)
    env = RingEnv(spec)
    env.reset()
    total, speeds = 0.0, []
    done = False
    rng = np.random.default_rng(3)
    while not done:
        _, r, done, info = env.step(int(rng.integers(0, 3)))
        total += r
        speeds.append(info["mean_speed"])
    expected = sum(speeds)
    if info["collision"]:
        expected -= 3000.0
    assert total == pytest.approx(expected, abs=1e-9)


def test_step_state_is_the_observation_through_a_collision():
    ring = make_ring([0.0, 40.0, 80.0], [12.0, 10.0, 0.0],
                     cavs=[True, True, False])
    env = RingEnv(EnvSpec(snapshot=ring, success_flow_threshold=1e9))
    env.reset()
    done = False
    while not done:
        s, _, done, info = env.step(2)  # accelerate into the standing car
        assert s.hex() == observation(env.ring).hex()
    assert info["collision"]


def test_broadcast_reaches_every_commanded_vehicle():
    spec, v_eq = _equilibrium_spec()
    env = RingEnv(spec)
    env.reset()
    env.step(0)  # decelerate
    r = env.ring
    assert r.cav_count > 0
    np.testing.assert_array_equal(r._a[r._cav], ACTION_ACCELS[0])


@pytest.mark.parametrize("action", [-1, 3, 1.0, "0", None, np.float64(2.0)])
def test_step_rejects_an_action_outside_the_action_range(action):
    # a 3-CAV ring: a negative index would wrap to the last action and
    # broadcast +1 m/s^2 to every CAV
    ring = make_ring([0.0, 300.0, 600.0], [10.0] * 3, cavs=[True] * 3)
    env = RingEnv(EnvSpec(snapshot=ring, success_flow_threshold=1e9))
    env.reset()
    with pytest.raises(ValueError, match=r"is not an integer in \[0, 3\)"):
        env.step(action)
    assert env.ring.step_count == 0
    env.step(np.int64(2))  # numpy integers index as ints do
    np.testing.assert_array_equal(env.ring._a, ACTION_ACCELS[2])


def _constant_policy(action):
    """A network whose greedy action is always ``action``."""
    net = init_network(MlpSpec(1, (), 3), seed=0)
    net.weights[0][:] = 0.0
    net.biases[0][:] = np.eye(3)[action]
    return net


def test_evaluate_returns_the_collision_that_ended_the_rollout():
    # a CAV accelerating into a standing car 34 m ahead
    ring = make_ring([0.0, 40.0], [5.0, 0.0], cavs=[True, False],
                     length=250.0)
    spec = EnvSpec(snapshot=ring, success_flow_threshold=1e9)
    trace, report = evaluate(_constant_policy(2), spec, 2000)
    assert report is not None
    assert 0 < len(trace) < 2000
    assert report.step == trace.steps[-1]
    assert (report.follower_id, report.leader_id) == (0, 1)


def test_evaluate_reports_nothing_when_the_rollout_runs_its_course():
    spec, _ = _equilibrium_spec()
    trace, report = evaluate(_constant_policy(1), spec, 300)
    assert report is None
    assert len(trace) == 300


def test_evaluate_observer_sees_the_rings_the_trace_records():
    spec, _ = _equilibrium_spec()
    seen = []
    trace, _ = evaluate(_constant_policy(0), spec, 50, seen.append)
    alone, _ = evaluate(_constant_policy(0), spec, 50)
    assert [r.step_count for r in seen] == trace.steps.tolist()
    assert [measure(r)[1] for r in seen] == trace.flow.tolist()
    assert trace.flow.tobytes() == alone.flow.tobytes()


# ---------------------------------------------------------------- training


class ToyMdp:
    """Two-state deterministic chain with known optimal action values.

    State 0: action 1 pays 1 and stays, others pay 0 and move to state 1.
    State 1: action 0 pays 2 and moves to state 0; others pay 0 and stay.
    Episodes are 20 steps, truncated (never terminal).
    """

    n_actions = 3
    state_dim = 1

    def __init__(self):
        self._s = 0
        self._t = 0

    def reset(self):
        self._s = 0
        self._t = 0
        return float(self._s)

    def step(self, a):
        s = self._s
        if s == 0:
            r, s2 = (1.0, 0) if a == 1 else (0.0, 1)
        else:
            r, s2 = (2.0, 0) if a == 0 else (0.0, 1)
        self._s = s2
        self._t += 1
        done = self._t >= 20
        return float(s2), r, done, {"truncated": done}


def value_iteration_toy(gamma=0.9):
    def model(s, a):
        if s == 0 and a == 1:
            return 1.0, 0
        if s == 1 and a == 0:
            return 2.0, 0
        return 0.0, 1

    q = np.zeros((2, 3))
    for _ in range(2000):
        new = np.zeros_like(q)
        for s in range(2):
            for a in range(3):
                r, s2 = model(s, a)
                new[s, a] = r + gamma * q[s2].max()
        q = new
    return q


class _PairObservationEnv:
    """An env whose observation is a pair; ``train`` must refuse it before
    ``reset``."""

    n_actions = 3
    state_dim = 2

    def reset(self):
        raise AssertionError("reset called")


@pytest.mark.parametrize("epsilon", [0.0, 1.0])
def test_train_rejects_a_non_scalar_observation_before_reset(epsilon):
    cfg = DdqnConfig(episodes=1, total_train_steps=5,
                     epsilon=EpsilonSchedule(epsilon, epsilon, decay_steps=5),
                     lr=LrSchedule(total_steps=5), seed=0)
    with pytest.raises(ValueError, match="state_dim 1, not 2"):
        train(_PairObservationEnv(), cfg, spec=MlpSpec(2, (4,), 3))


def test_zero_episodes_returns_untouched_network():
    env = ToyMdp()
    cfg = DdqnConfig(episodes=0, total_train_steps=10,
                     epsilon=EpsilonSchedule(decay_steps=10),
                     lr=LrSchedule(total_steps=10), seed=0)
    spec = MlpSpec(1, (8,), 3)
    result = train(env, cfg, spec=spec)
    fresh = init_network(spec, seed=np.random.SeedSequence(0).spawn(3)[0])
    for w, w2 in zip(result.network.weights, fresh.weights):
        np.testing.assert_array_equal(w, w2)
    assert result.episodes == []


def test_training_is_seed_deterministic():
    cfg = DdqnConfig(
        episodes=20, total_train_steps=400, target_sync_period=50,
        min_buffer_before_learning=32, replay_capacity=1000,
        epsilon=EpsilonSchedule(decay_steps=300),
        lr=LrSchedule(total_steps=400), seed=7,
    )
    a = train(ToyMdp(), cfg, spec=MlpSpec(1, (8,), 3))
    b = train(ToyMdp(), cfg, spec=MlpSpec(1, (8,), 3))
    for wa, wb in zip(a.network.weights, b.network.weights):
        np.testing.assert_array_equal(wa, wb)
    assert [e.cumulative_reward for e in a.episodes] == [
        e.cumulative_reward for e in b.episodes
    ]


class _EndingEnv:
    """Episodes of 3 steps, each ending as the next of ``endings`` says
    (a success, a collision or a timeout), flagged on its last step only,
    as ``RingEnv.step`` flags them."""

    n_actions = 3
    state_dim = 1

    def __init__(self, endings):
        self._endings = iter(endings)

    def reset(self):
        self._ending, self._t = next(self._endings), 0
        return 0.0

    def step(self, a):
        self._t += 1
        done = self._t == 3
        info = {key: done and key == self._ending
                for key in ("success", "collision", "truncated")}
        return 0.0, 1.0, done, info


def test_train_records_how_each_episode_ended():
    config = DdqnConfig(episodes=10, total_train_steps=11,
                        min_buffer_before_learning=100, replay_capacity=100,
                        epsilon=EpsilonSchedule(decay_steps=11),
                        lr=LrSchedule(total_steps=11), seed=0)
    env = _EndingEnv(["success", "collision", "truncated", "success"])
    result = train(env, config, spec=MlpSpec(1, (4,), 3))
    # total_train_steps cuts the fourth episode two steps in, before its
    # success
    assert [(e.steps, e.cumulative_reward, e.collided, e.succeeded)
            for e in result.episodes] == [
        (3, 3.0, False, True), (3, 3.0, True, False), (3, 3.0, False, False),
        (2, 2.0, False, False)]
    assert result.total_steps == 11


class _ToyMdpWithExit(ToyMdp):
    """ToyMdp in which action 2 in state 1 ends the episode: a terminal
    transition, stored done."""

    def step(self, a):
        if self._s == 1 and a == 2:
            self._t += 1
            return 1.0, -1.0, True, {"truncated": False}
        return super().step(a)


def _reference_train(env, config, spec):
    """``train`` as it was before the single learner pass: Q(s) on every
    step with the epsilon-greedy draw written out, five replay arrays
    gathered one by one, and the targets' online pass separate from the one
    of ``loss_and_gradients``."""
    init_seed, act_seed, sample_seed = np.random.SeedSequence(
        config.seed).spawn(3)
    online = init_network(spec, seed=init_seed)
    target = online.copy()
    adam = AdamState.for_network(online)
    act_rng = np.random.default_rng(act_seed)
    sample_rng = np.random.default_rng(sample_seed)
    cap = config.replay_capacity
    cols = (np.empty(cap), np.empty(cap, dtype=np.int64), np.empty(cap),
            np.empty(cap), np.empty(cap, dtype=bool))
    cursor = size = 0
    records, step = [], 0
    for ep in range(config.episodes):
        if step >= config.total_train_steps:
            break
        s, done, total, steps = env.reset(), False, 0.0, 0
        while not done and step < config.total_train_steps:
            q = forward(online, np.array([s]))
            eps = epsilon_at(config.epsilon, step)
            if eps > 0.0 and act_rng.random() < eps:
                a = int(act_rng.integers(env.n_actions))
            else:
                a = int(np.argmax(q))
            s2, r, done, info = env.step(a)
            for col, value in zip(cols, (s, a, r, s2,
                                         done and not info["truncated"])):
                col[cursor] = value
            cursor, size = (cursor + 1) % cap, min(size + 1, cap)
            total += r
            steps += 1
            s = s2
            if size >= max(config.min_buffer_before_learning,
                           config.batch_size):
                idx = sample_rng.integers(0, size, size=config.batch_size)
                batch = tuple(col[idx] for col in cols)
                s2 = batch[3].reshape(-1, 1)
                y = ddqn_targets(batch, forward_batch(online, s2),
                                 forward_batch(target, s2), config.gamma)
                loss, grads = loss_and_gradients(
                    online, batch[0].reshape(-1, 1), batch[1], y)
                assert np.isfinite(loss)
                adam_step(online, grads, adam, lr_at(config.lr, step))
            step += 1
            if step % config.target_sync_period == 0:
                target.copy_from(online)
        records.append((ep, steps, total.hex()))
    return online, adam, records


def test_train_equals_the_separate_pass_loop_bit_for_bit():
    config = DdqnConfig(
        episodes=100, total_train_steps=400, target_sync_period=50,
        min_buffer_before_learning=40, replay_capacity=300,
        epsilon=EpsilonSchedule(0.9, 0.2, decay_steps=300),
        lr=LrSchedule(base=0.01, total_steps=400), seed=3,
    )
    spec = MlpSpec(1, (16, 16), 3)
    result = train(_ToyMdpWithExit(), config, spec=spec)
    online, adam, records = _reference_train(_ToyMdpWithExit(), config, spec)
    assert result.network.params.tobytes() == online.params.tobytes()
    assert result.adam.m.tobytes() == adam.m.tobytes()
    assert result.adam.v.tobytes() == adam.v.tobytes()
    assert result.adam.t == adam.t == 400 - 40 + 1
    assert [(i, e.steps, e.cumulative_reward.hex())
            for i, e in enumerate(result.episodes)] == records
    # episodes end both in the terminal transition and by truncation
    assert {steps == 20 for _, steps, _ in records} == {True, False}


@settings(max_examples=60, deadline=None)
@given(hidden=st.lists(st.integers(1, 40), max_size=3),
       n_actions=st.integers(1, 4),
       blocks=st.integers(1, 16),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_pass_equals_the_separate_passes(hidden, n_actions, blocks,
                                                 seed):
    """The batch size is a multiple of 4, as the training profiles' 32 is:
    OpenBLAS computes a matrix's rows in blocks of 4 here (Haswell dgemm),
    so with other sizes a row of the batch can come out of an edge kernel
    in one pass and a full block in the other, and differ in the last bit.
    """
    batch_size = 4 * blocks
    spec = MlpSpec(1, tuple(hidden), n_actions)
    online = init_network(spec, seed=seed)
    target = init_network(spec, seed=seed + 1)
    rng = np.random.default_rng(seed)
    batch = (rng.uniform(0.0, 1.0, batch_size),
             rng.integers(0, n_actions, batch_size),
             rng.normal(0.0, 100.0, batch_size),
             rng.uniform(0.0, 1.0, batch_size),
             rng.random(batch_size) < 0.2)
    s, a, _, s2, _ = batch

    q2_target = forward_batch(target, s2[:, None])
    y = ddqn_targets(batch, forward_batch(online, s2[:, None]), q2_target,
                     0.9)
    loss, grads = loss_and_gradients(online, s.reshape(-1, 1), a, y)

    seen = []

    def targets(q2):
        seen.append(q2.copy())
        return ddqn_targets(batch, q2, q2_target, 0.9)

    loss2, grads2 = loss_and_gradients(
        online, np.concatenate((s, s2)).reshape(-1, 1), a, targets)
    (q2,) = seen
    np.testing.assert_array_equal(q2, forward_batch(online, s2[:, None]))
    assert targets(q2).tobytes() == y.tobytes()
    assert loss2.hex() == loss.hex()
    assert grads2.tobytes() == grads.tobytes()
