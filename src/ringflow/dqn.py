"""Double-DQN training over the ring environment.

One model observes the normalized loop-average speed and broadcasts a single
acceleration command executed by every CAV (centralized training, centralized
execution).  Rewards: mean speed per step, a one-shot collision penalty that
ends the episode, and a one-shot success bonus when the instantaneous flow
first beats the loading-phase peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import metrics, net as qnet, ring as ringmod

ACTION_ACCELS = (-1.0, 0.0, 1.0)


@dataclass(frozen=True)
class Transition:
    s: float
    a: int
    r: float
    s2: float
    done: bool


class ReplayBuffer:
    """Bounded FIFO store of transitions with uniform sampling."""

    def __init__(self, capacity=100_000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._s = np.empty(capacity)
        self._a = np.empty(capacity, dtype=np.int64)
        self._r = np.empty(capacity)
        self._s2 = np.empty(capacity)
        self._done = np.empty(capacity, dtype=bool)
        self._cursor = 0
        self._size = 0

    def __len__(self):
        return self._size

    def push(self, tr):
        i = self._cursor
        self._s[i] = tr.s
        self._a[i] = tr.a
        self._r[i] = tr.r
        self._s2[i] = tr.s2
        self._done[i] = tr.done
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch, rng):
        """Uniform sample with replacement; arrays (s, a, r, s2, done)."""
        if self._size < batch:
            raise ValueError(f"buffer holds {self._size} < batch {batch}")
        idx = rng.integers(0, self._size, size=batch)
        return (
            self._s[idx].copy(),
            self._a[idx].copy(),
            self._r[idx].copy(),
            self._s2[idx].copy(),
            self._done[idx].copy(),
        )


@dataclass(frozen=True)
class EpsilonSchedule:
    start: float = 1.0
    end: float = 0.05
    decay_steps: int = 100_000


def epsilon_at(schedule, step):
    """Linear decay start -> end, flat at end past decay_steps."""
    if step < 0:
        raise ValueError("step must be >= 0")
    if step >= schedule.decay_steps:
        return schedule.end
    frac = step / schedule.decay_steps
    return schedule.start + (schedule.end - schedule.start) * frac


def select_action(q_values, epsilon, rng):
    """Epsilon-greedy; greedy ties break to the lowest index."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(len(q_values)))
    return int(np.argmax(q_values))


@dataclass(frozen=True)
class RewardConfig:
    collision_penalty: float = -3000.0
    success_bonus: float = 1000.0
    success_terminates: bool = True


@dataclass
class EnvSpec:
    """Frozen starting point and reward context for training episodes."""

    snapshot: ringmod.RingState
    success_flow_threshold: float
    max_episode_steps: int = 3000
    speed_normalizer: float = 30.0
    reward: RewardConfig = field(default_factory=RewardConfig)
    speed_jitter: float = 0.0  # relative, e.g. 0.05 for +-5%

    def __post_init__(self):
        if self.success_flow_threshold <= 0:
            raise ValueError("success_flow_threshold must be > 0")


class EnvTerminatedError(RuntimeError):
    pass


class RingEnv:
    """step/reset adapter exposing the ring as a 1-state, 3-action MDP."""

    n_actions = len(ACTION_ACCELS)
    state_dim = 1

    def __init__(self, spec, rng=None):
        self.spec = spec
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.ring = None
        self._done = True
        self._steps = 0
        self._succeeded = False

    def _state(self):
        return self.ring.mean_speed() / self.spec.speed_normalizer

    def reset(self):
        self.ring = self.spec.snapshot.copy()
        if self.spec.speed_jitter > 0.0 and self.ring.n:
            j = self.spec.speed_jitter
            factors = 1.0 + self._rng.uniform(-j, j, self.ring.n)
            self.ring._v = np.clip(
                self.ring._v * factors, 0.0, self.ring.params.v0
            )
        self._done = False
        self._steps = 0
        self._succeeded = False
        return self._state()

    def step(self, action_index):
        """Broadcast the commanded acceleration to all CAVs for one time step.

        Returns ``(state, reward, done, info)``; info carries flow and the
        collision/success/truncated flags.
        """
        if self._done:
            raise EnvTerminatedError("step() called on a terminated episode")
        accel = ACTION_ACCELS[action_index]
        self.ring, report = ringmod.step(self.ring, cav_accel=accel)
        self._steps += 1

        sample = metrics.measure(self.ring)
        reward = sample.mean_speed
        rc = self.spec.reward
        collided = report is not None
        success = False
        truncated = False
        if collided:
            reward += rc.collision_penalty
            self._done = True
        elif (
            not self._succeeded
            and sample.flow > self.spec.success_flow_threshold
        ):
            success = True
            self._succeeded = True
            reward += rc.success_bonus
            if rc.success_terminates:
                self._done = True
        if not self._done and self._steps >= self.spec.max_episode_steps:
            self._done = True
            truncated = True
        info = {
            "flow": sample.flow,
            "mean_speed": sample.mean_speed,
            "collision": collided,
            "success": success,
            "truncated": truncated,
        }
        return self._state(), reward, self._done, info


def ddqn_targets(batch, online, target, gamma):
    """Double-DQN bootstrap: online net picks the action, target net scores it."""
    s, a, r, s2, done = batch
    del a
    s2 = np.asarray(s2, dtype=np.float64).reshape(len(r), -1)
    q_online = qnet.forward_batch(online, s2)
    q_target = qnet.forward_batch(target, s2)
    best = np.argmax(q_online, axis=1)
    boot = q_target[np.arange(len(r)), best]
    return np.asarray(r) + gamma * boot * (~np.asarray(done, dtype=bool))


@dataclass
class DdqnConfig:
    gamma: float = 0.90
    batch_size: int = 32
    episodes: int = 5000
    total_train_steps: int = 1_000_000
    target_sync_period: int = 1000
    min_buffer_before_learning: int = 1000
    replay_capacity: int = 100_000
    epsilon: EpsilonSchedule = field(default_factory=EpsilonSchedule)
    lr: qnet.LrSchedule = field(default_factory=qnet.LrSchedule)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if self.batch_size > self.replay_capacity:
            raise ValueError("batch_size exceeds replay capacity")


@dataclass
class EpisodeRecord:
    episode: int
    steps: int
    cumulative_reward: float
    collided: bool
    succeeded: bool


@dataclass
class TrainResult:
    network: qnet.QNetwork
    adam: qnet.AdamState
    episodes: list
    total_steps: int

    def episode_rewards(self):
        return np.array([e.cumulative_reward for e in self.episodes])

    def write_reward_trace(self, path):
        with open(path, "w") as f:
            f.write("episode,steps,cumulative_reward,collided,succeeded\n")
            for e in self.episodes:
                f.write(
                    f"{e.episode},{e.steps},{e.cumulative_reward:.9g},"
                    f"{int(e.collided)},{int(e.succeeded)}\n"
                )


def train(env, config, spec=None):
    """Run the DDQN loop; fully deterministic for a given config seed.

    ``env`` is anything with reset()/step()/n_actions/state_dim.  Timeout
    (truncated) transitions are stored non-terminal so the bootstrap target
    is unbiased.  Returns a TrainResult.
    """
    if spec is None:
        spec = qnet.MlpSpec(
            input_dim=env.state_dim, output_dim=env.n_actions
        )
    if spec.output_dim != env.n_actions or spec.input_dim != env.state_dim:
        raise ValueError("network spec does not match environment dimensions")

    seed_seq = np.random.SeedSequence(config.seed)
    init_seed, act_seed, sample_seed = seed_seq.spawn(3)
    online = qnet.init_network(spec, seed=init_seed)
    target = online.copy()
    adam = qnet.AdamState.for_network(online)
    act_rng = np.random.default_rng(act_seed)
    sample_rng = np.random.default_rng(sample_seed)
    buffer = ReplayBuffer(config.replay_capacity)

    records = []
    global_step = 0
    for ep in range(config.episodes):
        if global_step >= config.total_train_steps:
            break
        s = env.reset()
        done = False
        total = 0.0
        steps = 0
        collided = False
        succeeded = False
        while not done and global_step < config.total_train_steps:
            eps = epsilon_at(config.epsilon, global_step)
            q = qnet.forward(online, np.array([s]))
            a = select_action(q, eps, act_rng)
            s2, r, done, info = env.step(a)
            stored_done = done and not info.get("truncated", False)
            buffer.push(Transition(s, a, r, s2, stored_done))
            total += r
            steps += 1
            collided = collided or info.get("collision", False)
            succeeded = succeeded or info.get("success", False)
            s = s2

            if len(buffer) >= max(config.min_buffer_before_learning,
                                  config.batch_size):
                batch = buffer.sample(config.batch_size, sample_rng)
                y = ddqn_targets(batch, online, target, config.gamma)
                states = batch[0].reshape(-1, 1)
                loss, grads = qnet.loss_and_gradients(online, states, batch[1], y)
                if not np.isfinite(loss):
                    raise RuntimeError(
                        f"non-finite loss at step {global_step}: {loss}"
                    )
                qnet.adam_step(online, grads, adam, qnet.lr_at(config.lr, global_step))
            global_step += 1
            if global_step % config.target_sync_period == 0:
                target.copy_from(online)
        records.append(
            EpisodeRecord(ep, steps=steps, cumulative_reward=total,
                          collided=collided, succeeded=succeeded)
        )
    return TrainResult(network=online, adam=adam, episodes=records,
                       total_steps=global_step)


def greedy_controller(policy, speed_normalizer):
    """A ``ring.rollout`` control that broadcasts the policy's greedy command
    for the normalized mean speed to every CAV (centralized execution)."""

    def control(t, ring):
        state = ring.mean_speed() / speed_normalizer
        q = qnet.forward(policy, np.array([state]))
        return ACTION_ACCELS[select_action(q, 0.0, None)], None

    return control


def evaluate(policy, env_spec, steps, record_trajectory=False):
    """Greedy rollout of a trained policy for a fixed number of steps.

    Returns ``(FdTrace, TrajectoryRecorder | None)``.  A collision ends the
    rollout early (the ring is physically terminal); success does not.
    """
    rec = metrics.TraceRecorder(metrics.Phase.CONTROLLED)
    traj = ringmod.TrajectoryRecorder() if record_trajectory else None

    def observe(ring):
        rec.record(ring)
        if traj is not None:
            traj.record(ring)

    ringmod.rollout(env_spec.snapshot, steps,
                    greedy_controller(policy, env_spec.speed_normalizer),
                    observe)
    return rec.finish(), traj
