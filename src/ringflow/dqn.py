"""Double-DQN training over the ring environment.

One model observes the normalized loop-average speed and broadcasts a single
acceleration command executed by every CAV (centralized training, centralized
execution).  Rewards: mean speed per step, a collision penalty and a success
bonus when the instantaneous flow first beats the loading-phase peak; each
is paid once, because each ends the episode.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import metrics, net as qnet, ring as ringmod

ACTION_ACCELS = (-1.0, 0.0, 1.0)


class ReplayBuffer:
    """Bounded FIFO store of transitions with uniform sampling.

    A transition is one float64 row ``(s, a, r, s2, done)``, so a batch is
    one gather; the action index and the done flag are exact in float64.
    """

    def __init__(self, capacity=100_000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._rows = np.empty((capacity, 5))
        self._cursor = 0
        self._size = 0

    def __len__(self):
        return self._size

    def push(self, s, a, r, s2, done):
        i = self._cursor
        self._rows[i] = (s, a, r, s2, done)
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch, rng):
        """Uniform sample with replacement; arrays (s, a, r, s2, done)."""
        if self._size < batch:
            raise ValueError(f"buffer holds {self._size} < batch {batch}")
        idx = rng.integers(0, self._size, size=batch)
        s, a, r, s2, done = self._rows.take(idx, axis=0).T
        return s, a.astype(np.int64), r, s2, done.astype(bool)


@dataclass(frozen=True)
class EpsilonSchedule:
    start: float = 1.0
    end: float = 0.05
    decay_steps: int = 100_000

    def __post_init__(self):
        if not all(not isinstance(e, bool) and 0.0 <= e <= 1.0
                   for e in (self.start, self.end)):
            raise ValueError("epsilon start and end must be in [0, 1], "
                             "not bools")
        qnet.check_count("epsilon decay_steps", self.decay_steps, 0)


def epsilon_at(schedule, step):
    """Linear decay start -> end, flat at end past decay_steps."""
    return qnet.linear_decay(schedule.start, schedule.end,
                             schedule.decay_steps, step)


def explore_action(n_actions, epsilon, rng):
    """The exploring half of epsilon-greedy: a uniformly random action with
    probability ``epsilon``, else ``None`` for a greedy step
    (``select_action``).  It draws ``rng.random()`` once when
    ``epsilon > 0``, before any Q-value is read, then ``rng.integers`` once
    when it explores; nothing else reads ``rng``."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(n_actions))
    return None


def select_action(net, state):
    """The greedy action of ``net`` at the scalar observation ``state``: the
    argmax of one single-state ``forward``, ties to the lowest index.  It
    reads no random stream, so an epsilon-greedy step draws from
    ``explore_action`` first and computes Q-values only when that returns
    ``None``."""
    return int(np.argmax(qnet.forward(net, [state])))


@dataclass(frozen=True)
class RewardConfig:
    collision_penalty: float = -3000.0
    success_bonus: float = 1000.0

    def __post_init__(self):
        if not all(not isinstance(r, bool) and math.isfinite(r)
                   for r in (self.collision_penalty, self.success_bonus)):
            raise ValueError("reward collision_penalty and success_bonus "
                             "must be finite, not bools")


@dataclass
class EnvSpec:
    """Frozen starting point and reward context for training episodes."""

    snapshot: ringmod.RingState
    success_flow_threshold: float
    max_episode_steps: int = 3000
    reward: RewardConfig = field(default_factory=RewardConfig)

    def __post_init__(self):
        threshold = self.success_flow_threshold
        if isinstance(threshold, bool) or not 0.0 < threshold < math.inf:
            raise ValueError("success_flow_threshold must be finite and > 0, "
                             "not a bool")
        qnet.check_count("max_episode_steps", self.max_episode_steps, 1)


def observation(ring):
    """The controller's one input: the loop-average speed over the desired
    speed ``v0``."""
    return ring.mean_speed() / ring.params.v0


class EnvTerminatedError(RuntimeError):
    pass


class RingEnv:
    """step/reset adapter exposing the ring as a 1-state, 3-action MDP; an
    episode starts from a copy of the snapshot and truncates on the ring's
    clock, ``max_episode_steps`` steps past the snapshot's ``step_count``."""

    n_actions = len(ACTION_ACCELS)
    state_dim = 1

    # ``rng`` is unread; perfbench passes one (ROADMAP item 12 drops both).
    def __init__(self, spec, rng=None):
        self.spec = spec
        self.ring = None
        self._done = True

    def reset(self):
        self.ring = self.spec.snapshot.copy()
        self._done = False
        return observation(self.ring)

    def step(self, action_index):
        """Broadcast the commanded acceleration to all CAVs for one time step.

        Returns ``(state, reward, done, info)``; info carries flow and the
        collision/success/truncated flags.  A collision, a success and the
        episode cap each end the episode.  An action that is not an integer
        in ``[0, n_actions)`` is a ``ValueError``, not a wrapped index.
        """
        if self._done:
            raise EnvTerminatedError("step() called on a terminated episode")
        try:
            i = operator.index(action_index)
        except TypeError:
            i = None
        if i is None or not 0 <= i < self.n_actions:
            raise ValueError(f"action {action_index!r} is not an integer in "
                             f"[0, {self.n_actions})")
        accel = ACTION_ACCELS[i]
        self.ring, report = ringmod.step(self.ring, cav_accel=accel)

        _, flow, mean_speed = metrics.measure(self.ring)
        reward = mean_speed
        rc = self.spec.reward
        collided = report is not None
        success = False
        truncated = False
        if collided:
            reward += rc.collision_penalty
            self._done = True
        elif flow > self.spec.success_flow_threshold:
            success = True
            reward += rc.success_bonus
            self._done = True
        steps = self.ring.step_count - self.spec.snapshot.step_count
        if not self._done and steps >= self.spec.max_episode_steps:
            self._done = True
            truncated = True
        info = {
            "flow": flow,
            "mean_speed": mean_speed,
            "collision": collided,
            "success": success,
            "truncated": truncated,
        }
        # observation(self.ring), from the ring.mean_speed() measure took
        return mean_speed / self.ring.params.v0, reward, self._done, info


def ddqn_targets(batch, q_online, q_target, gamma):
    """Double-DQN bootstrap from the online and target nets' Q-values at the
    batch's s2 (each of shape (B, n_actions)): the online values pick the
    action, the target values score it.  The batch's ``r`` and ``done`` are
    float64 and bool arrays, as ``ReplayBuffer.sample`` returns them."""
    _, _, r, _, done = batch
    boot = q_target[np.arange(len(r)), q_online.argmax(axis=1)]
    return r + gamma * boot * ~done


# The integer fields of DdqnConfig and the least value each may take.
_DDQN_COUNT_MINIMA = (
    ("batch_size", 1), ("episodes", 0), ("total_train_steps", 0),
    ("target_sync_period", 1), ("min_buffer_before_learning", 0),
    ("replay_capacity", 1), ("seed", 0),
)


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
        for name, least in _DDQN_COUNT_MINIMA:
            qnet.check_count(name, getattr(self, name), least)
        if self.batch_size > self.replay_capacity:
            raise ValueError("batch_size exceeds replay capacity")


@dataclass
class EpisodeRecord:
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
            for i, e in enumerate(self.episodes):
                f.write(
                    f"{i},{e.steps},{e.cumulative_reward:.9g},"
                    f"{int(e.collided)},{int(e.succeeded)}\n"
                )


def train(env, config, spec):
    """Run the DDQN loop with a Q-network of ``spec``; fully deterministic
    for a given config seed.

    ``env`` is anything with reset()/step()/n_actions and ``state_dim`` 1:
    the learner takes a scalar observation, as the replay row and
    ``select_action`` do.  Timeout (truncated) transitions are stored
    non-terminal so the bootstrap target is unbiased.  An episode's record
    takes its collision and success flags from its last step, so ``env``
    ends an episode at either.  Returns a TrainResult.

    Each step is epsilon-greedy: it draws ``act_rng.random()`` once, before
    any Q-value is read (``explore_action``), and computes Q(s) only on a
    greedy step (``select_action``).  Each learning step samples one batch,
    makes one target-net pass over s2 and one online pass over the stacked
    ``[s; s2]`` (``loss_and_gradients`` with ``ddqn_targets`` as its
    targets).
    """
    if env.state_dim != 1:
        raise ValueError(f"train needs state_dim 1, not {env.state_dim}")
    if spec.output_dim != env.n_actions or spec.input_dim != 1:
        raise ValueError("network spec does not match environment dimensions")

    seed_seq = np.random.SeedSequence(config.seed)
    init_seed, act_seed, sample_seed = seed_seq.spawn(3)
    online = qnet.init_network(spec, seed=init_seed)
    target = online.copy()
    adam = qnet.AdamState.for_network(online)
    grad_buffer = online.gradient_buffer()
    act_rng = np.random.default_rng(act_seed)
    sample_rng = np.random.default_rng(sample_seed)
    buffer = ReplayBuffer(config.replay_capacity)
    learn_from = max(config.min_buffer_before_learning, config.batch_size)

    records = []
    global_step = 0
    for _ in range(config.episodes):
        if global_step >= config.total_train_steps:
            break
        s = env.reset()
        done = False
        total = 0.0
        start = global_step
        while not done and global_step < config.total_train_steps:
            eps = epsilon_at(config.epsilon, global_step)
            a = explore_action(env.n_actions, eps, act_rng)
            if a is None:
                a = select_action(online, s)
            s2, r, done, info = env.step(a)
            stored_done = done and not info.get("truncated", False)
            buffer.push(s, a, r, s2, stored_done)
            total += r
            s = s2

            if len(buffer) >= learn_from:
                batch = buffer.sample(config.batch_size, sample_rng)
                # one online pass over [s; s2]: the s rows are trained, the
                # s2 rows pick the bootstrap action of ddqn_targets
                both = np.concatenate((batch[0], batch[3])).reshape(-1, 1)
                q2_target = qnet.forward_batch(target,
                                               both[config.batch_size:])
                loss, grads = qnet.loss_and_gradients(
                    online, both, batch[1],
                    lambda q2: ddqn_targets(batch, q2, q2_target,
                                            config.gamma),
                    out=grad_buffer)
                if not np.isfinite(loss):
                    raise RuntimeError(
                        f"non-finite loss at step {global_step}: {loss}"
                    )
                qnet.adam_step(online, grads, adam, qnet.lr_at(config.lr, global_step))
            global_step += 1
            if global_step % config.target_sync_period == 0:
                target.copy_from(online)
        records.append(
            EpisodeRecord(steps=global_step - start, cumulative_reward=total,
                          collided=info.get("collision", False),
                          succeeded=info.get("success", False))
        )
    return TrainResult(network=online, adam=adam, episodes=records,
                       total_steps=global_step)


def evaluate(policy, env_spec, steps, observe=None):
    """Greedy rollout of a trained policy for a fixed number of steps: before
    each step, the policy's greedy command for the ring's ``observation``
    goes to every CAV (centralized execution).

    Returns ``(FdTrace, CollisionReport | None)``: a collision ends the
    rollout early (the ring is physically terminal) and is reported;
    success does not end it.  ``observe(ring)`` sees every ring the trace
    records.
    """
    rec = metrics.TraceRecorder(metrics.Phase.CONTROLLED)
    if observe is None:
        record = rec.record
    else:
        def record(ring):
            rec.record(ring)
            observe(ring)

    def control(t, ring):
        return ACTION_ACCELS[select_action(policy, observation(ring))], None

    _, report = ringmod.rollout(env_spec.snapshot, steps, control, record)
    return rec.finish(), report
