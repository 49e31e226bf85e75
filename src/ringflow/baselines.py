"""Comparison controllers: IDM-only recovery, tiered speed-limit control,
and the CAV-to-human switch-back experiment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dqn, metrics, ring as ringmod


@dataclass(frozen=True)
class VslRule:
    min_mean_speed: float  # rule applies when loop mean speed >= this (m/s)
    limit: float  # speed limit (m/s)


@dataclass(frozen=True)
class VslPolicy:
    """Tiered speed-limit rules keyed to loop mean speed.

    Rules are checked highest threshold first; the first matching rule's limit
    applies until the next evaluation.  An empty rule list never restricts.

    Refresh rule: the limit is evaluated from the loop mean speed before the
    first step of an experiment and then before every ``period_steps``-th
    step, counting every step of the experiment, across vehicle removals
    too.  ``controller`` implements it.
    """

    rules: tuple = ()
    period_steps: int = 600  # 60 simulated seconds at dt = 0.1

    def __post_init__(self):
        if self.period_steps < 1:
            raise ValueError("period_steps must be >= 1")
        thresholds = [r.min_mean_speed for r in self.rules]
        if sorted(thresholds, reverse=True) != thresholds or len(
            set(thresholds)
        ) != len(thresholds):
            raise ValueError("rule thresholds must be strictly decreasing")
        if any(r.limit <= 0 for r in self.rules):
            raise ValueError("speed limits must be positive")

    def active_limit(self, mean_speed, v0):
        for rule in self.rules:
            if mean_speed >= rule.min_mean_speed:
                return min(rule.limit, v0)
        if self.rules:
            return min(self.rules[-1].limit, v0)
        return v0

    def controller(self, v0):
        """A ``ring.rollout`` control for one experiment: no CAV command, and
        the active limit caps every driver's desired speed.

        It counts the steps it has controlled, so one controller serves
        every rollout of an experiment and the refresh period runs on
        across them.
        """
        limit = v0
        steps = 0

        def control(t, ring):
            nonlocal limit, steps
            if steps % self.period_steps == 0:
                limit = self.active_limit(ring.mean_speed(), v0)
            steps += 1
            return 0.0, limit

        return control


def default_vsl_policy():
    """Three-tier slowdown: 30 at >=15 m/s, 20 at >=8, 13 below."""
    return VslPolicy(
        rules=(
            VslRule(min_mean_speed=15.0, limit=30.0),
            VslRule(min_mean_speed=8.0, limit=20.0),
            VslRule(min_mean_speed=0.0, limit=13.0),
        )
    )


def run_idm_recovery(snapshot, steps, phase=metrics.Phase.UNLOADING):
    """Simulate the post-shock ring with every vehicle human-driven."""
    rec = metrics.TraceRecorder(phase)
    ringmod.rollout(ringmod.revert_to_human(snapshot), steps,
                    observe=rec.record)
    return rec.finish()


def run_vsl(snapshot, policy, steps, phase=metrics.Phase.UNLOADING):
    """All-human run with the active speed limit capping IDM desired speed.

    Returns ``(FdTrace, per-step active limit array)``.
    """
    ring = ringmod.revert_to_human(snapshot)
    rec = metrics.TraceRecorder(phase)
    control = policy.controller(ring.params.v0)
    limits = []

    def limited(t, r):
        cav_accel, limit = control(t, r)
        limits.append(limit)
        return cav_accel, limit

    ringmod.rollout(ring, steps, limited, rec.record)
    return rec.finish(), np.array(limits, dtype=np.float64)


def _smoothed(x, window):
    if len(x) < window:
        return np.asarray(x, dtype=float)
    kernel = np.ones(window) / window
    return np.convolve(x, kernel, mode="valid")


def find_flow_peak_step(flows, window=100, fraction=0.99):
    """First step whose smoothed flow reaches ``fraction`` of the rollout's
    smoothed maximum (window-averaged to ignore single-step spikes)."""
    sm = _smoothed(np.asarray(flows, dtype=float), window)
    if len(sm) == 0:
        return 0
    target = fraction * sm.max()
    i = int(np.argmax(sm >= target))
    return i + (window - 1 if len(flows) >= window else 0)


@dataclass
class SwitchBackResult:
    peak_step: int
    snapshot: ringmod.RingState
    cav_trace: metrics.FdTrace
    reverted_trace: metrics.FdTrace


def run_switch_back(policy, env_spec, extra_steps=200, search_steps=2000,
                    peak_window=100):
    """Roll the CAV policy to its flow peak, then compare keeping CAV control
    against reverting everyone to human driving for ``extra_steps``.

    Both continuation branches start from the same bit-identical snapshot.
    """
    if search_steps < 1:
        raise ValueError("search_steps must be >= 1")
    greedy = dqn.greedy_controller(policy, env_spec.speed_normalizer)
    # every state of the search rollout is a fresh ring, so keeping them all
    # lets the snapshot be taken at the peak without rolling out again
    rings = []
    ringmod.rollout(env_spec.snapshot, search_steps, greedy, rings.append)
    flows = [metrics.measure(r).flow for r in rings]
    peak_step = find_flow_peak_step(flows, window=peak_window)
    snap = rings[peak_step]

    if extra_steps == 0:
        sample = metrics.measure(snap)
        single = metrics.FdTrace(
            phase=metrics.Phase.CONTROLLED,
            steps=np.array([sample.step], dtype=np.int64),
            density=np.array([sample.density]),
            flow=np.array([sample.flow]),
            mean_speed=np.array([sample.mean_speed]),
        )
        cav_trace = reverted_trace = single
    else:
        cav_rec = metrics.TraceRecorder(metrics.Phase.CONTROLLED)
        ringmod.rollout(snap, extra_steps, greedy, cav_rec.record)
        cav_trace = cav_rec.finish()
        reverted_trace = run_idm_recovery(
            snap, extra_steps, phase=metrics.Phase.CONTROLLED
        )
    return SwitchBackResult(
        peak_step=peak_step,
        snapshot=snap,
        cav_trace=cav_trace,
        reverted_trace=reverted_trace,
    )
