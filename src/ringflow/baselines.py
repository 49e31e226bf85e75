"""Comparison controllers: IDM-only recovery, tiered speed-limit control,
and the CAV-to-human switch-back experiment."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import dqn, metrics, net as qnet, ring as ringmod

PEAK_WINDOW = 100
PEAK_FRACTION = 0.99
SEARCH_STEPS = 2000


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
        qnet.check_count("period_steps", self.period_steps, 1)
        thresholds = [r.min_mean_speed for r in self.rules]
        if not all(not isinstance(t, bool) and math.isfinite(t)
                   for t in thresholds):
            raise ValueError("rule thresholds must be finite, not bools")
        if sorted(thresholds, reverse=True) != thresholds or len(
            set(thresholds)
        ) != len(thresholds):
            raise ValueError("rule thresholds must be strictly decreasing")
        if not all(not isinstance(r.limit, bool) and 0 < r.limit < math.inf
                   for r in self.rules):
            raise ValueError("speed limits must be finite and positive, "
                             "not bools")

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


def run_vsl(snapshot, policy, steps):
    """All-human run with the active speed limit capping IDM desired speed.

    Returns ``(FdTrace, CollisionReport | None)``: the trace and the report
    of the collision that ended the run early, if one did.
    """
    ring = ringmod.revert_to_human(snapshot)
    rec = metrics.TraceRecorder(metrics.Phase.UNLOADING)
    _, report = ringmod.rollout(ring, steps, policy.controller(ring.params.v0),
                                rec.record)
    return rec.finish(), report


def _smoothed(x, window):
    if len(x) < window:
        return np.asarray(x, dtype=float)
    kernel = np.ones(window) / window
    return np.convolve(x, kernel, mode="valid")


def find_flow_peak_step(flows):
    """First step whose smoothed flow reaches ``PEAK_FRACTION`` of the
    rollout's smoothed maximum (``PEAK_WINDOW``-averaged to ignore
    single-step spikes)."""
    sm = _smoothed(np.asarray(flows, dtype=float), PEAK_WINDOW)
    target = PEAK_FRACTION * sm.max()
    i = int(np.argmax(sm >= target))
    return i + (PEAK_WINDOW - 1 if len(flows) >= PEAK_WINDOW else 0)


@dataclass
class SwitchBackResult:
    peak_step: int  # index of ``snapshot`` in the search rollout's states
    snapshot: ringmod.RingState
    cav_trace: metrics.FdTrace
    reverted_trace: metrics.FdTrace
    cav_report: ringmod.CollisionReport | None  # ended the CAV branch


def run_switch_back(policy, env_spec, extra_steps=200):
    """Roll the CAV policy ``SEARCH_STEPS`` steps to its flow peak, then
    compare keeping CAV control (``dqn.evaluate`` from the peak) against
    reverting everyone to human driving for ``extra_steps``.

    Both continuation branches start from the same bit-identical snapshot.
    ``cav_report`` is the collision that ended the CAV branch, if one did.
    A collision ends the search rollout in a state that cannot be stepped;
    when the peak falls on it, the branches start from the state before
    (the start state, ``peak_step`` -1, if the first step collides).
    ``extra_steps`` below 1 is a ``ValueError``, raised before the search.
    """
    qnet.check_count("extra_steps", extra_steps, 1)
    rings = []  # ``rollout`` lets an observer keep every ring it sees
    search, _ = dqn.evaluate(policy, env_spec, SEARCH_STEPS, rings.append)
    peak_step = find_flow_peak_step(search.flow)
    if rings[peak_step].terminal:
        peak_step -= 1
    snap = rings[peak_step] if peak_step >= 0 else env_spec.snapshot

    cav_trace, cav_report = dqn.evaluate(
        policy, replace(env_spec, snapshot=snap), extra_steps)
    reverted_trace = run_idm_recovery(snap, extra_steps,
                                      phase=metrics.Phase.CONTROLLED)
    return SwitchBackResult(peak_step=peak_step, snapshot=snap,
                            cav_trace=cav_trace, reverted_trace=reverted_trace,
                            cav_report=cav_report)
