"""Scenario assembly: loading phase, departure shock, CAV formation, and the
environment spec handed to training/evaluation."""

from __future__ import annotations

from dataclasses import dataclass

from . import metrics
from .dqn import EnvSpec
from .ring import (
    RandomRemoval,
    RingState,
    apply_formation,
    load_vehicles,
    remove_vehicles,
    rollout,
)


@dataclass
class BuiltScenario:
    loading_trace: metrics.FdTrace
    loaded_ring: RingState  # at load_target, before any departure
    post_removal_ring: RingState  # after the shock, formation applied
    env_spec: EnvSpec
    success_flow_threshold: float


def build_scenario(config):
    """Load to target density, remove per schedule, mark CAVs, capture the
    success threshold (peak loading flow) into an EnvSpec."""
    ring = RingState(
        length=config.length,
        dt=config.dt,
        params=config.idm,
        rng_seed=config.seed,
    )
    ring, loading_trace = load_vehicles(ring, config.load_target)
    loaded = ring.copy()

    for i, count in enumerate(config.removal_schedule):
        ring = remove_vehicles(
            ring, count, RandomRemoval(config.removal_seed + i)
        )
    ring = apply_formation(ring, config.cav_count, config.formation)

    threshold = metrics.peak_flow(loading_trace).flow
    env_spec = EnvSpec(
        snapshot=ring,
        success_flow_threshold=threshold,
        max_episode_steps=config.max_episode_steps,
        speed_normalizer=config.idm.v0,
        reward=config.reward,
        speed_jitter=config.speed_jitter,
    )
    return BuiltScenario(
        loading_trace=loading_trace,
        loaded_ring=loaded,
        post_removal_ring=ring.copy(),
        env_spec=env_spec,
        success_flow_threshold=threshold,
    )


def unload_incrementally(ring, removal_seed=0, steps_between=30,
                         stop_at=2, vsl=None):
    """Random single-vehicle departures until ``stop_at`` vehicles remain,
    stepping the ring between departures; returns the unloading FdTrace.

    When a speed-limit ``vsl`` policy is given, the active limit caps the
    desired speed of every driver, refreshed by the policy's rule over the
    whole unloading.
    """
    rec = metrics.TraceRecorder(metrics.Phase.UNLOADING)
    control = None if vsl is None else vsl.controller(ring.params.v0)
    k = 0
    while ring.n > stop_at:
        ring = remove_vehicles(ring, 1, RandomRemoval(removal_seed + k))
        k += 1
        ring, report = rollout(ring, steps_between, control, rec.record)
        if report is not None:
            break
    return ring, rec.finish()


def idm_plateau_speed(env_spec, horizon=3000, tail_frac=0.2):
    """Steady-state mean speed of the all-human recovery on the snapshot."""
    from .baselines import run_idm_recovery

    trace = run_idm_recovery(env_spec.snapshot, horizon)
    tail = trace.mean_speed[int(len(trace) * (1 - tail_frac)):]
    return float(tail.mean())
