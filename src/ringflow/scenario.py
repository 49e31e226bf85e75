"""Scenario assembly: loading phase, departure shock, CAV formation, and the
environment spec handed to training/evaluation."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from . import baselines, metrics
from .dqn import EnvSpec
from .ring import (
    RingState,
    apply_formation,
    load_vehicles,
    remove_vehicles,
    rollout,
)

PLATEAU_STEPS = 3000
PLATEAU_TAIL = 0.2
UNLOAD_STEPS_BETWEEN = 30  # steps after each departure of the unloading
UNLOAD_STOP_AT = 2  # vehicles left when the unloading ends

# Loaded rings kept by build_scenario, one per distinct loading input.
LOAD_CACHE_SIZE = 4


@dataclass
class BuiltScenario:
    loading_trace: metrics.FdTrace
    loaded_ring: RingState  # at load_target, before any departure
    post_removal_ring: RingState  # after the shock, formation applied
    env_spec: EnvSpec


@lru_cache(maxsize=LOAD_CACHE_SIZE)
def _loaded(length, dt, idm, load_target):
    """The ring loaded to ``load_target`` and its loading trace, with
    read-only trace arrays; ``load_vehicles`` is a pure function of these
    four inputs, so its result is shared."""
    ring = RingState(length=length, dt=dt, params=idm)
    ring, trace = load_vehicles(ring, load_target)
    for a in (trace.steps, trace.density, trace.flow, trace.mean_speed):
        a.setflags(write=False)
    return ring, trace


def build_scenario(config):
    """Load to target density, remove per schedule, mark CAVs, capture the
    success threshold (peak loading flow) into an EnvSpec.  Vehicle counts
    that the schedule cannot meet fail before the loading starts.

    The loading runs once per distinct (length, dt, idm, load_target) in a
    process; later calls reuse the loaded ring, whose copies share its
    read-only columns, and the loading trace's read-only arrays."""
    left = config.load_target - sum(config.removal_schedule)
    if left < 1:
        raise ValueError(f"removal schedule {config.removal_schedule} leaves "
                         f"no vehicle of load_target {config.load_target}")
    if config.cav_count > left:
        raise ValueError(f"cav_count {config.cav_count} > the {left} vehicles "
                         "left after removal")
    ring, loading_trace = _loaded(config.length, config.dt, config.idm,
                                  config.load_target)
    loading_trace = replace(loading_trace)  # its own, on the shared arrays
    loaded = ring.copy()

    for i, count in enumerate(config.removal_schedule):
        ring = remove_vehicles(ring, count, config.removal_seed + i)
    ring = apply_formation(ring, config.cav_count, config.formation)

    return BuiltScenario(
        loading_trace=loading_trace,
        loaded_ring=loaded,
        post_removal_ring=ring.copy(),
        env_spec=env_spec(config, ring,
                          metrics.peak_flow(loading_trace)[1]),
    )


def env_spec(config, snapshot, success_flow_threshold):
    """The EnvSpec of ``config`` starting from ``snapshot``."""
    return EnvSpec(
        snapshot=snapshot,
        success_flow_threshold=success_flow_threshold,
        max_episode_steps=config.max_episode_steps,
        reward=config.reward,
    )


def unload_incrementally(ring, removal_seed=0, vsl=None):
    """Random single-vehicle departures (the k-th drawn with seed
    ``removal_seed + k``), each followed by ``UNLOAD_STEPS_BETWEEN`` steps,
    until ``UNLOAD_STOP_AT`` vehicles remain; returns the unloading FdTrace.
    A ring of ``UNLOAD_STOP_AT`` vehicles or fewer has nothing to unload
    and is a ``ValueError``.

    When a speed-limit ``vsl`` policy is given, the active limit caps the
    desired speed of every driver, refreshed by the policy's rule over the
    whole unloading.
    """
    if ring.n <= UNLOAD_STOP_AT:
        raise ValueError(f"nothing to unload: the ring holds {ring.n} "
                         f"vehicles and the unloading stops at "
                         f"{UNLOAD_STOP_AT}")
    rec = metrics.TraceRecorder(metrics.Phase.UNLOADING)
    control = None if vsl is None else vsl.controller(ring.params.v0)
    k = 0
    while ring.n > UNLOAD_STOP_AT:
        ring = remove_vehicles(ring, 1, removal_seed + k)
        k += 1
        ring, report = rollout(ring, UNLOAD_STEPS_BETWEEN, control,
                               rec.record)
        if report is not None:
            break
    return rec.finish()


def steady_speed(trace):
    """A run's steady mean speed: the mean over the last ``PLATEAU_TAIL``
    of its samples, which holds at least the last one."""
    tail = trace.mean_speed[int(len(trace) * (1 - PLATEAU_TAIL)):]
    return float(tail.mean())


def idm_plateau_speed(env_spec):
    """Steady speed of the all-human recovery on the snapshot."""
    return steady_speed(
        baselines.run_idm_recovery(env_spec.snapshot, PLATEAU_STEPS))
