"""build_scenario loads each ring once per process and hands out
independent scenarios that share the loaded ring's read-only arrays; one
steady-speed rule serves every experiment."""

import dataclasses

import numpy as np
import pytest

from ringflow import (
    FdTrace,
    IdmParams,
    Phase,
    ScenarioConfig,
    idm_plateau_speed,
    run_idm_recovery,
    scenario,
    steady_speed,
)

from conftest import make_ring

BASE = ScenarioConfig(length=150.0, load_target=8, removal_schedule=(2,),
                      cav_count=2)


@pytest.fixture
def loads(monkeypatch):
    """The ``load_vehicles`` calls made after the load cache is emptied."""
    calls = []
    real = scenario.load_vehicles

    def counting(ring, target_count):
        calls.append((ring.length, target_count))
        return real(ring, target_count)

    monkeypatch.setattr(scenario, "load_vehicles", counting)
    scenario._loaded.cache_clear()
    return calls


def _with_seed(config, seed):
    return dataclasses.replace(
        config, ddqn=dataclasses.replace(config.ddqn, seed=seed))


def test_equal_loading_inputs_load_once(loads):
    a = scenario.build_scenario(_with_seed(BASE, 0))
    b = scenario.build_scenario(_with_seed(BASE, 1))
    assert loads == [(150.0, 8)]
    assert a.loaded_ring.n == b.loaded_ring.n == 8
    np.testing.assert_array_equal(a.loading_trace.flow, b.loading_trace.flow)


@pytest.mark.parametrize("change", [
    dict(length=160.0),
    dict(load_target=7),
    dict(idm=IdmParams(T=1.4)),
])
def test_other_loading_inputs_load_again(loads, change):
    scenario.build_scenario(BASE)
    scenario.build_scenario(dataclasses.replace(BASE, **change))
    assert len(loads) == 2


def test_scenarios_sharing_a_load_are_independent(loads):
    a = scenario.build_scenario(_with_seed(BASE, 0))
    b = scenario.build_scenario(_with_seed(BASE, 1))
    speeds = b.loaded_ring.speeds
    snapshot_speeds = b.env_spec.snapshot.speeds
    a.loaded_ring._v = np.zeros(a.loaded_ring.n)
    a.env_spec.snapshot._v = np.zeros(a.env_spec.snapshot.n)
    np.testing.assert_array_equal(b.loaded_ring.speeds, speeds)
    np.testing.assert_array_equal(b.env_spec.snapshot.speeds, snapshot_speeds)
    assert a.loading_trace is not b.loading_trace
    c = scenario.build_scenario(BASE)
    np.testing.assert_array_equal(c.loaded_ring.speeds, speeds)


def test_loading_trace_arrays_are_read_only(loads):
    trace = scenario.build_scenario(BASE).loading_trace
    for a in (trace.steps, trace.density, trace.flow, trace.mean_speed):
        assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        trace.flow[0] = 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 11, 13, 99, 3000])
def test_steady_speed_is_the_mean_of_the_last_fifth(n):
    speeds = np.random.default_rng(n).uniform(0.0, 30.0, n)
    trace = FdTrace(Phase.CONTROLLED, steps=np.arange(n),
                    density=np.zeros(n), flow=np.zeros(n), mean_speed=speeds)
    want = float(speeds[int(n * 0.8):].mean())
    assert steady_speed(trace) == want


@pytest.mark.parametrize("n", [0, 1, 2])
def test_unloading_a_ring_with_nothing_to_unload_fails(n):
    ring = make_ring([i * 100.0 for i in range(n)], [0.0] * n, length=250.0)
    assert n <= scenario.UNLOAD_STOP_AT
    with pytest.raises(ValueError, match=f"holds {n} vehicles and the "
                                         f"unloading stops at 2"):
        scenario.unload_incrementally(ring)


def test_plateau_is_the_steady_speed_of_the_all_human_recovery(loads):
    spec = scenario.build_scenario(BASE).env_spec
    assert idm_plateau_speed(spec) == steady_speed(
        run_idm_recovery(spec.snapshot, scenario.PLATEAU_STEPS))
