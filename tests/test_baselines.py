"""Comparison controllers: recovery, speed-limit tiers, switch-back."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringflow import (
    EnvSpec,
    FdTrace,
    IdmParams,
    MlpSpec,
    Phase,
    VslPolicy,
    VslRule,
    default_vsl_policy,
    evaluate,
    find_flow_peak_step,
    init_network,
    measure,
    run_idm_recovery,
    run_switch_back,
    run_vsl,
    unload_incrementally,
)
from ringflow import ring as ringmod
from ringflow import scenario

from conftest import equilibrium_speed, make_ring, rings


def _equilibrium_ring(n=20, cav_every=3):
    p = IdmParams()
    gap = 1000.0 / n - p.vehicle_length
    v_eq = equilibrium_speed(gap, p)
    cavs = [i % cav_every == 0 for i in range(n)]
    return make_ring([i * 1000.0 / n for i in range(n)], [v_eq] * n,
                     cavs=cavs, params=p), v_eq


def _applied_limits(monkeypatch):
    """The speed limit each ``ring.step`` is given, in step order, from a
    spy on ``ring.step``."""
    limits = []
    real_step = ringmod.step

    def spy(r, cav_accel=0.0, v_desired=None):
        limits.append(v_desired)
        return real_step(r, cav_accel, v_desired)

    monkeypatch.setattr(ringmod, "step", spy)
    return limits


def _coast_policy():
    """Network whose greedy action is always index 1 (zero acceleration)."""
    net = init_network(MlpSpec(1, (), 3), seed=0)
    net.weights[0][:] = 0.0
    net.biases[0][:] = [0.0, 1.0, 0.0]
    return net


# ---------------------------------------------------------------- rules


def test_thresholds_must_strictly_decrease():
    with pytest.raises(ValueError):
        VslPolicy(rules=(VslRule(8.0, 20.0), VslRule(15.0, 30.0)))
    with pytest.raises(ValueError):
        VslPolicy(rules=(VslRule(8.0, 20.0), VslRule(8.0, 13.0)))


def test_period_must_be_positive():
    with pytest.raises(ValueError):
        VslPolicy(period_steps=0)


def test_no_rules_never_restricts():
    p = VslPolicy()
    assert p.active_limit(0.0, 30.0) == 30.0
    assert p.active_limit(25.0, 30.0) == 30.0


def test_highest_matching_rule_wins():
    p = default_vsl_policy()
    assert p.active_limit(16.0, 30.0) == 30.0
    assert p.active_limit(10.0, 30.0) == 20.0
    assert p.active_limit(3.0, 30.0) == 13.0


def test_limit_never_exceeds_desired_speed():
    p = VslPolicy(rules=(VslRule(0.0, 50.0),))
    assert p.active_limit(5.0, 30.0) == 30.0


# ---------------------------------------------------------------- runs


def test_recovery_reverts_commanded_vehicles():
    ring, v_eq = _equilibrium_ring()
    trace = run_idm_recovery(ring, steps=50)
    assert len(trace) == 50
    # at equilibrium spacing the all-human ring holds its speed
    assert trace.mean_speed[-1] == pytest.approx(v_eq, abs=1e-6)


def test_empty_rule_table_matches_plain_recovery(monkeypatch):
    ring, _ = _equilibrium_ring()
    plain = run_idm_recovery(ring, steps=200)
    limits = _applied_limits(monkeypatch)
    limited, _ = run_vsl(ring, VslPolicy(), steps=200)
    np.testing.assert_array_equal(plain.flow, limited.flow)
    np.testing.assert_array_equal(plain.mean_speed, limited.mean_speed)
    assert len(limits) == 200
    assert all(limit == 30.0 for limit in limits)


def test_active_limit_caps_speeds(monkeypatch):
    ring, v_eq = _equilibrium_ring()
    assert v_eq > 10.0
    policy = VslPolicy(rules=(VslRule(0.0, 10.0),))
    limits = _applied_limits(monkeypatch)
    trace, _ = run_vsl(ring, policy, steps=600)
    assert len(limits) == 600
    assert all(limit == 10.0 for limit in limits)
    assert trace.mean_speed[-1] < 10.5


def test_run_vsl_reports_no_collision_for_a_run_that_has_none():
    ring, _ = _equilibrium_ring()
    trace, report = run_vsl(ring, default_vsl_policy(), steps=300)
    assert report is None
    assert len(trace) == 300


def test_run_vsl_rejects_a_limit_the_idm_cannot_take():
    ring, _ = _equilibrium_ring()
    policy = VslPolicy(rules=(VslRule(min_mean_speed=0.0, limit=1e-300),))
    with pytest.raises(ValueError, match="speed limit"):
        run_vsl(ring, policy, 10)


def test_limit_refresh_period_runs_across_removals(monkeypatch):
    # 12 slow, widely spaced vehicles accelerate, so the mean speed crosses
    # a threshold of this fine rule table every few steps
    policy = VslPolicy(
        rules=tuple(VslRule(k / 4, 10.0 + k / 4) for k in range(40, -1, -1)),
        period_steps=7,
    )
    ring = make_ring([i * 1000.0 / 12 for i in range(12)], [2.0] * 12)
    calls = []  # (ring before the step, limit applied to the step)
    real_step = ringmod.step

    def spy(r, cav_accel=0.0, v_desired=None):
        calls.append((r, v_desired))
        return real_step(r, cav_accel, v_desired)

    monkeypatch.setattr(ringmod, "step", spy)
    monkeypatch.setattr(scenario, "UNLOAD_STEPS_BETWEEN", 5)
    monkeypatch.setattr(scenario, "UNLOAD_STOP_AT", 8)
    # 4 removals of 5 steps each: the limit is evaluated before steps 0, 7
    # and 14 of the unloading, not at every removal
    unload_incrementally(ring, vsl=policy)
    assert len(calls) == 20
    limits = [limit for _, limit in calls]
    for i, limit in enumerate(limits):
        evaluated_on = calls[i - i % 7][0]
        assert limit == policy.active_limit(evaluated_on.mean_speed(), 30.0)
    assert len(set(limits)) == 3


@settings(max_examples=40, deadline=None)
@given(ring=rings(), steps=st.integers(1, 50))
def test_every_rollout_trace_has_a_sample_and_reads_back(ring, steps):
    policy = init_network(MlpSpec(1, (4,), 3), seed=0)
    spec = EnvSpec(snapshot=ring, success_flow_threshold=1e9)
    rollouts = (
        (Phase.UNLOADING, lambda n: run_idm_recovery(ring, n)),
        (Phase.UNLOADING, lambda n: run_vsl(ring, default_vsl_policy(), n)[0]),
        (Phase.CONTROLLED, lambda n: evaluate(policy, spec, n)[0]),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        for phase, run in rollouts:
            trace = run(steps)
            assert 1 <= len(trace) <= steps and trace.phase is phase
            trace.write(path)
            back = FdTrace.read(path)
            assert back.phase is phase
            assert back.steps.tolist() == trace.steps.tolist()
            with pytest.raises(ValueError, match="at least one sample"):
                run(0)


# ---------------------------------------------------------------- peak


def test_peak_detection_ignores_single_step_spikes():
    flows = np.concatenate(
        [np.linspace(0, 1000, 300), np.full(300, 1000.0)]
    )
    flows[50] = 5000.0  # one-step artefact must not win
    step = find_flow_peak_step(flows)
    assert 250 <= step <= 400


def test_peak_of_short_series():
    assert find_flow_peak_step([5.0, 1.0]) == 0


# ---------------------------------------------------------------- switch-back


@pytest.mark.parametrize("extra_steps", [0, -1])
def test_switch_back_rejects_extra_steps_below_one(extra_steps):
    ring, _ = _equilibrium_ring()
    spec = EnvSpec(snapshot=ring, success_flow_threshold=1e9)
    # no policy: a search started before the check would fail on it
    with pytest.raises(ValueError, match="extra_steps must be >= 1"):
        run_switch_back(None, spec, extra_steps=extra_steps)


def test_switch_back_equilibrium_is_indistinguishable():
    # Coasting commanded vehicles on an equilibrium ring behave exactly like
    # the human car-following law, so both branches coincide.
    ring, v_eq = _equilibrium_ring()
    spec = EnvSpec(snapshot=ring, success_flow_threshold=1e9)
    res = run_switch_back(_coast_policy(), spec, extra_steps=100)
    np.testing.assert_allclose(res.cav_trace.mean_speed, v_eq, atol=1e-6)
    np.testing.assert_allclose(res.reverted_trace.mean_speed, v_eq,
                               atol=1e-6)
    assert res.snapshot.n == ring.n


def _accelerate_policy():
    """Network whose greedy action is always index 2 (+1 m/s^2)."""
    net = init_network(MlpSpec(1, (), 3), seed=0)
    net.weights[0][:] = 0.0
    net.biases[0][:] = [0.0, 0.0, 1.0]
    return net


def test_switch_back_peak_on_the_collision_starts_one_state_earlier():
    # a lone CAV accelerating into a jam of stopped cars at 2 m gaps: the
    # flow peaks at the collision step, which cannot be stepped on from
    ring = make_ring([i * 7.0 for i in range(34)], [0.0] * 34,
                     cavs=[True] + [False] * 33, length=250.0)
    spec = EnvSpec(ring, 1000.0)
    rings = []
    ringmod.rollout(ring, 2000, lambda t, r: (1.0, None), rings.append)
    assert rings[-1].terminal
    assert find_flow_peak_step([measure(r)[1] for r in rings]) == \
        len(rings) - 1
    res = run_switch_back(_accelerate_policy(), spec, extra_steps=50)
    assert res.peak_step == len(rings) - 2
    assert not res.snapshot.terminal
    assert ringmod.snapshot_to_json(res.snapshot) == \
        ringmod.snapshot_to_json(rings[-2])
    assert len(res.cav_trace) == 1  # the CAV branch collides again
    assert len(res.reverted_trace) == 50


def test_switch_back_collision_on_the_first_step_starts_from_the_start():
    ring = make_ring([0.0, 5.5], [10.0, 0.0], cavs=[True, False],
                     length=250.0)
    res = run_switch_back(_accelerate_policy(), EnvSpec(ring, 1000.0),
                          extra_steps=5)
    assert res.peak_step == -1
    assert res.snapshot is ring
    assert (len(res.cav_trace), len(res.reverted_trace)) == (1, 5)
