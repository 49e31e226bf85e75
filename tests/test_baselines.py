"""Comparison controllers: recovery, speed-limit tiers, switch-back."""

import numpy as np
import pytest

from ringflow import (
    EnvSpec,
    IdmParams,
    MlpSpec,
    VslPolicy,
    VslRule,
    default_vsl_policy,
    equilibrium_speed,
    find_flow_peak_step,
    init_network,
    run_idm_recovery,
    run_switch_back,
    run_vsl,
    unload_incrementally,
)
from ringflow import ring as ringmod

from conftest import make_ring


def _equilibrium_ring(n=20, cav_every=3):
    p = IdmParams()
    gap = 1000.0 / n - p.vehicle_length
    v_eq = equilibrium_speed(gap, p)
    cavs = [i % cav_every == 0 for i in range(n)]
    return make_ring([i * 1000.0 / n for i in range(n)], [v_eq] * n,
                     cavs=cavs, params=p), v_eq


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
    samples = trace.samples()
    assert len(samples) == 50
    # at equilibrium spacing the all-human ring holds its speed
    assert samples[-1].mean_speed == pytest.approx(v_eq, abs=1e-6)


def test_empty_rule_table_matches_plain_recovery():
    ring, _ = _equilibrium_ring()
    plain = run_idm_recovery(ring, steps=200)
    limited, limits = run_vsl(ring, VslPolicy(), steps=200)
    np.testing.assert_array_equal(plain.flow, limited.flow)
    np.testing.assert_array_equal(plain.mean_speed, limited.mean_speed)
    assert (limits == 30.0).all()


def test_active_limit_caps_speeds():
    ring, v_eq = _equilibrium_ring()
    assert v_eq > 10.0
    policy = VslPolicy(rules=(VslRule(0.0, 10.0),))
    trace, limits = run_vsl(ring, policy, steps=600)
    assert (limits == 10.0).all()
    assert trace.samples()[-1].mean_speed < 10.5


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
    # 4 removals of 5 steps each: the limit is evaluated before steps 0, 7
    # and 14 of the unloading, not at every removal
    unload_incrementally(ring, steps_between=5, stop_at=8, vsl=policy)
    assert len(calls) == 20
    limits = [limit for _, limit in calls]
    for i, limit in enumerate(limits):
        evaluated_on = calls[i - i % 7][0]
        assert limit == policy.active_limit(evaluated_on.mean_speed(), 30.0)
    assert len(set(limits)) == 3


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


def test_switch_back_zero_extra_steps_single_sample():
    ring, _ = _equilibrium_ring()
    spec = EnvSpec(snapshot=ring, success_flow_threshold=1e9)
    res = run_switch_back(_coast_policy(), spec, extra_steps=0,
                          search_steps=300)
    assert len(res.cav_trace.samples()) == 1
    assert len(res.reverted_trace.samples()) == 1
    assert res.cav_trace.flow[0] == pytest.approx(res.reverted_trace.flow[0])


def test_switch_back_needs_a_search_step():
    ring, _ = _equilibrium_ring()
    spec = EnvSpec(snapshot=ring, success_flow_threshold=1e9)
    with pytest.raises(ValueError):
        run_switch_back(_coast_policy(), spec, extra_steps=10, search_steps=0)


def test_switch_back_equilibrium_is_indistinguishable():
    # Coasting commanded vehicles on an equilibrium ring behave exactly like
    # the human car-following law, so both branches coincide.
    ring, v_eq = _equilibrium_ring()
    spec = EnvSpec(snapshot=ring, success_flow_threshold=1e9)
    res = run_switch_back(_coast_policy(), spec, extra_steps=100,
                          search_steps=300)
    np.testing.assert_allclose(res.cav_trace.mean_speed, v_eq, atol=1e-6)
    np.testing.assert_allclose(res.reverted_trace.mean_speed, v_eq,
                               atol=1e-6)
    assert res.snapshot.n == ring.n
