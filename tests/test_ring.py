"""Ring kinematics: gaps, synchronous updates, loading, removal, formation."""

import numpy as np
import pytest

from ringflow import (
    CollisionReport,
    EveryKthRemoval,
    FormationStrategy,
    IdmParams,
    RandomRemoval,
    RingState,
    VehicleKind,
    apply_formation,
    equilibrium_speed,
    gap_to_leader,
    load_vehicles,
    remove_vehicles,
    revert_to_human,
    snapshot_from_json,
    snapshot_to_json,
)
from ringflow import ring as ringmod

from conftest import make_ring


# ---------------------------------------------------------------- gaps


def test_gap_direct_subtraction():
    r = make_ring([100.0, 150.0], [10.0, 10.0])
    vid = [v.id for v in r.vehicles if v.position == 100.0][0]
    assert gap_to_leader(r, vid) == pytest.approx(45.0)


def test_gap_modular_wraparound():
    r = make_ring([990.0, 10.0], [10.0, 10.0])
    vid = [v.id for v in r.vehicles if v.position == 990.0][0]
    assert gap_to_leader(r, vid) == pytest.approx(15.0)


def test_gap_degenerate_overlap_is_negative_length():
    r = make_ring([500.0, 500.0], [0.0, 0.0])
    vid = r.vehicles[0].id
    assert gap_to_leader(r, vid) == pytest.approx(-5.0)


def test_gap_requires_a_leader():
    r = make_ring([100.0], [10.0])
    with pytest.raises(ringmod.NoLeaderError):
        gap_to_leader(r, r.vehicles[0].id)


# ---------------------------------------------------------------- step


def test_single_vehicle_free_road_advance():
    r = make_ring([0.0], [10.0])
    r2, report = ringmod.step(r)
    assert report is None
    v = r2.vehicles[0]
    a = v.last_accel
    assert v.position == pytest.approx(10.0 * 0.1 + 0.5 * a * 0.01)
    assert a > 0.9  # nearly free-road maximum at 10 m/s


def test_equilibrium_spacing_is_a_one_step_fixed_point():
    n, length = 20, 1000.0
    p = IdmParams()
    gap = length / n - p.vehicle_length
    v_eq = equilibrium_speed(gap, p)
    r = make_ring(
        [i * length / n for i in range(n)], [v_eq] * n, params=p
    )
    r2, report = ringmod.step(r)
    assert report is None
    np.testing.assert_allclose(r2.speeds, v_eq, rtol=0, atol=1e-9)


def test_human_emergency_braking_prevents_rear_end():
    # The car-following law brakes unboundedly hard, so even 30 m/s one
    # metre behind a standing leader stops without contact.
    r = make_ring([0.0, 6.0], [30.0, 0.0])  # bumper gap = 6 - 5 = 1
    for _ in range(10):
        r, report = ringmod.step(r)
        assert report is None
    follower = min(r.vehicles, key=lambda v: v.position)
    assert follower.speed == 0.0


def test_coasting_cav_reports_rear_end_collision():
    # A commanded vehicle has no braking override: coasting at 30 m/s one
    # metre behind a standing leader makes contact on the first step.
    r = make_ring([0.0, 6.0], [30.0, 0.0], cavs=[True, False])
    r, report = ringmod.step(r, cav_accel=0.0)
    assert isinstance(report, CollisionReport)
    assert report.gap <= 0.0


def test_speeds_never_negative():
    r = make_ring([0.0, 100.0], [0.5, 0.0])
    for _ in range(50):
        r, _ = ringmod.step(r, cav_accel=-1.0)
    assert (r.speeds >= 0.0).all()


def test_cav_receives_broadcast_acceleration():
    r = make_ring([0.0, 500.0], [10.0, 10.0], cavs=[True, False])
    r2, _ = ringmod.step(r, cav_accel=-1.0)
    cav = [v for v in r2.vehicles if v.kind is VehicleKind.CAV][0]
    assert cav.last_accel == pytest.approx(-1.0)
    assert cav.speed == pytest.approx(10.0 - 0.1)


def test_step_determinism():
    a = make_ring([0.0, 300.0, 700.0], [5.0, 10.0, 20.0])
    b = make_ring([0.0, 300.0, 700.0], [5.0, 10.0, 20.0])
    for _ in range(200):
        a, _ = ringmod.step(a)
        b, _ = ringmod.step(b)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.speeds, b.speeds)


def test_terminal_ring_cannot_be_stepped():
    r = make_ring([0.0, 6.0], [30.0, 0.0], cavs=[True, False])
    r, report = ringmod.step(r, cav_accel=0.0)
    assert report is not None and r.terminal
    with pytest.raises(ValueError):
        ringmod.step(r)


# ---------------------------------------------------------------- rollout


def test_rollout_matches_stepping_by_hand():
    start = make_ring([0.0, 300.0, 700.0], [5.0, 10.0, 20.0],
                      cavs=[True, False, False])

    def control(t, ring):
        return (1.0 if t % 3 else -1.0), 25.0 - 0.05 * t

    seen = []
    end, report = ringmod.rollout(start, 100, control, seen.append)
    assert report is None and len(seen) == 100 and end is seen[-1]
    r = start
    for t in range(100):
        r, _ = ringmod.step(r, *control(t, r))
        np.testing.assert_array_equal(seen[t].positions, r.positions)
        np.testing.assert_array_equal(seen[t].speeds, r.speeds)
    assert start.step_count == 0


def test_rollout_without_control_has_no_command_and_no_limit():
    r = make_ring([0.0, 300.0, 700.0], [5.0, 10.0, 20.0])
    end, _ = ringmod.rollout(r, 50)
    by_hand = r
    for _ in range(50):
        by_hand, _ = ringmod.step(by_hand)
    np.testing.assert_array_equal(end.speeds, by_hand.speeds)


def test_rollout_stops_after_collision():
    r = make_ring([0.0, 6.0], [30.0, 0.0], cavs=[True, False])
    seen = []
    end, report = ringmod.rollout(r, 50, lambda t, ring: (0.0, None),
                                  seen.append)
    assert isinstance(report, CollisionReport) and end.terminal
    assert seen == [end]


# ---------------------------------------------------------------- loading


def test_load_to_zero_is_noop():
    r = RingState()
    r2, trace = load_vehicles(r, 0)
    assert r2.n == 0
    assert len(trace.samples()) == 0


def test_load_two_vehicles_reach_free_flow():
    r = RingState()
    r2, _ = load_vehicles(r, 2)
    for _ in range(3000):
        r2, report = ringmod.step(r2)
        assert report is None
    assert (r2.speeds > 0.97 * r2.params.v0).all()


def test_loading_count_and_trace_are_consistent():
    r = RingState()
    r2, trace = load_vehicles(r, 12)
    assert r2.n == 12
    samples = trace.samples()
    assert len(samples) > 0
    assert samples[-1].density == pytest.approx(12.0)


# ---------------------------------------------------------------- removal


def test_remove_zero_is_identity():
    r = make_ring([0.0, 100.0, 200.0], [5.0, 5.0, 5.0])
    r2 = remove_vehicles(r, 0, RandomRemoval(0))
    assert r2.n == 3
    np.testing.assert_array_equal(r2.positions, r.positions)


def test_random_removal_counts():
    r = make_ring(
        [i * 14.0 for i in range(68)], [5.0] * 68
    )
    assert remove_vehicles(r, 17, RandomRemoval(1)).n == 51
    assert remove_vehicles(r, 9, RandomRemoval(1)).n == 59


def test_random_removal_is_seed_deterministic():
    base = make_ring([i * 14.0 for i in range(68)], [5.0] * 68)
    a = remove_vehicles(base, 17, RandomRemoval(7))
    b = remove_vehicles(base, 17, RandomRemoval(7))
    np.testing.assert_array_equal(a.positions, b.positions)


def test_every_kth_removal_is_deterministic():
    r = make_ring([i * 20.0 for i in range(10)], [5.0] * 10)
    a = remove_vehicles(r, 3, EveryKthRemoval(3))
    b = remove_vehicles(r, 3, EveryKthRemoval(3))
    assert a.n == 7
    np.testing.assert_array_equal(a.positions, b.positions)


# ---------------------------------------------------------------- formation


def _fresh51():
    return make_ring([i * 19.0 for i in range(51)], [5.0] * 51)


def test_uniform_formation_spreads_cavs():
    r = apply_formation(_fresh51(), 17, FormationStrategy.UNIFORM)
    assert r.cav_count == 17
    flags = r.is_cav
    # every third vehicle in cyclic order
    assert all(flags[i] for i in range(0, 51, 3))


def test_platoon_formation_is_consecutive():
    r = apply_formation(_fresh51(), 17, FormationStrategy.PLATOON)
    idx = np.flatnonzero(r.is_cav)
    assert len(idx) == 17
    assert (np.diff(idx) == 1).all()


def test_zero_cavs_leaves_all_human():
    r = apply_formation(_fresh51(), 0, FormationStrategy.UNIFORM)
    assert r.cav_count == 0


def test_formation_revert_round_trip():
    base = _fresh51()
    formed = apply_formation(base, 17, FormationStrategy.UNIFORM)
    back = revert_to_human(formed)
    assert back.cav_count == 0
    np.testing.assert_array_equal(back.positions, base.positions)
    np.testing.assert_array_equal(back.speeds, base.speeds)


def test_formation_count_must_fit():
    with pytest.raises(ValueError):
        apply_formation(_fresh51(), 52, FormationStrategy.UNIFORM)


# ---------------------------------------------------------------- snapshots


def test_snapshot_json_round_trip():
    r = make_ring([0.0, 250.5, 811.25], [3.0, 7.5, 0.0],
                  cavs=[True, False, False])
    text = snapshot_to_json(r)
    r2 = snapshot_from_json(text)
    np.testing.assert_array_equal(r.positions, r2.positions)
    np.testing.assert_array_equal(r.speeds, r2.speeds)
    np.testing.assert_array_equal(r.is_cav, r2.is_cav)
    assert r.length == r2.length and r.dt == r2.dt


def test_snapshot_rejects_garbage():
    with pytest.raises(ValueError):
        snapshot_from_json("{}")
