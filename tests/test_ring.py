"""Ring kinematics: gaps, synchronous updates, loading, removal, formation."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ringflow import (
    CapacityError,
    CollisionReport,
    FormationStrategy,
    IdmParams,
    RingState,
    apply_formation,
    load_vehicles,
    remove_vehicles,
    revert_to_human,
    snapshot_from_json,
    snapshot_to_json,
)
from ringflow import ring as ringmod
from ringflow.config import ConfigError, config_from_kv

from conftest import (assert_facts_bound, dts_drawn, equilibrium_speed,
                      idm_params_drawn, linear_growth, make_ring,
                      reference_load, rings)


# ---------------------------------------------------------------- gaps


# make_ring orders the vehicles by ascending position, so the i-th gap is
# that of the i-th vehicle from position 0.


def test_gap_direct_subtraction():
    r = make_ring([100.0, 150.0], [10.0, 10.0])
    np.testing.assert_allclose(r._gap, [45.0, 945.0])


def test_gap_modular_wraparound():
    r = make_ring([990.0, 10.0], [10.0, 10.0])
    np.testing.assert_allclose(r._gap, [975.0, 15.0])


def test_gap_degenerate_overlap_is_negative_length():
    r = make_ring([500.0, 500.0], [0.0, 0.0])
    np.testing.assert_allclose(r._gap, [-5.0, -5.0])


def test_a_lone_vehicle_leads_itself_a_whole_loop_ahead(monkeypatch):
    r = make_ring([120.0], [10.0], length=300.0)
    assert r._gap.tolist() == [300.0 - 5.0]
    with pytest.raises(ValueError, match="read-only"):
        r._gap[0] = 1.0
    r2, report = ringmod.step(r)
    assert report is None
    # the step bound the gaps of its collision test with its positions, and
    # the next step hands exactly that array to the IDM
    assert_facts_bound(r2)
    gaps = r2._gap
    assert gaps.tolist() == [295.0]
    seen = []
    real_idm = ringmod.idm_acceleration_vec

    def spy(v, leader_v, gap, params, v_desired=None):
        seen.append(gap)
        return real_idm(v, leader_v, gap, params, v_desired=v_desired)

    monkeypatch.setattr(ringmod, "idm_acceleration_vec", spy)
    ringmod.step(r2)
    assert len(seen) == 1 and seen[0] is gaps


# ---------------------------------------------------------------- step


def test_single_vehicle_free_road_advance():
    r = make_ring([0.0], [10.0])
    r2, report = ringmod.step(r)
    assert report is None
    a = r2._a[0]
    assert r2._pos[0] == pytest.approx(10.0 * 0.1 + 0.5 * a * 0.01)
    assert a > 0.9  # nearly free-road maximum at 10 m/s


@pytest.mark.parametrize("length", [4.0, 5.0])
def test_a_lone_vehicle_no_shorter_than_its_loop_collides_with_itself(length):
    r = make_ring([1.0], [0.0], length=length)
    with np.errstate(divide="ignore"):  # the IDM divides by a gap of 0.0
        r2, report = ringmod.step(r)
    assert report == CollisionReport(step=1, follower_id=0, leader_id=0,
                                     gap=length - 5.0)
    assert r2.terminal


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
    assert r._v[np.argmin(r._pos)] == 0.0  # the follower


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
    cav = int(np.flatnonzero(r2._cav)[0])
    assert r2._a[cav] == pytest.approx(-1.0)
    assert r2._v[cav] == pytest.approx(10.0 - 0.1)


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


# ---------------------------------------------------------------- stability


def _mode_amplitude(ring, k):
    """|Fourier coefficient k| of the gaps, vehicle index by index (a step
    keeps every vehicle at its index)."""
    j = np.arange(ring.n)
    return abs(np.sum(ring._gap * np.exp(-2j * np.pi * k * j / ring.n)))


# Uniform flow on the 1000 m loop is linearly unstable from 29 veh/km.
# Modes that decay as fast as k = 3 at 28 veh/km (0.9942 per step) fall to
# rounding noise by step 4000, so they are left out.
@pytest.mark.parametrize("n, k", [(28, 1), (28, 2), (29, 1), (51, 1),
                                  (51, 2), (51, 3)])
def test_a_small_mode_grows_as_linear_stability_predicts(n, k):
    p, length, dt = IdmParams(), 1000.0, 0.1
    spacing = length / n
    j = np.arange(n)
    ring = make_ring(j * spacing + 1e-6 * np.cos(2 * np.pi * k * j / n),
                     [equilibrium_speed(spacing - p.vehicle_length, p)] * n,
                     length=length, dt=dt)
    ring, _ = ringmod.rollout(ring, 2000)
    early = _mode_amplitude(ring, k)
    ring, report = ringmod.rollout(ring, 2000)
    assert report is None
    growth = (_mode_amplitude(ring, k) / early) ** (1 / 2000)
    predicted = linear_growth(n, k, length, dt, p)
    assert (predicted > 1.0) == (n >= 29)
    assert growth - 1.0 == pytest.approx(predicted - 1.0, rel=1e-4)


# ---------------------------------------------------------------- loading


@pytest.mark.parametrize("n, target", [(0, 0), (2, 2), (3, 1), (0, -1)])
def test_load_with_nothing_to_load_fails(n, target):
    r = make_ring([i * 100.0 for i in range(n)], [0.0] * n)
    with pytest.raises(ValueError, match=f"nothing to load: the ring holds "
                                         f"{n} vehicles and the target is "
                                         f"{target}"):
        load_vehicles(r, target)


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
    assert len(trace) > 0
    assert trace.density[-1] == pytest.approx(12.0)


def test_load_past_the_loop_capacity_fails_before_stepping():
    # 100 m // (s0 + vehicle_length = 7 m) holds 14 vehicles
    with pytest.raises(CapacityError, match="exceeds loop capacity 14"):
        load_vehicles(RingState(100.0), 15)


def test_a_stalled_load_fails_after_the_step_budget(monkeypatch):
    # the second vehicle waits out a cooldown far longer than 5 steps
    monkeypatch.setattr(ringmod, "LOAD_MAX_STEPS", 5)
    with pytest.raises(CapacityError, match="stalled at 1/2 vehicles"):
        load_vehicles(RingState(), 2)


@st.composite
def loadings(draw):
    """``(ring, target_count, (cooldown, patience, max_steps))``: an empty
    loop or a ring of ``rings`` (CAVs and -0.0 speeds among them; gaps of
    20 m or more, or one speed for all, keep many from colliding), a target
    a few vehicles above it, and short loading limits, so that blocks fill,
    entries are forced and budgets run out."""
    p = draw(idm_params_drawn)
    dt = draw(dts_drawn)
    if draw(st.booleans()):
        ring = RingState(draw(st.floats(30.0, 400.0)), dt, p)
    else:
        ring = draw(rings(min_n=1, params=st.just(p), dts=st.just(dt),
                          min_gap=draw(st.sampled_from([0.05, 20.0]))))
        if draw(st.booleans()):
            ring._bind(_v=np.full(ring.n, ring._v.item(0)))
        ring.step_count = draw(st.integers(0, 10**6))
    target = ring.n + draw(st.integers(1, 6))
    limits = (draw(st.integers(0, 40)), draw(st.integers(0, 60)),
              draw(st.integers(0, 3000)))
    return ring, target, limits


def _loaded(load, ring, target):
    """What ``load`` makes of ``ring``: every column, counter and bound
    gap of the loaded ring and the trace's columns, as bytes, or the type
    and text of the error it raised."""
    try:
        out, trace = load(ring, target)
    except (ValueError, RuntimeError) as e:
        return type(e), str(e)
    assert_facts_bound(out)
    return ([getattr(out, name).tobytes() for name, _ in ringmod._COLUMNS],
            out.step_count, out._next_id, out.terminal, out._gap.tobytes(),
            [c.tobytes() for c in (trace.steps, trace.density, trace.flow,
                                   trace.mean_speed)])


@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(loadings())
@example((RingState(250.0), 4, (ringmod.LOAD_COOLDOWN_STEPS,
                                ringmod.LOAD_PATIENCE_STEPS,
                                ringmod.LOAD_MAX_STEPS)))
def test_loading_equals_the_reference_loading(case):
    ring, target, (cooldown, patience, max_steps) = case
    with mock.patch.multiple(ringmod, LOAD_COOLDOWN_STEPS=cooldown,
                             LOAD_PATIENCE_STEPS=patience,
                             LOAD_MAX_STEPS=max_steps):
        assert _loaded(load_vehicles, ring, target) == _loaded(
            reference_load, ring, target)


def test_a_collision_during_loading_is_reported_as_the_reference_reports():
    # the second vehicle overlaps the first, so the first step collides
    ring = make_ring([100.0, 103.0, 500.0], [5.0, 5.0, 5.0])
    expected = _loaded(reference_load, ring, 5)
    assert expected[0] is RuntimeError and expected[1].startswith(
        "collision during loading: CollisionReport(step=1, ")
    assert _loaded(load_vehicles, ring, 5) == expected


# ---------------------------------------------------------------- removal


def test_remove_zero_is_identity():
    r = make_ring([0.0, 100.0, 200.0], [5.0, 5.0, 5.0])
    r2 = remove_vehicles(r, 0, 0)
    assert r2.n == 3
    np.testing.assert_array_equal(r2.positions, r.positions)


def test_removing_no_vehicle_keeps_every_column():
    r = make_ring([0.0, 100.0, 200.0], [5.0, -0.0, 7.5],
                  cavs=[False, True, False])
    r, _ = ringmod.step(r, cav_accel=1.0)
    for seed in (0, 9):
        r2 = remove_vehicles(r, 0, seed)
        assert r2 is not r and r2.n == r.n
        for name, dtype in ringmod._COLUMNS:
            a, b = getattr(r, name), getattr(r2, name)
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes(), name


def test_random_removal_counts():
    r = make_ring(
        [i * 14.0 for i in range(68)], [5.0] * 68
    )
    assert remove_vehicles(r, 17, 1).n == 51
    assert remove_vehicles(r, 9, 1).n == 59


def test_random_removal_is_seed_deterministic():
    base = make_ring([i * 14.0 for i in range(68)], [5.0] * 68)
    a = remove_vehicles(base, 17, 7)
    b = remove_vehicles(base, 17, 7)
    np.testing.assert_array_equal(a.positions, b.positions)


# ---------------------------------------------------------------- formation


def _fresh51():
    return make_ring([i * 19.0 for i in range(51)], [5.0] * 51)


def test_uniform_formation_spreads_cavs():
    r = apply_formation(_fresh51(), 17, FormationStrategy.UNIFORM)
    assert r.cav_count == 17
    flags = r._cav
    # every third vehicle in cyclic order
    assert all(flags[i] for i in range(0, 51, 3))


def test_platoon_formation_is_consecutive():
    r = apply_formation(_fresh51(), 17, FormationStrategy.PLATOON)
    idx = np.flatnonzero(r._cav)
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


def _snapshot_ring():
    return make_ring([0.0, 250.5, 811.25], [3.0, 7.5, 0.0],
                     cavs=[True, False, False])


def test_snapshot_json_round_trip():
    # the second ring's last vehicle has wrapped past 0, so its positions
    # are in ring order without being sorted; the third has collided
    wrapped, _ = ringmod.step(make_ring([100.0, 500.0, 998.0],
                                        [3.0, 7.5, 30.0]))
    assert wrapped.positions[-1] < wrapped.positions[0]
    collided, report = ringmod.step(make_ring([0.0, 6.0], [30.0, 0.0],
                                              cavs=[True, False]))
    assert report is not None
    for r in (_snapshot_ring(), wrapped, collided):
        r2 = snapshot_from_json(snapshot_to_json(r))
        for name, dtype in ringmod._COLUMNS:
            a, b = getattr(r, name), getattr(r2, name)
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype == dtype, name
        for name in ("length", "dt", "params", "step_count", "terminal",
                     "_next_id"):
            a, b = getattr(r, name), getattr(r2, name)
            assert a == b and type(a) is type(b), name


def test_copies_share_the_constant_operands_and_snapshots_rebuild_them():
    ring = make_ring([0.0, 50.0], [5.0, 5.0], length=300.0, dt=0.05,
                     params=IdmParams(v0=20.0))
    for operand, value in ((ring._length, 300.0), (ring._dt, 0.05)):
        assert operand.dtype == np.float64 and operand.ndim == 0
        assert operand == value
        with pytest.raises(ValueError, match="read-only"):
            operand[()] = 1.0
    stepped, _ = ringmod.step(ring)
    for r in (ring.copy(), stepped):
        assert r._length is ring._length and r._dt is ring._dt
        assert r.params is ring.params
    text = snapshot_to_json(ring)
    doc = json.loads(text)
    assert sorted(doc) == ["dt", "format", "idm", "length", "next_id",
                           "step_count", "terminal", "vehicles", "version"]
    assert doc["idm"] == {"v0": 20.0, "T": 1.5, "a_max": 1.0, "b": 2.0,
                          "delta": 4.0, "s0": 2.0, "vehicle_length": 5.0}
    loaded = snapshot_from_json(text)
    for name in ("_length", "_dt"):
        operand = getattr(loaded, name)
        assert operand is not getattr(ring, name)
        assert operand == getattr(ring, name) and not operand.flags.writeable
    assert loaded.params == ring.params
    assert loaded.params._v0 is not ring.params._v0
    assert loaded.params._v0 == 20.0


def test_snapshot_keys_and_unknown_keys_are_rejected():
    doc = json.loads(snapshot_to_json(_snapshot_ring()))
    assert set(doc) == {"format", "version", "length", "dt", "step_count",
                        "terminal", "next_id", "idm", "vehicles"}
    assert set(doc["vehicles"][0]) == {"id", "kind", "position", "speed",
                                       "last_accel"}
    # e.g. the unused seed that versions before run directories wrote
    for edit, key in ((lambda d: d.update(seed=7), "'seed'"),
                      (lambda d: d.update(zzz=1), "'zzz'"),
                      (_set_vehicle(1, "colour", "red"), "'colour'")):
        bad = json.loads(json.dumps(doc))
        edit(bad)
        with pytest.raises(ValueError, match=f"unknown snapshot .*{key}"):
            snapshot_from_json(json.dumps(bad))


def _set_vehicle(i, key, value):
    def edit(doc):
        doc["vehicles"][i][key] = value
    return edit


@pytest.mark.parametrize("edit", [
    _set_vehicle(1, "id", 0),  # ids not unique
    lambda doc: doc.update(next_id=2),  # next_id in use
    _set_vehicle(0, "kind", "truck"),
    _set_vehicle(1, "speed", float("nan")),
    lambda doc: doc.update(length=float("inf")),
    lambda doc: doc["idm"].update(T=float("nan")),
    _set_vehicle(1, "position", 5000.0),
    _set_vehicle(0, "position", -1.0),
    _set_vehicle(0, "position", 300.0),  # out of ring order
    _set_vehicle(0, "speed", -0.5),
    _set_vehicle(0, "speed", 30.5),  # above v0
    lambda doc: doc["vehicles"][0].pop("last_accel"),
    lambda doc: doc.update(step_count="12"),
    lambda doc: doc.update(step_count=12.0),
    lambda doc: doc.update(step_count=True),
    lambda doc: doc.update(terminal="no"),
    lambda doc: doc.update(terminal=0),
    lambda doc: doc.update(next_id=7.9),
    lambda doc: doc.update(next_id=False),
    _set_vehicle(0, "id", 0.5),
    _set_vehicle(0, "id", "0"),
    _set_vehicle(0, "id", True),
    lambda doc: doc.update(step_count=-5),
    lambda doc: doc.update(vehicles=[], next_id=-1),
    _set_vehicle(0, "id", -7),
    lambda doc: doc.update(dt=True),
    lambda doc: doc.update(vehicles=[], length=True),
    lambda doc: doc["idm"].update(T=True),
    _set_vehicle(0, "position", "1.5"),
    _set_vehicle(0, "speed", True),
    _set_vehicle(0, "last_accel", "0"),
    _set_vehicle(0, "position", 10**400),
    lambda doc: doc.update(dt=1e-320),
    _set_vehicle(0, "kind", "CAV"),
    _set_vehicle(0, "kind", ["cav"]),
    _set_vehicle(0, "kind", True),
    # gaps are computed only after the numbers pass, so an infinite
    # position is this ValueError, not a warning from the gap formula
    _set_vehicle(0, "position", float("inf")),
    _set_vehicle(1, "position", -float("inf")),
    _set_vehicle(0, "speed", float("inf")),
    _set_vehicle(1, "speed", -float("inf")),
    # numbers that an int64 id column or a float cannot hold
    _set_vehicle(0, "id", 2**63),
    lambda doc: doc.update(next_id=2**63),
    lambda doc: doc.update(step_count=2**63),
    lambda doc: doc.update(length=10**400),
    lambda doc: doc.update(dt=10**400),
    lambda doc: doc["idm"].update(v0=10**400),
], ids=["duplicate-id", "next-id-in-use", "unknown-kind", "nan-speed",
        "infinite-length", "nan-idm", "position-past-length",
        "negative-position", "out-of-order", "negative-speed",
        "speed-above-v0", "missing-field", "step-count-str",
        "step-count-float", "step-count-bool", "terminal-str", "terminal-int",
        "next-id-float", "next-id-bool", "id-float", "id-str", "id-bool",
        "negative-step-count", "negative-next-id", "negative-id", "dt-bool",
        "length-bool", "idm-bool", "position-str", "speed-bool",
        "last-accel-str", "position-huge-int", "dt-underflow",
        "kind-upper-case", "kind-list", "kind-bool", "inf-position",
        "minus-inf-position", "inf-speed", "minus-inf-speed",
        "id-past-int64", "next-id-past-int64", "step-count-past-int64",
        "length-past-float", "dt-past-float", "idm-past-float"])
def test_snapshot_rejects_states_the_simulator_cannot_reach(edit):
    doc = json.loads(snapshot_to_json(_snapshot_ring()))
    snapshot_from_json(json.dumps(doc))  # the unedited document loads
    edit(doc)
    with pytest.raises(ValueError):
        snapshot_from_json(json.dumps(doc))


@pytest.mark.parametrize("key, value, message", [
    ("position", "1.5", "vehicle position must be a number"),
    ("speed", True, "vehicle speed must be a number"),
    ("last_accel", "0", "vehicle last_accel must be a number"),
    ("position", 10**400, "vehicle position is outside the float range"),
], ids=["position-str", "speed-bool", "last-accel-str", "position-huge-int"])
def test_snapshot_vehicle_numbers_are_json_numbers(key, value, message):
    doc = json.loads(snapshot_to_json(_snapshot_ring()))
    doc["vehicles"][0][key] = value
    with pytest.raises(ValueError, match=message):
        snapshot_from_json(json.dumps(doc))


def _round_trip(ring):
    return snapshot_from_json(snapshot_to_json(ring))


@pytest.mark.parametrize("positions, length", [
    ([10.0, 12.0, 60.0], 100.0),  # gaps [-3, 43, 45]
    ([10.0, 10.0, 60.0], 100.0),  # the same position: a gap of -5
    ([1.0], 4.0),  # a lone vehicle longer than its loop
], ids=["overlap", "same-position", "lone-longer-than-loop"])
def test_snapshot_rejects_overlapping_vehicles(positions, length):
    r = make_ring(positions, [5.0] * len(positions), length=length)
    assert not r.terminal and (r._gap <= 0.0).any()
    with pytest.raises(ValueError, match="overlap"):
        _round_trip(r)


def test_a_collided_snapshot_with_overlapping_vehicles_loads():
    r = make_ring([10.0, 12.0, 60.0], [5.0] * 3, length=100.0)
    r2, report = ringmod.step(r)
    assert report is not None and r2.terminal
    loaded = _round_trip(r2)
    assert loaded.terminal
    for name, _ in ringmod._COLUMNS:
        assert getattr(loaded, name).tobytes() == getattr(r2, name).tobytes()
    assert loaded._gap.tobytes() == r2._gap.tobytes()


def test_snapshot_rejects_garbage():
    with pytest.raises(ValueError):
        snapshot_from_json("{}")


# ---------------------------------------------------------------- trajectory


def test_trajectory_rows_and_file_match_a_per_vehicle_reference(tmp_path):
    ring = make_ring([0.0, 40.0, 90.0, 150.0], [8.0, -0.0, 12.5, 3.0],
                     cavs=[False, True, False, True], length=200.0)
    rec = ringmod.TrajectoryRecorder()
    reference = []
    for _ in range(5):
        ring, _ = ringmod.step(ring, -1.0)
        rec.record(ring)
        for i in range(ring.n):  # the recorder as first written
            reference.append((ring.step_count, int(ring._ids[i]),
                              "cav" if ring._cav[i] else "human",
                              float(ring._pos[i]), float(ring._v[i]),
                              float(ring._a[i])))
    rows = list(rec.rows())
    assert rows == reference
    assert [tuple(map(type, r)) for r in rows] == \
        [(int, int, str, float, float, float)] * len(reference)
    path = tmp_path / "trajectory.csv"
    rec.write(path)
    expected = "step,vehicle_id,kind,position_m,speed_mps,accel_mps2\n" + "".join(
        f"{r[0]},{r[1]},{r[2]},{r[3]:.6f},{r[4]:.6f},{r[5]:.6f}\n"
        for r in reference)
    assert path.read_text() == expected


# ---------------------------------------------------------------- limits


@pytest.mark.parametrize("limit", [1e-300, 1e-77, 0.0, -1.0, math.nan,
                                   math.inf])
def test_step_rejects_a_speed_limit_the_idm_cannot_take(limit):
    ring = make_ring([0.0, 50.0, 120.0], [10.0, 30.0, 0.0], length=200.0)
    with pytest.raises(ValueError, match="speed limit"):
        ringmod.step(ring, 0.0, limit)
    # (30 / 1e-75) ** 4 is finite: the step runs, and its snapshot loads
    out, _ = ringmod.step(ring, 0.0, 1e-75)
    assert np.isfinite(out._a).all()
    snapshot_from_json(snapshot_to_json(out))


# ---------------------------------------------------------------- one step's travel


def test_a_step_that_could_carry_a_follower_past_its_leader_is_rejected():
    # dt = 0.5 s at v0 = 40 m/s: a step may carry a vehicle 20.125 m, so a
    # CAV at 0 m (30 m/s) commanded +1 m/s^2 behind stopped CAVs at 6 m and
    # 50 m on a 100 m loop would land at 15.125 m, past its leader at
    # 6.125 m, with every gap positive
    p = IdmParams(v0=40.0)
    with pytest.raises(ValueError, match="20.125 m .*vehicle_length 5.0"):
        RingState(100.0, 0.5, p)
    with pytest.raises(ConfigError, match="exceeds vehicle_length"):
        config_from_kv({"sim.dt": "0.5", "idm.v0": "40.0"})
    doc = json.loads(snapshot_to_json(make_ring(
        [0.0, 6.0, 50.0], [30.0, 0.0, 0.0], cavs=[True] * 3, length=100.0)))
    snapshot_from_json(json.dumps(doc))  # loads at the default dt and v0
    doc.update(dt=0.5, idm=dict(doc["idm"], v0=40.0))
    with pytest.raises(ValueError, match="exceeds vehicle_length"):
        snapshot_from_json(json.dumps(doc))


def test_a_dt_whose_square_underflows_is_rejected_where_it_enters(tmp_path,
                                                                  capsys):
    from ringflow.cli import main as cli_main

    for dt in (1e-320, 1e-170, 5e-324):
        with pytest.raises(ValueError, match="dt\\*dt underflows to 0"):
            RingState(dt=dt)
    with pytest.raises(ConfigError, match="dt\\*dt underflows to 0"):
        config_from_kv({"sim.dt": "1e-170"})
    cfgfile = tmp_path / "tiny_dt.cfg"
    cfgfile.write_text("sim.dt = 1e-320\n")
    assert cli_main(["hysteresis", "--config", str(cfgfile),
                     "--out", str(tmp_path)]) == 1
    assert "dt*dt underflows to 0" in capsys.readouterr().err
    # the smallest dt whose square is a (subnormal) float still builds,
    # with the bound computed as before
    dt = 1e-160
    p = IdmParams()
    assert RingState(dt=dt)._cav_accel_max == \
        2.0 * (p.vehicle_length - p.v0 * dt) / (dt * dt)


def test_step_rejects_a_cav_command_that_could_carry_it_past_its_leader():
    ring = make_ring([0.0, 6.0, 50.0], [30.0, 0.0, 0.0], cavs=[True] * 3,
                     length=100.0)
    bound = ring._cav_accel_max  # 2 (5 - 30 * 0.1) / 0.1**2
    assert bound == pytest.approx(400.0)
    before = snapshot_to_json(ring)
    for command in (401.0, math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match=f"CAV command {command!r} "):
            ringmod.step(ring, command)
        assert snapshot_to_json(ring) == before
    out, report = ringmod.step(ring, bound)
    assert report is not None and report.follower_id == 0  # seen, not passed
    # a ring without CAVs takes no command, so it is not checked
    ringmod.step(revert_to_human(ring), 401.0)
