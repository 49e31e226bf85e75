"""Property tests of ``ring.step`` over random valid rings: the physical
invariants hold, and the step equals a reference rule bit for bit, also after
every operation that changes a ring between two steps."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from ringflow import (
    CollisionReport,
    FormationStrategy,
    IdmParams,
    RingState,
    apply_formation,
    remove_vehicles,
    revert_to_human,
    snapshot_from_json,
    snapshot_to_json,
)
from ringflow import ring as ringmod
from ringflow.dqn import ACTION_ACCELS, EnvSpec, RingEnv

from conftest import make_ring, rings

P = IdmParams()
STEPS = 8
COLUMNS = ("_ids", "_cav", "_pos", "_v", "_a")


# (cav_accel, v_desired); -0.0 is a command too, and a speed limit of at
# least 0.1 m/s keeps every IDM term finite
commands = st.tuples(st.sampled_from(ACTION_ACCELS + (-0.0,)),
                     st.none() | st.floats(0.1, P.v0))


def reference_idm(v, leader_v, gap, p, v_desired):
    """The IDM acceleration as first vectorized, written out here, so that a
    reordered expression in ``idm_acceleration_vec`` cannot match itself."""
    vd = p.v0 if v_desired is None else v_desired
    dv = v - leader_v
    s_star = p.s0 + np.maximum(
        0.0, v * p.T + v * dv / (2.0 * math.sqrt(p.a_max * p.b)))
    return p.a_max * (1.0 - (v / vd) ** p.delta - (s_star / gap) ** 2)


def reference_step(ring, cav_accel, v_desired):
    """The step rule as first written, with ``np.roll`` and ``np.clip``, on
    copies of the ring's columns.  Returns ``(pos, v, a, CollisionReport |
    None)``."""
    p, n, length, dt = ring.params, ring.n, ring.length, ring.dt
    ids, cav, pos, v, a = (np.array(getattr(ring, c)) for c in COLUMNS)
    if n == 0:
        return pos, v, a, None
    if n == 1:
        gaps = np.array([length - p.vehicle_length])
        lead_v = v
    else:
        gaps = (np.roll(pos, -1) - pos) % length - p.vehicle_length
        lead_v = np.roll(v, -1)
    accel = reference_idm(v, lead_v, gaps, p, v_desired)
    if cav.any():
        accel = np.where(cav, cav_accel, accel)
    v_new = np.clip(v + accel * dt, 0.0, p.v0)
    disp = np.maximum(v * dt + 0.5 * accel * dt * dt, 0.0)
    pos_new = (pos + disp) % length
    report = None
    if n >= 2:
        new_gaps = (np.roll(pos_new, -1) - pos_new) % length - p.vehicle_length
        bad = np.nonzero(new_gaps <= 0.0)[0]
        if len(bad):
            i = int(bad[np.argmin(new_gaps[bad])])
            report = CollisionReport(
                step=ring.step_count + 1, follower_id=int(ids[i]),
                leader_id=int(ids[(i + 1) % n]), gap=float(new_gaps[i]))
    return pos_new, v_new, accel, report


def step_matching_reference(ring, cav_accel=0.0, v_desired=None):
    """``ring.step``, asserted equal to ``reference_step`` bit for bit."""
    pos, v, a, ref_report = reference_step(ring, cav_accel, v_desired)
    out, report = ringmod.step(ring, cav_accel, v_desired)
    assert out._pos.tobytes() == pos.tobytes()
    assert out._v.tobytes() == v.tobytes()
    assert out._a.tobytes() == a.tobytes()
    assert report == ref_report
    assert out.step_count == ring.step_count + 1
    assert out.terminal == (report is not None)
    return out, report


def assert_step_invariants(before, after, report):
    p, length = after.params, after.length
    assert after.n == before.n
    np.testing.assert_array_equal(after._ids, before._ids)
    np.testing.assert_array_equal(after._cav, before._cav)
    assert ((after._pos >= 0.0) & (after._pos < length)).all()
    assert ((after._v >= 0.0) & (after._v <= p.v0)).all()
    if after.n < 2:
        return
    # no overtaking: every front bumper stays behind its leader's
    disp = (after._pos - before._pos) % length
    spacing = (np.roll(before._pos, -1) - before._pos) % length
    assert (spacing + np.roll(disp, -1) - disp > 0.0).all()
    gaps = (np.roll(after._pos, -1) - after._pos) % length - p.vehicle_length
    assert report is not None or (gaps > 0.0).all()


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rings(), st.lists(commands, min_size=STEPS, max_size=STEPS))
def test_steps_keep_the_invariants_and_match_the_reference(ring, cmds):
    for cav_accel, v_desired in cmds:
        out, report = step_matching_reference(ring, cav_accel, v_desired)
        assert_step_invariants(ring, out, report)
        if report is not None:
            break
        ring = out


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(v0=st.floats(5.0, 40.0), a_max=st.floats(0.3, 3.0),
       vehicle_length=st.floats(4.5, 10.0), dt=st.floats(0.05, 0.5),
       data=st.data())
def test_a_step_carries_no_follower_past_its_leader_unseen(
        v0, a_max, vehicle_length, dt, data):
    p = IdmParams(v0=v0, a_max=a_max, vehicle_length=vehicle_length)
    if v0 * dt + 0.5 * a_max * dt * dt > vehicle_length:
        with pytest.raises(ValueError, match="exceeds vehicle_length"):
            RingState(100.0, dt, p)
        return
    ring = data.draw(rings(params=st.just(p), dts=st.just(dt)))
    bound = ring._cav_accel_max
    cav_accels = st.just(bound) | st.floats(-1.0, 1.0).map(lambda f: f * bound)
    for _ in range(STEPS):
        cav_accel = data.draw(cav_accels)
        v_desired = data.draw(st.none() | st.floats(0.1, v0))
        out, report = ringmod.step(ring, cav_accel, v_desired)
        assert_step_invariants(ring, out, report)
        if report is not None:
            break
        ring = out


def _insert_in_largest_gap(r):
    out = r.copy()
    k = int(np.argmax(out._gaps()))
    out._insert(out._pos[k] + (out._gaps()[k] + P.vehicle_length) / 2, 0.0)
    return out


def _env_reset(r):
    env = RingEnv(EnvSpec(snapshot=r, success_flow_threshold=1.0))
    env.reset()
    return env.ring


CHANGES = {
    "insert": _insert_in_largest_gap,
    "remove_vehicles": lambda r: remove_vehicles(r, 1, seed=7),
    "apply_formation": lambda r: apply_formation(
        r, r.n // 2, FormationStrategy.PLATOON),
    "revert_to_human": revert_to_human,
    "snapshot_from_json": lambda r: snapshot_from_json(snapshot_to_json(r)),
    "env_reset": _env_reset,
}


@pytest.mark.parametrize("change", sorted(CHANGES))
@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(ring=rings(min_n=2), first=commands, second=commands)
def test_a_change_between_steps_leaves_no_stale_gaps(change, ring, first,
                                                    second):
    ring, report = ringmod.step(ring, *first)
    assume(report is None)
    changed = CHANGES[change](ring)
    step_matching_reference(changed, *second)


# rings of 0, 1 and 2 vehicles, which the random rings draw only by
# chance: (positions, speeds, CAV marks, loop length)
SMALL_RINGS = {
    "empty": ([], [], [], 100.0),
    "lone-human": ([40.0], [12.0], [False], 300.0),
    "lone-cav": ([40.0], [-0.0], [True], 300.0),
    "lone-short-loop": ([3.0], [30.0], [False], 5.5),
    "two-humans": ([10.0, 60.0], [25.0, 2.0], [False, False], 400.0),
    "two-wrapping": ([395.0, 8.0], [14.0, 14.0], [True, False], 400.0),
    "two-colliding": ([0.0, 6.0], [30.0, 0.0], [True, False], 1000.0),
}


@pytest.mark.parametrize("command", [(0.0, None), (1.0, 12.5), (-1.0, None)])
@pytest.mark.parametrize("name", sorted(SMALL_RINGS))
def test_rings_of_up_to_two_vehicles_match_the_reference(name, command):
    positions, speeds, cavs, length = SMALL_RINGS[name]
    ring = make_ring(positions, speeds, cavs, length=length)
    for _ in range(STEPS):
        out, report = step_matching_reference(ring, *command)
        assert_step_invariants(ring, out, report)
        if report is not None:
            break
        ring = out


def test_clip_keeps_a_speed_of_negative_zero():
    # a stopped CAV at -0.0 m/s commanded -0.0 m/s^2: v + a * dt is -0.0,
    # which np.clip keeps and np.minimum(np.maximum(x, 0.0), v0) does not
    ring = RingState(length=200.0)
    for x, v, cav in ((0.0, 10.0, False), (50.0, -0.0, True),
                      (120.0, 10.0, False)):
        ring._insert(x, v, cav=cav)
    out, report = step_matching_reference(ring, -0.0)
    assert report is None
    assert np.signbit(out._v).tolist() == [False, True, False]


def test_a_gap_of_exactly_zero_is_a_collision():
    # two stopped CAVs bumper to bumper, commanded to hold: the gap stays 0.0
    # (the IDM term they do not use divides by it)
    ring = RingState(length=200.0)
    for x in (0.0, P.vehicle_length):
        ring._insert(x, 0.0, cav=True)
    with np.errstate(divide="ignore"):
        out, report = step_matching_reference(ring, 0.0)
    assert report == CollisionReport(step=1, follower_id=0, leader_id=1,
                                     gap=0.0)
    assert out.terminal


def test_the_collision_check_gaps_serve_the_next_step():
    ring = RingState(length=200.0)
    for x in (0.0, 50.0, 120.0):
        ring._insert(x, 10.0)
    out, _ = ringmod.step(ring)
    memo_pos, gaps = out._gap_memo
    assert memo_pos is out._pos
    assert out._gaps() is gaps
    nxt = out.copy()
    assert nxt._gaps() is gaps  # a copy shares the memo


def test_copies_share_read_only_columns():
    ring = RingState(length=200.0)
    for x in (0.0, 50.0, 120.0):
        ring._insert(x, 10.0, cav=x == 50.0)
    before = {c: getattr(ring, c).copy() for c in COLUMNS}
    copied = ring.copy()
    for c in COLUMNS:
        assert getattr(copied, c) is getattr(ring, c)
        with pytest.raises(ValueError, match="read-only"):
            getattr(copied, c)[0] = 1
        np.testing.assert_array_equal(getattr(ring, c), before[c])
    with pytest.raises(ValueError, match="read-only"):
        copied._gaps()[0] = 1.0
    # rebinding a column on the copy leaves the source alone
    copied._v = np.zeros(3)
    np.testing.assert_array_equal(ring._v, before["_v"])
