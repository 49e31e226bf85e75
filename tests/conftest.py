"""Shared helpers for building small ring states and flow traces by hand,
the written-out IDM reference and what theory derives from it, the
written-out loading, and the hypothesis strategy of random valid rings."""

import math

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.optimize import brentq

from ringflow import (CapacityError, FdTrace, IdmParams, Phase, RingState,
                      TraceRecorder)
from ringflow import ring as ringmod


def make_ring(positions, speeds, cavs=None, length=1000.0, dt=0.1,
              params=None):
    """Build a ring with explicit vehicle positions/speeds (test fixture)."""
    ring = RingState(length=length, dt=dt, params=params or IdmParams())
    cavs = cavs or [False] * len(positions)
    for pos, v, cav in zip(positions, speeds, cavs):
        ring._insert(pos, v, cav=cav)
    return ring


def assert_facts_bound(ring):
    """The ring's columns are read-only, as ``RingState._bind`` binds them,
    and the facts it keeps beside them are those of the columns, read-only,
    and the gaps bit for bit those of the step's rule written out: the
    leader index and the gaps of ``_pos`` (a lone vehicle leads itself, a
    whole loop ahead), and the CAV mask of ``_cav``."""
    pos, p = ring._pos, ring.params
    if ring.n == 1:
        gaps = np.array([ring.length - p.vehicle_length])
    else:
        gaps = (np.roll(pos, -1) - pos) % ring.length - p.vehicle_length
    assert ring._lead.tolist() == np.roll(np.arange(ring.n), -1).tolist()
    assert ring._gap.tobytes() == gaps.tobytes()
    assert ring._cav_mask is (ring._cav if ring._cav.any() else None)
    assert not (ring._lead.flags.writeable or ring._gap.flags.writeable)
    assert [name for name in ringmod._COLUMN_NAMES
            if getattr(ring, name).flags.writeable] == []


def reference_idm(v, leader_v, gap, p, v_desired=None):
    """The IDM acceleration (Treiber, Hennecke and Helbing, 2000) written out
    with numpy operators: the reference that the shipped
    ``idm_acceleration_vec`` must equal bit for bit, so that a reordered
    expression in the kernel cannot match itself."""
    vd = p.v0 if v_desired is None else v_desired
    dv = v - leader_v
    s_star = p.s0 + np.maximum(
        0.0, v * p.T + v * dv / (2.0 * math.sqrt(p.a_max * p.b)))
    return p.a_max * (1.0 - (v / vd) ** p.delta - (s_star / gap) ** 2)


def equilibrium_speed(gap, params):
    """Steady-state IDM speed at a fixed bumper-to-bumper gap (zero speed
    difference): the root of ``reference_idm(v, v, gap)`` in [0, v0], or 0
    when the gap cannot sustain motion (gap <= s0)."""
    if gap <= params.s0:
        return 0.0

    def f(v):
        return reference_idm(v, v, gap, params)

    if f(0.0) <= 0.0:
        return 0.0
    if f(params.v0) >= 0.0:
        return params.v0
    return brentq(f, 0.0, params.v0, xtol=1e-12)


def linear_growth(n, k, length, dt, params):
    """Growth per step of Fourier mode ``k`` of a small disturbance of the
    uniform ring of ``n`` humans on a loop of ``length`` (linear stability,
    Wilson and Ward, 2011).

    Around gap s = length / n - vehicle_length and speed v_e(s), with the
    IDM partials f_s, f_v and f_dv (dv = v - leader_v) taken from
    ``reference_idm`` by central differences, mode k (theta = 2 pi k / n,
    the leader one index ahead) accelerates by A dx + B dv, where
    A = f_s (e^(i theta) - 1) and B = f_v + f_dv (1 - e^(i theta)).  The
    step's ballistic update maps (dx, dv) by
    [[1 + dt^2 A / 2, dt + dt^2 B / 2], [dt A, 1 + dt B]]; the growth is
    that matrix's spectral radius."""
    p = params
    gap = length / n - p.vehicle_length
    v_e = equilibrium_speed(gap, p)

    def accel(s, v, dv):
        return reference_idm(v, v - dv, s, p)

    h = 1e-6
    f_s = (accel(gap + h, v_e, 0.0) - accel(gap - h, v_e, 0.0)) / (2 * h)
    f_v = (accel(gap, v_e + h, 0.0) - accel(gap, v_e - h, 0.0)) / (2 * h)
    f_dv = (accel(gap, v_e, h) - accel(gap, v_e, -h)) / (2 * h)
    shift = np.exp(2j * np.pi * k / n)
    a = f_s * (shift - 1.0)
    b = f_v + f_dv * (1.0 - shift)
    step = np.array([[1.0 + 0.5 * dt * dt * a, dt + 0.5 * dt * dt * b],
                     [dt * a, 1.0 + dt * b]])
    return float(np.abs(np.linalg.eigvals(step)).max())


def trace_of(pairs, phase=Phase.LOADING):
    """FdTrace from (density veh/km, flow veh/h) pairs; speed is implied."""
    k = np.array([p[0] for p in pairs], dtype=float)
    q = np.array([p[1] for p in pairs], dtype=float)
    u = np.where(k > 0, q / (3.6 * np.maximum(k, 1e-12)), 0.0)
    return FdTrace(
        phase=phase,
        steps=np.arange(len(pairs)),
        density=k,
        flow=q,
        mean_speed=u,
    )


# With v0 <= 40 m/s, a_max <= 3 m/s^2 and dt <= 0.1 s no vehicle moves
# farther than 4.5 m, the shortest vehicle, in one step, so every drawn ring
# passes RingState's rule that one step's travel stays within a vehicle
# length.
idm_params_drawn = st.just(IdmParams()) | st.builds(
    IdmParams, v0=st.floats(5.0, 40.0), T=st.floats(0.5, 3.0),
    a_max=st.floats(0.3, 3.0), b=st.floats(0.5, 4.0),
    delta=st.floats(1.0, 8.0), s0=st.floats(0.5, 5.0),
    vehicle_length=st.floats(4.5, 10.0))


dts_drawn = st.just(0.1) | st.floats(0.05, 0.1)


@st.composite
def rings(draw, min_n=0, params=idm_params_drawn, dts=dts_drawn,
          min_gap=0.05):
    """A ring of 0..30 vehicles with gaps in [min_gap, 60] m, speeds in
    [0, v0] (-0.0 among them) and CAV marks; the wrap-around falls anywhere
    in the arrays.  The IDM parameters and the time step are the defaults or
    drawn too (from ``params`` and ``dts``), so that a step using constants
    of another ring or of the default parameters shows."""
    p = draw(params)
    dt = draw(dts)
    n = draw(st.integers(min_n, 30))
    gaps = draw(st.lists(st.floats(min_gap, 60.0), min_size=n, max_size=n))
    speeds = draw(st.lists(st.floats(0.0, p.v0) | st.just(-0.0),
                           min_size=n, max_size=n))
    cav = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    length = sum(g + p.vehicle_length for g in gaps) or 100.0
    offset = draw(st.floats(0.0, 1.0, exclude_max=True)) * length
    steps = [0.0] + [g + p.vehicle_length for g in gaps[:-1]]
    ring = RingState(length=length, dt=dt, params=p)
    ring._bind(_ids=np.arange(n, dtype=np.int64),
               _cav=np.array(cav, dtype=bool),
               _pos=(offset + np.cumsum(steps[:n])) % length,
               _v=np.array(speeds, dtype=np.float64), _a=np.zeros(n))
    ring._next_id = n
    return ring


def _reference_try_insert(ring, forced):
    """Insert one vehicle at position 0 if it fits: at the speed of the
    vehicle ahead when the front gap covers its desired gap, or, when
    ``forced``, at a speed the front gap absorbs, if both gaps exceed s0."""
    p = ring.params
    if ring.n == 0:
        ring._insert(0.0, p.v0)
        return True
    pos = ring._pos
    i_ahead = pos.argmin()
    front_gap = pos.item(i_ahead) % ring.length - p.vehicle_length
    rear_gap = (-pos.item(pos.argmax())) % ring.length - p.vehicle_length
    v_ahead = ring._v.item(i_ahead)
    if front_gap <= p.s0 or rear_gap <= p.s0:
        return False
    if front_gap > p.s0 + p.T * v_ahead:
        ring._insert(0.0, v_ahead)
        return True
    if forced:
        ring._insert(0.0, min(v_ahead, (front_gap - p.s0) / p.T))
        return True
    return False


def reference_load(ring, target_count):
    """The loading as first written, a ``RingState`` per step: an insertion
    attempt, ``ring.step`` and ``TraceRecorder.record``.  The reference that
    ``load_vehicles`` must equal bit for bit, errors included; it reads the
    ``LOAD_*`` constants of ``ringflow.ring`` when called."""
    ringmod.check_capacity(ring.length, ring.params, target_count)
    if ring.n >= target_count:
        raise ValueError(f"nothing to load: the ring holds {ring.n} "
                         f"vehicles and the target is {target_count}")
    cooldown = ringmod.LOAD_COOLDOWN_STEPS
    patience = ringmod.LOAD_PATIENCE_STEPS
    max_steps = ringmod.LOAD_MAX_STEPS
    out = ring.copy()
    rec = TraceRecorder(Phase.LOADING)
    since_insert = cooldown
    while out.n < target_count:
        if out.step_count - ring.step_count >= max_steps:
            raise CapacityError(
                f"loading stalled at {out.n}/{target_count} vehicles "
                f"after {max_steps} steps")
        if since_insert >= cooldown:
            forced = since_insert >= cooldown + patience
            if _reference_try_insert(out, forced):
                since_insert = 0
        out, report = ringmod.step(out)
        if report is not None:
            raise RuntimeError(f"collision during loading: {report}")
        rec.record(out)
        since_insert += 1
    return out, rec.finish()


@pytest.fixture
def idm_params():
    return IdmParams()
