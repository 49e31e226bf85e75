"""Shared helpers for building small ring states and flow traces by hand,
the written-out IDM reference and what theory derives from it, and the
hypothesis strategy of random valid rings."""

import math

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.optimize import brentq

from ringflow import FdTrace, IdmParams, Phase, RingState


def make_ring(positions, speeds, cavs=None, length=1000.0, dt=0.1,
              params=None):
    """Build a ring with explicit vehicle positions/speeds (test fixture)."""
    ring = RingState(length=length, dt=dt, params=params or IdmParams())
    cavs = cavs or [False] * len(positions)
    for pos, v, cav in zip(positions, speeds, cavs):
        ring._insert(pos, v, cav=cav)
    return ring


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


@st.composite
def rings(draw, min_n=0, params=idm_params_drawn,
          dts=st.just(0.1) | st.floats(0.05, 0.1)):
    """A ring of 0..30 vehicles with positive gaps, speeds in [0, v0] (-0.0
    among them) and CAV marks; the wrap-around falls anywhere in the
    arrays.  The IDM parameters and the time step are the defaults or drawn
    too (from ``params`` and ``dts``), so that a step using constants of
    another ring or of the default parameters shows."""
    p = draw(params)
    dt = draw(dts)
    n = draw(st.integers(min_n, 30))
    gaps = draw(st.lists(st.floats(0.05, 60.0), min_size=n, max_size=n))
    speeds = draw(st.lists(st.floats(0.0, p.v0) | st.just(-0.0),
                           min_size=n, max_size=n))
    cav = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    length = sum(g + p.vehicle_length for g in gaps) or 100.0
    offset = draw(st.floats(0.0, 1.0, exclude_max=True)) * length
    steps = [0.0] + [g + p.vehicle_length for g in gaps[:-1]]
    ring = RingState(length=length, dt=dt, params=p)
    ring._ids = np.arange(n, dtype=np.int64)
    ring._cav = np.array(cav, dtype=bool)
    ring._pos = (offset + np.cumsum(steps[:n])) % length
    ring._v = np.array(speeds, dtype=np.float64)
    ring._a = np.zeros(n)
    ring._next_id = n
    return ring


@pytest.fixture
def idm_params():
    return IdmParams()
