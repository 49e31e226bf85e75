"""Shared helpers for building small ring states and flow traces by hand,
and the hypothesis strategy of random valid rings."""

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


def equilibrium_speed(gap, params):
    """Steady-state IDM speed at a fixed bumper-to-bumper gap (zero speed
    difference): the root of a(v) = 0 in [0, v0], or 0 when the gap cannot
    sustain motion (gap <= s0)."""
    if gap <= params.s0:
        return 0.0

    def f(v):
        s_star = params.s0 + v * params.T
        return 1.0 - (v / params.v0) ** params.delta - (s_star / gap) ** 2

    if f(0.0) <= 0.0:
        return 0.0
    if f(params.v0) >= 0.0:
        return params.v0
    return brentq(f, 0.0, params.v0, xtol=1e-12)


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
