"""Macroscopic measurement and fundamental-diagram branch analysis."""

import numpy as np
import pytest
from hypothesis import given

from ringflow import (
    FdTrace,
    Phase,
    TraceRecorder,
    hysteresis_gap,
    interp_flow,
    measure,
    peak_flow,
)

from conftest import make_ring, rings, trace_of


# ---------------------------------------------------------------- measure


def test_empty_loop_measures_zero():
    from ringflow import RingState

    assert measure(RingState()) == (0.0, 0.0, 0.0)


def test_fifty_vehicles_at_ten_mps():
    r = make_ring([i * 20.0 for i in range(50)], [10.0] * 50)
    density, flow, mean_speed = measure(r)
    assert density == pytest.approx(50.0)
    assert mean_speed == pytest.approx(10.0)
    assert flow == pytest.approx(1800.0)


def test_jam_state_has_zero_flow():
    r = make_ring([i * 14.0 for i in range(68)], [0.0] * 68)
    density, flow, _ = measure(r)
    assert density == pytest.approx(68.0)
    assert flow == 0.0


@given(rings())
def test_mean_speed_and_measure_match_their_formulas_bit_for_bit(ring):
    n = ring.n
    u = float(ring._v.mean()) if n else 0.0
    density = n / ring.length * 1000.0 if n else 0.0
    flow = density * u * 3.6 if n else 0.0
    assert ring.mean_speed().hex() == u.hex()
    s = measure(ring)
    assert all(type(x) is float for x in s)
    assert [x.hex() for x in s] == [x.hex() for x in (density, flow, u)]


# ---------------------------------------------------------------- traces


def test_trace_round_trip(tmp_path):
    # values that nine significant digits hold exactly read back exactly
    t = FdTrace(phase=Phase.UNLOADING, steps=np.array([3, 4, 9]),
                density=np.array([10.0, 20.5, 68.0]),
                flow=np.array([600.25, 0.0, 1799.125]),
                mean_speed=np.array([16.5, 0.0, 7.25]))
    p = tmp_path / "t.csv"
    t.write(p)
    t2 = FdTrace.read(p)
    assert t2.phase is t.phase
    for name in ("steps", "density", "flow", "mean_speed"):
        a, b = getattr(t2, name), getattr(t, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


@pytest.mark.parametrize("body", [
    "0,loading,1,2\n",
    "0,loading,1,2,3,4\n",
    "0,loading,1,2,3\n1,unloading,1,2,3\n",
    "0,loading,1,2,3\n1\n",
])
def test_read_rejects_a_malformed_file(tmp_path, body):
    p = tmp_path / "t.csv"
    p.write_text("step,phase,density_veh_km,flow_veh_h,mean_speed_mps\n"
                 + body)
    with pytest.raises(ValueError, match="five fields and one phase"):
        FdTrace.read(p)


@pytest.mark.parametrize("column", [2, 3, 4])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_read_rejects_a_non_finite_value(tmp_path, column, value):
    row = ["1", "loading", "10", "600", "16.5"]
    row[column] = value
    p = tmp_path / "t.csv"
    p.write_text("step,phase,density_veh_km,flow_veh_h,mean_speed_mps\n"
                 "0,loading,10,600,16.5\n" + ",".join(row) + "\n")
    with pytest.raises(ValueError, match="must be finite"):
        FdTrace.read(p)


def _reference_csv(trace):
    """The trace file as first written: one row at a time, from numpy
    scalars."""
    rows = [f"{int(trace.steps[i])},{trace.phase.value},{trace.density[i]:.9g},"
            f"{trace.flow[i]:.9g},{trace.mean_speed[i]:.9g}\n"
            for i in range(len(trace))]
    return "step,phase,density_veh_km,flow_veh_h,mean_speed_mps\n" + \
        "".join(rows)


@pytest.mark.parametrize("decimation", [1, 3])
def test_trace_writer_matches_a_per_row_reference(tmp_path, decimation):
    values = np.array([0.0, -0.0, 1e-300, 5e-324, 1e17, 123456789.123456,
                       1.0 / 3.0, 2.5e-7, 1e300, 68.0, -4.25])
    t = FdTrace(phase=Phase.UNLOADING,
                steps=np.arange(len(values), dtype=np.int64) * 2**40 - 7,
                density=values, flow=values[::-1].copy(),
                mean_speed=np.roll(values, 3))
    path = tmp_path / "t.csv"
    t.decimate(decimation).write(path)
    assert path.read_text() == _reference_csv(t.decimate(decimation))


def test_recorder_collects_samples():
    rec = TraceRecorder(Phase.UNLOADING)
    r = make_ring([0.0, 500.0], [10.0, 10.0])
    rec.record(r)
    rec.record(r)
    t = rec.finish()
    assert len(t) == 2
    assert t.phase is Phase.UNLOADING
    assert [t.density[0], t.flow[0], t.mean_speed[0]] == list(measure(r))
    assert t.steps.tolist() == [r.step_count] * 2


def test_decimate_keeps_every_kth():
    t = trace_of([(k, 100 * k) for k in range(1, 11)])
    d = t.decimate(3)
    np.testing.assert_allclose(d.density, t.density[::3])


# ---------------------------------------------------------------- branches


def test_identical_traces_have_zero_gap():
    load = trace_of([(10, 600), (20, 1200)], Phase.LOADING)
    unload = trace_of([(10, 600), (20, 1200)], Phase.UNLOADING)
    for k in (10, 12.5, 15, 20):
        assert hysteresis_gap(load, unload, k) == pytest.approx(0.0)


def test_linear_interpolation_gap():
    load = trace_of([(10, 600), (20, 1200)], Phase.LOADING)
    unload = trace_of([(10, 400), (20, 800)], Phase.UNLOADING)
    assert hysteresis_gap(load, unload, 15.0) == pytest.approx(300.0)


def test_interp_outside_range_raises():
    t = trace_of([(10, 600), (20, 1200)])
    with pytest.raises(ValueError):
        interp_flow(t, 25.0)


# ---------------------------------------------------------------- peak


def test_peak_single_sample():
    t = trace_of([(10, 600)])
    assert peak_flow(t) == (10.0, 600.0)


def test_peak_direct_max():
    t = trace_of([(10, 600), (30, 1500), (50, 1100)])
    assert peak_flow(t) == (30.0, 1500.0)


def test_peak_tie_breaks_to_first():
    t = trace_of([(20, 900), (40, 900)])
    assert peak_flow(t) == (20.0, 900.0)


def test_peak_of_empty_trace_raises():
    # an empty trace cannot be built, by hand or by a recorder that
    # recorded nothing, so peak_flow never meets one
    with pytest.raises(ValueError, match="at least one sample"):
        trace_of([])
    with pytest.raises(ValueError, match="at least one sample"):
        TraceRecorder(Phase.LOADING).finish()
