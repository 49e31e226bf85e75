"""Macroscopic measurement and fundamental-diagram branch analysis."""

import numpy as np
import pytest

from ringflow import (
    FdTrace,
    Phase,
    TraceRecorder,
    hysteresis_gap,
    interp_flow,
    measure,
    peak_flow,
)

from conftest import make_ring, trace_of


# ---------------------------------------------------------------- measure


def test_empty_loop_measures_zero():
    from ringflow import RingState

    s = measure(RingState())
    assert (s.density, s.flow, s.mean_speed) == (0.0, 0.0, 0.0)


def test_fifty_vehicles_at_ten_mps():
    r = make_ring([i * 20.0 for i in range(50)], [10.0] * 50)
    s = measure(r)
    assert s.density == pytest.approx(50.0)
    assert s.mean_speed == pytest.approx(10.0)
    assert s.flow == pytest.approx(1800.0)


def test_jam_state_has_zero_flow():
    r = make_ring([i * 14.0 for i in range(68)], [0.0] * 68)
    s = measure(r)
    assert s.density == pytest.approx(68.0)
    assert s.flow == 0.0


def test_measure_tags_phase():
    r = make_ring([0.0], [5.0])
    assert measure(r, Phase.LOADING).phase is Phase.LOADING


# ---------------------------------------------------------------- traces


def test_trace_round_trip(tmp_path):
    t = trace_of([(10, 600), (20, 1200), (30, 1500)])
    p = tmp_path / "t.csv"
    t.write(p)
    t2 = FdTrace.read(p)
    np.testing.assert_allclose(t2.density, t.density)
    np.testing.assert_allclose(t2.flow, t.flow)
    assert t2.phase is t.phase


def test_recorder_collects_samples():
    rec = TraceRecorder(Phase.UNLOADING)
    r = make_ring([0.0, 500.0], [10.0, 10.0])
    rec.record(r)
    rec.record(r)
    t = rec.finish()
    assert len(t) == 2
    assert t.phase is Phase.UNLOADING


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
    s = peak_flow(t)
    assert (s.density, s.flow) == (10.0, 600.0)


def test_peak_direct_max():
    t = trace_of([(10, 600), (30, 1500), (50, 1100)])
    s = peak_flow(t)
    assert (s.density, s.flow) == (30.0, 1500.0)


def test_peak_tie_breaks_to_first():
    t = trace_of([(20, 900), (40, 900)])
    s = peak_flow(t)
    assert (s.density, s.flow) == (20.0, 900.0)


def test_peak_of_empty_trace_raises():
    t = trace_of([])
    with pytest.raises(ValueError):
        peak_flow(t)
