"""Macroscopic measurement and fundamental-diagram branch analysis."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ringflow import (
    FdTrace,
    IdmParams,
    Phase,
    RingState,
    TraceRecorder,
    hysteresis_gap,
    interp_flow,
    measure,
    peak_flow,
    step,
)

from conftest import make_ring, rings, trace_of


# ---------------------------------------------------------------- measure


def test_empty_loop_measures_zero():
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


def test_trace_written_in_small_pieces_matches_the_reference(tmp_path):
    # The writer streams one row at a time from the columns' memoryviews;
    # a strided, read-only column (as build_scenario shares its loading)
    # is written as it was given.
    strided = np.geomspace(5e-324, 30.0, 22)[::2]  # subnormals first
    strided.setflags(write=False)
    t = FdTrace(phase=Phase.LOADING, steps=np.arange(11) * 5,
                density=np.linspace(0.0, 68.0, 11), flow=np.full(11, 1e300),
                mean_speed=strided)
    path = tmp_path / "t.csv"
    for written in (t, t.decimate(3)):
        written.write(path)
        assert path.read_text() == _reference_csv(written)
    assert t.mean_speed is strided


def test_read_names_a_step_outside_int64(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("step,phase,density_veh_km,flow_veh_h,mean_speed_mps\n"
                 "0,loading,10,600,16.5\n"
                 "99999999999999999999,loading,10,600,16.5\n")
    with pytest.raises(ValueError, match="line 3: step 99999999999999999999 "
                                         "is outside int64"):
        FdTrace.read(p)


@pytest.mark.parametrize("columns, message", [
    (([1, 2], [1.0], [], [1, 2, 3]), "one length"),
    (([1, 2], [1.0, 2.0], [1.0, 2.0], [1.0]), "one length"),
    (([[1, 2]], [[1.0, 2.0]], [[1.0, 2.0]], [[1.0, 2.0]]), "1-D"),
    ((5, 1.0, 1.0, 1.0), "1-D"),
    (([5, 4], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0]), "strictly increase"),
    (([3, 3], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0]), "strictly increase"),
])
def test_trace_checks_its_columns_where_it_is_built(columns, message):
    with pytest.raises(ValueError, match=message):
        FdTrace(Phase.LOADING, *(np.array(c) for c in columns))


def test_steps_whose_difference_wraps_int64_still_increase():
    t = FdTrace(Phase.LOADING, np.array([-2**63, 2**63 - 1]),
                np.ones(2), np.ones(2), np.ones(2))
    assert t.steps.tolist() == [-2**63, 2**63 - 1]


def test_trace_binds_int64_steps_and_float64_values(tmp_path):
    t = FdTrace(Phase.LOADING, [0, 1], [1.0, 2.0], [10, 20], [1.0, 2.0])
    assert [c.dtype for c in (t.steps, t.density, t.flow, t.mean_speed)] == \
        [np.int64, np.float64, np.float64, np.float64]
    t.write(tmp_path / "t.csv")
    _assert_same_trace(FdTrace.read(tmp_path / "t.csv"), t)
    assert interp_flow(t, 1.5) == 15.0
    columns = (np.arange(2), np.ones(2), np.ones(2), np.ones(2))
    kept = FdTrace(Phase.LOADING, *columns)
    assert all(a is b for a, b in zip(
        (kept.steps, kept.density, kept.flow, kept.mean_speed), columns))


@pytest.mark.parametrize("steps", [
    [0.5, 1.5], [0.2, 0.7], np.array([0.0, 1.0]), [False, True],
    np.array([0, 2**63], dtype=np.uint64), ["0", "1"]])
def test_trace_steps_that_are_not_int64_integers_are_rejected(steps):
    with pytest.raises(ValueError, match="steps must be integers"):
        FdTrace(Phase.LOADING, steps, [1.0, 2.0], [1.0, 2.0], [1.0, 2.0])


def test_read_rejects_steps_that_do_not_increase(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("step,phase,density_veh_km,flow_veh_h,mean_speed_mps\n"
                 "5,loading,10,600,16.5\n4,loading,10,600,16.5\n")
    with pytest.raises(ValueError, match="strictly increase"):
        FdTrace.read(p)


def test_read_rejects_a_file_cut_inside_its_last_row(tmp_path):
    p = tmp_path / "loading_trace.csv"
    trace = FdTrace(Phase.LOADING, [0, 1, 2], [10.0, 20.0, 30.5],
                    [600.0, 900.0, 357.125], [16.5, 12.5, 3.25])
    trace.write(p)
    text = p.read_text()
    assert text.endswith("\n2,loading,30.5,357.125,3.25\n")
    p.write_text(text[:-3])  # cut inside the last number: 3.25 -> 3.
    with pytest.raises(ValueError, match="line 4 was cut"):
        FdTrace.read(p)
    # blank lines after the last row, the final one without its newline,
    # are no cut
    p.write_text(text + "\n  ")
    _assert_same_trace(FdTrace.read(p), trace)


# Floats that the writer's nine significant digits hold exactly, -0.0,
# subnormals and 1e300 among them.
exact_floats = st.floats(allow_nan=False, allow_infinity=False).map(
    lambda x: float(f"{x:.9g}"))


@st.composite
def traces(draw):
    steps = sorted(draw(st.sets(st.integers(-2**62, 2**62), min_size=1,
                                max_size=12)))
    n = len(steps)
    columns = [np.array(draw(st.lists(exact_floats, min_size=n, max_size=n)))
               for _ in range(3)]
    return FdTrace(draw(st.sampled_from(Phase)),
                   np.array(steps, dtype=np.int64), *columns)


def _assert_same_trace(a, b):
    assert a.phase is b.phase
    for name in ("steps", "density", "flow", "mean_speed"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def _written(trace):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.csv"
        trace.write(path)
        return path.read_text()


def _read_text(text):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.csv"
        path.write_text(text)
        return FdTrace.read(path)


@settings(max_examples=200, deadline=None)
@given(traces())
@example(FdTrace(Phase.CONTROLLED, np.array([-2**62, 0, 2**62]),
                 np.array([-0.0, 5e-324, 1e300]),
                 np.array([2.5e-310, -1e300, 0.0]),
                 np.array([0.333333333, -0.0, 1e-300])))
def test_a_written_trace_reads_back_exactly(trace):
    _assert_same_trace(_read_text(_written(trace)), trace)


MUTATIONS = ("drop", "duplicate", "phase", "non-finite", "big step",
             "blank line", "bom", "truncate")
MUST_FAIL = {"drop", "duplicate", "non-finite", "big step"}


@settings(max_examples=300, deadline=None)
@given(traces(), st.sampled_from(MUTATIONS), st.data())
def test_a_mutated_trace_file_loads_consistently_or_raises_value_error(
        trace, mutation, data):
    """A mutated file either loads to a trace that writes back and reads
    again equal, or is a ``ValueError``: never another exception."""
    lines = _written(trace).splitlines(keepends=True)  # header, then rows
    i = data.draw(st.integers(1, len(lines) - 1), label="row")
    fields = lines[i].rstrip("\n").split(",")
    if mutation == "drop":
        del fields[data.draw(st.integers(0, 4))]
    elif mutation == "duplicate":
        j = data.draw(st.integers(0, 4))
        fields.insert(j, fields[j])
    elif mutation == "phase":
        fields[1] = data.draw(st.sampled_from(
            [p.value for p in Phase] + ["", "LOADING", "loading "]))
    elif mutation == "non-finite":
        fields[data.draw(st.integers(2, 4))] = data.draw(st.sampled_from(
            ["nan", "inf", "-inf", "NaN", "-Infinity"]))
    elif mutation == "big step":
        fields[0] = str(data.draw(st.sampled_from(
            [2**63, -2**63 - 1, 10**20, -10**30])))
    lines[i] = ",".join(fields) + "\n"
    if mutation == "blank line":
        lines.insert(data.draw(st.integers(1, len(lines))),
                     data.draw(st.sampled_from(["\n", "  \n", "\r\n"])))
    elif mutation == "bom":
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[j] = "\ufeff" + lines[j]
    elif mutation == "truncate":
        # a cut inside the last row leaves it without its newline; a cut to
        # zero characters drops the whole row, which no reader can tell
        # from a file written one row shorter.  Half the cuts fall inside
        # the last number or on the newline, where the row still parses
        # and only the missing newline shows the cut.
        row = lines[-1]
        first = row.rindex(",") + 2 if data.draw(st.booleans()) else 0
        lines[-1] = row[:data.draw(st.integers(first, len(row) - 1))]
    text = "".join(lines)
    if mutation in MUST_FAIL or (mutation == "truncate" and lines[-1]):
        with pytest.raises(ValueError):
            _read_text(text)
        return
    try:
        loaded = _read_text(text)
    except ValueError:
        return
    _assert_same_trace(_read_text(_written(loaded)), loaded)


def test_recorder_collects_samples():
    rec = TraceRecorder(Phase.UNLOADING)
    r = make_ring([0.0, 500.0], [10.0, 10.0])
    r2, _ = step(r)
    rec.record(r)
    rec.record(r2)
    t = rec.finish()
    assert len(t) == 2
    assert t.phase is Phase.UNLOADING
    for i, ring in enumerate((r, r2)):
        assert [t.density[i], t.flow[i], t.mean_speed[i]] == list(measure(ring))
    assert t.steps.tolist() == [r.step_count, r2.step_count]
    assert t.steps.dtype == np.int64


@settings(deadline=None)
@given(n=st.integers(1, 80), rows=st.integers(1, 5),
       length=st.floats(10.0, 5000.0), data=st.data())
def test_a_block_of_speeds_records_what_record_records_of_each_row(
        n, rows, length, data):
    v0 = IdmParams().v0
    speed = st.sampled_from([0.0, -0.0, v0]) | st.floats(0.0, v0)
    speeds = np.array(data.draw(st.lists(
        st.lists(speed, min_size=n, max_size=n), min_size=rows,
        max_size=rows)))
    rec = TraceRecorder(Phase.LOADING)
    rec._record_block(6 + rows, speeds, length)
    block = rec.finish()
    ring = RingState(length)
    ring._ids = np.arange(n)
    for i, row in enumerate(speeds):
        ring._v, ring.step_count = row, 7 + i
        rec.record(ring)
    _assert_same_trace(block, rec.finish())


def test_finish_hands_the_samples_over_and_starts_afresh():
    r = make_ring([0.0, 500.0], [10.0, 10.0])
    rings = [r]
    for _ in range(3):
        rings.append(step(rings[-1])[0])
    rec = TraceRecorder(Phase.LOADING)
    rec.record(rings[0])
    rec.record(rings[1])
    first = rec.finish()
    for a in (first.steps, first.density, first.flow, first.mean_speed):
        a.setflags(write=False)  # as build_scenario shares its loading
    rec.record(rings[2])  # the trace's buffers are not grown under it
    rec.record(rings[3])
    second = rec.finish()
    assert first.steps.tolist() == [x.step_count for x in rings[:2]]
    assert second.steps.tolist() == [x.step_count for x in rings[2:]]
    assert second.mean_speed.tolist() == [x.mean_speed() for x in rings[2:]]


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
