"""Per-step samples stay packed: the traced peak memory of recording,
reading, writing and drawing a long trace, per sample, is a few machine
numbers, not a Python object per value.

``tracemalloc`` sees the ``array`` buffers, numpy's data and every Python
object.  Each bound lies between the peak of the first, list-based
implementation and that of the packed one (numbers of numpy 2.4 on
CPython 3.11, x86-64), so a return to one Python object per sample fails.
"""

import tracemalloc

import numpy as np

from ringflow import FdTrace, Phase, TraceRecorder, svgplot
from ringflow import ring as ringmod

from conftest import make_ring

N = 100_000
CHART_POINTS = 30_000
TRAJECTORY_STEPS = 1000


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _trace(n):
    rng = np.random.default_rng(0)
    return FdTrace(Phase.LOADING, np.arange(n, dtype=np.int64) * 3 - 5,
                   rng.uniform(0.0, 68.0, n), rng.uniform(0.0, 2200.0, n),
                   rng.uniform(0.0, 30.0, n))


def test_recorder_holds_packed_samples():
    ring = make_ring([0.0, 500.0], [10.0, 10.0])

    def record():
        rec = TraceRecorder(Phase.LOADING)
        for i in range(N):
            ring.step_count = i
            rec.record(ring)
        rec.finish()

    # lists of boxed numbers: 168 B/sample; appended to array buffers:
    # 34 B/sample
    assert _peak_bytes(record) / N < 80


def test_trace_file_is_written_and_read_in_bounded_pieces(tmp_path):
    trace = _trace(N)
    path = tmp_path / "t.csv"
    # whole-trace tolist: 136 B/sample; memoryviews, a row at a time:
    # 0.3 B/sample
    assert _peak_bytes(lambda: trace.write(path)) / N < 40
    # a list of split rows: 515 B/sample; packed columns: 34 B/sample
    assert _peak_bytes(lambda: FdTrace.read(path)) / N < 100


def test_chart_is_written_in_bounded_pieces(tmp_path):
    trace = _trace(CHART_POINTS)
    fd = svgplot.fundamental_diagram_chart([trace])
    speed = svgplot.mean_speed_chart(trace, 0.1, "speed")
    # whole-series lists and one string per point: 342 and 253 B/point;
    # streamed from memoryviews: 24 and 24 B/point
    for chart, name in ((fd, "fd.svg"), (speed, "speed.svg")):
        peak = _peak_bytes(lambda: chart.write(tmp_path / name))
        assert peak / CHART_POINTS < 120, name


def test_trajectory_recorder_keeps_columns(tmp_path):
    start = make_ring([i * 19.6 for i in range(51)], [8.0] * 51,
                      cavs=[i % 3 == 0 for i in range(51)])
    rows = TRAJECTORY_STEPS * start.n

    def record_and_write():
        rec = ringmod.TrajectoryRecorder()
        ringmod.rollout(start, TRAJECTORY_STEPS, observe=rec.record)
        rec.write(tmp_path / "trajectory.csv")

    def record_and_draw():
        rec = ringmod.TrajectoryRecorder()
        ringmod.rollout(start, TRAJECTORY_STEPS, observe=rec.record)
        svgplot.trajectory_chart(rec.rows()).write(tmp_path / "traj.svg")

    # a tuple per vehicle per step: 170 B/row; the ring's columns: 34 B/row
    assert _peak_bytes(record_and_write) / rows < 80
    # with the chart, lists of points: 412 B/row; packed: 64 B/row
    assert _peak_bytes(record_and_draw) / rows < 160
