"""The SVG chart emitter draws the same document from numpy arrays as from
the same values in Python lists."""

import dataclasses

import numpy as np
import pytest

from ringflow import FdTrace, Phase
from ringflow import svgplot


def _trace(phase, seed, n=400):
    rng = np.random.default_rng(seed)
    density = rng.uniform(0.0, 68.0, n)
    density[:3] = (-0.0, 1e-300, 68.0)
    return FdTrace(phase=phase, steps=np.arange(n, dtype=np.int64),
                   density=density, flow=rng.uniform(0.0, 2200.0, n),
                   mean_speed=rng.uniform(0.0, 30.0, n))


def _as_lists(trace):
    return dataclasses.replace(
        trace, steps=trace.steps.tolist(), density=trace.density.tolist(),
        flow=trace.flow.tolist(), mean_speed=trace.mean_speed.tolist())


def test_fundamental_diagram_is_the_same_from_arrays_and_lists():
    traces = [_trace(Phase.LOADING, 0), _trace(Phase.UNLOADING, 1)]
    svg = svgplot.fundamental_diagram_chart(traces, "FD").render()
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<circle") == 800
    listed = [_as_lists(t) for t in traces]
    assert svgplot.fundamental_diagram_chart(listed, "FD").render() == svg


def test_line_chart_is_the_same_from_arrays_and_lists():
    t = _trace(Phase.CONTROLLED, 2, n=5000)
    chart = svgplot.Chart("t", "x", "y").line(t.steps, t.flow, label="q")
    listed = svgplot.Chart("t", "x", "y").line(
        list(range(len(t))), t.flow.tolist(), label="q")
    assert chart.render() == listed.render()
    assert chart.render().count("<polyline") == 1


@pytest.mark.parametrize("kind", ["line", "points"])
def test_a_chart_drawn_in_small_pieces_is_the_same(tmp_path, monkeypatch,
                                                   kind):
    t = _trace(Phase.CONTROLLED, 3, n=50)
    flow = t.flow.copy()
    flow[[7, 8, 21, 49]] = np.nan  # pieces of 7 start at 7 and 21

    def draw():
        chart = svgplot.Chart("t", "x", "y")
        getattr(chart, kind)(t.steps, flow, label="q")
        return chart.points(t.density, t.mean_speed, label="u")

    whole = draw().render()  # one piece
    assert whole.count("<polyline") == (kind == "line")
    monkeypatch.setattr(svgplot, "CHUNK_ROWS", 7)
    assert draw().render() == whole
    draw().write(tmp_path / "c.svg")
    assert (tmp_path / "c.svg").read_text() == whole
