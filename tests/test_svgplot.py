"""The SVG chart emitter draws the same document from numpy arrays as from
the same values in Python lists, and skips the pairs that are not finite."""

import math
from types import SimpleNamespace

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
    """A stand-in for the trace whose columns are Python lists (an FdTrace
    binds its columns as arrays)."""
    return SimpleNamespace(
        phase=trace.phase, steps=trace.steps.tolist(),
        density=trace.density.tolist(), flow=trace.flow.tolist(),
        mean_speed=trace.mean_speed.tolist())


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


def _scalar_circles(chart, xs, ys, color):
    """The reference for one series' circles: each point placed by scalar
    arithmetic on Python floats."""
    x0, x1, y0, y1 = chart._bounds()
    return "".join(
        f'\n<circle cx="{70 + (x - x0) / (x1 - x0) * 630:.1f}" '
        f'cy="{40 + 385 - (y - y0) / (y1 - y0) * 385:.1f}" r="1.6" '
        f'fill="{color}"/>' for x, y in zip(xs, ys))


def test_points_are_placed_as_python_floats_place_them():
    t = _trace(Phase.LOADING, 4, n=2000)
    chart = svgplot.fundamental_diagram_chart([t])
    assert _scalar_circles(chart, t.density.tolist(), t.flow.tolist(),
                           "#1f77b4") in chart.render()


@pytest.mark.parametrize("kind", ["line", "points"])
@pytest.mark.parametrize("ys", [[1.0, math.inf, 2.0], [math.nan, 1.0, 2.0],
                                [1.0, 2.0, -math.inf]],
                         ids=["inf-inside", "nan-first", "-inf-last"])
def test_a_chart_skips_pairs_that_are_not_finite(kind, ys):
    def draw(xs, ys):
        return getattr(svgplot.Chart("t", "x", "y"), kind)(xs, ys, label="q")

    kept = [(x, y) for x, y in zip([0, 1, 2], ys) if math.isfinite(y)]
    svg = draw([0, 1, 2], ys).render()
    assert svg == draw(*zip(*kept)).render()
    if kind == "line":
        assert svg.count("<polyline") == 1
    else:
        assert svg.count("<circle") == 2


@pytest.mark.parametrize("kind", ["line", "points"])
def test_a_series_without_a_finite_pair_draws_no_element(kind):
    chart = getattr(svgplot.Chart("t", "x", "y"), kind)(
        [math.nan, 1.0, math.inf], [0.0, math.nan, 2.0])
    assert chart.render() == svgplot.Chart("t", "x", "y").render()


@pytest.mark.parametrize("kind", ["line", "points"])
def test_a_series_of_unequal_columns_is_rejected(kind):
    with pytest.raises(ValueError, match="one length"):
        getattr(svgplot.Chart(), kind)([0.0, 1.0, 2.0], [1.0, 2.0])


@pytest.mark.parametrize("kind", ["line", "points"])
def test_a_written_chart_is_its_rendered_document(tmp_path, kind):
    t = _trace(Phase.CONTROLLED, 3, n=50)
    chart = getattr(svgplot.Chart("t", "x", "y"), kind)(t.steps, t.flow,
                                                        label="q")
    chart.points(t.density, t.mean_speed, label="u")
    chart.write(tmp_path / "c.svg")
    assert (tmp_path / "c.svg").read_text() == chart.render()
