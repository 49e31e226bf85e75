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


@pytest.mark.parametrize("xs", [[-1e308, 1e308], [0.0, 5e-324],
                                [1e300, 1e300], [1e16, 1e16 + 2.0]],
                         ids=["overflowing", "subnormal", "one-huge-value",
                              "below-tick-resolution"])
def test_a_series_on_an_axis_its_ticks_cannot_mark_is_rejected(xs):
    # the last once looped forever: a tick step below an ulp never moved
    with pytest.raises(ValueError, match="chart series 'bad'"):
        svgplot.Chart().points(xs, [0.0, 1.0], label="bad")
    with pytest.raises(ValueError, match="chart series 'bad'"):
        svgplot.Chart().line([0.0, 1.0], xs, label="bad")


def test_series_that_overflow_an_axis_only_together_are_rejected():
    chart = svgplot.Chart().points([-1e308, 0.0], [0.0, 1.0], label="low")
    svg = chart.render()
    with pytest.raises(ValueError, match="chart series 'high'"):
        chart.points([1e308], [0.0], label="high")
    assert chart.render() == svg  # the rejected series left no trace


@pytest.mark.parametrize("lo, hi, ticks", [
    (0.0, 4e-11, [0.0, 1e-11, 2e-11, 3e-11, 4e-11]),
    (1.0, 1.0 + 4e-11,
     [1.00000000001, 1.00000000002, 1.00000000003, 1.00000000004]),
    (0.0, 6e-3, [0.0, 0.002, 0.004, 0.006]),
], ids=["narrow-at-zero", "narrow-at-one", "wide"])
def test_ticks_are_rounded_to_the_digits_their_step_needs(lo, hi, ticks):
    # every tick was round(t, 10): five 0.0 for the first axis, four 1.0
    # for the second
    assert svgplot._nice_ticks(lo, hi) == ticks


def test_a_tick_that_rounds_to_zero_is_labelled_0_not_minus_0():
    # the running sum of the ticks passes 0 at about -1.4e-17, which rounds
    # to -0.0 and was labelled "-0"
    ticks = svgplot._nice_ticks(-0.108563, 0.086316)
    assert ticks == [-0.1, -0.05, 0.0, 0.05]
    assert [math.copysign(1.0, t) for t in ticks] == [-1.0, -1.0, 1.0, 1.0]
    svg = svgplot.Chart().points([0, 1], [-0.1, 0.08]).render()
    assert ">-0</text>" not in svg
    assert svg.count(">0</text>") == 2  # the x axis's first tick, and y's
