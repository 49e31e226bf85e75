"""Minimal self-contained SVG line/scatter chart emitter.

Plots are acceptance artifacts regenerable from their data files, so this
needs no plotting library: axes, ticks, polylines, points, legend.  A chart
keeps each series as float64 arrays of its finite pairs and streams its
document an element at a time.
"""

from __future__ import annotations

import math
import sys
from array import array

import numpy as np

from .ring import _KINDS

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 55


def _nice_ticks(lo, hi):
    span = hi - lo
    raw = span / 5  # about six ticks
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.floor(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * span:
        if t >= lo - 1e-9 * span:
            ticks.append(round(t, 10))
        t += step
    return ticks


def _markable(lo, hi):
    """Whether ``_nice_ticks`` can mark [lo, hi]: its ticks, within a step of
    a fifth to two fifths of the span around it, stay finite, and the least
    step is a normal float of at least eight ulps, so it moves a tick."""
    span = hi - lo
    reach = max(abs(lo), abs(hi)) + span / 2
    return math.isfinite(reach) and span / 5 >= max(
        sys.float_info.min, 8 * math.ulp(reach))


def _axes(x0, x1, y0, y1):
    """The axis ranges around the drawn pairs' extent: a range of one value
    widens to a unit, and y gains 4% of its range at each end."""
    if x0 == x1:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y0 == y1:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad = 0.04 * (y1 - y0)
    return x0, x1, y0 - pad, y1 + pad


def _fmt(v):
    return f"{v:g}"


class Chart:
    """A single x/y chart accumulating line and point series, each kept as
    two float64 arrays of its finite pairs."""

    def __init__(self, title="", xlabel="", ylabel=""):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.series = []  # (kind, xs, ys, label)
        self._extent = None  # (x0, x1, y0, y1) of every series' pairs

    def line(self, xs, ys, label=""):
        return self._add("line", xs, ys, label)

    def points(self, xs, ys, label=""):
        return self._add("points", xs, ys, label)

    def _add(self, kind, xs, ys, label):
        """Keep the pairs whose values are both finite.  Columns that are
        not 1-D or not of one length are a ``ValueError``, and so is a
        series that would widen an axis to a range its ticks cannot mark
        (one that overflows, or too narrow for its magnitude)."""
        xs, ys = np.asarray(xs, np.float64), np.asarray(ys, np.float64)
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise ValueError("a chart series needs two 1-D columns of one "
                             f"length, got shapes {xs.shape} and {ys.shape}")
        finite = np.isfinite(xs) & np.isfinite(ys)
        if not finite.all():
            xs, ys = xs[finite], ys[finite]
        if len(xs):
            extent = (float(xs.min()), float(xs.max()),
                      float(ys.min()), float(ys.max()))
            if self._extent is not None:
                extent = tuple(f(old, new) for f, old, new in zip(
                    (min, max, min, max), self._extent, extent))
            x0, x1, y0, y1 = _axes(*extent)
            if not (_markable(x0, x1) and _markable(y0, y1)):
                raise ValueError(
                    f"chart series {label!r} would stretch the axes to x "
                    f"[{x0!r}, {x1!r}], y [{y0!r}, {y1!r}], past what "
                    "their ticks can mark")
            self._extent = extent
        self.series.append((kind, xs, ys, label))
        return self

    def _bounds(self):
        return _axes(*self._extent) if self._extent else (0.0, 1.0, 0.0, 1.0)

    def render(self):
        return "".join(self._svg())

    def write(self, path):
        with open(path, "w") as f:
            f.writelines(self._svg())

    def _svg(self):
        """The document as text pieces, a series point by point: the pixel
        coordinates of a whole series are computed at once, and iterating
        their memoryviews yields them as Python floats one pair at a time.
        Joined, the elements stand one to a line."""
        x0, x1, y0, y1 = self._bounds()
        pw = _W - _ML - _MR
        ph = _H - _MT - _MB

        def px(x):
            return _ML + (x - x0) / (x1 - x0) * pw

        def py(y):
            return _MT + ph - (y - y0) / (y1 - y0) * ph

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
            f'height="{_H}" viewBox="0 0 {_W} {_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W / 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{self.title}</text>',
        ]
        # axes frame
        out.append(
            f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
            'fill="none" stroke="#333" stroke-width="1"/>'
        )
        for t in _nice_ticks(x0, x1):
            if not x0 <= t <= x1:
                continue
            out.append(
                f'<line x1="{px(t):.1f}" y1="{_MT + ph}" x2="{px(t):.1f}" '
                f'y2="{_MT + ph + 5}" stroke="#333"/>'
                f'<text x="{px(t):.1f}" y="{_MT + ph + 20}" '
                f'text-anchor="middle" font-family="sans-serif" '
                f'font-size="11">{_fmt(t)}</text>'
            )
        for t in _nice_ticks(y0, y1):
            if not y0 <= t <= y1:
                continue
            out.append(
                f'<line x1="{_ML - 5}" y1="{py(t):.1f}" x2="{_ML}" '
                f'y2="{py(t):.1f}" stroke="#333"/>'
                f'<text x="{_ML - 8}" y="{py(t):.1f}" text-anchor="end" '
                f'dominant-baseline="middle" font-family="sans-serif" '
                f'font-size="11">{_fmt(t)}</text>'
            )
        out.append(
            f'<text x="{_ML + pw / 2}" y="{_H - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{self.xlabel}</text>'
        )
        out.append(
            f'<text x="18" y="{_MT + ph / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {_MT + ph / 2})">{self.ylabel}</text>'
        )
        yield "\n".join(out)

        for i, (kind, xs, ys, _label) in enumerate(self.series):
            color = _COLORS[i % len(_COLORS)]
            pairs = zip(memoryview(px(xs)), memoryview(py(ys)))
            if kind == "line" and len(xs) >= 2:
                separator = '\n<polyline points="'
                for x, y in pairs:
                    yield f"{separator}{x:.1f},{y:.1f}"
                    separator = " "
                yield f'" fill="none" stroke="{color}" stroke-width="1.5"/>'
            else:
                for x, y in pairs:
                    yield (f'\n<circle cx="{x:.1f}" cy="{y:.1f}" r="1.6" '
                           f'fill="{color}"/>')
        # legend
        out = []
        ly = _MT + 12
        for i, (_, _, _, label) in enumerate(self.series):
            if not label:
                continue
            color = _COLORS[i % len(_COLORS)]
            out.append(
                f'<line x1="{_ML + pw - 150}" y1="{ly}" '
                f'x2="{_ML + pw - 125}" y2="{ly}" stroke="{color}" '
                'stroke-width="2"/>'
                f'<text x="{_ML + pw - 118}" y="{ly + 4}" '
                f'font-family="sans-serif" font-size="12">{label}</text>'
            )
            ly += 17
        out.append("</svg>")
        yield "".join("\n" + element for element in out)


def fundamental_diagram_chart(traces, title="Fundamental diagram"):
    """Density-flow chart from one or more FdTraces."""
    chart = Chart(title, "density (veh/km)", "flow (veh/h)")
    for trace in traces:
        chart.points(trace.density, trace.flow, label=trace.phase.value)
    return chart


def mean_speed_chart(trace, dt, title):
    """The mean speed of an FdTrace over time, its steps taken ``dt`` apart."""
    chart = Chart(title, "time (s)", "mean speed (m/s)")
    chart.line(trace.steps * dt, trace.mean_speed, label="mean_speed")
    return chart


def trajectory_chart(rows, dt=0.1, title="Vehicle trajectories"):
    """Space-time scatter from TrajectoryRecorder rows (wrap-safe), gathered
    into packed columns."""
    chart = Chart(title, "time (s)", "position (m)")
    columns = {kind: (array("d"), array("d")) for kind in _KINDS}
    for step_i, _vid, kind, pos, _v, _a in rows:
        xs, ys = columns[kind]
        xs.append(step_i * dt)
        ys.append(pos)
    for kind, (xs, ys) in columns.items():
        if xs:
            chart.points(xs, ys, label=kind)
    return chart
