"""Macroscopic traffic measurement: density, flow and space-mean speed.

Flow is the loop-wide instantaneous q = k * u; densities are reported in
veh/km, flows in veh/h, speeds in m/s.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Phase(Enum):
    LOADING = "loading"
    UNLOADING = "unloading"
    CONTROLLED = "controlled"


# Rows per piece when a trace is recorded, read, written or drawn: the
# Python objects of one piece are the most any of them holds at once.
CHUNK_ROWS = 4096

_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1


@dataclass
class FdTrace:
    """Fundamental-diagram trace: array-backed, step-ordered, never empty.

    Its four columns are 1-D and of one length, at least 1, and its steps
    strictly increase; a trace that breaks one of these is a ``ValueError``
    where it is built."""

    phase: Phase
    steps: np.ndarray
    density: np.ndarray
    flow: np.ndarray
    mean_speed: np.ndarray

    def __post_init__(self):
        columns = [np.asarray(c) for c in
                   (self.steps, self.density, self.flow, self.mean_speed)]
        if any(c.ndim != 1 for c in columns):
            raise ValueError("FdTrace columns must be 1-D")
        if len({len(c) for c in columns}) != 1:
            raise ValueError("FdTrace columns must all have one length")
        steps = columns[0]
        if len(steps) == 0:
            raise ValueError("an FdTrace needs at least one sample")
        if not (steps[1:] > steps[:-1]).all():  # no diff: it could wrap
            raise ValueError("FdTrace steps must strictly increase")

    def __len__(self):
        return len(self.steps)

    def decimate(self, factor):
        if factor < 1:
            raise ValueError("decimation factor must be >= 1")
        return FdTrace(
            phase=self.phase,
            steps=self.steps[::factor].copy(),
            density=self.density[::factor].copy(),
            flow=self.flow[::factor].copy(),
            mean_speed=self.mean_speed[::factor].copy(),
        )

    def write(self, path):
        """One CSV row per sample, formatted from Python numbers
        (``tolist``), which print as numpy's do; ``CHUNK_ROWS`` rows to a
        ``write`` call."""
        phase = self.phase.value
        with open(path, "w") as f:
            f.write("step,phase,density_veh_km,flow_veh_h,mean_speed_mps\n")
            for i in range(0, len(self), CHUNK_ROWS):
                piece = slice(i, i + CHUNK_ROWS)
                rows = zip(map(int, self.steps[piece].tolist()),
                           self.density[piece].tolist(),
                           self.flow[piece].tolist(),
                           self.mean_speed[piece].tolist())
                f.write("".join(f"{step},{phase},{k:.9g},{q:.9g},{u:.9g}\n"
                                for step, k, q, u in rows))

    @staticmethod
    def read(path):
        """The trace of a file ``write`` wrote, parsed row by row into packed
        columns.  A file without rows, a row without five fields or of
        another phase, a step outside int64 and a non-finite value are
        ``ValueError``s."""
        columns = _packed_columns()
        recent = steps, density, flow, speed = [], [], [], []
        phase = None
        with open(path) as f:
            if not f.readline().startswith("step,phase,"):
                raise ValueError("not an FdTrace file")
            for number, line in enumerate(f, start=2):
                text = line.strip()
                if not text:
                    continue
                row = text.split(",")
                if len(row) != 5 or phase not in (None, row[1]):
                    raise ValueError(
                        "FdTrace rows need five fields and one phase")
                phase = row[1]
                step = int(row[0])
                if not _INT64_MIN <= step <= _INT64_MAX:
                    raise ValueError(f"FdTrace line {number}: step {row[0]} "
                                     "is outside int64")
                steps.append(step)
                density.append(float(row[2]))
                flow.append(float(row[3]))
                speed.append(float(row[4]))
                if len(steps) == CHUNK_ROWS:
                    _pack(columns, recent)
        if phase is None:
            raise ValueError("empty FdTrace file")
        _pack(columns, recent)
        steps, *values = _unpacked(columns)
        if not all(np.isfinite(c).all() for c in values):
            raise ValueError("FdTrace values must be finite")
        return FdTrace(Phase(phase), steps, *values)


def _packed_columns():
    """Empty buffers for a trace's columns: int64 steps, float64 values."""
    return array("q"), array("d"), array("d"), array("d")


def _pack(columns, recent):
    """Append the Python numbers in the lists ``recent`` to the buffers
    ``columns``, a list to a buffer, and empty the lists."""
    for column, values in zip(columns, recent):
        column.fromlist(values)
        values.clear()


def _unpacked(columns):
    """The buffers as arrays that view them; a viewed buffer cannot grow."""
    return [np.frombuffer(c, dtype=c.typecode) for c in columns]


class TraceRecorder:
    """Accumulates per-step measurements into an FdTrace.

    Each step appends to four lists, the cheapest call per step, and every
    ``CHUNK_ROWS`` steps the lists are packed into ``array`` buffers, one
    machine number per value; ``finish`` hands the buffers to the trace
    without a copy.  A long trace never holds a Python object per sample."""

    def __init__(self, phase):
        self.phase = phase
        self._start()

    def _start(self):
        self._columns = _packed_columns()
        self._recent = ([], [], [], [])
        self._steps, self._density, self._flow, self._speed = self._recent

    def record(self, ring):
        density, flow, mean_speed = measure(ring)
        self._steps.append(ring.step_count)
        self._density.append(density)
        self._flow.append(flow)
        self._speed.append(mean_speed)
        if len(self._steps) == CHUNK_ROWS:
            _pack(self._columns, self._recent)

    def finish(self):
        """The trace of the steps recorded since the last ``finish``; the
        trace views the buffers, so the recorder starts new ones."""
        _pack(self._columns, self._recent)
        columns = self._columns
        self._start()
        return FdTrace(self.phase, *_unpacked(columns))


def measure(ring):
    """Instantaneous loop-wide ``(density, flow, mean_speed)``, in FdTrace
    column order: k = N/L, u = mean speed, q = k*u; all 0.0 when empty."""
    density = ring.n / ring.length * 1000.0  # veh/km
    u = ring.mean_speed()
    return density, density * u * 3.6, u  # veh/km * m/s -> veh/h


def _branch_curve(trace):
    """Monotone sub-branch of a trace as (density, flow) ready for interp.

    Restricted to densities at or below the trace's flow-peak density; ties
    in density are flow-averaged.
    """
    k_peak = trace.density[int(np.argmax(trace.flow))]
    mask = trace.density <= k_peak
    k = trace.density[mask]
    q = trace.flow[mask]
    uk, inv = np.unique(k, return_inverse=True)
    qsum = np.zeros_like(uk)
    cnt = np.zeros_like(uk)
    np.add.at(qsum, inv, q)
    np.add.at(cnt, inv, 1.0)
    return uk, qsum / cnt


def interp_flow(trace, density):
    """Piecewise-linear flow at a density on the trace's monotone sub-branch."""
    k, q = _branch_curve(trace)
    if density < k[0] or density > k[-1]:
        raise ValueError(
            f"density {density} outside branch range [{k[0]}, {k[-1]}]"
        )
    return float(np.interp(density, k, q))


def hysteresis_gap(loading, unloading, density):
    """Flow difference between the loading and unloading branches at a density."""
    return interp_flow(loading, density) - interp_flow(unloading, density)


def peak_flow(trace):
    """``(density, flow)`` of the trace's first maximum-flow sample."""
    i = int(np.argmax(trace.flow))
    return float(trace.density[i]), float(trace.flow[i])
