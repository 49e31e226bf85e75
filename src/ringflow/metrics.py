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


_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1


@dataclass
class FdTrace:
    """Fundamental-diagram trace: array-backed, step-ordered, never empty.

    Its steps are int64 and its values float64, bound as such where it is
    built (an array of that dtype is kept, not copied); its four columns are
    1-D and of one length, at least 1, and its steps strictly increase.  A
    trace whose steps are not integers int64 holds, or that breaks one of
    these, is a ``ValueError`` where it is built."""

    phase: Phase
    steps: np.ndarray
    density: np.ndarray
    flow: np.ndarray
    mean_speed: np.ndarray

    def __post_init__(self):
        steps = np.asarray(self.steps)
        if not (np.issubdtype(steps.dtype, np.integer)
                and np.can_cast(steps.dtype, np.int64)):
            raise ValueError(f"FdTrace steps must be integers that int64 "
                             f"holds, not {steps.dtype}")
        self.steps = steps = np.asarray(steps, np.int64)
        self.density, self.flow, self.mean_speed = (
            np.asarray(c, np.float64)
            for c in (self.density, self.flow, self.mean_speed))
        columns = (steps, self.density, self.flow, self.mean_speed)
        if any(c.ndim != 1 for c in columns):
            raise ValueError("FdTrace columns must be 1-D")
        if len({len(c) for c in columns}) != 1:
            raise ValueError("FdTrace columns must all have one length")
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
        """One CSV row per sample, formatted from the Python numbers that
        iterating the columns' memoryviews yields one at a time, which print
        as numpy's do."""
        phase = self.phase.value
        columns = (self.steps, self.density, self.flow, self.mean_speed)
        with open(path, "w") as f:
            f.write("step,phase,density_veh_km,flow_veh_h,mean_speed_mps\n")
            f.writelines(f"{step},{phase},{k:.9g},{q:.9g},{u:.9g}\n"
                         for step, k, q, u in zip(*map(memoryview, columns)))

    @staticmethod
    def read(path):
        """The trace of a file ``write`` wrote, parsed row by row into packed
        columns.  A file without rows, a row without five fields or of
        another phase, a step outside int64, a non-finite value and a last
        row without its newline (a cut file: ``write`` ends every row with
        one) are ``ValueError``s."""
        columns = steps, density, flow, speed = _packed_columns()
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
        if phase is None:
            raise ValueError("empty FdTrace file")
        # ``line`` is the file's last line, the only one that can lack "\n"
        if not line.endswith("\n") and line.strip():
            raise ValueError(f"FdTrace line {number} was cut (no newline)")
        steps, *values = _unpacked(columns)
        if not all(np.isfinite(c).all() for c in values):
            raise ValueError("FdTrace values must be finite")
        return FdTrace(Phase(phase), steps, *values)


def _packed_columns():
    """Empty buffers for a trace's columns: int64 steps, float64 values."""
    return array("q"), array("d"), array("d"), array("d")


def _unpacked(columns):
    """The buffers as arrays that view them; a viewed buffer cannot grow."""
    return [np.frombuffer(c, dtype=c.typecode) for c in columns]


class TraceRecorder:
    """Accumulates per-step measurements into an FdTrace.

    Each step appends to four ``array`` buffers, one machine number per
    value, and ``finish`` hands the buffers to the trace without a copy, so
    a long trace never holds a Python object per sample."""

    def __init__(self, phase):
        self.phase = phase
        self._start()

    def _start(self):
        self._columns = _packed_columns()
        self._steps, self._density, self._flow, self._speed = self._columns

    def record(self, ring):
        density, flow, mean_speed = measure(ring)
        self._steps.append(ring.step_count)
        self._density.append(density)
        self._flow.append(flow)
        self._speed.append(mean_speed)

    def _record_block(self, last_step, speeds, length):
        """Record the steps up to ``last_step`` of a ring on a loop of
        ``length`` whose speeds after each step are the rows of ``speeds``,
        a (steps, n) block of one vehicle count n: ``measure`` of each, bit
        for bit.  A row's sum is the pairwise sum ``np.add.reduce`` takes of
        the row alone, and the rest is the same float64 arithmetic in the
        same order."""
        steps, n = speeds.shape
        density = np.full(steps, n / length * 1000.0)
        u = np.add.reduce(speeds, axis=1) / n
        self._steps.extend(range(last_step - steps + 1, last_step + 1))
        for buffer, column in zip(self._columns[1:],
                                  (density, density * u * 3.6, u)):
            buffer.frombytes(column.tobytes())

    def finish(self):
        """The trace of the steps recorded since the last ``finish``; the
        trace views the buffers, so the recorder starts new ones."""
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
