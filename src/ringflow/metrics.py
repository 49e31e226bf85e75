"""Macroscopic traffic measurement: density, flow and space-mean speed.

Flow is the loop-wide instantaneous q = k * u; densities are reported in
veh/km, flows in veh/h, speeds in m/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Phase(Enum):
    LOADING = "loading"
    UNLOADING = "unloading"
    CONTROLLED = "controlled"


@dataclass
class FdTrace:
    """Fundamental-diagram trace: array-backed, step-ordered, never empty."""

    phase: Phase
    steps: np.ndarray
    density: np.ndarray
    flow: np.ndarray
    mean_speed: np.ndarray

    def __post_init__(self):
        if len(self.steps) == 0:
            raise ValueError("an FdTrace needs at least one sample")

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
        (``tolist``), which print as numpy's do."""
        phase = self.phase.value
        rows = zip(map(int, self.steps.tolist()), self.density.tolist(),
                   self.flow.tolist(), self.mean_speed.tolist())
        with open(path, "w") as f:
            f.write("step,phase,density_veh_km,flow_veh_h,mean_speed_mps\n")
            f.writelines(f"{step},{phase},{k:.9g},{q:.9g},{u:.9g}\n"
                         for step, k, q, u in rows)

    @staticmethod
    def read(path):
        with open(path) as f:
            header = f.readline()
            if not header.startswith("step,phase,"):
                raise ValueError("not an FdTrace file")
            rows = [line.strip().split(",") for line in f if line.strip()]
        if not rows:
            raise ValueError("empty FdTrace file")
        if any(len(r) != 5 or r[1] != rows[0][1] for r in rows):
            raise ValueError("FdTrace rows need five fields and one phase")
        columns = [np.array([float(r[i]) for r in rows]) for i in (2, 3, 4)]
        if not all(np.isfinite(c).all() for c in columns):
            raise ValueError("FdTrace values must be finite")
        return FdTrace(Phase(rows[0][1]),
                       np.array([int(r[0]) for r in rows], dtype=np.int64),
                       *columns)


class TraceRecorder:
    """Accumulates per-step measurements into an FdTrace."""

    def __init__(self, phase):
        self.phase = phase
        self._steps = []
        self._density = []
        self._flow = []
        self._speed = []

    def record(self, ring):
        density, flow, mean_speed = measure(ring)
        self._steps.append(ring.step_count)
        self._density.append(density)
        self._flow.append(flow)
        self._speed.append(mean_speed)

    def finish(self):
        return FdTrace(
            phase=self.phase,
            steps=np.array(self._steps, dtype=np.int64),
            density=np.array(self._density),
            flow=np.array(self._flow),
            mean_speed=np.array(self._speed),
        )


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
