"""Output-correctness checks: byte digests against recorded references, and
physical invariants for every seed.

References are valid only on the platform that recorded them (numpy and
OpenBLAS versions and the CPU's SIMD features), because the float kernels
those select can round differently.  Elsewhere only the invariants and the
in-run repeat checks apply, and the result says so.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

REFS_PATH = Path(__file__).with_name("refs.json")


def digest(data):
    """sha256 hex digest of bytes, or of a float's exact hex form."""
    if isinstance(data, float):
        data = data.hex().encode()
    return hashlib.sha256(data).hexdigest()


def platform_stamp():
    from numpy._core._multiarray_umath import __cpu_features__

    features = ",".join(sorted(k for k, on in __cpu_features__.items() if on))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_features": hashlib.sha256(features.encode()).hexdigest()[:16],
    }


def load_refs():
    if not REFS_PATH.exists():
        return {"platform": None, "workloads": {}}
    return json.loads(REFS_PATH.read_text())


class Checks:
    """Counts checks attempted and names the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def same(self, name, expected, actual):
        """Equal values; a missing expectation (``None``) is not a check."""
        if expected is not None:
            self.check(name, expected == actual)


def compare_digests(checks, prefix, digests, *references):
    """Compare each digest against every reference dict that has it."""
    for ref in references:
        for key, value in digests.items():
            checks.same(f"{prefix}{key}", (ref or {}).get(key), value)


def check_trace(checks, name, trace, v0, max_len=None, density=None):
    """Invariants of an FdTrace: consecutive steps, speeds in [0, v0], flow
    equal to density times speed, and optionally a fixed density."""
    steps, k, q, u = trace.steps, trace.density, trace.flow, trace.mean_speed
    checks.check(f"{name}.nonempty", len(trace) > 0)
    if max_len is not None:
        checks.check(f"{name}.length", len(trace) <= max_len)
    checks.check(f"{name}.consecutive_steps", bool(np.all(np.diff(steps) == 1)))
    checks.check(f"{name}.speed_range",
                 bool(np.all((u >= 0.0) & (u <= v0))))
    checks.check(f"{name}.flow_is_k_times_u",
                 bool(np.allclose(q, k * u * 3.6, rtol=1e-6, atol=1e-6)))
    if density is not None:
        checks.check(f"{name}.density", bool(np.allclose(k, density)))


def check_ring(checks, name, ring, count, cav_count=None):
    """Ring invariants: vehicle count, positions in [0, L) in cyclic order,
    speeds in [0, v0], and positive gaps unless the ring is terminal."""
    pos, v, p = ring.positions, ring.speeds, ring.params
    checks.check(f"{name}.count", ring.n == count)
    if cav_count is not None:
        checks.check(f"{name}.cav_count", ring.cav_count == cav_count)
    checks.check(f"{name}.position_range",
                 bool(np.all((pos >= 0.0) & (pos < ring.length))))
    # ring order is ascending position with at most one wrap-around
    checks.check(f"{name}.cyclic_order", int(np.sum(np.diff(pos) < 0)) <= 1)
    checks.check(f"{name}.speed_range", bool(np.all((v >= 0.0) & (v <= p.v0))))
    gaps = (np.roll(pos, -1) - pos) % ring.length - p.vehicle_length
    checks.check(f"{name}.gaps_positive",
                 ring.terminal or bool(np.all(gaps > 0.0)))
