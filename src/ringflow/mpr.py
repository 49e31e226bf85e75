"""Minimum CAV count to restore a pre-departure average time headway.

The blended loop-average headway with ``count`` CAVs at headway ``cav_headway``
and the rest of the fleet at the current average is affine in the count;
solving it for the previous average gives the required number of CAVs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .net import check_count


class InfeasibleError(ValueError):
    """The requested headway cannot be reached with the available fleet."""


class DegenerateScenarioError(ValueError):
    """CAV headway equals the current average: the count has no effect."""


@dataclass(frozen=True)
class HeadwayScenario:
    prev_headway: float  # s, the average to restore
    cur_headway: float  # s, the post-departure average
    total_vehicles: int
    cav_headway: float  # s, desired CAV headway

    def __post_init__(self):
        if not all(not isinstance(h, bool) and 0 < h < math.inf for h in (
                self.prev_headway, self.cur_headway, self.cav_headway)):
            raise ValueError("headways must be finite and positive, no bools")
        check_count("total_vehicles", self.total_vehicles, 1)


def required_cavs(scenario):
    """Returns ``(raw, count)``: the exact real solution and its ceiling.

    Raises DegenerateScenarioError when cav_headway == cur_headway, and
    InfeasibleError when the solution is negative (wrong-signed headways) or
    exceeds the fleet size.
    """
    s = scenario
    denom = s.cav_headway - s.cur_headway
    if denom == 0:
        if s.prev_headway == s.cur_headway:
            return 0.0, 0
        raise DegenerateScenarioError(
            "cav_headway equals current headway: no count changes the average"
        )
    raw = s.total_vehicles * (s.prev_headway - s.cur_headway) / denom
    if raw < 0:
        raise InfeasibleError(
            f"inconsistent headway signs (raw count {raw:.6g} < 0): "
            "the CAV headway moves the average away from the target"
        )
    if raw > s.total_vehicles:
        raise InfeasibleError(
            f"raw count {raw:.6g} exceeds fleet size {s.total_vehicles}"
        )
    # Guard the ceiling against float noise: 10 + 2e-15 must stay 10.
    nearest = round(raw)
    if abs(raw - nearest) < 1e-9:
        count = int(nearest)
    else:
        count = math.ceil(raw)
    return raw, count


def verify_headway(scenario, count):
    """Blended loop-average headway with ``count`` CAVs (forward check)."""
    s = scenario
    if not 0 <= count <= s.total_vehicles:
        raise ValueError(f"count {count} outside [0, {s.total_vehicles}]")
    return (
        (s.total_vehicles - count) * s.cur_headway + s.cav_headway * count
    ) / s.total_vehicles
