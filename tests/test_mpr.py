"""Closed-form minimum CAV count from loop-average time headways."""

import math

import pytest
from hypothesis import given, strategies as st

from ringflow import (
    DegenerateScenarioError,
    HeadwayScenario,
    InfeasibleError,
    required_cavs,
    verify_headway,
)


def test_exact_integer_solution():
    s = HeadwayScenario(prev_headway=2.5, cur_headway=2.6,
                        total_vehicles=60, cav_headway=2.0)
    raw, count = required_cavs(s)
    assert raw == pytest.approx(10.0, abs=1e-12)
    assert count == 10


def test_no_change_needed():
    s = HeadwayScenario(2.6, 2.6, 60, 2.0)
    assert required_cavs(s) == (0.0, 0)


def test_fractional_solution_rounds_up():
    s = HeadwayScenario(prev_headway=2.549, cur_headway=2.5779,
                        total_vehicles=67, cav_headway=2.0)
    raw, count = required_cavs(s)
    assert raw == pytest.approx(3.3506, abs=1e-3)
    assert count == 4
    # rounding up overshoots slightly past the target, never undershoots
    assert verify_headway(s, count) <= s.prev_headway
    assert verify_headway(s, count - 1) > s.prev_headway


def test_verify_headway_endpoints():
    s = HeadwayScenario(2.5, 2.6, 60, 2.0)
    assert verify_headway(s, 0) == pytest.approx(2.6)
    assert verify_headway(s, 60) == pytest.approx(2.0)
    assert verify_headway(s, 10) == pytest.approx(2.5, abs=1e-12)


def test_wrong_signed_headways_infeasible():
    # CAV headway above current: substitution moves the average away.
    s = HeadwayScenario(prev_headway=2.5, cur_headway=2.6,
                        total_vehicles=60, cav_headway=3.0)
    with pytest.raises(InfeasibleError):
        required_cavs(s)


def test_fleet_too_small_infeasible():
    s = HeadwayScenario(prev_headway=1.0, cur_headway=2.6,
                        total_vehicles=10, cav_headway=2.0)
    with pytest.raises(InfeasibleError):
        required_cavs(s)


def test_degenerate_when_cavs_match_current():
    s = HeadwayScenario(prev_headway=2.5, cur_headway=2.6,
                        total_vehicles=60, cav_headway=2.6)
    with pytest.raises(DegenerateScenarioError):
        required_cavs(s)


def test_input_validation():
    with pytest.raises(ValueError):
        HeadwayScenario(0.0, 2.6, 60, 2.0)
    with pytest.raises(ValueError):
        HeadwayScenario(2.5, 2.6, 0, 2.0)
    for bad in (math.inf, math.nan, -math.inf):
        for args in ((bad, 2.6, 60, 2.0), (2.5, bad, 60, 2.0),
                     (2.5, 2.6, 60, bad)):
            with pytest.raises(ValueError, match="finite and positive"):
                HeadwayScenario(*args)
    s = HeadwayScenario(2.5, 2.6, 60, 2.0)
    with pytest.raises(ValueError):
        verify_headway(s, 61)


@pytest.mark.parametrize("args", [
    (2.5, 2.6, True, 2.0),
    (2.5, 2.6, 60.5, 2.0),
    (2.5, 2.6, 60.0, 2.0),
    (True, 2.6, 60, 2.0),
    (2.5, True, 60, 2.0),
    (2.5, 2.6, 60, True),
], ids=["fleet-bool", "fleet-fraction", "fleet-float", "prev-bool",
        "cur-bool", "cav-bool"])
def test_bools_and_fractions_are_rejected(args):
    # a bool is no headway and no fleet, and the fleet is a whole count
    with pytest.raises(ValueError, match="int|bool"):
        HeadwayScenario(*args)


@given(
    prev=st.floats(1.1, 3.0),
    cur=st.floats(1.1, 3.0),
    n=st.integers(1, 500),
)
def test_round_trip_recovers_target(prev, cur, n):
    cav = 1.0
    s = HeadwayScenario(prev, cur, n, cav)
    try:
        raw, count = required_cavs(s)
    except InfeasibleError:
        return
    # substituting the exact real count back recovers the target headway
    blended = ((n - raw) * cur + raw * cav) / n
    assert blended == pytest.approx(prev, abs=1e-12)
    assert 0 <= count <= n
