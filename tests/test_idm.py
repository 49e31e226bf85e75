"""Car-following acceleration law: hand-checked values and limit behavior."""

import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ringflow import AlreadyCollidingError, IdmParams, ScenarioConfig
from ringflow.config import config_to_kv
from ringflow.idm import idm_acceleration, idm_acceleration_vec

from conftest import equilibrium_speed, idm_params_drawn

FIELDS = ("v0", "T", "a_max", "b", "delta", "s0", "vehicle_length")
OPERANDS = ("v0", "T", "a_max", "delta", "s0", "vehicle_length",
            "two_sqrt_ab")


def test_hand_value_matched_speeds_midrange_gap(idm_params):
    # v=10, leader 10, gap 30: s* = 2 + 10*1.5 = 17
    a = idm_acceleration(10.0, 10.0, 30.0, idm_params)
    expected = 1.0 * (1.0 - (10.0 / 30.0) ** 4 - (17.0 / 30.0) ** 2)
    assert a == pytest.approx(expected, abs=1e-12)
    assert a == pytest.approx(0.6665, abs=5e-4)


def test_standstill_free_road_gives_max_acceleration(idm_params):
    a = idm_acceleration(0.0, 0.0, 1e6, idm_params)
    assert a == pytest.approx(idm_params.a_max, abs=1e-6)


def test_desired_speed_free_road_gives_zero_acceleration(idm_params):
    a = idm_acceleration(idm_params.v0, idm_params.v0, 1e6, idm_params)
    assert a == pytest.approx(0.0, abs=1e-6)


def test_nonpositive_gap_raises(idm_params):
    with pytest.raises(AlreadyCollidingError):
        idm_acceleration(5.0, 5.0, 0.0, idm_params)
    with pytest.raises(AlreadyCollidingError):
        idm_acceleration(5.0, 5.0, -1.0, idm_params)


def test_desired_speed_override_caps_speed(idm_params):
    # At 20 m/s with a 15 m/s limit the law must brake even on a free road.
    a = idm_acceleration(20.0, 20.0, 1e6, idm_params, v_desired=15.0)
    assert a < 0.0


def test_vectorized_matches_scalar(idm_params):
    rng = np.random.default_rng(0)
    v = rng.uniform(0, 30, 50)
    lv = rng.uniform(0, 30, 50)
    gap = rng.uniform(1, 100, 50)
    vec = idm_acceleration_vec(v, lv, gap, idm_params)
    scal = [idm_acceleration(*args, idm_params) for args in zip(v, lv, gap)]
    np.testing.assert_allclose(vec, scal, rtol=0, atol=1e-12)


def test_equilibrium_speed_is_a_fixed_point(idm_params):
    for gap in (5.0, 10.0, 20.0, 50.0):
        v_eq = equilibrium_speed(gap, idm_params)
        a = idm_acceleration(v_eq, v_eq, gap, idm_params)
        assert a == pytest.approx(0.0, abs=1e-9)


def test_equilibrium_speed_monotone_in_gap(idm_params):
    gaps = [3.0, 6.0, 12.0, 25.0, 50.0, 100.0]
    speeds = [equilibrium_speed(g, idm_params) for g in gaps]
    assert all(b > a for a, b in zip(speeds, speeds[1:]))
    assert speeds[-1] < idm_params.v0


@given(
    v=st.floats(0.0, 30.0),
    lv=st.floats(0.0, 30.0),
    gap=st.floats(0.5, 1000.0),
)
def test_acceleration_bounded_above_by_a_max(v, lv, gap):
    p = IdmParams()
    assert idm_acceleration(v, lv, gap, p) <= p.a_max + 1e-12


def test_closing_fast_brakes_harder_than_steady(idm_params):
    steady = idm_acceleration(10.0, 10.0, 15.0, idm_params)
    closing = idm_acceleration(10.0, 2.0, 15.0, idm_params)
    assert closing < steady


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        IdmParams(v0=-1.0)
    with pytest.raises(ValueError):
        IdmParams(T=0.0)
    with pytest.raises(ValueError):
        IdmParams(a_max=-0.5)


# -------------------------------------------- constant operands of the kernel


@given(idm_params_drawn)
def test_constant_operands_are_read_only_arrays_of_the_fields(p):
    values = {name: getattr(p, name) for name in OPERANDS[:-1]}
    values["two_sqrt_ab"] = 2.0 * math.sqrt(p.a_max * p.b)
    for name, value in values.items():
        operand = getattr(p, f"_{name}")
        assert operand.dtype == np.float64 and operand.ndim == 0, name
        assert operand.item().hex() == float(value).hex(), name
        with pytest.raises(ValueError, match="read-only"):
            operand[()] = 0.0


def test_replace_makes_new_constant_operands():
    p = IdmParams()
    q = replace(p, v0=25.0, b=3.0)
    assert (p._v0, q._v0) == (30.0, 25.0)
    assert q._two_sqrt_ab == 2.0 * math.sqrt(3.0)
    for name in OPERANDS:
        assert getattr(q, f"_{name}") is not getattr(p, f"_{name}"), name


def test_constant_operands_are_no_part_of_the_parameters_value():
    p, q = IdmParams(), IdmParams()
    assert p._v0 is not q._v0
    assert tuple(f.name for f in fields(IdmParams)) == FIELDS
    assert p == q and hash(p) == hash(q)
    assert hash(p) == hash(tuple(getattr(p, name) for name in FIELDS))
    assert asdict(p) == {"v0": 30.0, "T": 1.5, "a_max": 1.0, "b": 2.0,
                         "delta": 4.0, "s0": 2.0, "vehicle_length": 5.0}
    assert [line for line in config_to_kv(ScenarioConfig()).splitlines()
            if line.startswith("idm.")] == [
        "idm.v0 = 30.0", "idm.T = 1.5", "idm.a_max = 1.0", "idm.b = 2.0",
        "idm.delta = 4.0", "idm.s0 = 2.0", "idm.vehicle_length = 5.0"]
