"""Intelligent Driver Model longitudinal dynamics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _operand(value):
    """``value`` as a read-only 0-d float64 array: what numpy makes of a
    Python float operand on every ufunc call, made once."""
    operand = np.array(value, dtype=np.float64)
    operand.setflags(write=False)
    return operand


_ZERO, _ONE = _operand(0.0), _operand(1.0)


class AlreadyCollidingError(ValueError):
    """Raised when the scalar IDM reference is evaluated at a non-positive
    gap."""


@dataclass(frozen=True)
class IdmParams:
    """Car-following parameters.

    v0: desired speed (m/s)
    T: safe time headway (s)
    a_max: maximum acceleration (m/s^2)
    b: comfortable deceleration (m/s^2)
    delta: acceleration exponent
    s0: minimum bumper-to-bumper gap (m)
    vehicle_length: m
    """

    v0: float = 30.0
    T: float = 1.5
    a_max: float = 1.0
    b: float = 2.0
    delta: float = 4.0
    s0: float = 2.0
    vehicle_length: float = 5.0

    def __post_init__(self):
        for name in ("v0", "T", "a_max", "b", "delta", "s0", "vehicle_length"):
            value = getattr(self, name)
            if isinstance(value, bool) or not 0 < value < math.inf:
                raise ValueError(f"IdmParams.{name} must be finite and "
                                 f"strictly positive, not a bool")
        if self.delta < 1:
            raise ValueError("IdmParams.delta must be >= 1")
        # the operands of ``idm_acceleration_vec`` and ``ring.step``, each
        # field as ``_<name>`` and the braking denominator 2 sqrt(a_max b),
        # made once (not fields: equality, hashing and the config format
        # ignore them)
        for name in ("v0", "T", "a_max", "delta", "s0", "vehicle_length"):
            object.__setattr__(self, f"_{name}", _operand(getattr(self, name)))
        object.__setattr__(self, "_two_sqrt_ab",
                           _operand(2.0 * math.sqrt(self.a_max * self.b)))

    def check_speed_limit(self, v_desired):
        """``ValueError`` unless ``v_desired`` is finite and positive and the
        free-road term ``(v0 / v_desired) ** delta`` stays finite, so that
        no speed in [0, v0] gets an infinite acceleration."""
        try:
            ok = (0.0 < v_desired < math.inf
                  and (self.v0 / v_desired) ** self.delta < math.inf)
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError(f"speed limit {v_desired!r} must be finite and "
                             "positive, and (v0 / limit) ** delta finite")


def idm_acceleration(v, leader_v, gap, params, v_desired=None):
    """Acceleration of a follower at speed ``v`` behind a leader at ``leader_v``.

    ``gap`` is the bumper-to-bumper distance (m, must be > 0).  ``v_desired``
    overrides the desired speed (used by speed-limit control); defaults to
    ``params.v0``.

    The simulator steps with ``idm_acceleration_vec``.  This scalar form,
    with its ``AlreadyCollidingError``, is kept as the written-out reference
    that the tests compare the vectorized form against.
    """
    if gap <= 0:
        raise AlreadyCollidingError(f"gap {gap} <= 0: vehicles already colliding")
    vd = params.v0 if v_desired is None else v_desired
    dv = v - leader_v
    s_star = params.s0 + max(
        0.0, v * params.T + v * dv / (2.0 * math.sqrt(params.a_max * params.b))
    )
    return params.a_max * (1.0 - (v / vd) ** params.delta - (s_star / gap) ** 2)


def idm_acceleration_vec(v, leader_v, gap, params, v_desired=None):
    """Vectorized ``idm_acceleration`` over numpy arrays (gaps must be > 0).

    The operations, and the operands of each, are those of the scalar form
    in the same order, so the bits are too.  They run in place on three
    fresh temporaries (the third argument of a ufunc is its output), never
    in an argument.  A constant operand is the read-only 0-d float64 array
    that ``params`` (or this module) made once, never a Python float: numpy
    would convert the float to just such an array on every call, so the
    loop and the bits are the same and the conversion is saved.  A speed
    limit ``v_desired`` changes from call to call and stays a float.
    """
    vd = params._v0 if v_desired is None else v_desired
    s_star = np.subtract(v, leader_v)  # dv
    np.multiply(v, s_star, s_star)
    np.divide(s_star, params._two_sqrt_ab, s_star)
    np.add(v * params._T, s_star, s_star)
    np.maximum(_ZERO, s_star, out=s_star)
    np.add(params._s0, s_star, s_star)
    np.divide(s_star, gap, s_star)
    np.square(s_star, s_star)  # what ``** 2`` calls
    accel = v / vd
    np.power(accel, params._delta, accel)
    np.subtract(_ONE, accel, accel)
    np.subtract(accel, s_star, accel)
    np.multiply(params._a_max, accel, accel)
    return accel
