"""Single-lane ring-road microsimulation state and mechanics.

Vehicles live on a loop of fixed length.  Humans follow the IDM; CAVs execute
an externally commanded acceleration.  The vehicle arrays are kept in cyclic
ring order, so the leader of index i is index (i+1) % n.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import repeat

import numpy as np

from .idm import _ZERO, IdmParams, _operand, idm_acceleration_vec
from . import metrics

SNAPSHOT_FORMAT = "ringflow-snapshot"
SNAPSHOT_VERSION = 1
_SNAPSHOT_KEYS = frozenset({"format", "version", "length", "dt", "step_count",
                            "terminal", "next_id", "idm", "vehicles"})
_VEHICLE_KEYS = frozenset({"id", "kind", "position", "speed", "last_accel"})

LOAD_COOLDOWN_STEPS = 600
LOAD_PATIENCE_STEPS = 1800
LOAD_MAX_STEPS = 400_000

# The vehicle columns of a RingState, in cyclic ring order, and their dtypes.
_COLUMNS = (("_ids", np.int64), ("_cav", bool), ("_pos", np.float64),
            ("_v", np.float64), ("_a", np.float64))
_COLUMN_NAMES = tuple(name for name, _ in _COLUMNS)

_HALF = _operand(0.5)


# A vehicle's kind as snapshots and trajectories spell it, indexed by its
# CAV mark: _KINDS[False] is "human", _KINDS[True] is "cav".
_KINDS = ("human", "cav")


@dataclass(frozen=True)
class CollisionReport:
    step: int
    follower_id: int
    leader_id: int
    gap: float


class CapacityError(ValueError):
    pass


def check_capacity(length, params, target_count):
    """``CapacityError`` unless ``target_count`` vehicles fit a loop of
    ``length``, each taking ``s0 + vehicle_length`` of it at standstill."""
    capacity = int(length // (params.s0 + params.vehicle_length))
    if target_count > capacity:
        raise CapacityError(
            f"target_count {target_count} exceeds loop capacity {capacity}"
        )


class RingState:
    """Ordered vehicle collection on a loop, plus geometry and clock.

    Storage is one array per column (``_COLUMNS``) in cyclic ring order.
    Columns are values: every change binds a new array, and none is written
    in place.  So ``copy()`` shares the columns, and marks them read-only,
    instead of copying them; a stray in-place write raises instead of
    changing another ring.  Two facts derived from a column are memoized on
    the identity of that column, and copies share the memos: the gaps on
    ``_pos`` (``_gap_memo``) and whether any vehicle is a CAV on ``_cav``
    (``_cav_memo``).  Binding a new column invalidates its memo, with no
    list of sites to keep; the memo holds the array, so its identity cannot
    be reused while the memo lives.  ``_length`` and ``_dt`` are ``length``
    and ``dt`` as the read-only 0-d operands of the step's ufunc calls, made
    here once and shared by copies.

    One step may carry a vehicle at most one vehicle length: a follower that
    passed its leader whole within a step would leave a positive gap, and
    the step would not see it.  A vehicle's speed is at most ``v0`` and a
    human's IDM acceleration at most ``a_max``, so a ring whose
    ``v0·dt + ½·a_max·dt²`` exceeds ``vehicle_length`` is a ``ValueError``;
    ``step`` bounds a CAV command the same way (``_cav_accel_max``), and a
    ``dt`` whose square underflows to 0 is a ``ValueError`` too.
    """

    def __init__(self, length=1000.0, dt=0.1, params=None):
        if (isinstance(length, bool) or isinstance(dt, bool)
                or not (0 < length < math.inf and 0 < dt < math.inf)):
            raise ValueError("length and dt must be finite and positive, "
                             "not bools")
        self.length = float(length)
        self.dt = float(dt)
        self._length, self._dt = _operand(self.length), _operand(self.dt)
        self.params = p = params if params is not None else IdmParams()
        travel = p.v0 * self.dt + 0.5 * p.a_max * self.dt * self.dt
        if travel > p.vehicle_length:
            raise ValueError(
                f"one step's travel v0*dt + a_max*dt**2/2 = {travel!r} m "
                f"(v0 {p.v0!r}, dt {self.dt!r}, a_max {p.a_max!r}) exceeds "
                f"vehicle_length {p.vehicle_length!r} m: a follower could "
                f"pass its leader unseen")
        if self.dt * self.dt == 0.0:
            raise ValueError(f"dt {self.dt!r} is too small: dt*dt underflows "
                             f"to 0, which the CAV command bound divides by")
        self._cav_accel_max = (2.0 * (p.vehicle_length - p.v0 * self.dt)
                               / (self.dt * self.dt))
        self.step_count = 0
        self.terminal = False
        for name, dtype in _COLUMNS:
            setattr(self, name, np.empty(0, dtype=dtype))
        self._next_id = 0
        self._gap_memo = (None, None)  # (the _pos they belong to, gaps)
        self._cav_memo = (None, False)  # (the _cav it belongs to, any CAV)

    # -- views ------------------------------------------------------------

    @property
    def n(self):
        return len(self._ids)

    @property
    def cav_count(self):
        return int(self._cav.sum())

    @property
    def positions(self):
        return self._pos.copy()

    @property
    def speeds(self):
        return self._v.copy()

    def mean_speed(self):
        """The space-mean speed; ``np.add.reduce(v) / n`` is what
        ``ndarray.mean`` computes, bit for bit, without its wrapper."""
        n = self.n
        return float(np.add.reduce(self._v) / n) if n else 0.0

    def copy(self):
        """A ring that shares this ring's columns and memos; the columns are
        read-only from here on, in both rings.  Only a column that is still
        writable is marked: after a ring's first copy that is at most the
        three that ``step`` binds anew."""
        state = vars(self)
        for name in _COLUMN_NAMES:
            column = state[name]
            if column.flags.writeable:
                column.setflags(write=False)
        out = object.__new__(RingState)
        vars(out).update(state)
        return out

    def _take(self, index):
        """Rebind every column to its rows at ``index`` (an index array)."""
        for name in _COLUMN_NAMES:
            setattr(self, name, getattr(self, name)[index])

    def _gaps(self):
        """Bumper-to-bumper gap of every vehicle to its ring leader; a lone
        vehicle leads itself, a whole loop ahead (read-only, computed once
        per ``_pos`` array; ``length`` and ``params`` are never rebound)."""
        pos = self._pos
        memo_pos, gaps = self._gap_memo
        if memo_pos is not pos:
            if len(pos) == 1:
                gaps = np.array([self.length])
            else:
                gaps = _lead(pos)
                np.subtract(gaps, pos, gaps)
                np.remainder(gaps, self._length, gaps)
            np.subtract(gaps, self.params._vehicle_length, gaps)
            gaps.setflags(write=False)
            self._gap_memo = (pos, gaps)
        return gaps

    def _any_cav(self):
        """Whether any vehicle is a CAV, computed once per ``_cav`` array."""
        cav = self._cav
        memo_cav, any_cav = self._cav_memo
        if memo_cav is not cav:
            any_cav = bool(cav.any())
            self._cav_memo = (cav, any_cav)
        return any_cav

    def _insert(self, position, speed, cav=False):
        position = position % self.length
        i = int(np.searchsorted(self._pos, position))
        row = (self._next_id, cav, position, speed, 0.0)
        for (name, _), value in zip(_COLUMNS, row):
            setattr(self, name, np.insert(getattr(self, name), i, value))
        self._next_id += 1
        # keep cyclic order canonical (ascending by position)
        self._take(np.argsort(self._pos, kind="stable"))


# n -> the read-only index of every vehicle's leader, [1, 2, ..., n-1, 0]
_LEAD_INDEX = {}


def _lead(column):
    """Every vehicle's leader's entry: ``column`` shifted one place round the
    ring, as ``np.roll(column, -1)``, by a ``take`` with the leader index of
    its length (kept per length in ``_LEAD_INDEX``; empty for n = 0)."""
    n = len(column)
    index = _LEAD_INDEX.get(n)
    if index is None:
        index = np.roll(np.arange(n), -1)
        index.setflags(write=False)
        _LEAD_INDEX[n] = index
    return column.take(index)


def step(ring, cav_accel=0.0, v_desired=None):
    """Advance the ring one time step synchronously.

    Humans get IDM accelerations against their current leaders; every CAV gets
    ``cav_accel``.  ``v_desired``, when given, caps the IDM desired speed
    (speed-limit control).  Returns ``(new_ring, CollisionReport | None)``;
    a collision marks the returned ring terminal, and a terminal ring cannot
    be stepped again.  Every vehicle count but 0 takes one rule: gaps from
    ``RingState._gaps`` (so a lone vehicle on a loop no longer than itself
    collides with itself), and one collision test whose report names the
    first vehicle with the least gap.

    ``ring`` is left as it was.  The new ring shares its ids and CAV marks
    (and their memo) and binds new positions, speeds and accelerations; the
    gaps of the collision check stay memoized on it, so the next step reuses
    them.  A ``v_desired`` that is not finite and positive, or so small that
    ``(v0 / v_desired) ** delta`` overflows, is a ``ValueError``, and so is
    a ``cav_accel`` that would carry a CAV at ``v0`` farther than one
    vehicle length in the step, above ``2·(vehicle_length − v0·dt)/dt²``
    (about 400 m/s² at the defaults), when the ring has a CAV.

    The arithmetic is that of the first vectorized step, operation for
    operation, so the bits are too.  Leaders' entries come from ``_lead``,
    the CAV test from the ring's CAV memo, and the new arrays are computed
    in place (a ufunc's third argument is its output) on fresh temporaries,
    never in a bound column.  The expressions keep their order:
    ``0.5 * accel * dt * dt`` is not reassociated, and ``** delta`` stays a
    power.  Speeds are limited with ``clip``, not ``minimum``/``maximum``:
    those turn a speed of -0.0 into +0.0, and ``clip`` keeps it.  Constant
    operands are read-only 0-d float64 arrays made once (``_ZERO``,
    ``_HALF``, the ring's ``_dt`` and ``_length``, the params' ``_v0``), not
    Python floats that numpy would convert to such arrays on every call; a
    CAV command changes from step to step and stays a float.
    """
    if ring.terminal:
        raise ValueError("cannot step a terminal ring (it has collided)")
    if v_desired is not None:
        ring.params.check_speed_limit(v_desired)
    out = ring.copy()
    out.step_count += 1
    p = out.params
    n = out.n
    if n == 0:
        return out, None

    v = out._v
    accel = idm_acceleration_vec(v, _lead(v), out._gaps(), p,
                                 v_desired=v_desired)
    if out._any_cav():
        if cav_accel > out._cav_accel_max:
            raise ValueError(
                f"CAV command {cav_accel!r} m/s^2 exceeds "
                f"{out._cav_accel_max!r}: a CAV at v0 would travel more "
                f"than one vehicle length in a step")
        np.copyto(accel, cav_accel, where=out._cav)

    dt = out._dt
    v_new = accel * dt
    np.add(v, v_new, v_new)
    v_new.clip(_ZERO, p._v0, out=v_new)
    half = np.multiply(_HALF, accel)
    np.multiply(half, dt, half)
    np.multiply(half, dt, half)
    disp = v * dt
    np.add(disp, half, disp)
    np.maximum(disp, _ZERO, out=disp)  # no reversing
    np.add(out._pos, disp, disp)
    np.remainder(disp, out._length, disp)
    out._pos = disp
    out._v = v_new
    out._a = accel

    new_gaps = out._gaps()
    # one reduction finds no collision; fmin and nanargmin skip NaN, as
    # ``<=`` does
    if not np.fmin.reduce(new_gaps) <= 0.0:
        return out, None
    i = int(np.nanargmin(new_gaps))
    j = (i + 1) % n
    out.terminal = True
    return out, CollisionReport(
        step=out.step_count,
        follower_id=int(out._ids[i]),
        leader_id=int(out._ids[j]),
        gap=float(new_gaps[i]),
    )


def rollout(ring, steps, control=None, observe=None):
    """Step the ring up to ``steps`` times, stopping after a collision.

    ``control(t, ring)``, called before step ``t`` (0-based within this
    rollout), returns ``(cav_accel, v_desired)`` for that step; without it
    humans drive with no speed limit and CAVs get a zero command (all-human
    runs revert the CAVs first).  ``observe(ring)`` sees every new state.
    Returns ``(final_ring, CollisionReport | None)``; with ``steps <= 0``
    the final ring is ``ring`` itself.  Each observed ring is a new value
    that later steps leave unchanged, so an observer may keep it
    (``run_switch_back`` keeps every ring of its search rollout).
    """
    report = None
    for t in range(steps):
        if control is None:
            ring, report = step(ring)
        else:
            ring, report = step(ring, *control(t, ring))
        if observe is not None:
            observe(ring)
        if report is not None:
            break
    return ring, report


def _try_insert(ring, forced=False):
    """Insert one vehicle at the fixed insertion point (position 0) if it fits.

    Normally the entrant takes the leader's speed and requires a front gap
    covering its desired gap (no braking on entry, so sub-critical loading
    stays near equilibrium).  When ``forced``, any physically free slot is
    taken at a speed the front gap can absorb; these harder entries are what
    pushes the stream past breakdown.
    """
    p = ring.params
    if ring.n == 0:
        ring._insert(0.0, p.v0)
        return True
    pos = ring._pos
    i_ahead = pos.argmin()
    # Python floats: their % is numpy's (fmod, then the sign of the divisor)
    front_gap = pos.item(i_ahead) % ring.length - p.vehicle_length
    rear_gap = (-pos.item(pos.argmax())) % ring.length - p.vehicle_length
    v_ahead = ring._v.item(i_ahead)
    if front_gap <= p.s0 or rear_gap <= p.s0:
        return False
    if front_gap > p.s0 + p.T * v_ahead:
        ring._insert(0.0, v_ahead)
        return True
    if forced:
        ring._insert(0.0, min(v_ahead, (front_gap - p.s0) / p.T))
        return True
    return False


def load_vehicles(ring, target_count):
    """Grow the ring to ``target_count`` vehicles, one insertion at a time.

    At most one insertion per ``LOAD_COOLDOWN_STEPS`` so the stream relaxes
    toward equilibrium between entries; when no no-braking slot appears
    within ``LOAD_PATIENCE_STEPS`` past the cooldown, a forced entry is
    taken, and ``CapacityError`` ends a loading that has not finished after
    ``LOAD_MAX_STEPS``.  The whole loading phase is measured every step.
    Returns ``(loaded_ring, loading FdTrace)``; a ring that already holds
    ``target_count`` vehicles or more is a ``ValueError``.
    """
    check_capacity(ring.length, ring.params, target_count)
    if ring.n >= target_count:
        raise ValueError(f"nothing to load: the ring holds {ring.n} "
                         f"vehicles and the target is {target_count}")
    out = ring.copy()
    rec = metrics.TraceRecorder(metrics.Phase.LOADING)
    since_insert = LOAD_COOLDOWN_STEPS
    while out.n < target_count:
        if out.step_count - ring.step_count >= LOAD_MAX_STEPS:
            raise CapacityError(
                f"loading stalled at {out.n}/{target_count} vehicles "
                f"after {LOAD_MAX_STEPS} steps"
            )
        if since_insert >= LOAD_COOLDOWN_STEPS:
            forced = since_insert >= LOAD_COOLDOWN_STEPS + LOAD_PATIENCE_STEPS
            if _try_insert(out, forced=forced):
                since_insert = 0
        out, report = step(out)
        if report is not None:
            raise RuntimeError(f"collision during loading: {report}")
        rec.record(out)
        since_insert += 1
    return out, rec.finish()


def remove_vehicles(ring, count, seed):
    """Delete ``count`` uniformly random vehicles, the same ones for the same
    ``seed``; the remaining ring order is preserved."""
    if count >= ring.n:
        raise ValueError(f"cannot remove {count} of {ring.n} vehicles")
    out = ring.copy()
    drop = np.random.default_rng(seed).choice(out.n, count, replace=False)
    out._take(np.setdiff1d(np.arange(out.n), drop))  # sorted, as kept
    return out


class FormationStrategy(Enum):
    UNIFORM = "uniform"
    PLATOON = "platoon"


def apply_formation(ring, cav_count, strategy):
    """Mark ``cav_count`` vehicles as CAVs per the formation strategy.

    Uniform spreads them so consecutive index gaps differ by at most one;
    Platoon marks a consecutive run anchored on the slowest circular window
    (the jam core).  Platoon members receive identical commanded
    accelerations, so pairwise speed differences inside the block are frozen
    until braking to a stop flattens them; the jam core is where that
    happens fastest, and a relaunch from there faces the most cleared road
    ahead.  Everyone else becomes Human.
    """
    if cav_count > ring.n:
        raise ValueError(f"cav_count {cav_count} > vehicle count {ring.n}")
    out = ring.copy()
    if cav_count == 0:
        idx = []
    elif strategy is FormationStrategy.UNIFORM:
        idx = (np.arange(cav_count) * out.n) // cav_count
    elif strategy is FormationStrategy.PLATOON:
        # circular sum of speeds over every window of cav_count vehicles;
        # the minimum-speed window hosts the platoon
        wrapped = np.concatenate([out._v, out._v[: cav_count - 1]])
        sums = np.convolve(wrapped, np.ones(cav_count), mode="valid")
        start = int(np.argmin(sums[: out.n]))
        idx = (start + np.arange(cav_count)) % out.n
    else:
        raise ValueError(f"unknown strategy {strategy}")
    cav = np.zeros(out.n, dtype=bool)
    cav[idx] = True
    out._cav = cav
    return out


def revert_to_human(ring):
    """Turn every CAV back into a human-driven vehicle; kinematics untouched."""
    out = ring.copy()
    out._cav = np.zeros(out.n, dtype=bool)
    return out


# -- snapshot serialization ----------------------------------------------


def snapshot_to_json(ring):
    doc = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "length": ring.length,
        "dt": ring.dt,
        "step_count": ring.step_count,
        "terminal": ring.terminal,
        "next_id": ring._next_id,
        "idm": asdict(ring.params),
        "vehicles": [
            {"id": vid, "kind": _KINDS[cav], "position": pos, "speed": speed,
             "last_accel": accel}
            for vid, cav, pos, speed, accel in zip(
                *(getattr(ring, name).tolist() for name in _COLUMN_NAMES))
        ],
    }
    return json.dumps(doc, indent=2)


def _exactly(kind, name, value):
    """``value`` if its type is ``kind`` itself (a bool is no int here); the
    snapshot's ints are counts and ids, so they must be >= 0 too."""
    if type(value) is not kind or (kind is int and value < 0):
        bound = " >= 0" if kind is int else ""
        raise ValueError(f"snapshot {name} must be {kind.__name__}{bound}, "
                         f"got {value!r}")
    return value


def _number(name, value):
    """``value`` as a float if it is a JSON number, an int or a float (not a
    bool or a string) that a float holds."""
    if type(value) not in (int, float):
        raise ValueError(f"snapshot {name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"snapshot {name} is outside the float range") \
            from None


def _known_keys(doc, keys, where):
    for key in doc:
        if key not in keys:
            raise ValueError(f"unknown {where} key {key!r}")


def snapshot_from_json(text):
    """Read a snapshot document back into a ring.  ``ValueError`` if a field
    is missing, ``step_count``, ``next_id`` or an id is not an int >= 0,
    ``terminal`` is not a bool, ``length``, ``dt`` or an IDM parameter is a
    bool, a vehicle's position, speed or last acceleration is not a JSON
    number (an int or a float, not a bool) that a float holds, a number is
    not finite, ids repeat or reach ``next_id``, a kind is
    unknown, positions leave [0, length) or cyclic ring order, speeds leave
    [0, v0], vehicles overlap (a gap <= 0) in a ring that has not collided,
    or the document or a vehicle holds a key ``snapshot_to_json`` does not
    write."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"corrupt ring snapshot: {e}") from e
    if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
        raise ValueError("not a ring snapshot document")
    if doc.get("version") != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {doc.get('version')}")
    _known_keys(doc, _SNAPSHOT_KEYS, "snapshot")
    try:
        ring = RingState(doc["length"], doc["dt"], IdmParams(**doc["idm"]))
        ring.step_count = _exactly(int, "step_count", doc["step_count"])
        ring.terminal = _exactly(bool, "terminal", doc["terminal"])
        ring._next_id = _exactly(int, "next_id", doc["next_id"])
        for v in doc["vehicles"]:
            _known_keys(v, _VEHICLE_KEYS, "snapshot vehicle")
            if v["kind"] not in _KINDS:
                raise ValueError(f"unknown vehicle kind {v['kind']!r}")
        rows = [(_exactly(int, "vehicle id", v["id"]),
                 v["kind"] == _KINDS[True],
                 *(_number(f"vehicle {key}", v[key])
                   for key in ("position", "speed", "last_accel")))
                for v in doc["vehicles"]]
        for (name, dtype), values in zip(_COLUMNS, zip(*rows)):
            setattr(ring, name, np.array(values, dtype=dtype))
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed ring snapshot: {e!r}") from e
    pos, v, p = ring._pos, ring._v, ring.params
    if not np.isfinite(np.concatenate([pos, v, ring._a])).all():
        raise ValueError("ring snapshot holds a non-finite number")
    if len(np.unique(ring._ids)) < ring.n:
        raise ValueError("vehicle ids are not unique")
    if ring.n and ring._next_id <= ring._ids.max():
        raise ValueError(f"next_id {ring._next_id} is already in use")
    if ((pos < 0.0) | (pos >= ring.length)).any():
        raise ValueError(f"a position lies outside [0, {ring.length})")
    descents = np.diff(pos) < 0.0  # ascending, but for one wrap-around
    if descents.sum() > 1 or (descents.any() and pos[-1] > pos[0]):
        raise ValueError("vehicle positions are not in ring order")
    if ((v < 0.0) | (v > p.v0)).any():
        raise ValueError(f"a speed lies outside [0, v0 = {p.v0}]")
    if not ring.terminal and not (ring._gaps() > 0.0).all():
        raise ValueError("vehicles overlap in a ring that has not collided")
    return ring


def save_snapshot(ring, path):
    with open(path, "w") as f:
        f.write(snapshot_to_json(ring))


class TrajectoryRecorder:
    """Accumulates per-step vehicle states for delimited-text export.

    A step keeps the observed ring's columns, not a tuple per vehicle:
    columns are values that later steps never change (see ``rollout``),
    and the ids and CAV marks are shared from step to step."""

    COLUMNS = ("step", "vehicle_id", "kind", "position_m", "speed_mps", "accel_mps2")

    def __init__(self):
        self._steps = []  # (step_count, _ids, _cav, _pos, _v, _a)

    def record(self, ring):
        self._steps.append((ring.step_count, *(getattr(ring, name)
                                                for name in _COLUMN_NAMES)))

    def rows(self):
        """``(step, vehicle_id, kind, position, speed, accel)`` per vehicle
        per step, as Python numbers and a kind of ``_KINDS``, one step's
        rows at a time."""
        for step_count, ids, cav, pos, v, a in self._steps:
            kinds = [_KINDS[c] for c in cav.tolist()]
            yield from zip(repeat(step_count), ids.tolist(), kinds,
                           pos.tolist(), v.tolist(), a.tolist())

    def write(self, path):
        with open(path, "w") as f:
            f.write(",".join(self.COLUMNS) + "\n")
            for r in self.rows():
                f.write(f"{r[0]},{r[1]},{r[2]},{r[3]:.6f},{r[4]:.6f},{r[5]:.6f}\n")
