"""Single-lane ring-road microsimulation state and mechanics.

Vehicles live on a loop of fixed length.  Humans follow the IDM; CAVs execute
an externally commanded acceleration.  The vehicle arrays are kept in cyclic
ring order, so the leader of index i is index (i+1) % n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .idm import IdmParams, idm_acceleration_vec
from . import metrics

SNAPSHOT_FORMAT = "ringflow-snapshot"
SNAPSHOT_VERSION = 1


class VehicleKind(Enum):
    HUMAN = "human"
    CAV = "cav"


@dataclass(frozen=True)
class VehicleState:
    id: int
    kind: VehicleKind
    position: float
    speed: float
    last_accel: float


@dataclass(frozen=True)
class CollisionReport:
    step: int
    follower_id: int
    leader_id: int
    gap: float


class NoLeaderError(ValueError):
    pass


class CapacityError(ValueError):
    pass


class RingState:
    """Ordered vehicle collection on a loop, plus geometry and clock.

    Value-like: ``copy()`` yields an independent snapshot.  Internal storage
    is array-of-columns in cyclic ring order.
    """

    def __init__(self, length=1000.0, dt=0.1, params=None, rng_seed=0):
        if length <= 0 or dt <= 0:
            raise ValueError("length and dt must be positive")
        self.length = float(length)
        self.dt = float(dt)
        self.params = params if params is not None else IdmParams()
        self.rng_seed = int(rng_seed)
        self.step_count = 0
        self.terminal = False
        self._ids = np.empty(0, dtype=np.int64)
        self._cav = np.empty(0, dtype=bool)
        self._pos = np.empty(0, dtype=np.float64)
        self._v = np.empty(0, dtype=np.float64)
        self._a = np.empty(0, dtype=np.float64)
        self._next_id = 0

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

    @property
    def is_cav(self):
        return self._cav.copy()

    @property
    def ids(self):
        return self._ids.copy()

    def mean_speed(self):
        return float(self._v.mean()) if self.n else 0.0

    @property
    def vehicles(self):
        return [
            VehicleState(
                id=int(self._ids[i]),
                kind=VehicleKind.CAV if self._cav[i] else VehicleKind.HUMAN,
                position=float(self._pos[i]),
                speed=float(self._v[i]),
                last_accel=float(self._a[i]),
            )
            for i in range(self.n)
        ]

    def copy(self):
        out = RingState(self.length, self.dt, self.params, self.rng_seed)
        out.step_count = self.step_count
        out.terminal = self.terminal
        out._ids = self._ids.copy()
        out._cav = self._cav.copy()
        out._pos = self._pos.copy()
        out._v = self._v.copy()
        out._a = self._a.copy()
        out._next_id = self._next_id
        return out

    def _index_of(self, vehicle_id):
        idx = np.nonzero(self._ids == vehicle_id)[0]
        if len(idx) == 0:
            raise KeyError(f"no vehicle with id {vehicle_id}")
        return int(idx[0])

    def _gaps(self):
        """Bumper-to-bumper gap of every vehicle to its ring leader."""
        lead = np.roll(self._pos, -1)
        return (lead - self._pos) % self.length - self.params.vehicle_length

    def _insert(self, position, speed, cav=False):
        position = position % self.length
        i = int(np.searchsorted(self._pos, position))
        self._ids = np.insert(self._ids, i, self._next_id)
        self._cav = np.insert(self._cav, i, cav)
        self._pos = np.insert(self._pos, i, position)
        self._v = np.insert(self._v, i, speed)
        self._a = np.insert(self._a, i, 0.0)
        self._next_id += 1
        # keep cyclic order canonical (ascending by position)
        order = np.argsort(self._pos, kind="stable")
        for name in ("_ids", "_cav", "_pos", "_v", "_a"):
            setattr(self, name, getattr(self, name)[order])


def gap_to_leader(ring, vehicle_id):
    """Bumper-to-bumper gap from a vehicle to the next vehicle in ring order."""
    if ring.n < 2:
        raise NoLeaderError("gap_to_leader requires at least 2 vehicles")
    i = ring._index_of(vehicle_id)
    j = (i + 1) % ring.n
    return float(
        (ring._pos[j] - ring._pos[i]) % ring.length - ring.params.vehicle_length
    )


def step(ring, cav_accel=0.0, v_desired=None):
    """Advance the ring one time step synchronously.

    Humans get IDM accelerations against their current leaders; every CAV gets
    ``cav_accel``.  ``v_desired``, when given, caps the IDM desired speed
    (speed-limit control).  Returns ``(new_ring, CollisionReport | None)``;
    a collision marks the returned ring terminal, and a terminal ring cannot
    be stepped again.
    """
    if ring.terminal:
        raise ValueError("cannot step a terminal ring (it has collided)")
    out = ring.copy()
    p = out.params
    n = out.n
    if n == 0:
        out.step_count += 1
        return out, None

    v = out._v
    if n == 1:
        gaps = np.array([out.length - p.vehicle_length])
        lead_v = v
    else:
        gaps = out._gaps()
        lead_v = np.roll(v, -1)

    accel = idm_acceleration_vec(v, lead_v, gaps, p, v_desired=v_desired)
    if out._cav.any():
        accel = np.where(out._cav, cav_accel, accel)

    dt = out.dt
    v_new = np.clip(v + accel * dt, 0.0, p.v0)
    disp = np.maximum(v * dt + 0.5 * accel * dt * dt, 0.0)  # no reversing
    out._pos = (out._pos + disp) % out.length
    out._v = v_new
    out._a = accel
    out.step_count += 1

    report = None
    if n >= 2:
        new_gaps = out._gaps()
        bad = np.nonzero(new_gaps <= 0.0)[0]
        if len(bad):
            i = int(bad[np.argmin(new_gaps[bad])])
            j = (i + 1) % n
            report = CollisionReport(
                step=out.step_count,
                follower_id=int(out._ids[i]),
                leader_id=int(out._ids[j]),
                gap=float(new_gaps[i]),
            )
            out.terminal = True
    return out, report


def rollout(ring, steps, control=None, observe=None):
    """Step the ring up to ``steps`` times, stopping after a collision.

    ``control(t, ring)``, called before step ``t`` (0-based within this
    rollout), returns ``(cav_accel, v_desired)`` for that step; without it
    humans drive with no speed limit and CAVs get a zero command (all-human
    runs revert the CAVs first).  ``observe(ring)`` sees every new state.
    Returns ``(final_ring, CollisionReport | None)``; with ``steps <= 0``
    the final ring is ``ring`` itself.
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
    i_behind = int(np.argmax(ring._pos))
    i_ahead = int(np.argmin(ring._pos))
    front_gap = float(ring._pos[i_ahead] % ring.length) - p.vehicle_length
    rear_gap = float((-ring._pos[i_behind]) % ring.length) - p.vehicle_length
    v_ahead = float(ring._v[i_ahead])
    if front_gap <= p.s0 or rear_gap <= p.s0:
        return False
    if front_gap > p.s0 + p.T * v_ahead:
        ring._insert(0.0, v_ahead)
        return True
    if forced:
        ring._insert(0.0, min(v_ahead, (front_gap - p.s0) / p.T))
        return True
    return False


def load_vehicles(ring, target_count, cooldown_steps=600, patience_steps=1800,
                  max_steps=400_000):
    """Grow the ring to ``target_count`` vehicles, one insertion at a time.

    At most one insertion per ``cooldown_steps`` so the stream relaxes toward
    equilibrium between entries; when no no-braking slot appears within
    ``patience_steps`` past the cooldown, a forced entry is taken.  The whole
    loading phase is measured every step.  Returns
    ``(loaded_ring, loading FdTrace)``.
    """
    p = ring.params
    capacity = int(ring.length // (p.s0 + p.vehicle_length))
    if target_count > capacity:
        raise CapacityError(
            f"target_count {target_count} exceeds loop capacity {capacity}"
        )
    out = ring.copy()
    rec = metrics.TraceRecorder(metrics.Phase.LOADING)
    if target_count <= out.n:
        return out, rec.finish()
    steps = 0
    since_insert = cooldown_steps
    while out.n < target_count:
        if steps >= max_steps:
            raise CapacityError(
                f"loading stalled at {out.n}/{target_count} vehicles "
                f"after {max_steps} steps"
            )
        if since_insert >= cooldown_steps:
            forced = since_insert >= cooldown_steps + patience_steps
            if _try_insert(out, forced=forced):
                since_insert = 0
        out, report = step(out)
        if report is not None:
            raise RuntimeError(f"collision during loading: {report}")
        rec.record(out)
        steps += 1
        since_insert += 1
    return out, rec.finish()


class RandomRemoval:
    """Remove uniformly random vehicles, deterministic per seed."""

    def __init__(self, seed):
        self.seed = int(seed)

    def pick(self, ring, count):
        rng = np.random.default_rng(self.seed)
        return rng.choice(ring.n, size=count, replace=False)


class EveryKthRemoval:
    """Remove every k-th vehicle in ring order."""

    def __init__(self, k):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)

    def pick(self, ring, count):
        idx = np.arange(0, ring.n, self.k)[:count]
        if len(idx) < count:
            rest = np.setdiff1d(np.arange(ring.n), idx)
            idx = np.concatenate([idx, rest[: count - len(idx)]])
        return idx


def remove_vehicles(ring, count, policy):
    """Delete ``count`` vehicles per ``policy``; remaining ring order preserved."""
    if count >= ring.n:
        raise ValueError(f"cannot remove {count} of {ring.n} vehicles")
    out = ring.copy()
    if count == 0:
        return out
    drop = np.sort(np.asarray(policy.pick(out, count)))
    keep = np.setdiff1d(np.arange(out.n), drop)
    for name in ("_ids", "_cav", "_pos", "_v", "_a"):
        setattr(out, name, getattr(out, name)[keep])
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
    out._cav = np.zeros(out.n, dtype=bool)
    if cav_count == 0:
        return out
    if strategy is FormationStrategy.UNIFORM:
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
    out._cav[idx] = True
    return out


def revert_to_human(ring):
    """Turn every CAV back into a human-driven vehicle; kinematics untouched."""
    out = ring.copy()
    out._cav = np.zeros(out.n, dtype=bool)
    return out


# -- snapshot serialization ----------------------------------------------


def snapshot_to_json(ring):
    p = ring.params
    doc = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "length": ring.length,
        "dt": ring.dt,
        "step_count": ring.step_count,
        "rng_seed": ring.rng_seed,
        "terminal": ring.terminal,
        "next_id": ring._next_id,
        "idm": {
            "v0": p.v0,
            "T": p.T,
            "a_max": p.a_max,
            "b": p.b,
            "delta": p.delta,
            "s0": p.s0,
            "vehicle_length": p.vehicle_length,
        },
        "vehicles": [
            {
                "id": int(ring._ids[i]),
                "kind": "cav" if ring._cav[i] else "human",
                "position": float(ring._pos[i]),
                "speed": float(ring._v[i]),
                "last_accel": float(ring._a[i]),
            }
            for i in range(ring.n)
        ],
    }
    return json.dumps(doc, indent=2)


def snapshot_from_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"corrupt ring snapshot: {e}") from e
    if doc.get("format") != SNAPSHOT_FORMAT:
        raise ValueError("not a ring snapshot document")
    if doc.get("version") != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {doc.get('version')}")
    ring = RingState(
        length=doc["length"],
        dt=doc["dt"],
        params=IdmParams(**doc["idm"]),
        rng_seed=doc["rng_seed"],
    )
    ring.step_count = doc["step_count"]
    ring.terminal = doc["terminal"]
    ring._next_id = doc["next_id"]
    vs = doc["vehicles"]
    ring._ids = np.array([v["id"] for v in vs], dtype=np.int64)
    ring._cav = np.array([v["kind"] == "cav" for v in vs], dtype=bool)
    ring._pos = np.array([v["position"] for v in vs], dtype=np.float64)
    ring._v = np.array([v["speed"] for v in vs], dtype=np.float64)
    ring._a = np.array([v["last_accel"] for v in vs], dtype=np.float64)
    return ring


def save_snapshot(ring, path):
    with open(path, "w") as f:
        f.write(snapshot_to_json(ring))


def load_snapshot(path):
    with open(path) as f:
        return snapshot_from_json(f.read())


class TrajectoryRecorder:
    """Accumulates per-step vehicle rows for delimited-text export."""

    COLUMNS = ("step", "vehicle_id", "kind", "position_m", "speed_mps", "accel_mps2")

    def __init__(self):
        self.rows = []

    def record(self, ring):
        for i in range(ring.n):
            self.rows.append(
                (
                    ring.step_count,
                    int(ring._ids[i]),
                    "cav" if ring._cav[i] else "human",
                    float(ring._pos[i]),
                    float(ring._v[i]),
                    float(ring._a[i]),
                )
            )

    def write(self, path):
        with open(path, "w") as f:
            f.write(",".join(self.COLUMNS) + "\n")
            for r in self.rows:
                f.write(f"{r[0]},{r[1]},{r[2]},{r[3]:.6f},{r[4]:.6f},{r[5]:.6f}\n")
