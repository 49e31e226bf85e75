"""Span tracing of ringflow from outside the package.

Each traced function is replaced by a wrapper on its module or class
attribute, and on every module global that was bound to it at import time
(``from .idm import idm_acceleration_vec`` in ``ring``, for example).  Spans
(name, start, end, parent) are kept in flat arrays and written out at the
end; nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Every traced layer boundary, as "module.attr" or "module.Class.method".
# ringflow.mpr and ringflow.config are left out: closed-form or parse-only.
TRACED = (
    "idm.idm_acceleration_vec",
    "ring.step",
    "ring.RingState.copy",
    "ring.load_vehicles",
    "metrics.measure",
    "metrics.TraceRecorder.record",
    "metrics.FdTrace.write",
    "svgplot.Chart.write",
    "scenario.build_scenario",
    "scenario.unload_incrementally",
    "scenario.idm_plateau_speed",
    "baselines.run_idm_recovery",
    "baselines.run_vsl",
    "dqn.train",
    "dqn.RingEnv.step",
    "dqn.RingEnv.reset",
    "dqn.ReplayBuffer.push",
    "dqn.ReplayBuffer.sample",
    "dqn.ddqn_targets",
    "dqn.select_action",
    "dqn.evaluate",
    "net.forward",
    "net.forward_batch",
    "net.loss_and_gradients",
    "net.adam_step",
    "net.save_checkpoint",
    "cli.main",
)

# Functions called often enough in some workload for a p99 to mean anything.
P99_FUNCTIONS = (
    "idm.idm_acceleration_vec",
    "ring.step",
    "ring.RingState.copy",
    "metrics.measure",
    "metrics.TraceRecorder.record",
    "dqn.RingEnv.step",
    "dqn.ReplayBuffer.push",
    "dqn.ReplayBuffer.sample",
    "dqn.ddqn_targets",
    "dqn.select_action",
    "net.forward",
    "net.forward_batch",
    "net.loss_and_gradients",
    "net.adam_step",
)
P99_MIN_CALLS = 1000

# Counters, besides the call counts, that must repeat exactly for a given
# workload and seed, with their units.
EXACT_COUNTERS = {
    "ring.step.vehicle_steps": "count",
    "dqn.train.updates_per_step": "ratio",
    "dqn.train.collision_episode_frac": "ratio",
    "dqn.train.episodes": "count",
}


def _weight_count(net):
    dims = net.spec.layer_dims
    return sum(a * b for a, b in zip(dims[:-1], dims[1:]))


def _count_ring_step(c, args, result):
    c["ring.step.vehicle_steps"] += args[0].n


def _count_fd_write(c, args, result):
    c["metrics.FdTrace.write.bytes"] += os.path.getsize(args[1])


def _count_forward_batch(c, args, result):
    # one multiply and one add per weight per batch row
    c["net.forward_batch.flops"] += 2 * len(args[1]) * _weight_count(args[0])


def _count_loss(c, args, result):
    # forward (2) plus the weight and input gradients of backprop (4)
    c["net.loss_and_gradients.flops"] += 6 * len(args[1]) * _weight_count(args[0])


def _count_adam(c, args, result):
    # reads gradient, both moments and the parameter; writes the last three
    c["net.adam_step.bytes"] += 7 * 8 * args[0].n_params()


def _count_train(c, args, result):
    c["dqn.train.steps"] += result.total_steps
    c["dqn.train.episodes"] += len(result.episodes)
    c["dqn.train.collided"] += sum(e.collided for e in result.episodes)


AFTER_HOOKS = {
    "ring.step": _count_ring_step,
    "metrics.FdTrace.write": _count_fd_write,
    "net.forward_batch": _count_forward_batch,
    "net.loss_and_gradients": _count_loss,
    "net.adam_step": _count_adam,
    "dqn.train": _count_train,
}


def percentile(sorted_values, q):
    """Linear-interpolated percentile ``q`` (0-100) of ascending values."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of no values")
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def self_times(start, end, parent):
    """Per-span duration minus the durations of its direct child spans."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    child = parent >= 0
    return dur - np.bincount(parent[child], weights=dur[child],
                             minlength=len(dur))


class Tracer:
    """Records spans of wrapped functions, split into phases.

    A phase is a run of spans between two ``mark`` calls: the set-up, then
    one phase per measured operation.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.phase_starts = array("i")
        self.phase_counters = []
        self._stack = []
        self._installed = []

    def mark(self):
        """Start a new phase; later spans and counters belong to it."""
        self.phase_starts.append(len(self.start))
        self.phase_counters.append(defaultdict(int))

    def wrap(self, name, fn, after=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = self.clock
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        counters = self.phase_counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(counters[-1], args, result)
            return result

        return wrapper

    def install(self, traced=TRACED):
        """Wrap every traced function and rebind the names bound to it."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "ringflow" or k.startswith("ringflow.")]
        for dotted in traced:
            mod_name, *owner_path, attr = dotted.split(".")
            owner = importlib.import_module(f"ringflow.{mod_name}")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.wrap(dotted, original, AFTER_HOOKS.get(dotted))
            self._installed.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            if owner_path:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def arrays(self):
        """The spans as numpy arrays, plus each span's phase index."""
        start = np.array(self.start, dtype=np.float64)
        phase = np.searchsorted(np.array(self.phase_starts, dtype=np.intc),
                                np.arange(len(start)), side="right") - 1
        return (np.array(self.name_id, dtype=np.intc),
                np.array(self.parent, dtype=np.intc),
                start, np.array(self.end, dtype=np.float64), phase)

    def phase_calls(self, phase):
        """Calls per traced name in one phase."""
        name_id, _, _, _, phases = self.arrays()
        counts = np.bincount(name_id[phases == phase],
                             minlength=len(self.names))
        return {name: int(n) for name, n in zip(self.names, counts)}

    def write(self, path):
        name_id, parent, start, end, _ = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, start=start, end=end,
                 phase_starts=np.array(self.phase_starts, dtype=np.intc))


def exact_counters(calls, counters):
    """The counts that must repeat exactly for one workload and seed."""
    out = {f"{name}.calls": calls.get(name, 0) for name in TRACED}
    steps = counters.get("dqn.train.steps", 0)
    episodes = counters.get("dqn.train.episodes", 0)
    out["ring.step.vehicle_steps"] = counters.get("ring.step.vehicle_steps", 0)
    out["dqn.train.updates_per_step"] = (
        calls.get("net.adam_step", 0) / steps if steps else 0.0)
    out["dqn.train.collision_episode_frac"] = (
        counters.get("dqn.train.collided", 0) / episodes if episodes else 0.0)
    out["dqn.train.episodes"] = episodes
    return out


def layer_metrics(tracer, phases):
    """Per-layer metrics over the set-up phase plus one measured phase.

    ``phases`` lists the measured phases, which repeat the same work.  Counts
    are the set-up's plus the first measured phase's; self time is the
    set-up's plus the mean over the measured phases; percentiles pool every
    span of the set-up and the measured phases.  Returns ``(metrics,
    exact counters)``, metrics mapping name to ``(value, unit)``.
    """
    name_id, parent, start, end, phase = tracer.arrays()
    n_names = len(tracer.names)
    own = self_times(start, end, parent)
    dur = end - start
    setup = phase == 0
    measured = np.isin(phase, phases)
    self_s = (np.bincount(name_id[setup], weights=own[setup],
                          minlength=n_names)
              + np.bincount(name_id[measured], weights=own[measured],
                            minlength=n_names) / len(phases))
    pooled = setup | measured

    calls = tracer.phase_calls(0)
    for name, n in tracer.phase_calls(phases[0]).items():
        calls[name] += n
    counters = defaultdict(int, tracer.phase_counters[0])
    for key, value in tracer.phase_counters[phases[0]].items():
        counters[key] += value

    out = {}
    for nid, name in enumerate(tracer.names):
        ds = np.sort(dur[pooled & (name_id == nid)])
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (float(self_s[nid]), "s")
        out[f"{name}.us_p50"] = (
            float(percentile(ds, 50)) * 1e6 if len(ds) else 0.0, "us")
        if name in P99_FUNCTIONS:
            enough = len(ds) >= P99_MIN_CALLS
            out[f"{name}.us_p99"] = (
                float(percentile(ds, 99)) * 1e6 if enough else 0.0, "us")
    exact = exact_counters(calls, counters)
    for key, unit in EXACT_COUNTERS.items():
        out[key] = (exact[key], unit)
    for key, unit in (("metrics.FdTrace.write.bytes", "byte"),
                      ("net.forward_batch.flops", "flop_computed"),
                      ("net.loss_and_gradients.flops", "flop_computed"),
                      ("net.adam_step.bytes", "byte_computed")):
        out[key] = (counters.get(key, 0), unit)
    return out, exact
