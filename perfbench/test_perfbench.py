"""Tests of the benchmark's own logic.  Run: python3 -m pytest perfbench"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ringflow import idm, metrics, ring  # noqa: E402

from checks import (  # noqa: E402
    Checks, check_ring, check_trace, compare_digests, digest)
from spans import (  # noqa: E402
    Tracer, exact_counters, layer_metrics, percentile, self_times)


def test_percentile_interpolates_linearly():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0], 0) == 1.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
    assert percentile(list(range(101)), 99) == 99
    assert percentile([7.0], 99) == 7.0
    assert percentile(list(range(11)), 95) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > grandchild [2, 3]; root > b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert list(self_times(start, end, parent)) == [3.0, 2.0, 1.0, 4.0]


def _ticking_tracer():
    tracer = Tracer(clock=itertools.count().__next__)

    def inner():
        return 1

    wrapped_inner = tracer.wrap("inner", inner)

    def outer():
        return wrapped_inner() + 1

    return tracer, tracer.wrap("outer", outer)


def test_layer_metrics_count_setup_plus_one_phase():
    tracer, outer = _ticking_tracer()
    tracer.mark()
    outer()  # set-up: outer [0, 3], inner [1, 2]
    for _ in range(2):
        tracer.mark()
        outer()
    layers, exact = layer_metrics(tracer, [1, 2])
    assert layers["outer.calls"] == (2, "count")
    assert layers["inner.calls"] == (2, "count")
    # each outer span lasts 3 ticks, 1 of them inside inner
    assert layers["outer.self_s"] == (2.0 + 2.0, "s")
    assert layers["inner.self_s"] == (1.0 + 1.0, "s")
    assert layers["outer.us_p50"] == (3e6, "us")
    assert exact["ring.step.calls"] == 0


def test_phase_calls_split_at_marks():
    tracer, outer = _ticking_tracer()
    tracer.mark()
    outer()
    tracer.mark()
    outer()
    outer()
    assert tracer.phase_calls(0)["outer"] == 1
    assert tracer.phase_calls(1)["inner"] == 2


def test_exact_counters_ratios():
    calls = {"net.adam_step": 500, "ring.step": 1200}
    counters = {"dqn.train.steps": 1000, "dqn.train.episodes": 4,
                "dqn.train.collided": 3, "ring.step.vehicle_steps": 61200}
    out = exact_counters(calls, counters)
    assert out["dqn.train.updates_per_step"] == 0.5
    assert out["dqn.train.collision_episode_frac"] == 0.75
    assert out["ring.step.calls"] == 1200
    assert out["dqn.train.calls"] == 0
    assert exact_counters({}, {})["dqn.train.updates_per_step"] == 0.0


def test_install_rebinds_import_time_names_and_uninstall_restores():
    original_step = ring.step
    original_idm = idm.idm_acceleration_vec
    original_copy = vars(ring.RingState)["copy"]
    tracer = Tracer()
    tracer.mark()
    tracer.install(traced=("idm.idm_acceleration_vec", "ring.step",
                           "ring.RingState.copy"))
    try:
        assert ring.idm_acceleration_vec is idm.idm_acceleration_vec
        assert ring.idm_acceleration_vec is not original_idm
        r = ring.RingState()
        r._insert(0.0, 10.0)
        r._insert(500.0, 10.0)
        ring.step(r)
    finally:
        tracer.uninstall()
    assert ring.step is original_step
    assert ring.idm_acceleration_vec is original_idm
    assert vars(ring.RingState)["copy"] is original_copy
    calls = tracer.phase_calls(0)
    assert calls == {"idm.idm_acceleration_vec": 1, "ring.step": 1,
                     "ring.RingState.copy": 1}
    # idm and copy run inside the step span
    names = [tracer.names[i] for i in tracer.name_id]
    step_idx = names.index("ring.step")
    assert all(tracer.parent[i] == step_idx
               for i, n in enumerate(names) if n != "ring.step")


def test_digest_check_fails_on_perturbed_output():
    good = b"step,phase\n1,loading\n"
    bad = b"step,phase\n1,loadinG\n"
    checks = Checks()
    compare_digests(checks, "ref.", {"trace.csv": digest(good)},
                    {"trace.csv": digest(good)})
    assert checks.attempted == 1 and checks.failed == []
    compare_digests(checks, "ref.", {"trace.csv": digest(bad)},
                    {"trace.csv": digest(good)})
    assert checks.failed == ["ref.trace.csv"]
    # no reference, or a reference without the key, is no check
    compare_digests(checks, "ref.", {"trace.csv": digest(bad)}, None, {})
    assert checks.attempted == 2


def test_float_digest_sees_the_last_bit():
    x = 7.52
    assert digest(x) == digest(float(x))
    assert digest(x) != digest(np.nextafter(x, 8.0).item())


def _trace(density, speed):
    k = np.asarray(density, dtype=float)
    u = np.asarray(speed, dtype=float)
    return metrics.FdTrace(phase=metrics.Phase.LOADING,
                           steps=np.arange(1, len(k) + 1), density=k,
                           flow=k * u * 3.6, mean_speed=u)


def test_trace_invariants_catch_bad_speed_and_flow():
    checks = Checks()
    check_trace(checks, "t", _trace([51, 51], [10.0, 12.0]), v0=30.0,
                max_len=2, density=51)
    assert checks.failed == []
    bad = _trace([51, 51], [10.0, 31.0])
    bad.flow[0] += 5.0
    check_trace(checks, "b", bad, v0=30.0, density=50)
    assert set(checks.failed) == {"b.speed_range", "b.flow_is_k_times_u",
                                  "b.density"}


def test_ring_invariants_catch_overlap_and_count():
    r = ring.RingState(length=100.0)
    r._insert(0.0, 5.0)
    r._insert(50.0, 5.0)
    checks = Checks()
    check_ring(checks, "ok", r, count=2, cav_count=0)
    assert checks.failed == []
    r._insert(52.0, 5.0)  # 2 m behind a 5 m vehicle: overlapping
    check_ring(checks, "bad", r, count=2)
    assert set(checks.failed) == {"bad.count", "bad.gaps_positive"}
