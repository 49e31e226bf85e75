"""The quick demos print the text they always have.

Each demo runs in a subprocess and its stdout is compared with a recorded
copy of its text, so a change to the numbers or to how they are formatted
shows.  The wave-dissipation and training demos stay manual: at about 5 s
and 20 s they are too slow for the tier-1 run; the training demo's greedy
map is checked on untrained nets and its rollout line on hand-made traces
instead, and every demo module is loaded (without running it) so that its
imports are checked.
"""

import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ringflow import MlpSpec, init_network, select_action
from ringflow.ring import CollisionReport

from conftest import trace_of

ROOT = Path(__file__).resolve().parents[1]

HYSTERESIS = """\
loading 68 vehicles onto a 1000 m loop...
loading peak: 1799 veh/h at 27.0 veh/km
draining the loop one vehicle at a time...
  at 15 veh/km the unloading branch is 288 veh/h below the loading branch
  at 20 veh/km the unloading branch is 407 veh/h below the loading branch
  at 25 veh/km the unloading branch is 428 veh/h below the loading branch
wrote {out}/hysteresis_demo.svg
"""

FLEET_SIZING = """\
fleet of 60: average headway drifted 2.5 s -> 2.6 s
CAVs at 2.0 s needed to restore the average: raw 10.000000 -> count 10
check: with 10 CAVs the blended average is 2.5000 s (target 2.5 s)

second scenario (67 vehicles, 2.549 -> 2.5779 s, CAV 2.0 s): raw 3.3506 \
-> count 4
note: one published worked example quotes 5 for these inputs; direct \
substitution into the headway-balance equation gives 3.35, which ceils to 4.
"""


def _run_demo(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name), *args], cwd=cwd,
        env=env, capture_output=True, text=True, timeout=300, check=True)
    return done.stdout


def test_hysteresis_demo_output(tmp_path):
    out = str(tmp_path / "out")
    assert _run_demo("hysteresis_demo.py", out, cwd=tmp_path) == \
        HYSTERESIS.format(out=out)
    assert (tmp_path / "out" / "hysteresis_demo.svg").is_file()


def test_fleet_sizing_demo_output(tmp_path):
    assert _run_demo("fleet_sizing_demo.py", cwd=tmp_path) == FLEET_SIZING


def _demo_module(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "demos" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.stem)
def test_every_demo_module_loads(path):
    # loading runs a demo's imports but not its main, so a ringflow name a
    # demo imports cannot vanish unnoticed
    assert callable(_demo_module(path.stem).main)


def test_training_demo_greedy_map_is_the_controllers_action_per_speed():
    demo = _demo_module("training_demo")
    speeds = np.linspace(0.0, 12.0, 13)
    maps = set()
    for seed in range(8):
        net = init_network(MlpSpec(1, (64, 64), 3), seed=seed)
        rng = np.random.default_rng(seed)
        for b in net.biases:
            b[:] = rng.normal(0.0, 0.3, b.shape)
        want = "".join("-0+"[select_action(net, v / 30.0)] for v in speeds)
        assert demo.greedy_map(net, 30.0) == want
        maps.add(want)
    assert len(maps) > 3  # maps that switch action inside the probe range


def test_training_demo_reports_a_crashed_rollout_as_not_steady():
    demo = _demo_module("training_demo")
    crashed = trace_of([(17.0, 480.0)] * 78)  # 7.84 m/s for 78 steps
    report = CollisionReport(step=78, follower_id=3, leader_id=4, gap=-0.1)
    assert demo.rollout_line(crashed, report, 7.52) == (
        "greedy rollout: collided at step 78 (not steady), all-human "
        "plateau 7.52 m/s")
    full = trace_of([(17.0, 0.0)] * 2400 + [(17.0, 612.0)] * 600)
    assert demo.rollout_line(full, None, 7.52) == (
        "greedy rollout: 3000 steps, steady mean speed 10.00 m/s vs "
        "all-human plateau 7.52 m/s")
    # a collision on the last step of the rollout is a collision too
    last = replace(report, step=demo.EVAL_STEPS)
    assert demo.rollout_line(full, last, 7.52) == (
        "greedy rollout: collided at step 3000 (not steady), all-human "
        "plateau 7.52 m/s")
