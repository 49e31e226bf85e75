"""``train`` writes a run directory; ``evaluate --run`` and
``compare --run`` read it back, with the outputs of the rebuilt scenario."""

import json
import shutil

import pytest

from ringflow import baselines, dqn, ring, scenario, svgplot
from ringflow.cli import _summary_row, main as cli_main
from ringflow.config import config_from_kv, load_config, parse_kv
from ringflow.net import load_checkpoint

# A quarter-size ring (250 m, 17 vehicles, 4 depart, a 4-CAV platoon) and a
# 16x16 net trained for 1500 steps: a complete run directory in seconds.
SMALL_RUN = """\
sim.length = 250.0
scenario.load_target = 17
scenario.removal_schedule = 4
scenario.cav_count = 4
scenario.formation = platoon
net.hidden_dims = 16, 16
ddqn.total_train_steps = 1500
"""


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """``(config file, run directory)`` of one ``train`` on SMALL_RUN."""
    root = tmp_path_factory.mktemp("trained")
    config_file = root / "small.cfg"
    config_file.write_text(SMALL_RUN)
    run = root / "run"
    assert cli_main(["train", "--config", str(config_file),
                     "--out", str(run)]) == 0
    yield config_file, run
    # test_config_cli's test_counts_the_schedule_cannot_meet_fail_before_
    # loading needs this ring's loading out of build_scenario's cache
    scenario._loaded.cache_clear()


def _rebuilt_outputs(config, checkpoint, ev, cmp):
    """What ``evaluate`` and ``compare`` write, computed from
    ``build_scenario(config)`` and a checkpoint through the Python API;
    returns the collision reports of the evaluation and of the CAV
    branch."""
    built = scenario.build_scenario(config)
    policy, _ = load_checkpoint(checkpoint, expect_spec=config.net_spec)
    ev.mkdir()
    traj = ring.TrajectoryRecorder()
    trace, report = dqn.evaluate(policy, built.env_spec, 2000, traj.record)
    trace.write(ev / "evaluation_trace.csv")
    traj.write(ev / "trajectory.csv")
    svgplot.fundamental_diagram_chart(
        [built.loading_trace.decimate(10), trace],
        "Controlled rollout vs loading branch",
    ).write(ev / "fd_overlay.svg")
    svgplot.mean_speed_chart(trace, config.dt,
                             "Mean speed under control").write(
        ev / "speed_series.svg")
    svgplot.trajectory_chart(traj.rows(), dt=config.dt).write(
        ev / "trajectories.svg")

    cmp.mkdir()
    snapshot = built.env_spec.snapshot
    sb = baselines.run_switch_back(policy, built.env_spec, extra_steps=200)
    branches = {
        "idm": ("idm_recovery_trace.csv",
                baselines.run_idm_recovery(snapshot, 2000)),
        "vsl": ("vsl_trace.csv",
                baselines.run_vsl(snapshot, config.vsl, 2000)[0]),
        "cav": ("switchback_cav_trace.csv", sb.cav_trace),
        "reverted": ("switchback_reverted_trace.csv", sb.reverted_trace),
    }
    chart = svgplot.Chart("Flow comparison", "time (s)", "flow (veh/h)")
    rows = ["scenario,branch,peak_flow_veh_h,final_flow_veh_h,"
            "peak_mean_speed_mps"]
    for branch, (name, t) in branches.items():
        t.write(cmp / name)
        rows.append(_summary_row(branch, t))
        chart.line(t.steps * config.dt, t.flow, label=branch)
    (cmp / "comparison.csv").write_text("\n".join(rows) + "\n")
    chart.write(cmp / "comparison.svg")
    return report, sb.cav_report


def _same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_cli_train_evaluate_compare_read_the_run_back(trained_run, tmp_path,
                                                      monkeypatch, capsys):
    config_file, run = trained_run
    config = load_config(config_file)
    doc = json.loads((run / "run.json").read_text())
    assert set(doc) == {"config", "success_flow_threshold"}
    assert config_from_kv(parse_kv(doc["config"])) == config
    built = scenario.build_scenario(config)
    assert doc["success_flow_threshold"] == \
        built.env_spec.success_flow_threshold
    report, cav_report = _rebuilt_outputs(
        config, run / "checkpoint.bin", tmp_path / "ev_ref",
        tmp_path / "cmp_ref")

    def never(config):
        raise AssertionError("build_scenario called")

    monkeypatch.setattr(scenario, "build_scenario", never)
    capsys.readouterr()
    assert cli_main(["evaluate", "--run", str(run),
                     "--out", str(tmp_path / "ev")]) == 0
    assert cli_main(["compare", "--run", str(run),
                     "--out", str(tmp_path / "cmp")]) == 0
    # this run's greedy rollouts collide, and both commands say so
    assert report is not None and cav_report is not None
    ev_out, cmp_out = capsys.readouterr().out.split(
        "wrote evaluation outputs")
    assert _collision_line(report) in ev_out
    assert f"cav: {_collision_line(cav_report)}" in cmp_out
    _same_files(tmp_path / "ev_ref", tmp_path / "ev")
    _same_files(tmp_path / "cmp_ref", tmp_path / "cmp")


def _collision_line(report):
    return (f"rollout collided at step {report.step} "
            f"(follower {report.follower_id}, leader {report.leader_id})")


def _edit_run_json(**changes):
    def edit(run):
        doc = json.loads((run / "run.json").read_text())
        doc.update(changes)
        (run / "run.json").write_text(json.dumps(doc))
    return edit


def _write(name, text):
    return lambda run: (run / name).write_text(text)


def _edit_config_line(old, new):
    def edit(run):
        doc = json.loads((run / "run.json").read_text())
        assert old in doc["config"]
        doc["config"] = doc["config"].replace(old, new)
        (run / "run.json").write_text(json.dumps(doc))
    return edit


@pytest.mark.parametrize("command", ["evaluate", "compare"])
@pytest.mark.parametrize("edit", [
    lambda run: shutil.rmtree(run),
    lambda run: (run / "run.json").unlink(),  # e.g. a hysteresis output
    lambda run: (run / "checkpoint.bin").unlink(),
    lambda run: (run / "snapshot.json").unlink(),
    lambda run: (run / "loading_trace.csv").unlink(),
    _write("run.json", "{not json"),
    _write("run.json", "{}"),
    _write("run.json", "[]"),
    _edit_run_json(config=7),
    _edit_run_json(config="sim.bogus = 1\n"),
    _edit_run_json(success_flow_threshold=0.0),
    _edit_run_json(success_flow_threshold=float("nan")),
    _edit_run_json(success_flow_threshold=True),
    _edit_run_json(success_flow_threshold="1799.6"),
    _edit_run_json(success_flow_threshold=1800),
    _edit_config_line("net.hidden_dims = 16, 16", "net.hidden_dims = 8"),
    # 0.15 s keeps one step's travel (4.51 m) within a vehicle length, so
    # the config loads and the snapshot's dt of 0.1 s does not fit it
    _edit_config_line("sim.dt = 0.1", "sim.dt = 0.15"),
    _write("snapshot.json", "{}"),
    _write("loading_trace.csv", "step,phase\n"),
], ids=["missing-dir", "no-run-json", "no-checkpoint", "no-snapshot",
        "no-loading-trace", "corrupt-run-json", "keyless-run-json",
        "list-run-json", "config-not-text", "unknown-config-key",
        "zero-threshold", "nan-threshold", "bool-threshold",
        "text-threshold", "int-threshold", "checkpoint-spec-mismatch",
        "snapshot-config-mismatch", "bad-snapshot", "bad-loading-trace"])
def test_cli_a_malformed_run_is_a_usage_error(trained_run, tmp_path, capsys,
                                              command, edit):
    run = tmp_path / "run"
    shutil.copytree(trained_run[1], run)
    edit(run)
    code = cli_main([command, "--run", str(run),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_evaluate_rejects_a_run_whose_snapshot_overlaps(trained_run,
                                                           tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(trained_run[1], run)
    doc = json.loads((run / "snapshot.json").read_text())
    assert not doc["terminal"]
    # the second vehicle on the first one's spot keeps the ring order
    doc["vehicles"][1]["position"] = doc["vehicles"][0]["position"]
    (run / "snapshot.json").write_text(json.dumps(doc))
    code = cli_main(["evaluate", "--run", str(run),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "overlap" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _assert_retired_key_fails_the_run(trained_run, tmp_path, capsys,
                                      after, retired):
    """A run.json written before ``retired`` ('key = value') was retired
    names it after the line ``after``; like any unknown key, it fails the
    run's config."""
    run = tmp_path / "run"
    shutil.copytree(trained_run[1], run)
    _edit_config_line(f"{after}\n", f"{after}\n{retired}\n")(run)
    key = retired.partition(" =")[0]
    for command in ("evaluate", "compare"):
        code = cli_main([command, "--run", str(run),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_cli_rejects_a_run_that_names_the_retired_success_switch(
        trained_run, tmp_path, capsys):
    _assert_retired_key_fails_the_run(
        trained_run, tmp_path, capsys, "reward.success_bonus = 1000.0",
        "reward.success_terminates = true")


def test_cli_rejects_a_run_that_names_the_retired_speed_jitter(
        trained_run, tmp_path, capsys):
    _assert_retired_key_fails_the_run(
        trained_run, tmp_path, capsys, "scenario.max_episode_steps = 3000",
        "scenario.speed_jitter = 0.0")
