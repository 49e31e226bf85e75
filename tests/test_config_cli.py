"""Config parsing, presets, profiles, and the command-line surface."""

import dataclasses
import json

import numpy as np
import pytest

from ringflow import ConfigError, ScenarioConfig, apply_profile, preset
from ringflow import baselines, config as config_mod, scenario
from ringflow import ring as ringmod
from ringflow.cli import _load_config, build_parser, main as cli_main
from ringflow.config import (
    PRESETS,
    PROFILES,
    config_from_kv,
    config_to_kv,
    load_config,
    parse_kv,
)
from ringflow.ring import FormationStrategy


# ---------------------------------------------------------------- config


def test_defaults_match_reference_setup():
    c = ScenarioConfig()
    assert c.length == 1000.0 and c.dt == 0.1
    assert c.load_target == 68
    assert c.idm.v0 == 30.0
    assert c.ddqn.gamma == 0.90
    assert c.ddqn.batch_size == 32
    assert c.ddqn.replay_capacity == 100_000
    assert c.ddqn.epsilon.start == 1.0 and c.ddqn.epsilon.end == 0.05
    assert c.ddqn.lr.base == 0.001 and c.ddqn.lr.final == 0.0
    assert c.net_spec.hidden_dims == (512, 512, 128, 64)
    assert c.reward.collision_penalty == -3000.0
    assert c.reward.success_bonus == 1000.0


def test_presets():
    c33 = preset("mpr33")
    assert c33.removal_schedule == (17,) and c33.cav_count == 17
    c15 = preset("mpr15")
    assert c15.removal_schedule == (9,) and c15.cav_count == 9
    with pytest.raises(ConfigError):
        preset("nope")


def test_desk_profile_shrinks_the_run():
    c = apply_profile(preset("mpr33"), "desk")
    assert c.net_spec.hidden_dims != (512, 512, 128, 64)
    assert c.ddqn.episodes <= 500
    assert c.ddqn.total_train_steps <= 150_000
    full = apply_profile(preset("mpr33"), "full")
    assert full.ddqn.total_train_steps == 1_000_000


def test_kv_round_trip():
    c = apply_profile(preset("mpr33"), "desk")
    c = dataclasses.replace(c, removal_seed=99)
    c2 = config_from_kv(parse_kv(config_to_kv(c)))
    assert c2 == c


def _assert_same_typed(a, b, where="config"):
    assert type(a) is type(b), where
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_same_typed(getattr(a, f.name), getattr(b, f.name),
                               f"{where}.{f.name}")
    elif isinstance(a, tuple):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same_typed(x, y, f"{where}[{i}]")
    else:
        assert a == b, where


def test_kv_round_trip_keeps_exact_types():
    big = ScenarioConfig()
    big = dataclasses.replace(big, ddqn=dataclasses.replace(
        big.ddqn, replay_capacity=1_000_000, gamma=0.123456789, seed=0))
    presets = [apply_profile(preset(name), profile)
               for name in PRESETS for profile in PROFILES]
    for c in (ScenarioConfig(), big, *presets):
        _assert_same_typed(c, config_from_kv(parse_kv(config_to_kv(c))))


def test_presets_and_profiles_are_config_file_values():
    for table in (*PRESETS.values(), *PROFILES.values()):
        text = "".join(f"{key} = {value}\n" for key, value in table.items())
        assert parse_kv(text) == table
        config_from_kv(table)  # every key known, every value valid
    with pytest.raises(ConfigError, match="unknown profile"):
        apply_profile(ScenarioConfig(), "nope")


def test_a_profile_changes_only_the_keys_it_names():
    c = config_from_kv({"ddqn.epsilon.start": "0.5", "ddqn.lr.base": "0.01",
                        "ddqn.gamma": "0.8"})
    desk = apply_profile(c, "desk")
    assert desk.ddqn.epsilon.start == 0.5 and desk.ddqn.lr.base == 0.01
    assert desk.ddqn.gamma == 0.8
    assert desk.ddqn.epsilon.decay_steps == 40_000
    assert desk.ddqn.lr.total_steps == 150_000
    assert apply_profile(c, "full") == c


def test_values_parse_by_field_type():
    c = config_from_kv({"ddqn.seed": "0", "scenario.cav_count": "1",
                        "sim.length": "250", "scenario.load_target": "17"})
    assert type(c.ddqn.seed) is int and c.ddqn.seed == 0
    assert type(c.cav_count) is int and c.cav_count == 1
    assert type(c.length) is float and c.length == 250.0
    with pytest.raises(ConfigError):
        config_from_kv({"ddqn.replay_capacity": "1e+06"})


def test_no_config_default_is_a_bool():
    # the text format has no bool grammar: a bool field would read any
    # non-empty text, "no" included, as True
    assert not [key for key, path in config_mod._KEYS.items()
                if isinstance(config_mod._get(config_mod._DEFAULTS, path),
                              bool)]


def test_vsl_period_of_zero_is_rejected_at_load(tmp_path):
    with pytest.raises(ConfigError):
        config_from_kv({"vsl.period_steps": "0"})
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("vsl.period_steps = 0\n")
    assert cli_main(["compare", "--config", str(cfgfile)]) == 1


@pytest.mark.parametrize("key, value", [
    ("idm.v0", "nan"),
    ("sim.length", "nan"),
    ("sim.dt", "inf"),
    ("vsl.rules", "15:30, 8:nan, 0:13"),
    ("vsl.rules", "15:30, nan:20, 0:13"),
])
def test_non_finite_values_are_rejected_at_load(tmp_path, key, value):
    with pytest.raises(ConfigError):
        config_from_kv({key: value})
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"{key} = {value}\n")
    assert cli_main(["compare", "--config", str(cfgfile)]) == 1


@pytest.mark.parametrize("key, value", [
    # a retired key: rejected as unknown (see test_unknown_key_fails_fast)
    ("scenario.speed_jitter", "nan"),
    ("scenario.load_target", "-1"),
    ("scenario.cav_count", "-1"),
    ("scenario.removal_schedule", "17, -1"),
    ("scenario.removal_seed", "-1"),
    ("scenario.max_episode_steps", "0"),
    ("ddqn.batch_size", "-1"),
    ("ddqn.episodes", "-1"),
    ("ddqn.total_train_steps", "-1"),
    ("ddqn.target_sync_period", "0"),
    ("ddqn.min_buffer_before_learning", "-1"),
    ("ddqn.replay_capacity", "0"),
    ("ddqn.seed", "-1"),
    ("ddqn.epsilon.start", "nan"),
    ("ddqn.epsilon.end", "inf"),
    ("ddqn.epsilon.decay_steps", "-1"),
    ("ddqn.lr.base", "nan"),
    ("ddqn.lr.final", "inf"),
    ("ddqn.lr.total_steps", "-1"),
    ("reward.collision_penalty", "-inf"),
    ("reward.success_bonus", "nan"),
])
def test_out_of_range_values_are_rejected_at_load(tmp_path, key, value):
    with pytest.raises(ConfigError):
        config_from_kv({key: value})
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"{key} = {value}\n")
    assert cli_main(["compare", "--config", str(cfgfile)]) == 1


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


# Every count setting: the keys whose default is an int or a tuple of ints.
_COUNT_KEYS = [
    key for key, path in config_mod._KEYS.items()
    if _is_int(value := config_mod._get(config_mod._DEFAULTS, path))
    or (isinstance(value, tuple) and value and all(map(_is_int, value)))
]


def test_count_keys_cover_every_int_setting():
    assert {"scenario.load_target", "scenario.removal_schedule",
            "scenario.removal_seed", "scenario.cav_count",
            "scenario.max_episode_steps", "ddqn.batch_size", "ddqn.seed",
            "ddqn.epsilon.decay_steps", "ddqn.lr.total_steps",
            "net.hidden_dims", "vsl.period_steps"} <= set(_COUNT_KEYS)


def _count_update(key, value):
    """``{path: value}`` for count key ``key``; a tuple key takes
    ``value`` as its one item."""
    path = config_mod._KEYS[key]
    tuple_key = isinstance(config_mod._get(config_mod._DEFAULTS, path), tuple)
    return {path: (value,) if tuple_key else value}


@pytest.mark.parametrize("key", _COUNT_KEYS)
@pytest.mark.parametrize("bad", [True, 2.5])
def test_count_settings_reject_bools_and_fractions(key, bad):
    with pytest.raises(ValueError, match="int"):
        config_mod._with(ScenarioConfig(), _count_update(key, bad))


# Every real-valued setting: the keys whose default is a float, and each
# field of a speed-limit rule (as the one rule of ``vsl.rules``).
_FLOAT_UPDATES = {
    **{key: {path: True} for key, path in config_mod._KEYS.items()
       if isinstance(config_mod._get(config_mod._DEFAULTS, path), float)},
    **{f"vsl.rules.{name}": {("vsl", "rules"): (dataclasses.replace(
        baselines.VslRule(10.0, 20.0), **{name: True}),)}
       for name in ("min_mean_speed", "limit")},
}


def test_float_keys_cover_every_real_setting():
    assert {"sim.length", "sim.dt", "idm.v0", "idm.vehicle_length",
            "ddqn.gamma", "ddqn.epsilon.start", "ddqn.epsilon.end",
            "ddqn.lr.base", "ddqn.lr.final", "reward.collision_penalty",
            "reward.success_bonus"} <= set(_FLOAT_UPDATES)


@pytest.mark.parametrize("key", sorted(_FLOAT_UPDATES))
def test_real_settings_reject_bools(key):
    # a bool would write as 'True', which the config text cannot read back
    with pytest.raises(ValueError):
        config_mod._with(ScenarioConfig(), _FLOAT_UPDATES[key])


def test_count_settings_take_numpy_integers():
    updates = {}
    for key in _COUNT_KEYS:
        updates.update(_count_update(key, np.int64(3)))
    c = config_mod._with(ScenarioConfig(), updates)
    assert c.load_target == 3 and c.net_spec.hidden_dims == (3,)


def test_unknown_key_fails_fast():
    # retired keys: a success always ends the episode
    # (reward.success_terminates), and every episode starts from the
    # snapshot itself (scenario.speed_jitter)
    for key in ("idm.warp_drive", "reward.success_terminates",
                "scenario.speed_jitter"):
        with pytest.raises(ConfigError, match=key):
            config_from_kv({key: "1"})
    assert len(config_mod._KEYS) == 34


def test_malformed_value_fails():
    with pytest.raises(ConfigError):
        config_from_kv({"sim.dt": "fast"})


@pytest.mark.parametrize("key, good", [
    ("scenario.removal_schedule", "1, 2"),
    ("net.hidden_dims", "64, 64"),
    ("vsl.rules", "15:30, 0:13"),
])
@pytest.mark.parametrize("gap", [",,", ", ,"])
def test_a_tuple_setting_rejects_an_empty_item(key, good, gap):
    head, tail = good.split(", ")
    for text in (head + gap + tail, good + ",", "," + good):
        with pytest.raises(ConfigError, match=f"{key}: empty item"):
            config_from_kv({key: text})


def test_an_empty_tuple_setting_is_the_empty_tuple():
    # no rule: the speed limit never restricts
    c = config_from_kv({"vsl.rules": "", "scenario.removal_schedule": " "})
    assert c.vsl.rules == () and c.removal_schedule == ()
    assert config_from_kv(parse_kv(config_to_kv(c))) == c


def test_parse_kv_lines():
    kv = parse_kv("a.b = 1\n# comment\n\nc.d=x y\n")
    assert kv == {"a.b": "1", "c.d": "x y"}


def test_config_file_round_trip(tmp_path):
    c = dataclasses.replace(
        apply_profile(preset("mpr15"), "desk"),
        formation=FormationStrategy.PLATOON,
    )
    p = tmp_path / "run.cfg"
    p.write_text(config_to_kv(c))
    assert load_config(p) == c


# ---------------------------------------------------------------- CLI


def test_cli_mpr_calc_success(capsys):
    code = cli_main([
        "mpr-calc", "--total", "60", "--prev-headway", "2.5",
        "--cur-headway", "2.6", "--cav-headway", "2.0",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "10" in out


@pytest.mark.parametrize("flag", ["--prev-headway", "--cur-headway",
                                  "--cav-headway"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_cli_mpr_calc_rejects_non_finite_headways(capsys, flag, value):
    args = {"--prev-headway": "2.5", "--cur-headway": "2.6",
            "--cav-headway": "2.0", flag: value}
    code = cli_main(["mpr-calc", "--total", "60",
                     *(part for item in args.items() for part in item)])
    captured = capsys.readouterr()
    assert code == 1
    assert "finite and positive" in captured.err
    assert "nan" not in captured.out


def test_cli_mpr_calc_infeasible_exit_code(capsys):
    # a CAV headway that moves the average away from the target, then one
    # equal to the current headway (degenerate)
    for cur, cav in (("2.6", "3.0"), ("3", "3")):
        code = cli_main([
            "mpr-calc", "--total", "60", "--prev-headway", "2.5",
            "--cur-headway", cur, "--cav-headway", cav,
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith("infeasible: ")


def test_cli_bad_config_key_exit_code(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("sim.bogus = 1\n")
    code = cli_main(["hysteresis", "--config", str(cfgfile)])
    assert code == 1


def test_cli_config_and_preset_are_exclusive(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("scenario.load_target = 10\n")
    code = cli_main(["hysteresis", "--config", str(cfgfile),
                     "--preset", "mpr33", "--out", str(tmp_path)])
    assert code == 1


def test_cli_out_is_the_only_output_dir_setting(monkeypatch, capsys,
                                                tmp_path):
    monkeypatch.setenv("RINGFLOW_OUT", "elsewhere")
    parse = build_parser().parse_args
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    for command in ("hysteresis", "train", "compare"):
        assert parse([command]).out == "out"
        assert parse([command, "--out", "runs/a"]).out == "runs/a"
        assert cli_main([command, "--out", ""]) == 1
        assert "argument --out: must name a directory" in \
            capsys.readouterr().err
        # a file is refused before any work
        assert cli_main([command, "--out", str(a_file)]) == 1
        assert f"argument --out: not a directory: {a_file}" in \
            capsys.readouterr().err
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_kv({"scenario.out_dir": "runs"})


def test_cli_train_seed_is_checked_as_a_config_value(tmp_path, capsys):
    code = cli_main(["train", "--profile", "desk", "--seed", "-1",
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_unknown_subcommand():
    assert cli_main(["frobnicate"]) == 1


def test_cli_seed_is_a_train_flag(tmp_path, capsys):
    assert build_parser().parse_args(["train", "--seed", "3"]).seed == 3
    for command in ("hysteresis", "evaluate", "compare"):
        required = ["--run", str(tmp_path)] * (command == "evaluate")
        assert cli_main([command, "--seed", "1", *required]) == 1
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_cli_profile_is_a_train_flag(tmp_path, capsys):
    parse = build_parser().parse_args
    assert parse(["train", "--profile", "desk"]).profile == "desk"
    for command in ("hysteresis", "evaluate", "compare"):
        required = ["--run", str(tmp_path)] * (command == "evaluate")
        assert cli_main([command, "--profile", "desk", *required,
                         "--out", str(tmp_path / "out")]) == 1
        assert "unrecognized arguments: --profile" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag", [
    ("evaluate", "--steps"),
    ("compare", "--steps"),
    ("compare", "--extra-steps"),
])
def test_cli_negative_step_counts_are_usage_errors(tmp_path, capsys,
                                                   command, flag):
    # a run of 0 steps would have no trace to write
    for value in (-5, 0):
        code = cli_main([command, flag, str(value), "--run", str(tmp_path),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert (f"argument {flag}: must be >= 1, got {value}"
                in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_cli_evaluate_requires_checkpoint(tmp_path):
    code = cli_main([
        "evaluate", "--run", str(tmp_path / "missing"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert not (tmp_path / "out").exists()


def test_cli_evaluate_needs_the_checkpoint_flag(tmp_path, capsys):
    assert cli_main(["evaluate", "--out", str(tmp_path / "out")]) == 1
    assert "the following arguments are required: --run" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_load_target_above_loop_capacity_is_rejected_at_load():
    with pytest.raises(ConfigError,
                       match="target_count 36 exceeds loop capacity 35"):
        config_from_kv({"sim.length": "250.0", "scenario.load_target": "36"})
    assert config_from_kv({"sim.length": "250.0",
                           "scenario.load_target": "35"}).load_target == 35


@pytest.mark.parametrize("command", ["hysteresis", "train"])
def test_cli_load_target_above_capacity_fails_before_out(tmp_path, capsys,
                                                         command):
    cfgfile = tmp_path / "big.cfg"
    cfgfile.write_text("sim.length = 250.0\nscenario.load_target = 200\n")
    code = cli_main([command, "--config", str(cfgfile),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "exceeds loop capacity 35" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, message", [
    ("scenario.removal_schedule = 68", "leaves no vehicle"),
    ("scenario.cav_count = 60", "cav_count 60 > the 51 vehicles"),
])
def test_cli_train_schedule_it_cannot_meet_fails_before_out(tmp_path, capsys,
                                                            line, message):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(line + "\n")
    code = cli_main(["train", "--config", str(cfgfile),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_hysteresis_stalled_loading_fails_before_out(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setattr(ringmod, "LOAD_MAX_STEPS", 5)
    cfgfile = tmp_path / "stall.cfg"
    cfgfile.write_text("scenario.load_target = 2\n")
    code = cli_main(["hysteresis", "--config", str(cfgfile),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "loading stalled at 1/2 vehicles" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_hysteresis_with_nothing_to_unload_fails_before_out(tmp_path,
                                                                capsys):
    # two vehicles load, and the unloading stops at two: an unloading
    # trace of no rows would be written, which FdTrace.read rejects
    cfgfile = tmp_path / "two.cfg"
    cfgfile.write_text("sim.length = 250.0\nscenario.load_target = 2\n")
    code = cli_main(["hysteresis", "--config", str(cfgfile),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert ("nothing to unload: the ring holds 2 vehicles and the unloading "
            "stops at 2") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_missing_config_file_is_a_usage_error(tmp_path, capsys):
    code = cli_main(["hysteresis", "--config", str(tmp_path / "no.cfg"),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_compare_reads_its_checkpoint_before_loading(tmp_path,
                                                         monkeypatch, capsys):
    def never(config):
        raise AssertionError("build_scenario called")

    monkeypatch.setattr(scenario, "build_scenario", never)
    run = tmp_path / "run"
    run.mkdir()
    (run / "run.json").write_text(json.dumps({
        "config": config_to_kv(ScenarioConfig()),
        "success_flow_threshold": 1000.0}))
    (run / "checkpoint.bin").write_bytes(b"NOTAFILE")
    code = cli_main(["compare", "--run", str(run),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "not a ringflow checkpoint" in capsys.readouterr().err


def test_cli_compare_without_a_run_writes_the_two_human_branches(tmp_path):
    cfgfile = tmp_path / "small.cfg"
    cfgfile.write_text("sim.length = 250.0\nscenario.load_target = 17\n"
                       "scenario.removal_schedule = 4\n"
                       "scenario.cav_count = 4\n")
    out = tmp_path / "out"
    assert cli_main(["compare", "--config", str(cfgfile),
                     "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "comparison.csv", "comparison.svg", "idm_recovery_trace.csv",
        "vsl_trace.csv"]
    rows = (out / "comparison.csv").read_text().splitlines()
    assert rows[0].startswith("scenario,branch,")
    assert [r.split(",")[1] for r in rows[1:]] == ["idm", "vsl"]
    config = load_config(cfgfile)
    snapshot = scenario.build_scenario(config).env_spec.snapshot
    for name, trace in (
            ("idm_recovery_trace.csv",
             baselines.run_idm_recovery(snapshot, 2000)),
            ("vsl_trace.csv",
             baselines.run_vsl(snapshot, config.vsl, 2000)[0])):
        trace.write(tmp_path / name)
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


def test_cli_file_keys_beat_the_profile(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("ddqn.total_train_steps = 3000\nnet.hidden_dims = 8\n")
    parse = build_parser().parse_args
    c = _load_config(parse(["train", "--config", str(cfgfile),
                            "--profile", "desk"]))
    assert c.ddqn.total_train_steps == 3000
    assert c.net_spec.hidden_dims == (8,)
    assert c.max_episode_steps == 600  # unset in the file: the desk value
    assert c.ddqn.episodes == 500
    assert _load_config(parse(["train", "--config", str(cfgfile)])) == \
        load_config(cfgfile)


def test_counts_the_schedule_cannot_meet_fail_before_loading(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("load_vehicles called")

    monkeypatch.setattr(scenario, "load_vehicles", never)
    scenario._loaded.cache_clear()
    base = ScenarioConfig(length=250.0, load_target=17)  # valid to construct
    for bad in (dict(removal_schedule=(17,)),
                dict(removal_schedule=(10, 7)),
                dict(removal_schedule=(9,), cav_count=9)):
        with pytest.raises(ValueError):
            scenario.build_scenario(dataclasses.replace(base, **bad))
    # the largest CAV count that fits gets as far as loading
    with pytest.raises(AssertionError):
        scenario.build_scenario(
            dataclasses.replace(base, removal_schedule=(9,), cav_count=8))
