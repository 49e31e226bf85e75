"""Config parsing, presets, profiles, and the command-line surface."""

import dataclasses

import pytest

from ringflow import ConfigError, ScenarioConfig, apply_profile, preset
from ringflow.cli import main as cli_main
from ringflow.config import (
    config_from_kv,
    config_to_kv,
    load_config,
    parse_kv,
    save_config,
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
    c = dataclasses.replace(c, seed=99, out_dir="elsewhere")
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
    big = dataclasses.replace(big, seed=0, ddqn=dataclasses.replace(
        big.ddqn, replay_capacity=1_000_000, gamma=0.123456789, seed=0))
    for c in (ScenarioConfig(), big):
        _assert_same_typed(c, config_from_kv(parse_kv(config_to_kv(c))))


def test_values_parse_by_field_type():
    c = config_from_kv({"ddqn.seed": "0", "scenario.cav_count": "1",
                        "sim.length": "250", "reward.success_terminates": "no"})
    assert type(c.ddqn.seed) is int and c.ddqn.seed == 0
    assert type(c.cav_count) is int and c.cav_count == 1
    assert type(c.length) is float and c.length == 250.0
    assert c.reward.success_terminates is False
    for key, value in (("ddqn.replay_capacity", "1e+06"),
                       ("reward.success_terminates", "2")):
        with pytest.raises(ConfigError):
            config_from_kv({key: value})


def test_vsl_period_of_zero_is_rejected_at_load(tmp_path):
    with pytest.raises(ConfigError):
        config_from_kv({"vsl.period_steps": "0"})
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("vsl.period_steps = 0\n")
    assert cli_main(["compare", "--config", str(cfgfile)]) == 1


def test_unknown_key_fails_fast():
    with pytest.raises(ConfigError):
        config_from_kv({"idm.warp_drive": "1"})


def test_malformed_value_fails():
    with pytest.raises(ConfigError):
        config_from_kv({"sim.dt": "fast"})


def test_parse_kv_lines():
    kv = parse_kv("a.b = 1\n# comment\n\nc.d=x y\n")
    assert kv == {"a.b": "1", "c.d": "x y"}


def test_config_file_round_trip(tmp_path):
    c = dataclasses.replace(
        apply_profile(preset("mpr15"), "desk"),
        formation=FormationStrategy.PLATOON,
    )
    p = tmp_path / "run.cfg"
    save_config(c, p)
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


def test_cli_mpr_calc_infeasible_exit_code():
    code = cli_main([
        "mpr-calc", "--total", "60", "--prev-headway", "2.5",
        "--cur-headway", "2.6", "--cav-headway", "3.0",
    ])
    assert code == 3


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


def test_cli_unknown_subcommand():
    assert cli_main(["frobnicate"]) == 1


def test_cli_evaluate_requires_checkpoint(tmp_path):
    code = cli_main([
        "evaluate", "--checkpoint", str(tmp_path / "missing.bin"),
        "--out", str(tmp_path),
    ])
    assert code != 0
