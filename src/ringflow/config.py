"""Scenario configuration: flat key = value text with dotted sections.

Unknown keys fail fast.  A ScenarioConfig bundles everything one experiment
needs: loop geometry, IDM parameters, load/removal schedule, CAV formation,
DDQN hyperparameters, reward constants, and the VSL rule table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from functools import reduce

from .baselines import VslPolicy, VslRule, default_vsl_policy
from .dqn import DdqnConfig, EpsilonSchedule, RewardConfig
from .idm import IdmParams
from .net import LrSchedule, MlpSpec, DESK_SPEC
from .ring import FormationStrategy


class ConfigError(ValueError):
    pass


@dataclass
class ScenarioConfig:
    length: float = 1000.0
    dt: float = 0.1
    idm: IdmParams = field(default_factory=IdmParams)
    load_target: int = 68
    removal_schedule: tuple = (17,)
    removal_seed: int = 12345
    cav_count: int = 17
    formation: FormationStrategy = FormationStrategy.UNIFORM
    net_spec: MlpSpec = field(default_factory=MlpSpec)
    ddqn: DdqnConfig = field(default_factory=DdqnConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    vsl: VslPolicy = field(default_factory=default_vsl_policy)
    max_episode_steps: int = 3000
    speed_jitter: float = 0.0
    seed: int = 0
    out_dir: str = "out"


def preset(name):
    """Named scenario presets mirroring the experiment suite."""
    base = ScenarioConfig()
    presets = {
        "mpr33": replace(
            base,
            removal_schedule=(17,),
            cav_count=17,
            formation=FormationStrategy.PLATOON,
        ),
        "mpr15": replace(base, removal_schedule=(9,), cav_count=9),
        "mpr66": replace(base, removal_schedule=(17,), cav_count=34),
        "two-step": replace(base, removal_schedule=(17, 12), cav_count=13),
    }
    if name not in presets:
        raise ConfigError(
            f"unknown preset {name!r} (have {sorted(presets)})"
        )
    return presets[name]


def apply_profile(config, profile):
    """'full' keeps the published sizes; 'desk' shrinks net and budgets."""
    if profile == "full":
        return config
    if profile == "desk":
        return replace(
            config,
            net_spec=DESK_SPEC,
            ddqn=replace(
                config.ddqn,
                episodes=500,
                total_train_steps=150_000,
                target_sync_period=500,
                min_buffer_before_learning=500,
                epsilon=EpsilonSchedule(decay_steps=40_000),
                lr=LrSchedule(total_steps=150_000),
            ),
            max_episode_steps=600,
        )
    raise ConfigError(f"unknown profile {profile!r} (full or desk)")


# -- key = value (de)serialization ---------------------------------------

_DEFAULTS = ScenarioConfig()
_BOOLS = {"true": True, "yes": True, "1": True,
          "false": False, "no": False, "0": False}


def _get(obj, path):
    return reduce(getattr, path, obj)


def _keys(prefix, path):
    """Keys for the non-dataclass fields of the section at ``path``."""
    section = _get(_DEFAULTS, path)
    return {f"{prefix}.{f.name}": path + (f.name,) for f in fields(section)
            if not is_dataclass(getattr(section, f.name))}


# Every config key, in file order, with the attribute path it sets.
_KEYS = {
    "sim.length": ("length",),
    "sim.dt": ("dt",),
    **{key: path for key, path in _keys("scenario", ()).items()
       if path not in (("length",), ("dt",))},
    **_keys("idm", ("idm",)),
    **_keys("ddqn", ("ddqn",)),
    **_keys("ddqn.epsilon", ("ddqn", "epsilon")),
    **_keys("ddqn.lr", ("ddqn", "lr")),
    **_keys("reward", ("reward",)),
    "net.hidden_dims": ("net_spec", "hidden_dims"),
    **_keys("vsl", ("vsl",)),
}


def _parse(default, text):
    """``text`` as a value of the type of ``default``; a tuple's items take
    the type of its first item, and speed-limit rules read 'threshold:limit'.
    """
    text = text.strip()
    if isinstance(default, tuple):
        return tuple(_parse(default[0], part)
                     for part in text.split(",") if part.strip())
    if isinstance(default, VslRule):
        threshold, _, limit = text.partition(":")
        return VslRule(float(threshold), float(limit))
    if isinstance(default, bool):
        if text.lower() not in _BOOLS:
            raise ValueError(f"expected a boolean, got {text!r}")
        return _BOOLS[text.lower()]
    if isinstance(default, Enum):
        return type(default)(text.lower())
    return type(default)(text)


def _format(value):
    if isinstance(value, tuple):
        return ", ".join(_format(v) for v in value)
    if isinstance(value, VslRule):
        return f"{_format(value.min_mean_speed)}:{_format(value.limit)}"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, Enum):
        return value.value
    return str(value)


def _with(obj, updates):
    """``obj`` with ``updates`` (attribute path -> value) applied, one
    ``replace`` per dataclass so its checks see all of its new values."""
    changes, nested = {}, {}
    for path, value in updates.items():
        if len(path) == 1:
            changes[path[0]] = value
        else:
            nested.setdefault(path[0], {})[path[1:]] = value
    for name, sub in nested.items():
        changes[name] = _with(getattr(obj, name), sub)
    return replace(obj, **changes)


def parse_kv(text):
    """Parse 'a.b.c = value' lines into a flat dict; # starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value': {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def config_from_kv(kv):
    """Build a ScenarioConfig from a flat dotted-key dict.

    Each value parses as the type of its field's default value.  Unknown
    keys, malformed values and values the config classes reject fail here.
    """
    updates = {}
    for key, text in kv.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        path = _KEYS[key]
        try:
            updates[path] = _parse(_get(_DEFAULTS, path), text)
        except ValueError as e:
            raise ConfigError(f"{key}: {e}") from None
    try:
        return _with(ScenarioConfig(), updates)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def config_to_kv(c):
    """Serialize a ScenarioConfig to the flat dotted-key text format;
    integers are written plainly and floats exactly (``repr``)."""
    return "".join(f"{key} = {_format(_get(c, path))}\n"
                   for key, path in _KEYS.items())


def load_config(path):
    with open(path) as f:
        return config_from_kv(parse_kv(f.read()))


def save_config(config, path):
    with open(path, "w") as f:
        f.write(config_to_kv(config))
