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
from .dqn import DdqnConfig, RewardConfig
from .idm import IdmParams
from .net import MlpSpec, check_count
from .ring import FormationStrategy, RingState, check_capacity


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

    def __post_init__(self):
        RingState(self.length, self.dt, self.idm)  # checks length and dt
        check_count("load_target", self.load_target, 1)
        check_capacity(self.length, self.idm, self.load_target)
        for count in self.removal_schedule:
            check_count("a removal count", count, 0)
        for name in ("removal_seed", "cav_count"):
            check_count(name, getattr(self, name), 0)
        check_count("max_episode_steps", self.max_episode_steps, 1)


# Named scenario presets mirroring the experiment suite, and the training
# profiles, as the config keys they change and their values: what
# ``parse_kv`` returns for a file of those lines.
PRESETS = {
    "mpr33": {"scenario.removal_schedule": "17", "scenario.cav_count": "17",
              "scenario.formation": "platoon"},
    "mpr15": {"scenario.removal_schedule": "9", "scenario.cav_count": "9"},
    "mpr66": {"scenario.removal_schedule": "17", "scenario.cav_count": "34"},
    "two-step": {"scenario.removal_schedule": "17, 12",
                 "scenario.cav_count": "13"},
}

# 'full' keeps the published sizes; 'desk' shrinks the net and the budgets.
PROFILES = {
    "full": {},
    "desk": {
        "net.hidden_dims": "64, 64",
        "ddqn.episodes": "500",
        "ddqn.total_train_steps": "150000",
        "ddqn.target_sync_period": "500",
        "ddqn.min_buffer_before_learning": "500",
        "ddqn.epsilon.decay_steps": "40000",
        "ddqn.lr.total_steps": "150000",
        "scenario.max_episode_steps": "600",
    },
}


def _named(table, kind, name):
    if name not in table:
        raise ConfigError(f"unknown {kind} {name!r} (have {sorted(table)})")
    return table[name]


def preset(name):
    """The default config with the values of preset ``name``."""
    return config_from_kv(_named(PRESETS, "preset", name))


def apply_profile(config, profile):
    """``config`` with the values of training profile ``profile``."""
    return config_from_kv(_named(PROFILES, "profile", profile), config)


# -- key = value (de)serialization ---------------------------------------

_DEFAULTS = ScenarioConfig()


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
    the type of its first item (an empty text has no item, and an empty
    item is an error), and speed-limit rules read 'threshold:limit'.
    """
    text = text.strip()
    if isinstance(default, tuple):
        parts = text.split(",") if text else []
        if not all(part.strip() for part in parts):
            raise ValueError(f"empty item in {text!r}")
        return tuple(_parse(default[0], part) for part in parts)
    if isinstance(default, VslRule):
        threshold, _, limit = text.partition(":")
        return VslRule(float(threshold), float(limit))
    if isinstance(default, Enum):
        return type(default)(text.lower())
    return type(default)(text)


def _format(value):
    if isinstance(value, tuple):
        return ", ".join(_format(v) for v in value)
    if isinstance(value, VslRule):
        return f"{_format(value.min_mean_speed)}:{_format(value.limit)}"
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


def config_from_kv(kv, base=None):
    """``base`` (default: the default ScenarioConfig) with the values of a
    flat dotted-key dict.

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
        return _with(ScenarioConfig() if base is None else base, updates)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def config_to_kv(c):
    """Serialize a ScenarioConfig to the flat dotted-key text format;
    integers are written plainly and floats exactly (``repr``)."""
    return "".join(f"{key} = {_format(_get(c, path))}\n"
                   for key, path in _KEYS.items())


def load_config(path, base=None):
    with open(path) as f:
        return config_from_kv(parse_kv(f.read()), base)
