"""Configuration loading.

A single YAML file configures the vehicle, both controllers and the mission
runner. Every key has a default, so an empty file (or no file at all) yields
a complete, working configuration. Unknown keys are rejected to catch typos.

Top-level vehicle keys::

    mass, inertia_xx, inertia_yy, inertia_zz, track_width, wheelbase,
    k_f, arm, rotor_max, servo_max, dt

Sections::

    pid:   channels x, y, z, roll, pitch, yaw, each with p/i/d,
           plus windup_limit, tilt_limit, torque_limit
    nmpc:  horizon, period, q_x, q_y, q_z, q_yaw, r_c, r_roll, r_pitch,
           r_yaw, accel_min, accel_max, tilt_max, max_iters, tol, tilt_weight
    sim:   cruise_ground, cruise_air, cruise_water, land_speed,
           arrival_radius, controller_period, time_limit, hover_hold,
           yaw_slew

Each number key's valid range is metadata on its dataclass field; a key
without one takes any finite number.  ``validate`` checks that every value
is a finite number (an integer for an ``int`` field) in its range, then the
rules between keys, and caps the work a run may ask for (``MAX_TICKS`` and
below); a config built in code meets the same checks as a YAML file.
"""

from __future__ import annotations

import math
import os
import re
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np
import yaml

from .errors import ConfigError

__all__ = [
    "PidChannelGains",
    "PidConfig",
    "NmpcConfig",
    "SimConfig",
    "Config",
    "default_config",
    "load_config",
    "read_yaml",
    "validate",
    "tick_ratios",
    "ENV_CONFIG_VAR",
]

# Environment variable consulted when no --config flag is given.
ENV_CONFIG_VAR = "CYCLOSIM_CONFIG"

GRAVITY = 9.81

# Work caps, far above the defaults (60,000 ticks, 1 substep, horizon 15,
# 50 iterations).  The run log holds 30 floats a tick, 240 MB at MAX_TICKS.
MAX_TICKS = 1_000_000
MAX_SUBSTEPS = 1_000
MAX_HORIZON = 200
MAX_ITERS = 1_000
# Largest RK4 step, s: the upper end of dt and of nmpc.period (the prediction's step).
MAX_STEP = 0.05


def _number(value) -> bool:
    """An int or float that float() takes: no bool, nor an int past the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def _within(default, low, high=math.inf, open_low=False):
    """A field whose value must lie in [low, high], or (low, high] if
    ``open_low``."""
    return field(default=default, metadata={"range": (low, high, open_low)})


def _positive(default):
    return _within(default, 0, open_low=True)


@dataclass(frozen=True)
class PidChannelGains:
    p: float = 0.0
    i: float = 0.0
    d: float = 0.0


@dataclass(frozen=True)
class PidConfig:
    x: PidChannelGains = PidChannelGains(1.2, 0.01, 1.1)
    y: PidChannelGains = PidChannelGains(1.2, 0.01, 1.1)
    z: PidChannelGains = PidChannelGains(1.2, 0.01, 1.1)
    roll: PidChannelGains = PidChannelGains(6.0, 0.05, 0.8)
    pitch: PidChannelGains = PidChannelGains(6.0, 0.05, 0.8)
    yaw: PidChannelGains = PidChannelGains(6.0, 0.05, 0.8)
    # Anti-windup clamp on each integral accumulator (symmetric, error*s).
    windup_limit: float = _positive(1.0)
    # Attitude reference clamp produced by the position loop, rad.
    tilt_limit: float = _positive(math.pi / 6.0)
    # Torque command clamp per axis, N*m.
    torque_limit: float = _positive(2.0)


@dataclass(frozen=True)
class NmpcConfig:
    horizon: int = _within(15, 2, MAX_HORIZON)
    period: float = _within(0.05, 0, MAX_STEP, open_low=True)
    q_x: float = _within(10.0, 0)
    q_y: float = _within(10.0, 0)
    q_z: float = _within(10.0, 0)
    q_yaw: float = _within(2.0, 0)
    r_c: float = _positive(0.1)
    r_roll: float = _positive(0.5)
    r_pitch: float = _positive(0.5)
    r_yaw: float = _positive(0.5)
    # Box on the thrust acceleration channel c - g, m/s^2.
    accel_min: float = -5.0
    accel_max: float = 15.0
    # Roll/pitch limit, rad, a linearized constraint of each solver step.
    tilt_max: float = _positive(math.pi / 6.0)
    # Prices tilt past the limit in the reported cost and the iterate rank.
    tilt_weight: float = _positive(1.0e4)
    max_iters: int = _within(50, 1, MAX_ITERS)
    tol: float = _positive(1.0e-6)

    @property
    def q_diag(self) -> np.ndarray:
        return np.array([self.q_x, self.q_y, self.q_z, self.q_yaw])

    @property
    def r_diag(self) -> np.ndarray:
        return np.array([self.r_c, self.r_roll, self.r_pitch, self.r_yaw])


@dataclass(frozen=True)
class SimConfig:
    cruise_ground: float = _positive(2.0)
    cruise_air: float = _positive(3.0)
    cruise_water: float = _positive(1.0)
    # Vertical speed of the final descent leg, m/s.
    land_speed: float = _positive(2.0)
    arrival_radius: float = _positive(0.5)
    controller_period: float = _positive(0.01)
    time_limit: float = _positive(600.0)
    hover_hold: float = _within(2.0, 0)
    # Reference yaw slew rate, rad/s.
    yaw_slew: float = _positive(1.5)


@dataclass(frozen=True)
class Config:
    mass: float = _positive(0.75)
    inertia_xx: float = _positive(8.0e-3)
    inertia_yy: float = _positive(8.0e-3)
    inertia_zz: float = _positive(1.2e-2)
    track_width: float = _positive(0.40)
    wheelbase: float = _positive(0.40)
    k_f: float = _positive(1.0e-5)
    arm: float = _positive(0.20)
    rotor_max: float = _positive(1200.0)
    servo_max: float = _positive(math.pi / 4.0)
    # Plant RK4 step, s: one step a tick, whose local error meets the
    # guard-derived budget of the plant tests.
    dt: float = _within(SimConfig.controller_period, 0, MAX_STEP, open_low=True)
    pid: PidConfig = field(default_factory=PidConfig)
    nmpc: NmpcConfig = field(default_factory=NmpcConfig)
    sim: SimConfig = field(default_factory=SimConfig)


def default_config() -> Config:
    """Configuration with all keys at their default values."""
    return Config()


def _dotted(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _merge(path: str, base, data: dict):
    """``base`` with the YAML mapping ``data`` overlaid; ``path`` is the
    dotted name of ``base`` ("" for the root).  A number becomes a float, or
    an ``int`` for an ``int`` field if whole; ``validate`` checks the values."""
    kinds = {f.name: f.type for f in fields(base)}
    updates: dict = {}
    for key, value in data.items():
        if key not in kinds:
            raise ConfigError(f"{path}: unknown key {key!r}" if path
                              else f"unknown config key {key!r}")
        name = _dotted(path, key)
        if is_dataclass(getattr(base, key)):
            if not isinstance(value, dict):
                raise ConfigError(f"{name}: expected a mapping")
            value = _merge(name, getattr(base, key), value)
        elif _number(value):
            whole = kinds[key] == "int" and float(value).is_integer()
            value = int(value) if whole else float(value)
        updates[key] = value
    return replace(base, **updates)


def _check_values(path: str, obj) -> None:
    for f in fields(obj):
        name = _dotted(path, f.name)
        value = getattr(obj, f.name)
        if is_dataclass(value):
            _check_values(name, value)
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name}: expected a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # also an int past the float range
            raise ConfigError(f"{name}: must be finite")
        if f.type == "int" and not isinstance(value, int):
            raise ConfigError(f"{name}: expected an integer")
        if "range" in f.metadata:
            low, high, open_low = f.metadata["range"]
            if (low < value if open_low else low <= value) and value <= high:
                continue
            if high < math.inf:
                bound = f"lie in {'(' if open_low else '['}{low}, {high}]"
            else:
                bound = "be positive" if open_low else f"be at least {low}"
            raise ConfigError(f"{name} must {bound}, got {value!r}")


def validate(cfg: Config) -> Config:
    """Return ``cfg`` if every key is a finite number in its field's type and
    range and the keys agree with each other and with the work caps; else a
    ConfigError naming the key.  ``load_config`` and ``run`` both apply it."""
    _check_values("", cfg)
    if cfg.nmpc.accel_min >= cfg.nmpc.accel_max:
        raise ConfigError("nmpc.accel_min must be below nmpc.accel_max")
    if cfg.sim.controller_period < cfg.dt:
        raise ConfigError("sim.controller_period must be >= dt" + _set_dt_too(cfg))
    substeps = cfg.sim.controller_period / cfg.dt
    if substeps > MAX_SUBSTEPS:
        raise ConfigError(f"sim.controller_period over dt is {substeps:.3g} substeps"
                          f" per tick, above the cap of {MAX_SUBSTEPS}")
    ticks = cfg.sim.time_limit / cfg.sim.controller_period
    if ticks > MAX_TICKS:
        raise ConfigError(f"sim.time_limit over sim.controller_period is {ticks:.3g}"
                          f" ticks, above the cap of {MAX_TICKS}")
    tick_ratios(cfg)
    return cfg


def _set_dt_too(cfg: Config) -> str:
    return (f", got sim.controller_period {cfg.sim.controller_period!r} and dt {cfg.dt!r};"
            " set dt as well, to the period over a whole number of plant steps")


def tick_ratios(cfg: Config) -> tuple[int, int]:
    """``(substeps, nmpc_every)``: plant steps per controller tick and ticks
    per solver period.  A ConfigError names the key whose ratio is not a
    whole number of at least one (within 1e-12 s)."""
    tick = cfg.sim.controller_period
    substeps = round(tick / cfg.dt)
    if abs(substeps * cfg.dt - tick) > 1e-12 or substeps < 1:
        raise ConfigError("sim.controller_period must be a multiple of dt" + _set_dt_too(cfg))
    nmpc_every = round(cfg.nmpc.period / tick)
    if abs(nmpc_every * tick - cfg.nmpc.period) > 1e-12 or nmpc_every < 1:
        raise ConfigError("nmpc.period must be a multiple of sim.controller_period,"
                          f" got {cfg.nmpc.period!r}")
    return substeps, nmpc_every


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2's floats with an exponent but no
    dot or no exponent sign, such as ``1e6`` and ``1.5e2``, as numbers; the
    YAML 1.1 resolver leaves them strings."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def read_yaml(path, what: str, error: type[Exception]):
    """The parsed YAML file at ``path``; ``error`` names the ``what`` file
    when it cannot be read or is malformed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.load(fh, Loader=_Loader)
    except OSError as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise error(f"malformed {what} file {path}: {exc}") from exc


def load_config(path: str | os.PathLike | None = None) -> Config:
    """Load a configuration file, overlaying defaults.

    Parameters
    ----------
    path : str or None
        YAML file path. ``None`` falls back to the ``CYCLOSIM_CONFIG``
        environment variable; if that is unset too, defaults are returned.

    Raises
    ------
    ConfigError
        On unreadable files, malformed YAML, unknown keys or invalid values.
    """
    if path is None:
        path = os.environ.get(ENV_CONFIG_VAR) or None
    if path is None:
        return default_config()
    raw = read_yaml(path, "config", ConfigError)
    if raw is None:
        return default_config()
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    return validate(_merge("", default_config(), raw))
