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

Validation also caps the work a run may ask for (``MAX_TICKS`` and below).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace

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
    "tick_ratios",
    "ENV_CONFIG_VAR",
]

# Environment variable consulted when no --config flag is given.
ENV_CONFIG_VAR = "CYCLOSIM_CONFIG"

GRAVITY = 9.81

# Work caps, far above the defaults (60,000 ticks, 10 substeps, horizon 15,
# 50 iterations).  The run log holds 30 floats a tick, 240 MB at MAX_TICKS.
MAX_TICKS = 1_000_000
MAX_SUBSTEPS = 1_000
MAX_HORIZON = 200
MAX_ITERS = 1_000


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
    windup_limit: float = 1.0
    # Attitude reference clamp produced by the position loop, rad.
    tilt_limit: float = math.pi / 6.0
    # Torque command clamp per axis, N*m.
    torque_limit: float = 2.0


@dataclass(frozen=True)
class NmpcConfig:
    horizon: int = 15
    period: float = 0.05
    q_x: float = 10.0
    q_y: float = 10.0
    q_z: float = 10.0
    q_yaw: float = 2.0
    r_c: float = 0.1
    r_roll: float = 0.5
    r_pitch: float = 0.5
    r_yaw: float = 0.5
    # Box on the thrust acceleration channel c - g, m/s^2.
    accel_min: float = -5.0
    accel_max: float = 15.0
    # Roll/pitch limit, rad, a linearized constraint of each solver step.
    tilt_max: float = math.pi / 6.0
    # Prices tilt past the limit in the reported cost and the iterate rank.
    tilt_weight: float = 1.0e4
    max_iters: int = 50
    tol: float = 1.0e-6

    @property
    def q_diag(self) -> np.ndarray:
        return np.array([self.q_x, self.q_y, self.q_z, self.q_yaw])

    @property
    def r_diag(self) -> np.ndarray:
        return np.array([self.r_c, self.r_roll, self.r_pitch, self.r_yaw])


@dataclass(frozen=True)
class SimConfig:
    cruise_ground: float = 2.0
    cruise_air: float = 3.0
    cruise_water: float = 1.0
    # Vertical speed of the final descent leg, m/s.
    land_speed: float = 2.0
    arrival_radius: float = 0.5
    controller_period: float = 0.01
    time_limit: float = 600.0
    hover_hold: float = 2.0
    # Reference yaw slew rate, rad/s.
    yaw_slew: float = 1.5


@dataclass(frozen=True)
class Config:
    mass: float = 0.75
    inertia_xx: float = 8.0e-3
    inertia_yy: float = 8.0e-3
    inertia_zz: float = 1.2e-2
    track_width: float = 0.40
    wheelbase: float = 0.40
    k_f: float = 1.0e-5
    arm: float = 0.20
    rotor_max: float = 1200.0
    servo_max: float = math.pi / 4.0
    dt: float = 1.0e-3
    pid: PidConfig = field(default_factory=PidConfig)
    nmpc: NmpcConfig = field(default_factory=NmpcConfig)
    sim: SimConfig = field(default_factory=SimConfig)


def default_config() -> Config:
    """Configuration with all keys at their default values."""
    return Config()


# Accepted keys come from the dataclasses above, so a field added there is
# loadable without a second list to keep in step.
_SECTIONS = ("pid", "nmpc", "sim")
_VEHICLE_KEYS = tuple(f.name for f in fields(Config) if f.name not in _SECTIONS)
_GAIN_KEYS = {f.name for f in fields(PidChannelGains)}
_PID_CHANNELS = tuple(
    f.name for f in fields(PidConfig) if isinstance(f.default, PidChannelGains)
)
_PID_SCALARS = {f.name for f in fields(PidConfig)} - set(_PID_CHANNELS)


def _require_number(section: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}{key}: expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{section}{key}: must be finite")
    return out


def _merge_pid(base: PidConfig, data: dict) -> PidConfig:
    updates: dict = {}
    for key, value in data.items():
        if key in _PID_CHANNELS:
            if not isinstance(value, dict):
                raise ConfigError(f"pid.{key}: expected a mapping with p/i/d")
            unknown = set(value) - _GAIN_KEYS
            if unknown:
                raise ConfigError(f"pid.{key}: unknown keys {sorted(unknown)}")
            gains = getattr(base, key)
            updates[key] = replace(
                gains,
                **{g: _require_number(f"pid.{key}.", g, v) for g, v in value.items()},
            )
        elif key in _PID_SCALARS:
            updates[key] = _require_number("pid.", key, value)
        else:
            raise ConfigError(f"pid: unknown key {key!r}")
    return replace(base, **updates)


def _merge_section(name: str, base, data: dict):
    kinds = {f.name: f.type for f in fields(base)}
    updates: dict = {}
    for key, value in data.items():
        if key not in kinds:
            raise ConfigError(f"{name}: unknown key {key!r}")
        if kinds[key] in ("int", int):
            num = _require_number(f"{name}.", key, value)
            if num != int(num):
                raise ConfigError(f"{name}.{key}: expected an integer")
            updates[key] = int(num)
        else:
            updates[key] = _require_number(f"{name}.", key, value)
    return replace(base, **updates)


def _validate(cfg: Config) -> Config:
    positive = [(key, getattr(cfg, key)) for key in _VEHICLE_KEYS]
    for section, keys in (
        ("nmpc", ("period", "tol", "tilt_max", "tilt_weight")),
        ("pid", ("windup_limit", "tilt_limit", "torque_limit")),
        ("sim", ("controller_period", "time_limit", "cruise_ground", "cruise_air",
                 "cruise_water", "land_speed", "arrival_radius", "yaw_slew")),
    ):
        positive += [(f"{section}.{key}", getattr(getattr(cfg, section), key)) for key in keys]
    for name, value in positive:
        if value <= 0.0:
            raise ConfigError(f"{name} must be positive, got {value!r}")
    if cfg.sim.hover_hold < 0.0:
        raise ConfigError(f"sim.hover_hold must be at least 0, got {cfg.sim.hover_hold!r}")
    if cfg.dt > 0.05:
        raise ConfigError(f"dt must be <= 0.05 s, got {cfg.dt!r}")
    for key, value, low, cap in (("horizon", cfg.nmpc.horizon, 2, MAX_HORIZON),
                                 ("max_iters", cfg.nmpc.max_iters, 1, MAX_ITERS)):
        if not low <= value <= cap:
            raise ConfigError(f"nmpc.{key} must lie in [{low}, {cap}], got {value!r}")
    for key, value in zip(
        ("r_c", "r_roll", "r_pitch", "r_yaw"), cfg.nmpc.r_diag, strict=True
    ):
        if value <= 0.0:
            raise ConfigError(f"nmpc.{key} must be strictly positive, got {value!r}")
    for key, value in zip(
        ("q_x", "q_y", "q_z", "q_yaw"), cfg.nmpc.q_diag, strict=True
    ):
        if value < 0.0:
            raise ConfigError(f"nmpc.{key} must be nonnegative, got {value!r}")
    if cfg.nmpc.period > 0.05:
        raise ConfigError("nmpc.period must be <= 0.05 s (one integrator step)")
    if cfg.nmpc.accel_min >= cfg.nmpc.accel_max:
        raise ConfigError("nmpc.accel_min must be below nmpc.accel_max")
    if cfg.sim.controller_period < cfg.dt:
        raise ConfigError("sim.controller_period must be >= dt")
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


def tick_ratios(cfg: Config) -> tuple[int, int]:
    """``(substeps, nmpc_every)``: plant steps per controller tick and ticks
    per solver period.  A ConfigError names the key whose ratio is not a
    whole number of at least one (within 1e-12 s)."""
    tick = cfg.sim.controller_period
    substeps = round(tick / cfg.dt)
    if abs(substeps * cfg.dt - tick) > 1e-12 or substeps < 1:
        raise ConfigError(f"sim.controller_period must be a multiple of dt, got {tick!r}")
    nmpc_every = round(cfg.nmpc.period / tick)
    if abs(nmpc_every * tick - cfg.nmpc.period) > 1e-12 or nmpc_every < 1:
        raise ConfigError("nmpc.period must be a multiple of sim.controller_period,"
                          f" got {cfg.nmpc.period!r}")
    return substeps, nmpc_every


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
    if raw is None:
        return default_config()
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")

    cfg = default_config()
    updates: dict = {}
    for key, value in raw.items():
        if key in _VEHICLE_KEYS:
            updates[key] = _require_number("", key, value)
        elif key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"{key}: expected a mapping")
            if key == "pid":
                updates[key] = _merge_pid(cfg.pid, value)
            else:
                updates[key] = _merge_section(key, getattr(cfg, key), value)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return _validate(replace(cfg, **updates))
