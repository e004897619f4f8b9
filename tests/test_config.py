"""Configuration loader tests.

Oracles: every expected value is restated from the defaults or from the
file written by the test itself; every rejection names the offending key.
"""

import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from cyclosim import config
from cyclosim.config import (
    ENV_CONFIG_VAR,
    Config,
    NmpcConfig,
    PidConfig,
    SimConfig,
    default_config,
    load_config,
    validate,
)
from cyclosim.dynamics import VehicleParams, aerial_step, hover_state, step_rk4
from cyclosim.errors import ConfigError


@pytest.fixture
def write(tmp_path):
    def _write(text: str):
        path = tmp_path / "config.yaml"
        path.write_text(text)
        return path
    return _write


@pytest.fixture(autouse=True)
def keep_env_clean(monkeypatch):
    monkeypatch.delenv(ENV_CONFIG_VAR, raising=False)


class TestOverlay:
    def test_flat_vehicle_key(self, write):
        cfg = load_config(write("mass: 1.25\n"))
        assert cfg.mass == 1.25
        assert cfg.arm == default_config().arm

    def test_nested_pid_gains(self, write):
        cfg = load_config(write("pid:\n  roll:\n    p: 7.5\n  windup_limit: 0.5\n"))
        defaults = default_config().pid
        assert cfg.pid.roll.p == 7.5
        assert cfg.pid.roll.i == defaults.roll.i
        assert cfg.pid.roll.d == defaults.roll.d
        assert cfg.pid.windup_limit == 0.5
        assert cfg.pid.pitch == defaults.pitch

    def test_sections(self, write):
        cfg = load_config(write("nmpc:\n  horizon: 20\nsim:\n  hover_hold: 3.5\n"))
        assert cfg.nmpc.horizon == 20
        assert isinstance(cfg.nmpc.horizon, int)
        assert cfg.sim.hover_hold == 3.5

    @pytest.mark.parametrize("text, value", [("1e6", 1e6), ("1.5e2", 150.0),
                                             ("2E-1", 0.2), ("1.0e+6", 1e6)])
    def test_exponent_floats_are_numbers(self, write, text, value):
        # YAML 1.1 needs a dot and a signed exponent; YAML 1.2 does not.
        cfg = load_config(write(f"sim:\n  cruise_air: {text}\n"))
        assert cfg.sim.cruise_air == value
        assert isinstance(cfg.sim.cruise_air, float)

    def test_integer_key_accepts_whole_float(self, write):
        cfg = load_config(write("nmpc:\n  max_iters: 30.0\n"))
        assert cfg.nmpc.max_iters == 30
        assert isinstance(cfg.nmpc.max_iters, int)


class TestRejections:
    def test_unknown_top_level_key(self, write):
        with pytest.raises(ConfigError, match="unknown config key 'masss'"):
            load_config(write("masss: 1.0\n"))

    @pytest.mark.parametrize("section", ["pid", "nmpc", "sim"])
    def test_unknown_section_key(self, write, section):
        with pytest.raises(ConfigError, match=f"{section}: unknown key 'bogus'"):
            load_config(write(f"{section}:\n  bogus: 1.0\n"))

    def test_unknown_pid_channel_key(self, write):
        with pytest.raises(ConfigError, match=r"pid\.yaw: unknown key 'k'"):
            load_config(write("pid:\n  yaw:\n    k: 1.0\n"))

    def test_pid_channel_needs_mapping(self, write):
        with pytest.raises(ConfigError, match=r"pid\.x: expected a mapping"):
            load_config(write("pid:\n  x: 1.0\n"))

    @pytest.mark.parametrize("section", ["pid", "nmpc", "sim"])
    def test_section_needs_mapping(self, write, section):
        with pytest.raises(ConfigError, match=f"{section}: expected a mapping"):
            load_config(write(f"{section}: 3\n"))

    def test_fractional_horizon(self, write):
        with pytest.raises(ConfigError, match=r"nmpc\.horizon: expected an integer"):
            load_config(write("nmpc:\n  horizon: 15.5\n"))

    def test_bool_value(self, write):
        with pytest.raises(ConfigError, match=r"sim\.cruise_air: expected a number"):
            load_config(write("sim:\n  cruise_air: true\n"))

    def test_bool_vehicle_value(self, write):
        with pytest.raises(ConfigError, match="mass: expected a number"):
            load_config(write("mass: yes\n"))

    def test_non_finite_value(self, write):
        with pytest.raises(ConfigError, match=r"sim\.time_limit: must be finite"):
            load_config(write("sim:\n  time_limit: .inf\n"))

    def test_integer_past_the_float_range(self, write):
        # float() of a 400-digit integer raises OverflowError.
        with pytest.raises(ConfigError, match="mass: must be finite"):
            load_config(write("mass: 1" + "0" * 400 + "\n"))

    @pytest.mark.parametrize("key", ["tilt_max", "tilt_weight"])
    @pytest.mark.parametrize("value", ["0.0", "-1.0"])
    def test_tilt_keys_strictly_positive(self, write, key, value):
        # A zero tilt weight made every stage value 0/0 = NaN, so the
        # solver never left its warm start and still reported convergence.
        with pytest.raises(ConfigError, match=rf"nmpc\.{key} must be positive"):
            load_config(write(f"nmpc:\n  {key}: {value}\n"))

    @pytest.mark.parametrize("section, key", [
        ("sim", "cruise_ground"), ("sim", "cruise_air"), ("sim", "cruise_water"),
        ("sim", "land_speed"), ("sim", "arrival_radius"), ("sim", "yaw_slew"),
        ("pid", "windup_limit"), ("pid", "tilt_limit"), ("pid", "torque_limit"),
    ])
    @pytest.mark.parametrize("value", ["0.0", "-1.0"])
    def test_speeds_and_limits_strictly_positive(self, write, section, key, value):
        # A zero speed divided by zero when a leg was planned, a negative
        # one planned legs of negative duration, a zero arrival radius can
        # never be reached, and a negative pid limit inverts its clamp.
        with pytest.raises(ConfigError, match=rf"{section}\.{key} must be positive"):
            load_config(write(f"{section}:\n  {key}: {value}\n"))

    def test_hover_hold_not_negative(self, write):
        with pytest.raises(ConfigError, match=r"sim\.hover_hold must be at least 0"):
            load_config(write("sim:\n  hover_hold: -1.0\n"))
        assert load_config(write("sim:\n  hover_hold: 0.0\n")).sim.hover_hold == 0.0

    def test_root_must_be_mapping(self, write):
        with pytest.raises(ConfigError, match="config root must be a mapping"):
            load_config(write("- 1\n- 2\n"))


class TestFallbacks:
    def test_empty_file_gives_defaults(self, write):
        assert load_config(write("")) == default_config()

    def test_no_path_no_env_gives_defaults(self):
        assert load_config(None) == default_config()

    def test_env_var_fallback(self, write, monkeypatch):
        monkeypatch.setenv(ENV_CONFIG_VAR, str(write("sim:\n  cruise_air: 4.0\n")))
        assert load_config(None).sim.cruise_air == 4.0

    def test_explicit_path_beats_env_var(self, write, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CONFIG_VAR, str(tmp_path / "missing.yaml"))
        assert load_config(write("mass: 0.9\n")).mass == 0.9

    def test_env_var_missing_file_names_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CONFIG_VAR, str(tmp_path / "missing.yaml"))
        with pytest.raises(ConfigError, match="missing.yaml"):
            load_config(None)


class TestDocstring:
    @pytest.mark.parametrize("cls", [Config, NmpcConfig, SimConfig, PidConfig])
    def test_every_key_is_listed(self, cls):
        missing = [f.name for f in fields(cls)
                   if not re.search(rf"\b{f.name}\b", config.__doc__)]
        assert missing == []


class TestWorkCaps:
    """Each key that sets how much work a run does has a fixed cap; over it
    is a ConfigError naming the key.  No run is started."""

    def test_ticks(self, write):
        # The tick count is sim.time_limit over sim.controller_period.
        with pytest.raises(ConfigError, match=r"sim\.time_limit over sim\.controller_period"
                                              r" is 6e\+302 ticks"):
            load_config(write("dt: 1.0e-300\nsim:\n  controller_period: 1.0e-300\n"))
        with pytest.raises(ConfigError, match=r"sim\.time_limit over"):
            load_config(write("sim:\n  time_limit: 1.0e+300\n"))

    def test_substeps_per_tick(self, write):
        with pytest.raises(ConfigError, match=r"sim\.controller_period over dt is 1e\+05"
                                              r" substeps per tick"):
            load_config(write("dt: 1.0e-7\n"))

    def test_horizon(self, write):
        with pytest.raises(ConfigError, match=r"nmpc\.horizon must lie in \[2, 200\]"):
            load_config(write("nmpc:\n  horizon: 100000000\n"))

    def test_max_iters(self, write):
        with pytest.raises(ConfigError, match=r"nmpc\.max_iters must lie in \[1, 1000\]"):
            load_config(write("nmpc:\n  max_iters: 1000000000\n"))

    def test_caps_are_inclusive_and_far_above_the_defaults(self, write):
        cfg = load_config(write(
            f"dt: 1.0e-5\nnmpc:\n  horizon: {config.MAX_HORIZON}\n"
            f"  max_iters: {config.MAX_ITERS}\n"
            f"sim:\n  time_limit: {config.MAX_TICKS * 0.01}\n"))
        assert round(cfg.sim.controller_period / cfg.dt) == config.MAX_SUBSTEPS
        base = default_config()
        assert 10 * base.sim.time_limit / base.sim.controller_period <= config.MAX_TICKS
        assert 10 * base.sim.controller_period / base.dt <= config.MAX_SUBSTEPS
        assert 10 * base.nmpc.horizon <= config.MAX_HORIZON
        assert 10 * base.nmpc.max_iters <= config.MAX_ITERS


class TestMaxStep:
    """``MAX_STEP`` is the one upper bound on an RK4 step: the range of
    ``dt`` and ``nmpc.period`` and the check of both step kernels agree on
    it, inclusive, to the last float."""

    OVER = math.nextafter(config.MAX_STEP, math.inf)

    def test_config_keys(self):
        at = default_config()
        at = replace(at, dt=config.MAX_STEP, nmpc=replace(at.nmpc, period=config.MAX_STEP),
                     sim=replace(at.sim, controller_period=config.MAX_STEP))
        assert validate(at) is at
        for bad, name in ((replace(at, dt=self.OVER), "dt"),
                          (replace(at, nmpc=replace(at.nmpc, period=self.OVER)), "nmpc.period")):
            message = f"{name} must lie in (0, 0.05], got {self.OVER!r}"
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                validate(bad)

    def test_step_kernels(self):
        x = hover_state((0.0, 0.0, 1.0)).as_vector()
        u = np.array([9.81, 0.0, 0.0, 0.0])
        kernels = (lambda dt: aerial_step(x, u, VehicleParams(), dt),
                   lambda dt: step_rk4(lambda s, _u: -s, x, u, dt))
        for kernel in kernels:
            assert np.isfinite(kernel(config.MAX_STEP)).all()
            message = f"dt must lie in (0, 0.05], got {self.OVER!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                kernel(self.OVER)


class TestTickRatios:
    """The plant steps a whole number of times per controller tick, and the
    solver runs every whole number of ticks; a config off either ratio is
    rejected when it is loaded, naming the key."""

    def test_defaults(self):
        assert config.tick_ratios(default_config()) == (1, 5)

    @pytest.mark.parametrize("text", ["sim:\n  controller_period: 0.0103\n",
                                      "dt: 0.003\n"])
    def test_controller_period_off_a_multiple_of_dt(self, write, text):
        with pytest.raises(ConfigError, match=r"sim\.controller_period must be a multiple"
                                              r" of dt"):
            load_config(write(text))

    @pytest.mark.parametrize("period, rule", [(0.005, ">= dt"), (0.025, "a multiple of dt")])
    def test_a_shortened_period_asks_for_dt_as_well(self, write, period, rule):
        # The default dt is the default period, so a period below it or off
        # its multiples needs a dt of its own.
        dt = default_config().dt
        with pytest.raises(ConfigError, match=re.escape(
                f"sim.controller_period must be {rule}, got sim.controller_period {period!r}"
                f" and dt {dt!r}; set dt as well, to the period over a whole number of"
                " plant steps")):
            load_config(write(f"sim:\n  controller_period: {period}\n"))
        cfg = load_config(write(f"dt: 0.005\nsim:\n  controller_period: {period}\n"))
        assert cfg.sim.controller_period == period

    @pytest.mark.parametrize("text", ["nmpc:\n  period: 0.045\n",
                                      "nmpc:\n  period: 0.005\n"])
    def test_nmpc_period_off_a_multiple_of_the_tick(self, write, text):
        with pytest.raises(ConfigError, match=r"nmpc\.period must be a multiple of"
                                              r" sim\.controller_period"):
            load_config(write(text))
