"""Cascade PID tests, including the closed-loop step regression."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclosim.config import GRAVITY, PidChannelGains, PidConfig, default_config
from cyclosim.dynamics import VehicleParams, aerial_step, hover_state
from cyclosim.geometry import quat_roll_pitch, quat_yaw, wrap_angle
from cyclosim.pid import CascadePid, PidChannelState, attitude_loop, pid_step, position_loop

G = 9.81


def _as_vector(u) -> np.ndarray:
    """The plant's (c, tau_x, tau_y, tau_z) input vector of an AerialInput."""
    return np.array([u.c, u.torque[0], u.torque[1], u.torque[2]])


def fresh_states():
    return (PidChannelState(), PidChannelState(), PidChannelState())


class TestPidStep:
    def test_pure_proportional(self):
        out, _ = pid_step(PidChannelState(), PidChannelGains(4.0, 0.0, 0.0), 0.1, 0.01)
        assert out == pytest.approx(0.4)

    def test_integral_rectangle_rule(self):
        # Frozen: Ki=1, e=1 held for 10 steps of dt=0.1 -> output 1.0.
        state = PidChannelState()
        gains = PidChannelGains(0.0, 1.0, 0.0)
        for _ in range(10):
            out, state = pid_step(state, gains, 1.0, 0.1)
        assert out == pytest.approx(1.0)

    def test_derivative_zero_on_first_step(self):
        gains = PidChannelGains(0.0, 0.0, 2.0)
        out, state = pid_step(PidChannelState(), gains, 5.0, 0.01)
        assert out == 0.0
        out, _ = pid_step(state, gains, 5.5, 0.01)
        assert out == pytest.approx(2.0 * 0.5 / 0.01)

    def test_windup_clamp(self):
        state = PidChannelState()
        gains = PidChannelGains(0.0, 1.0, 0.0)
        for _ in range(30):
            out, state = pid_step(state, gains, 1.0, 0.1, windup_limit=1.0)
        assert state.integral == 1.0
        assert out == pytest.approx(1.0)
        # And the clamp is symmetric.
        state = PidChannelState()
        for _ in range(30):
            out, state = pid_step(state, gains, -1.0, 0.1, windup_limit=1.0)
        assert state.integral == -1.0

    def test_linear_in_error_without_memory(self):
        gains = PidChannelGains(3.0, 0.0, 0.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            e = float(rng.normal())
            out, _ = pid_step(PidChannelState(), gains, e, 0.01)
            assert out == pytest.approx(3.0 * e)

    def test_rejects_bad_dt_and_nan(self):
        with pytest.raises(ValueError):
            pid_step(PidChannelState(), PidChannelGains(1, 0, 0), 0.0, 0.0)
        with pytest.raises(ValueError):
            pid_step(PidChannelState(), PidChannelGains(1, 0, 0), math.nan, 0.01)


class TestPositionLoop:
    def test_altitude_error_raises_thrust(self):
        cfg = PidConfig(z=PidChannelGains(2.0, 0.0, 0.0))
        (c, roll_ref, pitch_ref), _ = position_loop(
            np.array([0.0, 0.0, 1.0]), 0.0, fresh_states(), cfg, 0.01
        )
        assert c == pytest.approx(G + 2.0)
        assert roll_ref == 0.0
        assert pitch_ref == 0.0

    def test_large_error_clamps_tilt_exactly(self):
        cfg = PidConfig(x=PidChannelGains(2.0, 0.0, 0.0))
        (_, _, pitch_ref), _ = position_loop(
            np.array([100.0, 0.0, 0.0]), 0.0, fresh_states(), cfg, 0.01
        )
        assert pitch_ref == cfg.tilt_limit == math.pi / 6

    def test_yaw_rotation_of_horizontal_errors(self):
        # Facing +y (yaw=pi/2), an error along world +x maps to negative roll...
        # pitch_ref = (ax cos + ay sin)/g, roll_ref = (ax sin - ay cos)/g.
        cfg = PidConfig(
            x=PidChannelGains(1.0, 0.0, 0.0), y=PidChannelGains(1.0, 0.0, 0.0)
        )
        (_, roll_ref, pitch_ref), _ = position_loop(
            np.array([1.0, 0.0, 0.0]), math.pi / 2, fresh_states(), cfg, 0.01
        )
        assert pitch_ref == pytest.approx(0.0, abs=1e-12)
        assert roll_ref == pytest.approx(1.0 / G)

    def test_thrust_never_negative(self):
        cfg = PidConfig(z=PidChannelGains(5.0, 0.0, 0.0))
        (c, _, _), _ = position_loop(
            np.array([0.0, 0.0, -100.0]), 0.0, fresh_states(), cfg, 0.01
        )
        assert c == 0.0


    def test_any_length_3_sequence(self):
        cfg = PidConfig(x=PidChannelGains(2.0, 0.1, 0.5), z=PidChannelGains(1.0, 0.2, 0.3))
        expected = position_loop(np.array([0.3, -0.2, 1.0]), 0.4, fresh_states(), cfg, 0.01)
        for error in ([0.3, -0.2, 1.0], (0.3, -0.2, 1)):
            assert position_loop(error, 0.4, fresh_states(), cfg, 0.01) == expected
        for bad in ([0.3, -0.2], np.zeros((3, 1))):
            with pytest.raises(ValueError, match="position_error must have shape"):
                position_loop(bad, 0.0, fresh_states(), cfg, 0.01)


class TestAttitudeLoop:
    def test_proportional_torque(self):
        cfg = PidConfig(
            roll=PidChannelGains(4.0, 0.0, 0.0),
            pitch=PidChannelGains(4.0, 0.0, 0.0),
            yaw=PidChannelGains(2.0, 0.0, 0.0),
        )
        torque, _ = attitude_loop(np.array([0.1, 0.0, 0.0]), fresh_states(), cfg, 0.01)
        assert np.allclose(torque, [0.4, 0.0, 0.0])

    def test_yaw_error_wrapped(self):
        cfg = PidConfig(yaw=PidChannelGains(2.0, 0.0, 0.0), torque_limit=100.0)
        torque, _ = attitude_loop(
            np.array([0.0, 0.0, 3.0 * math.pi / 2.0]), fresh_states(), cfg, 0.01
        )
        assert torque[2] == pytest.approx(2.0 * (-math.pi / 2.0))

    def test_torque_clamped(self):
        cfg = PidConfig(roll=PidChannelGains(100.0, 0.0, 0.0), torque_limit=2.0)
        torque, _ = attitude_loop(np.array([1.0, 0.0, 0.0]), fresh_states(), cfg, 0.01)
        assert torque[0] == 2.0

    def test_any_length_3_sequence(self):
        cfg = PidConfig(roll=PidChannelGains(100.0, 0.0, 0.0), torque_limit=2.0)
        torque, states = attitude_loop((1.0, -0.01, 4.0), fresh_states(), cfg, 0.01)
        assert isinstance(torque, tuple)
        assert (torque, states) == attitude_loop(
            np.array([1.0, -0.01, 4.0]), fresh_states(), cfg, 0.01)
        with pytest.raises(ValueError, match="attitude_error must have shape"):
            attitude_loop([1.0, 0.0, 0.0, 0.0], fresh_states(), cfg, 0.01)


class TestClosedLoop:
    def run_to(self, ref, yaw_ref=0.0, duration=10.0):
        cfg = default_config()
        p = VehicleParams.from_config(cfg)
        ctrl = CascadePid(cfg)
        x = hover_state((0.0, 0.0, 0.0)).as_vector()
        n_sub = round(cfg.sim.controller_period / cfg.dt)
        t = 0.0
        ts, zs = [], []
        while t < duration:
            u = ctrl.step(x, np.asarray(ref, dtype=float), yaw_ref, cfg.sim.controller_period)
            u_vec = _as_vector(u)
            for _ in range(n_sub):
                x = aerial_step(x, u_vec, p, cfg.dt)
                t += cfg.dt
            ts.append(t)
            zs.append(x[2])
        return np.array(ts), np.array(zs), x

    def test_unit_z_step_settles_within_two_percent(self):
        # Default gains, 1 m climb from rest: inside the 2% band within 10 s
        # and no divergence along the way.
        ts, zs, x = self.run_to((0.0, 0.0, 1.0))
        outside = np.where(np.abs(zs - 1.0) > 0.02)[0]
        assert len(outside) > 0  # transient exists
        t_settle = ts[outside[-1] + 1]
        assert t_settle < 10.0
        assert np.isfinite(x).all()

    def test_z_step_has_overshoot(self):
        # The cascade with default gains is underdamped; the peak exceeds
        # the target visibly (this is the behavior the predictive controller
        # is later required to beat).
        _, zs, _ = self.run_to((0.0, 0.0, 1.0))
        assert zs.max() > 1.02

    def test_yaw_step_converges(self):
        cfg = default_config()
        p = VehicleParams.from_config(cfg)
        ctrl = CascadePid(cfg)
        x = hover_state((0.0, 0.0, 1.0)).as_vector()
        for _ in range(600):
            u = _as_vector(ctrl.step(x, np.array([0.0, 0.0, 1.0]), math.pi / 2, 0.01))
            for _ in range(10):
                x = aerial_step(x, u, p, cfg.dt)
        yaw = 2.0 * math.atan2(x[9], x[6])
        assert abs(yaw - math.pi / 2) < 0.01
        assert np.abs(x[0:2]).max() < 0.05

    def test_reset_clears_memory(self):
        cfg = default_config()
        ctrl = CascadePid(cfg)
        s = hover_state((0.0, 0.0, 0.0)).as_vector()
        ref = np.array([0.0, 0.0, 1.0])
        first = ctrl.step(s, ref, 0.0, 0.01)
        second = ctrl.step(s, ref, 0.0, 0.01)
        assert second.c != first.c  # integral accumulated
        ctrl.reset()
        again = ctrl.step(s, ref, 0.0, 0.01)
        assert again.c == pytest.approx(first.c)

    def test_rejects_a_state_that_is_not_13_long(self):
        ctrl = CascadePid(default_config())
        for n in (12, 14):
            with pytest.raises(ValueError, match=r"x must have shape \(13,\)"):
                ctrl.step(np.zeros(n), np.zeros(3), 0.0, 0.01)


def _array_cascade(cfg: PidConfig, pos_states, att_states, x, ref, ref_yaw, dt):
    """One cascade update in array form, the reference for the float path:
    ``(c, torque, position states, attitude states)``."""
    err = np.asarray(ref, dtype=float) - x[0:3]
    yaw = quat_yaw(x[6:10])
    accel = np.empty(3)
    new_pos = []
    for i, gains in enumerate((cfg.x, cfg.y, cfg.z)):
        accel[i], st_i = pid_step(pos_states[i], gains, float(err[i]), dt, cfg.windup_limit)
        new_pos.append(st_i)
    c = GRAVITY + accel[2]
    if c < 0.0 or c > 3.0 * GRAVITY:
        c = max(0.0, min(3.0 * GRAVITY, c))
    lim = cfg.tilt_limit
    pitch_ref = max(-lim, min(lim, (accel[0] * math.cos(yaw) + accel[1] * math.sin(yaw)) / GRAVITY))
    roll_ref = max(-lim, min(lim, (accel[0] * math.sin(yaw) - accel[1] * math.cos(yaw)) / GRAVITY))
    roll, pitch = quat_roll_pitch(x[6:10])
    att_err = np.array([roll_ref - roll, pitch_ref - pitch, ref_yaw - yaw])
    att_err[2] = wrap_angle(float(att_err[2]))
    torque = np.empty(3)
    new_att = []
    for i, gains in enumerate((cfg.roll, cfg.pitch, cfg.yaw)):
        torque[i], st_i = pid_step(att_states[i], gains, float(att_err[i]), dt, cfg.windup_limit)
        new_att.append(st_i)
    if np.abs(torque).max() > cfg.torque_limit:
        torque = np.clip(torque, -cfg.torque_limit, cfg.torque_limit)
    return c, torque, tuple(new_pos), tuple(new_att)


def _bits(values) -> list:
    return [float(v).hex() for v in values]


class TestFloatCascade:
    """``CascadePid.step`` in floats against the array form, bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        steps=st.lists(st.tuples(
            st.tuples(*[st.floats(-50.0, 50.0)] * 3),  # position
            st.tuples(st.floats(0.3, 1.0), *[st.floats(-1.0, 1.0)] * 3),  # attitude
            st.tuples(*[st.floats(-50.0, 50.0)] * 3),  # reference position
            st.floats(-7.0, 7.0),  # reference yaw
        ), min_size=1, max_size=4),
    )
    def test_matches_array_form(self, steps):
        # Several updates in a row, so the integral and derivative memory
        # is compared too; large errors clip thrust, tilt and torque.
        cfg = default_config()
        ctrl = CascadePid(cfg)
        pos_states = att_states = (PidChannelState(),) * 3
        for position, quat, ref, ref_yaw in steps:
            x = hover_state(position).as_vector()
            q = np.array(quat)
            x[6:10] = q / math.sqrt(float(q @ q))
            got = ctrl.step(x, np.array(ref), ref_yaw, 0.01)
            c, torque, pos_states, att_states = _array_cascade(
                cfg.pid, pos_states, att_states, x, ref, ref_yaw, 0.01)
            assert _bits([got.c, *got.torque]) == _bits([c, *torque])
            assert ctrl._pos_states == pos_states
            assert ctrl._att_states == att_states
