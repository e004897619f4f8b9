"""Cascade PID control for the aerial mode.

Structure: an outer position loop turns position error into a collective
thrust command and small-angle roll/pitch references; an inner attitude loop
turns attitude error into body torques. Both loops share one discrete PID
primitive:

    output = Kp * e + Ki * clamp(integral of e) + Kd * (e - e_prev) / dt

The derivative is a backward difference on the error and is zero on the
first step after a reset. The integral accumulator is clamped symmetrically
(anti-windup). All saturations in the loops are silent: commands are clipped
and execution continues.  Every update computes in plain Python floats.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .config import GRAVITY, Config, PidChannelGains, PidConfig
from .dynamics import QUAT_SLICE, STATE_DIM, AerialInput
from .geometry import quat_roll_pitch, quat_yaw, wrap_angle

__all__ = [
    "PidChannelState",
    "pid_step",
    "position_loop",
    "attitude_loop",
    "CascadePid",
]

log = logging.getLogger(__name__)

# Collective thrust command ceiling, in multiples of gravity.
_C_MAX_G = 3.0


@dataclass(frozen=True)
class PidChannelState:
    """Per-channel controller memory.

    ``prev_error`` is None right after a reset, which makes the first
    derivative term zero by definition.
    """

    integral: float = 0.0
    prev_error: float | None = None


def pid_step(
    state: PidChannelState,
    gains: PidChannelGains,
    error: float,
    dt: float,
    windup_limit: float = 1.0,
) -> tuple[float, PidChannelState]:
    """One discrete PID update for a single channel.

    Parameters
    ----------
    state : PidChannelState
        Channel memory from the previous step.
    gains : PidChannelGains
        Proportional/integral/derivative gains.
    error : float
        Current error (reference minus measurement).
    dt : float
        Time since the previous update, s; must be positive.
    windup_limit : float
        Symmetric clamp applied to the integral accumulator.

    Returns
    -------
    (float, PidChannelState)
        Control output and the updated channel memory.
    """
    if not (math.isfinite(error) and math.isfinite(dt)):
        raise ValueError("error and dt must be finite")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    integral = state.integral + error * dt
    integral = max(-windup_limit, min(windup_limit, integral))
    if state.prev_error is None:
        derivative = 0.0
    else:
        derivative = (error - state.prev_error) / dt
    output = gains.p * error + gains.i * integral + gains.d * derivative
    return output, PidChannelState(integral=integral, prev_error=error)


def _three(values, name: str) -> list:
    """The three floats of a length-3 sequence."""
    values = np.asarray(values, dtype=float)
    if values.shape != (3,):
        raise ValueError(f"{name} must have shape (3,)")
    return values.tolist()


def position_loop(
    position_error,
    yaw: float,
    states: tuple[PidChannelState, PidChannelState, PidChannelState],
    cfg: PidConfig,
    dt: float,
):
    """Outer loop: position error (any length-3 sequence) to thrust and
    attitude references.

    The three channel PIDs produce a desired world acceleration
    ``(ax, ay, az)``. Vertical: ``c = g + az`` (clipped to [0, 3g]).
    Horizontal: small-angle inversion of the thrust direction, rotated by
    the current yaw::

        pitch_ref = (ax cos(yaw) + ay sin(yaw)) / g
        roll_ref  = (ax sin(yaw) - ay cos(yaw)) / g

    both clipped to ``cfg.tilt_limit``.

    Returns
    -------
    ((c, roll_ref, pitch_ref), new_states)
    """
    ex, ey, ez = _three(position_error, "position_error")
    windup = cfg.windup_limit
    ax, state_x = pid_step(states[0], cfg.x, ex, dt, windup)
    ay, state_y = pid_step(states[1], cfg.y, ey, dt, windup)
    az, state_z = pid_step(states[2], cfg.z, ez, dt, windup)

    c = GRAVITY + az
    c_max = _C_MAX_G * GRAVITY
    if c < 0.0 or c > c_max:
        log.debug("thrust command %.3f clipped to [0, %.3f]", c, c_max)
        c = max(0.0, min(c_max, c))

    cy, sy = math.cos(yaw), math.sin(yaw)
    pitch_ref = (ax * cy + ay * sy) / GRAVITY
    roll_ref = (ax * sy - ay * cy) / GRAVITY
    lim = cfg.tilt_limit
    if abs(pitch_ref) > lim or abs(roll_ref) > lim:
        log.debug("attitude reference clipped to +/-%.3f rad", lim)
    pitch_ref = max(-lim, min(lim, pitch_ref))
    roll_ref = max(-lim, min(lim, roll_ref))
    return (c, roll_ref, pitch_ref), (state_x, state_y, state_z)


def attitude_loop(
    attitude_error,
    states: tuple[PidChannelState, PidChannelState, PidChannelState],
    cfg: PidConfig,
    dt: float,
):
    """Inner loop: attitude error (roll, pitch, yaw; any length-3 sequence)
    to body torques.

    The yaw component is wrapped to (-pi, pi] before the PID so the vehicle
    always turns the short way. Torques are clipped to ``cfg.torque_limit``.

    Returns
    -------
    (torque, new_states)
        ``torque`` is a 3-tuple of floats.
    """
    e_roll, e_pitch, e_yaw = _three(attitude_error, "attitude_error")
    e_yaw = wrap_angle(e_yaw)
    windup = cfg.windup_limit
    tx, state_roll = pid_step(states[0], cfg.roll, e_roll, dt, windup)
    ty, state_pitch = pid_step(states[1], cfg.pitch, e_pitch, dt, windup)
    tz, state_yaw = pid_step(states[2], cfg.yaw, e_yaw, dt, windup)
    torque = (tx, ty, tz)
    lim = cfg.torque_limit
    if max(abs(tx), abs(ty), abs(tz)) > lim:
        log.debug("torque command clipped to +/-%.3f N*m", lim)
        # As np.clip: a NaN stays NaN (and AerialInput rejects it).
        torque = tuple(min(max(t, -lim), lim) for t in torque)
    return torque, (state_roll, state_pitch, state_yaw)


class CascadePid:
    """Stateful cascade controller: position references in, AerialInput out."""

    def __init__(self, cfg: Config):
        self._pid = cfg.pid
        self.reset()

    def reset(self) -> None:
        """Clear all channel memory (integrals and derivative history)."""
        self._pos_states = (PidChannelState(), PidChannelState(), PidChannelState())
        self._att_states = (PidChannelState(), PidChannelState(), PidChannelState())

    def step(self, x, ref_position, ref_yaw: float, dt: float) -> AerialInput:
        """One controller update at the controller rate on the 13-state ``x``."""
        x = np.asarray(x, dtype=float)
        if x.shape != (STATE_DIM,):
            raise ValueError(f"x must have shape ({STATE_DIM},)")
        rx, ry, rz = _three(ref_position, "ref_position")
        px, py, pz = x[0:3].tolist()
        q = x[QUAT_SLICE]
        yaw = quat_yaw(q)
        (c, roll_ref, pitch_ref), self._pos_states = position_loop(
            (rx - px, ry - py, rz - pz), yaw, self._pos_states, self._pid, dt
        )
        roll, pitch = quat_roll_pitch(q)
        torque, self._att_states = attitude_loop(
            (roll_ref - roll, pitch_ref - pitch, ref_yaw - yaw), self._att_states, self._pid, dt
        )
        return AerialInput(c=c, torque=torque)
