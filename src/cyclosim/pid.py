"""Cascade PID control for the aerial mode.

Structure: an outer position loop turns position error into a collective
thrust command and small-angle roll/pitch references; an inner attitude loop
turns attitude error into body torques. Both loops share one discrete PID
primitive:

    output = Kp * e + Ki * clamp(integral of e) + Kd * (e - e_prev) / dt

The derivative is a backward difference on the error and is zero on the
first step after a reset. The integral accumulator is clamped symmetrically
(anti-windup). All saturations in the loops are silent: commands are clipped
and execution continues.  ``CascadePid`` runs both loops in plain floats
(``_position`` and ``_attitude`` over ``_channel``) on its channel memory.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .config import GRAVITY, Config, PidChannelGains, PidConfig
from .dynamics import QUAT_SLICE, STATE_DIM, AerialInput
from .geometry import quat_roll_pitch, quat_yaw, wrap_angle

__all__ = ["CascadePid"]

log = logging.getLogger(__name__)

# Collective thrust command ceiling, in multiples of gravity.
_C_MAX_G = 3.0


def _channel(memory: list, i: int, gains: PidChannelGains, error: float, dt: float,
             windup: float) -> float:
    """One discrete PID update of the channel whose integral and previous
    error are ``memory[i]`` and ``memory[i + 1]``; updates both.

    ``error`` (reference minus measurement) and ``dt`` (s since the last
    update) must be finite and ``dt`` positive, else ValueError.  The
    rectangle-rule integral is clamped to ``[-windup, windup]``; a previous
    error of None (after a reset) makes the derivative term zero.
    """
    if not (math.isfinite(error) and math.isfinite(dt)):
        raise ValueError("error and dt must be finite")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    integral = max(-windup, min(windup, memory[i] + error * dt))
    prev = memory[i + 1]
    derivative = 0.0 if prev is None else (error - prev) / dt
    memory[i], memory[i + 1] = integral, error
    return gains.p * error + gains.i * integral + gains.d * derivative


def _three(values, name: str) -> list:
    """The three floats of a length-3 sequence."""
    values = np.asarray(values, dtype=float)
    if values.shape != (3,):
        raise ValueError(f"{name} must have shape (3,)")
    return values.tolist()


def _position(memory: list, ex, ey, ez, yaw: float, cfg: PidConfig, dt: float) -> tuple:
    """Outer loop: position error to ``(c, roll_ref, pitch_ref)``, with the
    x, y and z channels' memory in ``memory`` (see :func:`_channel`).

    The three channel PIDs give a desired world acceleration
    ``(ax, ay, az)``.  Vertical: ``c = g + az``, clipped to [0, 3g].
    Horizontal: small-angle inversion of the thrust direction, rotated by
    the current yaw::

        pitch_ref = (ax cos(yaw) + ay sin(yaw)) / g
        roll_ref  = (ax sin(yaw) - ay cos(yaw)) / g

    both clipped to ``cfg.tilt_limit``.
    """
    windup = cfg.windup_limit
    ax = _channel(memory, 0, cfg.x, ex, dt, windup)
    ay = _channel(memory, 2, cfg.y, ey, dt, windup)
    az = _channel(memory, 4, cfg.z, ez, dt, windup)
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
    return c, roll_ref, pitch_ref


def _attitude(memory: list, e_roll, e_pitch, e_yaw, cfg: PidConfig, dt: float) -> tuple:
    """Inner loop: attitude error (roll, pitch, yaw) to the three body
    torques, with the roll, pitch and yaw channels' memory in ``memory``
    (see :func:`_channel`).  The yaw error is wrapped to (-pi, pi] before
    its PID, so the vehicle always turns the short way; the torques are
    clipped to ``cfg.torque_limit``.
    """
    windup = cfg.windup_limit
    tx = _channel(memory, 0, cfg.roll, e_roll, dt, windup)
    ty = _channel(memory, 2, cfg.pitch, e_pitch, dt, windup)
    tz = _channel(memory, 4, cfg.yaw, wrap_angle(e_yaw), dt, windup)
    torque = (tx, ty, tz)
    lim = cfg.torque_limit
    if max(abs(tx), abs(ty), abs(tz)) > lim:
        log.debug("torque command clipped to +/-%.3f N*m", lim)
        # As np.clip: a NaN stays NaN (and AerialInput rejects it).
        torque = tuple(min(max(t, -lim), lim) for t in torque)
    return torque


class CascadePid:
    """Stateful cascade controller: position references in, AerialInput out."""

    def __init__(self, cfg: Config):
        self._pid = cfg.pid
        self.reset()

    def reset(self) -> None:
        """Clear all channel memory (integrals and derivative history)."""
        # Integral and previous error of each channel, as _channel keeps them.
        self._pos_memory, self._att_memory = [0.0, None] * 3, [0.0, None] * 3

    def step(self, x, ref_position, ref_yaw: float, dt: float) -> AerialInput:
        """One controller update at the controller rate on the 13-state ``x``:
        shapes are checked here, and then only each channel's error and ``dt``."""
        x = np.asarray(x, dtype=float)
        if x.shape != (STATE_DIM,):
            raise ValueError(f"x must have shape ({STATE_DIM},)")
        rx, ry, rz = _three(ref_position, "ref_position")
        px, py, pz = x[0:3].tolist()
        q = x[QUAT_SLICE]
        yaw = quat_yaw(q)
        c, roll_ref, pitch_ref = _position(self._pos_memory, rx - px, ry - py, rz - pz, yaw,
                                           self._pid, dt)
        roll, pitch = quat_roll_pitch(q)
        torque = _attitude(self._att_memory, roll_ref - roll, pitch_ref - pitch, ref_yaw - yaw,
                           self._pid, dt)
        return AerialInput(c=c, torque=torque)
