"""Attitude representations and kinematic maps.

Conventions used throughout the package:

* World frame: x forward, y left, z up. Gravity acts along -z.
* Body frame: x forward, y left, z up (thrust acts along body +z).
* Euler angles are intrinsic Z-Y-X (yaw-pitch-roll): the body-to-world
  rotation is ``R = Rz(yaw) @ Ry(pitch) @ Rx(roll)``.
* Quaternions are Hamilton, scalar first ``(w, x, y, z)``, and encode the
  body-to-world rotation. Angular velocity is expressed in the body frame,
  so ``q_dot = 0.5 * Omega(w_body) @ q``.

All public functions accept and return plain numpy arrays; angles are
radians, never degrees.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GimbalLockError

__all__ = [
    "EulerAngles",
    "GimbalLockWarning",
    "GIMBAL_COS_PITCH_MIN",
    "wrap_angle",
    "euler_to_rotation",
    "body_to_world_velocity",
    "euler_rate_matrix",
    "euler_rates_to_body_rates",
    "body_rates_to_euler_rates",
    "omega_matrix",
    "quat_normalize",
    "quat_multiply",
    "quat_rotation_matrix",
    "quat_rotate",
    "quat_derivative",
    "euler_to_quat",
    "quat_to_euler",
    "quat_yaw",
    "quat_roll_pitch",
    "quat_from_yaw",
]

# Below this value of |cos(pitch)| the Euler-rate map is treated as singular.
GIMBAL_COS_PITCH_MIN = 1e-6


class GimbalLockWarning(UserWarning):
    """Euler extraction hit the pitch singularity; roll was folded into yaw."""


@dataclass(frozen=True)
class EulerAngles:
    """Z-Y-X Euler angles in radians."""

    roll: float
    pitch: float
    yaw: float

    def __post_init__(self):
        for name in ("roll", "pitch", "yaw"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"EulerAngles.{name} must be finite")


def wrap_angle(angle: float) -> float:
    """Wrap an angle to the interval (-pi, pi]."""
    r = math.fmod(angle + math.pi, 2.0 * math.pi)
    if r <= 0.0:
        r += 2.0 * math.pi
    return r - math.pi


def euler_to_rotation(e: EulerAngles) -> np.ndarray:
    """Body-to-world rotation matrix for Z-Y-X Euler angles.

    Parameters
    ----------
    e : EulerAngles
        Attitude as yaw-pitch-roll.

    Returns
    -------
    (3, 3) ndarray
        Orthonormal rotation matrix ``Rz(yaw) @ Ry(pitch) @ Rx(roll)``.
    """
    cf, sf = math.cos(e.roll), math.sin(e.roll)
    ct, st = math.cos(e.pitch), math.sin(e.pitch)
    cp, sp = math.cos(e.yaw), math.sin(e.yaw)
    return np.array(
        [
            [cp * ct, cp * st * sf - sp * cf, cp * st * cf + sp * sf],
            [sp * ct, sp * st * sf + cp * cf, sp * st * cf - cp * sf],
            [-st, ct * sf, ct * cf],
        ]
    )


def _vector(value, n: int, name: str) -> np.ndarray:
    """``value`` as a float array; ValueError naming ``name`` unless it has shape
    ``(n,)`` and finite entries.  Checks every public vector input here and in dynamics."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},)")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def body_to_world_velocity(e: EulerAngles, v_body: np.ndarray) -> np.ndarray:
    """Rotate a body-frame velocity vector into the world frame."""
    return euler_to_rotation(e) @ _vector(v_body, 3, "v_body")


def euler_rate_matrix(e: EulerAngles) -> np.ndarray:
    """Matrix W(e) mapping Euler-angle rates to body angular rates.

    ``w_body = W(e) @ [roll_rate, pitch_rate, yaw_rate]``.
    """
    cf, sf = math.cos(e.roll), math.sin(e.roll)
    ct, st = math.cos(e.pitch), math.sin(e.pitch)
    return np.array(
        [
            [1.0, 0.0, -st],
            [0.0, cf, sf * ct],
            [0.0, -sf, cf * ct],
        ]
    )


def euler_rates_to_body_rates(e: EulerAngles, rates: np.ndarray) -> np.ndarray:
    """Map Euler-angle rates (roll_dot, pitch_dot, yaw_dot) to body rates."""
    return euler_rate_matrix(e) @ _vector(rates, 3, "rates")


def body_rates_to_euler_rates(e: EulerAngles, omega: np.ndarray) -> np.ndarray:
    """Map body angular rates to Euler-angle rates.

    Raises
    ------
    GimbalLockError
        If ``|cos(pitch)|`` is at or below the singularity threshold.
    """
    omega = _vector(omega, 3, "omega")
    ct = math.cos(e.pitch)
    if abs(ct) <= GIMBAL_COS_PITCH_MIN:
        raise GimbalLockError(
            f"Euler-rate map is singular at pitch={e.pitch!r} (|cos pitch| <= {GIMBAL_COS_PITCH_MIN})"
        )
    cf, sf = math.cos(e.roll), math.sin(e.roll)
    tt = math.tan(e.pitch)
    m = np.array(
        [
            [1.0, sf * tt, cf * tt],
            [0.0, cf, -sf],
            [0.0, sf / ct, cf / ct],
        ]
    )
    return m @ omega


# ---------------------------------------------------------------------------
# Quaternions
# ---------------------------------------------------------------------------


def omega_matrix(omega: np.ndarray) -> np.ndarray:
    """4x4 skew matrix Omega(w) such that q_dot = 0.5 * Omega(w) @ q."""
    wx, wy, wz = float(omega[0]), float(omega[1]), float(omega[2])
    return np.array(
        [
            [0.0, -wx, -wy, -wz],
            [wx, 0.0, wz, -wy],
            [wy, -wz, 0.0, wx],
            [wz, wy, -wx, 0.0],
        ]
    )


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Return q scaled to unit norm.

    Raises
    ------
    ValueError
        If q has (near-)zero norm or non-finite entries.
    """
    q = _vector(q, 4, "quaternion")
    n = math.hypot(*q.tolist())
    if n < 1e-12:
        raise ValueError("cannot normalize a zero-norm quaternion")
    return q / n


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b (both scalar-first)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_rotation_matrix(q: np.ndarray) -> np.ndarray:
    """Body-to-world rotation matrix of a unit quaternion.

    Uses the homogeneous polynomial form; the caller is responsible for
    ``q`` being (close to) unit norm.
    """
    qw, qx, qy, qz = q
    return np.array(
        [
            [
                1.0 - 2.0 * (qy * qy + qz * qz),
                2.0 * (qx * qy - qw * qz),
                2.0 * (qx * qz + qw * qy),
            ],
            [
                2.0 * (qx * qy + qw * qz),
                1.0 - 2.0 * (qx * qx + qz * qz),
                2.0 * (qy * qz - qw * qx),
            ],
            [
                2.0 * (qx * qz - qw * qy),
                2.0 * (qy * qz + qw * qx),
                1.0 - 2.0 * (qx * qx + qy * qy),
            ],
        ]
    )


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate a body-frame vector into the world frame."""
    return quat_rotation_matrix(q) @ np.asarray(v, dtype=float)


def quat_derivative(q: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Quaternion kinematics q_dot = 0.5 * Omega(w_body) @ q.

    The result is orthogonal to q (norm is preserved by the flow).
    """
    return 0.5 * (omega_matrix(_vector(omega, 3, "omega")) @ _vector(q, 4, "q"))


def euler_to_quat(e: EulerAngles) -> np.ndarray:
    """Unit quaternion for Z-Y-X Euler angles (same rotation as euler_to_rotation)."""
    cf, sf = math.cos(0.5 * e.roll), math.sin(0.5 * e.roll)
    ct, st = math.cos(0.5 * e.pitch), math.sin(0.5 * e.pitch)
    cp, sp = math.cos(0.5 * e.yaw), math.sin(0.5 * e.yaw)
    return np.array(
        [
            cf * ct * cp + sf * st * sp,
            sf * ct * cp - cf * st * sp,
            cf * st * cp + sf * ct * sp,
            cf * ct * sp - sf * st * cp,
        ]
    )


def quat_to_euler(q: np.ndarray) -> EulerAngles:
    """Extract Z-Y-X Euler angles from a unit quaternion.

    At the pitch singularity (|pitch| -> pi/2) roll and yaw are not
    separately observable; the gimbal-locked representative with roll = 0
    is returned and a :class:`GimbalLockWarning` is emitted.
    """
    q = quat_normalize(q)
    qw, qx, qy, qz = q
    s = 2.0 * (qw * qy - qz * qx)
    # |s| -> 1 corresponds to |cos(pitch)| -> 0; threshold matches the rate map.
    if 1.0 - s * s <= GIMBAL_COS_PITCH_MIN**2:
        m01 = 2.0 * (qx * qy - qw * qz)
        m11 = 1.0 - 2.0 * (qx * qx + qz * qz)
        warnings.warn(
            "pitch at +/-pi/2: roll folded into yaw", GimbalLockWarning, stacklevel=2
        )
        pitch = math.copysign(0.5 * math.pi, s)
        return EulerAngles(0.0, pitch, math.atan2(-m01, m11))
    return EulerAngles(*quat_roll_pitch(q), quat_yaw(q))


def quat_yaw(q: np.ndarray) -> float:
    """Yaw angle of a unit quaternion (valid away from the pitch singularity)."""
    qw, qx, qy, qz = q.tolist()
    return math.atan2(2.0 * (qw * qz + qx * qy), 1.0 - 2.0 * (qy * qy + qz * qz))


def quat_roll_pitch(q: np.ndarray) -> tuple[float, float]:
    """Roll and pitch of a unit quaternion without the gimbal warning path."""
    qw, qx, qy, qz = q.tolist()
    roll = math.atan2(2.0 * (qw * qx + qy * qz), 1.0 - 2.0 * (qx * qx + qy * qy))
    s = 2.0 * (qw * qy - qz * qx)
    pitch = math.asin(max(-1.0, min(1.0, s)))
    return roll, pitch


def quat_from_yaw(yaw: float) -> np.ndarray:
    """Unit quaternion for a pure yaw rotation."""
    return np.array([math.cos(0.5 * yaw), 0.0, 0.0, math.sin(0.5 * yaw)])
