"""Rigid-body flight dynamics, surface models and control allocation.

Three plant models share one vehicle:

* aerial: 6-DOF rigid body, state ``[p(3), v(3), q(4), w(3)]`` (13 entries),
  driven by mass-normalized collective thrust ``c`` along body z and body
  torques ``tau``;
* terrestrial: differential drive on the ground plane, state ``[x, y, heading]``,
  driven by left/right wheel-contact speeds;
* aquatic: surface craft with rear drive and steering, state ``[x, y, heading]``,
  driven by surge speed and steering angle.

All integration uses a fixed-step classical Runge-Kutta 4 scheme. Aerial
steps renormalize the attitude quaternion afterwards, keeping the norm drift
far below 1e-9 per step.  Each medium has one plain-float kernel that gives
the generic :func:`step_rk4` result bit for bit.  The aerial kernel
``_rk4_floats`` unrolls one step, with the four derivative evaluations
written out inline; ``aerial_step`` runs all of a controller tick's steps
with it, and the optimizer's horizon pass calls it once per step.  The
planar kernel runs a tick's substeps of the shared surface model
``(s cos h, s sin h, r)`` in one call.  Allocation and forward mixing
compute in plain floats too, with the rounding of their array forms.

The rotor layout used by the allocation map (the source article does not fix
one) is four rotors at the corners of a square with half-side ``arm``:
front-left, front-right, rear-left, rear-right, thrust along body +z, plus a
single servo that tilts the rear-pair thrust sideways to produce yaw torque.
A zero "twist" constraint (FL - FR - RL + RR = 0) pins the null direction of
the 3x4 force map, making the mixing matrix square and exactly invertible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .config import GRAVITY, Config
from .errors import DivergenceError, SaturationError
from .geometry import _vector, quat_from_yaw

__all__ = [
    "VehicleParams",
    "VehicleState",
    "AerialInput",
    "TerrestrialInput",
    "AquaticInput",
    "ActuatorCommand",
    "STATE_DIM",
    "QUAT_SLICE",
    "AQUATIC_DRAG_GAIN",
    "aerial_derivative",
    "terrestrial_derivative",
    "aquatic_derivative",
    "step_rk4",
    "aerial_step",
    "allocate",
    "forward_mix",
    "aquatic_rotor_speeds",
    "hover_state",
]

STATE_DIM = 13
QUAT_SLICE = slice(6, 10)

# Quadratic drag balance used only to report equivalent rear-rotor speeds
# while swimming: thrust k_f * w^2 per rotor vs. drag AQUATIC_DRAG_GAIN * v^2
# split over the two driven rotors. Not a config key; the closed loop tracks
# surge speed directly.
AQUATIC_DRAG_GAIN = 4.0


@dataclass(frozen=True)
class VehicleParams:
    """Physical vehicle parameters.

    Attributes
    ----------
    mass : float
        Vehicle mass, kg.
    inertia : ndarray
        Principal moments of inertia (Jx, Jy, Jz), kg*m^2.
    track_width : float
        Wheel-contact track width for ground motion, m.
    wheelbase : float
        Steering geometry length for water motion, m.
    k_f : float
        Rotor thrust coefficient, N/(rad/s)^2.
    arm : float
        Rotor moment arm (half-side of the rotor square), m.
    rotor_max : float
        Rotor speed limit, rad/s.
    servo_max : float
        Servo tilt travel, rad.

    The defaults are those of :class:`~cyclosim.config.Config`.
    """

    mass: float = Config.mass
    inertia: np.ndarray = field(default_factory=lambda: np.array(
        [Config.inertia_xx, Config.inertia_yy, Config.inertia_zz]))
    track_width: float = Config.track_width
    wheelbase: float = Config.wheelbase
    k_f: float = Config.k_f
    arm: float = Config.arm
    rotor_max: float = Config.rotor_max
    servo_max: float = Config.servo_max

    def __post_init__(self):
        inertia = _vector(self.inertia, 3, "inertia")
        object.__setattr__(self, "inertia", inertia)
        for name in (f.name for f in fields(self) if f.name != "inertia"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a positive finite number")
        if not (inertia > 0.0).all():
            raise ValueError("inertia entries must be positive")

    @classmethod
    def from_config(cls, cfg: Config) -> "VehicleParams":
        shared = {f.name: getattr(cfg, f.name) for f in fields(cls)
                  if f.name != "inertia"}
        return cls(inertia=np.array([cfg.inertia_xx, cfg.inertia_yy, cfg.inertia_zz]),
                   **shared)


@dataclass(frozen=True)
class VehicleState:
    """Full rigid-body state: world position/velocity, attitude, body rates."""

    position: np.ndarray
    velocity: np.ndarray
    quaternion: np.ndarray
    body_rates: np.ndarray

    def __post_init__(self):
        for name, dim in (
            ("position", 3),
            ("velocity", 3),
            ("quaternion", 4),
            ("body_rates", 3),
        ):
            object.__setattr__(self, name, _vector(getattr(self, name), dim, name))
        n = math.hypot(*self.quaternion.tolist()) ** 2
        if abs(n - 1.0) > 1e-6:
            raise ValueError(f"quaternion norm^2 = {n!r}, expected 1")

    def as_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.position, self.velocity, self.quaternion, self.body_rates]
        )

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "VehicleState":
        """The state of a 13-vector, with fields that are views of it."""
        x = np.asarray(x, dtype=float)
        if x.shape != (STATE_DIM,):
            raise ValueError(f"state vector must have shape ({STATE_DIM},)")
        return cls(x[0:3], x[3:6], x[QUAT_SLICE], x[10:13])


def hover_state(position, yaw: float = 0.0) -> VehicleState:
    """Stationary state at ``position`` with the given heading."""
    return VehicleState(
        position=np.asarray(position, dtype=float),
        velocity=np.zeros(3),
        quaternion=quat_from_yaw(yaw),
        body_rates=np.zeros(3),
    )


@dataclass(frozen=True)
class AerialInput:
    """Mass-normalized collective thrust (m/s^2, body +z) and body torques (N*m)."""

    c: float
    torque: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "torque", _vector(self.torque, 3, "torque"))
        if not math.isfinite(self.c):
            raise ValueError("collective thrust c must be finite")
        if self.c < 0.0:
            raise ValueError("collective thrust c must be >= 0")


@dataclass(frozen=True)
class TerrestrialInput:
    """Left/right wheel-contact speeds, m/s."""

    v_left: float
    v_right: float

    def __post_init__(self):
        if not (math.isfinite(self.v_left) and math.isfinite(self.v_right)):
            raise ValueError("wheel speeds must be finite")


@dataclass(frozen=True)
class AquaticInput:
    """Surge speed (m/s) and steering angle (rad, |angle| < pi/2)."""

    speed: float
    steering: float

    def __post_init__(self):
        if not (math.isfinite(self.speed) and math.isfinite(self.steering)):
            raise ValueError("aquatic input must be finite")
        if abs(self.steering) >= 0.5 * math.pi:
            raise ValueError("steering angle magnitude must be below pi/2")


@dataclass(frozen=True)
class ActuatorCommand:
    """Rotor speed commands (rad/s, FL/FR/RL/RR, sign = direction) and servo tilt (rad)."""

    rotor_speeds: np.ndarray
    servo: float

    def __post_init__(self):
        object.__setattr__(self, "rotor_speeds", _vector(self.rotor_speeds, 4, "rotor_speeds"))
        if not math.isfinite(self.servo):
            raise ValueError("servo must be finite")


# ---------------------------------------------------------------------------
# Continuous-time models
# ---------------------------------------------------------------------------


def _rates(qw, qx, qy, qz, wx, wy, wz, c, tx, ty, tz, jx, jy, jz):
    """Acceleration, quaternion rate and body acceleration as 10 floats:
    scalar numpy arithmetic is several times slower on this hot path.

    The reference copy of the aerial formulas; :func:`_rk4_floats` writes
    them out inline for each RK4 stage, in the same order."""
    return (
        # v_dot = R(q) @ (0, 0, c) - (0, 0, g): only the third column of R matters.
        2.0 * (qx * qz + qw * qy) * c,
        2.0 * (qy * qz - qw * qx) * c,
        (1.0 - 2.0 * (qx * qx + qy * qy)) * c - GRAVITY,
        # q_dot = 0.5 * Omega(w) @ q
        0.5 * (-wx * qx - wy * qy - wz * qz),
        0.5 * (wx * qw + wz * qy - wy * qz),
        0.5 * (wy * qw - wz * qx + wx * qz),
        0.5 * (wz * qw + wy * qx - wx * qy),
        # w_dot = J^-1 (tau - w x J w) with diagonal J
        (tx - (jz - jy) * wy * wz) / jx,
        (ty - (jx - jz) * wz * wx) / jy,
        (tz - (jy - jx) * wx * wy) / jz,
    )


def _aerial_rhs(x: np.ndarray, u: np.ndarray, p: VehicleParams) -> np.ndarray:
    """Aerial state derivative; hot path, no validation."""
    _, _, _, vx, vy, vz, *attitude = x.tolist()
    return np.array([vx, vy, vz, *_rates(*attitude, *u.tolist(), *p.inertia.tolist())])


def aerial_derivative(x: np.ndarray, u: np.ndarray, p: VehicleParams) -> np.ndarray:
    """Aerial rigid-body derivative.

    Parameters
    ----------
    x : (13,) ndarray
        State ``[px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz]``.
    u : (4,) ndarray
        Input ``[c, tau_x, tau_y, tau_z]``.
    p : VehicleParams

    Returns
    -------
    (13,) ndarray
        Time derivative of the state.
    """
    return _aerial_rhs(_vector(x, STATE_DIM, "state"), _vector(u, 4, "input"), p)


def _planar_rates(u, p: VehicleParams) -> tuple:
    """Forward speed and heading rate of a terrestrial or aquatic input.

    The one copy of the surface input maps, shared by the derivatives, the
    plant kernel and the runner.
    """
    if isinstance(u, TerrestrialInput):
        return 0.5 * (u.v_right + u.v_left), (u.v_right - u.v_left) / p.track_width
    return u.speed, u.speed * math.tan(u.steering) / p.wheelbase


def _planar_derivative(pose, u, kind: type, p: VehicleParams) -> np.ndarray:
    """Validated ``(s cos h, s sin h, r)`` for a pose and a ``kind`` input."""
    pose = _vector(pose, 3, "pose")
    if not isinstance(u, kind):
        raise TypeError(f"expected {kind.__name__}, got {type(u).__name__}")
    speed, turn = _planar_rates(u, p)
    heading = pose[2]
    return np.array([speed * math.cos(heading), speed * math.sin(heading), turn])


def terrestrial_derivative(
    pose: np.ndarray, u: TerrestrialInput, p: VehicleParams
) -> np.ndarray:
    """Differential-drive kinematics on the ground plane.

    ``pose`` is ``[x, y, heading]``; forward speed is the wheel-speed mean,
    heading rate the wheel-speed difference over the track width.
    """
    return _planar_derivative(pose, u, TerrestrialInput, p)


def aquatic_derivative(
    pose: np.ndarray, u: AquaticInput, p: VehicleParams
) -> np.ndarray:
    """Surface-craft kinematics: rear drive with a steering angle.

    ``pose`` is ``[x, y, heading]``; heading rate is
    ``speed * tan(steering) / wheelbase``.
    """
    return _planar_derivative(pose, u, AquaticInput, p)


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def step_rk4(model, state: np.ndarray, u, dt: float, quat_slice: slice | None = None):
    """Advance ``state`` by one classical RK4 step of ``model(state, u)``.

    Parameters
    ----------
    model : callable
        Derivative function ``f(state, u) -> state_dot``.
    state : ndarray
        Current state vector.
    u : object
        Input held constant over the step.
    dt : float
        Step size, s; must lie in (0, 0.05].
    quat_slice : slice, optional
        If given, that slice of the result is renormalized to unit length
        (used to keep attitude quaternions on the unit sphere).

    Raises
    ------
    DivergenceError
        If the step produces a non-finite state.
    """
    if not (0.0 < dt <= 0.05):
        raise ValueError(f"dt must lie in (0, 0.05], got {dt!r}")
    k1 = model(state, u)
    k2 = model(state + (0.5 * dt) * k1, u)
    k3 = model(state + (0.5 * dt) * k2, u)
    k4 = model(state + dt * k3, u)
    out = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if quat_slice is not None:
        q = out[quat_slice]
        n = math.hypot(*q.tolist())
        if n < 1e-12 or not math.isfinite(n):
            raise DivergenceError("quaternion collapsed during integration", state=out)
        out[quat_slice] = q / n
    # A finite sum means every entry is finite; otherwise check exactly, as
    # finite entries can still overflow the sum.
    if not math.isfinite(out.sum()) and not np.isfinite(out).all():
        raise DivergenceError("integration produced a non-finite state", state=out)
    return out


def _rk4_floats(s, c, tx, ty, tz, jx, jy, jz, dt):
    """One classical RK4 step of the aerial model over plain floats.

    ``s`` is the state as 13 floats.  Returns the end state as a 13-tuple,
    quaternion not yet renormalized, and the attitudes
    ``(qw, qx, qy, qz, wx, wy, wz)`` of stages 2-4, which the optimizer's
    Jacobians need.  The four :func:`_rates` evaluations are unrolled
    inline (a call per stage costs more than its arithmetic); each value is
    the operation, in the same order, that :func:`step_rk4` applies to
    ``aerial_derivative`` arrays, so the result is bit for bit the same.
    Stage positions are skipped because no derivative reads them.
    """
    px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = s
    g = GRAVITY
    h = 0.5 * dt
    # The gyroscopic inertia differences of _rates, formed once.
    kx, ky, kz = jz - jy, jx - jz, jy - jx
    # Stage 1: the rates of _rates at the start state.
    a1x = 2.0 * (qx * qz + qw * qy) * c
    a1y = 2.0 * (qy * qz - qw * qx) * c
    a1z = (1.0 - 2.0 * (qx * qx + qy * qy)) * c - g
    e1w = 0.5 * (-wx * qx - wy * qy - wz * qz)
    e1x = 0.5 * (wx * qw + wz * qy - wy * qz)
    e1y = 0.5 * (wy * qw - wz * qx + wx * qz)
    e1z = 0.5 * (wz * qw + wy * qx - wx * qy)
    r1x = (tx - kx * wy * wz) / jx
    r1y = (ty - ky * wz * wx) / jy
    r1z = (tz - kz * wx * wy) / jz
    # Stage 2, half a step along stage 1.
    s2 = (qw2, qx2, qy2, qz2, wx2, wy2, wz2) = (
        qw + h * e1w, qx + h * e1x, qy + h * e1y, qz + h * e1z,
        wx + h * r1x, wy + h * r1y, wz + h * r1z)
    a2x = 2.0 * (qx2 * qz2 + qw2 * qy2) * c
    a2y = 2.0 * (qy2 * qz2 - qw2 * qx2) * c
    a2z = (1.0 - 2.0 * (qx2 * qx2 + qy2 * qy2)) * c - g
    e2w = 0.5 * (-wx2 * qx2 - wy2 * qy2 - wz2 * qz2)
    e2x = 0.5 * (wx2 * qw2 + wz2 * qy2 - wy2 * qz2)
    e2y = 0.5 * (wy2 * qw2 - wz2 * qx2 + wx2 * qz2)
    e2z = 0.5 * (wz2 * qw2 + wy2 * qx2 - wx2 * qy2)
    r2x = (tx - kx * wy2 * wz2) / jx
    r2y = (ty - ky * wz2 * wx2) / jy
    r2z = (tz - kz * wx2 * wy2) / jz
    # Stage 3, half a step along stage 2.
    s3 = (qw3, qx3, qy3, qz3, wx3, wy3, wz3) = (
        qw + h * e2w, qx + h * e2x, qy + h * e2y, qz + h * e2z,
        wx + h * r2x, wy + h * r2y, wz + h * r2z)
    a3x = 2.0 * (qx3 * qz3 + qw3 * qy3) * c
    a3y = 2.0 * (qy3 * qz3 - qw3 * qx3) * c
    a3z = (1.0 - 2.0 * (qx3 * qx3 + qy3 * qy3)) * c - g
    e3w = 0.5 * (-wx3 * qx3 - wy3 * qy3 - wz3 * qz3)
    e3x = 0.5 * (wx3 * qw3 + wz3 * qy3 - wy3 * qz3)
    e3y = 0.5 * (wy3 * qw3 - wz3 * qx3 + wx3 * qz3)
    e3z = 0.5 * (wz3 * qw3 + wy3 * qx3 - wx3 * qy3)
    r3x = (tx - kx * wy3 * wz3) / jx
    r3y = (ty - ky * wz3 * wx3) / jy
    r3z = (tz - kz * wx3 * wy3) / jz
    # Stage 4, a full step along stage 3.
    s4 = (qw4, qx4, qy4, qz4, wx4, wy4, wz4) = (
        qw + dt * e3w, qx + dt * e3x, qy + dt * e3y, qz + dt * e3z,
        wx + dt * r3x, wy + dt * r3y, wz + dt * r3z)
    a4x = 2.0 * (qx4 * qz4 + qw4 * qy4) * c
    a4y = 2.0 * (qy4 * qz4 - qw4 * qx4) * c
    a4z = (1.0 - 2.0 * (qx4 * qx4 + qy4 * qy4)) * c - g
    e4w = 0.5 * (-wx4 * qx4 - wy4 * qy4 - wz4 * qz4)
    e4x = 0.5 * (wx4 * qw4 + wz4 * qy4 - wy4 * qz4)
    e4y = 0.5 * (wy4 * qw4 - wz4 * qx4 + wx4 * qz4)
    e4z = 0.5 * (wz4 * qw4 + wy4 * qx4 - wx4 * qy4)
    r4x = (tx - kx * wy4 * wz4) / jx
    r4y = (ty - ky * wz4 * wx4) / jy
    r4z = (tz - kz * wx4 * wy4) / jz
    w = dt / 6.0
    end = (
        # position rates are the stage velocities
        px + w * (vx + 2.0 * (vx + h * a1x) + 2.0 * (vx + h * a2x) + (vx + dt * a3x)),
        py + w * (vy + 2.0 * (vy + h * a1y) + 2.0 * (vy + h * a2y) + (vy + dt * a3y)),
        pz + w * (vz + 2.0 * (vz + h * a1z) + 2.0 * (vz + h * a2z) + (vz + dt * a3z)),
        vx + w * (a1x + 2.0 * a2x + 2.0 * a3x + a4x),
        vy + w * (a1y + 2.0 * a2y + 2.0 * a3y + a4y),
        vz + w * (a1z + 2.0 * a2z + 2.0 * a3z + a4z),
        qw + w * (e1w + 2.0 * e2w + 2.0 * e3w + e4w),
        qx + w * (e1x + 2.0 * e2x + 2.0 * e3x + e4x),
        qy + w * (e1y + 2.0 * e2y + 2.0 * e3y + e4y),
        qz + w * (e1z + 2.0 * e2z + 2.0 * e3z + e4z),
        wx + w * (r1x + 2.0 * r2x + 2.0 * r3x + r4x),
        wy + w * (r1y + 2.0 * r2y + 2.0 * r3y + r4y),
        wz + w * (r1z + 2.0 * r2z + 2.0 * r3z + r4z),
    )
    return end, (s2, s3, s4)


def _planar_rk4(pose: np.ndarray, speed: float, turn: float, dt: float,
                steps: int) -> np.ndarray:
    """``steps`` RK4 steps of the planar model ``(s cos h, s sin h, r)``.

    Runs in plain floats and builds one array at the end.  Each substep
    does the float operations, in the same order, that :func:`step_rk4`
    applies to the planar derivative, so the pose is bit for bit the same;
    two exact identities are hoisted: with a constant heading rate, stage 3
    equals stage 2 and every substep adds the same heading increment.
    Raises :class:`DivergenceError` at the first non-finite substep.
    """
    x, y, h = pose.tolist()
    half = 0.5 * dt
    w = dt / 6.0
    dh = w * (turn + 2.0 * turn + 2.0 * turn + turn)
    try:
        for _ in range(steps):
            h2 = h + half * turn
            h4 = h + dt * turn
            vx1, vx2, vx4 = speed * math.cos(h), speed * math.cos(h2), speed * math.cos(h4)
            vy1, vy2, vy4 = speed * math.sin(h), speed * math.sin(h2), speed * math.sin(h4)
            x = x + w * (vx1 + 2.0 * vx2 + 2.0 * vx2 + vx4)
            y = y + w * (vy1 + 2.0 * vy2 + 2.0 * vy2 + vy4)
            h = h + dh
            # As in step_rk4: a finite sum means every entry is finite.
            if not math.isfinite(x + y + h) and not (
                    math.isfinite(x) and math.isfinite(y) and math.isfinite(h)):
                raise DivergenceError("integration produced a non-finite state",
                                      state=np.array([x, y, h]))
    except ValueError:
        # math.cos of a stage heading that overflowed to infinity.
        raise DivergenceError("integration produced a non-finite state",
                              state=np.array([x, y, h])) from None
    return np.array([x, y, h])


def _renormalized(vals) -> tuple[list, float]:
    """An aerial RK4 end state with its quaternion renormalized, and the norm.

    ``vals`` is the 13-float end state of :func:`_rk4_floats`; the state
    comes back as a list.  The norm is ``math.hypot``, as in :func:`step_rk4`.
    Raises :class:`DivergenceError` on a collapsed or non-finite norm or on
    any non-finite entry.
    """
    px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = vals
    n = math.hypot(qw, qx, qy, qz)
    if n < 1e-12 or not math.isfinite(n):
        raise DivergenceError("quaternion collapsed during integration",
                              state=np.array(vals))
    # A finite n leaves the quaternion finite; a non-finite sum flags any
    # other bad entry (or an overflowing sum, which the exact test clears).
    if not math.isfinite(sum(vals)) and not all(map(math.isfinite, vals)):
        raise DivergenceError("integration produced a non-finite state",
                              state=np.array(vals))
    return [px, py, pz, vx, vy, vz, qw / n, qx / n, qy / n, qz / n, wx, wy, wz], n


def aerial_step(x: np.ndarray, u: np.ndarray, p: VehicleParams, dt: float,
                steps: int = 1) -> np.ndarray:
    """``steps`` RK4 steps of the aerial model, each renormalizing the
    quaternion: :func:`_rk4_floats` and :func:`_renormalized` in plain floats,
    with one array built at the end, so ``steps=k`` equals k chained one-step
    calls bit for bit.  Raises :class:`DivergenceError` at the first bad
    step, with that step's state.
    """
    if not (0.0 < dt <= 0.05):
        raise ValueError(f"dt must lie in (0, 0.05], got {dt!r}")
    c, tx, ty, tz = u.tolist()
    jx, jy, jz = p.inertia.tolist()
    s = x.tolist()
    for _ in range(steps):
        s = _renormalized(_rk4_floats(s, c, tx, ty, tz, jx, jy, jz, dt)[0])[0]
    return np.array(s)


# ---------------------------------------------------------------------------
# Control allocation
# ---------------------------------------------------------------------------

# Signed rotor thrust: T = k_f * w * |w|, so reversing a rotor reverses thrust.


def allocate(u: AerialInput, p: VehicleParams, strict: bool = True) -> ActuatorCommand:
    """Map collective thrust and torques to rotor speeds and servo tilt.

    The per-rotor thrusts solve the square mixing system

    ==========================  =======================
    total thrust                ``T1+T2+T3+T4 = m*c``
    roll (left minus right)     ``T1-T2+T3-T4 = tau_x/arm``
    pitch (rear minus front)    ``-T1-T2+T3+T4 = tau_y/arm``
    zero twist                  ``T1-T2-T3+T4 = 0``
    ==========================  =======================

    and yaw torque maps to the servo through the small-angle relation
    ``tau_z = arm * servo * (T3 + T4)`` (the servo tilts the rear-pair
    thrust sideways).

    Parameters
    ----------
    u : AerialInput
    p : VehicleParams
    strict : bool
        If True (default), commands beyond actuator limits raise
        :class:`SaturationError` listing the violating channels. If False,
        the returned command is clipped to the limits instead.

    Returns
    -------
    ActuatorCommand
        Rotor speeds (rad/s, FL/FR/RL/RR) and servo angle (rad).
    """
    tx, ty, tz = u.torque.tolist()
    b0 = p.mass * u.c
    b1 = tx / p.arm
    b2 = ty / p.arm
    # Thrusts from the orthogonal mixing rows (M^-1 = M^T / 4).
    t1 = 0.25 * (b0 + b1 - b2)
    t2 = 0.25 * (b0 - b1 - b2)
    t3 = 0.25 * (b0 + b1 + b2)
    t4 = 0.25 * (b0 - b1 + b2)

    rear = t3 + t4
    if abs(rear) * p.arm < 1e-9:
        if abs(tz) > 1e-12:
            raise SaturationError(
                "yaw torque demanded with no rear-pair thrust to tilt",
                channels=["servo"],
            )
        servo = 0.0
    else:
        servo = tz / (p.arm * rear)

    speeds = []
    clipped: list[str] = []
    for i, t in enumerate((t1, t2, t3, t4)):
        w = math.copysign(math.sqrt(abs(t) / p.k_f), t)
        if abs(w) > p.rotor_max:
            clipped.append(f"rotor_{i + 1}")
            w = math.copysign(p.rotor_max, w)
        speeds.append(w)
    if abs(servo) > p.servo_max:
        clipped.append("servo")
        servo = math.copysign(p.servo_max, servo)

    if clipped and strict:
        raise SaturationError(
            f"actuator limits exceeded on: {', '.join(clipped)}", channels=clipped
        )
    return ActuatorCommand(rotor_speeds=np.array(speeds), servo=servo)


def forward_mix(cmd: ActuatorCommand, p: VehicleParams) -> AerialInput:
    """Forward mixing model: actuator command back to thrust and torques.

    Exact inverse of :func:`allocate` for in-range commands.  Computed in
    floats with the rounding of the array form ``k_f * w * |w|``: the
    collective sum runs in numpy's order for four entries, from ``+0.0``.
    """
    kf = p.k_f
    w0, w1, w2, w3 = cmd.rotor_speeds.tolist()
    t0, t1 = kf * w0 * abs(w0), kf * w1 * abs(w1)
    t2, t3 = kf * w2 * abs(w2), kf * w3 * abs(w3)
    c = (0.0 + t0 + t1 + t2 + t3) / p.mass
    tau_x = p.arm * (t0 - t1 + t2 - t3)
    tau_y = p.arm * (-t0 - t1 + t2 + t3)
    tau_z = p.arm * cmd.servo * (t2 + t3)
    return AerialInput(c=c, torque=np.array([tau_x, tau_y, tau_z]))


def aquatic_rotor_speeds(speed: float, p: VehicleParams) -> np.ndarray:
    """Equivalent rear-rotor speeds for a surge speed, from the drag balance.

    Thrust ``k_f * w^2`` per driven rotor balances half the quadratic drag
    ``AQUATIC_DRAG_GAIN * speed^2``. Front rotors idle.
    """
    t_each = 0.5 * AQUATIC_DRAG_GAIN * speed * speed
    w = math.sqrt(t_each / p.k_f)
    w = math.copysign(min(w, p.rotor_max), speed) if speed != 0.0 else 0.0
    return np.array([0.0, 0.0, w, w])
