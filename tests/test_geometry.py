"""Attitude algebra tests.

Expected values come from two independent oracles: scipy's Rotation (ZYX
convention) and a local quaternion-composition oracle built from single-axis
quaternions, cross-checked against each other before being trusted.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from cyclosim.errors import GimbalLockError
from cyclosim.geometry import (
    GIMBAL_COS_PITCH_MIN,
    EulerAngles,
    GimbalLockWarning,
    body_rates_to_euler_rates,
    body_to_world_velocity,
    euler_rate_matrix,
    euler_rates_to_body_rates,
    euler_to_quat,
    euler_to_rotation,
    omega_matrix,
    quat_derivative,
    quat_from_yaw,
    quat_multiply,
    quat_normalize,
    quat_roll_pitch,
    quat_rotation_matrix,
    quat_to_euler,
    quat_yaw,
    wrap_angle,
)

ORTHO_TOL = 1e-12
CONSISTENCY_TOL = 1e-10


def scipy_matrix(e: EulerAngles) -> np.ndarray:
    return Rotation.from_euler("ZYX", [e.yaw, e.pitch, e.roll]).as_matrix()


def quat_composition_oracle(e: EulerAngles) -> np.ndarray:
    """Rotation matrix via composing single-axis quaternions (independent path)."""

    def axis_quat(axis: int, angle: float) -> np.ndarray:
        q = np.zeros(4)
        q[0] = math.cos(0.5 * angle)
        q[1 + axis] = math.sin(0.5 * angle)
        return q

    q = quat_multiply(
        axis_quat(2, e.yaw), quat_multiply(axis_quat(1, e.pitch), axis_quat(0, e.roll))
    )
    return quat_rotation_matrix(q)


def random_angles(rng: np.random.Generator, n: int):
    # Keep pitch clear of the singularity for round-trip tests.
    for _ in range(n):
        roll, pitch, yaw = rng.uniform(-math.pi, math.pi, size=3)
        pitch = 0.49 * math.pi * math.sin(pitch)
        yield EulerAngles(roll, pitch, yaw)


class TestEulerToRotation:
    def test_pure_yaw_quarter_turn(self):
        # Frozen from both oracles: rows (0,-1,0), (1,0,0), (0,0,1).
        r = euler_to_rotation(EulerAngles(0.0, 0.0, math.pi / 2))
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(r, expected, atol=ORTHO_TOL)

    def test_identity(self):
        assert np.allclose(euler_to_rotation(EulerAngles(0, 0, 0)), np.eye(3), atol=0)

    def test_orthonormal_and_proper(self):
        rng = np.random.default_rng(7)
        for e in random_angles(rng, 50):
            r = euler_to_rotation(e)
            assert np.abs(r @ r.T - np.eye(3)).max() < ORTHO_TOL
            assert abs(np.linalg.det(r) - 1.0) < 1e-11

    def test_matches_both_oracles(self):
        rng = np.random.default_rng(8)
        for e in random_angles(rng, 25):
            r = euler_to_rotation(e)
            assert np.abs(r - scipy_matrix(e)).max() < CONSISTENCY_TOL
            assert np.abs(r - quat_composition_oracle(e)).max() < CONSISTENCY_TOL

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EulerAngles(math.nan, 0.0, 0.0)

    def test_body_velocity_round_trip(self):
        rng = np.random.default_rng(9)
        for e in random_angles(rng, 10):
            v_body = rng.normal(size=3)
            v_world = body_to_world_velocity(e, v_body)
            back = euler_to_rotation(e).T @ v_world
            assert np.abs(back - v_body).max() < ORTHO_TOL * 10


class TestRateMaps:
    def test_pitch_rate_at_quarter_roll(self):
        # Frozen: e=(pi/2,0,0), euler rates (0,1,0) -> body rates (0,0,-1).
        w = euler_rates_to_body_rates(EulerAngles(math.pi / 2, 0, 0), [0.0, 1.0, 0.0])
        assert np.allclose(w, [0.0, 0.0, -1.0], atol=1e-15)

    def test_matrix_matches_printed_form(self):
        e = EulerAngles(0.3, -0.7, 1.1)
        cf, sf = math.cos(e.roll), math.sin(e.roll)
        ct, st = math.cos(e.pitch), math.sin(e.pitch)
        expected = np.array([[1, 0, -st], [0, cf, sf * ct], [0, -sf, cf * ct]])
        assert np.allclose(euler_rate_matrix(e), expected, atol=0)

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        for e in random_angles(rng, 25):
            rates = rng.normal(size=3)
            w = euler_rates_to_body_rates(e, rates)
            back = body_rates_to_euler_rates(e, w)
            assert np.abs(back - rates).max() < 1e-9

    def test_gimbal_singularity_raises(self):
        with pytest.raises(GimbalLockError):
            body_rates_to_euler_rates(EulerAngles(0, math.pi / 2, 0), [0.1, 0.0, 0.0])

    def test_threshold_boundary(self):
        # Just inside the singular band raises, just outside does not.
        pitch_bad = math.acos(GIMBAL_COS_PITCH_MIN * 0.5)
        pitch_ok = math.acos(GIMBAL_COS_PITCH_MIN * 10.0)
        with pytest.raises(GimbalLockError):
            body_rates_to_euler_rates(EulerAngles(0, pitch_bad, 0), [0.0, 0.0, 1.0])
        body_rates_to_euler_rates(EulerAngles(0, pitch_ok, 0), [0.0, 0.0, 1.0])


class TestQuaternions:
    def test_normalize_unit_output(self):
        q = quat_normalize([1.0, 2.0, -3.0, 0.5])
        assert abs(q @ q - 1.0) < 1e-15

    def test_normalize_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            quat_normalize([0.0, 0.0, 0.0, 0.0])

    def test_multiply_identity(self):
        q = quat_normalize([0.3, -0.2, 0.8, 0.1])
        ident = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(quat_multiply(ident, q), q, atol=0)
        assert np.allclose(quat_multiply(q, ident), q, atol=0)

    def test_derivative_example(self):
        # Frozen: identity attitude, w=(0,0,2) -> qdot=(0,0,0,1).
        qd = quat_derivative([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 2.0])
        assert np.allclose(qd, [0.0, 0.0, 0.0, 1.0], atol=0)

    def test_derivative_orthogonal_to_q(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            q = quat_normalize(rng.normal(size=4))
            w = rng.normal(size=3) * 5.0
            assert abs(float(q @ quat_derivative(q, w))) < ORTHO_TOL

    def test_omega_matrix_antisymmetric(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=3)
        m = omega_matrix(w)
        assert np.allclose(m, -m.T, atol=0)

    def test_euler_quat_rotation_consistency(self):
        rng = np.random.default_rng(13)
        for e in random_angles(rng, 25):
            r_euler = euler_to_rotation(e)
            r_quat = quat_rotation_matrix(euler_to_quat(e))
            assert np.abs(r_euler - r_quat).max() < CONSISTENCY_TOL

    def test_euler_round_trip(self):
        rng = np.random.default_rng(14)
        for e in random_angles(rng, 25):
            back = quat_to_euler(euler_to_quat(e))
            assert abs(wrap_angle(back.roll - e.roll)) < CONSISTENCY_TOL
            assert abs(back.pitch - e.pitch) < CONSISTENCY_TOL
            assert abs(wrap_angle(back.yaw - e.yaw)) < CONSISTENCY_TOL

    def test_gimbal_extraction_folds_roll(self):
        q = euler_to_quat(EulerAngles(0.4, math.pi / 2, 0.9))
        with pytest.warns(GimbalLockWarning):
            e = quat_to_euler(q)
        assert e.roll == 0.0
        assert abs(e.pitch - math.pi / 2) < 1e-12
        # Only yaw - roll is observable at the +pi/2 pole.
        assert abs(wrap_angle(e.yaw - (0.9 - 0.4))) < 1e-9

    def test_yaw_roll_pitch_helpers(self):
        e = EulerAngles(0.2, -0.3, 1.4)
        q = euler_to_quat(e)
        assert abs(quat_yaw(q) - e.yaw) < CONSISTENCY_TOL
        roll, pitch = quat_roll_pitch(q)
        assert abs(roll - e.roll) < CONSISTENCY_TOL
        assert abs(pitch - e.pitch) < CONSISTENCY_TOL
        assert abs(quat_yaw(quat_from_yaw(2.0)) - 2.0) < 1e-12


class TestWrapAngle:
    def test_examples(self):
        assert abs(wrap_angle(3 * math.pi / 2) - (-math.pi / 2)) < 1e-12
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.25) == pytest.approx(0.25)

    def test_range(self):
        rng = np.random.default_rng(15)
        for a in rng.uniform(-50, 50, size=200):
            w = wrap_angle(a)
            assert -math.pi < w <= math.pi
            # Same angle modulo 2*pi.
            assert abs(math.remainder(a - w, 2 * math.pi)) < 1e-9


def check_vector_argument(call, n: int, name: str) -> None:
    """``call(v)`` rejects a ``v`` of the wrong shape and one with a NaN or
    an infinity, with a ValueError that names the argument."""
    for bad_shape in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((1, n))):
        with pytest.raises(ValueError, match=rf"^{name} must have shape \({n},\)$"):
            call(bad_shape)
    for bad in (math.nan, math.inf, -math.inf):
        v = np.ones(n)
        v[-1] = bad
        with pytest.raises(ValueError, match=rf"^{name} must be finite$"):
            call(v)


_TILTED = EulerAngles(0.1, -0.2, 0.3)
_IDENTITY = [1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("call, n, name", [
    (lambda v: body_to_world_velocity(_TILTED, v), 3, "v_body"),
    (lambda v: euler_rates_to_body_rates(_TILTED, v), 3, "rates"),
    (lambda v: body_rates_to_euler_rates(_TILTED, v), 3, "omega"),
    (quat_normalize, 4, "quaternion"),
    (lambda v: quat_derivative(v, [0.0, 0.0, 1.0]), 4, "q"),
    (lambda v: quat_derivative(_IDENTITY, v), 3, "omega"),
], ids=["v_body", "rates", "omega", "normalize", "derivative_q", "derivative_omega"])
def test_vector_arguments_are_checked(call, n, name):
    check_vector_argument(call, n, name)
