"""Plant model and integrator tests.

Oracles: closed-form free fall and exponential growth, hand-built linearized
mixing-matrix inverse for the allocation map, principal-axis spin constancy,
and scipy's DOP853 at tight tolerances for the plant's local error per tick.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from cyclosim.config import default_config
from cyclosim.dynamics import (
    _planar_rates,
    _planar_rk4,
    _rk4_floats,
    AQUATIC_DRAG_GAIN,
    QUAT_SLICE,
    STATE_DIM,
    ActuatorCommand,
    AerialInput,
    AquaticInput,
    TerrestrialInput,
    VehicleParams,
    VehicleState,
    aerial_derivative,
    aerial_step,
    allocate,
    aquatic_derivative,
    aquatic_rotor_speeds,
    forward_mix,
    hover_state,
    step_rk4,
    terrestrial_derivative,
)
from cyclosim.errors import DivergenceError, SaturationError
from cyclosim.fsm import Medium
from cyclosim.geometry import EulerAngles, euler_to_quat, quat_yaw
from cyclosim.mission import Action, Mission, Segment
from cyclosim.sim import (
    _CATCH_UP,
    _STEER_MAX,
    _TURN_RATE_MAX,
    HOVER_POS_TOL,
    HOVER_SPEED_TOL,
    HOVER_WINDOW,
    TOUCHDOWN_DESCENT_TOL,
    TOUCHDOWN_Z_TOL,
    _Runner,
)
from test_geometry import check_vector_argument

G = 9.81


@pytest.fixture
def params() -> VehicleParams:
    return VehicleParams()


def mixing_oracle(c: float, tau: np.ndarray, p: VehicleParams):
    """Independent linearized mixing-matrix inverse (numpy solve)."""
    m = np.array(
        [[1, 1, 1, 1], [1, -1, 1, -1], [-1, -1, 1, 1], [1, -1, -1, 1]], dtype=float
    )
    b = np.array([p.mass * c, tau[0] / p.arm, tau[1] / p.arm, 0.0])
    thrusts = np.linalg.solve(m, b)
    speeds = np.sign(thrusts) * np.sqrt(np.abs(thrusts) / p.k_f)
    servo = tau[2] / (p.arm * (thrusts[2] + thrusts[3]))
    return thrusts, speeds, servo


class TestAerialDerivative:
    def test_hover_equilibrium_exact_zero(self, params):
        x = hover_state((0.0, 0.0, 5.0)).as_vector()
        u = np.array([G, 0.0, 0.0, 0.0])
        dx = aerial_derivative(x, u, params)
        assert np.all(dx == 0.0)

    def test_thrust_enters_through_attitude(self, params):
        # 90 degree roll points body z along world -y.
        x = hover_state((0, 0, 5)).as_vector()
        x[6:10] = [math.cos(math.pi / 4), math.sin(math.pi / 4), 0.0, 0.0]
        dx = aerial_derivative(x, np.array([2.0, 0.0, 0.0, 0.0]), params)
        assert dx[3] == pytest.approx(0.0, abs=1e-12)
        assert dx[4] == pytest.approx(-2.0, abs=1e-12)
        assert dx[5] == pytest.approx(-G, abs=1e-12)

    def test_torque_through_inertia(self, params):
        x = hover_state((0, 0, 5)).as_vector()
        u = np.array([G, 1e-3, 0.0, 0.0])
        dx = aerial_derivative(x, u, params)
        assert dx[10] == pytest.approx(1e-3 / params.inertia[0])

    def test_gyroscopic_coupling(self, params):
        x = hover_state((0, 0, 5)).as_vector()
        x[10:13] = [0.0, 2.0, 3.0]
        dx = aerial_derivative(x, np.array([G, 0, 0, 0]), params)
        jx, jy, jz = params.inertia
        assert dx[10] == pytest.approx(-(jz - jy) * 2.0 * 3.0 / jx)

    def test_rejects_bad_shapes_and_nan(self, params):
        x = hover_state((0, 0, 5)).as_vector()
        with pytest.raises(ValueError):
            aerial_derivative(x[:-1], np.zeros(4), params)
        with pytest.raises(ValueError):
            aerial_derivative(x, np.zeros(3), params)
        x_bad = x.copy()
        x_bad[0] = math.nan
        with pytest.raises(ValueError):
            aerial_derivative(x_bad, np.zeros(4), params)


class TestSurfaceModels:
    def test_differential_drive_spin_in_place(self, params):
        # Frozen: (v_left, v_right) = (-1, 1), track 0.4 -> heading rate 5.
        d = terrestrial_derivative(
            np.zeros(3), TerrestrialInput(v_left=-1.0, v_right=1.0), params
        )
        assert np.allclose(d, [0.0, 0.0, 5.0], atol=1e-15)

    def test_differential_drive_heading(self):
        p = VehicleParams(track_width=0.5)
        d = terrestrial_derivative(
            np.array([0.0, 0.0, math.pi / 2]),
            TerrestrialInput(v_left=1.0, v_right=2.0),
            p,
        )
        assert d[0] == pytest.approx(0.0, abs=1e-12)
        assert d[1] == pytest.approx(1.5)
        assert d[2] == pytest.approx(2.0)

    def test_aquatic_steering_rate(self):
        # Frozen: speed 1, wheelbase 0.5, steering pi/4 -> heading rate 2.
        p = VehicleParams(wheelbase=0.5)
        d = aquatic_derivative(np.zeros(3), AquaticInput(1.0, math.pi / 4), p)
        assert d[0] == pytest.approx(1.0)
        assert d[1] == pytest.approx(0.0, abs=1e-12)
        assert d[2] == pytest.approx(2.0)

    def test_aquatic_steering_limit(self):
        with pytest.raises(ValueError):
            AquaticInput(1.0, math.pi / 2)

    def test_straight_line_integration(self, params):
        pose = np.zeros(3)
        u = TerrestrialInput(1.0, 1.0)
        for _ in range(1000):
            pose = step_rk4(
                lambda s, uu: terrestrial_derivative(s, uu, params), pose, u, 1e-3
            )
        assert pose[0] == pytest.approx(1.0, abs=1e-12)
        assert pose[1] == pytest.approx(0.0, abs=1e-12)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_SPEED = st.one_of(st.sampled_from([0.0, -0.0]), _finite(-5.0, 5.0))
_NEAR_RIGHT_ANGLE = math.nextafter(0.5 * math.pi, 0.0)
_STEERING = st.one_of(
    _finite(-1.5, 1.5),
    st.sampled_from([_NEAR_RIGHT_ANGLE, -_NEAR_RIGHT_ANGLE]),
    _finite(1.57, _NEAR_RIGHT_ANGLE).flatmap(lambda a: st.sampled_from([a, -a])),
)
_SURFACE_INPUT = st.one_of(
    st.builds(TerrestrialInput, _SPEED, _SPEED),
    st.builds(AquaticInput, _SPEED, _STEERING),
)


class TestPlanarKernel:
    """``_planar_rk4`` against repeated ``step_rk4`` over the public derivatives."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        pose=st.tuples(_finite(-1e4, 1e4), _finite(-1e4, 1e4), _finite(-100.0, 100.0)),
        u=_SURFACE_INPUT,
        dt=_finite(1e-5, 0.05),
        steps=st.integers(1, 20),
        length=_finite(0.05, 2.0),
    )
    def test_matches_step_rk4_bit_for_bit(self, pose, u, dt, steps, length):
        p = VehicleParams(track_width=length, wheelbase=length)
        f = terrestrial_derivative if isinstance(u, TerrestrialInput) else aquatic_derivative
        expected = np.array(pose)
        for _ in range(steps):
            expected = step_rk4(lambda s, uu: f(s, uu, p), expected, u, dt)
        got = _planar_rk4(np.array(pose), *_planar_rates(u, p), dt, steps)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_overflowing_position_diverges(self):
        with pytest.raises(DivergenceError) as exc_info:
            _planar_rk4(np.array([1.7e308, 0.0, 0.0]), 1e308, 0.0, 0.05, 10)
        assert exc_info.value.state is not None

    def test_diverges_at_the_same_substep(self):
        # Speed 3.1e307 turning at -5 rad/s: the stage-rate sum of x
        # overflows once the heading is near zero, on the fourth substep.
        p = VehicleParams(track_width=1e307)
        u = TerrestrialInput(v_left=5.6e307, v_right=0.6e307)
        pose, dt = np.array([0.0, 0.0, 1.0]), 0.05
        x = pose
        with np.errstate(over="ignore"):
            for first in range(1, 20):
                try:
                    x = step_rk4(lambda s, uu: terrestrial_derivative(s, uu, p), x, u, dt)
                except DivergenceError as exc:
                    expected = exc.state
                    break
        assert first == 4
        speed, turn = _planar_rates(u, p)
        assert np.array_equal(_planar_rk4(pose, speed, turn, dt, first - 1), x)
        with pytest.raises(DivergenceError) as exc_info:
            _planar_rk4(pose, speed, turn, dt, first)
        assert np.array_equal(exc_info.value.state, expected)

    def test_finite_pose_with_an_overflowing_sum_is_kept(self):
        pose = np.array([1.7e308, 1.7e308, 0.0])
        assert np.array_equal(_planar_rk4(pose, 0.0, 0.0, 1e-3, 5), pose)

    def test_overflowing_heading_diverges(self):
        # The stage heading overflows to infinity, where math.cos raises
        # ValueError; the kernel reports a divergence instead.
        with pytest.raises(DivergenceError):
            _planar_rk4(np.array([0.0, 0.0, 1.7e308]), 1.0, 1e308, 0.05, 1)

    def test_infinite_turn_rate_diverges(self):
        with pytest.raises(DivergenceError):
            _planar_rk4(np.zeros(3), 1.0, math.inf, 1e-3, 10)

    def test_derivatives_check_the_input_type(self, params):
        with pytest.raises(TypeError):
            terrestrial_derivative(np.zeros(3), AquaticInput(1.0, 0.1), params)
        with pytest.raises(TypeError):
            aquatic_derivative(np.zeros(3), TerrestrialInput(1.0, 1.0), params)


class TestAerialKernel:
    """``_rk4_floats`` against one generic ``step_rk4`` over ``aerial_derivative``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        x=st.lists(_finite(-1e3, 1e3), min_size=STATE_DIM, max_size=STATE_DIM),
        u=st.tuples(_finite(0.0, 1e3), _finite(-10.0, 10.0), _finite(-10.0, 10.0),
                    _finite(-10.0, 10.0)),
        inertia=st.tuples(_finite(1e-3, 1.0), _finite(1e-3, 1.0), _finite(1e-3, 1.0)),
        dt=_finite(1e-5, 0.05),
    )
    def test_matches_step_rk4_before_renormalization(self, x, u, inertia, dt):
        p = VehicleParams(inertia=np.array(inertia))
        x, u = np.array(x), np.array(u)
        f = lambda s, v: aerial_derivative(s, v, p)
        end, later = _rk4_floats(x.tolist(), *u.tolist(), *inertia, dt)
        assert np.array_equal(np.array(end), step_rk4(f, x, u, dt))
        # Stages 2-4 are the attitudes (q, w) that step_rk4 feeds the model.
        k1 = f(x, u)
        s2 = x + (0.5 * dt) * k1
        s3 = x + (0.5 * dt) * f(s2, u)
        s4 = x + dt * f(s3, u)
        assert np.array_equal(np.array(later), np.array([s2[6:], s3[6:], s4[6:]]))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        x=st.tuples(*[_finite(-100.0, 100.0)] * 6, *[_finite(-1.0, 1.0)] * 4,
                    *[_finite(-10.0, 10.0)] * 3),
        u=st.tuples(_finite(0.0, 50.0), _finite(-1.0, 1.0), _finite(-1.0, 1.0),
                    _finite(-1.0, 1.0)),
        inertia=st.tuples(_finite(1e-3, 1.0), _finite(1e-3, 1.0), _finite(1e-3, 1.0)),
        dt=_finite(1e-5, 0.05),
        steps=st.integers(1, 12),
    )
    def test_steps_match_chained_step_rk4_bit_for_bit(self, x, u, inertia, dt, steps):
        params = VehicleParams(inertia=np.array(inertia))
        x, u = np.array(x), np.array(u)
        f = lambda s, v: aerial_derivative(s, v, params)
        expected = x
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(steps):
                    expected = step_rk4(f, expected, u, dt, quat_slice=QUAT_SLICE)
        except (DivergenceError, ValueError):
            # A collapsed quaternion or a blow-up: aerial_derivative rejects
            # a non-finite stage state with ValueError.
            with pytest.raises(DivergenceError):
                aerial_step(x, u, params, dt, steps)
            return
        got = aerial_step(x, u, params, dt, steps)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_diverges_at_the_same_substep(self, params):
        # x grows by 5e303 a step from 1.7975e308 and overflows on the fourth.
        x0 = hover_state((1.7975e308, 0.0, 0.0)).as_vector()
        x0[3] = 1e305
        u, dt = np.array([G, 0.0, 0.0, 0.0]), 0.05
        x = x0
        for first in range(1, 20):
            try:
                x = aerial_step(x, u, params, dt)
            except DivergenceError as exc:
                expected = exc.state
                break
        assert first == 4
        assert np.array_equal(aerial_step(x0, u, params, dt, first - 1), x)
        with pytest.raises(DivergenceError) as exc_info:
            aerial_step(x0, u, params, dt, first + 3)
        assert np.array_equal(exc_info.value.state, expected)


class TestRk4:
    def test_free_fall_closed_form(self, params):
        x = hover_state((0.0, 0.0, 0.0)).as_vector()
        u = np.zeros(4)
        for _ in range(1000):
            x = aerial_step(x, u, params, 1e-3)
        assert abs(x[2] - (-0.5 * G)) < 1e-6
        assert abs(x[5] - (-G)) < 1e-9

    def test_order_reduction_on_exponential(self):
        lam = 40.0
        f = lambda s, _u: lam * s
        errors = []
        for dt in (0.05, 0.025, 0.0125):
            out = step_rk4(f, np.array([1.0]), None, dt)
            errors.append(abs(float(out[0]) - math.exp(lam * dt)))
        assert errors[0] / errors[1] > 15.0
        assert errors[1] / errors[2] > 15.0

    def test_dt_bounds(self, params):
        x = hover_state((0, 0, 1)).as_vector()
        u = np.array([G, 0, 0, 0])
        for bad in (0.0, -1e-3, 0.051):
            with pytest.raises(ValueError):
                aerial_step(x, u, params, bad)
            with pytest.raises(ValueError):
                step_rk4(lambda s, _: s, x, u, bad)

    def test_quaternion_norm_drift(self, params):
        x = hover_state((0, 0, 5)).as_vector()
        u = np.array([G, 2e-3, -1e-3, 5e-4])
        for _ in range(2000):
            x = aerial_step(x, u, params, 1e-3)
            n = float(x[QUAT_SLICE] @ x[QUAT_SLICE])
            assert abs(math.sqrt(n) - 1.0) < 1e-9

    def test_principal_axis_spin_constant(self, params):
        x = hover_state((0, 0, 5)).as_vector()
        x[10:13] = [0.0, 0.0, 2.0]
        u = np.array([G, 0.0, 0.0, 0.0])
        for _ in range(500):
            x = aerial_step(x, u, params, 1e-3)
        assert np.allclose(x[10:13], [0.0, 0.0, 2.0], atol=1e-12)
        # Half a second at 2 rad/s: yaw = 1 rad.
        yaw = 2.0 * math.atan2(x[9], x[6])
        assert abs(yaw - 1.0) < 1e-6

    def test_divergence_error_carries_state(self):
        f = lambda s, _u: s * 1e9  # blows up fast
        x = np.array([1.0])
        # The blow-up overflows on purpose; only the DivergenceError matters.
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as exc_info:
            for _ in range(200):
                x = step_rk4(f, x, None, 0.05)
        assert exc_info.value.state is not None


_CFG = default_config()
_TICK = _CFG.sim.controller_period
# A tick may use 1 % of a guard tolerance over twice HOVER_WINDOW (1 s, 100
# ticks) of local errors that all add up in one direction.
_SHARE = 0.01 / round(2.0 * HOVER_WINDOW / _TICK)
POSITION_BUDGET = _SHARE * min(TOUCHDOWN_Z_TOL, HOVER_POS_TOL, _CFG.sim.arrival_radius)
VELOCITY_BUDGET = _SHARE * min(HOVER_SPEED_TOL, TOUCHDOWN_DESCENT_TOL)
_MAX_THRUST = 3.0 * G
# A tilt error turns up to 3 g of thrust sideways for a tick; a rate error
# tilts the vehicle for a tick.
ATTITUDE_BUDGET = VELOCITY_BUDGET / (_MAX_THRUST * _TICK)
RATE_BUDGET = ATTITUDE_BUDGET / _TICK
_LOG_STRIDE = 10


def _reference(rhs, state) -> np.ndarray:
    """``state`` after one controller tick of ``rhs``, by DOP853."""
    sol = solve_ivp(lambda _t, s: rhs(s), (0.0, _TICK), state, method="DOP853",
                    rtol=1e-12, atol=1e-12)
    assert sol.success
    return sol.y[:, -1]


def _check_aerial_tick(x, u, params, dt) -> None:
    got = aerial_step(x, u, params, dt, round(_TICK / dt))
    err = np.abs(got - _reference(lambda s: aerial_derivative(s, u, params), x))
    assert err[0:3].max() <= POSITION_BUDGET, err
    assert err[3:6].max() <= VELOCITY_BUDGET, err
    # Twice the quaternion distance is the rotation angle between the two.
    assert 2.0 * np.linalg.norm(err[6:10]) <= ATTITUDE_BUDGET, err
    assert err[10:13].max() <= RATE_BUDGET, err


def _check_surface_tick(pose, speed, turn, dt) -> None:
    got = _planar_rk4(pose, speed, turn, dt, round(_TICK / dt))
    planar = lambda s: np.array([speed * math.cos(s[2]), speed * math.sin(s[2]), turn])
    err = np.abs(got - _reference(planar, pose))
    assert err[0:2].max() <= POSITION_BUDGET, err
    assert err[2] <= ATTITUDE_BUDGET, err


# The flight envelope: tilt up to both controllers' limits, body rates to
# 15 rad/s per axis (dash_nmpc peaks at 12), thrust in [0, 3 g] and torques
# within the PID clamp.
_TILT_MAX = max(_CFG.pid.tilt_limit, _CFG.nmpc.tilt_max)
_TORQUE = _finite(-_CFG.pid.torque_limit, _CFG.pid.torque_limit)
_AERIAL_TICK = st.tuples(
    st.tuples(*[_finite(-300.0, 300.0)] * 3, *[_finite(-10.0, 10.0)] * 3),
    _finite(0.0, _TILT_MAX), _finite(-math.pi, math.pi), _finite(-math.pi, math.pi),
    st.tuples(*[_finite(-15.0, 15.0)] * 3),
    st.tuples(_finite(0.0, _MAX_THRUST), _TORQUE, _TORQUE, _TORQUE),
)
# Surface commands within the drive laws: pursuit speed up to the catch-up
# factor times cruise, wheel turn rate and rudder angle within their clamps.
_SURFACE_TICK = st.one_of(
    st.builds(lambda s, r: TerrestrialInput(s - 0.5 * r * _CFG.track_width,
                                            s + 0.5 * r * _CFG.track_width),
              _finite(0.0, _CATCH_UP * _CFG.sim.cruise_ground),
              _finite(-_TURN_RATE_MAX, _TURN_RATE_MAX)),
    st.builds(AquaticInput, _finite(0.0, _CATCH_UP * _CFG.sim.cruise_water),
              _finite(-_STEER_MAX, _STEER_MAX)),
)
_DTS = pytest.mark.parametrize("dt", [1e-3, 1e-2], ids=["1ms", "10ms"])


class TestStepBudget:
    """The plant's local error over one controller tick stays within a budget
    set by the guards, at ``dt`` 1 ms (ten steps a tick) and 10 ms (one).

    Oracle: ``solve_ivp`` (DOP853, rtol and atol 1e-12) from the same state
    under the same held input.  The guards compare positions and speeds with
    tolerances, the tightest being 0.05 m (``TOUCHDOWN_Z_TOL``, below
    ``HOVER_POS_TOL`` and ``sim.arrival_radius``) and 0.1 m/s
    (``HOVER_SPEED_TOL``, below ``TOUCHDOWN_DESCENT_TOL``).  One tick may
    err by 1e-4 of each, so 100 ticks of errors in one direction use 1 % of
    it: 5e-6 m and 1e-5 m/s.  Attitude may err by 1e-5 m/s over 3 g times a
    tick, 3.4e-5 rad (the surface heading too), and the body rates by that
    per tick, 3.4e-3 rad/s.  The default ``dt`` is the largest the config
    allows (``dt <= sim.controller_period``) within this budget.
    """

    def test_budget_is_the_one_stated(self):
        budgets = (POSITION_BUDGET, VELOCITY_BUDGET, ATTITUDE_BUDGET, RATE_BUDGET)
        assert budgets == pytest.approx((5e-6, 1e-5, 3.4e-5, 3.4e-3), rel=0.01)

    @_DTS
    def test_builtin_pid_aerial_ticks(self, builtin_runs, dt):
        log = builtin_runs["pid"].log
        params = VehicleParams.from_config(_CFG)
        rows = [k for k, m in enumerate(log.medium) if m == Medium.AERIAL.value]
        assert len(rows) > 10_000
        for k in rows[::_LOG_STRIDE]:
            _check_aerial_tick(log.state[k], log.inputs[k], params, dt)

    @_DTS
    def test_builtin_pid_surface_ticks(self, builtin_runs, dt):
        log = builtin_runs["pid"].log
        rows = [k for k, m in enumerate(log.medium) if m != Medium.AERIAL.value]
        assert len(rows) > 10_000
        for k in rows[::_LOG_STRIDE]:
            px, py, _, vx, vy, _, qw, qx, qy, qz, _, _, turn = log.state[k].tolist()
            heading = quat_yaw(np.array([qw, qx, qy, qz]))
            speed = vx * math.cos(heading) + vy * math.sin(heading)
            _check_surface_tick(np.array([px, py, heading]), speed, turn, dt)

    @_DTS
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(tick=_AERIAL_TICK)
    def test_envelope_aerial_ticks(self, dt, tick):
        pv, tilt, azimuth, yaw, rates, u = tick
        q = euler_to_quat(EulerAngles(tilt * math.cos(azimuth), tilt * math.sin(azimuth), yaw))
        x = np.array([*pv, *q.tolist(), *rates])
        _check_aerial_tick(x, np.array(u), VehicleParams.from_config(_CFG), dt)

    @_DTS
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(pose=st.tuples(_finite(-300.0, 300.0), _finite(-300.0, 300.0),
                          _finite(-math.pi, math.pi)),
           u=_SURFACE_TICK)
    def test_envelope_surface_ticks(self, dt, pose, u):
        speed, turn = _planar_rates(u, VehicleParams.from_config(_CFG))
        _check_surface_tick(np.array(pose), speed, turn, dt)


class TestVehicleState:
    def test_vector_round_trip(self):
        s = hover_state((1.0, -2.0, 3.0), yaw=0.7)
        back = VehicleState.from_vector(s.as_vector())
        assert np.allclose(back.position, s.position, atol=0)
        assert np.allclose(back.quaternion, s.quaternion, atol=0)

    def test_rejects_non_unit_quaternion(self):
        with pytest.raises(ValueError):
            VehicleState(np.zeros(3), np.zeros(3), np.array([1.0, 1.0, 0, 0]), np.zeros(3))

    def test_vector_length(self):
        with pytest.raises(ValueError):
            VehicleState.from_vector(np.zeros(STATE_DIM + 1))

    def test_vector_fields_are_views(self):
        x = hover_state((1.0, -2.0, 3.0), yaw=0.7).as_vector()
        s = VehicleState.from_vector(x)
        for name, part in (("position", x[0:3]), ("velocity", x[3:6]),
                           ("quaternion", x[6:10]), ("body_rates", x[10:13])):
            assert np.shares_memory(getattr(s, name), x)
            assert np.array_equal(getattr(s, name), part)

    @pytest.mark.parametrize("index, message", [
        (1, "position must be finite"), (4, "velocity must be finite"),
        (7, "quaternion must be finite"), (12, "body_rates must be finite"),
    ])
    def test_vector_names_the_non_finite_field(self, index, message):
        for bad in (math.nan, math.inf):
            x = hover_state((0.0, 0.0, 1.0)).as_vector()
            x[index] = bad
            with pytest.raises(ValueError, match=message):
                VehicleState.from_vector(x)

    def test_vector_checks_the_unit_norm(self):
        x = hover_state((0.0, 0.0, 1.0)).as_vector()
        x[6] = 1.0 + 1e-5
        with pytest.raises(ValueError, match=r"quaternion norm\^2 = 1\.0000200"):
            VehicleState.from_vector(x)
        # Finite entries whose sum overflows are still a valid state.
        x = hover_state((1.7e308, 1.7e308, 0.0)).as_vector()
        assert np.array_equal(VehicleState.from_vector(x).position, x[0:3])

    def test_params_from_config(self):
        p = VehicleParams.from_config(default_config())
        assert p.mass == 0.75
        assert np.allclose(p.inertia, [8e-3, 8e-3, 1.2e-2])

    def test_params_validation(self):
        with pytest.raises(ValueError):
            VehicleParams(mass=-1.0)


def _allocate_arrays(u: AerialInput, p: VehicleParams, strict: bool):
    """The allocation formulas in array form: speeds, servo and channels."""
    b0 = p.mass * u.c
    b1 = u.torque[0] / p.arm
    b2 = u.torque[1] / p.arm
    t = 0.25 * np.array([b0 + b1 - b2, b0 - b1 - b2, b0 + b1 + b2, b0 - b1 + b2])
    rear = t[2] + t[3]
    tz = float(u.torque[2])
    if abs(rear) * p.arm < 1e-9:
        # No rear-pair thrust: the yaw torque's angle is unbounded, and clipped.
        servo = math.copysign(math.inf, tz) if abs(tz) > 1e-12 else 0.0
    else:
        servo = tz / (p.arm * rear)
    speeds = np.copysign(np.sqrt(np.abs(t) / p.k_f), t)
    clipped = [f"rotor_{i + 1}" for i in np.flatnonzero(np.abs(speeds) > p.rotor_max)]
    speeds = np.clip(speeds, -p.rotor_max, p.rotor_max)
    if abs(servo) > p.servo_max:
        clipped.append("servo")
        servo = math.copysign(p.servo_max, servo)
    if clipped and strict:
        raise SaturationError("limits", channels=clipped)
    return speeds, servo


def _forward_mix_arrays(cmd: ActuatorCommand, p: VehicleParams):
    """The forward mixing formulas in array form: c and the three torques."""
    w = cmd.rotor_speeds
    t = p.k_f * w * np.abs(w)
    c = float(t.sum()) / p.mass
    tau_x = p.arm * float(t[0] - t[1] + t[2] - t[3])
    tau_y = p.arm * float(-t[0] - t[1] + t[2] + t[3])
    tau_z = p.arm * cmd.servo * float(t[2] + t[3])
    return np.array([c, tau_x, tau_y, tau_z])


def _check_forward_mix(cmd: ActuatorCommand, p: VehicleParams) -> None:
    expected = _forward_mix_arrays(cmd, p)
    if expected[0] < 0.0:
        # A net downward thrust (a rounding below zero too) is no AerialInput.
        with pytest.raises(ValueError, match="c must be >= 0"):
            forward_mix(cmd, p)
        return
    mixed = forward_mix(cmd, p)
    assert _same_bits([mixed.c, *mixed.torque], expected)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _signed(lo, hi):
    return st.one_of(st.sampled_from([0.0, -0.0]), _finite(lo, hi))


_MIX_PARAMS = st.builds(VehicleParams, mass=_finite(0.2, 3.0), arm=_finite(0.05, 0.5),
                        k_f=_finite(1e-6, 1e-4), rotor_max=_finite(300.0, 2000.0))


class TestFloatMixing:
    """The float ``allocate`` and ``forward_mix`` against their array forms."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(c=_signed(0.0, 100.0), tau=st.tuples(_signed(-5.0, 5.0), _signed(-5.0, 5.0),
                                                _signed(-2.0, 2.0)),
           p=_MIX_PARAMS, strict=st.booleans())
    def test_allocate_and_forward_mix_match_bit_for_bit(self, c, tau, p, strict):
        u = AerialInput(c=c, torque=np.array(tau))
        try:
            speeds, servo = _allocate_arrays(u, p, strict)
        except SaturationError as exc:
            with pytest.raises(SaturationError) as got:
                allocate(u, p, strict)
            assert got.value.channels == exc.channels
            return
        cmd = allocate(u, p, strict)
        assert _same_bits(cmd.rotor_speeds, speeds)
        assert _same_bits(cmd.servo, servo)
        _check_forward_mix(cmd, p)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(speeds=st.lists(_signed(-1500.0, 1500.0), min_size=4, max_size=4),
           servo=_signed(-1.0, 1.0), p=_MIX_PARAMS)
    def test_forward_mix_matches_on_any_command(self, speeds, servo, p):
        _check_forward_mix(ActuatorCommand(rotor_speeds=np.array(speeds), servo=servo), p)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(c=_signed(0.0, 100.0), tau=st.tuples(_signed(-5.0, 5.0), _signed(-5.0, 5.0),
                                                _signed(-2.0, 2.0)), p=_MIX_PARAMS)
    @example(c=0.0, tau=(0.0, 0.0, 0.1), p=VehicleParams())  # no rear-pair thrust
    @example(c=0.0, tau=(0.1, 0.07, 0.0), p=VehicleParams())  # c rounds below zero
    @example(c=100.0, tau=(1.0, -1.0, 0.0), p=VehicleParams())  # rotors clipped
    @example(c=1.0, tau=(0.0, 0.0, 2.0), p=VehicleParams())  # servo clipped
    @example(c=-0.0, tau=(-0.0, 0.0, -0.0), p=VehicleParams())
    def test_runner_mixing_is_the_public_round_trip(self, c, tau, p):
        # The runner mixes in floats; it must apply and log exactly what
        # allocate(strict=False) and forward_mix give, signs included,
        # except that a mixed c rounded below zero applies as +0.0 with the
        # mix's torques where forward_mix raises.  Non-strict allocation
        # clips every channel, the servo with no rear-pair thrust included,
        # so it never raises.
        runner = _Runner(default_config(), Mission(segments=(Segment(
            Medium.AERIAL, Action.TAKEOFF, np.array([100.0, 0.0, 5.0])),),
            start=np.array([100.0, 0.0, 0.0])), "pid")
        assert runner.mode.medium is Medium.AERIAL
        runner.params = p
        runner.aerial_u = u = AerialInput(c=c, torque=np.array(tau))
        cmd = allocate(u, p, strict=False)
        try:
            wrench = forward_mix(cmd, p)
            expected = [wrench.c, *wrench.torque]
        except ValueError as exc:
            assert str(exc) == "collective thrust c must be >= 0"
            expected = [0.0, *_forward_mix_arrays(cmd, p)[1:]]
        runner.actuate()
        assert _same_bits(runner.applied, expected)
        assert _same_bits(runner.rotors, cmd.rotor_speeds)
        assert _same_bits(runner.servo, cmd.servo)

    def test_all_negative_zero_rotors_give_positive_zero_thrust(self, params):
        cmd = ActuatorCommand(rotor_speeds=np.array([-0.0] * 4), servo=0.0)
        assert _same_bits(forward_mix(cmd, params).c, 0.0)


class TestAllocation:
    def test_hover_split_evenly(self, params):
        cmd = allocate(AerialInput(c=G, torque=np.zeros(3)), params)
        expected = math.sqrt(params.mass * G / 4.0 / params.k_f)
        assert np.allclose(cmd.rotor_speeds, expected, atol=1e-9)
        assert cmd.servo == 0.0

    def test_small_roll_torque_splits_pairs(self, params):
        # Frozen from the mixing oracle: FL/RL 429.025058, FR/RR 428.733600.
        cmd = allocate(AerialInput(c=G, torque=np.array([1e-3, 0.0, 0.0])), params)
        _, speeds_oracle, _ = mixing_oracle(G, np.array([1e-3, 0.0, 0.0]), params)
        assert np.allclose(cmd.rotor_speeds, speeds_oracle, atol=1e-9)
        assert cmd.rotor_speeds[0] == pytest.approx(429.025058, abs=1e-5)
        assert cmd.rotor_speeds[1] == pytest.approx(428.733600, abs=1e-5)
        # Left pair equal, right pair equal, split symmetric about hover.
        assert cmd.rotor_speeds[0] == pytest.approx(cmd.rotor_speeds[2])
        assert cmd.rotor_speeds[1] == pytest.approx(cmd.rotor_speeds[3])
        hover = math.sqrt(params.mass * G / 4.0 / params.k_f)
        t_fast = params.k_f * cmd.rotor_speeds[0] ** 2
        t_slow = params.k_f * cmd.rotor_speeds[1] ** 2
        t_hover = params.k_f * hover**2
        assert t_fast - t_hover == pytest.approx(t_hover - t_slow, rel=1e-9)

    def test_matches_oracle_on_grid(self, params):
        rng = np.random.default_rng(21)
        for _ in range(50):
            c = rng.uniform(3.0, 20.0)
            tau = np.array(
                [rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)]
            )
            cmd = allocate(AerialInput(c=c, torque=tau), params)
            _, speeds_oracle, servo_oracle = mixing_oracle(c, tau, params)
            assert np.allclose(cmd.rotor_speeds, speeds_oracle, rtol=1e-9)
            assert cmd.servo == pytest.approx(servo_oracle, rel=1e-9)

    def test_round_trip_within_tolerance(self, params):
        rng = np.random.default_rng(22)
        for _ in range(100):
            c = rng.uniform(1.0, 22.0)
            tau_x = rng.uniform(-0.3, 0.3)
            tau_y = rng.uniform(-0.3, 0.3)
            # Keep yaw torque inside the servo's feasible range for this c.
            rear = 0.5 * params.mass * c + 0.5 * tau_y / params.arm
            tau_z_max = 0.8 * params.arm * max(rear, 0.0) * params.servo_max
            u = AerialInput(
                c=c, torque=np.array([tau_x, tau_y, rng.uniform(-1, 1) * tau_z_max])
            )
            back = forward_mix(allocate(u, params), params)
            scale = max(1.0, abs(u.c), float(np.abs(u.torque).max()))
            assert abs(back.c - u.c) / scale < 1e-6
            assert np.abs(back.torque - u.torque).max() / scale < 1e-6

    def test_saturation_lists_channels(self, params):
        with pytest.raises(SaturationError) as exc_info:
            allocate(AerialInput(c=100.0, torque=np.zeros(3)), params)
        assert all(ch.startswith("rotor_") for ch in exc_info.value.channels)
        assert len(exc_info.value.channels) == 4
        with pytest.raises(SaturationError) as exc_info:
            allocate(AerialInput(c=G, torque=np.array([0.0, 0.0, 5.0])), params)
        assert "servo" in exc_info.value.channels

    def test_non_strict_clips(self, params):
        cmd = allocate(AerialInput(c=100.0, torque=np.zeros(3)), params, strict=False)
        assert np.all(np.abs(cmd.rotor_speeds) <= params.rotor_max)
        cmd = allocate(
            AerialInput(c=G, torque=np.array([0.0, 0.0, 5.0])), params, strict=False
        )
        assert abs(cmd.servo) <= params.servo_max

    def test_yaw_without_rear_thrust_rejected(self, params):
        # Pitch torque cancels the rear pair exactly: servo has nothing to tilt.
        c = 4.0
        tau_y = -c * params.mass * params.arm  # rear thrust = 0
        with pytest.raises(SaturationError):
            allocate(AerialInput(c=c, torque=np.array([0.0, tau_y, 0.1])), params)

    @pytest.mark.parametrize("tau_z", [0.1, -0.1])
    def test_yaw_without_rear_thrust_clips_the_servo(self, params, tau_z):
        # The angle the torque asks for is unbounded: the servo channel
        # saturates like any other, in either mode.
        u = AerialInput(c=0.0, torque=np.array([0.0, 0.0, tau_z]))
        with pytest.raises(SaturationError, match="^actuator limits exceeded on: servo$"):
            allocate(u, params)
        cmd = allocate(u, params, strict=False)
        assert cmd.servo == math.copysign(params.servo_max, tau_z)
        assert np.array_equal(cmd.rotor_speeds, np.zeros(4))

    def test_actuator_command_validation(self):
        with pytest.raises(ValueError):
            ActuatorCommand(rotor_speeds=np.zeros(3), servo=0.0)

    def test_aquatic_drag_balance(self, params):
        w = aquatic_rotor_speeds(1.0, params)
        assert w[0] == w[1] == 0.0
        # Thrust of the two driven rotors balances the quadratic drag.
        thrust = 2.0 * params.k_f * w[2] ** 2
        assert thrust == pytest.approx(AQUATIC_DRAG_GAIN * 1.0**2)
        assert aquatic_rotor_speeds(0.0, params)[2] == 0.0


def _state_with(name, value) -> VehicleState:
    fields = dict(position=np.zeros(3), velocity=np.zeros(3),
                  quaternion=np.array([1.0, 0.0, 0.0, 0.0]), body_rates=np.zeros(3))
    return VehicleState(**{**fields, name: value})


class TestInputChecks:
    """Every vector field and argument is checked for shape and finiteness,
    and every scalar input for finiteness; each error names what failed."""

    @pytest.mark.parametrize("make, n, name", [
        (lambda v: VehicleParams(inertia=v), 3, "inertia"),
        (lambda v: _state_with("position", v), 3, "position"),
        (lambda v: _state_with("velocity", v), 3, "velocity"),
        (lambda v: _state_with("quaternion", v), 4, "quaternion"),
        (lambda v: _state_with("body_rates", v), 3, "body_rates"),
        (lambda v: AerialInput(c=9.81, torque=v), 3, "torque"),
        (lambda v: ActuatorCommand(rotor_speeds=v, servo=0.0), 4, "rotor_speeds"),
        (lambda v: aerial_derivative(v, np.zeros(4), VehicleParams()), STATE_DIM, "state"),
        (lambda v: aerial_derivative(hover_state((0, 0, 1)).as_vector(), v, VehicleParams()),
         4, "input"),
        (lambda v: terrestrial_derivative(v, TerrestrialInput(1.0, 1.0), VehicleParams()),
         3, "pose"),
        (lambda v: aquatic_derivative(v, AquaticInput(1.0, 0.1), VehicleParams()), 3, "pose"),
    ], ids=["inertia", "position", "velocity", "quaternion", "body_rates", "torque",
            "rotor_speeds", "state", "input", "terrestrial_pose", "aquatic_pose"])
    def test_vectors(self, make, n, name):
        check_vector_argument(make, n, name)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_scalars(self, bad):
        cases = [
            (lambda: AerialInput(c=bad, torque=np.zeros(3)), "collective thrust c must be finite"),
            (lambda: ActuatorCommand(rotor_speeds=np.zeros(4), servo=bad), "servo must be finite"),
            (lambda: TerrestrialInput(v_left=bad, v_right=0.0), "wheel speeds must be finite"),
            (lambda: TerrestrialInput(v_left=0.0, v_right=bad), "wheel speeds must be finite"),
            (lambda: AquaticInput(speed=bad, steering=0.0), "aquatic input must be finite"),
            (lambda: AquaticInput(speed=1.0, steering=bad), "aquatic input must be finite"),
        ]
        for make, message in cases:
            with pytest.raises(ValueError, match=f"^{message}$"):
                make()

    @pytest.mark.parametrize("inertia", [[8e-3, 0.0, 1.2e-2], [8e-3, 8e-3, -1.2e-2]])
    def test_inertia_entries_must_be_positive(self, inertia):
        with pytest.raises(ValueError, match="^inertia entries must be positive$"):
            VehicleParams(inertia=inertia)

    def test_checked_fields_keep_a_float_array(self):
        x = hover_state((1.0, 2.0, 3.0)).as_vector()
        state = VehicleState(x[0:3], x[3:6], x[6:10], x[10:13])
        assert np.shares_memory(state.position, x)
        assert AerialInput(c=1, torque=[0, 0, 1]).torque.dtype == np.float64
