"""Nonlinear model-predictive control for the aerial mode.

The optimizer works on the deviation input ``u = (a, tau_x, tau_y, tau_z)``
with ``a = c - g_z``, so the thrust bound "-5 <= acceleration <= 15 m/s^2"
is a plain box on the first channel and the effort term penalizes deviation
from the gravity trim rather than absolute thrust.

Pipeline per solve:

1. each objective evaluation flies the horizon once, one RK4 step per
   control period, in plain floats (``_horizon_pass``); the same loop gives
   the states, the outputs (position and yaw after each step) with their
   wrapped errors, and the roll/pitch excess, and keeps the RK4 stage
   attitudes and quaternion norms that step 3 needs; a line-search trial
   stops flying once its running cost, a sum of non-negative terms, is
   above its Armijo bound (it can no longer be accepted);
2. objective = sum of Q-weighted squared output errors (yaw wrapped) plus
   R-weighted squared inputs, plus a quadratic penalty on roll/pitch beyond
   the tilt limit;
3. analytic Jacobians of the RK4 step, with the quaternion renormalization
   projector, come from the one ``_Flight`` record of the current iterate
   (the warm start, the hover anchor or a line-search hit), so no iterate
   is flown twice; one forward recursion chains them into the sensitivity
   stack ``S_j = dx_{j+1}/du``, and the exact gradient is one product over
   it, ``2 R u + sum_j S_j^T g_j``;
4. search direction is a Gauss-Newton step whose residual Jacobian is
   gathered from the same stack (the normal system is dense and cheap);
   the step sees the tilt limit: the inactive tilt terms it would activate
   join its model, and it is solved again until that set repeats (a
   primal-dual active-set step), so a full step seldom tilts past the limit
   for the line search to halve back; when it predicts a decrease
   ``-grad . d`` of at most ``tol * max(|cost|, 1)`` the stage ends with no
   search; otherwise a projected Armijo backtracking line search accepts
   it, falling back to the plain projected-gradient direction whenever the
   Gauss-Newton step fails to produce sufficient decrease;
5. the tilt terms carry per-step multipliers (an augmented form of the same
   quadratic penalty), so the returned trajectory honors the tilt bound to
   tight tolerance without an enormous fixed weight.  A descent stage ends
   when it is solved, or when it has spent its allotment of iterations with
   the tilt out of bounds.  Where it ends out of bounds, one update follows,
   never both: the multipliers, if the worst excess at least halved since
   the last stage end (always at the first), else a tenfold weight (the
   textbook augmented-Lagrangian loop, Nocedal & Wright, *Numerical
   Optimization*, 2nd ed., Alg. 17.4).  The first stage uses zero
   multipliers, which is exactly the plain penalty.

Only accepted (strictly decreasing) steps update the iterate within each
stage, and each stage re-anchors against the projected warm start, so on
tilt-inactive problems the returned cost never exceeds the objective at the
projected warm start.  The reported cost is always measured with the plain
penalty at the configured weight.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import GRAVITY, Config, NmpcConfig
from .dynamics import (
    QUAT_SLICE,
    STATE_DIM,
    AerialInput,
    VehicleParams,
    _renormalized,
    _rk4_floats,
    aerial_step,
)
from .errors import DivergenceError, SolverFailureError
from .geometry import quat_roll_pitch, wrap_angle

__all__ = [
    "NmpcSolution",
    "NmpcController",
    "rollout",
    "evaluate_cost",
    "tilt_penalty",
    "cost_gradient",
    "solve",
    "hover_inputs",
]

log = logging.getLogger(__name__)

_ARMIJO_SIGMA = 1e-4
_BACKTRACK = 0.5
_ALPHA_FLOOR = 1e-10
# The solver drives the predicted tilt within half of this slack; callers
# can rely on adherence within the full slack.
_TILT_SLACK = 1e-3
_WEIGHT_STEP = 10.0
_WEIGHT_CAP = 1e10
# Re-solves per horizon step the Gauss-Newton step may spend settling which
# inactive tilt terms it activates, before it falls back to the plain step.
_ACTIVE_SET_PASSES = 2


@dataclass(frozen=True)
class NmpcSolution:
    """Result of one horizon optimization.

    Attributes
    ----------
    u : ndarray, shape (N, 4)
        Optimal deviation inputs ``(a, tau_x, tau_y, tau_z)`` per step.
    states : ndarray, shape (N+1, 13)
        Predicted state trajectory including the initial state.
    outputs : ndarray, shape (N, 4)
        Predicted outputs (x, y, z, yaw) after each step.
    cost : float
        Objective at the returned inputs with the plain penalty at the
        configured weight (tracking + effort + tilt penalty).
    iterations : int
        Outer iterations performed (one gradient evaluation each), summed
        over all multiplier stages.
    converged : bool
        True if descent reached the cost-decrease tolerance or a stationary
        point, with the predicted tilt inside the limit plus slack.
    evaluations, line_searches : int
        Horizon passes begun (cut short or not) and line searches run.
    """

    u: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    cost: float
    iterations: int
    converged: bool
    evaluations: int
    line_searches: int

    @property
    def first_input(self) -> AerialInput:
        a, tx, ty, tz = self.u[0]
        return AerialInput(c=max(0.0, GRAVITY + a), torque=np.array([tx, ty, tz]))


def hover_inputs(horizon: int) -> np.ndarray:
    """Default warm start: zero deviation (hover thrust, zero torque)."""
    return np.zeros((horizon, 4))


def _check_refs(refs: np.ndarray, horizon: int) -> np.ndarray:
    refs = np.asarray(refs, dtype=float)
    if refs.ndim != 2 or refs.shape[1] != 4:
        raise ValueError("references must have shape (n, 4): (x, y, z, yaw)")
    if refs.shape[0] == 0:
        raise ValueError("references need at least one row")
    if not np.isfinite(refs).all():
        raise ValueError("references must be finite")
    if refs.shape[0] < horizon:
        pad = np.repeat(refs[-1:], horizon - refs.shape[0], axis=0)
        refs = np.vstack([refs, pad])
    return refs[:horizon]


# ---------------------------------------------------------------------------
# Prediction and objective
# ---------------------------------------------------------------------------


class _Flight(NamedTuple):
    """One evaluated input sequence, kept whole so no iterate is flown twice.

    ``u`` is the (N, 4) input sequence, ``tracking`` its tracking-plus-effort
    cost and ``g_roll``, ``g_pitch`` its signed per-step excess
    ``|angle| - tilt_max``.  ``states`` is the (N+1, 13) trajectory and
    ``yaws`` the yaw after each step.  ``stages`` holds the four RK4 stage
    attitudes of every step, ``thrusts`` each step's collective thrust and
    ``norms`` each step's quaternion norm before renormalization: what
    :func:`_step_jacobians` needs besides the states.
    """

    u: np.ndarray
    tracking: float
    g_roll: np.ndarray
    g_pitch: np.ndarray
    states: np.ndarray
    yaws: list
    stages: list
    thrusts: list
    norms: list

    @property
    def outputs(self) -> np.ndarray:
        """(N, 4) outputs: position and yaw after each step."""
        outputs = np.empty((len(self.yaws), 4))
        outputs[:, :3] = self.states[1:, :3]
        outputs[:, 3] = self.yaws
        return outputs

    @property
    def worst(self) -> float:
        """The largest roll or pitch excess over the horizon."""
        return float(max(self.g_roll.max(), self.g_pitch.max()))


def _horizon_pass(x0, u: np.ndarray, refs: np.ndarray, cfg: NmpcConfig,
                  params: VehicleParams, cut=None):
    """Fly the horizon once in plain floats.

    Steps the two halves of ``aerial_step``, :func:`_rk4_floats` and the
    quaternion renormalization, under the deviation inputs ``u``, so the
    states are bit for bit those of ``aerial_step``.  The same loop forms
    the output errors against ``refs`` (yaw wrapped), which give the
    tracking cost, and the signed roll and pitch excess of every step.
    The arrays are built at the end.

    With ``cut = (limit, lam_r, lam_p, weight)`` the pass also sums the
    stage value as it flies and returns None once the sum is above ``limit``
    by more than a 1e-9 relative margin for rounding; the terms are all
    non-negative, so the full :func:`_stage_value` would be above it too.

    Returns
    -------
    _Flight or None
        None when the pass was cut.

    Raises
    ------
    DivergenceError
        Where ``aerial_step`` would: a collapsed or non-finite quaternion
        norm, or a non-finite state.
    """
    jx, jy, jz = params.inertia.tolist()
    h = cfg.period
    tilt = cfg.tilt_max
    if cut is not None:
        limit, lam_r, lam_p, weight = cut
        bound = limit + 1e-9 * max(abs(limit), 1.0)
        running = float(np.sum(u * u * cfg.r_diag))
        q0, q1, q2, q3 = cfg.q_diag.tolist()
        lams = zip(lam_r.tolist(), lam_p.tolist())
    x = np.asarray(x0, dtype=float).tolist()
    rows = [x]
    stages, thrusts, norms, yaws = [], [], [], []
    errors, g_roll, g_pitch = [], [], []
    for (a, t1, t2, t3), (r0, r1, r2, r3) in zip(u.tolist(), refs.tolist()):
        c = GRAVITY + a
        vals, later = _rk4_floats(x, c, t1, t2, t3, jx, jy, jz, h)
        stages += (x[6:], *later)
        x, norm = _renormalized(vals)
        rows.append(x)
        thrusts.append(c)
        norms.append(norm)
        px, py, pz, _, _, _, qw, qx, qy, qz, _, _, _ = x
        # The angles of quat_yaw and quat_roll_pitch.
        yaw = math.atan2(2.0 * (qw * qz + qx * qy), 1.0 - 2.0 * (qy * qy + qz * qz))
        roll = math.atan2(2.0 * (qw * qx + qy * qz), 1.0 - 2.0 * (qx * qx + qy * qy))
        pitch = math.asin(max(-1.0, min(1.0, 2.0 * (qw * qy - qz * qx))))
        yaws.append(yaw)
        errors.append((px - r0, py - r1, pz - r2, wrap_angle(yaw - r3)))
        g_roll.append(abs(roll) - tilt)
        g_pitch.append(abs(pitch) - tilt)
        if cut is not None:
            e0, e1, e2, e3 = errors[-1]
            running += e0 * e0 * q0 + e1 * e1 * q1 + e2 * e2 * q2 + e3 * e3 * q3
            for lam, g in zip(next(lams), (g_roll[-1], g_pitch[-1])):
                s = lam / (2.0 * weight) + g
                if s > 0.0:
                    running += weight * s * s
            if running > bound:
                return None
    return _Flight(u, _weighted_cost(np.array(errors), u, cfg), np.array(g_roll),
                   np.array(g_pitch), np.array(rows), yaws, stages, thrusts, norms)


def rollout(
    x0: np.ndarray, u: np.ndarray, cfg: NmpcConfig, params: VehicleParams
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the horizon under the deviation inputs ``u``.

    Returns
    -------
    (states, outputs)
        ``states`` has shape (N+1, 13); ``outputs`` has shape (N, 4) and
        holds (x, y, z, yaw) after each step.
    """
    u = np.asarray(u, dtype=float)
    flight = _horizon_pass(x0, u, np.zeros((u.shape[0], 4)), cfg, params)
    return flight.states, flight.outputs


def _weighted_cost(err: np.ndarray, u: np.ndarray, cfg: NmpcConfig) -> float:
    """Q-weighted squared output errors plus R-weighted squared inputs."""
    return float(np.sum(err * err * cfg.q_diag) + np.sum(u * u * cfg.r_diag))


def evaluate_cost(
    outputs: np.ndarray, refs: np.ndarray, u: np.ndarray, cfg: NmpcConfig
) -> float:
    """Tracking-plus-effort cost.

    ``sum_j ||y_j - ref_j||^2_Q + ||u_j||^2_R`` with the yaw component of
    each output error wrapped to (-pi, pi].
    """
    outputs = np.asarray(outputs, dtype=float)
    refs = np.asarray(refs, dtype=float)
    u = np.asarray(u, dtype=float)
    if not (outputs.shape == refs.shape and outputs.shape[0] == u.shape[0]):
        raise ValueError("outputs, references and inputs must cover the same horizon")
    err = outputs - refs
    err[:, 3] = [wrap_angle(v) for v in err[:, 3].tolist()]
    return _weighted_cost(err, u, cfg)


def tilt_penalty(states: np.ndarray, cfg: NmpcConfig) -> float:
    """Quadratic penalty on roll/pitch magnitude beyond the tilt limit."""
    total = 0.0
    for x in states[1:]:
        roll, pitch = quat_roll_pitch(x[QUAT_SLICE])
        over_r = abs(roll) - cfg.tilt_max
        over_p = abs(pitch) - cfg.tilt_max
        if over_r > 0.0:
            total += over_r * over_r
        if over_p > 0.0:
            total += over_p * over_p
    return cfg.tilt_weight * total


def _cost_parts(x0, u, refs, cfg: NmpcConfig, params: VehicleParams, cut=None):
    """The :class:`_Flight` of one :func:`_horizon_pass`, or None.

    The record is kept so the solver builds its Jacobians from it and never
    flies an accepted iterate again.  Divergent or overflowing trajectories,
    and passes ended by ``cut``, give None so the caller rejects them.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            flight = _horizon_pass(x0, u, refs, cfg, params, cut)
    except DivergenceError:
        return None
    return flight if flight is not None and math.isfinite(flight.tracking) else None


def _stage_value(flight: _Flight, lam_r, lam_p, weight) -> float:
    """Augmented objective for one multiplier stage (constants dropped)."""
    s_r = np.clip(lam_r / (2.0 * weight) + flight.g_roll, 0.0, None)
    s_p = np.clip(lam_p / (2.0 * weight) + flight.g_pitch, 0.0, None)
    return flight.tracking + weight * float(s_r @ s_r + s_p @ s_p)


# ---------------------------------------------------------------------------
# Analytic sensitivities
# ---------------------------------------------------------------------------


# Varying entries of the (13, 17) derivative Jacobian [df/dx | df/du] as
# (row, column, term), with the term a column of the table _stage_jacobians
# builds: 0-3 2cq, 4-7 -2cq (q = qw, qx, qy, qz), 8-9 -4c(qx, qy), 10-12
# 0.5w, 13-15 -0.5w, 16-19 0.5q, 20-23 -0.5q, 24-29 gyroscopic, 30-32
# R(q) e_z, 33-35 J^-1.
_JAC_ENTRIES = (
    # d(c * R(q) e_z)/dq
    (3, 6, 2), (3, 7, 3), (3, 8, 0), (3, 9, 1), (4, 6, 5), (4, 7, 4), (4, 8, 3),
    (4, 9, 2), (5, 7, 8), (5, 8, 9),
    # d(0.5 Omega(w) q)/dq
    (6, 7, 13), (6, 8, 14), (6, 9, 15), (7, 6, 10), (7, 8, 12), (7, 9, 14),
    (8, 6, 11), (8, 7, 15), (8, 9, 10), (9, 6, 12), (9, 7, 11), (9, 8, 13),
    # d(0.5 Omega(w) q)/dw
    (6, 10, 21), (6, 11, 22), (6, 12, 23), (7, 10, 16), (7, 11, 23), (7, 12, 18),
    (8, 10, 19), (8, 11, 16), (8, 12, 21), (9, 10, 22), (9, 11, 17), (9, 12, 16),
    # d(J^-1 (tau - w x J w))/dw
    (10, 11, 24), (10, 12, 25), (11, 10, 26), (11, 12, 27), (12, 10, 28), (12, 11, 29),
    # input block: d(c * R(q) e_z)/dc and J^-1
    (3, 13, 30), (4, 13, 31), (5, 13, 32), (10, 14, 33), (11, 15, 34), (12, 16, 35),
)
_JAC_POS = np.array([i * (STATE_DIM + 4) + j for i, j, _ in _JAC_ENTRIES])
_JAC_TERM = np.array([term for _, _, term in _JAC_ENTRIES])
# Body-rate component each gyroscopic term multiplies (wx, wy, wz = 0, 1, 2).
_GYRO_RATE = np.array([2, 1, 2, 0, 1, 0])
_EYE_STATE = np.eye(STATE_DIM)
_EYE_QUAT = np.eye(4)


def _stage_jacobians(stages, thrusts, jx: float, jy: float, jz: float) -> np.ndarray:
    """Jacobians of the aerial derivative at the RK4 stage states of a horizon.

    ``stages`` holds the four stage attitudes ``(qw, qx, qy, qz, wx, wy, wz)``
    of each step and ``thrusts`` each step's collective thrust.  Returns an
    (n, 4, 13, 17) stack of blocks [df/dx | df/du]; each term is the scalar
    formula's float operation applied to all stages at once (a negated
    term is the exact negation of the rounded product).
    """
    n = len(thrusts)
    s = np.array(stages)
    q, w = s[:, :4], s[:, 4:]
    qw, qx, qy, qz = s[:, 0], s[:, 1], s[:, 2], s[:, 3]
    c = np.repeat(thrusts, 4)
    terms = np.empty((4 * n, 36))
    terms[:, 0:4] = (2.0 * q) * c[:, None]
    terms[:, 4:8] = -terms[:, 0:4]
    terms[:, 8:10] = (-4.0 * s[:, 1:3]) * c[:, None]
    terms[:, 10:13] = 0.5 * w
    terms[:, 13:16] = -terms[:, 10:13]
    terms[:, 16:20] = 0.5 * q
    terms[:, 20:24] = -terms[:, 16:20]
    gyro = np.array([-(jz - jy), -(jz - jy), -(jx - jz), -(jx - jz), -(jy - jx), -(jy - jx)])
    terms[:, 24:30] = (gyro * w[:, _GYRO_RATE]) / np.array([jx, jx, jy, jy, jz, jz])
    terms[:, 30] = 2.0 * (qx * qz + qw * qy)
    terms[:, 31] = 2.0 * (qy * qz - qw * qx)
    terms[:, 32] = 1.0 - 2.0 * (qx * qx + qy * qy)
    terms[:, 33:36] = (1.0 / jx, 1.0 / jy, 1.0 / jz)
    m = np.zeros((n, 4, STATE_DIM, STATE_DIM + 4))
    m[:, :, 0, 3] = m[:, :, 1, 4] = m[:, :, 2, 5] = 1.0
    m.reshape(4 * n, -1)[:, _JAC_POS] = terms[:, _JAC_TERM]
    return m


def _step_jacobians(flight: _Flight, h: float, params: VehicleParams):
    """Per-step state and input Jacobians ``(A, B)`` of a flown horizon.

    They chain through all four RK4 stages and the quaternion
    renormalization, so they match the integrator exactly.  Each depends
    only on its own step's stages, so all are formed at once.
    """
    jx, jy, jz = params.inertia.tolist()
    # State and input sensitivities chained through the stages together:
    # each m holds [d(k)/dx | d(k)/du] as one block per step.
    jac = _stage_jacobians(flight.stages, flight.thrusts, jx, jy, jz)
    m1, m2, m3, m4 = jac[:, 0], jac[:, 1], jac[:, 2], jac[:, 3]
    d2 = m2 + (0.5 * h) * (m2[:, :, :STATE_DIM] @ m1)
    d3 = m3 + (0.5 * h) * (m3[:, :, :STATE_DIM] @ d2)
    d4 = m4 + h * (m4[:, :, :STATE_DIM] @ d3)
    total = (h / 6.0) * (m1 + 2.0 * d2 + 2.0 * d3 + d4)
    a_steps = _EYE_STATE + total[:, :, :STATE_DIM]
    b_steps = total[:, :, STATE_DIM:]
    q_hats = flight.states[1:, QUAT_SLICE]
    norms = np.array(flight.norms)
    proj = (_EYE_QUAT - q_hats[:, :, None] * q_hats[:, None, :]) / norms[:, None, None]
    a_steps[:, QUAT_SLICE, :] = proj @ a_steps[:, QUAT_SLICE, :]
    b_steps[:, QUAT_SLICE, :] = proj @ b_steps[:, QUAT_SLICE, :]
    return a_steps, b_steps


def _forward_pass(x0: np.ndarray, u: np.ndarray, cfg: NmpcConfig, params: VehicleParams):
    """Rollout that also returns the per-step state and input Jacobians:
    ``(states, A, B)``."""
    flight = _horizon_pass(x0, u, np.zeros((u.shape[0], 4)), cfg, params)
    return (flight.states, *_step_jacobians(flight, cfg.period, params))


def _attitudes(states: np.ndarray):
    """The yaw, roll and pitch of every state after the first, as an (N, 3)
    array, and their gradients wrt the quaternion, as an (N, 3, 4) array:
    formed once per iterate for both the gradient and the Gauss-Newton
    direction."""
    values, grads = [], []
    for qw, qx, qy, qz in states[1:, QUAT_SLICE].tolist():
        a = 2.0 * (qw * qz + qx * qy)
        b = 1.0 - 2.0 * (qy * qy + qz * qz)
        den = a * a + b * b
        values.append(math.atan2(a, b))
        grads += (b * (2.0 * qz) / den, b * (2.0 * qy) / den,
                  (b * (2.0 * qx) - a * (-4.0 * qy)) / den,
                  (b * (2.0 * qw) - a * (-4.0 * qz)) / den)
        a = 2.0 * (qw * qx + qy * qz)
        b = 1.0 - 2.0 * (qx * qx + qy * qy)
        den = a * a + b * b
        values.append(math.atan2(a, b))
        grads += (b * (2.0 * qx) / den, (b * (2.0 * qw) - a * (-4.0 * qx)) / den,
                  (b * (2.0 * qz) - a * (-4.0 * qy)) / den, b * (2.0 * qy) / den)
        s = max(-1.0, min(1.0, 2.0 * (qw * qy - qz * qx)))
        root = math.sqrt(max(1.0 - s * s, 1e-12))
        values.append(math.asin(s))
        grads += ((2.0 * qy) / root, (-2.0 * qz) / root,
                  (2.0 * qw) / root, (-2.0 * qx) / root)
    return np.array(values).reshape(-1, 3), np.array(grads).reshape(-1, 3, 4)


def _sensitivities(a_steps, b_steps) -> np.ndarray:
    """The (N, 13, 4N) forward-sensitivity stack ``S_j = dx_{j+1}/du``:
    ``S_j = A_j S_{j-1}`` plus ``B_j`` in the columns of input j; the
    columns of later inputs stay zero and are not multiplied."""
    n = len(b_steps)
    stack = np.zeros((n, STATE_DIM, 4 * n))
    for j in range(n):
        if j:
            np.matmul(a_steps[j], stack[j - 1, :, : 4 * j], out=stack[j, :, : 4 * j])
        stack[j, :, 4 * j : 4 * j + 4] = b_steps[j]
    return stack


def _tilt_slack(values, lam_r, lam_p, weight, cfg: NmpcConfig) -> np.ndarray:
    """(N, 2) augmented roll and pitch slack ``lam / (2 w) + |angle| -
    tilt_max``; each tilt term acts where its slack is positive."""
    return np.column_stack((lam_r, lam_p)) / (2.0 * weight) + np.abs(values[:, 1:]) - cfg.tilt_max


def _adjoint_gradient(
    states, a_steps, b_steps, u, refs, cfg: NmpcConfig, lam_r, lam_p, weight,
    angles=None, stack=None,
) -> np.ndarray:
    """Gradient of the stage objective wrt all inputs.

    ``2 R u + sum_j S_j^T g_j``, one product over the sensitivity stack,
    where ``g_j`` is the gradient of step j's tracking and (augmented) tilt
    terms wrt ``x_{j+1}``; all ``g_j`` are formed at once.  ``angles`` is
    :func:`_attitudes` of ``states`` and ``stack`` is :func:`_sensitivities`
    of the Jacobians, each formed here if not given.
    """
    n = u.shape[0]
    if angles is None:
        angles = _attitudes(states)
    if stack is None:
        stack = _sensitivities(a_steps, b_steps)
    values, grads = angles
    # Coefficients of the yaw, roll and pitch gradients in each g_j.
    coef = np.zeros((n, 3))
    coef[:, 0] = [2.0 * cfg.q_yaw * wrap_angle(e) for e in (values[:, 0] - refs[:, 3]).tolist()]
    if weight > 0.0:
        slack = _tilt_slack(values, lam_r, lam_p, weight, cfg)
        sign = np.copysign(1.0, values[:, 1:])
        coef[:, 1:] = np.where(slack > 0.0, 2.0 * weight * slack * sign, 0.0)
    g = np.zeros((n, STATE_DIM))
    g[:, :3] = 2.0 * cfg.q_diag[:3] * (states[1:, :3] - refs[:, :3])
    g[:, QUAT_SLICE] = (coef[:, None, :] @ grads)[:, 0]
    flat = g.reshape(n * STATE_DIM) @ stack.reshape(n * STATE_DIM, 4 * n)
    return 2.0 * cfg.r_diag * u + flat.reshape(n, 4)


def cost_gradient(
    x0: np.ndarray, u: np.ndarray, refs: np.ndarray, cfg: NmpcConfig, params: VehicleParams
) -> np.ndarray:
    """Exact gradient of ``evaluate_cost`` composed with ``rollout``.

    A forward pass storing per-step Jacobians, chained into the sensitivity
    stack, then one product over the horizon.  Covers the tracking
    and effort terms; the solver adds its tilt-penalty contribution
    internally.

    Returns
    -------
    ndarray, shape (N, 4)
    """
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    refs = _check_refs(refs, n)
    states, a_steps, b_steps = _forward_pass(x0, u, cfg, params)
    zeros = np.zeros(n)
    return _adjoint_gradient(
        states, a_steps, b_steps, u, refs, cfg, zeros, zeros, weight=0.0
    )


def _braking_inputs(
    x0: np.ndarray, cfg: NmpcConfig, params: VehicleParams
) -> np.ndarray:
    """Input sequence that levels the attitude as fast as R allows.

    A critically damped attitude regulator on roll and pitch (plus body-rate
    damping on yaw), simulated step by step; used as a feasibility anchor
    when descent runs out of budget with the tilt still out of bounds.
    """
    kp = 400.0
    kd = 40.0
    n = cfg.horizon
    jx, jy, jz = params.inertia
    u = np.zeros((n, 4))
    x = np.asarray(x0, dtype=float)
    for j in range(n):
        roll, pitch = quat_roll_pitch(x[QUAT_SLICE])
        wx, wy, wz = x[10:13]
        u[j, 1] = -jx * (kp * roll + kd * wx)
        u[j, 2] = -jy * (kp * pitch + kd * wy)
        u[j, 3] = -jz * kd * wz
        step_input = np.array([GRAVITY, u[j, 1], u[j, 2], u[j, 3]])
        x = aerial_step(x, step_input, params, cfg.period)
    return u


def _gauss_newton_direction(
    states, a_steps, b_steps, grad, cfg: NmpcConfig, lam_r, lam_p, weight, damping,
    angles=None, stack=None,
) -> np.ndarray:
    """Gauss-Newton step for the stacked decision vector.

    The residual Jacobian ``J`` gathers, from the sensitivity stack, the
    rows of every output (position, and yaw through the quaternion) and of
    the tilt angles whose penalty acts, exactly where the penalty gradient
    acts, so the quadratic model stays consistent with the objective.  With
    the row weights ``W`` the normal matrix is ``diag(2R) + damping I +
    2 J^T W J``; the effort curvature keeps it positive definite.

    The step then sees the tilt limit (a primal-dual active-set, or
    semismooth Newton, step on the one-sided penalty): each inactive tilt
    term whose linearized slack ``slack + sign(angle) J_tilt d`` is positive
    at the step joins the model as ``w (slack + sign J_tilt d)^2``, and the
    step is solved again until the set of added terms repeats.  If it has
    not settled after ``_ACTIVE_SET_PASSES`` re-solves per horizon step, the
    plain step is returned.  ``angles`` and ``stack`` are formed here if
    not given.
    """
    if angles is None:
        angles = _attitudes(states)
    if stack is None:
        stack = _sensitivities(a_steps, b_steps)
    n, m = grad.shape[0], grad.size
    values, grads = angles
    # Rows per step: x, y, z, yaw, roll, pitch.
    rows = np.concatenate((stack[:, :3], grads @ stack[:, QUAT_SLICE]), axis=1)
    w = np.zeros((n, 6))
    w[:, :4] = cfg.q_diag
    if weight > 0.0:
        slack = _tilt_slack(values, lam_r, lam_p, weight, cfg)
        w[:, 4:] = np.where(slack > 0.0, weight, 0.0)
    keep = w.reshape(6 * n) > 0.0
    j_mat = rows.reshape(6 * n, m)[keep]
    h_mat = (2.0 * w.reshape(6 * n)[keep] * j_mat.T) @ j_mat
    h_mat[np.diag_indices(m)] += 2.0 * np.tile(cfg.r_diag, n) + damping
    rhs = -grad.reshape(m)
    plain = np.linalg.solve(h_mat, rhs)
    if weight <= 0.0:
        return plain.reshape(n, 4)
    # Roll and pitch rows, one per tilt term, signed so that J_tilt d is
    # the change of the term's slack.
    slack = slack.reshape(2 * n)
    j_tilt = np.copysign(1.0, values[:, 1:]).reshape(2 * n, 1) * rows[:, 4:].reshape(2 * n, m)
    inactive = slack <= 0.0
    added = np.zeros(2 * n, dtype=bool)
    d, passes = plain, 0
    while not np.array_equal(predicted := inactive & (slack + j_tilt @ d > 0.0), added):
        passes += 1
        if passes > _ACTIVE_SET_PASSES * n:
            return plain.reshape(n, 4)
        added = predicted
        j_add = 2.0 * weight * j_tilt[added]
        d = np.linalg.solve(h_mat + j_add.T @ j_tilt[added], rhs - slack[added] @ j_add)
    return d.reshape(n, 4)


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


def _project(u: np.ndarray, cfg: NmpcConfig) -> np.ndarray:
    out = np.array(u, dtype=float, copy=True)
    out[:, 0] = np.clip(out[:, 0], cfg.accel_min, cfg.accel_max)
    return out


def _line_search(x0, u, d, grad, cost, refs, cfg, params, lam_r, lam_p, weight,
                 tally):
    """Projected Armijo backtracking along direction ``d``.

    Each trial's pass is cut at its Armijo bound.  ``tally`` counts the
    search and every pass it begins.  Returns (trial :class:`_Flight`,
    stage cost) on acceptance, None when no step along the direction
    yields sufficient decrease.
    """
    tally["line_searches"] += 1
    alpha = 1.0
    gap_floor = 1e-15 * max(1.0, abs(cost))
    while alpha >= _ALPHA_FLOOR:
        trial = _project(u + alpha * d, cfg)
        gap = float(np.dot(grad.ravel(), (u - trial).ravel()))
        if gap <= gap_floor:
            return None
        limit = cost - _ARMIJO_SIGMA * gap
        tally["evaluations"] += 1
        flight = _cost_parts(x0, trial, refs, cfg, params, (limit, lam_r, lam_p, weight))
        if flight is not None:
            trial_cost = _stage_value(flight, lam_r, lam_p, weight)
            if trial_cost <= limit:
                return flight, trial_cost
        alpha *= _BACKTRACK
    return None


def solve(
    x0: np.ndarray,
    refs: np.ndarray,
    warm_start: np.ndarray | None,
    cfg: NmpcConfig,
    params: VehicleParams,
) -> NmpcSolution:
    """Minimize the horizon objective subject to the thrust box.

    Parameters
    ----------
    x0 : (13,) ndarray
        Current state.
    refs : (N, 4) ndarray
        Output references (x, y, z, yaw) per step; shorter reference
        sequences are padded by holding the last row.
    warm_start : (N, 4) ndarray or None
        Previous (shifted) input sequence; None starts from hover inputs.
        Infeasible warm starts are projected onto the thrust box first.
    cfg : NmpcConfig
    params : VehicleParams

    Raises
    ------
    SolverFailureError
        If the objective is not evaluable at the projected warm start; its
        ``diagnostics`` hold the pass's ``divergence`` message, or the
        non-finite ``tracking_cost`` of a pass that flew.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (STATE_DIM,):
        raise ValueError(f"x0 must have shape ({STATE_DIM},)")
    n = cfg.horizon
    refs = _check_refs(refs, n)
    hover_u = _project(hover_inputs(n), cfg)
    if warm_start is not None:
        warm_start = np.asarray(warm_start, dtype=float)
        if warm_start.shape != (n, 4):
            raise ValueError(f"warm start must have shape ({n}, 4)")

    tally = Counter(evaluations=1)
    warm_u = hover_u if warm_start is None else _project(warm_start, cfg)
    warm = _cost_parts(x0, warm_u, refs, cfg, params)
    if warm is None:
        try:  # Fly it again to say why: a divergence or a non-finite cost.
            with np.errstate(over="ignore", invalid="ignore"):
                why = {"tracking_cost": _horizon_pass(x0, warm_u, refs, cfg, params).tracking}
        except DivergenceError as exc:
            why = {"divergence": str(exc)}
        raise SolverFailureError("objective is not evaluable at the warm start", why)
    zeros = np.zeros(n)

    def rank(flight):
        # Tilt feasibility first, then the plain-penalty cost at the
        # configured weight: the lower rank is the better iterate.
        return (flight.worst > 0.5 * _TILT_SLACK,
                _stage_value(flight, zeros, zeros, cfg.tilt_weight))

    # The best iterate seen so far; the warm start seeds it, so the returned
    # cost never exceeds the warm-start cost.
    current = best = warm
    best_rank = rank(warm)

    # A wild warm start (e.g. after a disturbance) can be worse than simply
    # holding hover thrust; descend from whichever anchor is cheaper.  A
    # cold start already flew the anchor.  Against a feasible warm start the
    # anchor wins only below its cost, so its pass is cut there.
    if warm_start is not None:
        cut = None if best_rank[0] else (best_rank[1], zeros, zeros, cfg.tilt_weight)
        tally["evaluations"] += 1
        hover = _cost_parts(x0, hover_u, refs, cfg, params, cut)
        if hover is not None and (hover_rank := rank(hover)) < best_rank:
            current = best = hover
            best_rank = hover_rank

    lam_r = lam_p = zeros
    weight = cfg.tilt_weight
    cost = _stage_value(current, lam_r, lam_p, weight)
    prev_worst = math.inf

    iterations = 0
    converged = False
    # Cap the iterations any one multiplier stage may spend out of bounds,
    # so a stage that zigzags on the penalty kink hands over to the stage
    # end instead of exhausting the whole budget.
    stage_allotment = max(2, cfg.max_iters // 6)
    stage_iters = 0
    while iterations < cfg.max_iters:
        iterations += 1
        stage_iters += 1
        # The current iterate was flown by the evaluation that chose it; one
        # sensitivity stack feeds both the gradient and the direction, whose
        # damping is a fixed 1e-9.
        a_steps, b_steps = _step_jacobians(current, cfg.period, params)
        shared = (_attitudes(current.states), _sensitivities(a_steps, b_steps))
        sweep = (current.states, a_steps, b_steps)
        grad = _adjoint_gradient(*sweep, current.u, refs, cfg, lam_r, lam_p, weight, *shared)
        d = _gauss_newton_direction(*sweep, grad, cfg, lam_r, lam_p, weight, 1e-9, *shared)
        # A negligible predicted decrease ends the stage with no search, and
        # so does a search that finds no decrease along either direction.
        stage_solved = True
        if -float(np.dot(grad.ravel(), d.ravel())) > cfg.tol * max(abs(cost), 1.0):
            args = (grad, cost, refs, cfg, params, lam_r, lam_p, weight, tally)
            hit = _line_search(x0, current.u, d, *args) or _line_search(
                x0, current.u, -grad, *args)
            if hit is not None:
                current, trial_cost = hit
                stage_solved = cost - trial_cost <= cfg.tol * max(abs(trial_cost), 1.0)
                cost = trial_cost
                if (hit_rank := rank(current)) < best_rank:
                    best, best_rank = current, hit_rank
        worst = current.worst
        if not (stage_solved or (stage_iters >= stage_allotment
                                 and worst > 0.5 * _TILT_SLACK)):
            continue
        if stage_solved and worst <= 0.5 * _TILT_SLACK:
            converged = True
            break
        # The stage ended with the tilt out of bounds: update the
        # multipliers if the violation at least halved since the last stage
        # end (always at the first), else sharpen the penalty; never both.
        stage_iters = 0
        if worst <= 0.5 * prev_worst:
            lam_r = np.clip(lam_r + 2.0 * weight * current.g_roll, 0.0, None)
            lam_p = np.clip(lam_p + 2.0 * weight * current.g_pitch, 0.0, None)
        else:
            weight = min(weight * _WEIGHT_STEP, _WEIGHT_CAP)
        prev_worst = worst
        cost = _stage_value(current, lam_r, lam_p, weight)
        warm_cost = _stage_value(warm, lam_r, lam_p, weight)
        if warm_cost < cost:
            current, cost = warm, warm_cost

    if best_rank[0]:
        # Budget exhausted without a tilt-feasible iterate.  Blend the best
        # iterate toward a pure attitude-braking sequence and keep the
        # blend closest to it that brings the prediction inside the limit.
        try:
            brake = _project(_braking_inputs(x0, cfg, params), cfg)
            for k in range(1, 9):
                s = k / 8.0
                tally["evaluations"] += 1
                blend = _cost_parts(x0, (1.0 - s) * best.u + s * brake, refs, cfg, params)
                if blend is not None and blend.worst <= 0.5 * _TILT_SLACK:
                    best, best_rank = blend, rank(blend)
                    break
        except DivergenceError:
            pass

    return NmpcSolution(
        u=best.u,
        states=best.states,
        outputs=best.outputs,
        cost=best_rank[1],
        iterations=iterations,
        converged=converged,
        evaluations=tally["evaluations"],
        line_searches=tally["line_searches"],
    )


class NmpcController:
    """Receding-horizon wrapper: solves, applies the first input, shifts.

    On solver failure the controller logs the event, falls back to the
    hover input and clears its warm start.
    """

    def __init__(self, cfg: Config):
        self._cfg = cfg.nmpc
        self._params = VehicleParams.from_config(cfg)
        self._warm: np.ndarray | None = None
        self.last_solution: NmpcSolution | None = None
        self.failures = 0
        # Running sums over the solves that returned.
        self.iterations = self.converged = self.evaluations = self.line_searches = 0

    def reset(self) -> None:
        self._warm = None
        self.last_solution = None

    def step(self, x: np.ndarray, refs: np.ndarray) -> AerialInput:
        """One receding-horizon update from the 13-vector ``x``: the input to apply now."""
        try:
            sol = solve(x, refs, self._warm, self._cfg, self._params)
        except SolverFailureError as exc:
            self.failures += 1
            self.last_solution = None
            self._warm = None
            log.warning("solver failure (%s); falling back to hover input", exc)
            return AerialInput(c=GRAVITY, torque=np.zeros(3))
        self.last_solution = sol
        self.iterations += sol.iterations
        self.converged += sol.converged
        self.evaluations += sol.evaluations
        self.line_searches += sol.line_searches
        # Shift by one period, duplicating the final input.
        self._warm = np.vstack([sol.u[1:], sol.u[-1:]])
        return sol.first_input
