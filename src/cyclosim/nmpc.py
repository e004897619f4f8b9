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
   stops flying once its running merit, a sum of non-negative terms, is
   above its Armijo bound (it can no longer be accepted);
2. objective = sum of Q-weighted squared output errors (yaw wrapped) plus
   R-weighted squared inputs, subject to roll and pitch within the tilt
   limit;
3. analytic Jacobians of the RK4 step, with the quaternion renormalization
   projector, come from the one ``_Flight`` record of the current iterate
   (the warm start, the hover anchor or a line-search hit), so no iterate
   is flown twice; one forward recursion chains them into the sensitivity
   stack ``S_j = dx_{j+1}/du``, and the exact gradient is one product over
   it, ``2 R u + sum_j S_j^T g_j``;
4. the search direction is an SQP step (Nocedal & Wright, *Numerical
   Optimization*, 2nd ed., §16.5 and ch. 18): a QP on ``H = H_GN + S``, the
   tracking rows' Gauss-Newton matrix plus a per-solve secant term (zero at
   the first step), each roll/pitch term a linearized constraint;
5. a projected Armijo line search accepts steps on one l1 merit, tracking
   plus ``nu`` times the summed tilt excess, where ``nu`` is twice the
   largest QP multiplier so far in the solve; a full step rejected past
   the tilt limit first gets one second-order correction through the same
   factors.  The solve stops when the model decrease of the full step, or
   the decrease of an accepted step, is at most ``tol * max(|merit|, 1)``,
   and has converged if the tilt is then within half of ``_TILT_SLACK``.

The returned iterate is the best seen: tilt-feasible first, then the lower
cost with the plain quadratic tilt penalty at ``tilt_weight``, which is
also the reported cost.  The projected warm start seeds it, so on
tilt-inactive problems the returned cost never exceeds the warm start's.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from contextlib import suppress
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
# Passes per horizon step the primal-dual active-set loop of the SQP step
# may spend moving every misplaced row at once, before it moves one a pass.
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
        Outer iterations performed (one gradient and one SQP step each).
    converged : bool
        True if the solve stopped on its decrease tolerance with the
        predicted tilt inside the limit plus slack.
    evaluations, line_searches, qp_passes, corrections, reversals, anchor_wins : int
        Horizon passes begun (cut short or not), line searches run,
        active-set passes over all QPs, second-order corrections made, steps
        reversing the one before (cosine below -0.9) and hover-anchor wins.
    """

    u: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    cost: float
    iterations: int
    converged: bool
    evaluations: int = 0
    line_searches: int = 0
    qp_passes: int = 0
    corrections: int = 0
    reversals: int = 0
    anchor_wins: int = 0

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

    With ``cut = (limit, nu)`` the pass also sums the merit as it flies and
    returns None once the sum is above ``limit`` by more than a 1e-9
    relative margin for rounding; the terms are all non-negative, so the
    full :func:`_merit` would be above it too.  Otherwise it returns the
    :class:`_Flight`.  Raises ``DivergenceError`` where ``aerial_step``
    would: a collapsed or non-finite quaternion norm, or a non-finite state.
    """
    jx, jy, jz = params.inertia.tolist()
    h = cfg.period
    tilt = cfg.tilt_max
    if cut is not None:
        limit, nu = cut
        bound = limit + 1e-9 * max(abs(limit), 1.0)
        running = float(np.sum(u * u * cfg.r_diag))
        q0, q1, q2, q3 = cfg.q_diag.tolist()
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
            running += (e0 * e0 * q0 + e1 * e1 * q1 + e2 * e2 * q2 + e3 * e3 * q3
                        + nu * (max(g_roll[-1], 0.0) + max(g_pitch[-1], 0.0)))
            if running > bound:
                return None
    return _Flight(u, _weighted_cost(np.array(errors), u, cfg), np.array(g_roll),
                   np.array(g_pitch), np.array(rows), yaws, stages, thrusts, norms)


def rollout(
    x0: np.ndarray, u: np.ndarray, cfg: NmpcConfig, params: VehicleParams
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the horizon under the deviation inputs ``u``: the (N+1, 13)
    states and the (N, 4) outputs, (x, y, z, yaw) after each step."""
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

    Divergent or overflowing trajectories, and passes ended by ``cut``,
    give None so the caller rejects them.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            flight = _horizon_pass(x0, u, refs, cfg, params, cut)
    except DivergenceError:
        return None
    return flight if flight is not None and math.isfinite(flight.tracking) else None


def _merit(flight: _Flight, nu: float) -> float:
    """The l1 merit: tracking plus ``nu`` times the summed tilt excess."""
    excess = np.maximum(flight.g_roll, 0.0).sum() + np.maximum(flight.g_pitch, 0.0).sum()
    return flight.tracking + nu * float(excess)


def _penalty_cost(flight: _Flight, weight: float) -> float:
    """Tracking plus ``weight`` times the summed squared tilt excess: the
    reported cost, and the rank of iterates equally (in)feasible."""
    s_r = np.maximum(flight.g_roll, 0.0)
    s_p = np.maximum(flight.g_pitch, 0.0)
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


def _tilt_rows(angles, stack, cfg: NmpcConfig):
    """The linearized tilt limit of an iterate: the (2N,) slack ``s =
    |angle| - tilt_max`` of each roll and pitch term, step by step, and the
    (2N, 4N) rows ``a = sign(angle) J_angle``, so a step ``d`` moves each
    slack by ``a . d``."""
    values, grads = angles
    signed = np.copysign(1.0, values[:, 1:, None]) * grads[:, 1:]
    rows = signed @ stack[:, QUAT_SLICE]
    return (np.abs(values[:, 1:]) - cfg.tilt_max).reshape(-1), rows.reshape(-1, rows.shape[2])


def _adjoint_gradient(
    states, a_steps, b_steps, u, refs, cfg: NmpcConfig, lam_r=None, lam_p=None, weight=None,
    angles=None, stack=None,
) -> np.ndarray:
    """Gradient of the tracking-plus-effort cost wrt all inputs.

    ``2 R u + sum_j S_j^T g_j``, one product over the sensitivity stack,
    where ``g_j`` is the gradient of step j's tracking terms wrt
    ``x_{j+1}``; all ``g_j`` are formed at once.  ``angles`` is
    :func:`_attitudes` of ``states`` and ``stack`` is :func:`_sensitivities`
    of the Jacobians, each formed here if not given.  ``lam_r``, ``lam_p``
    and ``weight`` are unread; ``perfbench/kernels.py`` passes them.
    """
    n = u.shape[0]
    if angles is None:
        angles = _attitudes(states)
    if stack is None:
        stack = _sensitivities(a_steps, b_steps)
    values, grads = angles
    yaw_coef = [2.0 * cfg.q_yaw * wrap_angle(e) for e in (values[:, 0] - refs[:, 3]).tolist()]
    g = np.zeros((n, STATE_DIM))
    g[:, :3] = 2.0 * cfg.q_diag[:3] * (states[1:, :3] - refs[:, :3])
    g[:, QUAT_SLICE] = np.array(yaw_coef)[:, None] * grads[:, 0]
    flat = g.reshape(n * STATE_DIM) @ stack.reshape(n * STATE_DIM, 4 * n)
    return 2.0 * cfg.r_diag * u + flat.reshape(n, 4)


def cost_gradient(
    x0: np.ndarray, u: np.ndarray, refs: np.ndarray, cfg: NmpcConfig, params: VehicleParams
) -> np.ndarray:
    """Exact gradient of ``evaluate_cost`` composed with ``rollout``.

    A forward pass storing per-step Jacobians, chained into the sensitivity
    stack, then one product over the horizon: an (N, 4) array.  The solver
    treats the tilt limit as a constraint of each step, not as a cost.
    """
    u = np.asarray(u, dtype=float)
    refs = _check_refs(refs, u.shape[0])
    return _adjoint_gradient(*_forward_pass(x0, u, cfg, params), u, refs, cfg)


def _braking_inputs(
    x0: np.ndarray, cfg: NmpcConfig, params: VehicleParams
) -> np.ndarray:
    """Input sequence that levels the attitude as fast as R allows.

    A critically damped attitude regulator on roll and pitch (plus body-rate
    damping on yaw), simulated step by step; used as a feasibility anchor
    when a solve ends with no tilt-feasible iterate.
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


def _gn_hessian(angles, stack, cfg: NmpcConfig, damping: float) -> np.ndarray:
    """``H_GN = diag(2R) + damping I + 2 J^T W J``: tracking rows ``J``, Q weights ``W``."""
    n, m = stack.shape[0], stack.shape[2]
    # Rows per step: x, y, z, yaw.
    rows = np.concatenate((stack[:, :3], angles[1][:, :1] @ stack[:, QUAT_SLICE]), axis=1)
    j_mat = rows.reshape(4 * n, m)
    h_mat = (2.0 * np.tile(cfg.q_diag, n) * j_mat.T) @ j_mat
    h_mat[np.diag_indices(m)] += 2.0 * np.tile(cfg.r_diag, n) + damping
    return h_mat


def _secant_update(secant, h_gn, step, y):
    """``(H, S)`` after an accepted ``step``: Dennis, Gay & Welsch's update of the
    secant term ``S`` (NL2SOL, ACM TOMS 7(3), 1981), with NL2SOL's sizing ``t``,
    so ``H = H_GN + S`` has ``H s = y``.  None is zero, ``y.s <= 0`` keeps ``S``,
    and an ``H`` with no Cholesky factor gives ``(H_GN, None)``."""
    if (ys := float(y @ step)) > 0.0:
        secant = np.zeros_like(h_gn) if secant is None else secant
        v, s_step = y - h_gn @ step, secant @ step  # v: y# = y - H_GN s, then y# - t S s.
        curv = abs(float(step @ s_step))
        t = min(1.0, abs(float(step @ v)) / curv) if curv > 0.0 else 1.0
        v -= t * s_step
        vy = np.outer(v / ys, y)
        secant = t * secant + (vy + vy.T - (float(v @ step) / (ys * ys)) * np.outer(y, y))
    if secant is not None:
        with suppress(np.linalg.LinAlgError):
            np.linalg.cholesky(h_mat := h_gn + secant)
            return h_mat, secant
    return h_gn, None


def _gauss_newton_direction(
    states, a_steps, b_steps, grad, cfg: NmpcConfig, lam_r, lam_p, weight, damping,
    angles=None, stack=None, tilt=None, start=None, tally=None, hessian=None,
):
    """SQP step: the QP on ``H`` with the tilt limit as constraints.

    ``H`` is ``hessian``, which ``solve`` passes as ``H_GN`` plus the secant
    term, or else the Gauss-Newton matrix of :func:`_gn_hessian` at
    ``damping``; one constraint ``s_i + a_i . d <= 0`` per roll and
    pitch term (:func:`_tilt_rows`, or ``tilt``).  Factored once: one solve
    gives ``d0 = -H^-1 grad`` and ``H^-1 A^T``, then ``S = A H^-1 A^T``.
    ``qp(s, start)`` runs the primal-dual active-set loop from the working
    set ``start``, or cold from the rows ``d0`` violates: each pass takes
    the working rows W as equalities, ``mu_W = S_WW^-1 (s + A d0)_W`` and
    ``d = d0 - H^-1 A_W^T mu_W``, and moves every misplaced row: out of W at
    ``mu <= 0``, into it where ``d`` violates the row.  That can cycle, so
    after ``_ACTIVE_SET_PASSES`` passes per horizon step a pass moves only
    the first misplaced row (Murty's least-index rule, finite for the
    positive definite ``S``; K. G. Murty, Opsearch 11, 1974), for at most
    ``2 N^2`` passes.  A warm loop that meets dependent rows or Murty's
    phase runs again cold; both end on the unique KKT point's working set,
    with the same bytes (Ferreau, Bock & Diehl, 2008).

    Returns ``(d, mu, working, qp)``: ``qp(s, start)`` at the tilt slack,
    then ``qp``.  A singular ``H`` (no ``qp``), or dependent rows in a cold
    loop, give the zero step.  ``lam_r``, ``lam_p`` and ``weight`` are
    unread (``perfbench/kernels.py`` passes them); ``angles``, ``stack`` and
    ``tilt`` are formed if not given; ``tally`` counts the passes.
    """
    angles = _attitudes(states) if angles is None else angles
    stack = _sensitivities(a_steps, b_steps) if stack is None else stack
    slack, a_mat = _tilt_rows(angles, stack, cfg) if tilt is None else tilt
    n, m = grad.shape[0], grad.size
    tally = Counter() if tally is None else tally
    h_mat = _gn_hessian(angles, stack, cfg, damping) if hessian is None else hessian
    try:
        solved = np.linalg.solve(h_mat, np.column_stack((-grad.reshape(m), a_mat.T)))
    except np.linalg.LinAlgError:  # A singular H.
        return np.zeros_like(grad), np.zeros_like(slack), start, None
    d0, h_inv_at = solved[:, 0], solved[:, 1:]
    schur, a_d0 = a_mat @ h_inv_at, a_mat @ d0

    def qp(slack, start):
        # Each row's linearized slack at d0; at d it is this less S mu.
        at_d0 = slack + a_d0
        for warm in (False,) if start is None else (True, False):
            working = start.copy() if warm else at_d0 > 0.0
            try:
                for passes in range((_ACTIVE_SET_PASSES + 2 * n) * n):
                    tally["qp_passes"] += 1
                    mu = np.zeros_like(slack)
                    if working.any():
                        mu[working] = np.linalg.solve(schur[working][:, working], at_d0[working])
                    flip = np.where(working, mu <= 0.0, at_d0 - schur @ mu > 0.0)
                    if not flip.any() or warm and passes >= _ACTIVE_SET_PASSES * n:
                        break
                    if passes >= _ACTIVE_SET_PASSES * n:
                        flip[np.flatnonzero(flip)[0] + 1 :] = False
                    working ^= flip
            except np.linalg.LinAlgError:  # Dependent working rows.
                if warm:
                    continue
                return np.zeros_like(grad), np.zeros_like(slack), working
            if not (warm and flip.any()):  # A warm loop at Murty's phase runs again cold.
                return (d0 - h_inv_at @ mu).reshape(n, 4), mu, working
    return (*qp(slack, start), qp)


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


def _project(u: np.ndarray, cfg: NmpcConfig) -> np.ndarray:
    out = np.array(u, dtype=float, copy=True)
    out[:, 0] = np.clip(out[:, 0], cfg.accel_min, cfg.accel_max)
    return out


def _model_decrease(u, trial, grad, tilt, nu: float) -> float:
    """The merit's linear model decrease ``-grad . D + nu (sum s+ - sum (s +
    A D)+)`` from ``u`` to ``trial = u + D``, with ``tilt = (s, A)``."""
    step = (trial - u).reshape(-1)
    slack, a_mat = tilt
    excess = np.maximum(slack, 0.0).sum() - np.maximum(slack + a_mat @ step, 0.0).sum()
    return nu * float(excess) - float(grad.reshape(-1) @ step)


def _line_search(x0, u, d, grad, cost, refs, cfg, params, tilt, nu, tally, qp, working):
    """Projected Armijo backtracking along the SQP step ``d`` on the merit.

    A trial is accepted at a merit of at most ``cost - sigma * decrease``,
    with :func:`_model_decrease` to it; passes after the first are cut at
    that bound.  A full step rejected past the tilt limit is corrected once
    before the search halves it (Nocedal & Wright, §18.3): ``qp`` runs from
    the step's ``working`` set at each row's slack at the full step less its
    linear part.  ``tally`` counts the search, every pass and the correction.
    Returns (trial :class:`_Flight`, merit, the last working set) or None.
    """
    tally["line_searches"] += 1
    alpha = 1.0
    gap_floor = 1e-15 * max(1.0, abs(cost))
    while alpha >= _ALPHA_FLOOR:
        trial = _project(u + alpha * d, cfg)
        gap = _model_decrease(u, trial, grad, tilt, nu)
        if not gap > gap_floor:
            return None
        limit = cost - _ARMIJO_SIGMA * gap
        tally["evaluations"] += 1
        first = alpha == 1.0
        flight = _cost_parts(x0, trial, refs, cfg, params, None if first else (limit, nu))
        if first and flight is not None and _merit(flight, nu) > limit and flight.worst > 0.0:
            true = np.column_stack((flight.g_roll, flight.g_pitch)).reshape(-1)
            corrected, _, working = qp(true - tilt[1] @ (trial - u).reshape(-1), working)
            trial = _project(u + corrected, cfg)
            tally.update(evaluations=1, corrections=1)
            flight = _cost_parts(x0, trial, refs, cfg, params, (limit, nu))
        if flight is not None and (trial_cost := _merit(flight, nu)) <= limit:
            return flight, trial_cost, working
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
        Output references (x, y, z, yaw) per step: row j is compared with
        output j, the state one period after input j, so for inputs applied
        from time t it is the schedule at ``t + (j + 1) * period``.
        Shorter reference sequences are padded by holding the last row.
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

    def rank(flight):
        # Tilt feasibility first, then the plain-penalty cost at the
        # configured weight: the lower rank is the better iterate.
        return (flight.worst > 0.5 * _TILT_SLACK, _penalty_cost(flight, cfg.tilt_weight))

    # The best iterate seen so far; the warm start seeds it, so the returned
    # cost never exceeds the warm-start cost.
    current = best = warm
    best_rank = rank(warm)

    # A wild warm start (e.g. after a disturbance) can be worse than simply
    # holding hover thrust; descend from whichever anchor is cheaper.  A
    # cold start already flew the anchor.  Against a feasible warm start the
    # anchor wins only below its cost, so its pass is cut there; the
    # tracking alone (nu = 0) bounds that cost from below.
    if warm_start is not None:
        cut = None if best_rank[0] else (best_rank[1], 0.0)
        tally["evaluations"] += 1
        hover = _cost_parts(x0, hover_u, refs, cfg, params, cut)
        if hover is not None and (hover_rank := rank(hover)) < best_rank:
            current = best = hover
            best_rank = hover_rank
            tally["anchor_wins"] = 1

    # The merit's weight: twice the largest QP multiplier so far.
    nu, converged, working, secant, last = 0.0, False, None, None, None  # A cold first QP.
    for iterations in range(1, cfg.max_iters + 1):
        # The current iterate was flown by the evaluation that chose it; one
        # sensitivity stack feeds the gradient, the tilt rows and the step,
        # whose damping is a fixed 1e-9.
        a_steps, b_steps = _step_jacobians(current, cfg.period, params)
        angles = _attitudes(current.states)
        stack = _sensitivities(a_steps, b_steps)
        tilt = _tilt_rows(angles, stack, cfg)
        grad = _adjoint_gradient(current.states, a_steps, b_steps, current.u, refs, cfg,
                                 angles=angles, stack=stack)
        h_mat = _gn_hessian(angles, stack, cfg, 1e-9)
        if last is not None:
            h_mat, secant = _secant_update(secant, h_mat, last[0],
                                           grad.reshape(-1) + tilt[1].T @ last[2] - last[1])
        d, mu, working, qp = _gauss_newton_direction(current.states, a_steps, b_steps, grad,
                                                     cfg, None, None, None, 1e-9, angles,
                                                     stack, tilt, working, tally, h_mat)
        nu = max(nu, 2.0 * float(mu.max()))
        cost = _merit(current, nu)
        # Stop on a negligible model decrease of the full step (with no
        # search), a failed search, or a negligible accepted decrease.
        hit = None
        full = _project(current.u + d, cfg)
        if _model_decrease(current.u, full, grad, tilt, nu) > cfg.tol * max(abs(cost), 1.0):
            hit = _line_search(x0, current.u, d, grad, cost, refs, cfg, params, tilt, nu,
                               tally, qp, working)
        if hit is not None:
            s = (hit[0].u - current.u).reshape(-1)
            if last is not None and s @ last[0] < -0.9 * math.sqrt((s @ s) * (last[0] @ last[0])):
                tally["reversals"] += 1
            last = (s, grad.reshape(-1) + tilt[1].T @ mu, mu)  # Step, Lagrangian gradient, mu.
            current, trial_cost, working = hit
            if (hit_rank := rank(current)) < best_rank:
                best, best_rank = current, hit_rank
        if hit is None or cost - trial_cost <= cfg.tol * max(abs(trial_cost), 1.0):
            converged = current.worst <= 0.5 * _TILT_SLACK
            break

    if best_rank[0]:
        # No tilt-feasible iterate.  Blend the best iterate toward a pure
        # attitude-braking sequence and keep the blend closest to it that
        # brings the prediction inside the limit.
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

    return NmpcSolution(u=best.u, states=best.states, outputs=best.outputs, cost=best_rank[1],
                        iterations=iterations, converged=converged, **tally)


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
        self.qp_passes = self.corrections = self.reversals = self.anchor_wins = 0

    def reset(self) -> None:
        self._warm = None
        self.last_solution = None

    def step(self, x: np.ndarray, refs: np.ndarray) -> AerialInput:
        """One receding-horizon update from the 13-vector ``x``: the input to apply now."""
        try:
            sol = solve(x, refs, self._warm, self._cfg, self._params)
        except SolverFailureError as exc:
            self.failures += 1
            self.reset()
            log.warning("solver failure (%s); falling back to hover input", exc)
            return AerialInput(c=GRAVITY, torque=np.zeros(3))
        self.last_solution = sol
        for name in ("iterations", "converged", "evaluations", "line_searches", "qp_passes",
                     "corrections", "reversals", "anchor_wins"):
            setattr(self, name, getattr(self, name) + getattr(sol, name))
        # Shift by one period, duplicating the final input.
        self._warm = np.vstack([sol.u[1:], sol.u[-1:]])
        return sol.first_input
