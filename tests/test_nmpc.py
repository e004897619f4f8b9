"""Horizon optimizer tests.

Oracles: central finite differences for the gradient, closed-form free fall
for the rollout, a brute-force python double loop for the cost, hand-built
attitude quaternions for the tilt penalty, and the exact effort gradient
2*R*u on a tracking-free objective.  Solver contracts (exact box, tilt
adherence, warm-start monotonicity, determinism) are checked on seeded
random instances.  The trial cut is checked against the same pass, line
search or solve with no acceptance limit, and the work counts against
counting wrappers.  The sensitivity stack's gradient is checked against
central differences and a backward costate recursion, and the SQP step
against the KKT conditions of its QP built step by step in the test, with
scipy's SLSQP solving the same QP independently.  A warm-started QP, and
a correction through its step's factors, are checked bit for bit against
the cold start and a fresh step, and a whole solve against the same solve
with every QP started cold.  The merit weight is checked against the
multipliers the steps return.  The secant term of the QP matrix is checked
against the secant equation, the update written out as the paper states
it, a Cholesky factor of every QP matrix, and the same solves with the term
disabled.  The stage Jacobians are checked bit for bit against every term
formed by its own float operation and scattered entry by entry, and the
step's lazy factors against spies on every linear solve.
"""

import dataclasses
import gc
import importlib.util
import math
import weakref
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from cyclosim import nmpc
from cyclosim.config import GRAVITY, NmpcConfig, default_config
from cyclosim.dynamics import (
    QUAT_SLICE,
    VehicleParams,
    aerial_derivative,
    hover_state,
    step_rk4,
)
from cyclosim.errors import DivergenceError, SolverFailureError
from cyclosim.geometry import (
    EulerAngles,
    euler_to_quat,
    quat_roll_pitch,
    quat_yaw,
    wrap_angle,
)
from cyclosim.nmpc import (
    NmpcController,
    cost_gradient,
    evaluate_cost,
    hover_inputs,
    rollout,
    solve,
    tilt_penalty,
)

G = 9.81


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def ncfg(cfg):
    return cfg.nmpc


@pytest.fixture(scope="module")
def params(cfg):
    return VehicleParams.from_config(cfg)


def hold_refs(ref, n):
    return np.tile(np.asarray(ref, dtype=float), (n, 1))


def canonical_cost(x0, u, refs, ncfg, params):
    """Tracking + effort + tilt penalty at the configured weight."""
    states, outputs = rollout(x0, u, ncfg, params)
    return evaluate_cost(outputs, refs, u, ncfg) + tilt_penalty(states, ncfg)


def worst_tilt(states):
    worst = 0.0
    for x in states[1:]:
        roll, pitch = quat_roll_pitch(x[QUAT_SLICE])
        worst = max(worst, abs(roll), abs(pitch))
    return worst


def random_instance(rng, ncfg, pos=2.0, vel=1.0, eul=0.45, om=0.5, ref_xy=3.0):
    x0 = np.concatenate(
        [
            rng.uniform(-pos, pos, 3),
            rng.uniform(-vel, vel, 3),
            euler_to_quat(EulerAngles(*rng.uniform(-eul, eul, 3))),
            rng.uniform(-om, om, 3),
        ]
    )
    ref = np.array(
        [
            *rng.uniform(-ref_xy, ref_xy, 2),
            rng.uniform(-2.0, 4.0),
            rng.uniform(-math.pi, math.pi),
        ]
    )
    return x0, hold_refs(ref, ncfg.horizon)


class TestRollout:
    def test_shapes(self, ncfg, params):
        x0 = hover_state((0.0, 0.0, 5.0)).as_vector()
        states, outputs = rollout(x0, hover_inputs(ncfg.horizon), ncfg, params)
        assert states.shape == (ncfg.horizon + 1, 13)
        assert outputs.shape == (ncfg.horizon, 4)

    def test_zero_deviation_holds_hover(self, ncfg, params):
        x0 = hover_state((1.0, -2.0, 5.0)).as_vector()
        states, outputs = rollout(x0, hover_inputs(ncfg.horizon), ncfg, params)
        assert np.allclose(states, x0, atol=1e-12)
        assert np.allclose(outputs, [1.0, -2.0, 5.0, 0.0], atol=1e-12)

    def test_free_fall_matches_closed_form(self, ncfg, params):
        # Constant acceleration is a degree-2 polynomial, which RK4
        # integrates exactly; only roundoff remains.
        x0 = hover_state((0.0, 0.0, 5.0)).as_vector()
        u = hover_inputs(ncfg.horizon)
        u[:, 0] = -G
        _, outputs = rollout(x0, u, ncfg, params)
        for j in range(ncfg.horizon):
            t = (j + 1) * ncfg.period
            assert outputs[j, 2] == pytest.approx(5.0 - 0.5 * G * t * t, abs=1e-9)

    def test_short_reference_padded_with_last_row(self, ncfg, params):
        x0 = hover_state((0.0, 0.0, 0.0)).as_vector()
        one = np.array([[0.0, 0.0, 1.0, 0.0]])
        full = hold_refs([0.0, 0.0, 1.0, 0.0], ncfg.horizon)
        a = solve(x0, one, None, ncfg, params)
        b = solve(x0, full, None, ncfg, params)
        assert np.array_equal(a.u, b.u)
        assert a.cost == b.cost


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _horizon_cases(draw):
    """A state, deviation inputs and references over a 1-8 step horizon.

    The input scale reaches 1e160, where the body rates and then the
    quaternion overflow, so some cases diverge part way."""
    n = draw(st.integers(1, 8))
    q = np.array(draw(st.lists(_finite(-1.0, 1.0), min_size=4, max_size=4)))
    norm = math.sqrt(float(q @ q))
    q = q / norm if norm > 1e-3 else np.array([1.0, 0.0, 0.0, 0.0])
    x0 = np.array([
        *draw(st.lists(_finite(-1e3, 1e3), min_size=3, max_size=3)),
        *draw(st.lists(_finite(-50.0, 50.0), min_size=3, max_size=3)),
        *q,
        *draw(st.lists(_finite(-20.0, 20.0), min_size=3, max_size=3)),
    ])
    scale = draw(st.sampled_from([1.0, 30.0, 1e4, 1e160]))
    u = np.array(draw(st.lists(_finite(-1.0, 1.0), min_size=4 * n, max_size=4 * n)))
    refs = np.array(draw(st.lists(_finite(-1e3, 1e3), min_size=4 * n, max_size=4 * n)))
    period = draw(_finite(1e-3, 0.05))
    return x0, scale * u.reshape(n, 4), refs.reshape(n, 4), period


def _oracle(x0, u, refs, ncfg, params):
    """The generic RK4 step, evaluate_cost and quat_roll_pitch, step by
    step; None where the trajectory or its cost diverges."""
    states = [x0]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for a, tx, ty, tz in u:
                states.append(step_rk4(
                    lambda s, v: aerial_derivative(s, v, params), states[-1],
                    np.array([GRAVITY + a, tx, ty, tz]), ncfg.period,
                    quat_slice=QUAT_SLICE,
                ))
    except (DivergenceError, ValueError):
        # aerial_derivative rejects a non-finite stage state with ValueError.
        return None
    states = np.array(states)
    outputs = np.column_stack([states[1:, :3], [quat_yaw(q) for q in states[1:, QUAT_SLICE]]])
    with np.errstate(over="ignore", invalid="ignore"):
        tracking = evaluate_cost(outputs, refs, u, ncfg)
    if not math.isfinite(tracking):
        return None
    tilt = np.array([quat_roll_pitch(q) for q in states[1:, QUAT_SLICE]])
    return states, outputs, tracking, np.abs(tilt) - ncfg.tilt_max


class TestHorizonPass:
    """One flight of the horizon feeds the cost, the tilt terms and the
    Jacobians; the generic RK4 step is its reference."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=_horizon_cases())
    def test_matches_the_generic_step_bit_for_bit(self, case, ncfg, params):
        x0, u, refs, period = case
        cfg = dataclasses.replace(ncfg, period=period)
        expected = _oracle(x0, u, refs, cfg, params)
        flight = nmpc._cost_parts(x0, u, refs, cfg, params)
        if expected is None:
            assert flight is None
            return
        states, outputs, expected_tracking, excess = expected
        assert flight.tracking == expected_tracking
        assert np.array_equal(flight.g_roll, excess[:, 0])
        assert np.array_equal(flight.g_pitch, excess[:, 1])
        assert np.array_equal(flight.states, states)
        assert np.array_equal(flight.outputs, outputs)
        got_states, got_outputs = rollout(x0, u, cfg, params)
        assert np.array_equal(got_states, states)
        assert np.array_equal(got_outputs, outputs)
        # The Jacobians built from the stored flight are those of a
        # separate forward pass.
        a_steps, b_steps = nmpc._step_jacobians(flight, cfg.period, params)
        fp_states, fp_a, fp_b = nmpc._forward_pass(x0, u, cfg, params)
        assert np.array_equal(fp_states, states)
        assert np.array_equal(a_steps, fp_a)
        assert np.array_equal(b_steps, fp_b)

    def test_solve_flies_each_iterate_once(self, ncfg, params, monkeypatch):
        """A warm-started solve builds its Jacobians from the flights its
        cost evaluations made: no separate rollout, forward pass or plant
        step is ever called."""
        x0 = hover_state((0.0, 0.0, 1.0)).as_vector()
        x0[3:6] = (0.4, -0.2, 0.1)
        refs = hold_refs([1.0, 0.5, 1.5, 0.3], ncfg.horizon)
        cold = solve(x0, refs, None, ncfg, params)
        warm = np.vstack([cold.u[1:], cold.u[-1:]])
        x1 = cold.states[1]
        expected = solve(x1, refs, warm, ncfg, params)
        assert expected.converged and expected.iterations >= 2

        def forbidden(*args, **kwargs):
            raise AssertionError("an iterate was flown twice")

        for name in ("rollout", "_forward_pass", "aerial_step"):
            monkeypatch.setattr(nmpc, name, forbidden)
        got = solve(x1, refs, warm, ncfg, params)
        assert np.array_equal(got.u, expected.u)
        assert np.array_equal(got.states, expected.states)
        assert np.array_equal(got.outputs, expected.outputs)
        assert (got.cost, got.iterations, got.converged) == (
            expected.cost, expected.iterations, expected.converged)


# The stage Jacobians entry by entry: each varying entry of [df/dx | df/du]
# as (row, column, term), with the term a column of the table
# _term_jacobians builds: 0-3 2cq, 4-7 -2cq (q = qw, qx, qy, qz), 8-9
# -4c(qx, qy), 10-12 0.5w, 13-15 -0.5w, 16-19 0.5q, 20-23 -0.5q, 24-29
# gyroscopic, 30-32 R(q) e_z, 33-35 J^-1.
_TERM_ENTRIES = (
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


def _term_jacobians(stages, thrusts, jx, jy, jz):
    """The (n, 4, 13, 17) stage Jacobians with each term formed by its own
    float operation (a negated term is the exact negation of the rounded
    product) and scattered entry by entry into zeros."""
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
    rates = w[:, [2, 1, 2, 0, 1, 0]]
    terms[:, 24:30] = (gyro * rates) / np.array([jx, jx, jy, jy, jz, jz])
    terms[:, 30] = 2.0 * (qx * qz + qw * qy)
    terms[:, 31] = 2.0 * (qy * qz - qw * qx)
    terms[:, 32] = 1.0 - 2.0 * (qx * qx + qy * qy)
    terms[:, 33:36] = (1.0 / jx, 1.0 / jy, 1.0 / jz)
    m = np.zeros((n, 4, 13, 17))
    m[:, :, 0, 3] = m[:, :, 1, 4] = m[:, :, 2, 5] = 1.0
    for row, col, term in _TERM_ENTRIES:
        m[:, :, row, col] = terms[:, term].reshape(n, 4)
    return m


class TestStageJacobians:
    """The stage Jacobians are one product of stage features with a
    constant table.  Oracle: every term formed by its own float operation
    and scattered entry by entry (``_term_jacobians``)."""

    def test_each_table_column_takes_one_feature_or_its_negation(self):
        """Each block entry is then exactly one feature, in every float range:
        a factor of 2 or 0.5 after rounding would differ from the term in
        the subnormal range."""
        table = nmpc._JAC_TABLE
        assert table.shape == (26, 13 * 17)
        for column in table.T:
            nonzero = column[column != 0.0]
            assert len(nonzero) <= 1
            assert set(nonzero.tolist()) <= {1.0, -1.0}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=_horizon_cases())
    def test_one_product_matches_the_term_table_bit_for_bit(self, case, ncfg, params):
        x0, u, refs, period = case
        flight = nmpc._cost_parts(x0, u, refs, dataclasses.replace(ncfg, period=period), params)
        assume(flight is not None)
        inertia = params.inertia.tolist()
        got = nmpc._stage_jacobians(flight.stages, flight.thrusts, *inertia)
        expected = _term_jacobians(flight.stages, flight.thrusts, *inertia)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


def _same_parts(got, expected):
    """Two records of ``_cost_parts`` (or of two line-search hits) agree
    bit for bit."""
    assert np.array_equal(got.u, expected.u)
    assert got.tracking == expected.tracking
    assert np.array_equal(got.g_roll, expected.g_roll)
    assert np.array_equal(got.g_pitch, expected.g_pitch)
    assert np.array_equal(got.states, expected.states)
    assert (got.yaws, got.stages, got.thrusts, got.norms) == (
        expected.yaws, expected.stages, expected.thrusts, expected.norms)


_CUT_PARTS = nmpc._cost_parts


def _never_cut(x0, u, refs, cfg, params, cut=None):
    """``_cost_parts`` with every acceptance limit raised to infinity."""
    return _CUT_PARTS(x0, u, refs, cfg, params, cut and (math.inf, *cut[1:]))


@st.composite
def _merit_cases(draw):
    """A horizon case with a merit weight on the tilt excess."""
    x0, u, refs, period = draw(_horizon_cases())
    return x0, u, refs, period, draw(st.sampled_from([0.0, 1e-3, 1.0, 1e4, 1e10]))


def _step_qp(flight, refs, cfg, params):
    """The gradient, the tilt rows and the SQP step ``(d, mu, working, qp)``
    of a flight, as the first iteration of ``solve`` forms them."""
    a_steps, b_steps = nmpc._step_jacobians(flight, cfg.period, params)
    angles = nmpc._attitudes(flight.states)
    stack = nmpc._sensitivities(a_steps, b_steps)
    grad = nmpc._adjoint_gradient(flight.states, a_steps, b_steps, flight.u, refs, cfg)
    tilt = nmpc._tilt_rows(angles, stack, cfg)
    step = nmpc._gauss_newton_direction(flight.states, a_steps, b_steps, grad, cfg, None,
                                        None, None, 1e-9, angles, stack, tilt)
    return grad, tilt, step


class TestTrialCut:
    """A pass given an acceptance limit stops once its merit is certainly
    above it, and changes nothing at or below it.  Oracle: the same pass,
    search or solve with every limit at infinity."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=_merit_cases(), data=st.data())
    def test_cut_only_above_the_limit(self, case, data, ncfg, params):
        x0, u, refs, period, nu = case
        cfg = dataclasses.replace(ncfg, period=period)
        full = nmpc._cost_parts(x0, u, refs, cfg, params)
        if full is not None:
            value = nmpc._merit(full, nu)
            limits = [value, math.nextafter(value, -math.inf), math.nextafter(value, math.inf),
                      0.5 * value, (1.0 - 1e-6) * value, 2.0 * value, 0.0, -1.0]
        else:
            value = math.inf
            limits = [0.0, -1.0, 1e300]
        limit = data.draw(st.sampled_from(limits))
        got = nmpc._cost_parts(x0, u, refs, cfg, params, (limit, nu))
        if got is None:
            assert value > limit
        else:
            _same_parts(got, full)
        # Above the limit by more than the margin, the pass is always cut.
        if value > limit + 2e-9 * max(abs(limit), 1.0):
            assert got is None

    def test_cut_stops_the_flight(self, ncfg, params):
        x0, refs = random_instance(np.random.default_rng(11), ncfg)
        u = hover_inputs(ncfg.horizon)
        cut = (-1.0, 1e4)
        assert nmpc._horizon_pass(x0, u, refs, ncfg, params) is not None
        # No merit is below -1: the first step already settles it.
        assert nmpc._horizon_pass(x0, u, refs, ncfg, params, cut) is None
        assert nmpc._cost_parts(x0, u, refs, ncfg, params, cut) is None

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=_merit_cases(), kind=st.sampled_from(["sqp", "gradient", "random"]),
           noise=st.lists(_finite(-1.0, 1.0), min_size=32, max_size=32), data=st.data())
    def test_line_search_same_with_and_without_the_cut(self, case, kind, noise, data,
                                                        ncfg, params):
        x0, u, refs, period, nu = case
        cfg = dataclasses.replace(ncfg, period=period)
        n = u.shape[0]
        flight = nmpc._cost_parts(x0, u, refs, cfg, params)
        if flight is None:
            return
        grad, tilt, (d_sqp, _, working, qp) = _step_qp(flight, refs, cfg, params)
        if kind == "sqp":
            d = d_sqp
        elif kind == "gradient":
            d = -grad
        else:
            d = np.array(noise[: 4 * n]).reshape(n, 4)
        costs = [nmpc._merit(flight, nu)]
        # Also put the first trial on its Armijo bound, where a cut that is
        # a little too tight would reject it.
        trial = nmpc._project(u + d, cfg)
        first = nmpc._cost_parts(x0, trial, refs, cfg, params)
        if first is not None:
            gap = nmpc._model_decrease(u, trial, grad, tilt, nu)
            edge = nmpc._merit(first, nu) + nmpc._ARMIJO_SIGMA * gap
            costs += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
        cost = data.draw(st.sampled_from(costs))
        args = (x0, u, d, grad, cost, refs, cfg, params, tilt, nu)
        cut_tally, full_tally = Counter(), Counter()
        # Inputs near 1e160 can overflow the gap to inf, a bound no trial meets.
        with np.errstate(over="ignore"):
            got = nmpc._line_search(*args, cut_tally, qp, working)
            with mock.patch.object(nmpc, "_cost_parts", _never_cut):
                expected = nmpc._line_search(*args, full_tally, qp, working)
        assert cut_tally == full_tally
        if expected is None:
            assert got is None
            return
        assert got[1] == expected[1]
        assert np.array_equal(got[2], expected[2])
        _same_parts(got[0], expected[0])

    def _solve_both(self, x0, refs, warm, ncfg, params):
        got = solve(x0, refs, warm, ncfg, params)
        with mock.patch.object(nmpc, "_cost_parts", _never_cut):
            expected = solve(x0, refs, warm, ncfg, params)
        assert np.array_equal(got.u, expected.u)
        assert np.array_equal(got.states, expected.states)
        fields = ("cost", "iterations", "converged", "evaluations", "line_searches")
        assert [getattr(got, f) for f in fields] == [getattr(expected, f) for f in fields]
        return got

    @pytest.mark.parametrize("seed", range(4))
    def test_solve_same_with_and_without_the_cut(self, ncfg, params, seed):
        # Cold and warm solves, and a wild warm start the hover anchor beats.
        x0, refs = random_instance(np.random.default_rng(seed), ncfg)
        cold = self._solve_both(x0, refs, None, ncfg, params)
        shifted = np.vstack([cold.u[1:], cold.u[-1:]])
        self._solve_both(cold.states[1], refs, shifted, ncfg, params)
        wild = np.random.default_rng(seed).uniform(-3.0, 3.0, (ncfg.horizon, 4))
        self._solve_both(x0, refs, wild, ncfg, params)

    def test_anchor_beats_a_feasible_warm_start_under_its_cut(self, ncfg, params):
        # The warm start is tilt-feasible, so the anchor pass is cut at the
        # warm start's cost; hover costs less (37.5 against 57.3), so it
        # must not be cut, and the solve descends from it.
        x0 = hover_state((0.0, 0.0, 1.0)).as_vector()
        refs = hold_refs([0.0, 0.0, 1.5, 0.0], ncfg.horizon)
        warm = np.tile([-1.0, 0.0, 0.0, 0.0], (ncfg.horizon, 1))
        canon = [nmpc._penalty_cost(nmpc._cost_parts(x0, v, refs, ncfg, params),
                                    ncfg.tilt_weight)
                 for v in (hover_inputs(ncfg.horizon), warm)]
        assert 0.5 * canon[1] < canon[0] < canon[1]
        sol = self._solve_both(x0, refs, warm, ncfg, params)
        assert sol.cost < canon[0]


def _diverging_braking(*args):
    raise DivergenceError("braking sequence diverged")


_CORPUS = Path(__file__).resolve().parents[1] / "tools" / "solve_ab.py"


def _corpus_instance(k, horizon):
    """Instance ``k`` of ``tools/solve_ab.py``'s corpus as ``(x0, refs, warm)``."""
    spec = importlib.util.spec_from_file_location("solve_ab", _CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return list(corpus.instances(k + 1, horizon))[k]


class TestBrakingFallback:
    """A solve that stops with no tilt-feasible iterate blends its best
    iterate toward an attitude-braking sequence.  Oracle: the blends
    rebuilt from the best infeasible iterate and rolled out."""

    @staticmethod
    def _rolled_case(ncfg):
        # Corpus instance 4: a cold start, tilted and spinning, that one
        # iteration cannot bring inside the limit.
        cfg = dataclasses.replace(ncfg, max_iters=1)
        x0, refs, warm = _corpus_instance(4, cfg.horizon)
        assert warm is None
        return x0, refs, cfg

    def test_first_feasible_blend_is_returned(self, ncfg, params):
        x0, refs, cfg = self._rolled_case(ncfg)
        braking = nmpc._braking_inputs
        calls = []

        def counted(*args):
            calls.append(args)
            return braking(*args)

        with mock.patch.object(nmpc, "_braking_inputs", counted):
            sol = solve(x0, refs, None, cfg, params)
        assert len(calls) == 1
        assert not sol.converged
        assert worst_tilt(sol.states) < cfg.tilt_max
        with mock.patch.object(nmpc, "_braking_inputs", _diverging_braking):
            stuck = solve(x0, refs, None, cfg, params)
        brake = nmpc._project(braking(x0, cfg, params), cfg)
        for k in range(1, 9):
            blend = (1.0 - k / 8.0) * stuck.u + (k / 8.0) * brake
            states, outputs = rollout(x0, blend, cfg, params)
            if worst_tilt(states) - cfg.tilt_max <= 0.5 * nmpc._TILT_SLACK:
                break
        else:
            pytest.fail("no blend is inside the limit")
        assert np.array_equal(sol.u, blend)
        assert np.array_equal(sol.states, states)
        assert np.array_equal(sol.outputs, outputs)
        assert sol.cost == pytest.approx(canonical_cost(x0, blend, refs, cfg, params),
                                         rel=1e-12)
        assert sol.evaluations == stuck.evaluations + k

    def test_best_infeasible_iterate_when_braking_diverges(self, ncfg, params):
        x0, refs, cfg = self._rolled_case(ncfg)
        with mock.patch.object(nmpc, "_braking_inputs", _diverging_braking):
            sol = solve(x0, refs, None, cfg, params)
        assert not sol.converged
        assert worst_tilt(sol.states) > cfg.tilt_max + nmpc._TILT_SLACK
        states, outputs = rollout(x0, sol.u, cfg, params)
        assert np.array_equal(sol.states, states)
        assert np.array_equal(sol.outputs, outputs)
        assert sol.cost == pytest.approx(canonical_cost(x0, sol.u, refs, cfg, params),
                                         rel=1e-12)
        # The one line-search hit beats the (as infeasible) hover start.
        hover = canonical_cost(x0, hover_inputs(cfg.horizon), refs, cfg, params)
        assert sol.line_searches == 1 and sol.cost < hover


class TestSolverCounts:
    """``evaluations`` and ``line_searches`` are the passes and searches a
    solve made, ``reversals`` its accepted steps at a cosine below -0.9 with
    the one before, and ``anchor_wins`` whether it descended from hover.
    Oracle: counting wrappers around the cost pass and the line search,
    which see every searched iterate and every accepted one."""

    def test_counts_match_the_calls(self, ncfg, params, monkeypatch):
        calls = Counter()
        hover_passes, searches = [], []
        hover = hover_inputs(ncfg.horizon)

        def counted(name):
            inner = getattr(nmpc, name)

            def wrapper(*args):
                calls[name] += 1
                if name == "_cost_parts":
                    hover_passes.append(np.array_equal(args[1], hover))
                hit = inner(*args)
                if name == "_line_search":
                    searches.append((args[1], hit))
                return hit
            return wrapper

        def check(sol, warm_start):
            assert (sol.evaluations, sol.line_searches) == (calls["_cost_parts"],
                                                            calls["_line_search"])
            steps = [(hit[0].u - u).reshape(-1) for u, hit in searches if hit is not None]
            cosines = [a @ b / math.sqrt((a @ a) * (b @ b)) for a, b in zip(steps, steps[1:])]
            assert sol.reversals == sum(c < -0.9 for c in cosines)
            # The first search starts from the iterate the solve descends from.
            won = warm_start is not None and np.array_equal(searches[0][0], hover)
            assert sol.anchor_wins == won
            calls.clear()
            hover_passes.clear()
            searches.clear()

        for name in ("_cost_parts", "_line_search"):
            monkeypatch.setattr(nmpc, name, counted(name))
        x0, refs = random_instance(np.random.default_rng(4), ncfg)
        cold = solve(x0, refs, None, ncfg, params)
        # A cold start flies the hover anchor once, as its warm start.
        assert hover_passes[0] and sum(hover_passes) == 1
        assert cold.line_searches >= 1
        check(cold, None)
        warm = solve(cold.states[1], refs, np.vstack([cold.u[1:], cold.u[-1:]]), ncfg, params)
        assert sum(hover_passes) == 1
        check(warm, warm)
        # A wild warm start loses to the anchor; this cold start reverses once.
        wild = np.full((ncfg.horizon, 4), 2.0)
        anchored = solve(x0, refs, wild, ncfg, params)
        check(anchored, wild)
        assert anchored.anchor_wins == 1
        x0, refs = random_instance(np.random.default_rng(1), ncfg)
        reversing = solve(x0, refs, None, ncfg, params)
        check(reversing, None)
        assert reversing.reversals == 1

    def test_line_search_gives_up_at_the_step_floor(self, ncfg, params, monkeypatch):
        # Every trial is rejected, along a descent direction whose model
        # decrease alpha * |grad|^2 stays above the gap floor: the search
        # halves its step from 1 down to the step floor, then returns None.
        trials = []

        def rejected(x0, u, refs, cfg, params, cut=None):
            trials.append(u)
            return None

        monkeypatch.setattr(nmpc, "_cost_parts", rejected)
        n = ncfg.horizon
        u, grad = hover_inputs(n), np.ones((n, 4))
        tilt = (np.full(2 * n, -1.0), np.zeros((2 * n, 4 * n)))
        x0 = hover_state((0.0, 0.0, 1.0)).as_vector()
        refs = hold_refs([0.0, 0.0, 1.0, 0.0], n)
        tally = Counter()
        hit = nmpc._line_search(x0, u, -grad, grad, 1.0, refs, ncfg, params, tilt, 0.0,
                                tally, None, None)
        assert hit is None
        alphas = [0.5**k for k in range(64) if 0.5**k >= nmpc._ALPHA_FLOOR]
        assert tally == Counter(line_searches=1, evaluations=len(alphas))
        assert [float(-trial[0, 0]) for trial in trials] == alphas


class TestMeritWeight:
    """The merit's weight on the tilt excess starts at zero in each solve
    and rises to twice the largest QP multiplier seen so far.  Oracle: the
    multipliers each SQP step returns, and the weight and merit each line
    search gets, the merit from the iterate flown again by ``_cost_parts``."""

    def test_weight_is_twice_the_largest_multiplier_so_far(self, ncfg, params):
        # At rest, a goal 3.2 m away under a 0.2 rad tilt limit, so the
        # step's tilt rows bind; then a climb whose rows never bind.
        cfg = dataclasses.replace(ncfg, tilt_max=0.2)
        x0 = hover_state((0.0, 0.0, 5.0)).as_vector()
        step, search = nmpc._gauss_newton_direction, nmpc._line_search
        events = []

        def stepped(*args):
            # A correction reuses its step's factors, so each call is a step.
            result = step(*args)
            events.append(("step", result[1]))
            return result

        def searched(*args):
            events.append(("search", args[1], args[4], args[9]))
            return search(*args)

        weights = []
        for goal in ([3.0, 1.0, 5.0, 0.0], [0.0, 0.0, 5.5, 0.0]):
            refs = hold_refs(goal, cfg.horizon)
            events.clear()
            with mock.patch.object(nmpc, "_gauss_newton_direction", stepped), \
                    mock.patch.object(nmpc, "_line_search", searched):
                assert solve(x0, refs, None, cfg, params).converged
            nu, searches = 0.0, []
            for event in events:
                if event[0] == "step":
                    nu = max(nu, 2.0 * event[1].max())
                    continue
                _, u, cost, got = event
                assert got == nu
                assert cost == nmpc._merit(nmpc._cost_parts(x0, u, refs, cfg, params), nu)
                searches.append(got)
            weights.append(searches)
        # The weight rises in the first solve and does not carry over.
        assert len(weights[0]) >= 3 and max(weights[0]) > 0.0
        assert weights[1] and max(weights[1]) == 0.0

    def test_corpus_instance_22_converges(self, ncfg, params):
        # A cold start, tilted and spinning; a stage rule that also raised
        # the weight on every stalled stage ended here unconverged after 50
        # iterations at cost 6,088.8.
        x0, refs, warm = _corpus_instance(22, ncfg.horizon)
        assert warm is None
        sol = solve(x0, refs, warm, ncfg, params)
        assert sol.converged and sol.iterations < ncfg.max_iters
        assert worst_tilt(sol.states) <= ncfg.tilt_max + nmpc._TILT_SLACK
        assert sol.cost < 5_800.0

    def test_corpus_instance_122_converges(self, ncfg, params):
        # A warm start, tilted and spinning; the penalty stages this step
        # replaced ended here unconverged after 50 iterations at cost
        # 9,357.6.
        x0, refs, warm = _corpus_instance(122, ncfg.horizon)
        sol = solve(x0, refs, warm, ncfg, params)
        assert sol.converged and sol.iterations < ncfg.max_iters
        assert worst_tilt(sol.states) <= ncfg.tilt_max + nmpc._TILT_SLACK
        assert sol.cost < 9_000.0


class TestQpReuse:
    """Each SQP step solves ``H d0 = -g`` once and forms its QP factors at
    most once, when a row first binds; its correction and the next step's
    loop start where the last QP ended.  Oracles: spies on the step, the
    search and every linear solve, and the same solve with every QP started
    cold."""

    @staticmethod
    def _binding(ncfg):
        # At rest, a goal 3.2 m away under a 0.2 rad tilt limit: the rows
        # bind, and 17 full steps are corrected.
        cfg = dataclasses.replace(ncfg, tilt_max=0.2)
        x0 = hover_state((0.0, 0.0, 5.0)).as_vector()
        return cfg, x0, hold_refs([3.0, 1.0, 5.0, 0.0], cfg.horizon)

    def test_corrections_reuse_the_step_factors(self, ncfg, params, monkeypatch):
        """A correction runs the active-set loop on its step's factors: no
        step is formed inside a line search, and the only linear systems
        solved there are the loop's Schur blocks, so no ``H`` is factored
        (every corrected step here has a binding row, so its factors exist).
        The counts of corrections and passes match the calls."""
        cfg, x0, refs = self._binding(ncfg)
        step, search, linsolve = nmpc._gauss_newton_direction, nmpc._line_search, np.linalg.solve
        searching, systems, calls = [], [], Counter()

        def stepped(*args):
            assert not searching, "a line search formed a step"
            d, mu, working, qp = step(*args)

            def corrected(*qp_args):
                calls["corrections"] += 1
                return qp(*qp_args)
            return d, mu, working, corrected

        def searched(*args):
            searching.append(True)
            try:
                return search(*args)
            finally:
                searching.pop()

        def solved(a, b):
            if searching:
                systems.append((a.shape, b.shape))
            return linsolve(a, b)

        monkeypatch.setattr(nmpc, "_gauss_newton_direction", stepped)
        monkeypatch.setattr(nmpc, "_line_search", searched)
        monkeypatch.setattr(np.linalg, "solve", solved)
        sol = solve(x0, refs, None, cfg, params)
        assert sol.converged and sol.corrections == calls["corrections"] >= 1
        assert systems and all(len(rhs) == 1 and lhs[0] <= 2 * cfg.horizon
                               for lhs, rhs in systems)
        assert sol.qp_passes >= sol.iterations + sol.corrections

    @staticmethod
    def _free_step(ncfg, params, monkeypatch):
        """A step at rest toward a goal 0.1 m away under the default tilt
        limit, where no row binds, with a log of the shapes of every linear
        system solved."""
        x0 = hover_state((0.0, 0.0, 5.0)).as_vector()
        refs = hold_refs([0.1, 0.0, 5.0, 0.0], ncfg.horizon)
        flight = nmpc._cost_parts(x0, hover_inputs(ncfg.horizon), refs, ncfg, params)
        linsolve, systems = np.linalg.solve, []

        def solved(a, b):
            systems.append((a.shape, b.shape))
            return linsolve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solved)
        tally = Counter()
        a_steps, b_steps = nmpc._step_jacobians(flight, ncfg.period, params)
        grad = nmpc._adjoint_gradient(flight.states, a_steps, b_steps, flight.u, refs, ncfg)
        args = (flight.states, a_steps, b_steps, grad, ncfg, None, None, None, 1e-9)
        return args, tally, systems

    def test_a_step_with_no_binding_row_solves_once(self, ncfg, params, monkeypatch):
        """Rows that neither bind at ``d0`` nor start in the working set do
        not enter the KKT system: the step is ``d0`` from one solve with one
        right-hand side, in one pass, with no multiplier and no working row."""
        args, tally, systems = self._free_step(ncfg, params, monkeypatch)
        d, mu, working, qp = nmpc._gauss_newton_direction(*args, tally=tally)
        m = d.size
        assert systems == [((m, m), (m,))]
        assert d.any() and not mu.any() and not working.any() and qp is not None
        assert tally["qp_passes"] == 1
        h_mat = nmpc._gn_hessian(nmpc._attitudes(args[0]), nmpc._sensitivities(*args[1:3]),
                                 ncfg, 1e-9)
        assert np.array_equal(d.reshape(-1), np.linalg.solve(h_mat, -args[3].reshape(-1)))

    def test_a_binding_correction_forms_the_factors_once(self, ncfg, params, monkeypatch):
        """A correction through a free step's ``qp`` that makes rows bind
        forms ``H^-1 A^T`` once, at its first binding call, and gives the
        bytes of the same call on a second step of the same QP whose factors
        a binding call formed first."""
        args, tally, systems = self._free_step(ncfg, params, monkeypatch)
        d, _, working, qp = nmpc._gauss_newton_direction(*args, tally=tally)
        slack, a_mat = nmpc._tilt_rows(nmpc._attitudes(args[0]),
                                       nmpc._sensitivities(*args[1:3]), ncfg)
        m = d.size
        at_d = a_mat @ d.reshape(-1)
        binding = []
        for rows in ([0, 1], [2]):  # Rows violated by 1e-3 at d0.
            bind = slack.copy()
            bind[rows] = 1e-3 - at_d[rows]
            binding.append(bind)
        del systems[:]
        got = [qp(bind, working) for bind in binding]
        factored = [rhs for lhs, rhs in systems if lhs == (m, m)]
        assert factored == [(m, a_mat.shape[0])]
        assert all(g[1].any() and g[2].any() for g in got)
        # A second step whose factors the second slack formed first.
        _, _, _, again = nmpc._gauss_newton_direction(*args)
        again(binding[1], working)
        expected = again(binding[0], working)
        assert np.array_equal(got[0][0], expected[0]) and np.array_equal(got[0][1], expected[1])
        assert np.array_equal(got[0][2], expected[2])

    def test_a_step_holds_no_reference_cycle(self, ncfg, params):
        """Dropping a step frees its factors at once, with the collector off:
        a cycle through the QP would keep every iterate's factors until a
        collection (on ``dash_nmpc`` it raised the peak RSS by 0.9 MB)."""
        cfg, x0, refs = self._binding(ncfg)
        flight = nmpc._cost_parts(x0, hover_inputs(cfg.horizon), refs, cfg, params)
        _, tilt, step = _step_qp(flight, refs, cfg, params)
        step[3](tilt[0], step[2])
        qp = weakref.ref(step[3])
        gc.disable()
        try:
            del step
            assert qp() is None
        finally:
            gc.enable()

    def test_warm_starts_change_no_byte_and_save_passes(self, ncfg, params, monkeypatch):
        cfg, x0, refs = self._binding(ncfg)
        warm = solve(x0, refs, None, cfg, params)
        step = nmpc._gauss_newton_direction

        def cold(*args):
            # solve passes the start working set 13th.
            d, mu, working, qp = step(*args[:12], None, *args[13:])
            return d, mu, working, lambda slack, start: qp(slack, None)

        monkeypatch.setattr(nmpc, "_gauss_newton_direction", cold)
        expected = solve(x0, refs, None, cfg, params)
        assert np.array_equal(warm.u, expected.u)
        assert np.array_equal(warm.states, expected.states)
        fields = ("cost", "iterations", "converged", "evaluations", "line_searches",
                  "corrections")
        assert [getattr(warm, f) for f in fields] == [getattr(expected, f) for f in fields]
        # 142 passes against 265 here.
        assert warm.qp_passes < 0.6 * expected.qp_passes


@st.composite
def _hard_solves(draw):
    """A solve that takes several iterations: a tilted, spinning, moving
    state, a goal up to 6 m away and a tight or the default tilt limit,
    started cold or from a random warm start, at a budget of 15."""
    euler = EulerAngles(*draw(st.lists(_finite(-0.6, 0.6), min_size=3, max_size=3)))
    x0 = np.array([
        0.0, 0.0, 5.0,
        *draw(st.lists(_finite(-3.0, 3.0), min_size=3, max_size=3)),
        *euler_to_quat(euler),
        *draw(st.lists(_finite(-1.5, 1.5), min_size=3, max_size=3)),
    ])
    goal = [*draw(st.lists(_finite(-6.0, 6.0), min_size=2, max_size=2)),
            draw(_finite(2.0, 8.0)), draw(_finite(-2.0, 2.0))]
    cfg = NmpcConfig(tilt_max=draw(st.sampled_from([0.2, math.pi / 6])), max_iters=15)
    warm = draw(st.one_of(st.none(), st.just(0.5), st.just(2.0)))
    if warm is not None:
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        warm = rng.uniform(-warm, warm, (cfg.horizon, 4))
    return x0, hold_refs(goal, cfg.horizon), warm, cfg


def _dgw(secant, h_gn, s, y):
    """Dennis, Gay & Welsch's update with NL2SOL's sizing, written out as
    the paper states it: the term after step ``s``, or ``secant`` kept."""
    ys = y @ s
    if ys <= 0.0:
        return secant
    if secant is None:
        secant = np.zeros_like(h_gn)
    y_sharp = y - h_gn @ s
    curv = abs(s @ secant @ s)
    t = min(1.0, abs(s @ y_sharp) / curv) if curv > 0.0 else 1.0
    v = y_sharp - t * secant @ s
    return (t * secant + (np.outer(v, y) + np.outer(y, v)) / ys
            - (v @ s) * np.outer(y, y) / ys**2)


class TestSecantTerm:
    """The QP of each SQP step after the first uses ``H = H_GN + S``, with
    ``S`` a per-solve structured secant term (Dennis-Gay-Welsch).  Oracles:
    the secant equation ``(H_GN + S) s = y`` with ``y`` the change of the
    Lagrangian's gradient, rebuilt here from the steps' own gradients, rows
    and multipliers; the update written out as the paper states it;
    ``np.linalg.cholesky``; and the same solves with the term disabled."""

    @staticmethod
    def _spied(monkeypatch):
        """Spies on the update and the step; returns their event list."""
        update, step = nmpc._secant_update, nmpc._gauss_newton_direction
        events = []

        def updated(secant, h_gn, s, y):
            h_mat, new = update(secant, h_gn, s, y)
            events.append(("update", secant, new, h_gn, s, y, h_mat))
            return h_mat, new

        def stepped(*args):
            result = step(*args)
            events.append(("step", args, result))
            return result

        monkeypatch.setattr(nmpc, "_secant_update", updated)
        monkeypatch.setattr(nmpc, "_gauss_newton_direction", stepped)
        return events

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(case=_hard_solves())
    def test_a_taken_update_meets_the_secant_equation(self, case, params):
        x0, refs, warm, cfg = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            events = self._spied(monkeypatch)
            nmpc.solve(x0, refs, warm, cfg, params)
        steps = [e[1:] for e in events if e[0] == "step"]
        updates = [e[1:] for e in events if e[0] == "update"]
        # One update before every step after the first.
        assert len(updates) == len(steps) - 1
        for (args, (_, mu, _, _)), (after, _), (given, new, h_gn, s, y, _) in zip(
                steps, steps[1:], updates):
            # y: the Lagrangian gradient's change along s at the step's mu.
            grad, rows = args[3].reshape(-1), args[11][1]
            assert np.array_equal(y, after[3].reshape(-1) + after[11][1].T @ mu
                                  - (grad + rows.T @ mu))
            if y @ s <= 0.0:
                assert new is given or new is None
            elif new is not None:
                residual = np.linalg.norm((h_gn + new) @ s - y)
                assert residual <= 1e-9 * np.linalg.norm(y)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(case=_hard_solves())
    def test_every_qp_matrix_is_positive_definite(self, case, params):
        x0, refs, warm, cfg = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            events = self._spied(monkeypatch)
            nmpc.solve(x0, refs, warm, cfg, params)
        for before, event in zip([None, *events], events):
            if event[0] == "step":
                np.linalg.cholesky(event[1][14])
                if before is not None:  # The matrix the update just returned.
                    assert before[0] == "update" and event[1][14] is before[6]

    def test_the_update_is_dgw_and_an_indefinite_term_is_dropped(self, ncfg, params,
                                                                  monkeypatch):
        """Each update is the paper's formula; where ``H_GN + S`` is not
        positive definite the QP uses ``H_GN`` alone and the next update
        starts from the zero term."""
        x0, refs = random_instance(np.random.default_rng(2), ncfg)
        events = self._spied(monkeypatch)
        assert solve(x0, refs, None, ncfg, params).iterations >= 3
        secant, taken, dropped = None, 0, 0
        for kind, *rest in events:
            if kind == "step":
                continue
            given, new, h_gn, s, y, h_mat = rest
            assert given is secant
            expected = _dgw(secant, h_gn, s, y)
            try:
                np.linalg.cholesky(h_gn + expected)
            except np.linalg.LinAlgError:
                assert new is None and h_mat is h_gn
                dropped += 1
            else:
                scale = np.abs(expected).max()
                assert np.allclose(new, expected, rtol=0.0, atol=1e-12 * scale)
                assert np.array_equal(h_mat, h_gn + new)
                taken += 1
            secant = new
        assert taken >= 3 and dropped >= 1

    def test_one_iteration_solves_keep_their_bytes(self, cfg, ncfg, params, monkeypatch):
        """The first QP of a solve uses ``H_GN`` alone, so a solve that stops
        after one iteration is the solve with the term disabled, byte for
        byte, and every solve's first step is too."""
        ctl = NmpcController(cfg)
        x = hover_state((0.0, 0.0, 1.0)).as_vector()
        x[3:6] = (0.4, -0.2, 0.1)
        problems = []
        for i in range(30):
            refs = np.array([[0.4 * (i + j + 1) * ncfg.period, 0.0, 1.0, 0.0]
                             for j in range(ncfg.horizon)])
            problems.append((x, refs, ctl._warm))
            ctl.step(x, refs)
            x = ctl.last_solution.states[1]
        step = nmpc._gauss_newton_direction
        firsts = []

        def stepped(*args):
            result = step(*args)
            if args[12] is None:  # The first QP of a solve starts cold, on H_GN.
                assert np.array_equal(args[14], nmpc._gn_hessian(args[9], args[10], ncfg, 1e-9))
                firsts.append(result[:3])
            return result

        monkeypatch.setattr(nmpc, "_gauss_newton_direction", stepped)
        with_term = [solve(*problem, ncfg, params) for problem in problems]
        monkeypatch.setattr(nmpc, "_secant_update", lambda secant, h_gn, *args: (h_gn, None))
        without = [solve(*problem, ncfg, params) for problem in problems]
        fields = [f.name for f in dataclasses.fields(nmpc.NmpcSolution)]
        singles = [(a, b) for a, b in zip(with_term, without) if a.iterations == 1]
        assert singles and max(a.iterations for a in with_term) >= 3
        for a, b in singles:
            for name in fields:
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert len(firsts) == 2 * len(problems)
        for a, b in zip(firsts, firsts[len(problems):]):
            assert all(np.array_equal(p, q) for p, q in zip(a, b))


class TestEvaluateCost:
    def test_single_step_unit_weights(self):
        # One step, identity weights, unit x error and zero input: J = 1.
        unit = NmpcConfig(q_x=1.0, q_y=1.0, q_z=1.0, q_yaw=1.0,
                          r_c=1.0, r_roll=1.0, r_pitch=1.0, r_yaw=1.0)
        j = evaluate_cost(
            np.array([[1.0, 0.0, 0.0, 0.0]]),
            np.zeros((1, 4)),
            np.zeros((1, 4)),
            unit,
        )
        assert j == 1.0

    def test_matches_double_loop(self, ncfg):
        rng = np.random.default_rng(5)
        outputs = rng.uniform(-4, 4, (ncfg.horizon, 4))
        refs = rng.uniform(-4, 4, (ncfg.horizon, 4))
        u = rng.uniform(-2, 2, (ncfg.horizon, 4))
        expected = 0.0
        q = [ncfg.q_x, ncfg.q_y, ncfg.q_z, ncfg.q_yaw]
        r = [ncfg.r_c, ncfg.r_roll, ncfg.r_pitch, ncfg.r_yaw]
        for j in range(ncfg.horizon):
            for k in range(4):
                err = outputs[j, k] - refs[j, k]
                if k == 3:
                    err = wrap_angle(err)
                expected += q[k] * err * err + r[k] * u[j, k] * u[j, k]
        assert evaluate_cost(outputs, refs, u, ncfg) == pytest.approx(expected, rel=1e-12)

    def test_yaw_error_wrapped(self, ncfg):
        outputs = np.array([[0.0, 0.0, 0.0, 3.1]])
        refs = np.array([[0.0, 0.0, 0.0, -3.1]])
        err = wrap_angle(6.2)
        expected = ncfg.q_yaw * err * err
        j = evaluate_cost(outputs, refs, np.zeros((1, 4)), ncfg)
        assert j == pytest.approx(expected, rel=1e-12)
        assert j < ncfg.q_yaw * 6.2 * 6.2 / 100.0

    def test_shape_mismatch_raises(self, ncfg):
        with pytest.raises(ValueError):
            evaluate_cost(np.zeros((3, 4)), np.zeros((2, 4)), np.zeros((3, 4)), ncfg)


class TestTiltPenalty:
    def test_zero_inside_limit(self, ncfg):
        x = hover_state((0.0, 0.0, 1.0)).as_vector()
        states = np.tile(x, (4, 1))
        assert tilt_penalty(states, ncfg) == 0.0

    def test_quadratic_beyond_limit(self, ncfg):
        # One predicted state with roll 0.6 rad; the initial row never counts.
        x = hover_state((0.0, 0.0, 1.0)).as_vector()
        tilted = x.copy()
        tilted[QUAT_SLICE] = euler_to_quat(EulerAngles(0.6, 0.0, 0.0))
        states = np.vstack([tilted, tilted])
        over = 0.6 - ncfg.tilt_max
        assert tilt_penalty(states, ncfg) == pytest.approx(
            ncfg.tilt_weight * over * over, rel=1e-9
        )

    def test_roll_and_pitch_both_counted(self, ncfg):
        x = hover_state((0.0, 0.0, 1.0)).as_vector()
        tilted = x.copy()
        tilted[QUAT_SLICE] = euler_to_quat(EulerAngles(0.6, -0.58, 0.0))
        states = np.vstack([x, tilted])
        roll, pitch = quat_roll_pitch(tilted[QUAT_SLICE])
        expected = ncfg.tilt_weight * (
            (abs(roll) - ncfg.tilt_max) ** 2 + (abs(pitch) - ncfg.tilt_max) ** 2
        )
        assert tilt_penalty(states, ncfg) == pytest.approx(expected, rel=1e-6)


class TestCostGradient:
    def test_matches_central_differences(self, ncfg, params):
        rng = np.random.default_rng(42)
        eps = 1e-6
        worst = 0.0
        for _ in range(20):
            pos = rng.uniform(-2, 2, 3)
            vel = rng.uniform(-1, 1, 3)
            e = EulerAngles(*rng.uniform(-0.45, 0.45, 3))
            omega = rng.uniform(-0.5, 0.5, 3)
            x0 = np.concatenate([pos, vel, euler_to_quat(e), omega])
            refs = hold_refs([0.0, 0.0, 1.0, 0.3], ncfg.horizon)
            u = rng.uniform(-1, 1, (ncfg.horizon, 4))
            u[:, 0] = rng.uniform(-2, 4, ncfg.horizon)
            grad = cost_gradient(x0, u, refs, ncfg, params)
            g_fd = np.empty_like(grad)
            for j in range(ncfg.horizon):
                for k in range(4):
                    up = u.copy()
                    um = u.copy()
                    up[j, k] += eps
                    um[j, k] -= eps
                    _, op = rollout(x0, up, ncfg, params)
                    _, om = rollout(x0, um, ncfg, params)
                    g_fd[j, k] = (
                        evaluate_cost(op, refs, up, ncfg)
                        - evaluate_cost(om, refs, um, ncfg)
                    ) / (2 * eps)
            rel = np.abs(grad - g_fd) / np.maximum(np.abs(g_fd), 1.0)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-4

    def test_effort_only_gradient_exact(self, params):
        # With Q = 0 the objective is sum r_k u_k^2, so the gradient is
        # 2 R u regardless of the dynamics.
        quiet = NmpcConfig(q_x=0.0, q_y=0.0, q_z=0.0, q_yaw=0.0)
        rng = np.random.default_rng(9)
        x0 = hover_state((0.0, 0.0, 2.0)).as_vector()
        u = rng.uniform(-2, 2, (quiet.horizon, 4))
        refs = hold_refs([0.0, 0.0, 0.0, 0.0], quiet.horizon)
        grad = cost_gradient(x0, u, refs, quiet, params)
        assert np.allclose(grad, 2.0 * u * quiet.r_diag, rtol=1e-12, atol=1e-12)

    def test_zero_at_hover_fixed_point(self, ncfg, params):
        x0 = hover_state((0.0, 0.0, 1.0)).as_vector()
        refs = hold_refs([0.0, 0.0, 1.0, 0.0], ncfg.horizon)
        grad = cost_gradient(x0, hover_inputs(ncfg.horizon), refs, ncfg, params)
        assert np.all(grad == 0.0)


@st.composite
def _smooth_cases(draw):
    """A moderate 1-8 step horizon under a tight or a loose tilt limit."""
    n = draw(st.integers(1, 8))
    euler = EulerAngles(*draw(st.lists(_finite(-0.5, 0.5), min_size=3, max_size=3)))
    x0 = np.array([
        *draw(st.lists(_finite(-2.0, 2.0), min_size=3, max_size=3)),
        *draw(st.lists(_finite(-1.0, 1.0), min_size=3, max_size=3)),
        *euler_to_quat(euler),
        *draw(st.lists(_finite(-0.5, 0.5), min_size=3, max_size=3)),
    ])
    u = np.array(draw(st.lists(_finite(-1.0, 1.0), min_size=4 * n, max_size=4 * n)))
    u = u.reshape(n, 4) * [3.0, 0.05, 0.05, 0.05]
    refs = np.array(draw(st.lists(_finite(-3.0, 3.0), min_size=4 * n, max_size=4 * n)))
    tilt_max = draw(st.one_of(_finite(0.01, 0.2), st.just(1.2)))
    return x0, u, refs.reshape(n, 4), tilt_max


def _tilt_qp(flight, a_steps, b_steps, grad, cfg, damping):
    """The step's QP built step by step from the forward recursion:
    ``min g.d + d.H.d / 2`` subject to ``s + A d <= 0``, one row per roll and
    pitch term, as ``(H, g, s, A)``."""
    values, d_angles = nmpc._attitudes(flight.states)
    n, m = grad.shape[0], grad.size
    h_mat = np.diag(2.0 * np.tile(cfg.r_diag, n)) + damping * np.eye(m)
    # Each row signed so that row . d is the linearized change of the slack.
    rows = np.empty((n, 2, m))
    sens = np.zeros((13, m))
    for j in range(n):
        sens = a_steps[j] @ sens
        sens[:, 4 * j : 4 * j + 4] += b_steps[j]
        for i, q in enumerate(cfg.q_diag[:3]):
            h_mat += 2.0 * q * np.outer(sens[i], sens[i])
        yaw_row = d_angles[j, 0] @ sens[QUAT_SLICE]
        h_mat += 2.0 * cfg.q_yaw * np.outer(yaw_row, yaw_row)
        for k in (1, 2):
            row = d_angles[j, k] @ sens[QUAT_SLICE]
            rows[j, k - 1] = math.copysign(1.0, values[j, k]) * row
    slack = np.abs(values[:, 1:]) - cfg.tilt_max
    return h_mat, grad.reshape(m), slack.reshape(2 * n), rows.reshape(2 * n, m)


class TestSensitivityStack:
    """One forward-sensitivity stack feeds the gradient, the tilt rows and
    the Gauss-Newton matrix.  Oracles: central differences of the tracking
    cost, a backward costate recursion, and the KKT conditions of the
    step's QP built step by step from the forward recursion, each written
    out here, with scipy's SLSQP solving the same QP independently."""

    @staticmethod
    def _setup(case, ncfg, params):
        x0, u, refs, tilt_max = case
        cfg = dataclasses.replace(ncfg, tilt_max=tilt_max)
        flight = nmpc._horizon_pass(x0, u, refs, cfg, params)
        a_steps, b_steps = nmpc._step_jacobians(flight, cfg.period, params)
        grad = nmpc._adjoint_gradient(flight.states, a_steps, b_steps, u, refs, cfg)
        return cfg, flight, a_steps, b_steps, grad

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=_smooth_cases())
    def test_gradient_matches_central_differences(self, case, ncfg, params):
        x0, u, refs, _ = case
        cfg, flight, _, _, grad = self._setup(case, ncfg, params)
        # Stay off the yaw wrap, which a difference quotient cannot cross.
        values, _ = nmpc._attitudes(flight.states)
        yaw_err = [wrap_angle(e) for e in values[:, 0] - refs[:, 3]]
        assume(max(map(abs, yaw_err)) < 3.0)

        def value(v):
            return nmpc._horizon_pass(x0, v, refs, cfg, params).tracking

        eps = 1e-6
        g_fd = np.empty_like(grad)
        for j, k in np.ndindex(*u.shape):
            step = np.zeros_like(u)
            step[j, k] = eps
            g_fd[j, k] = (value(u + step) - value(u - step)) / (2.0 * eps)
        scale = max(1.0, float(np.abs(g_fd).max()))
        assert np.abs(grad - g_fd).max() <= 1e-5 * scale

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=_smooth_cases())
    def test_gradient_matches_a_backward_costate_recursion(self, case, ncfg, params):
        _, u, refs, _ = case
        cfg, flight, a_steps, b_steps, grad = self._setup(case, ncfg, params)
        values, d_angles = nmpc._attitudes(flight.states)
        # lam_j = g_j + A_j^T lam_{j+1}, backwards; the input gradient of
        # step j is B_j^T lam_j.
        expected = np.empty_like(u)
        lam = np.zeros(13)
        for j in reversed(range(u.shape[0])):
            x = flight.states[j + 1]
            g = np.zeros(13)
            g[:3] = 2.0 * cfg.q_diag[:3] * (x[:3] - refs[j, :3])
            yaw_err = wrap_angle(values[j, 0] - refs[j, 3])
            g[QUAT_SLICE] = 2.0 * cfg.q_yaw * yaw_err * d_angles[j, 0]
            lam = lam + g
            expected[j] = 2.0 * cfg.r_diag * u[j] + b_steps[j].T @ lam
            lam = a_steps[j].T @ lam
        assert np.abs(grad - expected).max() <= 1e-12 * np.abs(expected).max()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=_smooth_cases(), damping=st.sampled_from([1e-9, 1e-3, 1.0]))
    def test_direction_is_the_kkt_point_of_the_tilt_qp(self, case, damping, ncfg, params):
        cfg, flight, a_steps, b_steps, grad = self._setup(case, ncfg, params)
        h_mat, g, slack, rows = _tilt_qp(flight, a_steps, b_steps, grad, cfg, damping)
        d, mu, _, _ = nmpc._gauss_newton_direction(flight.states, a_steps, b_steps, grad, cfg,
                                                   None, None, None, damping)
        d = d.reshape(-1)
        working = mu != 0.0
        # Stationarity: H d + g + A^T mu = 0.
        terms = (h_mat @ d, g, rows.T @ mu)
        scale = max(float(np.abs(t).max()) for t in terms)
        assert np.abs(sum(terms)).max() <= 1e-9 * max(scale, 1.0)
        # The working rows hold as equalities, with non-negative
        # multipliers; the other rows hold.
        moved = slack + rows @ d
        tol = 1e-9 * max(1.0, float(np.abs(slack).max()), float(np.abs(rows @ d).max()))
        assert np.all(mu >= 0.0)
        assert np.abs(moved[working]).max(initial=0.0) <= tol
        assert moved[~working].max(initial=-1.0) <= tol

        # The QP is strictly convex, so SLSQP must find the same minimizer;
        # it starts from the unconstrained one.
        def objective(v):
            return 0.5 * v @ h_mat @ v + g @ v

        oracle = minimize(objective, np.linalg.solve(h_mat, -g), jac=lambda v: h_mat @ v + g,
                          method="SLSQP", options={"ftol": 1e-10, "maxiter": 1000},
                          constraints=[{"type": "ineq", "fun": lambda v: -(slack + rows @ v),
                                        "jac": lambda v: -rows}])
        assert oracle.success
        assert objective(d) <= objective(oracle.x) + 1e-8 * max(1.0, abs(objective(d)))
        assert np.abs(d - oracle.x).max() <= 1e-4 * max(1.0, float(np.abs(d).max()))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=_smooth_cases(), data=st.data())
    def test_warm_starts_and_corrections_give_the_cold_bytes(self, case, data, ncfg, params):
        """From any start working set the step and multipliers are the cold
        start's bit for bit; from the cold loop's final set the loop ends
        in one pass; and a correction through the step's factors is a fresh
        step at the corrected slack."""
        x0, u, refs, _ = case
        cfg, flight, a_steps, b_steps, grad = self._setup(case, ncfg, params)
        args = (flight.states, a_steps, b_steps, grad, cfg, None, None, None, 1e-9)
        d, mu, working, qp = nmpc._gauss_newton_direction(*args)
        rows = 2 * u.shape[0]
        start = np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
        for begin in (start, working):
            tally = Counter()
            warm = nmpc._gauss_newton_direction(*args, start=begin, tally=tally)
            assert np.array_equal(warm[0], d) and np.array_equal(warm[1], mu)
            assert np.array_equal(warm[2], working)
        # The last start was the final set; a zero step may be a failed loop.
        assert tally["qp_passes"] == 1 or not (d.any() or mu.any())
        # The slack at the full step, flown, less the step's linear part.
        _, a_mat = nmpc._tilt_rows(nmpc._attitudes(flight.states),
                                   nmpc._sensitivities(a_steps, b_steps), cfg)
        trial = nmpc._project(u + d, cfg)
        flown = nmpc._cost_parts(x0, trial, refs, cfg, params)
        assume(flown is not None)
        true = np.column_stack((flown.g_roll, flown.g_pitch)).reshape(-1)
        corrected = true - a_mat @ (trial - u).reshape(-1)
        fresh = nmpc._gauss_newton_direction(*args, tilt=(corrected, a_mat))
        for begin in (None, start, working):
            got = qp(corrected, begin)
            assert np.array_equal(got[0], fresh[0]) and np.array_equal(got[1], fresh[1])

    def test_singular_working_rows_give_no_step(self, ncfg):
        """With zero Jacobians no input moves the tilt, so every row of a
        state past the limit is in the working set with an all-zero Schur
        block: the solve fails and the step is zero."""
        n = 3
        x = hover_state((0.0, 0.0, 5.0)).as_vector()
        x[QUAT_SLICE] = euler_to_quat(EulerAngles(ncfg.tilt_max + 0.2, 0.0, 0.0))
        d, mu, working, qp = nmpc._gauss_newton_direction(
            np.tile(x, (n + 1, 1)), np.zeros((n, 13, 13)), np.zeros((n, 13, 4)),
            np.ones((n, 4)), ncfg, None, None, None, 1e-9)
        assert np.array_equal(d, np.zeros((n, 4)))
        assert np.array_equal(mu, np.zeros(2 * n))
        assert np.array_equal(working, np.tile([True, False], n)) and qp is not None
        # A warm start meets the same dependent rows, runs again cold and
        # also gives no step.
        tally = Counter()
        again = nmpc._gauss_newton_direction(
            np.tile(x, (n + 1, 1)), np.zeros((n, 13, 13)), np.zeros((n, 13, 4)),
            np.ones((n, 4)), ncfg, None, None, None, 1e-9, start=~working, tally=tally)
        assert np.array_equal(again[0], d) and np.array_equal(again[1], mu)
        assert tally["qp_passes"] == 2

    def test_singular_h_gives_no_step(self, ncfg):
        """With no weights, no damping and zero Jacobians ``H`` is all zero:
        its factorization fails, the step is zero and there is no QP to
        correct with."""
        n = 3
        cfg = dataclasses.replace(ncfg, r_c=0.0, r_roll=0.0, r_pitch=0.0, r_yaw=0.0)
        x = hover_state((0.0, 0.0, 5.0)).as_vector()
        tally = Counter()
        d, mu, working, qp = nmpc._gauss_newton_direction(
            np.tile(x, (n + 1, 1)), np.zeros((n, 13, 13)), np.zeros((n, 13, 4)),
            np.ones((n, 4)), cfg, None, None, None, 0.0, tally=tally)
        assert np.array_equal(d, np.zeros((n, 4)))
        assert np.array_equal(mu, np.zeros(2 * n))
        assert working is None and qp is None
        assert tally["qp_passes"] == 0


class TestSolve:
    def test_hover_fixed_point(self, ncfg, params):
        x0 = hover_state((0.0, 0.0, 1.0)).as_vector()
        refs = hold_refs([0.0, 0.0, 1.0, 0.0], ncfg.horizon)
        sol = solve(x0, refs, None, ncfg, params)
        assert sol.converged
        assert sol.cost == 0.0
        assert np.all(sol.u == 0.0)
        assert sol.first_input.c == pytest.approx(G, abs=1e-12)
        assert np.all(sol.first_input.torque == 0.0)

    def test_hover_fixed_point_ends_without_a_search(self, ncfg, params):
        # Zero gradient, so the Gauss-Newton model predicts no decrease: one
        # iteration, one pass (the cold start flies the hover anchor once)
        # and no line search.
        x0 = hover_state((0.0, 0.0, 1.0)).as_vector()
        refs = hold_refs([0.0, 0.0, 1.0, 0.0], ncfg.horizon)
        sol = solve(x0, refs, None, ncfg, params)
        assert sol.converged
        assert (sol.iterations, sol.evaluations, sol.line_searches) == (1, 1, 0)
        # One QP, solved in one pass with no working row, and no correction.
        assert (sol.qp_passes, sol.corrections) == (1, 0)

    @pytest.mark.parametrize("box", [(1.0, 15.0), (-5.0, -1.0)])
    def test_box_exact_when_hover_lies_outside_it(self, ncfg, params, box):
        # The hover anchor is projected like any warm start, so a box that
        # excludes zero deviation still holds.
        cfg = dataclasses.replace(ncfg, accel_min=box[0], accel_max=box[1])
        x0 = hover_state((0.0, 0.0, 5.0)).as_vector()
        refs = hold_refs([0.0, 0.0, 4.0, 0.0], cfg.horizon)
        for warm in (None, np.tile([3.0, 0.0, 0.0, 0.0], (cfg.horizon, 1))):
            sol = solve(x0, refs, warm, cfg, params)
            assert np.all(sol.u[:, 0] >= box[0])
            assert np.all(sol.u[:, 0] <= box[1])

    def test_z_step_converges(self, ncfg, params):
        x0 = hover_state((0.0, 0.0, 0.0)).as_vector()
        refs = hold_refs([0.0, 0.0, 1.0, 0.0], ncfg.horizon)
        sol = solve(x0, refs, None, ncfg, params)
        assert sol.converged
        assert sol.u[0, 0] > 0.0
        assert abs(sol.outputs[-1, 2] - 1.0) < 0.15
        hover_cost = canonical_cost(x0, hover_inputs(ncfg.horizon), refs, ncfg, params)
        assert sol.cost < hover_cost

    def test_cold_lateral_and_yaw_step_converges(self, ncfg, params):
        # The plain Gauss-Newton step from hover tilts far past the limit;
        # with the terms it would activate in its model the solve settles
        # within its budget.
        x0 = hover_state((0.0, 0.0, 0.0)).as_vector()
        refs = hold_refs([2.0, 0.0, 1.0, 0.3], ncfg.horizon)
        sol = solve(x0, refs, None, ncfg, params)
        assert sol.converged
        assert worst_tilt(sol.states) <= ncfg.tilt_max + 1e-3

    def test_warm_start_fewer_iterations(self, ncfg, params):
        x0 = hover_state((0.0, 0.0, 0.0)).as_vector()
        refs = hold_refs([0.0, 0.0, 1.0, 0.0], ncfg.horizon)
        cold = solve(x0, refs, None, ncfg, params)
        warm = solve(x0, refs, cold.u, ncfg, params)
        assert warm.iterations < cold.iterations
        assert warm.cost <= cold.cost

    def test_box_exact_with_violating_warm_start(self, ncfg, params):
        x0 = hover_state((0.0, 0.0, 0.0)).as_vector()
        refs = hold_refs([1.0, 0.0, 2.0, 0.0], ncfg.horizon)
        warm = np.zeros((ncfg.horizon, 4))
        warm[:, 0] = np.linspace(-100.0, 100.0, ncfg.horizon)
        sol = solve(x0, refs, warm, ncfg, params)
        assert np.all(sol.u[:, 0] >= ncfg.accel_min)
        assert np.all(sol.u[:, 0] <= ncfg.accel_max)

    def test_accel_floor_reached_exactly(self, ncfg, params):
        # A reference far below makes the thrust channel saturate at the
        # lower box edge, not merely approach it.
        x0 = hover_state((0.0, 0.0, 10.0)).as_vector()
        refs = hold_refs([0.0, 0.0, -40.0, 0.0], ncfg.horizon)
        sol = solve(x0, refs, None, ncfg, params)
        assert sol.u[:, 0].min() == ncfg.accel_min

    def test_tilt_adherence_on_lateral_demand(self, ncfg, params):
        x0 = hover_state((0.0, 0.0, 2.0)).as_vector()
        refs = hold_refs([5.0, -3.5, 2.0, 0.0], ncfg.horizon)
        sol = solve(x0, refs, None, ncfg, params)
        assert worst_tilt(sol.states) <= ncfg.tilt_max + 1e-3

    def test_contracts_on_random_instances(self, ncfg, params):
        rng = np.random.default_rng(11)
        for k in range(10):
            x0, refs = random_instance(rng, ncfg, pos=3.0, vel=2.0, om=0.8, ref_xy=8.0)
            if k % 3 == 0:
                warm = None
                warm_u = hover_inputs(ncfg.horizon)
            else:
                warm = rng.uniform(-1, 1, (ncfg.horizon, 4))
                warm_u = warm.copy()
            warm_u[:, 0] = np.clip(warm_u[:, 0], ncfg.accel_min, ncfg.accel_max)
            sol = solve(x0, refs, warm, ncfg, params)
            assert sol.iterations <= ncfg.max_iters
            assert np.all(sol.u[:, 0] >= ncfg.accel_min)
            assert np.all(sol.u[:, 0] <= ncfg.accel_max)
            assert worst_tilt(sol.states) <= ncfg.tilt_max + 1e-3
            warm_cost = canonical_cost(x0, warm_u, refs, ncfg, params)
            assert sol.cost <= warm_cost + 1e-9 * max(1.0, abs(warm_cost))

    def test_deterministic(self, ncfg, params):
        rng = np.random.default_rng(21)
        x0, refs = random_instance(rng, ncfg)
        a = solve(x0, refs, None, ncfg, params)
        b = solve(x0, refs, None, ncfg, params)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.states, b.states)
        assert a.cost == b.cost
        assert a.iterations == b.iterations

    def test_divergent_warm_start_raises(self, ncfg, params):
        x0 = hover_state((0.0, 0.0, 1.0)).as_vector()
        refs = hold_refs([0.0, 0.0, 1.0, 0.0], ncfg.horizon)
        warm = np.full((ncfg.horizon, 4), 1e8)
        with pytest.raises(SolverFailureError) as failed:
            solve(x0, refs, warm, ncfg, params)
        # The diagnostics name the divergence of the warm start's pass.
        with pytest.raises(DivergenceError) as diverged, np.errstate(over="ignore",
                                                                      invalid="ignore"):
            nmpc._horizon_pass(x0, nmpc._project(warm, ncfg), refs, ncfg, params)
        assert failed.value.diagnostics == {"divergence": str(diverged.value)}

    def test_non_finite_cost_reports_its_value(self, ncfg, params):
        # The hover start flies, but its squared 1e200 m errors overflow.
        x0 = hover_state((0.0, 0.0, 1.0)).as_vector()
        refs = hold_refs([1e200, 0.0, 1.0, 0.0], ncfg.horizon)
        with pytest.raises(SolverFailureError) as failed:
            solve(x0, refs, None, ncfg, params)
        assert failed.value.diagnostics == {"tracking_cost": math.inf}

    def test_rejects_bad_shapes(self, ncfg, params):
        refs = hold_refs([0.0, 0.0, 1.0, 0.0], ncfg.horizon)
        with pytest.raises(ValueError):
            solve(np.zeros(12), refs, None, ncfg, params)
        x0 = hover_state((0.0, 0.0, 1.0)).as_vector()
        with pytest.raises(ValueError):
            solve(x0, refs, np.zeros((ncfg.horizon, 3)), ncfg, params)
        with pytest.raises(ValueError):
            solve(x0, np.zeros((ncfg.horizon, 3)), None, ncfg, params)
        with pytest.raises(ValueError):
            solve(x0, np.full((ncfg.horizon, 4), np.nan), None, ncfg, params)

    def test_rejects_empty_references(self, ncfg, params):
        # Padding holds the last row, so there must be one.
        x0 = hover_state((0.0, 0.0, 1.0)).as_vector()
        u = hover_inputs(ncfg.horizon)
        with pytest.raises(ValueError, match="at least one row"):
            solve(x0, np.zeros((0, 4)), None, ncfg, params)
        with pytest.raises(ValueError, match="at least one row"):
            cost_gradient(x0, u, np.zeros((0, 4)), ncfg, params)


class TestNmpcController:
    def test_hover_hold_within_tolerance(self, cfg, ncfg):
        ctl = NmpcController(cfg)
        x = hover_state((0.0, 0.0, 0.0)).as_vector()
        refs = hold_refs([0.0, 0.0, 0.0, 0.0], ncfg.horizon)
        for _ in range(100):
            out = ctl.step(x, refs)
            assert abs(out.c - G) <= 1e-3
            assert np.abs(out.torque).max() <= 1e-3

    def test_consecutive_identical_states_fewer_iterations(self, cfg, ncfg):
        ctl = NmpcController(cfg)
        x = hover_state((0.0, 0.0, 0.0)).as_vector()
        refs = hold_refs([2.0, 0.0, 1.0, 0.3], ncfg.horizon)
        ctl.step(x, refs)
        first = ctl.last_solution.iterations
        # The warm start is shifted by one period, so the next solve starts
        # from the state the first one predicted one period on.
        ctl.step(ctl.last_solution.states[1], refs)
        second = ctl.last_solution.iterations
        assert second < first

    def test_sums_match_the_solves(self, cfg, ncfg):
        ctl = NmpcController(cfg)
        x = hover_state((0.0, 0.0, 0.0)).as_vector()
        refs = hold_refs([2.0, 0.0, 1.0, 0.3], ncfg.horizon)
        solutions = []
        for _ in range(4):
            ctl.step(x, refs)
            solutions.append(ctl.last_solution)
            x = ctl.last_solution.states[1]
        # A wild warm start loses to the hover anchor; after a reset, this
        # cold start reverses a step.
        ctl._warm = np.full((ncfg.horizon, 4), 2.0)
        ctl.step(x, refs)
        solutions.append(ctl.last_solution)
        ctl.reset()
        ctl.step(*random_instance(np.random.default_rng(1), ncfg))
        solutions.append(ctl.last_solution)
        assert ctl.anchor_wins >= 1 and ctl.reversals >= 1
        # A failed solve adds to the failures only.
        ctl._warm = np.full((ncfg.horizon, 4), 1e8)
        ctl.step(x, refs)
        assert ctl.failures == 1
        for name in ("iterations", "converged", "evaluations", "line_searches", "qp_passes",
                     "corrections", "reversals", "anchor_wins"):
            assert getattr(ctl, name) == sum(getattr(s, name) for s in solutions)

    def test_failure_fallback_is_hover(self, cfg, ncfg):
        ctl = NmpcController(cfg)
        x = hover_state((0.0, 0.0, 1.0)).as_vector()
        refs = hold_refs([0.0, 0.0, 1.0, 0.0], ncfg.horizon)
        ctl._warm = np.full((ncfg.horizon, 4), 1e8)
        out = ctl.step(x, refs)
        assert out.c == G
        assert np.all(out.torque == 0.0)
        assert ctl.failures == 1
        assert ctl.last_solution is None
        # The next step starts cold and recovers.
        out = ctl.step(x, refs)
        assert ctl.failures == 1
        assert ctl.last_solution is not None

    def test_reset_clears_memory(self, cfg, ncfg):
        ctl = NmpcController(cfg)
        x = hover_state((0.0, 0.0, 0.0)).as_vector()
        refs = hold_refs([0.0, 0.0, 1.0, 0.0], ncfg.horizon)
        ctl.step(x, refs)
        assert ctl.last_solution is not None
        ctl.reset()
        assert ctl.last_solution is None
        assert ctl._warm is None
