"""End-to-end acceptance checks, one per shipped guarantee.

Each check prints a single ``[PASS]``/``[FAIL]`` line with its runtime
and fails with the list of violated clauses.  Covered in order: the
attitude kernels, the rigid-body dynamics oracles, the horizon
optimizer contracts, the mode machine, the builtin mission closed loop
under both controllers, the directional controller comparison, and
byte-level run determinism.

Criteria 5-7 read the builtin route flown once per controller through
the CLI (``simulate_builtin``); under pytest that is the session fixture
``builtin_runs`` of ``conftest.py``, which other modules share.

Runs under pytest or directly (``python3 tests/test_acceptance.py``).
"""

import io
import logging
import math
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from cyclosim import cli
from cyclosim.cli import main
from cyclosim.config import ENV_CONFIG_VAR, GRAVITY, default_config
from cyclosim.dynamics import (
    QUAT_SLICE,
    AerialInput,
    VehicleParams,
    aerial_derivative,
    aerial_step,
    allocate,
    forward_mix,
    hover_state,
    step_rk4,
)
from cyclosim.errors import GimbalLockError
from cyclosim.fsm import (
    AQUATIC_SERVO_ANGLE,
    CommandId,
    EventKind,
    Gear,
    Medium,
    ModeState,
    SubState,
    TransitionEvent,
    initial_state,
    replay,
    step_fsm,
)
from cyclosim.geometry import (
    EulerAngles,
    body_rates_to_euler_rates,
    euler_rates_to_body_rates,
    euler_to_quat,
    euler_to_rotation,
    quat_roll_pitch,
    quat_to_euler,
    wrap_angle,
)
from cyclosim.mission import builtin_mission
from cyclosim.nmpc import (
    cost_gradient,
    evaluate_cost,
    hover_inputs,
    rollout,
    solve,
    tilt_penalty,
)
from cyclosim.sim import RunLog, run

K = EventKind
C = CommandId


def _check(failures, ok, label):
    if not ok:
        failures.append(label)


def _finish(number, title, failures, t0, budget=None):
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed >= budget:
        failures.append(f"runtime {elapsed:.2f} s exceeds the {budget:.0f} s budget")
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number} ({title}): {elapsed:.2f} s", flush=True)
    for item in failures:
        print(f"       violated: {item}", flush=True)
    assert not failures, f"criterion {number}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def params():
    return VehicleParams.from_config(default_config())


@pytest.fixture(scope="module")
def ncfg():
    return default_config().nmpc


# ---------------------------------------------------------------------------
# 1. Attitude kernels
# ---------------------------------------------------------------------------


def test_criterion_1_geometry():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(1)
    eye = np.eye(3)

    worst_ortho = 0.0
    for _ in range(300):
        e = EulerAngles(*rng.uniform(-math.pi, math.pi, 3))
        r = euler_to_rotation(e)
        worst_ortho = max(
            worst_ortho,
            float(np.abs(r @ r.T - eye).max()),
            abs(float(np.linalg.det(r)) - 1.0),
        )
    _check(failures, worst_ortho < 1e-12,
           f"rotation orthonormality worst {worst_ortho:.3e} >= 1e-12")

    worst_rt = 0.0
    for _ in range(300):
        e = EulerAngles(
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-1.4, 1.4),
            rng.uniform(-math.pi, math.pi),
        )
        back = quat_to_euler(euler_to_quat(e))
        worst_rt = max(
            worst_rt,
            abs(wrap_angle(back.roll - e.roll)),
            abs(back.pitch - e.pitch),
            abs(wrap_angle(back.yaw - e.yaw)),
        )
    _check(failures, worst_rt < 1e-10,
           f"Euler/quaternion round trip worst {worst_rt:.3e} >= 1e-10")

    worst_map = 0.0
    for _ in range(300):
        e = EulerAngles(
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-1.4, 1.4),
            rng.uniform(-math.pi, math.pi),
        )
        rates = rng.uniform(-2.0, 2.0, 3)
        back = body_rates_to_euler_rates(e, euler_rates_to_body_rates(e, rates))
        worst_map = max(worst_map, float(np.abs(back - rates).max()))
    _check(failures, worst_map < 1e-10,
           f"rate map inverse round trip worst {worst_map:.3e} >= 1e-10")

    locked = EulerAngles(0.0, math.pi / 2.0, 0.0)
    try:
        body_rates_to_euler_rates(locked, np.array([0.1, 0.0, 0.0]))
        _check(failures, False, "no error raised at the pitch singularity")
    except GimbalLockError:
        pass

    _finish(1, "attitude kernels", failures, t0, budget=1.0)


# ---------------------------------------------------------------------------
# 2. Rigid-body dynamics oracles
# ---------------------------------------------------------------------------


def test_criterion_2_dynamics(params):
    t0 = time.perf_counter()
    failures = []

    hover = hover_state((0.0, 0.0, 1.0)).as_vector()
    d = aerial_derivative(hover, np.array([GRAVITY, 0.0, 0.0, 0.0]), params)
    _check(failures, bool(np.all(d == 0.0)),
           f"hover derivative not exactly zero (max {np.abs(d).max():.3e})")

    x = hover_state((0.0, 0.0, 0.0)).as_vector()
    zero_u = np.zeros(4)
    for _ in range(1000):
        x = aerial_step(x, zero_u, params, 1e-3)
    fall_err = abs(float(x[2]) - (-0.5 * GRAVITY))
    _check(failures, fall_err < 1e-6,
           f"free fall misses the closed form by {fall_err:.3e} >= 1e-6")

    lam = 40.0
    model = lambda s, _u: lam * s  # noqa: E731
    errors = []
    for dt in (0.05, 0.025, 0.0125):
        out = step_rk4(model, np.array([1.0]), None, dt)
        errors.append(abs(float(out[0]) - math.exp(lam * dt)))
    for ratio in (errors[0] / errors[1], errors[1] / errors[2]):
        _check(failures, ratio >= 15.0,
               f"single-step error shrank only {ratio:.1f}x per dt halving")

    x = hover_state((0.0, 0.0, 5.0)).as_vector()
    wobble = np.array([GRAVITY, 2e-3, -1e-3, 5e-4])
    worst_drift = 0.0
    for _ in range(2000):
        x = aerial_step(x, wobble, params, 1e-3)
        norm = math.sqrt(float(x[QUAT_SLICE] @ x[QUAT_SLICE]))
        worst_drift = max(worst_drift, abs(norm - 1.0))
    _check(failures, worst_drift < 1e-9,
           f"quaternion norm drift {worst_drift:.3e} >= 1e-9 per step")

    rng = np.random.default_rng(22)
    worst_mix = 0.0
    for _ in range(100):
        c = rng.uniform(1.0, 22.0)
        tau_x = rng.uniform(-0.3, 0.3)
        tau_y = rng.uniform(-0.3, 0.3)
        rear = 0.5 * params.mass * c + 0.5 * tau_y / params.arm
        tau_z_max = 0.8 * params.arm * max(rear, 0.0) * params.servo_max
        u = AerialInput(
            c=c, torque=np.array([tau_x, tau_y, rng.uniform(-1, 1) * tau_z_max])
        )
        back = forward_mix(allocate(u, params), params)
        scale = max(1.0, abs(u.c), float(np.abs(u.torque).max()))
        worst_mix = max(
            worst_mix,
            abs(back.c - u.c) / scale,
            float(np.abs(back.torque - u.torque).max()) / scale,
        )
    _check(failures, worst_mix < 1e-6,
           f"allocation round trip relative error {worst_mix:.3e} >= 1e-6")

    _finish(2, "rigid-body dynamics oracles", failures, t0, budget=5.0)


# ---------------------------------------------------------------------------
# 3. Horizon optimizer contracts
# ---------------------------------------------------------------------------


def _hold_refs(ref, n):
    return np.tile(np.asarray(ref, dtype=float), (n, 1))


def _canonical_cost(x0, u, refs, ncfg, params):
    states, outputs = rollout(x0, u, ncfg, params)
    return evaluate_cost(outputs, refs, u, ncfg) + tilt_penalty(states, ncfg)


def _worst_tilt(states):
    worst = 0.0
    for x in states[1:]:
        roll, pitch = quat_roll_pitch(x[QUAT_SLICE])
        worst = max(worst, abs(roll), abs(pitch))
    return worst


def test_criterion_3_nmpc(ncfg, params):
    t0 = time.perf_counter()
    failures = []

    rng = np.random.default_rng(42)
    eps = 1e-6
    worst_grad = 0.0
    for _ in range(20):
        x0 = np.concatenate([
            rng.uniform(-2, 2, 3),
            rng.uniform(-1, 1, 3),
            euler_to_quat(EulerAngles(*rng.uniform(-0.45, 0.45, 3))),
            rng.uniform(-0.5, 0.5, 3),
        ])
        refs = _hold_refs([0.0, 0.0, 1.0, 0.3], ncfg.horizon)
        u = rng.uniform(-1, 1, (ncfg.horizon, 4))
        u[:, 0] = rng.uniform(-2, 4, ncfg.horizon)
        grad = cost_gradient(x0, u, refs, ncfg, params)
        g_fd = np.empty_like(grad)
        for j in range(ncfg.horizon):
            for k in range(4):
                up, um = u.copy(), u.copy()
                up[j, k] += eps
                um[j, k] -= eps
                _, op = rollout(x0, up, ncfg, params)
                _, om = rollout(x0, um, ncfg, params)
                g_fd[j, k] = (
                    evaluate_cost(op, refs, up, ncfg)
                    - evaluate_cost(om, refs, um, ncfg)
                ) / (2 * eps)
        rel = np.abs(grad - g_fd) / np.maximum(np.abs(g_fd), 1.0)
        worst_grad = max(worst_grad, float(rel.max()))
    _check(failures, worst_grad < 1e-4,
           f"gradient vs central differences worst {worst_grad:.3e} >= 1e-4")

    x0 = hover_state((0.0, 0.0, 1.0)).as_vector()
    refs = _hold_refs([0.0, 0.0, 1.0, 0.0], ncfg.horizon)
    sol = solve(x0, refs, None, ncfg, params)
    hover_dev = max(float(np.abs(sol.u).max()),
                    float(np.abs(sol.outputs[:, :3] - refs[:, :3]).max()))
    _check(failures, hover_dev < 1e-3,
           f"hover fixed point deviates by {hover_dev:.3e} >= 1e-3")

    rng = np.random.default_rng(11)
    box_ok = True
    tilt_worst = 0.0
    monotone = True
    for k in range(20):
        x0 = np.concatenate([
            rng.uniform(-3, 3, 3),
            rng.uniform(-2, 2, 3),
            euler_to_quat(EulerAngles(*rng.uniform(-0.45, 0.45, 3))),
            rng.uniform(-0.8, 0.8, 3),
        ])
        refs = _hold_refs([
            *rng.uniform(-8, 8, 2), rng.uniform(-2.0, 4.0),
            rng.uniform(-math.pi, math.pi),
        ], ncfg.horizon)
        if k % 3 == 0:
            warm = None
            warm_u = hover_inputs(ncfg.horizon)
        else:
            warm = rng.uniform(-1, 1, (ncfg.horizon, 4))
            warm_u = warm.copy()
        warm_u[:, 0] = np.clip(warm_u[:, 0], ncfg.accel_min, ncfg.accel_max)
        sol = solve(x0, refs, warm, ncfg, params)
        box_ok = box_ok and bool(
            np.all(sol.u[:, 0] >= ncfg.accel_min)
            and np.all(sol.u[:, 0] <= ncfg.accel_max)
        )
        tilt_worst = max(tilt_worst, _worst_tilt(sol.states))
        warm_cost = _canonical_cost(x0, warm_u, refs, ncfg, params)
        monotone = monotone and sol.cost <= warm_cost + 1e-9 * max(1.0, abs(warm_cost))
    _check(failures, box_ok, "a solution left the thrust box")
    _check(failures, tilt_worst <= ncfg.tilt_max + 1e-3,
           f"predicted tilt {tilt_worst:.4f} beyond the limit plus 1e-3 rad")
    _check(failures, monotone, "a solve increased cost over its warm start")

    sat = solve(
        hover_state((0.0, 0.0, 10.0)).as_vector(),
        _hold_refs([0.0, 0.0, -40.0, 0.0], ncfg.horizon),
        None, ncfg, params,
    )
    _check(failures, float(sat.u[:, 0].min()) == ncfg.accel_min,
           "saturating solve does not sit exactly on the box edge")

    _finish(3, "horizon optimizer contracts", failures, t0, budget=30.0)


# ---------------------------------------------------------------------------
# 4. Mode machine
# ---------------------------------------------------------------------------

LEGAL_PAIRS = [
    (Medium.TERRESTRIAL, SubState.STATIC),
    (Medium.TERRESTRIAL, SubState.DRIVING),
    (Medium.AERIAL, SubState.STATIC),
    (Medium.AERIAL, SubState.TAKEOFF),
    (Medium.AERIAL, SubState.HOVERING),
    (Medium.AERIAL, SubState.LANDING),
    (Medium.AQUATIC, SubState.STATIC),
    (Medium.AQUATIC, SubState.DRIVING),
]

GEAR_FOR = {
    Medium.TERRESTRIAL: Gear.RETRACTED,
    Medium.AERIAL: Gear.OPEN,
    Medium.AQUATIC: Gear.OPEN,
}

ALPHABET = [
    (K.REACHED_WAYPOINT, None),
    (K.HOVER_STABLE, None),
    (K.TOUCHED_DOWN, None),
    (K.ENTERED_WATER, None),
    (K.GEAR_CONFIGURED, None),
    (K.COMMAND, C.DRIVE),
    (K.COMMAND, C.TAKEOFF),
    (K.COMMAND, C.HOVER),
    (K.COMMAND, C.LAND),
]


def test_criterion_4_fsm():
    t0 = time.perf_counter()
    failures = []
    logger = logging.getLogger("cyclosim.fsm")
    previous_level = logger.level
    logger.setLevel(logging.ERROR)
    try:
        for medium, substate in LEGAL_PAIRS:
            servo = AQUATIC_SERVO_ANGLE if medium is Medium.AQUATIC else 0.0
            s = ModeState(medium=medium, substate=substate,
                          gear=GEAR_FOR[medium], servo=servo)
            for kind, payload in ALPHABET:
                out = step_fsm(s, TransitionEvent(kind=kind, payload=payload))
                _check(
                    failures,
                    (out.medium, out.substate) in LEGAL_PAIRS,
                    f"illegal pair from {medium.value}/{substate.value} "
                    f"on {kind.value}",
                )
                _check(
                    failures,
                    out.gear is GEAR_FOR[out.medium],
                    f"gear invariant broken in {out.medium.value} "
                    f"after {kind.value}",
                )
    finally:
        logger.setLevel(previous_level)

    events = [
        TransitionEvent(kind=K.COMMAND, payload=C.DRIVE),
        TransitionEvent(kind=K.REACHED_WAYPOINT, payload=0),
        TransitionEvent(kind=K.GEAR_CONFIGURED),
        TransitionEvent(kind=K.COMMAND, payload=C.TAKEOFF),
        TransitionEvent(kind=K.HOVER_STABLE),
        TransitionEvent(kind=K.COMMAND, payload=C.LAND),
        TransitionEvent(kind=K.COMMAND, payload=C.HOVER),
        TransitionEvent(kind=K.COMMAND, payload=C.LAND),
        TransitionEvent(kind=K.ENTERED_WATER),
        TransitionEvent(kind=K.COMMAND, payload=C.DRIVE),
    ]
    trace = [(s.medium, s.substate) for s in replay(initial_state(), events)]
    expected = [
        (Medium.TERRESTRIAL, SubState.STATIC),
        (Medium.TERRESTRIAL, SubState.DRIVING),
        (Medium.TERRESTRIAL, SubState.STATIC),
        (Medium.AERIAL, SubState.STATIC),
        (Medium.AERIAL, SubState.TAKEOFF),
        (Medium.AERIAL, SubState.HOVERING),
        (Medium.AERIAL, SubState.LANDING),
        (Medium.AERIAL, SubState.HOVERING),
        (Medium.AERIAL, SubState.LANDING),
        (Medium.AQUATIC, SubState.STATIC),
        (Medium.AQUATIC, SubState.DRIVING),
    ]
    _check(failures, trace == expected,
           "ground-air-water event trace deviates from the expected sequence")

    _finish(4, "mode machine", failures, t0, budget=1.0)


# ---------------------------------------------------------------------------
# 5-7. Closed-loop mission, comparison, determinism
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliRun:
    exit_code: int
    wall_s: float
    stdout: str
    t: np.ndarray
    pos: np.ndarray
    metrics: dict
    log: RunLog
    argv: tuple
    out_dir: Path


def _parse_log(path):
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    t = np.array([float(r[0]) for r in rows])
    pos = np.array([[float(r[3]), float(r[4]), float(r[5])] for r in rows])
    return t, pos


def _parse_metrics(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def _invoke(argv):
    """``main(argv)`` with the default config: exit code, stdout, wall time
    and the ``RunLog`` that the CLI flew, kept by wrapping ``cli.run``."""
    kept = []

    def keep(*args, **kwargs):
        kept.append(run(*args, **kwargs))
        return kept[-1]

    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(ENV_CONFIG_VAR, raising=False)
        patch.setattr(cli, "run", keep)
        t0 = time.perf_counter()
        with redirect_stdout(buf):
            code = main(list(argv))
        wall = time.perf_counter() - t0
    return code, buf.getvalue(), wall, kept[-1] if kept else None


def simulate_builtin(controller, out_dir):
    """Fly the builtin route under ``controller`` through the CLI into ``out_dir``."""
    argv = (
        "simulate", "--mission", "builtin",
        "--controller", controller, "--out", str(out_dir),
    )
    code, stdout, wall, log = _invoke(argv)
    t, pos = _parse_log(out_dir / f"builtin_{controller}.csv")
    metrics = _parse_metrics(out_dir / f"builtin_{controller}_metrics.txt")
    return CliRun(code, wall, stdout, t, pos, metrics, log, argv, out_dir)


def test_criterion_5_mission_regression(builtin_runs):
    t0 = time.perf_counter()
    failures = []
    targets = [seg.target for seg in builtin_mission().segments]
    for controller in ("pid", "nmpc"):
        r = builtin_runs[controller]
        _check(failures, r.exit_code == 0,
               f"{controller}: exit code {r.exit_code}")
        last = r.stdout.strip().splitlines()[-1]
        _check(failures, last.startswith("result: completed segments=8"),
               f"{controller}: run did not complete all 8 segments")
        _check(failures, r.metrics.get("completed") == "true",
               f"{controller}: metrics do not mark the run completed")
        sim_time = float(r.t[-1])
        _check(failures, sim_time < 600.0,
               f"{controller}: simulated {sim_time:.1f} s >= 600 s")
        _check(failures, r.wall_s < 60.0,
               f"{controller}: wall clock {r.wall_s:.1f} s >= 60 s")
        worst = 0.0
        for target in targets:
            closest = float(np.linalg.norm(r.pos - target, axis=1).min())
            worst = max(worst, closest)
        _check(failures, worst < 0.5,
               f"{controller}: a waypoint was only approached to {worst:.3f} m")
    print(
        "       wall: pid {:.1f} s, nmpc {:.1f} s; simulated: pid {:.1f} s, "
        "nmpc {:.1f} s".format(
            builtin_runs["pid"].wall_s, builtin_runs["nmpc"].wall_s,
            float(builtin_runs["pid"].t[-1]), float(builtin_runs["nmpc"].t[-1]),
        ),
        flush=True,
    )
    _finish(5, "builtin mission closed loop", failures, t0)


AERIAL_SEGMENTS = [
    (1, "takeoff"), (2, "fly_to"), (3, "hover"),
    (4, "fly_to"), (5, "hover"), (6, "land"),
]


def test_criterion_6_controller_comparison(builtin_runs):
    t0 = time.perf_counter()
    failures = []
    pid, nmpc = builtin_runs["pid"].metrics, builtin_runs["nmpc"].metrics

    key = "seg1_takeoff_overshoot_z_pct"
    os_pid, os_nmpc = float(pid[key]), float(nmpc[key])
    _check(failures, os_nmpc <= os_pid,
           f"takeoff z overshoot {os_nmpc:.3f}% (nmpc) > {os_pid:.3f}% (pid)")

    for index, action in AERIAL_SEGMENTS:
        key = f"seg{index}_{action}_rms_m"
        rms_pid, rms_nmpc = float(pid[key]), float(nmpc[key])
        _check(failures, rms_nmpc <= rms_pid,
               f"segment {index} rms {rms_nmpc:.4f} m (nmpc) > "
               f"{rms_pid:.4f} m (pid)")
    _finish(6, "controller comparison", failures, t0)


def test_criterion_7_determinism(builtin_runs):
    # The shared pid run is the first invocation; the same argv runs once
    # more into the same directory, after the first log is taken and removed.
    t0 = time.perf_counter()
    failures = []
    first = builtin_runs["pid"]
    _check(failures, first.exit_code == 0, f"exit code {first.exit_code}")
    path = first.out_dir / "builtin_pid.csv"
    snapshots = [path.read_bytes()]
    path.unlink()
    code = _invoke(first.argv)[0]
    _check(failures, code == 0, f"exit code {code}")
    snapshots.append(path.read_bytes() if path.exists() else b"")
    _check(failures, snapshots[0] == snapshots[1],
           "consecutive identical invocations wrote different logs")
    _finish(7, "determinism", failures, t0)


if __name__ == "__main__":
    import sys
    import tempfile

    failed = []

    def attempt(name, fn, *args):
        try:
            fn(*args)
        except AssertionError:
            failed.append(name)

    cfg = default_config()
    vehicle = VehicleParams.from_config(cfg)
    attempt("geometry", test_criterion_1_geometry)
    attempt("dynamics", test_criterion_2_dynamics, vehicle)
    attempt("nmpc", test_criterion_3_nmpc, cfg.nmpc, vehicle)
    attempt("fsm", test_criterion_4_fsm)
    with tempfile.TemporaryDirectory() as td:
        base = Path(td)
        both = {
            controller: simulate_builtin(controller, base / controller)
            for controller in ("pid", "nmpc")
        }
        attempt("mission", test_criterion_5_mission_regression, both)
        attempt("comparison", test_criterion_6_controller_comparison, both)
        attempt("determinism", test_criterion_7_determinism, both)
    sys.exit(1 if failed else 0)
