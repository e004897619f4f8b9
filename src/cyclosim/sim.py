"""Closed-loop mission runner: plant, controllers, mode machine, logging.

``run`` wires the plant models, the active controller and the mode state
machine into one fixed-step loop.  The plant integrates at the base step,
controllers update at their own period, and the state machine is consulted
every controller tick through guard conditions on mission progress (arrival
radii, the hover-stability window, the touchdown envelope).  Reference
segments advance only when the vehicle satisfies the active segment's
guard, so every waypoint is actually visited.  The guards decide only when
a segment ends; which events fire is decided in one place, the mission's
plan (``mission.mission_plan``), and the runner fires exactly those.

Each controller tick runs, in order: mission progress (guards and segment
advance), the reference step, the active controller, actuation (the held
command through allocation and the actuator limits), the log row, and
finally plant integration over the tick unless the run ends at this tick.
Actuation sets the wrench the plant integrates; logging only records it.

Telemetry rows go into one growing float array in ``LOG_COLUMNS`` order;
the log's fields are column views of it.  The CSV is streamed line by
line through an atomic temp-file rename; identical inputs produce
byte-identical files.  ``compute_metrics`` reduces a log to per-segment
tracking numbers (RMS and peak error, per-axis overshoot and settling on
step segments, arrival times).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MAX_TICKS, Config, tick_ratios, validate
from .dynamics import (
    AerialInput,
    AquaticInput,
    TerrestrialInput,
    VehicleParams,
    _allocation,
    _mix,
    _planar_rates,
    _planar_rk4,
    aquatic_rotor_speeds,
    aerial_step,
    hover_state,
    # Unread here; perfbench's tracer looks them up (test_tracer_names).
    allocate, forward_mix, step_rk4,  # noqa: F401
)
from .errors import DivergenceError
from .fsm import (
    EventKind,
    Medium,
    ModeState,
    SubState,
    TransitionEvent,
    initial_state,
    step_fsm,
)
from .geometry import quat_from_yaw, quat_yaw, wrap_angle
from .mission import (
    Action,
    Mission,
    ReferenceGenerator,
    atomic_write,
    mission_plan,
)
from .nmpc import NmpcController
from .pid import CascadePid

__all__ = [
    "LOG_COLUMNS",
    "RunLog",
    "SegmentMetrics",
    "TrackingMetrics",
    "run",
    "compute_metrics",
    "save_log",
    "save_metrics",
]

# CSV column order; fixed, and relied on by downstream tooling.
LOG_COLUMNS = (
    "t", "medium", "substate",
    "px", "py", "pz", "vx", "vy", "vz",
    "qw", "qx", "qy", "qz", "wx", "wy", "wz",
    "ref_x", "ref_y", "ref_z", "ref_yaw",
    "c", "tau_x", "tau_y", "tau_z",
    "w1", "w2", "w3", "w4",
    "servo", "cost", "iters",
)

# Guard thresholds for mission-progress events.
HOVER_POS_TOL = 0.3
HOVER_SPEED_TOL = 0.1
HOVER_WINDOW = 0.5
TOUCHDOWN_Z_TOL = 0.05
TOUCHDOWN_DESCENT_TOL = 0.2
# Intermediate surface stops wait until the drive command has decayed.
DRIVE_STOP_SPEED = 0.2

# Surface-drive steering laws: gains and limits.
_K_DIST = 2.0
_K_HEAD = 3.0
_TURN_RATE_MAX = 2.0
_STEER_MAX = 0.6
_CATCH_UP = 1.5

# A position this far out is treated as divergence: the site is 300 m long.
_POSITION_RUNAWAY = 1.0e3

# Step segments shorter than this per axis get no overshoot/settling figures.
_STEP_FLOOR = 1.0

# Telemetry buffer layout: the float columns of LOG_COLUMNS in order (all
# but the two mode labels), then the segment index.  The buffer starts at
# _FIRST_ROWS rows and doubles when full.
_T = 0
_STATE, _REF, _INPUTS, _ROTORS = slice(1, 14), slice(14, 18), slice(18, 22), slice(22, 26)
_SERVO, _COST, _ITERS, _SEGMENT = 26, 27, 28, 29
_ROW_WIDTH = 30
_FIRST_ROWS = 1024
# Rows per block when writing the CSV, which bounds the memory the write takes.
_CSV_BLOCK = 256

# Zero wrench and rotor speeds of an idle actuator set; shared, so read-only.
_IDLE = np.zeros(4)
_IDLE.flags.writeable = False


@dataclass(frozen=True)
class RunLog:
    """One run's telemetry at controller-tick resolution.

    Attributes
    ----------
    t : ndarray
        Tick times, s; strictly increasing at the controller period.
    medium, substate : tuple of str
        Mode labels per tick.
    state : ndarray
        (n, 13) vehicle state rows.
    ref : ndarray
        (n, 4) position and yaw reference rows.
    inputs : ndarray
        (n, 4) applied wrench rows (collective accel, body torques).
    rotors : ndarray
        (n, 4) rotor speed commands, rad/s.
    servo : ndarray
        Commanded servo angle per tick, rad.
    cost, iters : ndarray
        Optimizer diagnostics; zero on ticks with no optimizer.
    segment : ndarray
        Active mission segment index per tick.
    transitions : tuple
        (time, old label, event label, new label) per mode transition.
    completed, time_limit_hit, diverged : bool
        How the run ended.
    """

    t: np.ndarray
    medium: tuple
    substate: tuple
    state: np.ndarray
    ref: np.ndarray
    inputs: np.ndarray
    rotors: np.ndarray
    servo: np.ndarray
    cost: np.ndarray
    iters: np.ndarray
    segment: np.ndarray
    transitions: tuple
    completed: bool
    time_limit_hit: bool
    diverged: bool

    def __len__(self) -> int:
        return int(self.t.size)


@dataclass(frozen=True)
class SegmentMetrics:
    """Tracking figures for one mission segment.

    Overshoot is per axis in percent of that axis's commanded step and
    settling is the time until the axis error stays below 2 percent of the
    step; axes whose step is shorter than a meter report zero overshoot
    and zero settling.  A segment that never settles reports infinity.
    """

    index: int
    action: str
    rms: float
    max_error: float
    overshoot: tuple
    settling: tuple
    arrival_time: float
    duration: float


@dataclass(frozen=True)
class TrackingMetrics:
    segments: tuple
    total_time: float


def _pursuit(pose: np.ndarray, ref: np.ndarray, cruise: float, floor: float) -> tuple:
    """Distance and heading error to the reference point, and the forward
    speed, scaled by the heading error's cosine held at least ``floor``."""
    dx = ref[0] - pose[0]
    dy = ref[1] - pose[1]
    dist = math.hypot(dx, dy)
    desired = math.atan2(dy, dx) if dist > 0.05 else ref[3]
    err = wrap_angle(desired - pose[2])
    speed = min(_K_DIST * dist, _CATCH_UP * cruise) * max(floor, math.cos(err))
    return dist, err, speed


def _drive_terrestrial(pose: np.ndarray, ref: np.ndarray, cruise: float,
                       track_width: float) -> TerrestrialInput:
    """Differential-drive pursuit of the reference point."""
    _dist, err, speed = _pursuit(pose, ref, cruise, 0.0)
    turn = float(np.clip(_K_HEAD * err, -_TURN_RATE_MAX, _TURN_RATE_MAX))
    half = 0.5 * turn * track_width
    return TerrestrialInput(v_left=speed - half, v_right=speed + half)


def _drive_aquatic(pose: np.ndarray, ref: np.ndarray, cruise: float) -> AquaticInput:
    """Steered-surge pursuit; keeps way on while turning since the craft
    cannot yaw at zero speed."""
    dist, err, speed = _pursuit(pose, ref, cruise, 0.3)
    steer = float(np.clip(_K_HEAD * err, -_STEER_MAX, _STEER_MAX))
    return AquaticInput(speed=0.0 if dist <= 0.05 else speed, steering=steer)


class _Runner:
    """Mutable loop state for one run; ``run`` drives it tick by tick."""

    def __init__(self, config: Config, mission: Mission, controller: str):
        self.plan = mission_plan(mission)
        self.cfg = config
        self.mission = mission
        self.params = VehicleParams.from_config(config)
        scfg = config.sim
        self.tick = scfg.controller_period
        self.substeps, self.nmpc_every = tick_ratios(config)

        self.mode = initial_state()
        self.pose = np.array([mission.start[0], mission.start[1], 0.0])
        self.x13: np.ndarray | None = None
        self.gen = ReferenceGenerator(mission, scfg)
        self.controller = NmpcController(config) if controller == "nmpc" else CascadePid(config)

        # The armed segment: -1 until __init__'s last line arms segment 0.
        self.seg_idx = -1
        self.seg_t0 = 0.0
        self.stable_since: float | None = None

        self.aerial_u = AerialInput(c=0.0, torque=np.zeros(3))
        # Forward speed and heading rate of the held surface command.
        self.rates = (0.0, 0.0)
        self.force_solve = True
        self.cost = 0.0
        self.iters = 0
        # Set by ``actuate``: the wrench the plant integrates, and the rotor
        # speeds and servo angle that realize it.
        self.applied = self.rotors = _IDLE
        self.servo = self.mode.servo

        self.transitions: list = []
        self.rows = np.empty((_FIRST_ROWS, _ROW_WIDTH))
        self.n_rows = 0
        self.modes: list[ModeState] = []
        if mission.segments:
            self.advance(0, 0.0)

    # -- state access -------------------------------------------------

    def position(self) -> list:
        if self.mode.medium is Medium.AERIAL:
            return self.x13[0:3].tolist()
        return [*self.pose[0:2].tolist(), 0.0]

    def speed(self) -> float:
        if self.mode.medium is Medium.AERIAL:
            return math.hypot(*self.x13[3:6].tolist())
        return abs(self.rates[0])

    # -- mode transitions ----------------------------------------------

    def emit(self, event: TransitionEvent, t: float) -> None:
        old = self.mode
        new = step_fsm(old, event)
        if event.kind is EventKind.GEAR_CONFIGURED:
            x, y, yaw = self.pose.tolist()
            self.x13 = hover_state((x, y, 0.0), yaw).as_vector()
        elif event.kind is EventKind.ENTERED_WATER:
            self.pose = np.array([self.x13[0], self.x13[1], quat_yaw(self.x13[6:10])])
            self.x13 = None
            self.rates = (0.0, 0.0)
        elif event.kind is EventKind.TOUCHED_DOWN:
            self.x13 = hover_state((self.x13[0], self.x13[1], 0.0),
                                   quat_yaw(self.x13[6:10])).as_vector()
        if new.substate is SubState.TAKEOFF and old.substate is not SubState.TAKEOFF:
            self.controller.reset()
            self.force_solve = True
        self.mode = new
        self.transitions.append((t, old.label(), event.label(), new.label()))

    def advance(self, index: int, t: float) -> None:
        for event in self.plan[index].entry:
            self.emit(event, t)
        self.gen.activate(index, t, self.mission.start)
        self.seg_idx = index
        self.seg_t0 = t
        self.stable_since = None

    def segment_complete(self, t: float) -> bool:
        seg = self.mission.segments[self.seg_idx]
        target = seg.target.tolist()
        pos = self.position()
        dist = math.dist(pos, target)
        radius = self.cfg.sim.arrival_radius
        if self.seg_idx == len(self.mission.segments) - 1:
            return dist < radius
        if seg.action is Action.DRIVE:
            return dist < radius and self.speed() < DRIVE_STOP_SPEED
        if seg.action is Action.TAKEOFF:
            if dist < HOVER_POS_TOL and self.speed() < HOVER_SPEED_TOL:
                if self.stable_since is None:
                    self.stable_since = t
                return t - self.stable_since >= HOVER_WINDOW
            self.stable_since = None
            return False
        if seg.action is Action.HOVER:
            return (t - self.seg_t0 >= seg.hold and dist < HOVER_POS_TOL
                    and self.speed() < HOVER_SPEED_TOL)
        if seg.action is Action.LAND:
            lateral = math.hypot(pos[0] - target[0], pos[1] - target[1])
            descent = -float(self.x13[5])
            return (abs(pos[2] - target[2]) <= TOUCHDOWN_Z_TOL
                    and descent < TOUCHDOWN_DESCENT_TOL and lateral < radius)
        return dist < radius

    def progress(self, t: float) -> bool:
        """Advance the mission at tick ``t``; True when the route is done."""
        if self.seg_idx < 0:
            return True
        # Each pass advances one segment or returns, so the loop ends.
        while self.segment_complete(t):
            if self.seg_idx == len(self.mission.segments) - 1:
                return True
            event = self.plan[self.seg_idx].completion
            if event is not None:
                self.emit(event, t)
            self.advance(self.seg_idx + 1, t)
        return False

    # -- controllers ----------------------------------------------------

    def control(self, t: float, k: int, ref: np.ndarray) -> None:
        medium = self.mode.medium
        scfg = self.cfg.sim
        solver = isinstance(self.controller, NmpcController)
        if not (medium is Medium.AERIAL and solver):
            # Between solves the solver's ticks keep the last solve's figures.
            self.cost, self.iters = 0.0, 0
        # A tick holds its segment's moving mode (``mission_plan``), never a
        # static one; the empty mission's one tick drives at zero speed.
        if medium is Medium.TERRESTRIAL:
            u = _drive_terrestrial(self.pose, ref, scfg.cruise_ground, self.params.track_width)
            self.rates = _planar_rates(u, self.params)
        elif medium is Medium.AQUATIC:
            u = _drive_aquatic(self.pose, ref, scfg.cruise_water)
            self.rates = _planar_rates(u, self.params)
        elif not solver:
            self.aerial_u = self.controller.step(self.x13, ref[:3], ref[3], self.tick)
        elif k % self.nmpc_every == 0 or self.force_solve:
            # Output j is one period after input j: rows 1..N.
            refs = self.gen.preview(t, self.cfg.nmpc.horizon + 1, self.cfg.nmpc.period)[1:]
            self.aerial_u = self.controller.step(self.x13, refs)
            sol = self.controller.last_solution
            self.cost = float(sol.cost) if sol is not None else 0.0
            self.iters = int(sol.iterations) if sol is not None else 0
            self.force_solve = False

    def actuate(self) -> None:
        """Realize the held command as the applied wrench, rotors and servo.

        Aerial commands pass through allocation with clipping and back
        through the forward mix (their float halves), so the wrench the
        plant integrates and the logged one both honor the actuator limits.
        A mixed collective below zero is rounding (each opposite thrust pair
        of a ``c >= 0`` allocation sums to at least zero) and applies as ``+0.0``.
        """
        mode = self.mode
        self.applied = self.rotors = _IDLE
        self.servo = mode.servo
        if mode.medium is Medium.AERIAL:
            u = self.aerial_u
            speeds, self.servo = _allocation(u.c, *u.torque.tolist(), self.params, strict=False)
            mixed = _mix(speeds, self.servo, self.params)
            if mixed[0] < 0.0:
                mixed[0] = 0.0
            self.applied = np.array(mixed)
            self.rotors = np.array(speeds)
        elif mode.medium is Medium.AQUATIC:
            # An aquatic command's forward speed is its surge speed.
            self.rotors = aquatic_rotor_speeds(self.rates[0], self.params)

    def integrate(self) -> None:
        dt = self.cfg.dt
        if self.mode.medium is not Medium.AERIAL:
            self.pose = _planar_rk4(self.pose, *self.rates, dt, self.substeps)
            return
        x = aerial_step(self.x13, self.applied, self.params, dt, self.substeps)
        self.x13 = x
        # aerial_step returns finite states only.
        if max(map(abs, x[0:3].tolist())) > _POSITION_RUNAWAY:
            raise DivergenceError("aerial state diverged", state=x)

    def log_row(self, t: float, ref: np.ndarray) -> None:
        """Record tick ``t``; reads what ``actuate`` set and changes nothing."""
        mode = self.mode
        n = self.n_rows
        if n == len(self.rows):
            grown = np.empty((2 * n, _ROW_WIDTH))
            grown[:n] = self.rows
            self.rows = grown
        row = self.rows[n]
        row[_T] = t
        if mode.medium is Medium.AERIAL:
            row[_STATE] = self.x13
        else:
            # The planar pose expanded into the 13 state cells.
            x, y, heading = self.pose.tolist()
            speed, turn = self.rates
            row[_STATE] = [x, y, 0.0, speed * math.cos(heading), speed * math.sin(heading),
                           0.0, *quat_from_yaw(heading).tolist(), 0.0, 0.0, turn]
        row[_REF] = ref
        row[_INPUTS] = self.applied
        row[_ROTORS] = self.rotors
        row[_SERVO:] = (self.servo, self.cost, self.iters, max(self.seg_idx, 0))
        self.modes.append(mode)
        self.n_rows = n + 1

    def build_log(self, completed: bool, time_limit_hit: bool,
                  diverged: bool) -> RunLog:
        rows = self.rows[:self.n_rows]
        return RunLog(
            t=rows[:, _T],
            medium=tuple(m.medium.value for m in self.modes),
            substate=tuple(m.substate.value for m in self.modes),
            state=rows[:, _STATE],
            ref=rows[:, _REF],
            inputs=rows[:, _INPUTS],
            rotors=rows[:, _ROTORS],
            servo=rows[:, _SERVO],
            cost=rows[:, _COST],
            iters=rows[:, _ITERS].astype(int),
            segment=rows[:, _SEGMENT].astype(int),
            transitions=tuple(self.transitions),
            completed=completed,
            time_limit_hit=time_limit_hit,
            diverged=diverged,
        )


def _time_limit(config: Config, time_limit: float | None) -> float:
    """The run's simulated-seconds budget; ValueError unless it is finite,
    positive and within ``MAX_TICKS`` controller ticks."""
    limit = config.sim.time_limit if time_limit is None else float(time_limit)
    if not (math.isfinite(limit) and limit > 0.0):
        raise ValueError(f"time limit must be finite and positive, got {limit!r}")
    ticks = limit / config.sim.controller_period
    if ticks > MAX_TICKS:
        raise ValueError(f"time limit {limit!r} s is {ticks:.3g} ticks,"
                         f" above the cap of {MAX_TICKS}")
    return limit


def run(config: Config, mission: Mission, controller: str = "pid",
        time_limit: float | None = None) -> RunLog:
    """Simulate ``mission`` closed loop and return the telemetry log.

    Parameters
    ----------
    config : Config
        Full configuration; the plant steps at ``config.dt``, controllers
        at their own periods.
    mission : Mission
        Route to fly; its :func:`~cyclosim.mission.mission_plan` is built up
        front, so an unrealizable route fails before the first tick.
    controller : str
        "pid" for the cascade controller everywhere, "nmpc" to use the
        predictive controller in aerial modes (surface modes always use
        the simple drive laws).
    time_limit : float, optional
        Simulated-seconds budget, finite and positive; defaults to the
        configured limit.

    Returns
    -------
    RunLog
        Completed, time-limited or diverged telemetry; a divergence
        returns the partial log accumulated so far rather than raising.

    Raises
    ------
    ValueError
        If ``controller`` is not "pid" or "nmpc", or ``time_limit`` is not
        finite and positive or asks for more than ``MAX_TICKS`` ticks.
    MissionError
        If the mission cannot be realized by the transition table.
    ConfigError
        If ``config`` fails :func:`~cyclosim.config.validate`: a key out of
        its range, over a work cap, or a period not a whole multiple of the
        next.
    """
    if controller not in ("pid", "nmpc"):
        raise ValueError(f"unknown controller '{controller}'")
    limit = _time_limit(validate(config), time_limit)
    runner = _Runner(config, mission, controller)

    completed = time_limit_hit = diverged = False
    k = 0
    while True:
        t = k * runner.tick
        try:
            done = runner.progress(t)
            ref = runner.gen.step(t, runner.tick)
            runner.control(t, k, ref)
            runner.actuate()
            runner.log_row(t, ref)
            if done:
                completed = True
                break
            if t >= limit:
                time_limit_hit = True
                break
            runner.integrate()
        except DivergenceError:
            diverged = True
            break
        k += 1
    return runner.build_log(completed, time_limit_hit, diverged)


def compute_metrics(log: RunLog, mission: Mission) -> TrackingMetrics:
    """Per-segment tracking metrics for a completed or partial run.

    Raises
    ------
    ValueError
        If the log carries no reference rows to measure against.
    """
    if len(log) == 0 or log.ref.shape[0] == 0:
        raise ValueError("log has no reference rows")
    per_segment = []
    for index, seg in enumerate(mission.segments):
        mask = log.segment == index
        if not np.any(mask):
            continue
        pos = log.state[mask][:, 0:3]
        ref = log.ref[mask][:, 0:3]
        times = log.t[mask]
        err = pos - ref
        rms = float(np.sqrt(np.mean(np.sum(err * err, axis=1))))
        max_error = float(np.max(np.linalg.norm(err, axis=1)))
        overshoot = []
        settling = []
        for axis in range(3):
            step = float(seg.target[axis] - ref[0, axis])
            if abs(step) < _STEP_FLOOR:
                overshoot.append(0.0)
                settling.append(0.0)
                continue
            direction = math.copysign(1.0, step)
            beyond = direction * (pos[:, axis] - seg.target[axis])
            overshoot.append(100.0 * max(0.0, float(np.max(beyond))) / abs(step))
            tol = 0.02 * abs(step)
            outside = np.abs(pos[:, axis] - seg.target[axis]) >= tol
            if not np.any(outside):
                settling.append(0.0)
            else:
                last_bad = int(np.max(np.nonzero(outside)[0]))
                if last_bad + 1 >= times.size:
                    settling.append(math.inf)
                else:
                    settling.append(float(times[last_bad + 1] - times[0]))
        per_segment.append(SegmentMetrics(
            index=index,
            action=seg.action.value,
            rms=rms,
            max_error=max_error,
            overshoot=tuple(overshoot),
            settling=tuple(settling),
            arrival_time=float(times[-1]),
            duration=float(times[-1] - times[0]),
        ))
    return TrackingMetrics(segments=tuple(per_segment), total_time=float(log.t[-1]))


def _fmt(value: float) -> str:
    return repr(float(value))


def _csv_lines(log: RunLog):
    """Yield the CSV header and then one line per row, block by block."""
    yield ",".join(LOG_COLUMNS) + "\n"
    for a in range(0, len(log), _CSV_BLOCK):
        b = a + _CSV_BLOCK
        block = np.column_stack((log.t[a:b], log.state[a:b], log.ref[a:b],
                                 log.inputs[a:b], log.rotors[a:b],
                                 log.servo[a:b], log.cost[a:b]))
        for row, medium, substate, iters in zip(
                block.tolist(), log.medium[a:b], log.substate[a:b], log.iters[a:b]):
            cells = [repr(row[0]), medium, substate, *map(repr, row[1:]), str(int(iters))]
            yield ",".join(cells) + "\n"


def save_log(log: RunLog, path) -> None:
    """Write the log as CSV with the documented column order, atomically.

    The text is streamed to the file, so the whole CSV is never held in
    memory; each float cell is ``repr`` of the value, which parses back
    exactly.
    """
    atomic_write(path, _csv_lines(log))


def save_metrics(metrics: TrackingMetrics, log: RunLog, path) -> None:
    """Write metrics plus run outcome and the mode trace as key = value lines."""
    lines = [
        f"completed = {str(log.completed).lower()}",
        f"time_limit_hit = {str(log.time_limit_hit).lower()}",
        f"diverged = {str(log.diverged).lower()}",
        f"total_time_s = {_fmt(metrics.total_time)}",
        f"segments_logged = {len(metrics.segments)}",
    ]
    for seg in metrics.segments:
        prefix = f"seg{seg.index}_{seg.action}"
        lines.append(f"{prefix}_rms_m = {_fmt(seg.rms)}")
        lines.append(f"{prefix}_max_error_m = {_fmt(seg.max_error)}")
        for axis, name in enumerate(("x", "y", "z")):
            lines.append(
                f"{prefix}_overshoot_{name}_pct = {_fmt(seg.overshoot[axis])}"
            )
            lines.append(
                f"{prefix}_settling_{name}_s = {_fmt(seg.settling[axis])}"
            )
        lines.append(f"{prefix}_arrival_s = {_fmt(seg.arrival_time)}")
        lines.append(f"{prefix}_duration_s = {_fmt(seg.duration)}")
    for j, (t, old, event, new) in enumerate(log.transitions):
        lines.append(f"transition_{j:02d} = {_fmt(t)} {old} -> {new} ({event})")
    atomic_write(path, (line + "\n" for line in lines))
