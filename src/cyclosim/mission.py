"""Missions, the built-in ground-air-water route, and reference generation.

A mission is an ordered list of segments, each tagged with a medium, an
action, a target waypoint and an optional hover hold.  Segment media must
agree with the site layout, which splits the world by x coordinate into a
ground band (0 to 100 m), a flight band (100 to 200 m) and a water band
(200 to 300 m).

The reference generator turns the active segment into a smooth setpoint
stream: positions ramp along straight legs at the configured cruise speed
for the medium, takeoffs climb vertically before any lateral move, landings
move laterally above the pad before descending, and the yaw reference slews
toward the path heading at a bounded rate so it never jumps.

``mission_plan`` is the one place the mode sequence is decided: it folds
the route through the transition table once and records, per segment, the
events fired on entry, the mode held and the event fired on completion.
The simulator fires exactly those events through its guard conditions,
and ``mission_events`` flattens them for the CLI to replay.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import yaml

from .config import SimConfig, read_yaml
from .errors import MissionError
from .fsm import (
    CommandId,
    EventKind,
    Medium,
    ModeState,
    SubState,
    TransitionEvent,
    initial_state,
    successor,
)
from .geometry import wrap_angle

__all__ = [
    "Action",
    "Segment",
    "Mission",
    "MEDIUM_BANDS",
    "atomic_write",
    "builtin_mission",
    "load_mission",
    "save_mission",
    "SegmentPlan",
    "mission_plan",
    "mission_events",
    "ReferenceGenerator",
]

# Site layout: per-medium [x_min, x_max] bands, m.
MEDIUM_BANDS = {
    Medium.TERRESTRIAL: (0.0, 100.0),
    Medium.AERIAL: (100.0, 200.0),
    Medium.AQUATIC: (200.0, 300.0),
}


class Action(Enum):
    DRIVE = "drive"
    TAKEOFF = "takeoff"
    FLY_TO = "fly_to"
    HOVER = "hover"
    LAND = "land"


# Final approach of a landing: slow from the descent speed this far above
# the target so the touchdown envelope is reachable without plunging past it.
_FLARE_ALTITUDE = 2.0
_FLARE_SPEED = 0.5


def _waypoint(value, message: str) -> np.ndarray:
    """``value`` as a read-only float (x, y, z), or MissionError(message)."""
    try:
        point = np.array(value, dtype=float).reshape(-1)
    except OverflowError:
        raise MissionError(message) from None
    if point.shape != (3,) or not np.isfinite(point).all():
        raise MissionError(message)
    point.flags.writeable = False
    return point


@dataclass(frozen=True)
class Segment:
    """One mission leg: do ``action`` in ``medium`` toward ``target``.

    Parameters
    ----------
    medium : Medium
        Medium the segment runs in; must match the action and the site
        band for the target's x coordinate.
    action : Action
        DRIVE on a surface, or TAKEOFF / FLY_TO / HOVER / LAND in the air.
    target : ndarray
        Waypoint (x, y, z), m.
    hold : float
        Dwell time at the target for HOVER segments, s.  The last segment
        of a mission ends on arrival, within ``sim.arrival_radius`` of its
        target, so a final hover's hold is not flown.

    Raises
    ------
    MissionError
        On a non-finite target, a target outside the medium's band, a
        medium/action mismatch, a drive or land target off the surface,
        or a negative hold.
    """

    medium: Medium
    action: Action
    target: np.ndarray
    hold: float = 0.0

    def __post_init__(self):
        target = _waypoint(self.target, "segment target must be a finite (x, y, z) waypoint")
        object.__setattr__(self, "target", target)
        if not 0.0 <= self.hold <= sys.float_info.max:  # An int past the range too.
            raise MissionError("segment hold must be finite and nonnegative")
        if self.action is Action.DRIVE:
            if self.medium is Medium.AERIAL:
                raise MissionError("drive segments must be terrestrial or aquatic")
        elif self.medium is not Medium.AERIAL:
            raise MissionError(f"{self.action.value} segments must be aerial")
        if self.action in (Action.DRIVE, Action.LAND) and target[2] != 0.0:
            # The runner puts the vehicle on the surface at touchdown.
            raise MissionError(f"{self.action.value} segment targets must lie on the surface")
        lo, hi = MEDIUM_BANDS[self.medium]
        if not lo <= target[0] <= hi:
            raise MissionError(
                f"target x={target[0]:g} outside the {self.medium.value} "
                f"band [{lo:g}, {hi:g}]"
            )


@dataclass(frozen=True)
class Mission:
    """Ordered segments plus the start point, which must lie on the surface (z = 0)."""

    segments: tuple[Segment, ...]
    start: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        start = _waypoint(self.start, "mission start must be a finite (x, y, z) point")
        if start[2] != 0.0:
            raise MissionError("mission start must lie on the surface")
        object.__setattr__(self, "start", start)

    def __len__(self) -> int:
        return len(self.segments)


def atomic_write(path, chunks) -> None:
    """Write the strings in ``chunks`` to ``path`` through a temp file and rename.

    ``chunks`` may be any iterable, a generator included, so a large file
    is never held in memory whole.  An interrupted write never leaves a
    truncated file at ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cyclosim-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def builtin_mission(hold: float = 2.0) -> Mission:
    """The ground-air-water demonstration route.

    Drive from the origin to (100, 0, 0), take off to 100 m, fly to
    (200, 100, 150) and hover, descend past (150, 80, 100) and hover
    again, land on the water at (200, 0, 0), then drive on the surface to
    (300, 100, 0).
    """
    seg = Segment
    return Mission(
        segments=(
            seg(Medium.TERRESTRIAL, Action.DRIVE, np.array([100.0, 0.0, 0.0])),
            seg(Medium.AERIAL, Action.TAKEOFF, np.array([100.0, 0.0, 100.0])),
            seg(Medium.AERIAL, Action.FLY_TO, np.array([200.0, 100.0, 150.0])),
            seg(Medium.AERIAL, Action.HOVER, np.array([200.0, 100.0, 150.0]), hold=hold),
            seg(Medium.AERIAL, Action.FLY_TO, np.array([150.0, 80.0, 100.0])),
            seg(Medium.AERIAL, Action.HOVER, np.array([150.0, 80.0, 100.0]), hold=hold),
            seg(Medium.AERIAL, Action.LAND, np.array([200.0, 0.0, 0.0])),
            seg(Medium.AQUATIC, Action.DRIVE, np.array([300.0, 100.0, 0.0])),
        ),
        start=np.zeros(3),
    )


def load_mission(path) -> Mission:
    """Read a mission from a YAML file.

    The file holds ``start`` (optional, default origin) and ``segments``,
    each record with ``medium``, ``action``, ``target`` and optional
    ``hold``.

    Raises
    ------
    MissionError
        If the file cannot be read or parsed, or the start or any record
        is invalid; record errors name the segment index.
    """
    raw = read_yaml(path, "mission", MissionError)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise MissionError("mission file must hold a mapping")
    unknown = set(raw) - {"start", "segments"}
    if unknown:
        raise MissionError(f"unknown mission keys: {sorted(unknown)}")
    records = raw.get("segments")
    if records is None:
        records = []
    elif not isinstance(records, list):
        raise MissionError("mission 'segments' must be a list")
    segments = []
    for i, rec in enumerate(records):
        try:
            segments.append(_segment_from_record(rec))
        except MissionError as exc:
            raise MissionError(f"segment {i}: {exc}") from exc
    try:
        start = _point(raw["start"], "start") if "start" in raw else np.zeros(3)
        return Mission(segments=tuple(segments), start=start)
    except MissionError as exc:
        raise MissionError(f"mission file {path}: {exc}") from exc


def _segment_from_record(rec) -> Segment:
    if not isinstance(rec, dict):
        raise MissionError("segment record must be a mapping")
    unknown = set(rec) - {"medium", "action", "target", "hold"}
    if unknown:
        raise MissionError(f"unknown keys {sorted(unknown)}")
    for key in ("medium", "action", "target"):
        if key not in rec:
            raise MissionError(f"missing key '{key}'")
    try:
        medium = Medium(rec["medium"])
    except ValueError:
        raise MissionError(f"unknown medium '{rec['medium']}'") from None
    try:
        action = Action(rec["action"])
    except ValueError:
        raise MissionError(f"unknown action '{rec['action']}'") from None
    hold = rec.get("hold", 0.0)
    if not _number(hold):
        raise MissionError("hold must be a number")
    return Segment(medium=medium, action=action, target=_point(rec["target"], "target"),
                   hold=float(hold))


def _number(value) -> bool:
    """Whether a YAML value is a number float() takes: booleans are not, nor is
    an integer past the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def _point(value, name: str) -> np.ndarray:
    """A YAML (x, y, z) value as an array of three ``_number`` values."""
    if not isinstance(value, (list, tuple)) or len(value) != 3 or not all(map(_number, value)):
        raise MissionError(f"{name} must be a 3-number list")
    return np.array(value, dtype=float)


def save_mission(mission: Mission, path) -> None:
    """Write ``mission`` to a YAML file (atomically, temp file + rename)."""
    records = [
        {
            "medium": seg.medium.value,
            "action": seg.action.value,
            "target": [float(v) for v in seg.target],
            "hold": float(seg.hold),
        }
        for seg in mission.segments
    ]
    payload = {"start": [float(v) for v in mission.start], "segments": records}
    atomic_write(path, [yaml.safe_dump(payload, sort_keys=False)])


def _in_progress_mode(segment: Segment, start_z: float) -> tuple[Medium, SubState]:
    """The mode the vehicle holds while flying/driving ``segment``.

    ``start_z`` is the altitude the segment starts from; a FLY_TO below it
    is a descent and runs in the landing sub-state.
    """
    if segment.action is Action.DRIVE:
        return (segment.medium, SubState.DRIVING)
    if segment.action is Action.TAKEOFF:
        return (Medium.AERIAL, SubState.TAKEOFF)
    if segment.action is Action.LAND:
        return (Medium.AERIAL, SubState.LANDING)
    if segment.action is Action.FLY_TO and segment.target[2] < start_z:
        return (Medium.AERIAL, SubState.LANDING)
    return (Medium.AERIAL, SubState.HOVERING)


def _entry_events(state: ModeState, wanted: SubState) -> list[TransitionEvent]:
    """Events that move the machine from ``state`` into sub-state ``wanted``.

    Returns the (possibly empty) event list; it does not check legality.
    """
    ev = TransitionEvent
    if wanted is SubState.DRIVING:
        return [ev(EventKind.COMMAND, CommandId.DRIVE)]
    if wanted is SubState.TAKEOFF:
        gear = [] if state.medium is Medium.AERIAL else [ev(EventKind.GEAR_CONFIGURED)]
        return gear + [ev(EventKind.COMMAND, CommandId.TAKEOFF)]
    if wanted is SubState.LANDING and state.substate is SubState.HOVERING:
        return [ev(EventKind.COMMAND, CommandId.LAND)]
    if wanted is SubState.HOVERING and state.substate is SubState.LANDING:
        return [ev(EventKind.COMMAND, CommandId.HOVER)]
    return []


def _completion_event(
    segment: Segment, next_segment: Segment, index: int
) -> TransitionEvent | None:
    """The event fired when ``segment`` finishes, or None for fly/hover legs."""
    ev = TransitionEvent
    if segment.action is Action.DRIVE:
        return ev(EventKind.REACHED_WAYPOINT, index)
    if segment.action is Action.TAKEOFF:
        return ev(EventKind.HOVER_STABLE)
    if segment.action is Action.LAND:
        if next_segment.medium is Medium.AQUATIC:
            return ev(EventKind.ENTERED_WATER)
        return ev(EventKind.TOUCHED_DOWN)
    return None


def _fire(state: ModeState, event: TransitionEvent, index: int) -> ModeState:
    nxt = successor(state, event)
    if nxt is None:
        raise MissionError(
            f"segment {index}: event {event.label()} is illegal from {state.label()}"
        )
    return nxt


@dataclass(frozen=True)
class SegmentPlan:
    """One segment's mode-machine work: the ``entry`` events fired when it
    starts, the ``mode`` held while it runs, and the ``completion`` event
    fired when it finishes (None for fly and hover legs and the last one).
    """

    entry: tuple[TransitionEvent, ...]
    mode: ModeState
    completion: TransitionEvent | None


def mission_plan(mission: Mission) -> tuple[SegmentPlan, ...]:
    """The mode sequence of ``mission``, one :class:`SegmentPlan` per segment.

    Folds entry and completion events for every segment through the
    transition table, starting parked on the ground.  This is the one place
    the sequence is decided: the runner fires exactly these events and the
    CLI replays them.

    Raises
    ------
    MissionError
        If any segment requires a transition the table does not allow
        (for example an aerial leg before any takeoff); the message names
        the segment index.
    """
    segments = mission.segments
    state = initial_state()
    start_z = 0.0  # Every mission starts on the surface.
    plan = []
    for i, seg in enumerate(segments):
        wanted = _in_progress_mode(seg, start_z)
        entry = tuple(_entry_events(state, wanted[1]))
        for e in entry:
            state = _fire(state, e, i)
        if (state.medium, state.substate) != wanted:
            raise MissionError(
                f"segment {i}: {seg.action.value} cannot run from {state.label()}"
            )
        completion = _completion_event(seg, segments[i + 1], i) \
            if i + 1 < len(segments) else None
        plan.append(SegmentPlan(entry=entry, mode=state, completion=completion))
        if completion is not None:
            state = _fire(state, completion, i)
        start_z = float(seg.target[2])
    return tuple(plan)


def mission_events(mission: Mission) -> list[TransitionEvent]:
    """Nominal event sequence for ``mission``: its plan, flattened.

    Raises :class:`MissionError` as :func:`mission_plan` does.
    """
    events: list[TransitionEvent] = []
    for step in mission_plan(mission):
        events += step.entry
        if step.completion is not None:
            events.append(step.completion)
    return events


def _slew(current: float, desired: float, max_delta: float) -> float:
    """Move ``current`` toward ``desired`` by at most ``max_delta``, wrapped."""
    delta = wrap_angle(desired - current)
    if abs(delta) <= max_delta:
        return wrap_angle(desired)
    return wrap_angle(current + math.copysign(max_delta, delta))


class ReferenceGenerator:
    """Setpoint stream for one run: position ramps plus a slewed yaw.

    One segment is active at a time; :meth:`activate` arms it with its
    start point and clock origin, :meth:`step` advances the yaw state and
    returns the reference for the current tick, and :meth:`preview`
    samples the schedule ahead without mutating anything.

    Position references move along straight legs at the medium's cruise
    speed and clamp at the segment target, so consecutive ticks never
    differ by more than cruise speed times the tick length.  Yaw follows
    the horizontal path heading on driving and flying legs, holds during
    hovers and vertical legs, and slews at the configured rate.
    """

    def __init__(self, mission: Mission, cfg: SimConfig):
        self._mission = mission
        self._cfg = cfg
        self._legs: list[tuple[np.ndarray, np.ndarray, float | None, float]] = []
        self._t0 = 0.0
        self._end_point = np.array(mission.start, dtype=float)
        self._yaw = 0.0
        self._index: int | None = None

    def activate(self, index: int, t: float, start_point: np.ndarray) -> None:
        """Arm segment ``index`` with its schedule starting at time ``t``.

        The first activation anchors at ``start_point``.  Later ones anchor
        at the currently scheduled position, which equals the previous
        target once that schedule has finished; when a segment is cut short
        early the reference stream still stays continuous.
        """
        seg = self._mission.segments[index]
        if self._index is None:
            p0 = np.array(start_point, dtype=float)
        else:
            p0 = self._sample(t)[0]
        self._index = index
        target = np.array(seg.target, dtype=float)
        cfg = self._cfg
        # Drives are the only surface segments, so the medium names the speed.
        cruise = {Medium.TERRESTRIAL: cfg.cruise_ground, Medium.AQUATIC: cfg.cruise_water,
                  Medium.AERIAL: cfg.cruise_air}[seg.medium]
        if seg.action is Action.TAKEOFF:
            top = np.array([p0[0], p0[1], target[2]])
            points = [(p0, top, cruise), (top, target, cruise)]
        elif seg.action is Action.LAND:
            # A start at or below the flare altitude has no descent leg.
            over = np.array([target[0], target[1], p0[2]])
            flare = np.array([target[0], target[1], min(p0[2], target[2] + _FLARE_ALTITUDE)])
            points = [(p0, over, cruise), (over, flare, cfg.land_speed),
                      (flare, target, _FLARE_SPEED)]
        else:
            points = [(p0, target, cruise)]
        legs = []
        for a, b, speed in points:
            length = math.dist(a.tolist(), b.tolist())
            if length > 0.0:
                step = b - a
                steers = seg.action is not Action.HOVER \
                    and math.hypot(step[0], step[1]) > 1e-9 * max(1.0, length)
                heading = math.atan2(step[1], step[0]) if steers else None
                legs.append((a, step, heading, length / speed))
        self._legs = legs
        self._t0 = t
        self._end_point = target

    def _sample(self, t: float) -> tuple[np.ndarray, float | None]:
        """Scheduled position at absolute time ``t`` plus the leg heading.

        Heading is None on vertical legs, hover segments and after the
        schedule has clamped at the target.
        """
        tau = t - self._t0
        for a, step, heading, duration in self._legs:
            if tau <= duration:
                return a + (max(tau, 0.0) / duration) * step, heading
            tau -= duration
        return self._end_point, None

    def step(self, t: float, dt: float) -> np.ndarray:
        """Reference (x, y, z, yaw) for the tick at time ``t``, advancing yaw."""
        pos, heading = self._sample(t)
        if heading is not None:
            self._yaw = _slew(self._yaw, heading, self._cfg.yaw_slew * dt)
        return np.array([pos[0], pos[1], pos[2], self._yaw])

    def preview(self, t: float, n: int, period: float) -> np.ndarray:
        """(n, 4) samples of the schedule at ``t``, ``t+period``, ... .

        Yaw is slewed forward from the current yaw state; the generator
        itself is not mutated, so previews are repeatable.
        """
        yaw = self._yaw
        rows = np.empty((n, 4))
        for i in range(n):
            pos, heading = self._sample(t + i * period)
            if i > 0 and heading is not None:
                yaw = _slew(yaw, heading, self._cfg.yaw_slew * period)
            rows[i] = (pos[0], pos[1], pos[2], yaw)
        return rows
