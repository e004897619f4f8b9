"""Mode state machine: three media, eight sub-states, gear and servo actions.

The machine is a pure transition table over immutable :class:`ModeState`
values.  Events that have no edge from the current state are absorbed (the
state is returned unchanged and a warning is logged) so a mission runner
survives spurious triggers.  Commands carry an id because a hovering vehicle
can be told either to climb again or to land; the (state, event kind,
command id) triple always has at most one successor.

Gear and servo configuration are applied as transition actions: terrestrial
states retract the gear, aerial and aquatic states open it, and the thrust
servo is commanded upright for flight and rotated to the surge direction for
swimming.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Medium",
    "SubState",
    "Gear",
    "EventKind",
    "CommandId",
    "ModeState",
    "TransitionEvent",
    "AERIAL_SERVO_ANGLE",
    "AQUATIC_SERVO_ANGLE",
    "initial_state",
    "legal_transitions",
    "successor",
    "step_fsm",
    "replay",
]

log = logging.getLogger(__name__)


class Medium(Enum):
    TERRESTRIAL = "terrestrial"
    AERIAL = "aerial"
    AQUATIC = "aquatic"


class SubState(Enum):
    STATIC = "static"
    DRIVING = "driving"
    TAKEOFF = "takeoff"
    HOVERING = "hovering"
    LANDING = "landing"


class Gear(Enum):
    OPEN = "open"
    RETRACTED = "retracted"


class EventKind(Enum):
    REACHED_WAYPOINT = "reached_waypoint"
    HOVER_STABLE = "hover_stable"
    TOUCHED_DOWN = "touched_down"
    ENTERED_WATER = "entered_water"
    GEAR_CONFIGURED = "gear_configured"
    COMMAND = "command"


class CommandId(Enum):
    DRIVE = "drive"
    TAKEOFF = "takeoff"
    HOVER = "hover"
    LAND = "land"


_GEAR_FOR_MEDIUM = {
    Medium.TERRESTRIAL: Gear.RETRACTED,
    Medium.AERIAL: Gear.OPEN,
    Medium.AQUATIC: Gear.OPEN,
}

# Commanded thrust-axis angle per medium: upright for flight, rotated to the
# direction of movement for surge in water, parked upright on the ground.
AERIAL_SERVO_ANGLE = 0.0
AQUATIC_SERVO_ANGLE = math.pi / 2.0

_SERVO_FOR_MEDIUM = {
    Medium.TERRESTRIAL: 0.0,
    Medium.AERIAL: AERIAL_SERVO_ANGLE,
    Medium.AQUATIC: AQUATIC_SERVO_ANGLE,
}


@dataclass(frozen=True)
class ModeState:
    """Vehicle mode: medium, sub-state, landing gear and servo setting.

    Raises
    ------
    ValueError
        If the medium/sub-state pair is not one of the eight legal pairs,
        the gear does not match the medium, or the servo angle is not
        finite.
    """

    medium: Medium
    substate: SubState
    gear: Gear
    servo: float = 0.0

    def __post_init__(self):
        if (self.medium, self.substate) not in _LEGAL_PAIRS:
            raise ValueError(
                f"illegal mode pair: {self.medium.value}/{self.substate.value}"
            )
        if self.gear is not _GEAR_FOR_MEDIUM[self.medium]:
            raise ValueError(
                f"{self.medium.value} states require gear "
                f"{_GEAR_FOR_MEDIUM[self.medium].value}, got {self.gear.value}"
            )
        if not math.isfinite(self.servo):
            raise ValueError("servo angle must be finite")

    def label(self) -> str:
        return f"{self.medium.value}/{self.substate.value}"


@dataclass(frozen=True)
class TransitionEvent:
    """A trigger for the state machine.

    ``payload`` is the command id for COMMAND events, an optional waypoint
    index for REACHED_WAYPOINT, and must be None for everything else.
    """

    kind: EventKind
    payload: CommandId | int | None = None

    def __post_init__(self):
        if self.kind is EventKind.COMMAND:
            if not isinstance(self.payload, CommandId):
                raise ValueError("COMMAND events require a CommandId payload")
        elif self.kind is EventKind.REACHED_WAYPOINT:
            if self.payload is not None and type(self.payload) is not int:
                raise ValueError(
                    "REACHED_WAYPOINT payload must be a waypoint index or None"
                )
        elif self.payload is not None:
            raise ValueError(f"{self.kind.value} events carry no payload")

    def label(self) -> str:
        if isinstance(self.payload, CommandId):
            return f"{self.kind.value}({self.payload.value})"
        if self.payload is not None:
            return f"{self.kind.value}({self.payload})"
        return self.kind.value


def _mode(medium: Medium, substate: SubState) -> ModeState:
    return ModeState(
        medium=medium,
        substate=substate,
        gear=_GEAR_FOR_MEDIUM[medium],
        servo=_SERVO_FOR_MEDIUM[medium],
    )


def initial_state() -> ModeState:
    """Mission start: parked on the ground with the gear retracted."""
    return _mode(Medium.TERRESTRIAL, SubState.STATIC)


# Transition table: (medium, substate) -> {(event kind, command id or None):
# successor pair}.  Gear and servo actions are implied by the successor
# medium.
_TABLE: dict = {
    (Medium.TERRESTRIAL, SubState.STATIC): {
        (EventKind.COMMAND, CommandId.DRIVE): (Medium.TERRESTRIAL, SubState.DRIVING),
        (EventKind.GEAR_CONFIGURED, None): (Medium.AERIAL, SubState.STATIC),
    },
    (Medium.TERRESTRIAL, SubState.DRIVING): {
        (EventKind.REACHED_WAYPOINT, None): (Medium.TERRESTRIAL, SubState.STATIC),
    },
    (Medium.AERIAL, SubState.STATIC): {
        (EventKind.COMMAND, CommandId.TAKEOFF): (Medium.AERIAL, SubState.TAKEOFF),
    },
    (Medium.AERIAL, SubState.TAKEOFF): {
        (EventKind.HOVER_STABLE, None): (Medium.AERIAL, SubState.HOVERING),
    },
    (Medium.AERIAL, SubState.HOVERING): {
        (EventKind.COMMAND, CommandId.LAND): (Medium.AERIAL, SubState.LANDING),
        (EventKind.COMMAND, CommandId.TAKEOFF): (Medium.AERIAL, SubState.TAKEOFF),
    },
    (Medium.AERIAL, SubState.LANDING): {
        (EventKind.COMMAND, CommandId.HOVER): (Medium.AERIAL, SubState.HOVERING),
        (EventKind.TOUCHED_DOWN, None): (Medium.AERIAL, SubState.STATIC),
        (EventKind.ENTERED_WATER, None): (Medium.AQUATIC, SubState.STATIC),
    },
    (Medium.AQUATIC, SubState.STATIC): {
        (EventKind.COMMAND, CommandId.DRIVE): (Medium.AQUATIC, SubState.DRIVING),
        (EventKind.GEAR_CONFIGURED, None): (Medium.AERIAL, SubState.STATIC),
    },
    (Medium.AQUATIC, SubState.DRIVING): {
        (EventKind.REACHED_WAYPOINT, None): (Medium.AQUATIC, SubState.STATIC),
    },
}

# The eight legal (medium, sub-state) pairs: the table's rows.
_LEGAL_PAIRS = frozenset(_TABLE)


def legal_transitions(s: ModeState) -> set[tuple[EventKind, ModeState]]:
    """All (event kind, successor) pairs leaving ``s``.

    A kind can appear twice only for COMMAND, whose successor depends on the
    command id.
    """
    out = set()
    for (kind, _cmd), (medium, substate) in _TABLE[(s.medium, s.substate)].items():
        out.add((kind, _mode(medium, substate)))
    return out


def successor(s: ModeState, e: TransitionEvent) -> ModeState | None:
    """The state event ``e`` leads to from ``s``, or None if it has no edge.

    Gear and servo are configured for the successor's medium.  Logs
    nothing, so callers can test legality quietly.
    """
    cmd = e.payload if e.kind is EventKind.COMMAND else None
    pair = _TABLE[(s.medium, s.substate)].get((e.kind, cmd))
    return None if pair is None else _mode(*pair)


def step_fsm(s: ModeState, e: TransitionEvent) -> ModeState:
    """Advance the machine by one event.

    Legal events move to the :func:`successor`; anything else returns ``s``
    unchanged and logs the rejected event.
    """
    nxt = successor(s, e)
    if nxt is None:
        log.warning("event %s has no transition from %s; ignored", e.label(), s.label())
        return s
    return nxt


def replay(
    initial: ModeState, events: list[TransitionEvent] | tuple[TransitionEvent, ...]
) -> list[ModeState]:
    """Left fold of :func:`step_fsm`; returns all visited states.

    The output has one more entry than the input and starts with
    ``initial``.
    """
    states = [initial]
    for e in events:
        states.append(step_fsm(states[-1], e))
    return states
