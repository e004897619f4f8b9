"""Tests for the mode state machine.

The oracle is the transition table restated independently below as
``EXPECTED_EDGES`` and compared exhaustively against ``step_fsm`` over every
(state, event kind, command id) combination.  Invariants (gear matches
medium, only the eight legal pairs are reachable, medium changes land in a
static sub-state) are checked on every edge of that scan.
"""

import logging
import math

import pytest

from cyclosim.fsm import (
    AERIAL_SERVO_ANGLE,
    AQUATIC_SERVO_ANGLE,
    CommandId,
    EventKind,
    Gear,
    Medium,
    ModeState,
    SubState,
    TransitionEvent,
    initial_state,
    legal_transitions,
    replay,
    step_fsm,
    successor,
)

K = EventKind
C = CommandId

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

# Every event variant the machine can receive.
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

# Independent restatement of the full transition table:
# (medium, substate, kind, command id) -> successor (medium, substate).
EXPECTED_EDGES = {
    (Medium.TERRESTRIAL, SubState.STATIC, K.COMMAND, C.DRIVE): (
        Medium.TERRESTRIAL,
        SubState.DRIVING,
    ),
    (Medium.TERRESTRIAL, SubState.STATIC, K.GEAR_CONFIGURED, None): (
        Medium.AERIAL,
        SubState.STATIC,
    ),
    (Medium.TERRESTRIAL, SubState.DRIVING, K.REACHED_WAYPOINT, None): (
        Medium.TERRESTRIAL,
        SubState.STATIC,
    ),
    (Medium.AERIAL, SubState.STATIC, K.COMMAND, C.TAKEOFF): (
        Medium.AERIAL,
        SubState.TAKEOFF,
    ),
    (Medium.AERIAL, SubState.TAKEOFF, K.HOVER_STABLE, None): (
        Medium.AERIAL,
        SubState.HOVERING,
    ),
    (Medium.AERIAL, SubState.HOVERING, K.COMMAND, C.LAND): (
        Medium.AERIAL,
        SubState.LANDING,
    ),
    (Medium.AERIAL, SubState.HOVERING, K.COMMAND, C.TAKEOFF): (
        Medium.AERIAL,
        SubState.TAKEOFF,
    ),
    (Medium.AERIAL, SubState.LANDING, K.COMMAND, C.HOVER): (
        Medium.AERIAL,
        SubState.HOVERING,
    ),
    (Medium.AERIAL, SubState.LANDING, K.TOUCHED_DOWN, None): (
        Medium.AERIAL,
        SubState.STATIC,
    ),
    (Medium.AERIAL, SubState.LANDING, K.ENTERED_WATER, None): (
        Medium.AQUATIC,
        SubState.STATIC,
    ),
    (Medium.AQUATIC, SubState.STATIC, K.COMMAND, C.DRIVE): (
        Medium.AQUATIC,
        SubState.DRIVING,
    ),
    (Medium.AQUATIC, SubState.STATIC, K.GEAR_CONFIGURED, None): (
        Medium.AERIAL,
        SubState.STATIC,
    ),
    (Medium.AQUATIC, SubState.DRIVING, K.REACHED_WAYPOINT, None): (
        Medium.AQUATIC,
        SubState.STATIC,
    ),
}


def make_state(medium, substate):
    servo = AQUATIC_SERVO_ANGLE if medium is Medium.AQUATIC else 0.0
    return ModeState(medium=medium, substate=substate, gear=GEAR_FOR[medium], servo=servo)


def make_event(kind, payload):
    return TransitionEvent(kind=kind, payload=payload)


class TestModeState:
    def test_all_legal_pairs_construct(self):
        for medium, substate in LEGAL_PAIRS:
            s = make_state(medium, substate)
            assert s.medium is medium
            assert s.substate is substate

    def test_illegal_pairs_rejected(self):
        all_pairs = [(m, s) for m in Medium for s in SubState]
        illegal = [p for p in all_pairs if p not in LEGAL_PAIRS]
        assert len(illegal) == len(all_pairs) - 8
        for medium, substate in illegal:
            with pytest.raises(ValueError):
                ModeState(medium=medium, substate=substate, gear=GEAR_FOR[medium])

    def test_gear_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ModeState(Medium.TERRESTRIAL, SubState.STATIC, Gear.OPEN)
        with pytest.raises(ValueError):
            ModeState(Medium.AERIAL, SubState.HOVERING, Gear.RETRACTED)
        with pytest.raises(ValueError):
            ModeState(Medium.AQUATIC, SubState.DRIVING, Gear.RETRACTED)

    def test_non_finite_servo_rejected(self):
        with pytest.raises(ValueError):
            ModeState(Medium.AERIAL, SubState.STATIC, Gear.OPEN, servo=math.nan)

    def test_initial_state(self):
        s = initial_state()
        assert s.medium is Medium.TERRESTRIAL
        assert s.substate is SubState.STATIC
        assert s.gear is Gear.RETRACTED
        assert s.servo == 0.0


class TestTransitionEvent:
    def test_command_requires_id(self):
        with pytest.raises(ValueError):
            TransitionEvent(K.COMMAND)
        with pytest.raises(ValueError):
            TransitionEvent(K.COMMAND, payload=3)

    def test_waypoint_index_accepted(self):
        assert TransitionEvent(K.REACHED_WAYPOINT, payload=2).payload == 2
        assert TransitionEvent(K.REACHED_WAYPOINT).payload is None
        with pytest.raises(ValueError):
            TransitionEvent(K.REACHED_WAYPOINT, payload=C.DRIVE)
        # bool is a subclass of int, but True is no waypoint index.
        for flag in (True, False):
            with pytest.raises(ValueError, match="waypoint index or None"):
                TransitionEvent(K.REACHED_WAYPOINT, payload=flag)

    def test_other_kinds_reject_payload(self):
        for kind in (K.HOVER_STABLE, K.TOUCHED_DOWN, K.ENTERED_WATER, K.GEAR_CONFIGURED):
            TransitionEvent(kind)
            with pytest.raises(ValueError):
                TransitionEvent(kind, payload=1)


class TestStepFsm:
    def test_exhaustive_against_expected_table(self, caplog):
        """Every (state, event) combination matches the restated table."""
        for medium, substate in LEGAL_PAIRS:
            s = make_state(medium, substate)
            for kind, payload in ALPHABET:
                key = (medium, substate, kind, payload if kind is K.COMMAND else None)
                with caplog.at_level(logging.WARNING, logger="cyclosim.fsm"):
                    caplog.clear()
                    out = step_fsm(s, make_event(kind, payload))
                if key in EXPECTED_EDGES:
                    assert (out.medium, out.substate) == EXPECTED_EDGES[key]
                    assert not caplog.records
                else:
                    assert out == s
                    assert len(caplog.records) == 1

    def test_successor_is_the_quiet_lookup(self, caplog):
        """``successor`` gives step_fsm's result on every edge and None,
        without logging, where step_fsm absorbs the event."""
        for medium, substate in LEGAL_PAIRS:
            s = make_state(medium, substate)
            for kind, payload in ALPHABET:
                key = (medium, substate, kind, payload if kind is K.COMMAND else None)
                with caplog.at_level(logging.WARNING, logger="cyclosim.fsm"):
                    caplog.clear()
                    out = successor(s, make_event(kind, payload))
                    assert not caplog.records
                if key in EXPECTED_EDGES:
                    assert out == step_fsm(s, make_event(kind, payload))
                else:
                    assert out is None

    def test_invariants_hold_on_every_edge(self):
        for medium, substate in LEGAL_PAIRS:
            s = make_state(medium, substate)
            for kind, payload in ALPHABET:
                out = step_fsm(s, make_event(kind, payload))
                assert (out.medium, out.substate) in LEGAL_PAIRS
                assert out.gear is GEAR_FOR[out.medium]
                if out.medium is not s.medium:
                    assert out.substate is SubState.STATIC

    def test_deterministic(self):
        for medium, substate in LEGAL_PAIRS:
            s = make_state(medium, substate)
            for kind, payload in ALPHABET:
                first = step_fsm(s, make_event(kind, payload))
                second = step_fsm(s, make_event(kind, payload))
                assert first == second

    def test_gear_actions_applied(self):
        ground = step_fsm(make_state(Medium.TERRESTRIAL, SubState.DRIVING),
                          make_event(K.REACHED_WAYPOINT, None))
        assert ground.gear is Gear.RETRACTED
        airborne = step_fsm(ground, make_event(K.GEAR_CONFIGURED, None))
        assert airborne.medium is Medium.AERIAL
        assert airborne.gear is Gear.OPEN
        assert airborne.servo == AERIAL_SERVO_ANGLE

    def test_servo_rotates_on_water_entry(self):
        landing = make_state(Medium.AERIAL, SubState.LANDING)
        wet = step_fsm(landing, make_event(K.ENTERED_WATER, None))
        assert wet.medium is Medium.AQUATIC
        assert wet.substate is SubState.STATIC
        assert wet.servo == AQUATIC_SERVO_ANGLE == pytest.approx(math.pi / 2.0)

    def test_hovering_command_branches(self):
        hover = make_state(Medium.AERIAL, SubState.HOVERING)
        assert step_fsm(hover, make_event(K.COMMAND, C.LAND)).substate is SubState.LANDING
        assert step_fsm(hover, make_event(K.COMMAND, C.TAKEOFF)).substate is SubState.TAKEOFF

    def test_landing_has_three_exits(self):
        landing = make_state(Medium.AERIAL, SubState.LANDING)
        succ = {
            (ns.medium, ns.substate) for _, ns in legal_transitions(landing)
        }
        assert succ == {
            (Medium.AERIAL, SubState.HOVERING),
            (Medium.AERIAL, SubState.STATIC),
            (Medium.AQUATIC, SubState.STATIC),
        }


class TestLegalTransitions:
    def test_matches_expected_table(self):
        for medium, substate in LEGAL_PAIRS:
            s = make_state(medium, substate)
            got = {(k, ns.medium, ns.substate) for k, ns in legal_transitions(s)}
            want = {
                (kind, succ[0], succ[1])
                for (m, sub, kind, _cmd), succ in EXPECTED_EDGES.items()
                if m is medium and sub is substate
            }
            assert got == want

    def test_pure(self):
        s = make_state(Medium.AERIAL, SubState.HOVERING)
        before = s
        legal_transitions(s)
        assert s == before
        assert legal_transitions(s) == legal_transitions(s)


class TestReplay:
    def test_empty_event_list(self):
        s = initial_state()
        assert replay(s, []) == [s]

    def test_length_and_fold(self):
        events = [make_event(K.COMMAND, C.DRIVE), make_event(K.REACHED_WAYPOINT, None)]
        trace = replay(initial_state(), events)
        assert len(trace) == len(events) + 1
        assert trace[1] == step_fsm(trace[0], events[0])
        assert trace[2] == step_fsm(trace[1], events[1])

    def test_ground_air_water_trace(self):
        """The full mission event sequence visits eleven states exactly."""
        events = [
            make_event(K.COMMAND, C.DRIVE),
            make_event(K.REACHED_WAYPOINT, 0),
            make_event(K.GEAR_CONFIGURED, None),
            make_event(K.COMMAND, C.TAKEOFF),
            make_event(K.HOVER_STABLE, None),
            make_event(K.COMMAND, C.LAND),
            make_event(K.COMMAND, C.HOVER),
            make_event(K.COMMAND, C.LAND),
            make_event(K.ENTERED_WATER, None),
            make_event(K.COMMAND, C.DRIVE),
        ]
        trace = replay(initial_state(), events)
        labels = [(s.medium, s.substate) for s in trace]
        assert labels == [
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
        for s in trace:
            assert s.gear is GEAR_FOR[s.medium]
        assert trace[-1].servo == pytest.approx(math.pi / 2.0)

    def test_illegal_events_absorbed_in_replay(self, caplog):
        events = [make_event(K.HOVER_STABLE, None), make_event(K.COMMAND, C.DRIVE)]
        with caplog.at_level(logging.WARNING, logger="cyclosim.fsm"):
            trace = replay(initial_state(), events)
        assert trace[1] == trace[0]
        assert trace[2].substate is SubState.DRIVING
        assert any("no transition" in r.message for r in caplog.records)
