"""Property tests over generated missions: the runner follows the plan.

Oracles: ``mission_plan`` is the specification of the mode sequence.  For
every generated mission, either the plan and ``run`` reject it with the same
message, or a short ``pid`` run ends exactly one way, logs a prefix of the
plan's events, and, when it completes, logs all of them and ends in the
last segment's planned mode.  Every row holds a legal mode, the actuators
of its medium, and a reference that moves at most one tick of the fastest
configured speed and yaw slew from the row before; no row but the empty
mission's one row holds a static sub-state.  A second run of a
realizable mission writes byte-identical files.

A few realizable missions that fly are also flown under ``nmpc`` with a
short limit: each run ends exactly one way, its rows pass the same checks,
and every solve that returns predicts roll and pitch within ``tilt_max``
plus the solver's ``_TILT_SLACK``, unless it fell back to braking inputs.

Missions have 0-6 segments with random actions and media, including orders
the transition table rejects.  Targets lie inside their medium's site band
and a few metres from one band edge, so legs are short; even so, a takeoff
takes seconds to settle, and longer missions end at the time limit.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclosim import nmpc
from cyclosim.config import default_config
from cyclosim.errors import MissionError
from cyclosim.fsm import Medium, initial_state
from cyclosim.geometry import quat_roll_pitch
from cyclosim.mission import (
    MEDIUM_BANDS,
    Action,
    Mission,
    Segment,
    mission_events,
    mission_plan,
)
from cyclosim.nmpc import _braking_inputs as braking_inputs
from cyclosim.nmpc import solve
from cyclosim.sim import compute_metrics, run, save_log, save_metrics

CONFIG = default_config()
TIME_LIMIT = 10.0
# The repeat test flies each mission twice, so under a shorter limit.
REPEAT_LIMIT = 3.0
# The solver costs far more per tick than pid: few missions, a short limit.
NMPC_MISSIONS = 5
NMPC_LIMIT = 3.0
# Each mission stays within this many metres of one band edge: the land-air
# edge, where drives are on the ground, or the air-water edge, where they
# are on the water.  Targets lie inside their medium's band.
_REACH = 3.0
_EDGES = ((100.0, Medium.TERRESTRIAL), (200.0, Medium.AQUATIC))
# The eight legal (medium, sub-state) pairs of the mode machine.
_LEGAL = {("terrestrial", "static"), ("terrestrial", "driving"), ("aerial", "static"),
          ("aerial", "takeoff"), ("aerial", "hovering"), ("aerial", "landing"),
          ("aquatic", "static"), ("aquatic", "driving")}
_TICK = CONFIG.sim.controller_period
_MAX_REF_STEP = max(CONFIG.sim.cruise_ground, CONFIG.sim.cruise_air,
                    CONFIG.sim.cruise_water, CONFIG.sim.land_speed) * _TICK + 1e-9
_MAX_YAW_STEP = CONFIG.sim.yaw_slew * _TICK + 1e-9


@st.composite
def segments(draw, edge, surface):
    action = draw(st.sampled_from(Action))
    medium = surface if action is Action.DRIVE else Medium.AERIAL
    lo, hi = MEDIUM_BANDS[medium]
    x = draw(st.floats(max(lo, edge - _REACH), min(hi, edge + _REACH)))
    y = draw(st.floats(-1.0, 1.0))
    on_surface = action in (Action.DRIVE, Action.LAND)
    z = 0.0 if on_surface else draw(st.floats(0.5, 1.5))
    hold = draw(st.floats(0.0, 1.0)) if action is Action.HOVER else 0.0
    return Segment(medium, action, np.array([x, y, z]), hold=hold)


@st.composite
def missions(draw):
    """Half the missions are realizable: each slot takes the first of up to
    three drawn segments that the plan accepts after the ones before, and
    stays empty if none is.  The rest keep every segment drawn."""
    edge, surface = draw(st.sampled_from(_EDGES))
    start = np.array([draw(st.floats(edge - _REACH, edge)), 0.0, 0.0])
    realizable = draw(st.booleans())
    kept: list[Segment] = []
    for _ in range(draw(st.integers(0, 6))):
        for _attempt in range(3 if realizable else 1):
            seg = draw(segments(edge, surface))
            if not realizable or _plannable(Mission(segments=(*kept, seg), start=start)):
                kept.append(seg)
                break
    return Mission(segments=tuple(kept), start=start)


def _plannable(mission: Mission) -> bool:
    try:
        mission_plan(mission)
    except MissionError:
        return False
    return True


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mission=missions())
def test_run_follows_plan(mission):
    try:
        plan = mission_plan(mission)
    except MissionError as planned:
        with pytest.raises(MissionError) as ran:
            run(CONFIG, mission, "pid", time_limit=TIME_LIMIT)
        assert str(ran.value) == str(planned)
        return
    log = run(CONFIG, mission, "pid", time_limit=TIME_LIMIT)
    assert [log.completed, log.time_limit_hit, log.diverged].count(True) == 1
    logged = [event for _t, _old, event, _new in log.transitions]
    expected = [e.label() for e in mission_events(mission)]
    assert logged == expected[:len(logged)]
    if log.completed:
        assert logged == expected
        last = plan[-1].mode if plan else initial_state()
        assert (log.medium[-1], log.substate[-1]) == (last.medium.value, last.substate.value)
    _check_rows(log)


def _check_rows(log) -> None:
    """Every row holds a legal mode, the actuators of its medium, and a
    reference within one tick of the row before.  No tick is at rest: the
    plan leaves each segment in a moving mode, so only the empty mission's
    one row, with no transition, holds a static sub-state."""
    assert set(zip(log.medium, log.substate)) <= _LEGAL
    assert "static" not in log.substate or (len(log) == 1 and not log.transitions)
    media = np.array(log.medium)
    ground, water = media == "terrestrial", media == "aquatic"
    assert np.all(log.rotors[ground] == 0.0) and np.all(log.servo[ground] == 0.0)
    assert np.all(log.rotors[water, :2] == 0.0)
    assert np.allclose(log.servo[water], math.pi / 2.0, rtol=1e-12, atol=0.0)
    step = np.linalg.norm(np.diff(log.ref[:, 0:3], axis=0), axis=1)
    assert np.all(step <= _MAX_REF_STEP)
    yaw_step = np.abs(np.remainder(np.diff(log.ref[:, 3]) + math.pi, 2.0 * math.pi) - math.pi)
    assert np.all(yaw_step <= _MAX_YAW_STEP)


def _flies(mission: Mission) -> bool:
    """A realizable mission with an aerial segment, so the solver runs."""
    return _plannable(mission) and any(s.medium is Medium.AERIAL for s in mission.segments)


@settings(max_examples=NMPC_MISSIONS, deadline=None, derandomize=True)
@given(mission=missions().filter(_flies))
def test_nmpc_run_keeps_the_invariants(mission):
    # Each returned solve is kept with whether it fell back to braking.
    solves, braked = [], []

    def spied_braking(*args):
        braked.append(True)
        return braking_inputs(*args)

    def spied_solve(*args):
        braked.clear()
        sol = solve(*args)
        solves.append((sol, bool(braked)))
        return sol

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nmpc, "solve", spied_solve)
        patch.setattr(nmpc, "_braking_inputs", spied_braking)
        log = run(CONFIG, mission, "nmpc", time_limit=NMPC_LIMIT)
    assert [log.completed, log.time_limit_hit, log.diverged].count(True) == 1
    _check_rows(log)
    bound = CONFIG.nmpc.tilt_max + nmpc._TILT_SLACK
    for sol, brake in solves:
        tilt = max(abs(a) for x in sol.states[1:] for a in quat_roll_pitch(x[6:10]))
        assert brake or tilt <= bound


@settings(max_examples=10, deadline=None, derandomize=True)
@given(mission=missions().filter(_plannable))
def test_second_run_writes_the_same_bytes(mission):
    first, second = (run(CONFIG, mission, "pid", time_limit=REPEAT_LIMIT) for _ in range(2))
    assert _written(first, mission) == _written(second, mission)


def _written(log, mission) -> tuple[bytes, bytes]:
    """The bytes of the CSV and the metrics file that ``log`` saves to."""
    with tempfile.TemporaryDirectory() as out:
        csv, metrics = Path(out) / "run.csv", Path(out) / "run_metrics.txt"
        save_log(log, csv)
        save_metrics(compute_metrics(log, mission), log, metrics)
        return csv.read_bytes(), metrics.read_bytes()
