"""Property tests over generated missions: the runner follows the plan.

Oracles: ``mission_plan`` is the specification of the mode sequence.  For
every generated mission, either the plan and ``run`` reject it with the same
message, or a short ``pid`` run ends exactly one way, logs a prefix of the
plan's events, and, when it completes, logs all of them and ends in the
last segment's planned mode.

Missions have 0-6 segments with random actions and media, including orders
the transition table rejects.  Targets lie inside their medium's site band
and a few metres from one band edge, so legs are short; even so, a takeoff
takes seconds to settle, and longer missions end at the time limit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclosim.config import default_config
from cyclosim.errors import MissionError
from cyclosim.fsm import Medium, initial_state
from cyclosim.mission import (
    MEDIUM_BANDS,
    Action,
    Mission,
    Segment,
    mission_events,
    mission_plan,
)
from cyclosim.sim import run

CONFIG = default_config()
TIME_LIMIT = 10.0
# Each mission stays within this many metres of one band edge: the land-air
# edge, where drives are on the ground, or the air-water edge, where they
# are on the water.  Targets lie inside their medium's band.
_REACH = 3.0
_EDGES = ((100.0, Medium.TERRESTRIAL), (200.0, Medium.AQUATIC))


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
