"""Property test over every config key: each one holds to its field's range.

Oracles: the number keys come from walking ``dataclasses.fields`` of the
defaults, and each key's range from its field, so no second key list is
kept.  A value drawn outside the range is rejected by ``load_config`` with a
message that starts with the dotted key.  A value drawn inside it loads as
exactly that value, or a rule between keys rejects it; a loaded config flies
a 0.2 s ``pid`` mission to exactly one of the three endings.  The
hand-written rejections in ``test_config.py`` restate the ranges
independently.

Drawn flight configs (PID gains zeroed or scaled, a cruise speed up to
1000 m/s, the vehicle's mass and actuator limits anywhere in their ranges)
fly drawn aerial missions for 20 s under ``pid``: no exception escapes
``run``, and exactly one ending holds.

A config built in code meets the same checks: NaN, either infinity, a bool,
and a non-whole float for an ``int`` key each make ``validate`` and ``run``
raise a ConfigError that starts with the dotted key, before any tick.
"""

import math
import re
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclosim import sim
from cyclosim.config import PidChannelGains, default_config, load_config, validate
from cyclosim.errors import ConfigError
from cyclosim.fsm import Medium
from cyclosim.mission import Action, Mission, Segment


def _number_keys(path, obj):
    """(dotted key, field type, range or None) for each number field."""
    for f in fields(obj):
        name = f"{path}.{f.name}" if path else f.name
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _number_keys(name, value)
        else:
            yield name, f.type, f.metadata.get("range")


KEYS = {name: (kind, rng) for name, kind, rng in _number_keys("", default_config())}

# The rules between keys, which may reject a value inside its own range.
_CROSS_KEY = re.compile(r"must be below|must be >= dt|above the cap|must be a multiple")

MISSION = Mission(
    segments=(Segment(Medium.AERIAL, Action.TAKEOFF, np.array([100.0, 0.0, 10.0])),),
    start=np.array([100.0, 0.0, 0.0]),
)


def _inside(kind, rng):
    if rng is None:
        return st.floats(allow_nan=False, allow_infinity=False)
    low, high, open_low = rng
    if kind == "int":
        return st.integers(low, high)
    return st.floats(low, None if high == math.inf else high, exclude_min=open_low,
                     allow_infinity=False)


def _outside(kind, rng):
    low, high, open_low = rng
    if kind == "int":
        return st.integers(max_value=low - 1) | st.integers(min_value=high + 1)
    below = st.floats(max_value=low, exclude_max=not open_low, allow_infinity=False)
    if high == math.inf:
        return below
    return below | st.floats(min_value=high, exclude_min=True, allow_infinity=False)


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("overlay") / "config.yaml"


def test_walk_finds_every_key():
    assert len(KEYS) == 57
    assert sum(rng is not None for _kind, rng in KEYS.values()) == 37


@pytest.mark.parametrize("key", list(KEYS))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_key_holds_to_its_range(key, data, config_file):
    kind, rng = KEYS[key]
    outside = rng is not None and data.draw(st.booleans(), label="outside")
    value = data.draw(_outside(kind, rng) if outside else _inside(kind, rng), label=key)
    overlay = value
    for part in reversed(key.split(".")):
        overlay = {part: overlay}
    config_file.write_text(yaml.safe_dump(overlay))
    if outside:
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}[ :]"):
            load_config(config_file)
        return
    try:
        cfg = load_config(config_file)
    except ConfigError as exc:
        assert _CROSS_KEY.search(str(exc)), exc
        return
    loaded = cfg
    for part in key.split("."):
        loaded = getattr(loaded, part)
    assert loaded == value
    assert type(loaded) is (int if kind == "int" else float)
    log = sim.run(cfg, MISSION, "pid", time_limit=0.2)
    assert [log.completed, log.time_limit_hit, log.diverged].count(True) == 1


def _with(obj, key, value):
    """``obj`` with the dotted ``key`` set to ``value``, built in code."""
    head, _, rest = key.partition(".")
    return replace(obj, **{head: _with(getattr(obj, head), rest, value) if rest else value})


@pytest.mark.parametrize("key", list(KEYS))
def test_code_built_value_is_checked(key, monkeypatch):
    def no_tick(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(sim, "_Runner", no_tick)
    kind, _rng = KEYS[key]
    bad = [math.nan, math.inf, -math.inf, True] + ([15.5] if kind == "int" else [])
    for value in bad:
        cfg = _with(default_config(), key, value)
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}[ :]"):
            validate(cfg)
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}[ :]"):
            sim.run(cfg, MISSION, "pid", time_limit=0.2)


_BASE = default_config()


def _gains(default: PidChannelGains):
    """A channel's gains, each exactly 0 or -1x to 3x its default."""
    return st.builds(PidChannelGains, *(
        st.just(0.0) | st.floats(-g, 3.0 * g) for g in
        (default.p, default.i, default.d)))


@st.composite
def _flight_configs(draw):
    pid = replace(_BASE.pid, **{f.name: draw(_gains(gains)) for f in fields(_BASE.pid)
                                if isinstance(gains := getattr(_BASE.pid, f.name),
                                              PidChannelGains)})
    vehicle = {key: draw(_inside(*KEYS[key])) for key in ("mass", "rotor_max", "servo_max")}
    cruise = draw(st.floats(0.5, 1000.0))
    return replace(_BASE, pid=pid, sim=replace(_BASE.sim, cruise_air=cruise), **vehicle)


@st.composite
def _aerial_missions(draw):
    """A takeoff to 1-30 m, then up to two fly_to or hover legs."""
    x, y = draw(st.floats(100.0, 200.0)), draw(st.floats(-10.0, 10.0))
    legs = [Segment(Medium.AERIAL, Action.TAKEOFF, np.array([x, y, draw(st.floats(1.0, 30.0))]))]
    for _ in range(draw(st.integers(0, 2))):
        target = np.array([draw(st.floats(100.0, 200.0)), draw(st.floats(-10.0, 10.0)),
                           draw(st.floats(1.0, 30.0))])
        action = draw(st.sampled_from([Action.FLY_TO, Action.HOVER]))
        legs.append(Segment(Medium.AERIAL, action, target, hold=draw(st.floats(0.0, 2.0))))
    return Mission(segments=tuple(legs), start=np.array([x, y, 0.0]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cfg=_flight_configs(), mission=_aerial_missions())
# A fast descent with no pitch control leaves the rear pair without thrust
# while the yaw loop still asks for torque: the servo clips, the run goes on.
@example(cfg=replace(_BASE, pid=replace(_BASE.pid, pitch=PidChannelGains(0.0, 0.0, 0.0)),
                     sim=replace(_BASE.sim, cruise_air=100.0)),
         mission=Mission(segments=(
             Segment(Medium.AERIAL, Action.TAKEOFF, np.array([150.0, 0.0, 10.0])),
             Segment(Medium.AERIAL, Action.FLY_TO, np.array([160.0, 5.0, 1.0]))),
             start=np.array([150.0, 0.0, 0.0])))
def test_drawn_flight_ends_exactly_one_way(cfg, mission):
    log = sim.run(cfg, mission, "pid", time_limit=20.0)
    assert [log.completed, log.time_limit_hit, log.diverged].count(True) == 1
