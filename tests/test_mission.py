"""Tests for mission definitions and reference generation.

Oracles: the built-in route's waypoints and its eleven-state mode trace are
restated literally; reference samples are checked against closed-form
linear interpolation computed inline; the no-jump property is swept over
every segment at controller-tick resolution.
"""

import math
import os
import re

import numpy as np
import pytest

from cyclosim.config import SimConfig
from cyclosim.errors import MissionError
from cyclosim.fsm import Medium, SubState, initial_state, replay
from cyclosim.mission import (
    Action,
    Mission,
    ReferenceGenerator,
    Segment,
    atomic_write,
    builtin_mission,
    load_mission,
    mission_events,
    mission_plan,
    save_mission,
)


_FIRST = "segments:\n  - {medium: aerial, action: takeoff, target: [100, 0, 5]}\n"
# An integer past the float range: float() of it raises OverflowError.
HUGE = "1" + "0" * 400

# Mission files the loader rejects, each with its MissionError's message;
# a record error names the record's index.
BAD_MISSION_FILES = [
    pytest.param("- 1\n- 2\n", "mission file must hold a mapping", id="root"),
    pytest.param(_FIRST + "  - 5\n", "segment 1: segment record must be a mapping",
                 id="record"),
    pytest.param(_FIRST + "  - {medium: aerial, action: hover, target: [100, 0, 5], speed: 3}\n",
                 "segment 1: unknown keys ['speed']", id="record_keys"),
    pytest.param(_FIRST + "  - {medium: aerial, action: hover}\n",
                 "segment 1: missing key 'target'", id="missing_key"),
    pytest.param(_FIRST + "  - {medium: space, action: hover, target: [100, 0, 5]}\n",
                 "segment 1: unknown medium 'space'", id="medium"),
    pytest.param(_FIRST + "  - {medium: aerial, action: hover, target: [100, 0, 5], hold: long}\n",
                 "segment 1: hold must be a number", id="hold"),
    pytest.param(_FIRST + "  - {medium: aerial, action: hover, target: [100, 0, 5], hold: true}\n",
                 "segment 1: hold must be a number", id="hold_bool"),
    pytest.param(_FIRST + f"  - {{medium: aerial, action: hover, target: [100, 0, 5], hold: {HUGE}}}\n",
                 "segment 1: hold must be a number", id="hold_huge_int"),
    pytest.param(_FIRST + f"  - {{medium: aerial, action: hover, target: [100, 0, {HUGE}]}}\n",
                 "segment 1: target must be a 3-number list", id="target_huge_int"),
]


@pytest.fixture(scope="module")
def mission():
    return builtin_mission()


@pytest.fixture()
def cfg():
    return SimConfig()


def _schedule_done(gen: ReferenceGenerator, t: float) -> bool:
    """True once the generator's position schedule has clamped at the target."""
    return t - gen._t0 >= sum(leg[3] for leg in gen._legs)


class TestSegmentValidation:
    def test_band_enforced_per_medium(self):
        with pytest.raises(MissionError):
            Segment(Medium.TERRESTRIAL, Action.DRIVE, np.array([150.0, 0.0, 0.0]))
        with pytest.raises(MissionError):
            Segment(Medium.AERIAL, Action.FLY_TO, np.array([50.0, 0.0, 50.0]))
        with pytest.raises(MissionError):
            Segment(Medium.AQUATIC, Action.DRIVE, np.array([150.0, 0.0, 0.0]))

    def test_band_boundaries_included(self):
        Segment(Medium.TERRESTRIAL, Action.DRIVE, np.array([100.0, 0.0, 0.0]))
        Segment(Medium.AERIAL, Action.LAND, np.array([200.0, 0.0, 0.0]))
        Segment(Medium.AQUATIC, Action.DRIVE, np.array([200.0, 5.0, 0.0]))

    def test_action_medium_consistency(self):
        with pytest.raises(MissionError):
            Segment(Medium.AERIAL, Action.DRIVE, np.array([150.0, 0.0, 0.0]))
        with pytest.raises(MissionError):
            Segment(Medium.TERRESTRIAL, Action.HOVER, np.array([50.0, 0.0, 10.0]))

    def test_surface_targets_at_zero_altitude(self):
        with pytest.raises(MissionError):
            Segment(Medium.TERRESTRIAL, Action.DRIVE, np.array([50.0, 0.0, 1.0]))

    @pytest.mark.parametrize("z", [3.0, -0.5, 1e-9])
    def test_land_targets_on_the_surface(self, z):
        # The runner puts the vehicle at z = 0 on touchdown, so a raised pad
        # would make the logged state jump.
        with pytest.raises(MissionError, match="land segment targets must lie on the surface"):
            Segment(Medium.AERIAL, Action.LAND, np.array([150.0, 0.0, z]))

    def test_rejects_bad_targets_and_hold(self):
        with pytest.raises(MissionError):
            Segment(Medium.AERIAL, Action.HOVER, np.array([150.0, np.nan, 50.0]))
        with pytest.raises(MissionError):
            Segment(Medium.AERIAL, Action.HOVER, np.array([150.0, 0.0]))
        with pytest.raises(MissionError):
            Segment(Medium.AERIAL, Action.HOVER, np.array([150.0, 0.0, 50.0]), hold=-1.0)

    def test_mission_start_validated(self):
        with pytest.raises(MissionError):
            Mission(segments=(), start=np.array([0.0, np.inf, 0.0]))

    def test_integers_past_the_float_range_raise_mission_error(self):
        """The constructors give their own message, not float()'s
        OverflowError, for an int past the float range."""
        huge = int(HUGE)
        hover = (Medium.AERIAL, Action.HOVER)
        with pytest.raises(MissionError, match="^segment hold must be finite and nonnegative$"):
            Segment(*hover, np.array([150.0, 0.0, 5.0]), hold=huge)
        with pytest.raises(MissionError, match=r"^segment target must be a finite \(x, y, z\)"):
            Segment(*hover, [150, 0, huge])
        with pytest.raises(MissionError, match=r"^mission start must be a finite \(x, y, z\)"):
            Mission(segments=(), start=[huge, 0, 0])


class TestBuiltinMission:
    def test_exact_route(self, mission):
        """The eight legs and their waypoints, restated literally."""
        want = [
            (Medium.TERRESTRIAL, Action.DRIVE, (100.0, 0.0, 0.0)),
            (Medium.AERIAL, Action.TAKEOFF, (100.0, 0.0, 100.0)),
            (Medium.AERIAL, Action.FLY_TO, (200.0, 100.0, 150.0)),
            (Medium.AERIAL, Action.HOVER, (200.0, 100.0, 150.0)),
            (Medium.AERIAL, Action.FLY_TO, (150.0, 80.0, 100.0)),
            (Medium.AERIAL, Action.HOVER, (150.0, 80.0, 100.0)),
            (Medium.AERIAL, Action.LAND, (200.0, 0.0, 0.0)),
            (Medium.AQUATIC, Action.DRIVE, (300.0, 100.0, 0.0)),
        ]
        assert len(mission) == 8
        assert np.array_equal(mission.start, np.zeros(3))
        for seg, (medium, action, target) in zip(mission.segments, want):
            assert seg.medium is medium
            assert seg.action is action
            assert np.array_equal(seg.target, np.array(target))

    def test_hover_segments_hold(self, mission):
        holds = [seg.hold for seg in mission.segments]
        assert holds[3] > 0.0 and holds[5] > 0.0
        assert all(h == 0.0 for i, h in enumerate(holds) if i not in (3, 5))

    def test_event_sequence_and_trace(self, mission):
        events = mission_events(mission)
        trace = replay(initial_state(), events)
        assert [s.label() for s in trace] == [
            "terrestrial/static",
            "terrestrial/driving",
            "terrestrial/static",
            "aerial/static",
            "aerial/takeoff",
            "aerial/hovering",
            "aerial/landing",
            "aerial/hovering",
            "aerial/landing",
            "aquatic/static",
            "aquatic/driving",
        ]

    def test_final_mode(self, mission):
        last = mission_plan(mission)[-1].mode
        assert (last.medium, last.substate) == (Medium.AQUATIC, SubState.DRIVING)
        assert mission_plan(Mission(segments=())) == ()


class TestMissionEvents:
    def test_empty_mission_has_no_events(self):
        assert mission_events(Mission(segments=())) == []

    def test_aerial_leg_before_takeoff_rejected(self):
        fly = Segment(Medium.AERIAL, Action.FLY_TO, np.array([150.0, 0.0, 50.0]))
        with pytest.raises(MissionError, match="segment 0"):
            mission_events(Mission(segments=(fly,)))

    def test_wrong_medium_drive_rejected(self):
        swim = Segment(Medium.AQUATIC, Action.DRIVE, np.array([250.0, 0.0, 0.0]))
        with pytest.raises(MissionError, match="segment 0"):
            mission_events(Mission(segments=(swim,)))

    def test_no_path_back_to_ground_driving(self):
        """Once airborne the gear stays open; a ground drive cannot follow."""
        segs = (
            Segment(Medium.AERIAL, Action.TAKEOFF, np.array([150.0, 0.0, 50.0])),
            Segment(Medium.AERIAL, Action.LAND, np.array([150.0, 0.0, 0.0])),
            Segment(Medium.TERRESTRIAL, Action.DRIVE, np.array([50.0, 0.0, 0.0])),
        )
        with pytest.raises(MissionError, match="segment 2"):
            mission_events(Mission(segments=segs, start=np.array([150.0, 0.0, 0.0])))

    def test_land_then_takeoff_again(self):
        segs = (
            Segment(Medium.AERIAL, Action.TAKEOFF, np.array([150.0, 0.0, 50.0])),
            Segment(Medium.AERIAL, Action.LAND, np.array([150.0, 0.0, 0.0])),
            Segment(Medium.AERIAL, Action.TAKEOFF, np.array([150.0, 0.0, 30.0])),
        )
        events = mission_events(Mission(segments=segs, start=np.array([150.0, 0.0, 0.0])))
        labels = [e.label() for e in events]
        assert labels == [
            "gear_configured",
            "command(takeoff)",
            "hover_stable",
            "command(land)",
            "touched_down",
            "command(takeoff)",
        ]


class TestReferenceGenerator:
    def test_first_tick_moves_at_cruise(self, mission, cfg):
        gen = ReferenceGenerator(mission, cfg)
        gen.activate(0, 0.0, mission.start)
        ref = gen.step(cfg.controller_period, cfg.controller_period)
        assert np.allclose(
            ref[:3], [cfg.cruise_ground * cfg.controller_period, 0.0, 0.0], atol=1e-12
        )

    def test_drive_interpolation_closed_form(self, mission, cfg):
        gen = ReferenceGenerator(mission, cfg)
        gen.activate(0, 0.0, mission.start)
        ref = gen.step(25.0, cfg.controller_period)
        assert np.allclose(ref[:3], [cfg.cruise_ground * 25.0, 0.0, 0.0], atol=1e-12)

    def test_clamps_and_holds_at_target(self, mission, cfg):
        gen = ReferenceGenerator(mission, cfg)
        gen.activate(0, 0.0, mission.start)
        assert not _schedule_done(gen, 10.0)
        ref = gen.step(1000.0, cfg.controller_period)
        assert np.allclose(ref[:3], mission.segments[0].target, atol=1e-12)
        assert _schedule_done(gen, 1000.0)

    def test_takeoff_climbs_before_lateral(self, mission, cfg):
        gen = ReferenceGenerator(mission, cfg)
        gen.activate(1, 0.0, np.array([100.0, 0.0, 0.0]))
        ref = gen.step(10.0, cfg.controller_period)
        assert np.allclose(ref[:3], [100.0, 0.0, cfg.cruise_air * 10.0], atol=1e-12)

    def test_landing_moves_laterally_before_descending(self, mission, cfg):
        gen = ReferenceGenerator(mission, cfg)
        start = np.array([150.0, 80.0, 100.0])
        gen.activate(6, 0.0, start)
        early = gen.step(1.0, cfg.controller_period)
        assert early[2] == 100.0
        lateral = math.hypot(200.0 - 150.0, 0.0 - 80.0)
        t_mid = lateral / cfg.cruise_air + 50.0 / cfg.land_speed
        mid = gen.step(t_mid, cfg.controller_period)
        assert np.allclose(mid[:3], [200.0, 0.0, 50.0], atol=1e-9)

    def test_yaw_follows_heading_at_bounded_rate(self, mission, cfg):
        gen = ReferenceGenerator(mission, cfg)
        gen.activate(2, 0.0, np.array([100.0, 0.0, 100.0]))
        heading = math.atan2(100.0, 100.0)
        dt = cfg.controller_period
        prev = 0.0
        for k in range(1, 200):
            ref = gen.step(k * dt, dt)
            assert abs(ref[3] - prev) <= cfg.yaw_slew * dt + 1e-12
            prev = ref[3]
        assert prev == pytest.approx(heading, abs=1e-9)

    def test_hover_holds_yaw(self, mission, cfg):
        gen = ReferenceGenerator(mission, cfg)
        gen.activate(2, 0.0, np.array([100.0, 0.0, 100.0]))
        for k in range(200):
            gen.step(k * cfg.controller_period, cfg.controller_period)
        yaw_in = gen._yaw
        gen.activate(3, 2.0, mission.segments[2].target)
        ref = gen.step(2.5, cfg.controller_period)
        assert ref[3] == yaw_in

    def test_no_jump_across_all_segments(self, mission, cfg):
        """Tick-to-tick reference motion never exceeds cruise speed * dt."""
        gen = ReferenceGenerator(mission, cfg)
        dt = cfg.controller_period
        speeds = {
            Action.DRIVE: {
                Medium.TERRESTRIAL: cfg.cruise_ground,
                Medium.AQUATIC: cfg.cruise_water,
            },
        }
        point = mission.start
        t = 0.0
        for i, seg in enumerate(mission.segments):
            gen.activate(i, t, point)
            cruise = speeds.get(seg.action, {}).get(seg.medium, cfg.cruise_air)
            bound = max(cruise, cfg.land_speed) * dt + 1e-9
            prev = gen.step(t, dt)
            k = 0
            while not _schedule_done(gen, t + k * dt):
                k += 1
                cur = gen.step(t + k * dt, dt)
                assert np.linalg.norm(cur[:3] - prev[:3]) <= bound
                prev = cur
            t += (k + 100) * dt
            point = seg.target

    def test_preview_is_repeatable_and_non_mutating(self, mission, cfg):
        gen = ReferenceGenerator(mission, cfg)
        gen.activate(2, 0.0, np.array([100.0, 0.0, 100.0]))
        gen.step(1.0, cfg.controller_period)
        yaw_before = gen._yaw
        a = gen.preview(1.0, 16, 0.05)
        b = gen.preview(1.0, 16, 0.05)
        assert np.array_equal(a, b)
        assert a.shape == (16, 4)
        assert gen._yaw == yaw_before
        assert np.allclose(a[0, :3], gen.step(1.0, cfg.controller_period)[:3])

    def test_preview_slews_yaw_forward(self, mission, cfg):
        gen = ReferenceGenerator(mission, cfg)
        gen.activate(2, 0.0, np.array([100.0, 0.0, 100.0]))
        rows = gen.preview(0.0, 16, 0.05)
        deltas = np.abs(np.diff(rows[:, 3]))
        assert np.all(deltas <= cfg.yaw_slew * 0.05 + 1e-12)
        assert rows[-1, 3] == pytest.approx(math.atan2(100.0, 100.0), abs=0.02)


class TestMissionFiles:
    def test_round_trip(self, mission, tmp_path):
        path = os.path.join(tmp_path, "route.yaml")
        save_mission(mission, path)
        loaded = load_mission(path)
        assert len(loaded) == len(mission)
        assert np.array_equal(loaded.start, mission.start)
        for a, b in zip(loaded.segments, mission.segments):
            assert a.medium is b.medium
            assert a.action is b.action
            assert np.array_equal(a.target, b.target)
            assert a.hold == b.hold

    def test_missing_file_names_path(self):
        with pytest.raises(MissionError, match="no/such/route.yaml"):
            load_mission("no/such/route.yaml")

    def test_malformed_yaml_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("segments: [unclosed\n")
        with pytest.raises(MissionError, match="malformed"):
            load_mission(path)

    def test_bad_record_names_segment_index(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "segments:\n"
            "  - {medium: terrestrial, action: drive, target: [50, 0, 0]}\n"
            "  - {medium: terrestrial, action: drive, target: [150, 0, 0]}\n"
        )
        with pytest.raises(MissionError, match="segment 1"):
            load_mission(path)

    def test_raised_land_target_names_segment_index(self, tmp_path):
        path = tmp_path / "raised.yaml"
        path.write_text(
            "start: [150, 0, 0]\n"
            "segments:\n"
            "  - {medium: aerial, action: takeoff, target: [150, 0, 6]}\n"
            "  - {medium: aerial, action: land, target: [150, 0, 3]}\n"
        )
        with pytest.raises(MissionError,
                           match="segment 1: land segment targets must lie on the surface"):
            load_mission(path)

    @pytest.mark.parametrize("value", ["0", "{}", "false", "''", "7"])
    def test_segments_must_be_a_list(self, tmp_path, value):
        path = tmp_path / "bad.yaml"
        path.write_text(f"segments: {value}\n")
        with pytest.raises(MissionError, match="mission 'segments' must be a list"):
            load_mission(path)

    @pytest.mark.parametrize("text", ["segments: null\n", "segments: []\n",
                                      "start: [0, 0, 0]\n", ""])
    def test_null_or_missing_segments_mean_an_empty_route(self, tmp_path, text):
        path = tmp_path / "empty.yaml"
        path.write_text(text)
        assert len(load_mission(path)) == 0

    @pytest.mark.parametrize("text, message", BAD_MISSION_FILES)
    def test_bad_file_is_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(MissionError, match=f"^{re.escape(message)}$"):
            load_mission(path)

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_no_file(self, tmp_path, existing):
        """A chunk source that raises leaves the target as it was and no
        temp file behind."""
        target = tmp_path / "out.txt"
        if existing:
            target.write_text("old\n")

        def chunks():
            yield "new\n"
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            atomic_write(target, chunks())
        assert sorted(p.name for p in tmp_path.iterdir()) == (["out.txt"] if existing else [])
        if existing:
            assert target.read_text() == "old\n"

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("segments: []\nspeed: 9\n")
        with pytest.raises(MissionError, match="unknown"):
            load_mission(path)

    def test_unknown_action_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "segments:\n  - {medium: aerial, action: warp, target: [150, 0, 5]}\n"
        )
        with pytest.raises(MissionError, match="warp"):
            load_mission(path)
