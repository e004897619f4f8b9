"""Closed-loop runner tests.

Oracles: the mode trace is restated literally and compared against the
logged transitions; log invariants (fixed tick, medium bands, legal mode
pairs, held inputs between solver ticks) are checked row by row; metric
definitions are checked on synthetic logs whose answers are computed by
hand (10 percent overshoot, shift invariance, zero error).  The builtin
route's checks read the suite's one ``pid`` flight of it (the session
fixture ``builtin_runs``); the other runs are short.
"""

import dataclasses
import math

import numpy as np
import pytest

from cyclosim import nmpc
from cyclosim.config import default_config
from cyclosim.errors import ConfigError
from cyclosim.fsm import Medium, SubState
from cyclosim.geometry import wrap_angle
from cyclosim.mission import Action, Mission, ReferenceGenerator, Segment, builtin_mission
from cyclosim.nmpc import NmpcController
from cyclosim.sim import (
    LOG_COLUMNS,
    RunLog,
    compute_metrics,
    run,
    save_log,
    save_metrics,
)

LEGAL_PAIRS = {
    ("terrestrial", "static"),
    ("terrestrial", "driving"),
    ("aerial", "static"),
    ("aerial", "takeoff"),
    ("aerial", "hovering"),
    ("aerial", "landing"),
    ("aquatic", "static"),
    ("aquatic", "driving"),
}

BANDS = {"terrestrial": (0.0, 100.0), "aerial": (100.0, 200.0), "aquatic": (200.0, 300.0)}

EXPECTED_TRACE = [
    ("terrestrial/static", "command(drive)", "terrestrial/driving"),
    ("terrestrial/driving", "reached_waypoint(0)", "terrestrial/static"),
    ("terrestrial/static", "gear_configured", "aerial/static"),
    ("aerial/static", "command(takeoff)", "aerial/takeoff"),
    ("aerial/takeoff", "hover_stable", "aerial/hovering"),
    ("aerial/hovering", "command(land)", "aerial/landing"),
    ("aerial/landing", "command(hover)", "aerial/hovering"),
    ("aerial/hovering", "command(land)", "aerial/landing"),
    ("aerial/landing", "entered_water", "aquatic/static"),
    ("aquatic/static", "command(drive)", "aquatic/driving"),
]


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def mission():
    return builtin_mission()


@pytest.fixture(scope="module")
def pid_log(builtin_runs):
    """The log of the builtin route under ``pid`` with the default config."""
    return builtin_runs["pid"].log


def mini_mission() -> Mission:
    """Short all-aerial route for fast closed-loop tests."""
    return Mission(
        segments=(
            Segment(Medium.AERIAL, Action.TAKEOFF, np.array([100.0, 0.0, 10.0])),
            Segment(Medium.AERIAL, Action.FLY_TO, np.array([110.0, 5.0, 12.0])),
        ),
        start=np.array([100.0, 0.0, 0.0]),
    )


class TestBuiltinPidRun:
    def test_completes_all_segments(self, pid_log, mission):
        assert pid_log.completed
        assert not pid_log.time_limit_hit
        assert not pid_log.diverged
        assert pid_log.t[-1] < 600.0
        assert set(pid_log.segment.tolist()) == set(range(len(mission.segments)))

    def test_every_waypoint_within_half_meter(self, pid_log, mission):
        pos = pid_log.state[:, 0:3]
        for seg in mission.segments:
            closest = float(np.min(np.linalg.norm(pos - seg.target, axis=1)))
            assert closest < 0.5

    def test_mode_trace(self, pid_log):
        triples = [(old, ev, new) for _, old, ev, new in pid_log.transitions]
        assert triples == EXPECTED_TRACE
        times = [t for t, _, _, _ in pid_log.transitions]
        assert times == sorted(times)

    def test_fixed_tick_and_monotone_time(self, pid_log):
        dt = np.diff(pid_log.t)
        assert np.all(dt > 0.0)
        assert np.allclose(dt, 0.01, atol=1e-9)

    def test_medium_bands(self, pid_log):
        for i in range(len(pid_log)):
            lo, hi = BANDS[pid_log.medium[i]]
            x = pid_log.state[i, 0]
            assert lo - 2.0 <= x <= hi + 2.0

    def test_mode_pairs_legal(self, pid_log):
        pairs = set(zip(pid_log.medium, pid_log.substate))
        assert pairs <= LEGAL_PAIRS

    def test_reference_is_continuous(self, pid_log):
        step = np.linalg.norm(np.diff(pid_log.ref[:, 0:3], axis=0), axis=1)
        assert float(np.max(step)) <= 3.0 * 0.01 + 1e-9
        yaw_step = np.array(
            [abs(wrap_angle(d)) for d in np.diff(pid_log.ref[:, 3]).tolist()]
        )
        assert float(np.max(yaw_step)) <= 1.5 * 0.01 + 1e-9

    def test_actuator_columns_match_medium(self, pid_log, cfg):
        for i in range(len(pid_log)):
            medium = pid_log.medium[i]
            rotors = pid_log.rotors[i]
            if medium == "terrestrial":
                assert np.all(rotors == 0.0)
                assert pid_log.servo[i] == 0.0
            elif medium == "aquatic":
                assert rotors[0] == 0.0 and rotors[1] == 0.0
                assert pid_log.servo[i] == pytest.approx(math.pi / 2.0)
            else:
                assert np.all(np.abs(rotors) <= cfg.rotor_max + 1e-9)
                assert abs(pid_log.servo[i]) <= cfg.servo_max + 1e-9

    def test_metrics_are_nonnegative(self, pid_log, mission):
        metrics = compute_metrics(pid_log, mission)
        assert len(metrics.segments) == len(mission.segments)
        for seg in metrics.segments:
            assert seg.rms >= 0.0
            assert seg.max_error >= 0.0
            assert all(v >= 0.0 for v in seg.overshoot)
            assert all(v >= 0.0 for v in seg.settling)
            assert seg.duration >= 0.0
        arrivals = [s.arrival_time for s in metrics.segments]
        assert arrivals == sorted(arrivals)
        assert metrics.total_time == pid_log.t[-1]

    def test_logged_heading_rate_is_integrated(self, pid_log):
        # Between two rows of one surface drive the heading (from the logged
        # quaternion) advances by the first row's logged wz over one tick.
        yaw = 2.0 * np.arctan2(pid_log.state[:, 9], pid_log.state[:, 6])
        advance = np.remainder(np.diff(yaw) + math.pi, 2.0 * math.pi) - math.pi
        mode = list(zip(pid_log.medium, pid_log.substate))
        pairs = [i for i in range(len(pid_log) - 1)
                 if mode[i] == mode[i + 1] and mode[i][1] == "driving"]
        wz = pid_log.state[pairs, 12]
        assert {mode[i][0] for i in pairs} == {"terrestrial", "aquatic"}
        assert np.count_nonzero(wz) > 0
        assert np.all(np.abs(advance[pairs] - wz * 0.01) <= 1e-9)


class TestMiniRuns:
    def test_pid_mini_completes(self, cfg):
        log = run(cfg, mini_mission(), controller="pid")
        assert log.completed
        assert log.t[-1] < 60.0

    def test_nmpc_mini_completes_with_diagnostics(self, cfg):
        log = run(cfg, mini_mission(), controller="nmpc")
        assert log.completed
        flying = [
            i for i in range(len(log))
            if log.medium[i] == "aerial" and log.substate[i] != "static"
        ]
        assert flying
        solve_rows = [i for i in flying if i % 5 == 0]
        assert any(log.cost[i] > 0.0 for i in solve_rows)
        assert int(np.max(log.iters)) <= cfg.nmpc.max_iters

    def test_nmpc_input_held_between_solves(self, cfg):
        log = run(cfg, mini_mission(), controller="nmpc")
        for i in range(1, len(log)):
            if log.medium[i] != "aerial" or log.substate[i] == "static":
                continue
            if log.substate[i - 1] != log.substate[i]:
                continue
            k = round(log.t[i] / 0.01)
            if k % 5 != 0:
                assert np.array_equal(log.inputs[i], log.inputs[i - 1])

    def test_nmpc_references_start_one_period_ahead(self, cfg, monkeypatch):
        # Output j of the horizon is the state one period after input j, so
        # the solver's first reference row is the schedule one period on.
        # The yaw row carries the generator's slew state, so positions are
        # compared; the takeoff and the leg move them on most solves.
        n, period = cfg.nmpc.horizon, cfg.nmpc.period
        preview, step = ReferenceGenerator.preview, NmpcController.step
        previews, moved = [], []

        def recorded_preview(gen, t, rows, dt):
            previews.append((gen, t))
            return preview(gen, t, rows, dt)

        def checked_step(ctl, x, refs):
            gen, t = previews[-1]
            ahead = preview(gen, t + period, 1, period)[0]
            assert refs.shape == (n, 4)
            assert np.array_equal(refs[0, :3], ahead[:3])
            moved.append(not np.array_equal(ahead[:3], preview(gen, t, 1, period)[0, :3]))
            return step(ctl, x, refs)

        monkeypatch.setattr(ReferenceGenerator, "preview", recorded_preview)
        monkeypatch.setattr(NmpcController, "step", checked_step)
        run(cfg, mini_mission(), controller="nmpc", time_limit=4.0)
        assert len(moved) > 20 and sum(moved) > len(moved) // 2

    def test_two_runs_byte_identical(self, cfg, tmp_path, monkeypatch):
        """Two runs in one process write the same bytes, and every solve's
        first secant update starts from the zero term: the solver's secant
        term never outlives its solve."""
        solve, update = nmpc.solve, nmpc._secant_update
        fresh, taken = [], []

        def solved(*args):
            fresh.append(True)
            return solve(*args)

        def updated(secant, *args):
            assert secant is None or not fresh
            fresh.clear()
            h_mat, new = update(secant, *args)
            taken.append(new is not None)
            return h_mat, new

        monkeypatch.setattr(nmpc, "solve", solved)
        monkeypatch.setattr(nmpc, "_secant_update", updated)
        paths = []
        for name in ("first.csv", "second.csv"):
            log = run(cfg, mini_mission(), controller="nmpc")
            path = tmp_path / name
            save_log(log, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert sum(taken) > 100

    def test_touch_and_go_rests_level_at_touchdown(self, cfg):
        """Land between two takeoffs: the touchdown tick logs the level,
        motionless state on the ground, and the run takes off again."""
        pad = np.array([110.0, 0.0, 5.0])
        mission = Mission(
            segments=(
                Segment(Medium.AERIAL, Action.TAKEOFF, np.array([100.0, 0.0, 5.0])),
                Segment(Medium.AERIAL, Action.LAND, np.array([110.0, 0.0, 0.0])),
                Segment(Medium.AERIAL, Action.TAKEOFF, pad),
                Segment(Medium.AERIAL, Action.HOVER, pad),
            ),
            start=np.array([100.0, 0.0, 0.0]),
        )
        log = run(cfg, mission, controller="pid")
        assert log.completed
        assert [event for _, _, event, _ in log.transitions] == [
            "gear_configured", "command(takeoff)", "hover_stable", "command(land)",
            "touched_down", "command(takeoff)", "hover_stable",
        ]
        touchdown = log.transitions[4][0]
        i = int(np.searchsorted(log.t, touchdown))
        assert log.t[i] == touchdown
        assert (log.medium[i], log.substate[i], log.segment[i]) == ("aerial", "takeoff", 2)
        row = log.state[i]
        assert math.hypot(row[0] - 110.0, row[1]) < cfg.sim.arrival_radius
        assert row[2] == 0.0
        assert np.array_equal(row[3:6], np.zeros(3))
        assert row[7] == row[8] == 0.0 and row[6] ** 2 + row[9] ** 2 == pytest.approx(1.0)
        assert np.array_equal(row[10:13], np.zeros(3))
        assert log.state[-1, 2] > 4.0

    def test_segments_done_at_the_start_all_advance_in_the_first_tick(self, cfg):
        """Two drives to the start point are done at t = 0: the first tick
        fires all five plan events, logs the third drive, and driving goes on."""
        start = np.array([10.0, 0.0, 0.0])
        goal = np.array([20.0, 0.0, 0.0])
        mission = Mission(
            segments=(
                Segment(Medium.TERRESTRIAL, Action.DRIVE, start),
                Segment(Medium.TERRESTRIAL, Action.DRIVE, start),
                Segment(Medium.TERRESTRIAL, Action.DRIVE, goal),
            ),
            start=start,
        )
        log = run(cfg, mission, controller="pid")
        assert log.completed
        assert [(t, event) for t, _, event, _ in log.transitions] == [
            (0.0, "command(drive)"), (0.0, "reached_waypoint(0)"), (0.0, "command(drive)"),
            (0.0, "reached_waypoint(1)"), (0.0, "command(drive)"),
        ]
        assert (log.medium[0], log.substate[0], log.segment[0]) == ("terrestrial", "driving", 2)
        assert set(log.substate) == {"driving"} and set(log.segment.tolist()) == {2}
        assert len(log) > 1
        assert math.dist(log.state[-1, 0:3], goal) < cfg.sim.arrival_radius


class TestRunEndings:
    def test_empty_mission_is_immediately_complete(self, cfg):
        log = run(cfg, Mission(segments=()))
        assert log.completed
        assert len(log) == 1
        assert log.t[0] == 0.0
        assert log.transitions == ()

    def test_time_limit_flags_and_stops(self, cfg, mission):
        log = run(cfg, mission, controller="pid", time_limit=5.0)
        assert log.time_limit_hit
        assert not log.completed
        assert log.t[-1] == pytest.approx(5.0, abs=1e-9)

    def test_divergence_returns_partial_log(self, cfg):
        weak = dataclasses.replace(cfg, rotor_max=1.0)
        log = run(weak, mini_mission(), controller="pid")
        assert log.diverged
        assert not log.completed
        assert len(log) > 10
        assert np.all(np.isfinite(log.state))

    def test_surface_divergence_ends_run_diverged(self, cfg):
        # A quarter-turn pursuit commands the largest turn rate; with a huge
        # track the wheel speeds differ by more than the largest float, so
        # the heading rate is infinite on the first driving tick.
        wide = dataclasses.replace(cfg, track_width=1.7e308)
        ground = Mission(
            segments=(Segment(Medium.TERRESTRIAL, Action.DRIVE, np.array([10.0, 10.0, 0.0])),),
            start=np.array([10.0, 0.0, 0.0]),
        )
        log = run(wide, ground, controller="pid")
        assert log.diverged
        assert not (log.completed or log.time_limit_hit)
        assert log.medium[-1] == "terrestrial"
        assert np.all(np.isfinite(log.state[:, 0:3]))

    def test_unknown_controller_rejected(self, cfg, mission):
        with pytest.raises(ValueError, match="controller"):
            run(cfg, mission, controller="lqr")

    @pytest.mark.parametrize("limit", [math.nan, math.inf, 0.0, -1.0])
    def test_time_limit_must_be_finite_and_positive(self, cfg, limit):
        with pytest.raises(ValueError, match="time limit"):
            run(cfg, mini_mission(), controller="pid", time_limit=limit)

    def test_time_limit_over_the_tick_cap_rejected(self, cfg):
        # 1e300 s at the 0.01 s controller period; rejected before any tick.
        with pytest.raises(ValueError, match=r"time limit 1e\+300 s is 1e\+302 ticks"):
            run(cfg, mini_mission(), controller="pid", time_limit=1e300)

    @pytest.mark.parametrize("section, key, value", [
        ("nmpc", "max_iters", 10**9), ("sim", "controller_period", 0.0)])
    def test_config_built_in_code_is_validated(self, cfg, section, key, value):
        # run applies load_config's validation, so a config built with
        # replace meets the same ranges and work caps before any tick.
        bad = dataclasses.replace(
            cfg, **{section: dataclasses.replace(getattr(cfg, section), **{key: value})})
        with pytest.raises(ConfigError, match=rf"^{section}\.{key} must"):
            run(bad, mini_mission(), controller="pid", time_limit=0.2)

    def test_misaligned_controller_period_rejected(self, cfg, mission):
        bad = dataclasses.replace(
            cfg, sim=dataclasses.replace(cfg.sim, controller_period=0.0103)
        )
        with pytest.raises(ConfigError):
            run(bad, mission)

    def test_misaligned_solver_period_rejected(self, cfg, mission):
        bad = dataclasses.replace(
            cfg, nmpc=dataclasses.replace(cfg.nmpc, period=0.013)
        )
        with pytest.raises(ConfigError):
            run(bad, mission)


def _synthetic_log(t, pos, ref, segment):
    n = len(t)
    return RunLog(
        t=np.asarray(t, dtype=float),
        medium=tuple("aerial" for _ in range(n)),
        substate=tuple("hovering" for _ in range(n)),
        state=np.hstack([np.asarray(pos, dtype=float), np.zeros((n, 10))]),
        ref=np.asarray(ref, dtype=float),
        inputs=np.zeros((n, 4)),
        rotors=np.zeros((n, 4)),
        servo=np.zeros(n),
        cost=np.zeros(n),
        iters=np.zeros(n, dtype=int),
        segment=np.asarray(segment, dtype=int),
        transitions=(),
        completed=True,
        time_limit_hit=False,
        diverged=False,
    )


def _step_mission():
    return Mission(
        segments=(
            Segment(Medium.AERIAL, Action.TAKEOFF, np.array([100.0, 0.0, 100.0])),
        ),
        start=np.array([100.0, 0.0, 0.0]),
    )


class TestMetricDefinitions:
    def test_ten_percent_overshoot_measured_exactly(self):
        z = [0.0, 50.0, 100.0, 110.0, 100.0, 100.0]
        t = list(range(len(z)))
        pos = [[100.0, 0.0, v] for v in z]
        ref = [[100.0, 0.0, 0.0, 0.0]] + [[100.0, 0.0, 100.0, 0.0]] * 5
        log = _synthetic_log(t, pos, ref, [0] * len(z))
        metrics = compute_metrics(log, _step_mission())
        assert metrics.segments[0].overshoot[2] == pytest.approx(10.0, abs=1e-9)
        assert metrics.segments[0].overshoot[0] == 0.0
        assert metrics.segments[0].overshoot[1] == 0.0

    def test_rms_is_shift_invariant(self):
        t = list(range(5))
        err = np.array([[0.1, -0.2, 0.3]] * 5)
        for shift in (0.0, 57.0):
            base = np.array([[100.0 + shift, 0.0, 50.0]] * 5)
            pos = base + err
            ref = np.hstack([base, np.zeros((5, 1))])
            log = _synthetic_log(t, pos, ref, [0] * 5)
            rms = compute_metrics(log, _step_mission()).segments[0].rms
            assert rms == pytest.approx(float(np.linalg.norm([0.1, -0.2, 0.3])), rel=1e-12)

    def test_zero_error_gives_zero_rms_and_overshoot(self):
        t = list(range(4))
        base = np.array([[100.0, 0.0, 25.0 * i] for i in range(4)])
        ref = np.hstack([base, np.zeros((4, 1))])
        log = _synthetic_log(t, base, ref, [0] * 4)
        seg = compute_metrics(log, _step_mission()).segments[0]
        assert seg.rms == 0.0
        assert seg.max_error == 0.0
        assert seg.overshoot == (0.0, 0.0, 0.0)

    def test_never_settling_reports_infinity(self):
        t = list(range(4))
        pos = [[100.0, 0.0, 50.0]] * 4
        ref = [[100.0, 0.0, 0.0, 0.0]] + [[100.0, 0.0, 100.0, 0.0]] * 3
        log = _synthetic_log(t, pos, ref, [0] * 4)
        seg = compute_metrics(log, _step_mission()).segments[0]
        assert seg.settling[2] == math.inf

    def test_settled_from_the_first_row_reports_zero(self):
        t = list(range(3))
        pos = [[100.0, 0.0, 99.0]] * 3  # inside 2 % of the 100 m step throughout
        ref = [[100.0, 0.0, 0.0, 0.0]] + [[100.0, 0.0, 100.0, 0.0]] * 2
        log = _synthetic_log(t, pos, ref, [0] * 3)
        seg = compute_metrics(log, _step_mission()).segments[0]
        assert seg.settling == (0.0, 0.0, 0.0)
        assert seg.overshoot[2] == 0.0

    def test_empty_log_rejected(self):
        log = _synthetic_log([], np.zeros((0, 3)), np.zeros((0, 4)), [])
        with pytest.raises(ValueError):
            compute_metrics(log, _step_mission())


class TestFiles:
    def test_log_csv_layout(self, cfg, tmp_path):
        log = run(cfg, mini_mission(), controller="pid")
        path = tmp_path / "log.csv"
        save_log(log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(LOG_COLUMNS)
        assert len(lines) == len(log) + 1
        assert all(len(line.split(",")) == len(LOG_COLUMNS) for line in lines[1:])
        assert list(tmp_path.iterdir()) == [path]

    def test_metrics_file_keys(self, cfg, tmp_path):
        log = run(cfg, mini_mission(), controller="pid")
        metrics = compute_metrics(log, mini_mission())
        path = tmp_path / "metrics.txt"
        save_metrics(metrics, log, path)
        text = path.read_text()
        pairs = dict(
            line.split(" = ", 1) for line in text.splitlines() if " = " in line
        )
        assert pairs["completed"] == "true"
        assert pairs["diverged"] == "false"
        assert "seg0_takeoff_rms_m" in pairs
        assert "seg1_fly_to_overshoot_z_pct" in pairs
        assert sum(1 for k in pairs if k.startswith("transition_")) == len(
            log.transitions
        )


class TestWriter:
    def _log(self):
        n = 5
        rng = np.random.default_rng(3)
        awkward = np.array([0.1, 1.0 / 3.0, -0.0, 5e-324, 1.7976931348623157e308,
                            -2.5e-17, 123456789.123456789, math.pi, 1e16, -7.0])
        t = np.array([0.0, 0.01, 0.02, 0.03, 0.04])
        state = rng.standard_normal((n, 13))
        state[:, 0:10] = awkward[None, :] / (1 + np.arange(n))[:, None]
        return RunLog(
            t=t,
            medium=("aerial", "aerial", "aerial", "aquatic", "aquatic"),
            substate=("takeoff", "hovering", "landing", "static", "driving"),
            state=state,
            ref=rng.standard_normal((n, 4)) * 1e3,
            inputs=rng.standard_normal((n, 4)) * 1e-9,
            rotors=rng.uniform(0.0, 1200.0, (n, 4)),
            servo=np.array([0.0, 0.1, -0.2, math.pi / 2, 1e-300]),
            cost=np.array([0.0, 12.5, 3e-8, 1e6, 0.0]),
            iters=np.array([0, 3, 17, 0, 50]),
            segment=np.zeros(n, dtype=int),
            transitions=(),
            completed=True,
            time_limit_hit=False,
            diverged=False,
        )

    def test_cells_parse_back_exactly(self, tmp_path):
        log = self._log()
        path = tmp_path / "log.csv"
        save_log(log, path)
        text = path.read_text()
        assert text.endswith("\n") and not text.endswith("\n\n")
        lines = text.splitlines()
        assert lines[0] == ",".join(LOG_COLUMNS)
        assert len(lines) == len(log) + 1
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert cells[1:3] == [log.medium[i], log.substate[i]]
            floats = [float(c) for c in [cells[0], *cells[3:-1]]]
            expected = [log.t[i], *log.state[i], *log.ref[i], *log.inputs[i],
                        *log.rotors[i], log.servo[i], log.cost[i]]
            assert len(floats) == len(expected)
            for got, want in zip(floats, expected):
                assert got == want
                assert math.copysign(1.0, got) == math.copysign(1.0, want)
            assert cells[-1] == str(int(log.iters[i]))

    def test_iters_written_as_int(self, tmp_path):
        log = self._log()
        log = dataclasses.replace(log, iters=log.iters.astype(float))
        path = tmp_path / "log.csv"
        save_log(log, path)
        iters = [line.split(",")[-1] for line in path.read_text().splitlines()[1:]]
        assert iters == ["0", "3", "17", "0", "50"]

    def test_empty_log_writes_header_only(self, tmp_path):
        log = _synthetic_log([], np.zeros((0, 3)), np.zeros((0, 4)), [])
        path = tmp_path / "log.csv"
        save_log(log, path)
        assert path.read_text() == ",".join(LOG_COLUMNS) + "\n"


class TestLogLayout:
    def test_fields_keep_their_dtypes(self, cfg):
        log = run(cfg, mini_mission(), controller="pid")
        n = len(log)
        for name, width in (("state", 13), ("ref", 4), ("inputs", 4), ("rotors", 4)):
            assert getattr(log, name).shape == (n, width)
            assert getattr(log, name).dtype == np.float64
        for name in ("t", "servo", "cost"):
            assert getattr(log, name).shape == (n,)
            assert getattr(log, name).dtype == np.float64
        assert log.iters.dtype == np.dtype(int)
        assert log.segment.dtype == np.dtype(int)
        assert isinstance(log.medium, tuple) and isinstance(log.substate, tuple)
        assert len(log.medium) == len(log.substate) == n
