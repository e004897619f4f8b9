"""Command-line interface tests.

Oracles: exit codes and output shapes are restated from the interface
contract (0 success, 2 usage, 3 parse, 4 divergence, 5 time limit; every
failure ends with one ``error:`` line); short all-aerial missions keep
the closed-loop invocations fast.
"""

import re
import subprocess
import sys

import numpy as np
import pytest

from cyclosim import cli, sim
from cyclosim.cli import main
from cyclosim.errors import MissionError
from cyclosim.fsm import Medium
from cyclosim.mission import Action, Mission, Segment, save_mission
from cyclosim.sim import SegmentMetrics, TrackingMetrics
from test_mission import BAD_MISSION_FILES, HUGE

pytestmark = pytest.mark.usefixtures("keep_env_clean")


@pytest.fixture
def keep_env_clean(monkeypatch):
    monkeypatch.delenv("CYCLOSIM_CONFIG", raising=False)


@pytest.fixture(scope="module")
def mini_path(tmp_path_factory):
    mission = Mission(
        segments=(
            Segment(Medium.AERIAL, Action.TAKEOFF, np.array([100.0, 0.0, 10.0])),
            Segment(Medium.AERIAL, Action.FLY_TO, np.array([110.0, 5.0, 12.0])),
        ),
        start=np.array([100.0, 0.0, 0.0]),
    )
    path = tmp_path_factory.mktemp("missions") / "mini.yaml"
    save_mission(mission, path)
    return path


def _last_line(capsys):
    captured = capsys.readouterr()
    combined = (captured.out + captured.err).strip().splitlines()
    return captured, combined[-1] if combined else ""


class TestValidateFsm:
    def test_builtin_trace(self, capsys):
        assert main(["validate-fsm", "--mission", "builtin"]) == 0
        out = capsys.readouterr().out.splitlines()
        trace = [line for line in out if ":" in line and "result" not in line]
        assert len(trace) == 11
        assert trace[0].endswith("terrestrial/static")
        assert trace[-1].endswith("aquatic/driving")

    def test_empty_mission(self, tmp_path, capsys):
        path = tmp_path / "empty.yaml"
        path.write_text("start: [0.0, 0.0, 0.0]\nsegments: []\n")
        assert main(["validate-fsm", "--mission", str(path)]) == 0
        out = capsys.readouterr().out
        assert "terrestrial/static" in out

    @pytest.mark.parametrize("value", ["0", "{}"])
    def test_non_list_segments_is_parse_error(self, tmp_path, capsys, value):
        path = tmp_path / "bad.yaml"
        path.write_text(f"segments: {value}\n")
        assert main(["validate-fsm", "--mission", str(path)]) == 3
        _, last = _last_line(capsys)
        assert last == "error: mission 'segments' must be a list"

    def test_band_violation_names_segment(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "segments:\n"
            "- medium: aerial\n"
            "  action: fly_to\n"
            "  target: [350.0, 0.0, 120.0]\n"
        )
        assert main(["validate-fsm", "--mission", str(path)]) == 3
        _, last = _last_line(capsys)
        assert last.startswith("error:")
        assert "segment 0" in last

    @pytest.mark.parametrize("text, message", BAD_MISSION_FILES)
    def test_bad_file_is_parse_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert main(["validate-fsm", "--mission", str(path)]) == 3
        _, last = _last_line(capsys)
        assert last == f"error: {message}"

    def test_illegal_route_prints_only_the_error(self, tmp_path):
        """The plan tests legality quietly: no "ignored" warning precedes
        the error line (a fresh process, so logging is unconfigured)."""
        path = tmp_path / "drive_after_hover.yaml"
        path.write_text(
            "start: [100.0, 0.0, 0.0]\n"
            "segments:\n"
            "- {medium: aerial, action: takeoff, target: [100.0, 0.0, 5.0]}\n"
            "- {medium: aerial, action: hover, target: [100.0, 0.0, 5.0], hold: 1.0}\n"
            "- {medium: terrestrial, action: drive, target: [90.0, 0.0, 0.0]}\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "cyclosim.cli", "validate-fsm", "--mission", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "error: segment 2: event command(drive) is illegal from aerial/hovering"
        ]


class TestMalformedStart:
    @pytest.mark.parametrize("command", ["simulate", "validate-fsm"])
    @pytest.mark.parametrize("start", ["abc", "{x: 1}", "[true, 0, 0]", "[1, 2]",
                                       pytest.param(f"[{HUGE}, 0, 0]", id="huge_int")])
    def test_parse_error(self, tmp_path, capsys, command, start):
        """The start point gets the target's check: a parse error, exit 3."""
        path = tmp_path / "start.yaml"
        path.write_text(f"start: {start}\nsegments: []\n")
        argv = [command, "--mission", str(path)]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 3
        _, last = _last_line(capsys)
        assert last.startswith("error:")
        assert "start must be a 3-number list" in last

    @pytest.mark.parametrize("command", ["simulate", "validate-fsm"])
    def test_raised_start_is_parse_error(self, tmp_path, capsys, command):
        """The vehicle starts parked on the surface, so a start above it is
        rejected before any run: exit 3, and no output directory."""
        path = tmp_path / "start.yaml"
        path.write_text("start: [20, 0, 7]\n"
                        "segments:\n"
                        "- {medium: terrestrial, action: drive, target: [30, 0, 0]}\n")
        argv = [command, "--mission", str(path)]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 3
        _, last = _last_line(capsys)
        assert last == f"error: mission file {path}: mission start must lie on the surface"
        assert not (tmp_path / "out").exists()


class TestSimulate:
    def test_mini_mission_completes(self, mini_path, tmp_path, capsys):
        code = main([
            "simulate", "--mission", str(mini_path), "--controller", "pid",
            "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1].startswith("result: completed")
        log = tmp_path / "mini_pid.csv"
        metrics = tmp_path / "mini_pid_metrics.txt"
        assert log.exists() and metrics.exists()
        header = log.read_text().splitlines()[0]
        assert header.startswith("t,medium,substate,px")

    @pytest.mark.parametrize("text, key", [
        ("sim:\n  controller_period: 0.0103\n", "sim.controller_period"),
        ("nmpc:\n  period: 0.045\n", "nmpc.period"),
    ])
    def test_off_multiple_period_is_parse_error_before_any_output(
            self, mini_path, tmp_path, capsys, text, key):
        config_path = tmp_path / "config.yaml"
        config_path.write_text(text)
        out = tmp_path / "out"
        code = main(["simulate", "--mission", str(mini_path), "--config", str(config_path),
                     "--out", str(out)])
        assert code == 3
        _, last = _last_line(capsys)
        assert last.startswith(f"error: {key} must be a multiple")
        assert not out.exists()

    def test_zero_cruise_speed_is_parse_error_before_any_output(self, tmp_path, capsys):
        # It used to end in a ZeroDivisionError traceback once the first
        # leg was planned.
        config_path = tmp_path / "config.yaml"
        config_path.write_text("sim: {cruise_air: 0}\n")
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(config_path), "--out", str(out)])
        assert code == 3
        _, last = _last_line(capsys)
        assert last == "error: sim.cruise_air must be positive, got 0.0"
        assert not out.exists()

    def test_missing_mission_names_path(self, tmp_path, capsys):
        code = main([
            "simulate", "--mission", str(tmp_path / "nope.yaml"),
            "--out", str(tmp_path),
        ])
        assert code == 3
        _, last = _last_line(capsys)
        assert last.startswith("error:")
        assert "nope.yaml" in last

    def test_aerial_only_rejects_multimodal(self, tmp_path, capsys):
        code = main([
            "simulate", "--mission", "builtin", "--aerial-only",
            "--out", str(tmp_path),
        ])
        assert code == 2
        _, last = _last_line(capsys)
        assert last.startswith("error:")
        assert "segment 0" in last

    def test_aerial_only_accepts_aerial_mission(self, mini_path, tmp_path):
        code = main([
            "simulate", "--mission", str(mini_path), "--aerial-only",
            "--out", str(tmp_path),
        ])
        assert code == 0

    def test_raised_land_target_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "raised.yaml"
        path.write_text(
            "start: [150.0, 0.0, 0.0]\n"
            "segments:\n"
            "- {medium: aerial, action: takeoff, target: [150.0, 0.0, 6.0]}\n"
            "- {medium: aerial, action: land, target: [150.0, 0.0, 3.0]}\n"
        )
        code = main(["simulate", "--mission", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        _, last = _last_line(capsys)
        assert last == "error: segment 1: land segment targets must lie on the surface"
        assert not (tmp_path / "out").exists()

    def test_out_naming_a_file_is_usage_error(self, mini_path, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        code = main(["simulate", "--mission", str(mini_path), "--out", str(out)])
        assert code == 2
        _, last = _last_line(capsys)
        assert last.startswith("error: output directory not writable:")
        assert out.read_text() == ""

    def test_time_limit_exit_code(self, mini_path, tmp_path, capsys):
        code = main([
            "simulate", "--mission", str(mini_path),
            "--duration-limit", "1.0", "--out", str(tmp_path),
        ])
        assert code == 5
        captured, last = _last_line(capsys)
        assert last.startswith("error:")
        assert (tmp_path / "mini_pid.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("limit", ["nan", "inf", "0", "-1", "abc"])
    def test_bad_duration_limit_is_usage_error(
        self, mini_path, tmp_path, capsys, command, limit
    ):
        with pytest.raises(SystemExit) as exc:
            main([
                command, "--mission", str(mini_path),
                "--duration-limit", limit, "--out", str(tmp_path),
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert (f"argument --duration-limit: expected a finite, positive number, got {limit}"
                in err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_duration_limit_over_the_tick_cap_is_usage_error(
        self, mini_path, tmp_path, capsys, command
    ):
        code = main([
            command, "--mission", str(mini_path),
            "--duration-limit", "1e300", "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        _, last = _last_line(capsys)
        assert last == ("error: --duration-limit: time limit 1e+300 s is 1e+302 ticks,"
                        " above the cap of 1000000")
        assert not (tmp_path / "out").exists()

    def test_hover_hold_reaches_builtin_route(self, tmp_path, monkeypatch):
        cfg = tmp_path / "hold.yaml"
        cfg.write_text("sim:\n  hover_hold: 3.5\n")
        flown = []

        def no_flight(config, mission, **kwargs):
            flown.append(mission)
            raise MissionError("stopped before the flight")

        monkeypatch.setattr(cli, "run", no_flight)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        holds = [s.hold for s in flown[0].segments if s.action is Action.HOVER]
        assert holds == [3.5, 3.5]

    def test_divergence_exit_code(self, mini_path, tmp_path, capsys):
        cfg = tmp_path / "weak.yaml"
        cfg.write_text("rotor_max: 1.0\n")
        code = main([
            "simulate", "--mission", str(mini_path), "--config", str(cfg),
            "--out", str(tmp_path),
        ])
        assert code == 4
        _, last = _last_line(capsys)
        assert last.startswith("error:")
        assert "diverged" in last

    def test_divergence_line_names_the_run(self, mini_path, tmp_path, capsys):
        cfg = tmp_path / "weak.yaml"
        cfg.write_text("rotor_max: 1.0\n")
        code = main([
            "simulate", "--mission", str(mini_path), "--config", str(cfg),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 4
        _, last = _last_line(capsys)
        assert re.fullmatch(r"error: run mini_pid diverged at t=\d+\.\d\d s", last), last

    def test_yaw_with_no_rear_thrust_is_a_divergence(self, tmp_path, capsys):
        # With no pitch control a fast descent unloads the rear pair while
        # the yaw loop still asks for torque: the servo clips and the run
        # ends in a documented way, with both files written.
        mission = Mission(
            segments=(
                Segment(Medium.AERIAL, Action.TAKEOFF, np.array([150.0, 0.0, 60.0])),
                Segment(Medium.AERIAL, Action.FLY_TO, np.array([170.0, 5.0, 5.0])),
                Segment(Medium.AERIAL, Action.HOVER, np.array([170.0, 5.0, 5.0]), hold=1.0),
            ),
            start=np.array([150.0, 0.0, 0.0]),
        )
        mission_path = tmp_path / "descent.yaml"
        save_mission(mission, mission_path)
        cfg = tmp_path / "no_pitch.yaml"
        cfg.write_text("pid: {pitch: {p: 0.0, i: 0.0, d: 0.0}}\nsim: {cruise_air: 100.0}\n")
        out = tmp_path / "out"
        code = main(["simulate", "--mission", str(mission_path), "--config", str(cfg),
                     "--out", str(out)])
        assert code == 4
        _, last = _last_line(capsys)
        assert re.fullmatch(r"error: run descent_pid diverged at t=\d+\.\d\d s", last), last
        assert (out / "descent_pid.csv").exists()
        assert (out / "descent_pid_metrics.txt").exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_seed_is_usage_error(self, mini_path, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            main([
                command, "--mission", str(mini_path),
                "--seed", "7", "--out", str(tmp_path),
            ])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_unknown_controller_is_usage_error(self, mini_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "simulate", "--mission", str(mini_path),
                "--controller", "lqr", "--out", str(tmp_path),
            ])
        assert exc.value.code == 2

    def test_env_config_fallback(self, mini_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CYCLOSIM_CONFIG", str(tmp_path / "missing.yaml"))
        code = main([
            "simulate", "--mission", str(mini_path), "--out", str(tmp_path),
        ])
        assert code == 3
        _, last = _last_line(capsys)
        assert "missing.yaml" in last


class TestCompare:
    def test_self_comparison_is_identical(self, mini_path, tmp_path, capsys, monkeypatch):
        measured = []

        def counted(log, mission):
            measured.append(sim.compute_metrics(log, mission))
            return measured[-1]

        monkeypatch.setattr(cli, "compute_metrics", counted)
        code = main([
            "compare", "--mission", str(mini_path),
            "--left", "pid", "--right", "pid", "--out", str(tmp_path),
        ])
        assert code == 0
        # Each side's metrics are computed once, for its file and the table.
        assert len(measured) == 2
        left = (tmp_path / "mini_left_pid.csv").read_bytes()
        right = (tmp_path / "mini_right_pid.csv").read_bytes()
        assert left == right
        table = (tmp_path / "mini_compare_pid_vs_pid.txt").read_text()
        for row in table.splitlines()[1:]:
            cells = row.split()
            assert cells[-1] == "0.0000"
            assert cells[-2] == "0.0000"

    def test_table_has_row_per_aerial_segment_per_axis(
        self, mini_path, tmp_path, capsys
    ):
        code = main([
            "compare", "--mission", str(mini_path), "--out", str(tmp_path),
        ])
        assert code == 0
        table = (tmp_path / "mini_compare_pid_vs_nmpc.txt").read_text()
        lines = table.splitlines()
        header = lines[0].split()
        assert "os_pid" in header and "os_nmpc" in header
        assert "rms_pid" in header and "rms_nmpc" in header
        rows = lines[1:]
        assert len(rows) == 2 * 3
        assert [r.split()[2] for r in rows] == ["x", "y", "z"] * 2


    def test_time_limit_line_names_the_left_run(self, mini_path, tmp_path, capsys):
        code = main([
            "compare", "--mission", str(mini_path), "--duration-limit", "1.0",
            "--out", str(tmp_path),
        ])
        assert code == 5
        _, last = _last_line(capsys)
        assert last == ("error: run mini_left_pid hit the time limit at t=1.00 s"
                        " with segment 0 active")
        assert (tmp_path / "mini_left_pid_metrics.txt").exists()
        assert not (tmp_path / "mini_right_nmpc.csv").exists()


def _segment_metrics(index: int, action: str) -> SegmentMetrics:
    return SegmentMetrics(index=index, action=action, rms=0.5, max_error=1.0,
                          overshoot=(0.0, 0.0, 2.0), settling=(0.0, 0.0, 3.0),
                          arrival_time=10.0, duration=5.0)


class TestComparisonTable:
    def test_rows_only_for_aerial_segments_logged_on_both_sides(self):
        """Synthetic metrics, no flight: the surface segment 0, and segment
        3, which only the left run logged, get no rows."""
        target = np.array([100.0, 0.0, 5.0])
        mission = Mission(segments=(
            Segment(Medium.TERRESTRIAL, Action.DRIVE, np.array([100.0, 0.0, 0.0])),
            Segment(Medium.AERIAL, Action.TAKEOFF, target),
            Segment(Medium.AERIAL, Action.HOVER, target, hold=1.0),
            Segment(Medium.AERIAL, Action.FLY_TO, np.array([110.0, 0.0, 5.0])),
        ))
        logged = [_segment_metrics(i, seg.action.value) for i, seg in enumerate(mission.segments)]
        left = TrackingMetrics(segments=tuple(logged), total_time=20.0)
        right = TrackingMetrics(segments=tuple(logged[:3]), total_time=15.0)
        rows = cli._comparison_table(mission, "pid", "nmpc", left, right).splitlines()[1:]
        assert [row.split()[:3] for row in rows] == [
            [str(i), action, axis] for i, action in ((1, "takeoff"), (2, "hover"))
            for axis in ("x", "y", "z")
        ]
        assert all(row.split()[-2:] == ["0.0000", "0.0000"] for row in rows)


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cyclosim.cli", "validate-fsm"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "aquatic/driving" in proc.stdout
