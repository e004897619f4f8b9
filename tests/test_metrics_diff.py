"""``tools/metrics_diff.py`` compares two metrics files key by key.

Oracles: hand-written metrics files whose largest relative shift and
changed keys are known, and the files ``save_metrics`` writes for one short
run, which must compare equal to themselves.
"""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "metrics_diff.py"


def load_tool():
    """``tools/metrics_diff.py`` as a module."""
    spec = importlib.util.spec_from_file_location("metrics_diff", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tool():
    return load_tool()


def _write(path, lines):
    path.write_text("".join(f"{line}\n" for line in lines))
    return str(path)


OLD = [
    "completed = true",
    "seg0_drive_rms_m = 2.0",
    "seg0_drive_max_error_m = 0.0",
    "transition_00 = 0.0 terrestrial/static -> terrestrial/driving (command(drive))",
]


def test_identical_files_pass(tool, tmp_path, capsys):
    old = _write(tmp_path / "old.txt", OLD)
    assert tool.main([old, old]) == 0
    out = capsys.readouterr().out
    assert "largest relative shift: 0.000e+00" in out
    assert "changed" not in out


def test_largest_shift_against_rtol(tool, tmp_path, capsys):
    old = _write(tmp_path / "old.txt", OLD)
    new = _write(tmp_path / "new.txt", [OLD[0], "seg0_drive_rms_m = 2.0000000002",
                                        "seg0_drive_max_error_m = 0.0", OLD[3]])
    assert tool.main([old, new]) == 0
    assert "1.000e-10 at seg0_drive_rms_m" in capsys.readouterr().out
    assert tool.main([old, new, "--rtol", "1e-11"]) == 1
    assert "outside rtol 1e-11" in capsys.readouterr().out


def test_changed_text_and_missing_keys_fail(tool, tmp_path, capsys):
    old = _write(tmp_path / "old.txt", OLD)
    moved = OLD[3].replace("= 0.0 ", "= 0.01 ")
    new = _write(tmp_path / "new.txt", ["completed = false", OLD[1], moved, "extra = 1"])
    assert tool.main([old, new, "--rtol", "1"]) == 1
    out = capsys.readouterr().out
    for key in ("completed", "transition_00", "seg0_drive_max_error_m", "extra"):
        assert f"changed: {key}:" in out


def test_relative_shift(tool):
    assert tool.relative_shift(0.0, 0.0) == 0.0
    assert tool.relative_shift(float("nan"), float("nan")) == 0.0
    assert tool.relative_shift(1.0, -1.0) == 2.0
    assert tool.relative_shift(0.0, 1e-300) == 1.0
    assert tool.relative_shift(1.0, float("inf")) == float("inf")


def test_a_run_compares_equal_to_itself(tool, tmp_path):
    from cyclosim.config import default_config
    from cyclosim.mission import builtin_mission
    from cyclosim.sim import compute_metrics, run, save_metrics

    mission = builtin_mission()
    log = run(default_config(), mission, "pid", time_limit=20.0)
    path = tmp_path / "metrics.txt"
    save_metrics(compute_metrics(log, mission), log, path)
    metrics = tool.read_metrics(path)
    assert metrics["completed"] == "false"
    assert tool.compare(metrics, metrics)[1] == []
    assert tool.main([str(path), str(path), "--rtol", "0"]) == 0
