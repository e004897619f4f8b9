"""The two instant demos run to the end and print what they promise.

Each demo runs as a script in a fresh interpreter, as a reader runs it, so
a renamed name or a changed message in the package breaks this test rather
than the demo alone.  ``full_mission.py`` and ``hover_step_response.py``
fly closed loops for seconds and are not run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import cyclosim

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = str(Path(cyclosim.__file__).resolve().parents[1])


def _run(name: str) -> tuple[list, str]:
    """Stdout lines and stderr of ``demos/<name>``, which must exit 0."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines(), proc.stderr


def test_attitude_tour():
    out, err = _run("attitude_tour.py")
    assert err == ""
    assert "matches the matrix route: True" in out
    round_trip = next(line for line in out if line.startswith("round trip error (rad): "))
    assert float(round_trip.split(": ")[1]) < 1e-12
    assert out[-1].startswith("  GimbalLockError: Euler-rate map is singular at pitch=")


def test_mode_walk():
    out, err = _run("mode_walk.py")
    assert out[1].split()[-3:] == ["terrestrial/static", "retracted", "0.000"]
    assert out[11].split() == ["10", "command(drive)", "aquatic/driving", "open", "1.571"]
    assert out[-1] == "  state stays aerial/hovering"
    assert err == "  WARNING event entered_water has no transition from aerial/hovering; ignored\n"
