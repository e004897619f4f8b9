"""``tools/solve_ab.py`` replays recorded solves through two source trees.

Oracle: the working tree against itself, where every returned input
sequence must be bit-identical and each tree's time is reported.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_tree_against_itself_gives_the_same_bytes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "solve_ab.py"), "--parent-dir", str(ROOT),
         "--limit", "20", "--rounds", "1"],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    out = done.stdout
    for workload in ("cruise_nmpc", "dash_nmpc"):
        assert f"{workload} seed 1: 20 solves, 1 rounds" in out
    assert out.count("u bit-identical: 20 of 20") == 2
    assert len(re.findall(r"ratio change/parent: \d+\.\d{3}; overall \d+\.\d{3}", out)) == 2
