"""The suite's own pytest settings keep a failing run whole.

Oracle: a child pytest run under the project's ``pyproject.toml`` on a
probe file with two failing Hypothesis tests and one passing test.  Every
warning is an error there, and Hypothesis's failure report imports libcst,
which warns that ``mypy_extensions.TypedDict`` is deprecated; unfiltered,
that warning aborts the run with INTERNALERROR (exit code 3) after the
first failure, so the later tests never run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails_first(x):
    assert x < 10


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails_second(x):
    assert x > -10


def test_passes():
    assert True
'''


def test_a_failing_property_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-q", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert done.returncode == 1
    assert "2 failed, 1 passed" in output
