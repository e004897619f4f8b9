"""Shared fixtures.

The whole builtin route takes seconds to fly, so the suite flies it once
per controller, through the CLI with the default config, and every check on
a whole-route run reads those runs: acceptance criteria 5-7 and
``test_sim.py``'s ``TestBuiltinPidRun``.
"""

import pytest
from test_acceptance import simulate_builtin


@pytest.fixture(scope="session")
def builtin_runs(tmp_path_factory):
    """``{controller: CliRun}`` for the builtin route under ``pid`` and ``nmpc``."""
    return {
        controller: simulate_builtin(controller, tmp_path_factory.mktemp(f"builtin_{controller}"))
        for controller in ("pid", "nmpc")
    }
