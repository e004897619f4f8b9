"""``tools/solve_ab.py`` solves the same problems with two source trees and
compares their times and results.

Oracles: the corpus generator's stated ranges, ``solve`` called directly on
the same problems, hand-written summaries whose counts, sums and cost ratio
are known, and the working tree against itself, where every solve must be
identical.
"""

import dataclasses
import importlib.util
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cyclosim
from cyclosim.config import default_config
from cyclosim.dynamics import VehicleParams
from cyclosim.nmpc import solve

ROOT = Path(__file__).resolve().parents[1]
_TOOL = ROOT / "tools" / "solve_ab.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("solve_ab", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instances_follow_the_stated_ranges(tool):
    horizon = default_config().nmpc.horizon
    cases = list(tool.instances(6, horizon))
    assert [warm is None for _, _, warm in cases] == [True, False] * 3
    for x0, refs, warm in cases:
        assert list(x0[:3]) == [0.0, 0.0, 10.0]
        assert np.all(np.abs(x0[3:6]) <= 4.0) and np.all(np.abs(x0[10:]) <= 1.5)
        assert np.linalg.norm(x0[6:10]) == pytest.approx(1.0)
        assert refs.shape == (horizon, 4) and np.all(refs == refs[0])
        assert np.all(np.abs(refs[0, :2]) <= 10.0) and 5.0 <= refs[0, 2] <= 15.0
        assert abs(refs[0, 3]) <= 2.0
        if warm is not None:
            assert warm.shape == (horizon, 4) and np.all(np.abs(warm) <= 2.0)
    again = list(tool.instances(6, horizon))
    assert all(np.array_equal(a[0], b[0]) for a, b in zip(cases, again))


def test_four_instances_match_direct_solves(tool):
    trees = {name: tool.problem(cyclosim, None, 10) for name in ("parent", "change")}
    cfg = default_config()
    ncfg = dataclasses.replace(cfg.nmpc, max_iters=10)
    assert trees["change"][1] == ncfg
    params = VehicleParams.from_config(cfg)
    cases = list(tool.instances(4, ncfg.horizon))
    result = tool.replay(cases, trees, 1)
    assert all(len(t) == 1 and t[0] > 0.0 for t in result["seconds"].values())
    for records in result["summaries"].values():
        assert len(records) == 4
        for record, (x0, refs, warm) in zip(records, cases):
            sol = solve(x0, refs, warm, ncfg, params)
            assert record["u"] == sol.u.tobytes()
            assert record["converged"] == sol.converged
            assert record["iterations"] == sol.iterations <= 10
            assert record["evaluations"] == sol.evaluations
            assert record["cost"] == sol.cost
            assert math.isfinite(record["worst_excess"])


def test_compare_reports_counts_and_geometric_mean(tool):
    # The first parent solve ends beyond the tilt slack; the second change
    # solve ends inside the slack but past the limit.
    parent = [{"converged": False, "iterations": 25, "evaluations": 50, "worst_excess": 0.25,
               "cost": 4.0},
              {"converged": True, "iterations": 3, "evaluations": 7, "worst_excess": -0.1,
               "cost": 1.0},
              {"converged": True, "iterations": 4, "evaluations": 9, "worst_excess": 0.0,
               "cost": 2.0}]
    change = [{"converged": True, "iterations": 6, "evaluations": 12, "worst_excess": -0.3,
               "cost": 1.0},
              {"converged": True, "iterations": 3, "evaluations": 8, "worst_excess": 0.0009,
               "cost": 4.0},
              {"converged": True, "iterations": 4, "evaluations": 9, "worst_excess": 0.0,
               "cost": 2.0}]
    seconds = {"parent": [2.0, 4.0], "change": [1.0, 3.0]}
    lines = tool.report(seconds, {"parent": parent, "change": change})
    assert lines == ["  parent cpu s: 2.000 4.000",
                     "  change cpu s: 1.000 3.000",
                     "  ratio change/parent: 0.500 0.750; overall 0.667",
                     "  identical: 1 of 3",
                     "  converged: 2 -> 3 of 3",
                     "  iterations: 32 -> 13",
                     "  evaluations: 66 -> 29",
                     "  beyond the tilt slack: 1 -> 0",
                     "  geometric-mean cost ratio change/parent: 1.0000",
                     "  more than 1 % cheaper: change on 1, parent on 1"]
    report = tool.compare(parent, parent)
    assert report["cost_ratio"] == 1.0 and report["identical"] == 3
    with pytest.raises(ValueError, match="3 and 2 solves"):
        tool.compare(parent, change[:2])


def test_identical_counts_only_records_equal_in_every_field(tool):
    # A summary differing in one field only, of any kind, is not identical;
    # the float fields compare exactly and ``u`` by its bytes.
    u = np.zeros((2, 4))
    base = {"u": u.tobytes(), "converged": True, "iterations": 4, "evaluations": 9,
            "worst_excess": -0.1, "cost": 2.0}
    nudged = u.copy()
    nudged[1, 3] = math.nextafter(0.0, 1.0)
    changed = [base | {"converged": False}, base | {"iterations": 5},
               base | {"evaluations": 10}, base | {"worst_excess": math.nextafter(-0.1, 0.0)},
               base | {"cost": math.nextafter(2.0, 3.0)}, base | {"u": nudged.tobytes()}]
    assert tool.compare([base] * 7, [base, *changed])["identical"] == 1
    assert tool.compare([base] * 7, [dict(base) for _ in range(7)])["identical"] == 7


def test_compare_totals_the_iterations_of_both_runs(tool):
    # Totals over the summaries of each tree, whatever else changed; real
    # summaries carry one iteration count per solve.
    base = {"converged": True, "evaluations": 9, "worst_excess": -0.1, "cost": 2.0}
    parent = [base | {"iterations": k} for k in (1, 50, 7)]
    change = [base | {"iterations": k} for k in (1, 12, 9)]
    report = tool.compare(parent, change)
    assert (report["iterations_parent"], report["iterations_change"]) == (58, 22)
    assert report["identical"] == 1
    lines = tool.report({"parent": [1.0], "change": [1.0]}, {"parent": parent, "change": change})
    assert "  iterations: 58 -> 22" in lines
    trees = {name: tool.problem(cyclosim, None, 3) for name in ("parent", "change")}
    cases = list(tool.instances(2, trees["change"][1].horizon))
    solved = tool.replay(cases, trees, 1)["summaries"]["change"]
    assert tool.compare(solved, solved)["iterations_change"] == sum(
        r["iterations"] for r in solved) <= 6


@pytest.mark.parametrize("flag", ["--limit", "--rounds", "--max-iters"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_counts_below_one_are_usage_errors(tool, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        tool.main(["--parent-dir", str(ROOT), flag, value])
    assert exc.value.code == 2
    assert "--limit, --rounds and --max-iters must be at least 1" in capsys.readouterr().err


def test_the_tree_against_itself_gives_the_same_bytes():
    done = subprocess.run(
        [sys.executable, str(_TOOL), "--parent-dir", str(ROOT),
         "--workload", "cruise_nmpc", "dash_nmpc", "corpus", "--limit", "20", "--rounds", "1"],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    out = done.stdout
    for workload, seed in (("cruise_nmpc", 1), ("dash_nmpc", 1), ("corpus", 7)):
        assert f"{workload} seed {seed}: 20 solves, 1 rounds" in out
    assert out.count("identical: 20 of 20") == 3
    assert out.count("geometric-mean cost ratio change/parent: 1.0000") == 3
    assert len(re.findall(r"converged: (\d+) -> \1 of 20", out)) == 3
    assert len(re.findall(r"ratio change/parent: \d+\.\d{3}; overall \d+\.\d{3}", out)) == 3
