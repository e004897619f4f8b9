"""``tools/solver_corpus.py`` solves a seeded corpus of hard NMPC problems
and compares two runs of it.

Oracles: the generator's stated ranges, ``solve`` called directly on the
same instances, and hand-written result files whose cost ratio, counts and
sums are known.
"""

import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from cyclosim.config import default_config
from cyclosim.dynamics import VehicleParams
from cyclosim.nmpc import solve

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "solver_corpus.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("solver_corpus", _TOOL)
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


def test_four_instances_match_direct_solves(tool, capsys):
    assert tool.main(["--count", "4", "--max-iters", "10"]) == 0
    results = json.loads(capsys.readouterr().out)
    assert len(results) == 4
    cfg = default_config()
    ncfg = dataclasses.replace(cfg.nmpc, max_iters=10)
    params = VehicleParams.from_config(cfg)
    for record, (x0, refs, warm) in zip(results, tool.instances(4, ncfg.horizon)):
        sol = solve(x0, refs, warm, ncfg, params)
        assert record["converged"] == sol.converged
        assert record["iterations"] == sol.iterations <= 10
        assert record["evaluations"] == sol.evaluations
        assert record["cost"] == sol.cost
        assert math.isfinite(record["worst_excess"])


def test_compare_reports_counts_and_geometric_mean(tool, tmp_path, capsys):
    # The first old instance ends beyond the tilt slack; the second new one
    # ends inside the slack but past the limit.
    old = [{"converged": False, "iterations": 25, "evaluations": 50, "worst_excess": 0.25,
            "cost": 4.0},
           {"converged": True, "iterations": 3, "evaluations": 7, "worst_excess": -0.1,
            "cost": 1.0},
           {"converged": True, "iterations": 4, "evaluations": 9, "worst_excess": 0.0,
            "cost": 2.0}]
    new = [{"converged": True, "iterations": 6, "evaluations": 12, "worst_excess": -0.3,
            "cost": 1.0},
           {"converged": True, "iterations": 3, "evaluations": 8, "worst_excess": 0.0009,
            "cost": 4.0},
           {"converged": True, "iterations": 4, "evaluations": 9, "worst_excess": 0.0,
            "cost": 2.0}]
    paths = []
    for name, run in (("old", old), ("new", new)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(run))
        paths.append(str(path))
    assert tool.main(["--compare", *paths]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["identical in every field: 1 of 3",
                   "converged: 2 -> 3 of 3",
                   "iterations: 32 -> 13",
                   "evaluations: 66 -> 29",
                   "beyond the tilt slack: 1 -> 0",
                   "geometric-mean cost ratio new/old: 1.0000",
                   "more than 1 % cheaper: new on 1, old on 1"]
    report = tool.compare(old, old)
    assert report["cost_ratio"] == 1.0 and report["identical"] == 3
    with pytest.raises(ValueError, match="3 and 2 instances"):
        tool.compare(old, new[:2])


def test_identical_counts_only_records_equal_in_every_field(tool):
    # A record differing in one field only, of any kind, is not identical;
    # the float fields compare exactly.
    base = {"converged": True, "iterations": 4, "evaluations": 9, "worst_excess": -0.1,
            "cost": 2.0}
    changed = [base | {"converged": False}, base | {"iterations": 5},
               base | {"evaluations": 10}, base | {"worst_excess": math.nextafter(-0.1, 0.0)},
               base | {"cost": math.nextafter(2.0, 3.0)}]
    assert tool.compare([base] * 6, [base, *changed])["identical"] == 1
    assert tool.compare([base] * 6, [dict(base) for _ in range(6)])["identical"] == 6


def test_compare_totals_the_iterations_of_both_runs(tool, tmp_path, capsys):
    # Totals over the records of each run, whatever else changed; a run of
    # real results carries one iteration count per instance.
    base = {"converged": True, "evaluations": 9, "worst_excess": -0.1, "cost": 2.0}
    old = [base | {"iterations": k} for k in (1, 50, 7)]
    new = [base | {"iterations": k} for k in (1, 12, 9)]
    report = tool.compare(old, new)
    assert (report["iterations_old"], report["iterations_new"]) == (58, 22)
    assert report["identical"] == 1
    paths = []
    for name, run in (("old", old), ("new", new)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(run))
        paths.append(str(path))
    assert tool.main(["--compare", *paths]) == 0
    assert "iterations: 58 -> 22" in capsys.readouterr().out.splitlines()
    assert tool.main(["--count", "2", "--max-iters", "3"]) == 0
    solved = json.loads(capsys.readouterr().out)
    assert tool.compare(solved, solved)["iterations_new"] == sum(
        r["iterations"] for r in solved) <= 6
