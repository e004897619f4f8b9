"""Solve a seeded corpus of hard NMPC problems and compare two such runs.

    PYTHONPATH=src python tools/solver_corpus.py [--max-iters 50] [--count 160] > NEW.json
    PYTHONPATH=src python tools/solver_corpus.py --compare OLD.json NEW.json

Each instance starts 10 m up with a random velocity (U(-4, 4) m/s per
axis), attitude (roll, pitch and yaw U(-0.7, 0.7) rad) and body rates
(U(-1.5, 1.5) rad/s), and holds one goal: x and y U(-10, 10) m, z
U(5, 15) m, yaw U(-2, 2) rad.  Even instances start cold; odd ones get a
U(-2, 2) warm start.  The draws come from one ``numpy`` generator seeded
with 7, so the corpus is the same for every solver.  Many instances start
tilted or spinning past the tilt limit.

A run solves every instance with the default configuration at
``--max-iters`` and prints one JSON list: per instance ``converged``,
``iterations``, ``evaluations``, ``worst_excess`` (the largest predicted
roll or pitch beyond the tilt limit, rad) and ``cost``.  To measure another
version of the package, put its ``src`` first on ``PYTHONPATH``.

``--compare`` prints how many instances the two runs solved identically
(equal in every field), the converged counts of both runs, their total
iterations and cost evaluations and how many instances end beyond the
solver's tilt slack, the geometric mean of the per-instance cost ratios
NEW/OLD and how many instances each run solved more than 1 % cheaper.
A change that claims to keep the solver's results shows all instances
identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from cyclosim.config import default_config
from cyclosim.dynamics import QUAT_SLICE, VehicleParams
from cyclosim.geometry import EulerAngles, euler_to_quat, quat_roll_pitch
from cyclosim.nmpc import _TILT_SLACK, solve

SEED = 7


def instances(count: int, horizon: int):
    """The first ``count`` instances as ``(x0, refs, warm_start)`` triples;
    ``warm_start`` is None for even instances."""
    rng = np.random.default_rng(SEED)
    for k in range(count):
        x0 = np.concatenate([
            [0.0, 0.0, 10.0],
            rng.uniform(-4.0, 4.0, 3),
            euler_to_quat(EulerAngles(*rng.uniform(-0.7, 0.7, 3))),
            rng.uniform(-1.5, 1.5, 3),
        ])
        goal = [*rng.uniform(-10.0, 10.0, 2), rng.uniform(5.0, 15.0), rng.uniform(-2.0, 2.0)]
        refs = np.tile(goal, (horizon, 1))
        warm = rng.uniform(-2.0, 2.0, (horizon, 4)) if k % 2 else None
        yield x0, refs, warm


def solve_corpus(count: int = 160, max_iters: int = 50) -> list[dict]:
    """Solve the first ``count`` instances; one result record each."""
    cfg = default_config()
    ncfg = dataclasses.replace(cfg.nmpc, max_iters=max_iters)
    params = VehicleParams.from_config(cfg)
    results = []
    for x0, refs, warm in instances(count, ncfg.horizon):
        sol = solve(x0, refs, warm, ncfg, params)
        tilt = max(max(abs(a) for a in quat_roll_pitch(x[QUAT_SLICE])) for x in sol.states[1:])
        results.append({
            "converged": sol.converged,
            "iterations": sol.iterations,
            "evaluations": sol.evaluations,
            "worst_excess": tilt - ncfg.tilt_max,
            "cost": sol.cost,
        })
    return results


def compare(old: list[dict], new: list[dict]) -> dict:
    """The instances equal in every field, the converged counts, total
    iterations and evaluations and instances beyond the tilt slack of each
    run, the geometric-mean cost ratio NEW/OLD and the instances each run
    solved more than 1 % cheaper."""
    if len(old) != len(new):
        raise ValueError(f"the runs cover {len(old)} and {len(new)} instances")
    ratios = [b["cost"] / a["cost"] for a, b in zip(old, new)]
    report = {"instances": len(old), "identical": sum(a == b for a, b in zip(old, new))}
    for name, run in (("old", old), ("new", new)):
        report[f"converged_{name}"] = sum(r["converged"] for r in run)
        report[f"iterations_{name}"] = sum(r["iterations"] for r in run)
        report[f"evaluations_{name}"] = sum(r["evaluations"] for r in run)
        report[f"beyond_slack_{name}"] = sum(r["worst_excess"] > _TILT_SLACK for r in run)
    return report | {
        "cost_ratio": math.exp(sum(map(math.log, ratios)) / len(ratios)),
        "new_cheaper": sum(r < 0.99 for r in ratios),
        "old_cheaper": sum(r > 1.01 for r in ratios),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-iters", type=int, default=50,
                        help="solver iteration budget (default 50)")
    parser.add_argument("--count", type=int, default=160,
                        help="instances to solve (default 160)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two result files instead of solving")
    args = parser.parse_args(argv)
    if args.compare:
        runs = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                runs.append(json.load(fh))
        report = compare(*runs)
        print(f"identical in every field: {report['identical']} of {report['instances']}")
        print(f"converged: {report['converged_old']} -> {report['converged_new']}"
              f" of {report['instances']}")
        print(f"iterations: {report['iterations_old']} -> {report['iterations_new']}")
        print(f"evaluations: {report['evaluations_old']} -> {report['evaluations_new']}")
        print(f"beyond the tilt slack: {report['beyond_slack_old']} ->"
              f" {report['beyond_slack_new']}")
        print(f"geometric-mean cost ratio new/old: {report['cost_ratio']:.4f}")
        print(f"more than 1 % cheaper: new on {report['new_cheaper']},"
              f" old on {report['old_cheaper']}")
        return 0
    if args.count < 1 or args.max_iters < 1:
        parser.error("--count and --max-iters must be at least 1")
    json.dump(solve_corpus(args.count, args.max_iters), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
