"""Compare the NMPC solver of two source trees on the same problems.

    python tools/solve_ab.py [--rev REV | --parent-dir DIR] [--workload W ...]
                             [--limit N] [--rounds 3] [--max-iters N]

Problem sets (``--workload``, default ``cruise_nmpc`` and ``dash_nmpc``):

``cruise_nmpc``, ``dash_nmpc``
    The working tree flies ``perfbench``'s mission at seed 1 and records
    every ``nmpc.solve`` call: the state, the references and the warm start.
    Each tree builds its config from the workload's overlay.
``corpus``
    160 hard problems from one ``numpy`` generator seeded with 7.  Each
    starts 10 m up with a random velocity (U(-4, 4) m/s per axis), attitude
    (roll, pitch and yaw U(-0.7, 0.7) rad) and body rates (U(-1.5, 1.5)
    rad/s), and holds one goal: x and y U(-10, 10) m, z U(5, 15) m, yaw
    U(-2, 2) rad.  Even problems start cold; odd ones get a U(-2, 2) warm
    start.  Many start tilted or spinning past the tilt limit.  Each tree
    uses its default config.

``--limit`` keeps the first N problems of each set.  ``--max-iters`` sets
both trees' iteration budget (default: the config's); the recorded
workloads still come from a closed loop at the config's budget.  The parent
tree is ``git archive REV`` (default ``HEAD``) unpacked into a temporary
directory, or ``--parent-dir``, a directory that holds ``src/cyclosim``.
Both trees solve each problem in one process, alternating solve by solve
and swapping which tree goes first, for ``--rounds`` rounds.  BLAS runs one
thread unless the environment sets another count.

Prints per set each tree's CPU time (``time.process_time``) per round, their
ratio change/parent per round and over all rounds, and how many solves are
identical: the same ``u`` bytes, cost, convergence, iteration and
evaluation counts and worst tilt.  Then, parent -> change, the converged
solves, the total iterations and evaluations and the solves that end beyond
the tilt slack; last the geometric-mean cost ratio change/parent and how
many solves each tree made more than 1 % cheaper.  A change that keeps the
solver's results shows every solve identical.  Against the tree itself
(``--parent-dir .``) a time ratio far from 1 means the host was noisy.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # One BLAS thread, as in the benchmark's processes; set before numpy loads.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import importlib.util
import io
import math
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import process_time

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # The working tree is the change.
import cyclosim  # noqa: E402
from cyclosim.dynamics import QUAT_SLICE  # noqa: E402
from cyclosim.geometry import EulerAngles, euler_to_quat, quat_roll_pitch  # noqa: E402
from cyclosim.nmpc import _TILT_SLACK  # noqa: E402

WORKLOADS = ("cruise_nmpc", "dash_nmpc")
SEED = 1  # Other seeds only translate the route: the same solver work.
CORPUS_SEED, CORPUS_SIZE = 7, 160


class _Enough(Exception):
    """Raised from the recording spy once ``--limit`` solves are recorded."""


def instances(count: int, horizon: int):
    """The first ``count`` corpus problems as ``(x0, refs, warm_start)``
    triples; ``warm_start`` is None for even problems."""
    rng = np.random.default_rng(CORPUS_SEED)
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


def load_tree(src: Path, name: str):
    """The package under ``src / "cyclosim"``, imported as ``name``, so two
    trees live side by side in one process."""
    init = src / "cyclosim" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _workload_files(workload: str, seed: int, directory: Path) -> tuple[Path, Path]:
    """Write ``perfbench``'s mission and config overlay for the workload."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    mission_text, overlay_text = workloads.generate(workload, seed)
    mission, overlay = directory / f"{workload}_mission.yaml", directory / f"{workload}.yaml"
    mission.write_text(mission_text, encoding="utf-8")
    overlay.write_text(overlay_text, encoding="utf-8")
    return mission, overlay


def problem(package, overlay: Path | None, max_iters: int | None):
    """The tree's ``(solve, NmpcConfig, VehicleParams)``: the overlay's
    config, or the defaults without one, at ``max_iters`` if given."""
    config = package.load_config(overlay) if overlay else package.default_config()
    ncfg = config.nmpc
    if max_iters is not None:
        ncfg = dataclasses.replace(ncfg, max_iters=max_iters)
    return package.nmpc.solve, ncfg, package.VehicleParams.from_config(config)


def record(package, mission: Path, overlay: Path, limit: int | None) -> list:
    """``(x0, refs, warm_start)`` of each solve the closed loop makes, copied."""
    nmpc = package.nmpc
    solve, calls = nmpc.solve, []

    def spy(x0, refs, warm_start, cfg, params):
        if limit is not None and len(calls) >= limit:
            raise _Enough
        calls.append((x0.copy(), refs.copy(), None if warm_start is None else warm_start.copy()))
        return solve(x0, refs, warm_start, cfg, params)

    nmpc.solve = spy
    try:
        package.run(package.load_config(overlay), package.load_mission(mission),
                    controller="nmpc")
    except _Enough:
        pass
    finally:
        nmpc.solve = solve
    return calls


def summary(sol, tilt_max: float) -> dict:
    """What ``compare`` reads of one solve; ``worst_excess`` is the largest
    predicted roll or pitch beyond the tilt limit, rad."""
    tilt = max(max(abs(a) for a in quat_roll_pitch(x[QUAT_SLICE])) for x in sol.states[1:])
    return {"u": sol.u.tobytes(), "cost": sol.cost, "converged": sol.converged,
            "iterations": sol.iterations, "evaluations": sol.evaluations,
            "worst_excess": tilt - tilt_max}


def replay(problems: list, trees: dict, rounds: int) -> dict:
    """CPU seconds per tree and round, and each tree's summaries of round 0."""
    names = list(trees)
    seconds = {name: [0.0] * rounds for name in names}
    summaries = {name: [] for name in names}
    for r in range(rounds):
        for i, (x0, refs, warm) in enumerate(problems):
            for name in names if i % 2 == 0 else names[::-1]:
                solve, cfg, params = trees[name]
                t0 = process_time()
                sol = solve(x0, refs, warm, cfg, params)
                seconds[name][r] += process_time() - t0
                if r == 0:
                    summaries[name].append(summary(sol, cfg.tilt_max))
    return {"seconds": seconds, "summaries": summaries}


def compare(parent: list[dict], change: list[dict]) -> dict:
    """The solves equal in every field, the converged counts, total
    iterations and evaluations and solves beyond the tilt slack of each
    tree, the geometric-mean cost ratio change/parent and the solves each
    tree made more than 1 % cheaper."""
    if len(parent) != len(change):
        raise ValueError(f"the runs cover {len(parent)} and {len(change)} solves")
    ratios = [b["cost"] / a["cost"] for a, b in zip(parent, change)]
    report = {"solves": len(parent), "identical": sum(a == b for a, b in zip(parent, change))}
    for name, run in (("parent", parent), ("change", change)):
        report[f"converged_{name}"] = sum(r["converged"] for r in run)
        report[f"iterations_{name}"] = sum(r["iterations"] for r in run)
        report[f"evaluations_{name}"] = sum(r["evaluations"] for r in run)
        report[f"beyond_slack_{name}"] = sum(r["worst_excess"] > _TILT_SLACK for r in run)
    return report | {
        "cost_ratio": math.exp(sum(map(math.log, ratios)) / len(ratios)),
        "change_cheaper": sum(r < 0.99 for r in ratios),
        "parent_cheaper": sum(r > 1.01 for r in ratios),
    }


def report(seconds: dict, summaries: dict) -> list[str]:
    """The lines printed for one problem set after its header."""
    s = compare(summaries["parent"], summaries["change"])
    ratios = [c / p for p, c in zip(seconds["parent"], seconds["change"])]
    return [
        f"  parent cpu s: {' '.join(f'{t:.3f}' for t in seconds['parent'])}",
        f"  change cpu s: {' '.join(f'{t:.3f}' for t in seconds['change'])}",
        f"  ratio change/parent: {' '.join(f'{r:.3f}' for r in ratios)}; "
        f"overall {sum(seconds['change']) / sum(seconds['parent']):.3f}",
        f"  identical: {s['identical']} of {s['solves']}",
        f"  converged: {s['converged_parent']} -> {s['converged_change']} of {s['solves']}",
        f"  iterations: {s['iterations_parent']} -> {s['iterations_change']}",
        f"  evaluations: {s['evaluations_parent']} -> {s['evaluations_change']}",
        f"  beyond the tilt slack: {s['beyond_slack_parent']} -> {s['beyond_slack_change']}",
        f"  geometric-mean cost ratio change/parent: {s['cost_ratio']:.4f}",
        f"  more than 1 % cheaper: change on {s['change_cheaper']},"
        f" parent on {s['parent_cheaper']}",
    ]


def _unpack(rev: str, directory: Path) -> Path:
    """``git archive REV src`` unpacked under ``directory``."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(directory, filter="data")
    return directory


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    where = parser.add_mutually_exclusive_group()
    where.add_argument("--rev", default="HEAD", help="parent revision (git archive)")
    where.add_argument("--parent-dir", type=Path, help="parent tree holding src/cyclosim")
    parser.add_argument("--workload", nargs="+", choices=(*WORKLOADS, "corpus"),
                        default=list(WORKLOADS))
    parser.add_argument("--limit", type=int, help="keep only the first N problems of each set")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--max-iters", type=int,
                        help="iteration budget of both trees (default: the config's)")
    args = parser.parse_args(argv)
    if min(n for n in (args.limit, args.rounds, args.max_iters) if n is not None) < 1:
        parser.error("--limit, --rounds and --max-iters must be at least 1")

    with tempfile.TemporaryDirectory(prefix="solve_ab_") as tmp:
        tmp = Path(tmp)
        parent_root = args.parent_dir or _unpack(args.rev, tmp / "parent")
        parent = load_tree(Path(parent_root).resolve() / "src", "cyclosim_parent")
        label = str(args.parent_dir) if args.parent_dir else args.rev
        for workload in args.workload:
            if workload == "corpus":
                horizon = cyclosim.default_config().nmpc.horizon
                seed, overlay = CORPUS_SEED, None
                problems = list(instances(args.limit or CORPUS_SIZE, horizon))
            else:
                mission, overlay = _workload_files(workload, SEED, tmp)
                seed, problems = SEED, record(cyclosim, mission, overlay, args.limit)
            trees = {"parent": problem(parent, overlay, args.max_iters),
                     "change": problem(cyclosim, overlay, args.max_iters)}
            replay(problems[:5], trees, 1)  # Untimed: the first calls fill caches.
            result = replay(problems, trees, args.rounds)
            print(f"{workload} seed {seed}: {len(problems)} solves, {args.rounds} rounds, "
                  f"parent {label}")
            print("\n".join(report(result["seconds"], result["summaries"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
