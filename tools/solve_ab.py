"""Time the NMPC solver of two source trees on the same recorded solves.

    python tools/solve_ab.py [--rev REV | --parent-dir DIR] [--workload W ...]
                             [--limit N] [--rounds 3]

For each workload (default ``cruise_nmpc`` and ``dash_nmpc``), the
working tree's package flies ``perfbench``'s mission at seed 1 and
records every ``nmpc.solve`` call: the state, the references and the warm
start (the first ``--limit`` only, if given).  Then both trees solve each
recorded problem in one process, alternating solve by solve and swapping
which tree goes first, for ``--rounds`` rounds.  The parent tree is ``git
archive REV`` (default ``HEAD``) unpacked into a temporary directory, or
``--parent-dir``, a directory that holds ``src/cyclosim``.  Each tree
builds its own config and vehicle parameters from the same files.  BLAS
runs one thread unless the environment sets another count.

Prints per workload the CPU time (``time.process_time``) of each tree, their
ratio change/parent per round and over all rounds, and how many returned
``u`` are bit-identical between the trees.  Both trees see the same inputs,
so a ratio far from 1 against the tree itself (``--parent-dir .``) means
the host was noisy.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import process_time

# One BLAS thread, as in the benchmark's processes; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("cruise_nmpc", "dash_nmpc")
SEED = 1  # Other seeds only translate the route: the same solver work.


class _Enough(Exception):
    """Raised from the recording spy once ``--limit`` solves are recorded."""


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


def problem(package, overlay: Path):
    """The tree's ``(solve, NmpcConfig, VehicleParams)`` from the overlay."""
    config = package.load_config(overlay)
    nmpc = importlib.import_module(f"{package.__name__}.nmpc")
    dynamics = importlib.import_module(f"{package.__name__}.dynamics")
    return nmpc.solve, config.nmpc, dynamics.VehicleParams.from_config(config)


def record(package, mission: Path, overlay: Path, limit: int | None) -> list:
    """``(x0, refs, warm_start)`` of each solve the closed loop makes, copied."""
    nmpc = importlib.import_module(f"{package.__name__}.nmpc")
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


def replay(calls: list, trees: dict, rounds: int) -> dict:
    """CPU seconds per tree and round, and the count of bit-identical ``u``."""
    seconds = {name: [0.0] * rounds for name in trees}
    same = 0
    names = list(trees)
    for r in range(rounds):
        for i, (x0, refs, warm) in enumerate(calls):
            outputs = {}
            for name in names if i % 2 == 0 else names[::-1]:
                solve, cfg, params = trees[name]
                t0 = process_time()
                outputs[name] = solve(x0, refs, warm, cfg, params).u
                seconds[name][r] += process_time() - t0
            if r == 0:
                same += outputs[names[0]].tobytes() == outputs[names[1]].tobytes()
    return {"seconds": seconds, "identical": same}


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
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--limit", type=int, default=None, help="record only the first N solves")
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="solve_ab_") as tmp:
        tmp = Path(tmp)
        parent_root = args.parent_dir or _unpack(args.rev, tmp / "parent")
        change = load_tree(ROOT / "src", "cyclosim_change")
        parent = load_tree(Path(parent_root).resolve() / "src", "cyclosim_parent")
        label = str(args.parent_dir) if args.parent_dir else args.rev
        for workload in args.workload:
            mission, overlay = _workload_files(workload, SEED, tmp)
            calls = record(change, mission, overlay, args.limit)
            trees = {"parent": problem(parent, overlay), "change": problem(change, overlay)}
            replay(calls[:5], trees, 1)  # Untimed: the first calls fill caches.
            result = replay(calls, trees, args.rounds)
            seconds = result["seconds"]
            ratios = [c / p for p, c in zip(seconds["parent"], seconds["change"])]
            print(f"{workload} seed {SEED}: {len(calls)} solves, {args.rounds} rounds, "
                  f"parent {label}")
            print(f"  parent cpu s: {' '.join(f'{s:.3f}' for s in seconds['parent'])}")
            print(f"  change cpu s: {' '.join(f'{s:.3f}' for s in seconds['change'])}")
            print(f"  ratio change/parent: {' '.join(f'{r:.3f}' for r in ratios)}; "
                  f"overall {sum(seconds['change']) / sum(seconds['parent']):.3f}")
            print(f"  u bit-identical: {result['identical']} of {len(calls)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
