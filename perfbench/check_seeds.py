"""Check the seeded generators on every seed the benchmark names.

    python3 perfbench/check_seeds.py                   # every named seed
    python3 perfbench/check_seeds.py --seeds 100 101

A seed passes when every target lies inside its medium's band and one run
of the mission passes the benchmark's own correctness gate
(``run.Bench.fly``): it completes on the current code with transition
labels equal to ``mission_events``.  Exits 1 if any seed fails.
"""

from __future__ import annotations

import argparse
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="*")
    args = parser.parse_args(argv)
    seeds = args.seeds if args.seeds else [
        s for group in workloads.SEEDS.values() for s in group]
    print(f"seeds: {seeds} (named: {workloads.SEEDS})")

    bad = 0
    for name in workloads.WORKLOADS:
        for seed in seeds:
            mission, _ = workloads.GENERATORS[name](seed)
            problems = workloads.band_violations(mission)
            line = f"{name} seed={seed}: bands {'ok' if not problems else 'violated'}"
            if not problems:
                bench = run.Bench(name, seed)
                try:
                    result = bench.fly("run")
                except run.BenchError as exc:
                    problems.append(str(exc))
                else:
                    problems += bench.failures
                    line += (f"; completed={result['completed']} "
                             f"events_ok={result['events_ok']} ticks={result['ticks']} "
                             f"run_cpu_s={result['run_s']:.1f}")
            bad += bool(problems)
            print(line + "".join(f"\n  FAIL: {p}" for p in problems), flush=True)
    print(f"{bad} failing seed(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
