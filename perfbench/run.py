"""cyclosim benchmark: time seeded missions end to end and per layer.

    python3 perfbench/run.py --workload route_pid --seed 0 --seconds 30 --trace 0

Run it from anywhere inside a source checkout; it reads the package from
``src`` and writes only under ``perfbench/_work``.  Every measured process
is fresh (see ``child.py``) and runs with one BLAS thread.

``--trace 0`` is the plain pass.  It sets up several times, then flies the
mission again and again while the next run still fits in ``--seconds``
(at least once), and reports the end-to-end metrics.  ``--trace 1`` flies
the mission once plain and twice traced, times the fixed-input kernels,
and reports the per-layer metrics.

Each run passes the correctness gate when it completes, its transition
labels equal ``mission_events(mission)``, and its CSV and metrics file are
byte-identical to every other run of the same workload and seed on the same
program (in this invocation and, through ``_work/hashes.json``, earlier
ones).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when a run fails the gate and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import workloads
from stats import median, percentile, tail_percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170.0
# The layers' self times are wall time and sum to the traced span of
# ``sim.run``; the traced run_s is the process's CPU time, taken outside the
# tracer.  With one thread, wall time cannot fall short of CPU time, so the
# sum may sit at most this share below it (lost or misattributed spans) ...
ACCOUNTING_BELOW = 0.05
# ... and at most this share above it, which leaves room for time the host
# steals (1-7 % here) but not for a level of spans counted twice.
ACCOUNTING_ABOVE = 0.5
BASELINE_CSV_SHA256 = "dfaf4fcbd21cb7d9300fd171e0ba7b5d7e234d8db7bd77c5cb8f91b8ff74fb12"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# End-to-end metrics in the result line, each with a bound in BENCHMARK.json.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "run_s": "s",
    "ctrl_ms_mean": "ms",
    "peak_rss_mb": "MB",
    "track_rms_m": "m",
}
# Printed beside them but not bounded.  The writes take 0.1-0.35 s on the
# nmpc workloads and spread by up to 0.19 over ten runs, so they are bounded
# through wall_s only.  The step p90 sits in a sparse tail (dash_nmpc has
# about 30 steps beyond it) and moved by 26 % between runs of identical
# work.  The simulated time is the same at every seed of the nmpc workloads.
REPORTED = {
    "write_s": "s",
    "ctrl_ms_p90": "ms",
    "sim_time_s": "s",
}

# Per-layer metric -> unit.  Order follows the layers.
PER_LAYER = {
    "dynamics.plant_aerial_step.calls": "count",
    "dynamics.plant_aerial_step.us": "us",
    "dynamics.plant_surface_step.calls": "count",
    "dynamics.plant_surface_step.us": "us",
    "dynamics.pred_aerial_step.calls": "count",
    "dynamics.pred_aerial_step.us": "us",
    "dynamics.allocate.us": "us",
    "dynamics.forward_mix.us": "us",
    "nmpc.solves": "count",
    "nmpc.solve.self_s": "s",
    "nmpc.iterations_per_solve": "ratio",
    "nmpc.converged_ratio": "ratio",
    "nmpc.failures": "count",
    "nmpc.cost_evals_per_solve": "ratio",
    "nmpc.rollouts_per_solve": "ratio",
    "nmpc.line_search.calls": "count",
    "nmpc.line_search.accept_ratio": "ratio",
    "nmpc.gradient_fallbacks": "count",
    "nmpc.braking_fallbacks": "count",
    "nmpc.rollout.us": "us",
    "nmpc.forward_pass.us": "us",
    "nmpc.gn_direction.us": "us",
    "pid.step.calls": "count",
    "pid.step.us": "us",
    "mission.ref_step.us": "us",
    "mission.preview.calls": "count",
    "mission.preview.us": "us",
    "mission.load_s": "s",
    "config.load_s": "s",
    "fsm.transitions": "count",
    "sim.ticks": "count",
    "sim.self_us_per_tick": "us",
    "sim.compute_metrics_s": "s",
    "sim.save_log_s": "s",
    "sim.csv_mb": "MB",
    "sim.rows_peak_mb": "MB",
    "kernel.aerial_rhs_us": "us",
    "kernel.aerial_step_us": "us",
    "kernel.surface_step_us": "us",
    "kernel.rollout_ms": "ms",
    "kernel.forward_pass_ms": "ms",
    "kernel.gn_direction_ms": "ms",
    "kernel.solve_cold_ms": "ms",
    "kernel.solve_warm_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.self_sum_frac": "ratio",
}

# Layer -> (end-to-end metrics it should move, workloads where it shows).
LAYER_MOVES = {
    "dynamics": ("run_s", "route_pid most; prediction steps on cruise_nmpc and dash_nmpc"),
    "nmpc": ("run_s, ctrl_ms_mean, ctrl_ms_p90", "dash_nmpc most, then cruise_nmpc"),
    "pid": ("run_s", "route_pid only"),
    "mission": ("run_s, setup_s", "route_pid (reference steps); nmpc workloads (preview)"),
    "config": ("setup_s", "all; dash_nmpc loads the only non-empty overlay"),
    "fsm": ("none (feeds the correctness gate)", "all"),
    "sim": ("run_s, write_s, wall_s, peak_rss_mb", "route_pid"),
    "kernel": ("run_s through the layer the kernel belongs to", "as that layer"),
    "trace": ("none (tracing cost and accounting)", "all"),
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _loadavg() -> str:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return " ".join(fh.read().split()[:3])


def _machine() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {name: "1" for name in BLAS_THREAD_VARS},
        "loadavg_start": _loadavg(),
    }


def program_sha256(src: Path, versions: str) -> str:
    """sha256 over every file under ``src`` (relative path and bytes) and
    the ``versions`` string: the program whose outputs are compared."""
    digest = hashlib.sha256(versions.encode())
    files = sorted(p for p in src.rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        data = path.read_bytes()
        digest.update(f"\0{path.relative_to(src).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def record_key(tag: str, input_sha256: dict, program: str) -> str:
    """Key of the output-hash record: workload and seed, inputs, program."""
    return (f"{tag}:{input_sha256['mission'][:16]}:{input_sha256['config'][:16]}"
            f":{program[:16]}")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in BLAS_THREAD_VARS:
        env[name] = "1"
    return env


def _child(spec: dict) -> dict:
    """Run one fresh measured process and return its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            capture_output=True, text=True, env=_child_env(),
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{spec['mode']} process timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{spec['mode']} process exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Bench:
    """One invocation: inputs, measured processes and the correctness gate."""

    def __init__(self, workload: str, seed: int, program: str = ""):
        self.workload = workload
        self.program = program
        self.seed = seed
        self.tag = f"{workload}-{seed}"
        self.controller = workloads.CONTROLLER[workload]
        self.runs: list[dict] = []
        self.failures: list[str] = []
        inputs = WORK / "in"
        out = WORK / "out"
        shutil.rmtree(out, ignore_errors=True)
        inputs.mkdir(parents=True, exist_ok=True)
        out.mkdir(parents=True)
        mission_yaml, config_yaml = workloads.generate(workload, seed)
        self.mission_path = inputs / f"{self.tag}.mission.yaml"
        self.config_path = inputs / f"{self.tag}.config.yaml"
        self.mission_path.write_text(mission_yaml, encoding="utf-8")
        self.config_path.write_text(config_yaml, encoding="utf-8")
        self.input_sha256 = {
            "mission": hashlib.sha256(mission_yaml.encode()).hexdigest(),
            "config": hashlib.sha256(config_yaml.encode()).hexdigest(),
        }

    def spec(self, mode: str) -> dict:
        return {"mode": mode, "seed": self.seed, "controller": self.controller,
                "mission": str(self.mission_path), "config": str(self.config_path),
                "out": str(WORK / "out" / f"{self.tag}-{len(self.runs)}")}

    def fly(self, mode: str) -> dict:
        """One mission process, checked against the gate."""
        result = _child(self.spec(mode))
        result["mode"] = mode
        problems = []
        if not result["completed"]:
            problems.append("did not complete")
        if not result["events_ok"]:
            problems.append("transition labels differ from mission_events")
        first = self.runs[0] if self.runs else None
        for key in ("csv_sha256", "metrics_sha256"):
            if first is not None and result[key] != first[key]:
                problems.append(f"{key} differs from run 1")
        result["gate_ok"] = not problems
        self.failures += [f"run {len(self.runs) + 1}: {p}" for p in problems]
        self.runs.append(result)
        return result

    def check_recorded_hashes(self) -> None:
        """Compare with, or record, the output hashes of earlier invocations.

        A plain pass usually flies a mission once, so this is what compares
        its runs.  The record is keyed by workload, seed, the inputs' sha256
        and the program's (``program_sha256``), so it only ever compares
        runs of identical inputs on identical code: a change that alters the
        output bytes on purpose starts a record of its own.
        """
        path = WORK / "hashes.json"
        record = json.loads(path.read_text()) if path.exists() else {}
        ok = [r for r in self.runs if r["gate_ok"]]
        if not ok:
            return
        mine = {"csv_sha256": ok[0]["csv_sha256"],
                "metrics_sha256": ok[0]["metrics_sha256"]}
        key = record_key(self.tag, self.input_sha256, self.program)
        seen = record.get(key)
        if seen is None:
            record[key] = mine
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
            tmp.replace(path)
        elif seen != mine:
            for r in ok:
                r["gate_ok"] = False
            self.failures.append("outputs differ from an earlier invocation "
                                 f"of {self.tag}: {seen}")


def plain_pass(bench: Bench, seconds: float, t_start: float) -> tuple[dict, dict]:
    """Set up SETUP_PROBES times, then fly the mission while the next run
    still fits in ``seconds`` (at least once).

    Every timing is the median over the runs of that run's figure.
    """
    setups = [_child(bench.spec("setup"))["setup_s"] for _ in range(SETUP_PROBES)]
    while True:
        t0 = perf_counter()
        bench.fly("run")
        if perf_counter() - t_start + (perf_counter() - t0) > seconds:
            break
    runs = bench.runs
    setups += [r["setup_s"] for r in runs]
    for r in runs:
        # Times at the reference speed; the measured ones stay in *_cpu_s.
        # The writes take the run's factor: the probes of a run cover it
        # from end to end, and too few would fit around the writes.
        factor = r["speed_factor"]
        r["run_cpu_s"], r["write_cpu_s"] = r["run_s"], r["write_s"]
        r["run_s"] *= factor
        r["write_s"] *= factor
        steps = [factor * t for t in r.pop("ctrl_s")]
        r["ctrl_steps"] = len(steps)
        r["ctrl_ms_mean"] = 1e3 * sum(steps) / len(steps)
        r["ctrl_ms_p90"] = 1e3 * percentile(steps, 90.0)
        r["ctrl_tail"] = tail_percentile(len(steps))
        r["ctrl_ms_tail"] = 1e3 * percentile(steps, r["ctrl_tail"]) if r["ctrl_tail"] else None
        r["ctrl_timer_overhead_frac"] = r["ctrl_timer_overhead_s"] * len(steps) / r["run_cpu_s"]
    n = len(runs)
    steps = sum(r["ctrl_steps"] for r in runs)

    def med(key):
        return median([r[key] for r in runs])

    setup_s = median(setups)
    metrics = {
        "wall_s": (median([setup_s + r["run_s"] + r["write_s"] for r in runs]), n),
        "setup_s": (setup_s, len(setups)),
        "run_s": (med("run_s"), n),
        "write_s": (med("write_s"), sum(r["writes"] for r in runs)),
        "ctrl_ms_mean": (med("ctrl_ms_mean"), steps),
        "ctrl_ms_p90": (med("ctrl_ms_p90"), steps),
        "peak_rss_mb": (med("peak_rss_mb"), n),
        "track_rms_m": (runs[0]["track_rms_m"], n),
        "sim_time_s": (runs[0]["sim_time_s"], n),
    }
    return metrics, {"ctrl_timer_overhead_frac": med("ctrl_timer_overhead_frac")}


def _layer_metrics(traced: dict, plain: dict, kernels: dict) -> dict:
    layers = traced["layers"]
    notes = traced["notes"]

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def us(name):
        n = calls(name)
        return 1e6 * layers[name]["total_s"] / n if n else 0.0

    def per(value, base):
        return value / base if base else 0.0

    solves = calls("nmpc.solve")
    iterations = notes.get("nmpc.iterations", 0)
    searches = calls("nmpc.line_search")
    self_sum = sum(v["self_s"] for v in layers.values())

    def scaled_run_s(r):
        return r["run_s"] * r["speed_factor"]
    out = {
        "dynamics.plant_aerial_step.calls": calls("dynamics.plant_aerial_step"),
        "dynamics.plant_aerial_step.us": us("dynamics.plant_aerial_step"),
        "dynamics.plant_surface_step.calls": calls("dynamics.plant_surface_step"),
        "dynamics.plant_surface_step.us": us("dynamics.plant_surface_step"),
        "dynamics.pred_aerial_step.calls": calls("dynamics.pred_aerial_step"),
        "dynamics.pred_aerial_step.us": us("dynamics.pred_aerial_step"),
        "dynamics.allocate.us": us("dynamics.allocate"),
        "dynamics.forward_mix.us": us("dynamics.forward_mix"),
        "nmpc.solves": solves,
        "nmpc.solve.self_s": layers.get("nmpc.solve", {}).get("self_s", 0.0),
        "nmpc.iterations_per_solve": per(iterations, solves),
        "nmpc.converged_ratio": per(notes.get("nmpc.converged", 0), solves),
        "nmpc.failures": layers.get("nmpc.solve", {}).get("errors", 0),
        "nmpc.cost_evals_per_solve": per(calls("nmpc.cost_parts"), solves),
        "nmpc.rollouts_per_solve": per(calls("nmpc.rollout"), solves),
        "nmpc.line_search.calls": searches,
        "nmpc.line_search.accept_ratio": per(notes.get("nmpc.ls_accepted", 0), searches),
        # Every iteration searches along the Gauss-Newton direction once
        # and, when that finds nothing, along the gradient.
        "nmpc.gradient_fallbacks": searches - iterations,
        "nmpc.braking_fallbacks": calls("nmpc.braking_inputs"),
        "nmpc.rollout.us": us("nmpc.rollout"),
        "nmpc.forward_pass.us": us("nmpc.forward_pass"),
        "nmpc.gn_direction.us": us("nmpc.gn_direction"),
        "pid.step.calls": calls("pid.step"),
        "pid.step.us": us("pid.step"),
        "mission.ref_step.us": us("mission.ref_step"),
        "mission.preview.calls": calls("mission.preview"),
        "mission.preview.us": us("mission.preview"),
        "mission.load_s": traced["mission_load_s"],
        "config.load_s": traced["config_load_s"],
        "fsm.transitions": traced["transitions"],
        "sim.ticks": traced["ticks"],
        "sim.self_us_per_tick": 1e6 * layers["sim.run"]["self_s"] / traced["ticks"],
        "sim.compute_metrics_s": traced["compute_metrics_s"],
        "sim.save_log_s": traced["save_log_s"],
        "sim.csv_mb": traced["csv_mb"],
        "sim.rows_peak_mb": traced["rows_peak_mb"],
        # Both at the reference speed: the two processes may see the host
        # at different speeds.
        "trace.overhead_frac": scaled_run_s(traced) / scaled_run_s(plain) - 1.0,
        # Wall-clock spans against the CPU time measured outside the tracer.
        "trace.self_sum_frac": self_sum / traced["run_s"],
    }
    out.update(kernels)
    return out


def _counts(traced: dict) -> dict:
    """The deterministic part of a traced pass."""
    return {"calls": {k: v["calls"] for k, v in traced["layers"].items()},
            "errors": {k: v["errors"] for k, v in traced["layers"].items()},
            "notes": traced["notes"], "ticks": traced["ticks"]}


def trace_pass(bench: Bench) -> tuple[dict, dict]:
    plain = bench.fly("run")
    plain.pop("ctrl_s")
    traced = [bench.fly("trace"), bench.fly("trace")]
    kernels = _child(bench.spec("kernels"))["kernels"]
    per_pass = [_layer_metrics(t, plain, kernels) for t in traced]
    # Timings: the median (here the mean) of the two traced passes; counts
    # are checked to repeat exactly.
    metrics = {k: (median([p[k] for p in per_pass]), len(per_pass)) for k in PER_LAYER}
    if _counts(traced[0]) != _counts(traced[1]):
        bench.failures.append("traced counts differ between the two traced passes")
    for i, p in enumerate(per_pass, 1):
        frac = p["trace.self_sum_frac"]
        if not 1.0 - ACCOUNTING_BELOW <= frac <= 1.0 + ACCOUNTING_ABOVE:
            bench.failures.append(
                f"traced pass {i}: layer self times sum to {frac:.3f} "
                "of the traced run_s")
    return metrics, {}


def _print_table(metrics: dict, units: dict) -> None:
    print(f"{'metric':36s} {'value':>14s} {'unit':6s} {'samples':>8s}")
    for name, (value, count) in metrics.items():
        note = "  (reported, not bounded)" if name in REPORTED else ""
        print(f"{name:36s} {value:14.6g} {units[name]:6s} {count:8d}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cyclosim" / "__init__.py").is_file():
        print(f"perfbench: no cyclosim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    machine = _machine()
    program = program_sha256(ROOT / "src" / "cyclosim",
                             f"python {machine['python']} numpy {machine['numpy']}")
    bench = Bench(args.workload, args.seed, program)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} controller={bench.controller}")
    print(f"program: src/cyclosim sha256={program}")
    print(f"inputs: {bench.mission_path.relative_to(ROOT)} "
          f"sha256={bench.input_sha256['mission']}")
    print(f"        {bench.config_path.relative_to(ROOT)} "
          f"sha256={bench.input_sha256['config']}")
    try:
        _child(bench.spec("setup"))  # warm-up: bytecode and file cache
        t_start = perf_counter()
        if args.trace:
            metrics, extra = trace_pass(bench)
            units = PER_LAYER
        else:
            metrics, extra = plain_pass(bench, args.seconds, t_start)
            units = {**END_TO_END, **REPORTED}
        measured_s = perf_counter() - t_start
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    bench.check_recorded_hashes()
    machine["loadavg_end"] = _loadavg()

    failed = sum(not r["gate_ok"] for r in bench.runs)
    attempted = len(bench.runs)
    correct = not bench.failures
    print(f"machine: {json.dumps(machine)}")
    for i, r in enumerate(bench.runs, 1):
        print(f"run {i} ({r['mode']}): completed={r['completed']} "
              f"events_ok={r['events_ok']} gate_ok={r['gate_ok']} "
              f"run_cpu_s={r.get('run_cpu_s', r['run_s']):.3f} "
              f"speed_factor={r['speed_factor']:.4f} ({r['probes']} probes) "
              f"csv_sha256={r['csv_sha256']} metrics_sha256={r['metrics_sha256']}")
    if args.workload == "route_pid" and args.seed == 0:
        match = bench.runs[0]["csv_sha256"] == BASELINE_CSV_SHA256
        print(f"baseline CSV sha256 {BASELINE_CSV_SHA256[:12]}...: "
              f"{'match' if match else 'MISMATCH'} (reported, not gated)")
    if args.trace:
        print("layer -> moves (end-to-end metric) on (workload):")
        for layer, (moves, where) in LAYER_MOVES.items():
            print(f"  {layer:9s} -> {moves} on {where}")
    else:
        for i, r in enumerate(bench.runs, 1):
            if r["ctrl_tail"] is not None:
                print(f"run {i} controller step tail by rule: p{r['ctrl_tail']:g} = "
                      f"{r['ctrl_ms_tail']:.4f} ms over {r['ctrl_steps']} steps")
        print(f"controller step timer overhead: "
              f"{100 * extra['ctrl_timer_overhead_frac']:.3f} % of run_s")
    _print_table(metrics, units)
    print(f"fail_frac: {failed}/{attempted} = {failed / attempted:g}")
    for problem in bench.failures:
        print(f"FAIL: {problem}")
    print(f"measured for {measured_s:.1f} s")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{bench.tag}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine, "program_sha256": program, "inputs": bench.input_sha256,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in metrics.items()},
        "runs": bench.runs, "failures": bench.failures, "extra": extra,
    }, indent=1))

    gated = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": u} for k, u in gated.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
