"""One measured process of the benchmark.

    python3 child.py '<json spec>'

The spec names a mode and the generated inputs.  Every mode first sets up
the way ``cyclosim simulate`` does (import the package, ``load_config``,
``load_mission``) and times that.  Then:

- ``setup``: stop there;
- ``run``: fly the mission through ``sim.run`` with one timer around the
  controller's ``step`` method and a speed-probe schedule on the reference
  generator's ``step`` (called once a tick), then write the outputs with
  ``compute_metrics``, ``save_log`` and ``save_metrics``;
- ``trace``: the same, with the tracer's wrappers installed instead of the
  timer;
- ``kernels``: time the fixed-input kernels.

Timings are CPU time of this process (``time.process_time``): the benchmark
runs on a virtual machine whose hypervisor steals a few percent of wall time
at random, and CPU time leaves that out.  Wall times are kept beside them
(``*_wall_s``), and the tracer's spans are wall time.  A run also takes
speed probes (``speed.py``): PROBES_AROUND before ``sim.run``, as many
after it and, in the plain pass, one every PROBE_EVERY_S of CPU time
between ticks.  Their time is left out of ``run_s``, and ``speed_factor``
(the reference probe time over the median probe) scales a time to the
reference speed, the writes' too.

The result is printed as one JSON line.  The parent puts ``src`` on
``PYTHONPATH``; nothing of the package is imported before the setup clock
starts.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter, process_time

from tracer import Tracer

WRITE_REPEATS = 9
WRITE_MIN_S = 6.0
PROBE_EVERY_S = 0.25
PROBES_AROUND = 5


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _rss_mb() -> float:
    """Current resident set size of this process, MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn, samples: list):
    """``fn`` with its CPU time per call appended to ``samples``."""
    def timed(*args, **kwargs):
        t0 = process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            samples.append(process_time() - t0)
    return timed


def _probing(fn, probe):
    """``fn`` preceded by ``probe`` whenever PROBE_EVERY_S of CPU time has
    passed since the probe last ran."""
    last = [process_time()]

    def probing(*args, **kwargs):
        if process_time() - last[0] >= PROBE_EVERY_S:
            probe()
            last[0] = process_time()
        return fn(*args, **kwargs)
    return probing


def _timer_overhead_s(calls: int = 200_000) -> float:
    """Host time one ``_timed`` wrapper adds to a call."""
    def noop():
        return None
    timed = _timed(noop, [])
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    bare = perf_counter() - t0
    t0 = perf_counter()
    for _ in range(calls):
        timed()
    return max(0.0, (perf_counter() - t0 - bare) / calls)


def fly(spec: dict, config, mission) -> dict:
    """Run, write and check one mission; return timings and outcomes."""
    import numpy as np

    import speed
    from cyclosim import (CascadePid, NmpcController, ReferenceGenerator,
                          compute_metrics, mission_events, run, save_log,
                          save_metrics)

    controller = spec["controller"]
    ctrl_cls = NmpcController if controller == "nmpc" else CascadePid
    ctrl_samples: list = []
    probes: list = []  # before, during (plain pass only) and after the run

    def probe():
        probes.append(speed.probe_s())

    for _ in range(PROBES_AROUND):
        probe()
    n_before = len(probes)

    tracer = None
    runner = run
    if spec["mode"] == "trace":
        tracer = Tracer()
        tracer.install()
        runner = tracer.wrap(run, "sim.run")
    else:
        ctrl_cls.step = _timed(ctrl_cls.step, ctrl_samples)
        ReferenceGenerator.step = _probing(ReferenceGenerator.step, probe)

    rss_before = _rss_mb()
    w0, c0 = perf_counter(), process_time()
    log = runner(config, mission, controller=controller)
    w1, c1 = perf_counter(), process_time()
    rows_peak_mb = _peak_rss_mb() - rss_before
    run_s = c1 - c0 - sum(probes[n_before:])
    for _ in range(PROBES_AROUND):
        probe()

    csv_path = spec["out"] + ".csv"
    metrics_path = spec["out"] + ".metrics"

    def write() -> tuple:
        c0 = process_time()
        metrics = compute_metrics(log, mission)
        c1 = process_time()
        save_log(log, csv_path)
        c2 = process_time()
        save_metrics(metrics, log, metrics_path)
        return c1 - c0, c2 - c1, process_time() - c2

    # In the plain pass, short writes are repeated (same bytes, same paths)
    # and the median kept.
    writes = []
    repeats = WRITE_REPEATS if tracer is None else 1
    while not writes or (len(writes) < repeats
                         and sum(map(sum, writes)) < WRITE_MIN_S):
        writes.append(write())
    cm_s, log_s, met_s = (statistics.median(col) for col in zip(*writes))

    aerial = np.array([m == "aerial" for m in log.medium])
    err = log.state[aerial, 0:3] - log.ref[aerial, 0:3]
    track_rms = float(np.sqrt(np.mean(np.sum(err * err, axis=1)))) if aerial.any() else 0.0
    events = [label for _, _, label, _ in log.transitions]
    expected = [e.label() for e in mission_events(mission)]

    out = {
        "run_s": run_s,
        "run_wall_s": w1 - w0,
        "speed_factor": speed.REFERENCE_S / statistics.median(probes),
        "probes": len(probes),
        "compute_metrics_s": cm_s,
        "save_log_s": log_s,
        "save_metrics_s": met_s,
        "write_s": statistics.median(map(sum, writes)),
        "writes": len(writes),
        "completed": bool(log.completed),
        "time_limit_hit": bool(log.time_limit_hit),
        "diverged": bool(log.diverged),
        "events_ok": events == expected,
        "transitions": len(log.transitions),
        "ticks": len(log),
        "sim_time_s": float(log.t[-1]),
        "track_rms_m": track_rms,
        "csv_sha256": _sha256(csv_path),
        "metrics_sha256": _sha256(metrics_path),
        "csv_mb": os.path.getsize(csv_path) / 1e6,
        "rows_peak_mb": rows_peak_mb,
    }
    if tracer is None:
        out["ctrl_s"] = ctrl_samples
        out["ctrl_timer_overhead_s"] = _timer_overhead_s()
    else:
        out["layers"] = tracer.layers()
        out["notes"] = tracer.notes
        out["edges"] = tracer.edges()
    return out


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    w0, c0 = perf_counter(), process_time()
    import cyclosim
    c1 = process_time()
    config = cyclosim.load_config(spec["config"])
    c2 = process_time()
    mission = cyclosim.load_mission(spec["mission"])
    w3, c3 = perf_counter(), process_time()
    out = {"setup_s": c3 - c0, "setup_wall_s": w3 - w0, "import_s": c1 - c0,
           "config_load_s": c2 - c1, "mission_load_s": c3 - c2}
    if spec["mode"] in ("run", "trace"):
        out.update(fly(spec, config, mission))
    elif spec["mode"] == "kernels":
        import kernels
        out["kernels"] = kernels.measure(spec["seed"])
    out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
