"""Command-line front end: run missions, compare controllers, check routes.

Three subcommands share the loading path (config file or the
``CYCLOSIM_CONFIG`` environment variable, mission file or the builtin
route):

``simulate``
    Run one mission closed loop and write the telemetry CSV plus a
    metrics file.
``compare``
    Run the same mission under two controllers and write both logs plus
    a side-by-side table with one row per aerial segment per axis.
``validate-fsm``
    Replay the mission's event sequence through the transition table
    without executing any dynamics and print the state trace.

Each run writes ``<stem>.csv`` and ``<stem>_metrics.txt``; one that does not
complete ends ``error: run <stem> diverged at t=... s`` or ``error: run
<stem> hit the time limit at t=... s with segment <i> active``.

Exit codes: 0 success, 2 usage error, 3 parse error, 4 divergence,
5 simulated-time limit.  Every failure prints one ``error: ...`` line as
its last output line.  All files are written atomically.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .config import ENV_CONFIG_VAR, Config, default_config, load_config
from .errors import ConfigError, MissionError
from .fsm import Medium, initial_state, replay
from .mission import (
    Mission,
    atomic_write,
    builtin_mission,
    load_mission,
    mission_events,
)
from .sim import TrackingMetrics, _time_limit, compute_metrics, run, save_log, save_metrics

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DIVERGED = 4
EXIT_TIME_LIMIT = 5

_AXES = ("x", "y", "z")


def _fail(message: str, code: int) -> int:
    """Print the machine-parsable failure line and return ``code``.

    Stdout is flushed first so the reason stays the last line even when
    both streams land in one capture.
    """
    sys.stdout.flush()
    print(f"error: {message}", file=sys.stderr, flush=True)
    return code


def _seconds(text: str) -> float:
    """argparse type for a finite, positive number of seconds."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite, positive number, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclosim",
        description="Deterministic multimodal vehicle simulator.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_mission(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--mission",
            default="builtin",
            help="mission YAML path, or 'builtin' for the stock route",
        )

    def add_common(p: argparse.ArgumentParser) -> None:
        add_mission(p)
        p.add_argument(
            "--config",
            default=None,
            help=f"config YAML path (falls back to ${ENV_CONFIG_VAR}, then defaults)",
        )
        p.add_argument(
            "--out",
            default="runs",
            help="output directory for logs and metrics (default: runs)",
        )
        p.add_argument(
            "--duration-limit",
            type=_seconds,
            default=None,
            help="simulated-seconds budget override (finite, positive)",
        )

    sim = sub.add_parser("simulate", help="run one mission closed loop")
    add_common(sim)
    sim.add_argument(
        "--controller",
        choices=("pid", "nmpc"),
        default="pid",
        help="aerial-mode controller (surface modes always use the drive laws)",
    )
    sim.add_argument(
        "--aerial-only",
        action="store_true",
        help="require an all-aerial mission (usage error otherwise)",
    )

    cmp_p = sub.add_parser("compare", help="run two controllers on one mission")
    add_common(cmp_p)
    cmp_p.add_argument(
        "--left", choices=("pid", "nmpc"), default="pid",
        help="controller for the left column (default pid)",
    )
    cmp_p.add_argument(
        "--right", choices=("pid", "nmpc"), default="nmpc",
        help="controller for the right column (default nmpc)",
    )

    val = sub.add_parser(
        "validate-fsm", help="replay the mission's events through the mode machine"
    )
    add_mission(val)
    return parser


def _load_mission(spec: str, hover_hold: float) -> tuple[str, Mission]:
    """``hover_hold`` sets the hover time of the builtin route (``sim.hover_hold``)."""
    if spec == "builtin":
        return "builtin", builtin_mission(hold=hover_hold)
    return Path(spec).stem, load_mission(spec)


def _load_inputs(args: argparse.Namespace):
    """``(config, mission name, mission)`` for a run command, or its exit code."""
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        return _fail(str(exc), EXIT_PARSE)
    try:
        _time_limit(config, args.duration_limit)
    except ValueError as exc:
        return _fail(f"--duration-limit: {exc}", EXIT_USAGE)
    try:
        return (config, *_load_mission(args.mission, config.sim.hover_hold))
    except MissionError as exc:
        return _fail(str(exc), EXIT_PARSE)


def _fly(args: argparse.Namespace, config: Config, mission: Mission, controller: str, stem: str):
    """Fly ``mission`` under ``controller``, write ``<stem>.csv`` and
    ``<stem>_metrics.txt`` to ``--out`` and print their paths.  Returns the
    log and metrics of a completed run, or the exit code of any other ending."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail(f"output directory not writable: {exc}", EXIT_USAGE)
    try:
        log = run(config, mission, controller=controller, time_limit=args.duration_limit)
    except (MissionError, ConfigError) as exc:
        return _fail(str(exc), EXIT_PARSE)
    log_path, metrics_path = out / f"{stem}.csv", out / f"{stem}_metrics.txt"
    save_log(log, log_path)
    metrics = compute_metrics(log, mission)
    save_metrics(metrics, log, metrics_path)
    print(f"log: {log_path}")
    print(f"metrics: {metrics_path}")
    if log.diverged:
        return _fail(f"run {stem} diverged at t={log.t[-1]:.2f} s", EXIT_DIVERGED)
    if log.time_limit_hit:
        return _fail(f"run {stem} hit the time limit at t={log.t[-1]:.2f} s "
                     f"with segment {log.segment[-1]} active", EXIT_TIME_LIMIT)
    return log, metrics


def _cmd_simulate(args: argparse.Namespace) -> int:
    loaded = _load_inputs(args)
    if isinstance(loaded, int):
        return loaded
    config, name, mission = loaded
    if args.aerial_only:
        offending = [
            i for i, seg in enumerate(mission.segments)
            if seg.medium is not Medium.AERIAL
        ]
        if offending:
            return _fail(
                f"--aerial-only requires an all-aerial mission; segment "
                f"{offending[0]} is {mission.segments[offending[0]].medium.value}",
                EXIT_USAGE,
            )
    print(f"mission {name}: {len(mission.segments)} segments, "
          f"controller {args.controller}")
    flown = _fly(args, config, mission, args.controller, f"{name}_{args.controller}")
    if isinstance(flown, int):
        return flown
    print(f"result: completed segments={len(mission.segments)} "
          f"sim_time={flown[0].t[-1]:.2f}")
    return EXIT_OK


def _fmt_cell(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.4f}"


def _comparison_table(mission: Mission, left: str, right: str,
                      lm: TrackingMetrics, rm: TrackingMetrics) -> str:
    """One row per aerial segment per axis, both controllers side by side."""
    header = (
        f"{'seg':>3} {'action':<8} {'axis':<4} "
        f"{'rms_' + left:>12} {'rms_' + right:>12} "
        f"{'os_' + left:>12} {'os_' + right:>12} "
        f"{'settle_' + left:>12} {'settle_' + right:>12} "
        f"{'d_os':>12} {'d_settle':>12}"
    )
    lines = [header]
    left_by_index = {s.index: s for s in lm.segments}
    right_by_index = {s.index: s for s in rm.segments}
    for i, seg in enumerate(mission.segments):
        if seg.medium is not Medium.AERIAL:
            continue
        ls, rs = left_by_index.get(i), right_by_index.get(i)
        if ls is None or rs is None:
            continue
        for axis in range(3):
            d_os = rs.overshoot[axis] - ls.overshoot[axis]
            d_settle = rs.settling[axis] - ls.settling[axis]
            if math.isinf(rs.settling[axis]) and math.isinf(ls.settling[axis]):
                d_settle = 0.0
            lines.append(
                f"{i:>3} {seg.action.value:<8} {_AXES[axis]:<4} "
                f"{_fmt_cell(ls.rms):>12} {_fmt_cell(rs.rms):>12} "
                f"{_fmt_cell(ls.overshoot[axis]):>12} "
                f"{_fmt_cell(rs.overshoot[axis]):>12} "
                f"{_fmt_cell(ls.settling[axis]):>12} "
                f"{_fmt_cell(rs.settling[axis]):>12} "
                f"{_fmt_cell(d_os):>12} {_fmt_cell(d_settle):>12}"
            )
    return "\n".join(lines) + "\n"


def _cmd_compare(args: argparse.Namespace) -> int:
    loaded = _load_inputs(args)
    if isinstance(loaded, int):
        return loaded
    config, name, mission = loaded
    metrics = []
    for side, controller in (("left", args.left), ("right", args.right)):
        flown = _fly(args, config, mission, controller, f"{name}_{side}_{controller}")
        if isinstance(flown, int):
            return flown
        metrics.append(flown[1])
    table = _comparison_table(mission, args.left, args.right, *metrics)
    table_path = Path(args.out) / f"{name}_compare_{args.left}_vs_{args.right}.txt"
    atomic_write(table_path, [table])
    print(table, end="")
    print(f"table: {table_path}")
    print(f"result: compared {args.left} vs {args.right} on {name}")
    return EXIT_OK


def _cmd_validate_fsm(args: argparse.Namespace) -> int:
    try:
        name, mission = _load_mission(args.mission, default_config().sim.hover_hold)
        events = mission_events(mission)
    except MissionError as exc:
        return _fail(str(exc), EXIT_PARSE)
    states = replay(initial_state(), events)
    for i, state in enumerate(states):
        print(f"{i:>2}: {state.label()}")
    print(f"result: trace of {len(states)} states reaches "
          f"{states[-1].label()} on {name}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "simulate":
        return _cmd_simulate(args)
    if args.subcommand == "compare":
        return _cmd_compare(args)
    return _cmd_validate_fsm(args)


if __name__ == "__main__":
    sys.exit(main())
