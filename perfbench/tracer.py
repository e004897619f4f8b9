"""Span tracer that rebinds module-level names from outside the program.

Each wrapped call records one span: its duration and the time its own
wrapped children took.  Spans are not stored one by one; they are summed
per (layer, parent layer) as a call count, a total, a child total and an
error count, so a run with hundreds of thousands of plant steps costs a
few dict updates per call and no memory growth.

A layer's self time is its total minus the time its wrapped children
cover.  Because every wrapped call inside the root span adds its duration
to its parent's child total, the self times of all layers sum to the root
span's duration.

Uses the standard library only.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (module, attribute, layer): module-level names looked up at call time.
FUNCTIONS = (
    ("cyclosim.sim", "aerial_step", "dynamics.plant_aerial_step"),
    ("cyclosim.sim", "step_rk4", "dynamics.plant_surface_step"),
    ("cyclosim.sim", "allocate", "dynamics.allocate"),
    ("cyclosim.sim", "forward_mix", "dynamics.forward_mix"),
    ("cyclosim.sim", "step_fsm", "fsm.step_fsm"),
    ("cyclosim.nmpc", "aerial_step", "dynamics.pred_aerial_step"),
    ("cyclosim.nmpc", "rollout", "nmpc.rollout"),
    ("cyclosim.nmpc", "_cost_parts", "nmpc.cost_parts"),
    ("cyclosim.nmpc", "_forward_pass", "nmpc.forward_pass"),
    ("cyclosim.nmpc", "_gauss_newton_direction", "nmpc.gn_direction"),
    ("cyclosim.nmpc", "_line_search", "nmpc.line_search"),
    ("cyclosim.nmpc", "_braking_inputs", "nmpc.braking_inputs"),
    ("cyclosim.nmpc", "solve", "nmpc.solve"),
)

# (module, class, method, layer).
METHODS = (
    ("cyclosim.pid", "CascadePid", "step", "pid.step"),
    ("cyclosim.nmpc", "NmpcController", "step", "nmpc.controller_step"),
    ("cyclosim.mission", "ReferenceGenerator", "step", "mission.ref_step"),
    ("cyclosim.mission", "ReferenceGenerator", "preview", "mission.preview"),
)

COUNT, TOTAL, CHILD, ERRORS = range(4)


class Tracer:
    """Aggregating span recorder; ``clock`` is injectable for tests."""

    def __init__(self, clock=perf_counter):
        self._clock = clock
        # Frames are [layer, child seconds]; the sentinel is the parent of
        # any span opened outside every other span.
        self._stack = [["", 0.0]]
        self.stats: dict[tuple[str, str], list] = {}
        # Sums over results (converged solves, iterations, accepted line
        # searches), filled by the ``on_result`` hooks.
        self.notes: dict[str, int] = {}

    def wrap(self, fn, layer: str, on_result=None):
        """Return ``fn`` wrapped in a span named ``layer``."""
        stack, stats, clock = self._stack, self.stats, self._clock

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            failed = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                elapsed = clock() - t0
                stack.pop()
                rec = stats.get((layer, parent[0]))
                if rec is None:
                    rec = stats[(layer, parent[0])] = [0, 0.0, 0.0, 0]
                rec[COUNT] += 1
                rec[TOTAL] += elapsed
                rec[CHILD] += frame[1]
                rec[ERRORS] += failed
                parent[1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def note(self, key: str, amount: int) -> None:
        self.notes[key] = self.notes.get(key, 0) + int(amount)

    def install(self) -> None:
        """Rebind every name in FUNCTIONS and METHODS to a traced wrapper."""
        def solved(sol):
            self.note("nmpc.converged", sol.converged)
            self.note("nmpc.iterations", sol.iterations)

        hooks = {
            "nmpc.solve": solved,
            "nmpc.line_search": lambda hit: self.note("nmpc.ls_accepted", hit is not None),
        }
        for module_name, attr, layer in FUNCTIONS:
            module = importlib.import_module(module_name)
            self._rebind(module, attr, layer, hooks.get(layer))
        for module_name, cls_name, attr, layer in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._rebind(cls, attr, layer, None)

    def _rebind(self, owner, attr: str, layer: str, on_result) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), layer, on_result))

    # -- reductions ------------------------------------------------------

    def layers(self) -> dict[str, dict]:
        """Per-layer sums over all parents: calls, total_s, self_s, errors."""
        out: dict[str, dict] = {}
        for (layer, _parent), rec in self.stats.items():
            agg = out.setdefault(layer, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0, "errors": 0})
            agg["calls"] += rec[COUNT]
            agg["total_s"] += rec[TOTAL]
            agg["self_s"] += rec[TOTAL] - rec[CHILD]
            agg["errors"] += rec[ERRORS]
        return out

    def edges(self) -> list[dict]:
        """One record per (layer, parent) pair, for the results file."""
        return [
            {"layer": layer, "parent": parent or None, "calls": rec[COUNT],
             "total_s": rec[TOTAL], "self_s": rec[TOTAL] - rec[CHILD],
             "errors": rec[ERRORS]}
            for (layer, parent), rec in sorted(self.stats.items())
        ]
