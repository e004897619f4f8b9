"""Fixed-input kernel timings: one layer's hot call, isolated from the loop.

Inputs come from the seed: a slightly perturbed hover state, a near-hover
input and a horizon reference about 1 m away.  The warm solve starts one
period later from the cold solution, shifted, as the controller does.
Each kernel is timed in batches sized to about 20 ms, and the median
per-call time of the batches is reported.
"""

from __future__ import annotations

import math
import random
from time import perf_counter

import numpy as np

from cyclosim import (TerrestrialInput, VehicleParams, default_config,
                      step_rk4, terrestrial_derivative)
from cyclosim import dynamics, nmpc

BATCH_S = 0.02
BATCHES = 7


def _per_call_s(fn) -> float:
    """Median per-call host time of ``fn()`` over BATCHES batches."""
    fn()
    t0 = perf_counter()
    fn()
    once = max(perf_counter() - t0, 1e-7)
    n = max(1, int(BATCH_S / once))
    times = []
    for _ in range(BATCHES):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        times.append((perf_counter() - t0) / n)
    times.sort()
    return times[len(times) // 2]


def _inputs(seed: int):
    rng = random.Random(seed)
    u = rng.uniform
    half = [u(-0.05, 0.05) for _ in range(3)]
    q = np.array([1.0, *half])
    q /= math.sqrt(float(q @ q))
    x = np.concatenate([[u(100, 200), u(-50, 50), u(10, 30)],
                        [u(-0.3, 0.3) for _ in range(3)], q,
                        [u(-0.05, 0.05) for _ in range(3)]])
    u_abs = np.array([9.81 + u(-1, 1), u(-0.05, 0.05), u(-0.05, 0.05), u(-0.02, 0.02)])
    return rng, x, u_abs


def measure(seed: int) -> dict:
    cfg = default_config()
    params = VehicleParams.from_config(cfg)
    ncfg = cfg.nmpc
    n = ncfg.horizon
    rng, x0, u_abs = _inputs(seed)
    u_seq = np.array([[rng.uniform(-0.5, 0.5), rng.uniform(-0.02, 0.02),
                       rng.uniform(-0.02, 0.02), rng.uniform(-0.01, 0.01)]
                      for _ in range(n)])
    goal = x0[0:3] + np.array([1.0, 0.5, 0.3])
    refs = np.tile(np.append(goal, 0.0), (n, 1))
    pose = np.array([rng.uniform(0, 100), rng.uniform(-50, 50), rng.uniform(-3, 3)])
    wheels = TerrestrialInput(v_left=rng.uniform(1, 2), v_right=rng.uniform(1, 2))
    lam = np.zeros(n)
    weight = ncfg.tilt_weight
    states, a_steps, b_steps = nmpc._forward_pass(x0, u_seq, ncfg, params)
    grad = nmpc._adjoint_gradient(states, a_steps, b_steps, u_seq, refs, ncfg,
                                  lam, lam, weight)
    cold = nmpc.solve(x0, refs, None, ncfg, params)
    warm_x0 = cold.states[1]
    warm_u = np.vstack([cold.u[1:], cold.u[-1:]])

    def surface(s, w):
        return terrestrial_derivative(s, w, params)

    us, ms = 1e6, 1e3
    return {
        "kernel.aerial_rhs_us": us * _per_call_s(
            lambda: dynamics._aerial_rhs(x0, u_abs, params)),
        "kernel.aerial_step_us": us * _per_call_s(
            lambda: dynamics.aerial_step(x0, u_abs, params, cfg.dt)),
        "kernel.surface_step_us": us * _per_call_s(
            lambda: step_rk4(surface, pose, wheels, cfg.dt)),
        "kernel.rollout_ms": ms * _per_call_s(
            lambda: nmpc.rollout(x0, u_seq, ncfg, params)),
        "kernel.forward_pass_ms": ms * _per_call_s(
            lambda: nmpc._forward_pass(x0, u_seq, ncfg, params)),
        "kernel.gn_direction_ms": ms * _per_call_s(
            lambda: nmpc._gauss_newton_direction(states, a_steps, b_steps, grad, ncfg,
                                                 lam, lam, weight, 1e-9)),
        "kernel.solve_cold_ms": ms * _per_call_s(
            lambda: nmpc.solve(x0, refs, None, ncfg, params)),
        "kernel.solve_warm_ms": ms * _per_call_s(
            lambda: nmpc.solve(warm_x0, refs, warm_u, ncfg, params)),
    }
