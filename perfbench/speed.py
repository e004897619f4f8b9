"""Machine-speed probe: fixed work that no change to the program moves.

A toy RK4 step on a 13-vector, in the mix of small numpy arrays and plain
Python floats the simulator itself runs.  ``probe_s`` returns the CPU time
of one batch, about REFERENCE_S on the 2-core virtual machine the
benchmark was defined on.

The host under that machine runs other tenants, and its speed drifts by up
to 30 % in phases of seconds to minutes.  Probes taken through a run
measure the speed the run saw; scaling the run's times by REFERENCE_S over
their median cut the spread of ``run_s`` across ten ``route_pid`` runs in
a noisy phase from 0.17 to 0.07.
"""

from __future__ import annotations

import math
from time import process_time

import numpy as np

STEPS = 300
REFERENCE_S = 0.0105


def _rhs(x: np.ndarray) -> np.ndarray:
    a, b, c = float(x[0]), float(x[1]), float(x[2])
    out = np.empty(13)
    out[0:3] = (b * c - a, math.sin(a) - b, a * b - 0.5 * c)
    out[3:13] = -0.1 * x[3:13]
    return out


def probe_s() -> float:
    """CPU seconds of one fixed batch of toy RK4 steps."""
    t0 = process_time()
    x = np.linspace(0.1, 1.3, 13)
    dt = 1e-3
    for _ in range(STEPS):
        k1 = _rhs(x)
        k2 = _rhs(x + 0.5 * dt * k1)
        k3 = _rhs(x + 0.5 * dt * k2)
        k4 = _rhs(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return process_time() - t0
