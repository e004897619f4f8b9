"""The benchmark's fixed-input kernel pass still runs against the package.

``perfbench/kernels.py`` calls private solver functions by position, so a
changed call shape would break only ``perfbench/run.py --trace 1``.
Oracle: the module, loaded by path with its batches shrunk to one call
each, measures every kernel as a finite, positive time.
"""

import importlib.util
import math
from pathlib import Path

_KERNELS = Path(__file__).resolve().parents[1] / "perfbench" / "kernels.py"


def test_every_kernel_measures_a_positive_time():
    spec = importlib.util.spec_from_file_location("perfbench_kernels", _KERNELS)
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
    kernels.BATCH_S = 0.0
    kernels.BATCHES = 1
    times = kernels.measure(1)
    assert times
    assert all(math.isfinite(t) and t > 0.0 for t in times.values()), times
