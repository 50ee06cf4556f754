"""Machine-speed reference for the end-to-end times.

The benchmark runs on shared machines whose speed drifts by 10-20 % over
tens of seconds, far more than the regressions it must catch.  A fixed
kernel that does not touch noiselogic runs before every op; each round's
op times are scaled by ``NOMINAL_S / median(kernel time in that round)``,
which cancels the drift the kernel shares with the ops.  The kernel mixes
the kinds of work the ops do: Python object churn, many small numpy calls
and passes over arrays of a few MiB (small, so the kernel adds little to
the workload's peak RSS).  Raw times are reported beside the
scaled ones.

Set-up time is dominated by starting an interpreter and importing numpy
and click, which drifts differently (by up to 2x between runs) and is not
tracked by the kernel, so it is scaled by the start-up time of a bare
interpreter that imports just those two.
"""

import subprocess
import sys
from time import perf_counter

import numpy as np

# Kernel time on the machine the bounds were set on (2 vCPUs, Python 3.11,
# numpy 2.4); scaled times read as seconds at that speed.
NOMINAL_S = 0.04
START_NOMINAL_S = 0.18

_MUL = np.uint64(0xBF58476D1CE4E5B9)


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def kernel() -> float:
    """Run the fixed reference work once; returns its wall time in seconds."""
    t0 = perf_counter()
    total = 0
    for i in range(20_000):
        cell = _Cell(i, {"k": i})
        total += cell.key + len(cell.value)
    small = np.arange(256, dtype=np.int64)
    for _ in range(2000):
        total += int(np.array_equal(small, small * 3 - 1))
    words = np.arange(1 << 18, dtype=np.uint64)
    for _ in range(16):
        words ^= words >> np.uint64(30)
        words *= _MUL
    block = np.ones((64, 4096), dtype=np.int64)
    for _ in range(12):
        block = block * block + 1
    return perf_counter() - t0


def interpreter_start() -> float:
    """Wall time of a fresh interpreter that imports numpy and click."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, click"], check=True, timeout=60)
    return perf_counter() - t0
