"""The machine's momentary speed, for normalising the times reported.

On a shared host the CPU's speed drifts by up to a quarter over seconds
to minutes, so whole runs land in slow or fast periods; no statistic over
one run's op times removes that. A fixed pure-Python kernel, timed just
before and just after each measurement, tracks the drift, and every time
the benchmark reports is scaled to the kernel's reference time:

    reported = measured * REFERENCE_S / mean kernel time around it

Starting a process drifts apart from that: set-up times are scaled instead
by a fresh interpreter that imports numpy, the bulk of lqkd's set-up,
started just before each set-up probe:

    reported = measured * STARTUP_REFERENCE_S / that interpreter's time

Raw seconds are printed beside each metric and kept in the result file.
"""

import math
import subprocess
import sys
import time

import numpy as np

# The kernel's best-of-REPEATS time on the 2-core Xeon (Python 3.11.7,
# numpy 2.4.6) of the first baseline. It only sets the scale: reported
# times equal raw times when the machine runs at that speed.
REFERENCE_S = 0.009
REPEATS = 2
STARTUP_COMMAND = (sys.executable, "-c", "import numpy; print('ready', flush=True)")
STARTUP_REFERENCE_S = 0.125


def kernel() -> int:
    """Fixed work in the mix of lqkd's round loops: many small objects
    in a dict several MiB large, so that it feels the shared caches as
    the program does, then small complex numpy products as in the
    state-vector path."""
    rows = [(i, i * 3, str(i)) for i in range(10_000)]
    index = {row[2]: row for row in rows}
    total = sum(index[str(k)][1] for k in range(0, 10_000, 3))
    ket = np.full(4, 0.5, dtype=np.complex128)
    unitary = np.eye(16, dtype=np.complex128)
    for _ in range(150):
        joint = unitary @ np.kron(ket, ket)
        probs = (np.abs(joint.reshape(4, 4)) ** 2).sum(axis=1)
        total += int(np.cumsum(probs)[-1])
    return total


def kernel_seconds() -> float:
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def factor(before: float, after: float) -> float:
    """Scale for a time measured between two kernel samples."""
    return 2.0 * REFERENCE_S / (before + after)


def time_to_ready(command) -> float:
    """Seconds from starting ``command`` to reading its ``ready`` line."""
    start = time.perf_counter()
    with subprocess.Popen(list(command), stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"{command[1]} exited with code {child.returncode} before it was ready")
    return elapsed
