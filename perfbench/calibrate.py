"""Machine-speed reference for the gated timings.

The 2-core VM this benchmark was built on changes speed by up to 2x for tens
of seconds at a time: the same code runs at one of two rates, whichever the
host currently grants, and process CPU time slows down with it. A 20-second
run can sit wholly in the slow state, so no statistic taken within one run
removes the effect. The benchmark therefore times a fixed reference kernel
(interpreter work plus a small complex QZ solve, a mix like the library's)
right after each timed stretch, and scales the stretch by
``REFERENCE_S / mean reference time``: the result is the CPU time the stretch
would have taken with the machine in its fast state. On that machine the
correction shrank the swing of large_degree throughput between 3-second
windows from 1.75x to about 5%. The machine also flips between its states
within a stretch, for tens to hundreds of milliseconds at a time, which is
why the reference takes a share of the stretch's time rather than a fixed
few samples.

The reference is the benchmark's own frozen code, so a change to laggcd
cannot move it.
"""

import statistics
from time import process_time

import numpy as np
import scipy.linalg

# CPU seconds of one _kernel() call on the reference machine (Intel Xeon VM,
# 2 vCPUs at 2.0 GHz, Python 3.11.7, numpy 2.4.6, scipy 1.17.1, one BLAS
# thread) in its fast state.
REFERENCE_S = 1.9e-3

_A = np.random.default_rng(0).standard_normal((24, 24)) + 0j
_B = np.eye(24, dtype=complex)


def _kernel() -> None:
    total = 0.0
    for i in range(3000):
        total += abs(complex(i, 1.0) - 0.5)
    counts = {}
    for i in range(1000):
        counts[i % 37] = counts.get(i % 37, 0) + i
    for _ in range(2):
        scipy.linalg.eig(_A, _B, right=False)


def speed_factor(cpu_seconds: float) -> float:
    """Multiply `cpu_seconds`, measured just before, by this to correct it
    to the reference machine's fast state.

    The kernel runs at least three times, and until it has taken 5% of
    `cpu_seconds`. The mean is used, not the median: the machine also flips
    between its states within a stretch, and the mean of many short samples
    follows the share of time spent in each, where a median snaps to one."""
    times = []
    while len(times) < 3 or sum(times) < 0.05 * cpu_seconds:
        start = process_time()
        _kernel()
        times.append(process_time() - start)
    return REFERENCE_S / statistics.fmean(times)
