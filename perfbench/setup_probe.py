"""One set-up sample, in a fresh process: import laggcd and finish the
workload's warm-up problem(s). Prints the CPU seconds taken, corrected to
the reference machine speed (see calibrate.py).

The warm-up inputs are made before the clock starts, so the time excludes
the benchmark's own input generation (and numpy's import, which that needs).
Started by run.py, whose one-thread BLAS setting this process inherits.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS  # noqa: E402


def main(argv):
    name, seed, workdir = argv[0], int(argv[1]), argv[2]
    workload = WORKLOADS[name]
    problems = workload.warmup(seed, workdir)
    start = time.process_time()
    import laggcd
    import laggcd.cli

    for problem in problems:
        try:
            workload.solve(laggcd, problem)
        except Exception:  # a failing warm-up still counts as set-up done
            pass
    elapsed = time.process_time() - start
    import calibrate  # after the clock: it imports scipy itself

    print("%.9f" % (elapsed * calibrate.speed_factor(elapsed)))


if __name__ == "__main__":
    main(sys.argv[1:])
