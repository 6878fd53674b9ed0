"""Run one workload on several seeds and print, per metric, the median and
the spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median.

    python3 perfbench/spread.py --workload root_clouds --seeds 10 --seconds 20

Runs are sequential, untraced (`--trace 0`) fresh processes of run.py
with seeds 1..N (or from --first-seed). Use it to check that a metric's spread stays well inside its
bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        print("seed %d: attempted %d failed %d correct %s  %s" % (
            seed, result["attempted"], result["failed"], result["correct"],
            " ".join("%s=%.6g" % (k, m["value"]) for k, m in result["metrics"].items()),
        ), flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
    for key, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print("%-30s median %-12.6g spread %.4f" % (key, med, share))
    return 0


if __name__ == "__main__":
    sys.exit(main())
