"""Self-checks for the benchmark itself. Run from the repository root:

    python3 perfbench/selfcheck.py

1. The same seed gives bit-identical inputs, and another seed other inputs.
2. The oracle accepts the planted answer itself, and rejects it with a root
   moved past the tolerance or a multiplicity changed.
3. The metric names and units printed by run.py are exactly those in
   BENCHMARK.json, in both directions, and so are the workload names; each
   short real run reports correct: true, and a second untraced run of the
   same seed reports the same attempted and failed counts.

Exits non-zero if any check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

import run
from workloads import SOLVED, WORKLOADS, WRONG

PROBLEMS = 6  # per workload and check


def same_inputs(a, b) -> bool:
    if a.planted != b.planted or a.label != b.label or a.tol != b.tol:
        return False
    for key, va in a.data.items():
        vb = b.data[key]
        if key == "path":  # cli_files: compare the files written
            with open(va, "rb") as fa, open(vb, "rb") as fb:
                if fa.read() != fb.read():
                    return False
        elif key != "out" and not np.array_equal(np.asarray(va), np.asarray(vb)):
            return False
    return True


def scratch_dir():
    """A temporary directory inside the checkout's ignored output folder."""
    os.makedirs(run.OUT, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.OUT)


def check_inputs(failures):
    with scratch_dir() as d1, scratch_dir() as d2:
        for name, wl in WORKLOADS.items():
            for pid in range(PROBLEMS):
                if not same_inputs(wl.make(7, pid, d1), wl.make(7, pid, d2)):
                    failures.append("%s: seed 7 problem %d differs between calls" % (name, pid))
                if same_inputs(wl.make(7, pid, d1), wl.make(8, pid, d2)):
                    failures.append("%s: seeds 7 and 8 give the same problem %d" % (name, pid))


def check_oracle(failures):
    with scratch_dir() as d:
        for name, wl in WORKLOADS.items():
            for pid in range(PROBLEMS):
                p = wl.make(3, pid, d)
                if wl.check(p, wl.planted_output(p)).status != SOLVED:
                    failures.append("%s: oracle rejects the planted answer of problem %d" % (name, pid))
                root, mult = p.planted[0]
                for wrong in ((root + 3 * p.tol, mult), (root, mult % 3 + 1)):
                    planted = p.planted
                    p.planted = [wrong] + planted[1:]
                    output = wl.planted_output(p)
                    p.planted = planted
                    if wl.check(p, output).status != WRONG:
                        failures.append("%s: oracle accepts a wrong answer %r" % (name, wrong))


def check_names(failures):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if declared[0] != run.END_TO_END:
        failures.append("end_to_end in BENCHMARK.json != run.END_TO_END")
    if declared[1] != run.PER_LAYER:
        failures.append("per_layer in BENCHMARK.json != run.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        failures.append("workloads in BENCHMARK.json != workloads.WORKLOADS")
    for name in WORKLOADS:
        counts = []
        for trace in (0, 1, 0):
            cmd = [*spec["command"], "--workload", name, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            if done.returncode != 0:
                failures.append("%s trace %d: exit %d" % (name, trace, done.returncode))
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            printed = {k: m["unit"] for k, m in result["metrics"].items()}
            if printed != declared[trace]:
                failures.append("%s trace %d: printed metrics differ from BENCHMARK.json: %s"
                                % (name, trace, sorted(set(printed) ^ set(declared[trace]))))
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s trace %d: result keys %s" % (name, trace, sorted(result)))
            elif result["correct"] is not True or result["attempted"] < 1:
                failures.append("%s trace %d: correct %r, attempted %r"
                                % (name, trace, result["correct"], result["attempted"]))
            if trace == 0:
                counts.append((result["attempted"], result["failed"]))
        if len(set(counts)) > 1:
            failures.append("%s: attempted/failed differ between runs of one seed: %s"
                            % (name, counts))


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    failures = []
    for check in (check_inputs, check_oracle):
        check(failures)
        print("%s: %s" % (check.__name__, "ok" if not failures else "FAILED"), flush=True)
    before = len(failures)
    check_names(failures)
    print("check_names: %s" % ("ok" if len(failures) == before else "FAILED"))
    for failure in failures:
        print("  " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
