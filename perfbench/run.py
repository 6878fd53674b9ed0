"""laggcd benchmark: four planted-GCD workloads, measured end to end, and a
traced run that times each module of the library from outside.

Run from the repository root:

    python3 perfbench/run.py --workload small_batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

One run is one fresh process, one client in a closed loop: the next problem
starts when the previous one returns. The run measures until the library
calls have taken ``--seconds`` of wall-clock time in total, and at least a
fixed number of problems that depends only on the workload and
``--seconds``; input generation and the oracle run between calls and are
not timed. ``attempted``, ``failed`` and the outcomes are taken over that
fixed prefix, so they repeat exactly for a seed. The last line of standard
output is a JSON object ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
ones (the run then spends half of ``--seconds`` on an untraced pass, and
traces the fixed prefix of that pass's problems again). Report lines above
it print every outcome by name, with its unit.
``--all`` runs every workload both ways, each in its own process.

See perfbench/README.md for the metrics, the oracle and the baseline.
"""

import os

# One BLAS thread, fixed before numpy is imported; set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
from workloads import RAISED, SOLVED, WORKLOADS, WRONG, Outcome  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 7

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "problems_per_ref_s": "1/s",
}
PER_LAYER = {
    "solved_per_s": "1/s",
    "failed_frac": "fraction",
    "silent_wrong_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "rootfind.roots.ms": "ms",
    "rootfind.roots.calls": "count",
    "rootfind.roots.deg64.ms": "ms",
    "rootfind.roots.deg128.ms": "ms",
    "rootfind.roots.deg256.ms": "ms",
    "rootfind.pencil_flops": "count",
    "rootfind.found_frac": "fraction",
    "rootfind.extra_discarded": "count",
    "lagpoly.from_roots.ms": "ms",
    "lagpoly.from_roots.calls": "count",
    "lagpoly.from_roots.products": "count",
    "lagpoly.evaluate.ms": "ms",
    "cluster.dnc.ms": "ms",
    "cluster.heuristic.ms": "ms",
    "cluster.merge_frac": "fraction",
    "matching.build_graph.ms": "ms",
    "matching.pairs_scanned": "count",
    "matching.edge_frac": "fraction",
    "matching.greedy.ms": "ms",
    "matching.exact.ms": "ms",
    "matching.matched_frac": "fraction",
    "metric.sum.ms": "ms",
    "metric.max.ms": "ms",
    "metric.calls": "count",
    "metric.n": "count",
    "agcd.approximate_gcd.ms": "ms",
    "agcd.approximate_gcd.self_ms": "ms",
    "agcd.materialize.ms": "ms",
    "agcd.raised": "count",
    "problemfile.load_problem.ms": "ms",
    "problemfile.bytes_in": "bytes",
    "cli.main.ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.bytes_out": "bytes",
}


class Record:
    __slots__ = ("label", "outcome", "seconds")

    def __init__(self, label, outcome, seconds):
        self.label, self.outcome, self.seconds = label, outcome, seconds


def measure(workload, lib, seed, seconds, counted, workdir, tracer=None):
    """Closed loop over problems 0, 1, ... in rounds of workload.round_size,
    until the timed calls add up to `seconds` of wall-clock time and at
    least `counted` rounds are done.

    Returns the records and each round's CPU time corrected to the
    reference machine speed (the reference kernel runs after the round,
    outside the timed calls). Library exceptions are outcomes, never
    aborts."""
    records, rounds, busy, pid = [], [], 0.0, 0
    while busy < seconds or len(rounds) < counted:
        cpu = 0.0
        for _ in range(workload.round_size):
            problem = workload.make(seed, pid, workdir)
            span = tracer.begin(pid) if tracer else None
            start, cpu_start = perf_counter(), process_time()
            try:
                output, raised = workload.solve(lib, problem), None
            except Exception as exc:  # the library failing is what we record
                output, raised = None, type(exc).__name__
            cpu += process_time() - cpu_start
            elapsed = perf_counter() - start
            if tracer:
                tracer.end(span)
            if raised:
                outcome = Outcome(RAISED, raised=raised)
            else:
                outcome = workload.check(problem, output)
            records.append(Record(problem.label, outcome, elapsed))
            busy += elapsed
            pid += 1
        rounds.append(cpu * calibrate.speed_factor(cpu))
    return records, rounds


def setup_seconds(name, seed, workdir):
    """Median over fresh processes of the CPU time to import laggcd and
    finish the warm-up, corrected to the reference machine speed."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, probe, name, str(seed), workdir],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def problems_per_ref_s(rounds, round_size):
    """Problems per corrected CPU second (see calibrate.py), over every
    round measured."""
    return round_size * len(rounds) / sum(rounds)


def median_or_unsolved(records):
    """Median time (ms) where a failed problem is slower than every solved
    one; None ("unsolved") when half or more of the problems failed."""
    failed = sum(r.outcome.status != SOLVED for r in records)
    if not records or 2 * failed >= len(records):
        return None
    times = [r.seconds * 1e3 if r.outcome.status == SOLVED else math.inf for r in records]
    return statistics.median(times)


def outcomes(name, records):
    """The outcomes (see README.md) that apply to this workload; a value of
    None prints as unsolved / not applicable."""
    n = len(records)
    busy = sum(r.seconds for r in records)
    solved = [r for r in records if r.outcome.status == SOLVED]
    out = {
        "problems_per_s": (n / busy, "1/s"),
        "solved_per_s": (len(solved) / busy, "1/s"),
        "failed_frac": ((n - len(solved)) / n, "fraction"),
        "silent_wrong_frac": (sum(r.outcome.silent for r in records) / n, "fraction"),
    }
    if name in ("small_batch", "cli_files"):
        out["problem_ms_p50"] = (median_or_unsolved(records), "ms")
        # p99 only once at least 10 samples lie beyond it
        p99 = None
        if n >= 1000:
            times = sorted(
                r.seconds * 1e3 if r.outcome.status == SOLVED else math.inf for r in records
            )
            p99 = times[math.ceil(0.99 * n) - 1]
        out["problem_ms_p99"] = (None if p99 == math.inf else p99, "ms")
    if name == "large_degree":
        for deg in (64, 128, 256):
            at = [r for r in records if r.label == "deg%d" % deg]
            out["deg%d_ms" % deg] = (median_or_unsolved(at), "ms")
    if name != "cli_files":
        worst = max((r.outcome.err for r in solved), default=0.0)
        out["gcd_err_log10"] = (math.log10(worst) if worst > 0 else None, "log10")
    return out


def environment():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "python %s, numpy %s, scipy %s, BLAS %s %s (1 thread), nproc %d, fresh process" % (
        platform.python_version(),
        np.__version__,
        scipy.__version__,
        blas.get("name", "?"),
        blas.get("version", "?"),
        os.cpu_count() or 0,
    )


def report(title, values):
    print(title)
    for key, (value, unit) in values.items():
        shown = "unsolved / n.a." if value is None else "%.6g" % value
        print("  %-30s %-16s %s" % (key, shown, unit))


def run_one(args):
    if not os.path.isfile(os.path.join(SRC, "laggcd", "__init__.py")):
        print("error: laggcd sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(OUT, "work-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_s = setup_seconds(args.workload, args.seed, workdir)
        import laggcd
        import laggcd.cli

        warm = workload.warmup(args.seed, workdir)
        for problem in warm:
            try:
                workload.solve(laggcd, problem)
            except Exception:  # failures are counted in the measured pass
                pass
        # oracle self-check: it must accept the planted answer itself
        correct = all(
            workload.check(p, workload.planted_output(p)).status == SOLVED for p in warm
        )

        # a traced run spends half its time untraced, then traces the
        # counted prefix again
        seconds = args.seconds / 2 if args.trace else args.seconds
        counted = workload.counted_rounds(seconds)
        measured, rounds = measure(workload, laggcd, args.seed, seconds, counted, workdir)
        records = measured[: counted * workload.round_size]
        gated = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "problems_per_ref_s": problems_per_ref_s(rounds, workload.round_size),
        }
        found = outcomes(args.workload, records)
        raised = Counter(r.outcome.raised for r in records if r.outcome.raised)
        print("workload %s, seed %d, %g s measured, trace %d" % (
            args.workload, args.seed, args.seconds, args.trace))
        print("environment: %s" % environment())
        print("measured %d problems in %d rounds; outcomes over the first %d" % (
            len(measured), len(rounds), len(records)))
        print("attempted %d, solved %d, wrong %d (silent %d), raised %s" % (
            len(records),
            sum(r.outcome.status == SOLVED for r in records),
            sum(r.outcome.status == WRONG for r in records),
            sum(r.outcome.silent for r in records),
            dict(raised) or "none",
        ))
        report("end-to-end, untraced:", {
            **{k: (v, END_TO_END[k]) for k, v in gated.items()},
            **found,
        })

        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced, traced_rounds = measure(
                    workload, laggcd, args.seed, 0, counted, workdir, tracer
                )
            finally:
                tracer.uninstall()
            tracer.write(os.path.join(OUT, "spans-%s-seed%d.jsonl" % (args.workload, args.seed)))
            metrics = spans.layer_metrics(tracer, len(traced))
            metrics["trace.overhead_frac"] = 1.0 - (
                problems_per_ref_s(traced_rounds, workload.round_size) / gated["problems_per_ref_s"]
            )
            for key in ("solved_per_s", "failed_frac", "silent_wrong_frac"):
                metrics[key] = found[key][0]
            if tracer.missing:
                print("missing hooks (their metrics are left out): %s" % ", ".join(tracer.missing))
            by_type = spans.raised_by_type(tracer)
            print("agcd.raised by type: %s" % (by_type or "none"))
            report("per-layer, traced (%d problems):" % len(traced), {
                k: (metrics[k], PER_LAYER[k]) for k in PER_LAYER if k in metrics
            })
            units = PER_LAYER
        else:
            metrics, units = gated, END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    solved = sum(r.outcome.status == SOLVED for r in records)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(records) - solved,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, untraced and traced, each in a fresh process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                status = done.returncode
                continue
            result = json.loads(lines[-1])
            print("result: correct=%s attempted=%d failed=%d" % (
                result["correct"], result["attempted"], result["failed"]))
            print()
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, both ways")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
