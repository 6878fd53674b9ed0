"""Outcome ratchet: how many of the benchmark's own problems the library
solves, and how many it answers wrong without a warning.

The problems are rebuilt with the seeded generators of
perfbench/workloads.py and classified by its oracle (each workload's
`check`, which calls `judge`), as perfbench/run.py does. A LagGcdError
counts as a loud wrong answer; any other exception fails the test. The
pins are the counts the code reaches today. A change may solve more and
be silently wrong less, never the reverse; one that improves a count
should move its pin with it.
"""

import importlib.util
import os
import sys

import pytest

import laggcd
import laggcd.cli  # the cli_files workload calls laggcd.cli.main

_WORKLOADS_PY = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py"
)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


W = _load_workloads()

# workload: (seed, problem ids, solved, loud wrong, silent wrong); the
# large_degree ids cycle through degrees 64, 128 and 256, and cli_files
# runs laggcd.cli.main on problem files
PINS = {
    "small_batch": (7, range(300), 278, 0, 22),
    "cli_files": (7, range(100), 78, 12, 10),
    "large_degree": (1, range(45), 8, 37, 0),
}


def tally(name, seed, ids, workdir):
    """(solved, loud wrong, silent wrong) over the problems ids."""
    workload = W.WORKLOADS[name]
    solved = silent = 0
    for pid in ids:
        problem = workload.make(seed, pid, workdir)
        try:
            outcome = workload.check(problem, workload.solve(laggcd, problem))
        except laggcd.LagGcdError:  # a typed error is a loud answer
            outcome = W.Outcome(W.RAISED)
        solved += outcome.status == W.SOLVED
        silent += outcome.silent
    return solved, len(ids) - solved - silent, silent


@pytest.mark.parametrize("name", PINS)
def test_outcomes_hold_their_pins(name, tmp_path):
    seed, ids, *pinned = PINS[name]
    solved, loud, silent = tally(name, seed, ids, str(tmp_path))
    assert solved >= pinned[0] and silent <= pinned[2], (
        "solved, loud wrong, silent wrong: got %s, pinned %s"
        % ((solved, loud, silent), tuple(pinned))
    )
