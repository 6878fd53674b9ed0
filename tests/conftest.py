"""Shared fixtures: the worked reference dataset, seeded RNG and a counter
of the divide-and-conquer clustering's merge comparisons."""

import importlib
import json
import math
import os

# One BLAS thread, set before numpy loads: the timing ratios of the
# acceptance tests stay stable when other processes compete for the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from laggcd import LagrangePoly, cluster_dnc

# the module, which the package's `cluster` function shadows
CLUSTER_MODULE = importlib.import_module("laggcd.cluster")

# Reference problem: two polynomials given by values at distinct nodes,
# sharing (approximately) a quadruple root near 1.6 and a double root
# near 2.8 once sigma = 0.5 clustering is applied.
PX = [
    4.586334585, 5.161255391, 2.323567403, 1.809094426,
    1.471852626, 4.427838553, 2.275731771, 1.020544909,
]
PY = [
    787.1243900, 3285.933680, 0.01345240, 0.00001680,
    0.00880350, 499.6500860, 0.01132600, 0.12249270,
]
QX = [
    2.812852786, 1.746745227, 2.296707006, 2.359573808,
    4.747053250, 1.640439652, 5.832623175,
]
QY = [
    -0.0095256, 0.0171306, 0.2253058, 0.2359018,
    426.4319036, 0.0041690, 3314.165173,
]


def default_seed() -> int:
    return int(os.environ.get("LAGCD_SEED", "20240817"))


@pytest.fixture
def rng():
    return np.random.default_rng(default_seed())


@pytest.fixture
def dnc_comparisons(monkeypatch):
    """A function that runs cluster_dnc(roots, sigma) and returns the pair
    comparisons its strip merges made: a strip of k points that merges m
    times scans all pairs of its k, k - 1, ..., k - m points."""
    merge = CLUSTER_MODULE._merge_strip
    count = 0

    def counted(points, sigma):
        nonlocal count
        out = merge(points, sigma)
        k = len(points)
        count += sum(math.comb(k - j, 2) for j in range(k - len(out) + 1))
        return out

    monkeypatch.setattr(CLUSTER_MODULE, "_merge_strip", counted)

    def run(roots, sigma):
        nonlocal count
        count = 0
        cluster_dnc(roots, sigma)
        return count

    return run


@pytest.fixture
def ref_p():
    return LagrangePoly(PX, PY)


@pytest.fixture
def ref_q():
    return LagrangePoly(QX, QY)


@pytest.fixture
def problem_file(tmp_path):
    """Write the reference problem to disk and return its path."""
    path = tmp_path / "problem.json"
    path.write_text(
        json.dumps({"px": PX, "py": PY, "qx": QX, "qy": QY, "sigma": 0.5})
    )
    return str(path)


def random_distinct_nodes(rng, count, lo=-3.0, hi=3.0, min_gap=0.05):
    """Deterministically spaced random real nodes with a guaranteed gap."""
    base = np.linspace(lo, hi, count)
    jitter = rng.uniform(-0.4, 0.4, size=count) * (hi - lo) / max(count, 2) * 0.5
    nodes = np.sort(base + jitter)
    while np.min(np.diff(nodes)) < min_gap:
        nodes = np.sort(base + rng.uniform(-0.2, 0.2, size=count))
    return nodes
