"""Bipartite weighted matching between two clustered root sets.

Edges connect roots within sigma of each other; an edge's weight is the
smaller of its endpoints' multiplicities. The default solver is the
descending-weight greedy scan (a 1/2-approximation); the exact solver is
one dense assignment, far cheaper than the rootfinding before it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvalidParameterError, check_sigma
from .lagpoly import RootList, real_slack


@dataclass(frozen=True)
class Edge:
    left: int
    right: int
    weight: int
    distance: float


@dataclass
class MatchGraph:
    left: RootList
    right: RootList
    edges: Tuple[Edge, ...]


@dataclass
class Matching:
    edges: Tuple[Edge, ...]

    def __post_init__(self):
        lefts = [e.left for e in self.edges]
        rights = [e.right for e in self.edges]
        if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
            raise InvalidParameterError("matching edges share a vertex")

    @property
    def total_weight(self) -> int:
        return sum(e.weight for e in self.edges)


# From this many roots of P up, build_graph sweeps in numpy; below it,
# numpy's fixed cost per call (about 25 us) outweighs the Python sweep.
_NUMPY_SWEEP_MIN_N = 64
# The numpy sweep tests at most about this many window pairs at a time (a
# window is never split), so that its memory does not grow with |P| x |Q|
# when many roots share a real part.
_PAIR_BLOCK = 1 << 16


def build_graph(roots_p: RootList, roots_q: RootList, sigma: float) -> MatchGraph:
    """All root pairs within sigma, weighted by min multiplicity.

    A sort-and-sweep: Q's entries are already in real-part order (RootList
    keeps them so), so each P root bisects the window of real parts within
    sigma of its own and tests only that window, with the exact test
    abs(r - s) <= sigma. The window is widened by a few ulps (real_slack)
    so that rounding cannot drop a pair, and it is visited in ascending
    index, so the edges and their (i, j) order are those of the all-pairs
    scan. From _NUMPY_SWEEP_MIN_N roots of P up, the sweep runs in numpy.
    """
    check_sigma(sigma)
    left, right = roots_p.entries, roots_q.entries
    slack = real_slack(left, sigma)
    sweep = _numpy_sweep if len(left) >= _NUMPY_SWEEP_MIN_N else _python_sweep
    edges = tuple(sweep(left, right, sigma, slack))
    return MatchGraph(left=roots_p, right=roots_q, edges=edges)


def _python_sweep(left, right, sigma, slack) -> List[Edge]:
    reals = [s.real for s, _ in right]
    edges = []
    for i, (r, dr) in enumerate(left):
        lo = bisect_left(reals, r.real - slack)
        hi = bisect_right(reals, r.real + slack)
        for j in range(lo, hi):
            s, ds = right[j]
            try:
                d = abs(r - s)
            except OverflowError:  # beyond the double range
                d = math.inf
            if d <= sigma:
                edges.append(Edge(i, j, min(dr, ds), d))
    return edges


def _numpy_sweep(left, right, sigma, slack) -> List[Edge]:
    """_python_sweep for all P roots at once: np.searchsorted takes the
    windows bisect takes, and np.hypot equals abs(complex) bit for bit; a
    difference or distance beyond the double range is inf."""
    zp = np.array([r for r, _ in left], dtype=complex)
    zq = np.array([s for s, _ in right], dtype=complex)
    with np.errstate(over="ignore"):
        lo = np.searchsorted(zq.real, zp.real - slack, "left")
        hi = np.searchsorted(zq.real, zp.real + slack, "right")
    counts = hi - lo
    ends = np.cumsum(counts)
    first = ends - counts  # window i holds pairs first[i] to ends[i]
    edges = []
    a = 0
    while a < len(zp):  # windows a to b, about _PAIR_BLOCK pairs
        b = max(a + 1, int(np.searchsorted(ends, first[a] + _PAIR_BLOCK, "right")))
        rows = np.repeat(np.arange(a, b), counts[a:b])
        cols = lo[rows] + np.arange(first[a], ends[b - 1]) - first[rows]
        with np.errstate(over="ignore"):
            dz = zp[rows] - zq[cols]
            dist = np.hypot(dz.real, dz.imag)
        hit = dist <= sigma
        for i, j, d in zip(rows[hit].tolist(), cols[hit].tolist(), dist[hit].tolist()):
            edges.append(Edge(i, j, min(left[i][1], right[j][1]), d))
        a = b
    return edges


def greedy_mwm(g: MatchGraph) -> Matching:
    """Descending-weight greedy scan; ties broken by distance then indices.

    Guarantees at least half the optimal weight and runs in O(|E|) after
    the sort.
    """
    order = sorted(g.edges, key=lambda e: (-e.weight, e.distance, e.left, e.right))
    used_l, used_r = set(), set()
    chosen = []
    for e in order:
        if e.left in used_l or e.right in used_r:
            continue
        chosen.append(e)
        used_l.add(e.left)
        used_r.add(e.right)
    return Matching(tuple(chosen))


def exact_mwm(g: MatchGraph) -> Matching:
    """Maximum-weight matching via the assignment problem.

    It allocates a dense |left| x |right| matrix at any size: through
    approximate_gcd a side holds at most degree-many clusters, one per
    root that rootfinding (QZ, or Aberth from degree 64 up) returned.
    Missing pairs get weight zero in the assignment matrix; zero-weight
    assignments are dropped afterwards, which is exact because all real
    edge weights are positive.
    """
    nl, nr = len(g.left), len(g.right)
    if not g.edges or nl == 0 or nr == 0:
        return Matching(())
    weight = np.zeros((nl, nr))
    lookup = {}
    for e in g.edges:
        weight[e.left, e.right] = e.weight
        lookup[(e.left, e.right)] = e
    rows, cols = linear_sum_assignment(weight, maximize=True)
    chosen = tuple(
        lookup[(i, j)] for i, j in zip(rows, cols) if (i, j) in lookup
    )
    return Matching(chosen)
