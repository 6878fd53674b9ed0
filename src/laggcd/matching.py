"""Bipartite weighted matching between two clustered root sets.

Edges connect roots within sigma of each other; an edge's weight is the
smaller of its endpoints' multiplicities. The default solver is the
descending-weight greedy scan (a 1/2-approximation); an exact assignment
solver is provided as an oracle for tests and for small problems.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvalidParameterError, SizeGuardError
from .lagpoly import RootList

EXACT_SIZE_GUARD = 10_000  # max |left| * |right| for the exact solver
_EPS = sys.float_info.epsilon


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
    total_weight: int

    def __post_init__(self):
        lefts = [e.left for e in self.edges]
        rights = [e.right for e in self.edges]
        if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
            raise InvalidParameterError("matching edges share a vertex")
        if self.total_weight != sum(e.weight for e in self.edges):
            raise InvalidParameterError("total_weight inconsistent with edges")


def build_graph(roots_p: RootList, roots_q: RootList, sigma: float) -> MatchGraph:
    """All root pairs within sigma, weighted by min multiplicity.

    A sort-and-sweep: Q's entries are already in real-part order (RootList
    keeps them so), so each P root bisects the window of real parts within
    sigma of its own and tests only that window, with the exact test
    abs(r - s) <= sigma. The window is widened by a few ulps so that
    rounding cannot drop a pair, and it is visited in ascending index, so
    the edges and their (i, j) order are those of the all-pairs scan.
    """
    if not sigma >= 0:
        raise InvalidParameterError("sigma must be >= 0")
    right = roots_q.entries
    reals = [s.real for s, _ in right]
    edges: List[Edge] = []
    for i, (r, dr) in enumerate(roots_p):
        slack = sigma + 4 * _EPS * (abs(r.real) + sigma)
        lo = bisect_left(reals, r.real - slack)
        hi = bisect_right(reals, r.real + slack)
        for j in range(lo, hi):
            s, ds = right[j]
            d = abs(r - s)
            if d <= sigma:
                edges.append(Edge(i, j, min(dr, ds), d))
    return MatchGraph(left=roots_p, right=roots_q, edges=tuple(edges))


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
    return Matching(tuple(chosen), sum(e.weight for e in chosen))


def exact_mwm(g: MatchGraph) -> Matching:
    """Maximum-weight matching via the assignment problem (oracle path).

    Missing pairs get weight zero in the assignment matrix; zero-weight
    assignments are dropped afterwards, which is exact because all real
    edge weights are positive.
    """
    nl, nr = len(g.left), len(g.right)
    if nl * nr > EXACT_SIZE_GUARD:
        raise SizeGuardError(
            "exact solver guarded at %d vertex pairs, got %d"
            % (EXACT_SIZE_GUARD, nl * nr)
        )
    if not g.edges or nl == 0 or nr == 0:
        return Matching((), 0)
    weight = np.zeros((nl, nr))
    lookup = {}
    for e in g.edges:
        weight[e.left, e.right] = e.weight
        lookup[(e.left, e.right)] = e
    rows, cols = linear_sum_assignment(weight, maximize=True)
    chosen = tuple(
        lookup[(i, j)] for i, j in zip(rows, cols) if (i, j) in lookup
    )
    return Matching(chosen, sum(e.weight for e in chosen))
