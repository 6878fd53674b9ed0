"""Root pseudometric: (1/n) * min over root permutations of a base metric.

The base metric rho on C^n is either the sum of coordinate moduli
(solved exactly as a linear assignment problem) or the max of coordinate
moduli (solved as a bottleneck assignment). Scaling a polynomial leaves
its roots unchanged, so the distance of cf to f is zero; this is a
pseudometric, not a metric.

For rho="sum", coordinates that f and g share exactly (equal as complex
numbers, so -0.0 pairs with 0.0, counted as multisets) are paired at
distance zero first, and the assignment runs on the remaining ones only.
Some optimal assignment pairs every shared coordinate: if f_i = g_j = p
while i goes to j' and i' goes to j, swapping to i -> j, i' -> j' costs
no more, as |f_i' - g_j'| <= |f_i' - p| + |p - g_j'|. The matched
distances are summed in f's order, so the value is the dense solve's bit
for bit wherever the optimal assignment is unique. rho="max" does not
pair first: there the swap can cost more (f = {-1, 0}, g = {0, 1} has
distance 1, but pairing the shared 0 gives 2).

Non-finite coordinates are rejected with InvalidParameterError for both
rhos: a NaN or infinite root has no distance to anything. The certificate
built on this distance is agcd.certify_distance.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .errors import InvalidParameterError, LengthMismatchError
from .lagpoly import RootList

RHO_SUM = "sum"
RHO_MAX = "max"


def _coords(obj) -> np.ndarray:
    if isinstance(obj, RootList):
        return obj.expand()
    return np.asarray(obj, dtype=complex)


def _bottleneck(dist: np.ndarray) -> float:
    """Smallest t such that a perfect matching exists using edges <= t.

    No perfect matching beats lb, the largest of the row and column
    minima, and lb is an entry of dist; it is probed first and is the
    answer on well-separated data. Otherwise the binary search runs over
    the distinct entries above lb only. (With NaN entries lb is NaN and
    the search covers every entry.)
    """
    n = dist.shape[0]

    def feasible(t: float) -> bool:
        adj = csr_matrix(dist <= t)
        match = maximum_bipartite_matching(adj, perm_type="column")
        return int((match >= 0).sum()) == n

    lb = max(dist.min(axis=1).max(), dist.min(axis=0).max())
    if feasible(lb):
        return float(lb)
    values = np.unique(dist[~(dist <= lb)])
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(values[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])


def _unshared(both: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Indices of the coordinates of f and of g left once equal values pair off.

    both is f followed by g. One stable sort puts the copies of each
    distinct value in a run [lo, hi), f's before g's. A value held c_f
    times by f and c_g times by g pairs min(c_f, c_g) copies a side: the
    last ones of f and the first ones of g. So a copy of f is left when it
    and the f copies after it outnumber g's copies, and a copy of g is
    left when it and the g copies before it outnumber f's copies; with
    c[p] the f copies minus the g copies before sorted position p, these
    are c[p] < c[hi] and c[p] <= c[lo].
    """
    order = both.argsort(kind="stable")
    both = both[order]
    lo = both.searchsorted(both, "left")
    hi = both.searchsorted(both, "right")
    is_f = order < n
    c = np.zeros(2 * n + 1, dtype=np.intp)
    c[1:] = np.where(is_f, 1, -1).cumsum()
    left = np.empty(2 * n, dtype=bool)
    left[order] = np.where(is_f, c[:-1] < c[hi], c[:-1] <= c[lo])
    return left[:n].nonzero()[0], left[n:].nonzero()[0]


def root_pseudometric(f, g, rho: str = RHO_SUM) -> float:
    """Distance between two equal-length root vectors.

    A root vector is a RootList (multiplicity expanded) or any complex
    sequence. Raises LengthMismatchError when the lengths differ: the
    pseudometric is only defined between polynomials of the same degree.
    Raises InvalidParameterError for an unknown rho or a non-finite
    coordinate.
    """
    if rho not in (RHO_SUM, RHO_MAX):
        raise InvalidParameterError("rho must be 'sum' or 'max', got %r" % (rho,))
    fv, gv = _coords(f), _coords(g)
    n = len(fv)
    if n != len(gv):
        raise LengthMismatchError(
            "root vectors have different lengths: %d vs %d" % (n, len(gv))
        )
    if n == 0:
        raise LengthMismatchError("root vectors must be non-empty")
    both = np.concatenate((fv, gv))
    # before any pairing: inf == inf, yet abs(inf - inf) is NaN
    if not np.isfinite(both).all():
        raise InvalidParameterError("root vectors must be finite")
    if rho == RHO_MAX:
        return _bottleneck(np.abs(fv[:, None] - gv[None, :])) / n
    rows, cols = _unshared(both, n)
    dist = np.abs(np.subtract.outer(fv[rows], gv[cols]))
    r, c = linear_sum_assignment(dist)
    per_row = np.zeros(n)
    per_row[rows[r]] = dist[r, c]
    return float(per_row.sum()) / n
