"""Root pseudometric: (1/n) * min over root permutations of a base metric.

The base metric rho on C^n is either the sum of coordinate moduli
(solved exactly as a linear assignment problem) or the max of coordinate
moduli (solved as a bottleneck assignment). Scaling a polynomial leaves
its roots unchanged, so the distance of cf to f is zero; this is a
pseudometric, not a metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .errors import InvalidParameterError, LengthMismatchError
from .lagpoly import LagrangePoly, RootList

RHO_SUM = "sum"
RHO_MAX = "max"


@dataclass(frozen=True)
class RootVector:
    """A polynomial's roots with multiplicity expanded, as a fixed-length tuple."""

    coords: Tuple[complex, ...]

    def __len__(self) -> int:
        return len(self.coords)


def _coords(obj) -> np.ndarray:
    if isinstance(obj, RootVector):
        return np.asarray(obj.coords, dtype=complex)
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


def root_pseudometric(f, g, rho: str = RHO_SUM) -> float:
    """Distance between two equal-length root vectors.

    Accepts RootVector, RootList (multiplicity expanded) or any complex
    sequence. Raises LengthMismatchError when the lengths differ: the
    pseudometric is only defined between polynomials of the same degree.
    """
    fv, gv = _coords(f), _coords(g)
    n = len(fv)
    if n != len(gv):
        raise LengthMismatchError(
            "root vectors have different lengths: %d vs %d" % (n, len(gv))
        )
    if n == 0:
        raise LengthMismatchError("root vectors must be non-empty")
    dist = np.abs(fv[:, None] - gv[None, :])
    if rho == RHO_SUM:
        rows, cols = linear_sum_assignment(dist)
        return float(dist[rows, cols].sum()) / n
    if rho == RHO_MAX:
        return _bottleneck(dist) / n
    raise InvalidParameterError("rho must be 'sum' or 'max', got %r" % (rho,))


def certify_distance(
    p: Union[LagrangePoly, RootList, RootVector],
    pt: RootList,
    sigma: float,
    rho: str = RHO_SUM,
) -> Tuple[float, bool]:
    """Distance from p to the reconstructed pt, and whether it is within sigma.

    A LagrangePoly argument is rootfound first; RootLists are compared by
    their multiplicity-expanded root vectors.
    """
    if isinstance(p, LagrangePoly):
        from .rootfind import roots as _roots

        pv = _roots(p).roots
    else:
        pv = _coords(p)
    d = root_pseudometric(pv, pt.expand(), rho=rho)
    return d, d <= sigma
