"""Root pseudometric: (1/n) * min over root permutations of a base metric.

The base metric rho on C^n is either the sum of coordinate moduli
(solved exactly as a linear assignment problem) or the max of coordinate
moduli (a bottleneck assignment, searched with linear assignments on 0/1
costs). Scaling a polynomial leaves its roots unchanged, so the distance
of cf to f is zero; this is a pseudometric, not a metric.

Both rhos pair the coordinates that f and g share exactly (equal as
complex numbers, so -0.0 pairs with 0.0, counted as multisets) first, at
distance zero, from _PAIR_FIRST_MIN_N roots up; below that they solve
the dense n x n problem, which is the reference value.

For rho="sum" the assignment then runs on the remaining coordinates
only. Some optimal assignment pairs every shared coordinate: if f_i =
g_j = p while i goes to j' and i' goes to j, swapping to i -> j, i' -> j'
costs no more, as |f_i' - g_j'| <= |f_i' - p| + |p - g_j'|. The matched
distances are summed in f's order, so the value is the dense solve's bit
for bit wherever the optimal assignment is unique.

For rho="max" the swap can cost more (f = {-1, 0}, g = {0, 1} has
distance 1, but pairing the shared 0 gives 2), so pairing first is only
a candidate there. With k of the n coordinates unshared, it costs
O(k * n): the dense lower bound lb (the largest row or column minimum of
the n x n distances) comes from the k unshared rows and columns alone,
since a shared one has minimum 0. The bottleneck t_k of the k x k
unshared block is the value of one assignment (the shared copies paired
at 0), so lb <= t* <= t_k for the optimum t*, and when t_k == lb it is
the optimum, the float the dense search returns. When lb is not attained
(as in the example above), when nothing is shared (as between
independent clouds), or below _PAIR_FIRST_MIN_N roots, the dense search
over all n^2 distances runs.

Non-finite coordinates are rejected with InvalidParameterError for both
rhos: a NaN or infinite root has no distance to anything. The certificate
built on this distance is agcd.certify_distance.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvalidParameterError, LengthMismatchError
from .lagpoly import RootList, _complex_array

RHO_SUM = "sum"
RHO_MAX = "max"
RHOS = (RHO_SUM, RHO_MAX)  # every rho, in the order messages list them
Pairs = Tuple[np.ndarray, np.ndarray]  # indices into f and into g

# Both rhos pair shared coordinates first from this many roots up, and
# solve the dense problem below it. On certificate-shaped pairs, rho="max"
# pays for the sort and the slices from 64-128 roots up. rho="sum" crosses
# near 32 roots: dense costs 0.6 of the paired time at 4-16 roots, where
# most certificates are, and 2-4 times it at 64-127 (59 against 32 us at
# 64 roots, 2-core VM).
_PAIR_FIRST_MIN_N = 128


def _coords(obj) -> np.ndarray:
    if isinstance(obj, RootList):
        return obj.expand()
    v = _complex_array(obj, "root vectors")
    if v.ndim != 1:
        raise InvalidParameterError("root vectors must be 1-d sequences of numbers")
    return v


def _bottleneck(dist: np.ndarray) -> float:
    """Smallest t such that a perfect matching exists using edges <= t.

    No perfect matching beats lb, the largest of the row and column
    minima, and lb is an entry of dist; it is probed first and is the
    answer on well-separated data. Otherwise the binary search runs over
    the distinct entries above lb only (every entry where NaN makes lb
    NaN). A probe t is one linear assignment on the 0/1 costs of the
    entries beyond t, NaN ones included: on integer costs it is exact, and
    it picks none of them exactly when a perfect matching within t exists.
    """

    def feasible(t: float) -> bool:
        beyond = ~(dist <= t)
        rows, cols = linear_sum_assignment(beyond)
        return not beyond[rows, cols].any()

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


def _unshared(both: np.ndarray, n: int) -> Pairs:
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


def _max_distance(fv: np.ndarray, gv: np.ndarray, unshared: Optional[Pairs]) -> float:
    """n times the rho="max" distance of f and g, pairing the unshared
    rows and columns first where that provably loses nothing, else by the
    dense search (always where unshared is None).

    Every distance is the dense path's np.abs(fv[i] - gv[j]), so it is the
    same float; the caller's np.errstate applies.
    """
    if unshared is not None:
        rows, cols = unshared
        if not len(rows):
            return 0.0
        if len(rows) < len(fv):
            # the unshared rows and columns of the n x n distances
            f_rows = np.abs(fv[rows][:, None] - gv[None, :])
            g_cols = np.abs(fv[:, None] - gv[cols][None, :])
            lb = max(f_rows.min(axis=1).max(), g_cols.min(axis=0).max())
            paired = _bottleneck(f_rows[:, cols])
            if paired == lb:
                return paired
    return _bottleneck(np.abs(fv[:, None] - gv[None, :]))


def check_rho(rho) -> None:
    """Raise InvalidParameterError unless rho is one of RHOS."""
    if rho not in RHOS:
        names = " or ".join(map(repr, RHOS))
        raise InvalidParameterError("rho must be %s, got %r" % (names, rho))


def root_pseudometric(f, g, rho: str = RHO_SUM) -> float:
    """Distance between two equal-length root vectors.

    A root vector is a RootList (multiplicity expanded) or any complex
    sequence. Raises LengthMismatchError when the lengths differ: the
    pseudometric is only defined between polynomials of the same degree.
    Raises InvalidParameterError for an unknown rho, a root vector that is
    not a 1-d sequence of numbers, or a non-finite coordinate.
    """
    check_rho(rho)
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
    # one pair-first rule for both rhos
    unshared = _unshared(both, n) if n >= _PAIR_FIRST_MIN_N else None
    # a difference or a sum beyond the double range is inf
    with np.errstate(over="ignore"):
        if rho == RHO_MAX:
            return _max_distance(fv, gv, unshared) / n
        # the unshared block, the shared copies paired at 0, or all n x n
        rows, cols = (slice(None), slice(None)) if unshared is None else unshared
        dist = np.abs(np.subtract.outer(fv[rows], gv[cols]))
        try:
            r, c = linear_sum_assignment(dist)
        except ValueError:  # every assignment has an infinite distance
            return float("inf")
        per_row = np.zeros(n)
        per_row[rows] = dist[r, c]  # r is every row of the square block, in order
        return float(per_row.sum()) / n
