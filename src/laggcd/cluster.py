"""Collapse numerically split multiple roots into roots with multiplicities.

Two interchangeable strategies:

* a divide-and-conquer pass patterned on the classic closest-pair
  recursion, merging pairs within tolerance by multiplicity-weighted
  centroid. A sweep over the roots' real-part order first gives each root
  its partner index, the first later root within tolerance; the recursion
  then visits only the subtrees that hold a root and its partner, since
  nothing merges in the others, and
* a heuristic scan that looks for near-circular, near-equiangular
  clusters (the footprint a perturbed m-fold root leaves behind),
  preferring higher multiplicities.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidParameterError, check_sigma
from .lagpoly import _EPS, RootList, _centroid, _insert_ordered, _order, real_slack

# Heuristic acceptance constants; deliberate engineering defaults, pinned
# by tests.
ANGULAR_TOLERANCE = 0.35  # rad, per-gap deviation from 2*pi/m
RADIUS_BAND = 2.0  # max/min distance-to-centroid ratio
# Below this (relative) radius a candidate counts as exactly coincident.
COINCIDENT_RTOL = 1e-13

# Full subset enumeration is used for heuristic candidates up to this many
# points; beyond it, nearest-neighbour candidate sets keep the cost down.
ENUMERATION_LIMIT = 12
# A kd-tree row is re-ranked exactly and trusted only when its kept
# distances sit this far (relatively) below its bound (its last tree
# distance, or the query's reach, which is widened as far), and that bound
# (in the tree's scaled units) is too large for its square to underflow.
_KD_MARGIN = 1e-9
_KD_TINY = 1e-150


class Strategy(str, Enum):
    DNC = "dnc"
    HEURISTIC = "heuristic"


@dataclass
class ClusterParams:
    """cluster()'s options. Only the heuristic reads max_multiplicity, the
    largest cluster it forms; cluster_dnc takes sigma alone."""

    sigma: float
    max_multiplicity: int = 3
    strategy: Strategy = Strategy.DNC

    def __post_init__(self):
        try:
            self.strategy = Strategy(self.strategy)
        except ValueError as exc:  # "'x' is not a valid Strategy"
            raise InvalidParameterError(str(exc)) from None
        check_sigma(self.sigma)
        try:  # an integer and no bool, as RootList reads multiplicities
            if isinstance(self.max_multiplicity, bool):
                raise TypeError
            self.max_multiplicity = operator.index(self.max_multiplicity)
        except TypeError:
            raise InvalidParameterError(
                "max_multiplicity must be an integer, got %r" % (self.max_multiplicity,)
            ) from None
        if self.max_multiplicity < 1:
            raise InvalidParameterError("max_multiplicity must be >= 1")


Item = Tuple[complex, int]


def _merge_strip(points: List[Item], sigma: float) -> List[Item]:
    """Repeatedly merge the closest pair within sigma, weighted-centroid style.

    The points are taken in (imag, real) order. Merging is pairwise and
    closest-first; a merged point may merge again in a later round, but no
    transitive closure beyond that is attempted.
    """
    pts = sorted(points, key=lambda t: (t[0].imag, t[0].real))
    while len(pts) >= 2:
        best = None
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                try:
                    d = abs(pts[i][0] - pts[j][0])
                except OverflowError:  # beyond the double range
                    d = math.inf
                if d <= sigma and (best is None or d < best[0]):
                    best = (d, i, j)
        if best is None:
            break
        _, i, j = best
        (u, du), (v, dv) = pts[i], pts[j]
        merged = (_centroid(du * u + dv * v, du + dv), du + dv)
        pts = [p for k, p in enumerate(pts) if k not in (i, j)] + [merged]
        pts.sort(key=lambda t: (t[0].imag, t[0].real))
    return pts


def _partners(q: Sequence[Item], sigma: float, slack: float) -> List[int]:
    """first[a]: the index of the first later entry of q within sigma of
    q[a], by the exact test abs(r - s) <= sigma, or len(q) if there is none.

    q is in real-part order, so the scan from a stops at the first partner
    or at the first entry whose real part lies more than slack past r's.
    """
    n = len(q)
    pts = [r for r, _ in q]
    first = [n] * n
    for a in range(n - 1):
        r = pts[a]
        edge = r.real + slack
        b = a + 1
        while b < n:
            s = pts[b]
            if s.real > edge:
                break
            try:
                d = abs(r - s)
            except OverflowError:  # beyond the double range
                d = math.inf
            if d <= sigma:
                first[a] = b
                break
            b += 1
    return first


def _dnc(
    q: List[Item],
    first: List[int],
    lo: int,
    hi: int,
    sigma: float,
    slack: float,
) -> List[Item]:
    """The merge recursion on q[lo:hi], with its result sorted by _order,
    where some root has its partner in q[lo:hi] (min(first[lo:hi]) < hi).

    The plain recursion returns "rest + merged strip" at each node; this
    returns the stable sort of that list, so equal roots keep its order.
    A child with no partner inside it merges nothing: it is its slice of
    q, and it is not visited.
    """
    if hi - lo == 2:  # the pair is within sigma, so its real gap is too
        return _merge_strip(q[lo:hi], sigma)
    # split index per the 1-based floor((l+r)/2) convention
    mid = (lo + 1 + hi) // 2
    left = (
        _dnc(q, first, lo, mid, sigma, slack) if min(first[lo:mid]) < mid else q[lo:mid]
    )
    right = (
        _dnc(q, first, mid, hi, sigma, slack) if min(first[mid:hi]) < hi else q[mid:hi]
    )
    mid_x = q[mid - 1][0].real
    # both children are sorted, so the strip lies in left[i:] + right[:j],
    # the entries within slack of the split
    i, j, k = len(left), 0, len(right)
    while i and left[i - 1][0].real >= mid_x - slack:
        i -= 1
    while j < k and right[j][0].real <= mid_x + slack:
        j += 1
    window = left[i:] + right[:j]
    strip = [t for t in window if abs(t[0].real - mid_x) <= sigma]
    rest = [t for t in window if abs(t[0].real - mid_x) > sigma]
    merged = _merge_strip(strip, sigma) if len(strip) > 1 else strip
    # a strip that merged nothing leaves the window as it was: sorted, when
    # the children join in order (entries of equal keys share a real part,
    # so the strip holds all of them or none)
    if len(merged) == len(strip) and _order(left[-1]) <= _order(right[0]):
        return left + right
    middle = sorted(rest + merged, key=_order)
    # a centroid sorts after an equal root of right[j:] in the stable sort,
    # and rounding may carry one past either end of the window
    if middle and (
        (i and _order(left[i - 1]) > _order(middle[0]))
        or (j < k and _order(middle[-1]) >= _order(right[j]))
    ):
        return sorted(left[:i] + rest + right[j:] + merged, key=_order)
    return left[:i] + middle + right[j:]


def cluster_dnc(roots: RootList, sigma: float) -> RootList:
    """Divide-and-conquer clustering at tolerance sigma, in a single pass.

    This is the reference behaviour: a chain like [1, 1.5, 2] at sigma 0.5
    collapses only partially. A list with no two roots within sigma (an
    empty one included) comes back unchanged.

    One sweep over the real-part order first records each root's partner
    index: the first later root within sigma (_partners). A subtree of the
    recursion whose roots all have their partners outside it holds no two
    roots within sigma, so nothing in it merges, and it is not visited. A
    visited node keeps its result sorted and finds the strip next to the
    split. Both scans look at real parts within real_slack of their centre.
    """
    check_sigma(sigma)
    q = list(roots.entries)
    slack = real_slack(q, sigma)
    first = _partners(q, sigma, slack)
    if min(first, default=len(q)) == len(q):
        return roots
    return RootList._trusted(_dnc(q, first, 0, len(q), sigma, slack))


class _Nearest(NamedTuple):
    """A kd-tree query of some points' nearest neighbours (_nearest)."""

    index: np.ndarray  # the points' indices, ascending
    z: np.ndarray  # their values, and a 0 that stands for no neighbour
    near: np.ndarray  # each point's fetched neighbours by position, len(index) for none
    bound: np.ndarray  # each point's tree distance below which it fetched them all
    scale: int  # each coordinate lies below 2**scale in magnitude


def _unit_reach(scale: int, m: int, radius_cap: float) -> float:
    """The distance, in units of 2**scale, beyond which a point's (m - 1)-th
    nearest neighbour makes its m-point candidate one that _within_reach
    drops, for points whose coordinates lie below 2**scale in magnitude.

    Their moduli lie below top = 2**(scale + 1). A candidate holds its
    point and that neighbour, so its radius is at least half their
    distance, and numpy's radius in _within_reach lies within 8m units of
    roundoff times top of the exact one. So the reach is
    2 (limit + 8m eps top), with _within_reach's own limit at top, widened
    by a margin against the tree's rounding. The gate keeps a candidate
    whose radius overflows, which takes sums of up to m moduli of top, so
    the reach is inf where those can, and where it lies beyond the double
    range.
    """
    try:
        top = math.ldexp(2.0, scale)
        reach = 2 * (_radius_limit(radius_cap, m, top) + 8 * m * _EPS * top)
        if 2 * m * top < math.inf:
            return math.ldexp(reach, -scale) * (1 + _KD_MARGIN)
    except OverflowError:
        pass
    return math.inf


def _nearest(points, active, m, radius_cap) -> _Nearest:
    """One cKDTree query that serves the candidates of sizes m and below:
    up to m + 1 neighbours of every active point, within the reach of size
    m at radius_cap, the largest cap of those sizes (all of them where that
    reach is not finite). points is a complex sequence or array."""
    index = np.array(active)
    z = np.append(np.asarray(points, dtype=complex)[index], 0)
    xy = np.column_stack([z.real, z.imag])[:-1]
    n = len(xy)
    k = min(m + 1, n)
    # the tree works on the points scaled by a power of two into the unit
    # square, so that its squared distances cannot overflow
    scale = int(np.frexp(np.abs(xy).max())[1])
    unit = np.ldexp(xy, -scale)
    upper = _unit_reach(scale, m, radius_cap)
    tree_dist, near = cKDTree(unit).query(unit, k=k, distance_upper_bound=upper)
    # a point fetched every neighbour nearer than its last tree distance,
    # or than the reach where it fetched fewer than k; with k = n, all
    full = near[:, -1] < n
    bound = np.where(full, math.inf if k == n else tree_dist[:, -1], upper)
    near[near == np.arange(n)[:, None]] = n  # a point is not its own neighbour
    return _Nearest(index, z, near, bound, scale)


def _knn_candidates(points, active, m, radius_cap=math.inf, nearest=None):
    """Each active point with its m - 1 nearest active neighbours, ranked
    by (abs(points[j] - points[i]), j) as a sort over all of them would,
    for every point whose candidate _within_reach may keep at radius_cap.

    The neighbours come from nearest, a query of these active points or of
    more (made here if none is given). A point that fetched fewer than
    m - 1 active neighbours and every point within the reach of size m
    (_unit_reach) gives no candidate. Where a point fetched fewer because
    its neighbours have left the active set since the query, and others
    may lie within the reach, the query is made again over the active
    points. The rest are re-ranked exactly with np.hypot, which equals
    Python's abs(complex) bit for bit (np.abs on complex does not). The
    tree's distances round differently, so a row is trusted only if its
    kept distances lie below its bound by a clear margin. Other rows, from
    ties and coincident points, are ranked over all active points.
    """
    if nearest is None:
        nearest = _nearest(points, active, m, radius_cap)
    index, z, near, bound, scale = nearest
    n = len(index)
    live = np.zeros(n + 1, dtype=bool)  # the last entry stands for no neighbour
    live[np.searchsorted(index, active)] = True
    fetched = live[near]
    short = live[:n] & (fetched.sum(axis=1) < m - 1)
    if (short & (bound < _unit_reach(scale, m, radius_cap))).any():
        # neighbours within the reach have left since the query
        return _knn_candidates(points, active, m, radius_cap)
    rows = np.flatnonzero(live[:n] & ~short)
    if not len(rows):
        return []
    near, bound, fetched = near[rows], bound[rows], fetched[rows]
    # a distance, or a bound scaled back, beyond the double range is inf
    with np.errstate(over="ignore"):
        dz = z[near] - z[rows, None]
        dist = np.where(fetched, np.hypot(dz.real, dz.imag), np.inf)
        order = np.lexsort((np.where(fetched, near, n), dist))[:, : m - 1]
        kept = np.take_along_axis(near, order, axis=1)
        last = np.take_along_axis(dist, order[:, -1:], axis=1)[:, 0]
        trusted = (last < np.ldexp(bound, scale) * (1 - _KD_MARGIN)) & (bound > _KD_TINY)
        alive = np.flatnonzero(live)
        for r in np.flatnonzero(~trusted):
            dz = z[alive] - z[rows[r]]
            rest = alive[np.argsort(np.hypot(dz.real, dz.imag), kind="stable")]
            kept[r] = rest[rest != rows[r]][: m - 1]
    cands = np.sort(np.column_stack([index[rows], index[kept]]), axis=1)
    return sorted(set(map(tuple, cands.tolist())))


def _modulus(z: complex) -> float:
    """abs(z), or inf where it lies beyond the double range."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _score_candidate(points, cand, m, radius_cap):
    """Return an orderable score tuple if the candidate passes, else None."""
    pts = [points[i] for i in cand]
    centroid = sum(pts) / m
    dists = [_modulus(p - centroid) for p in pts]
    scale = max(1.0, _modulus(centroid))
    rmax = max(dists)
    if rmax <= COINCIDENT_RTOL * scale:
        return (0.0, 1.0, 0.0, cand)  # exactly coincident points
    if rmax > radius_cap:
        return None
    rmin = min(dists)
    # radii all beyond the double range: their ratio inf / inf reads as inf
    if rmin <= COINCIDENT_RTOL * scale or rmin == math.inf or rmax / rmin > RADIUS_BAND:
        return None
    angles = sorted(math.atan2((p - centroid).imag, (p - centroid).real) for p in pts)
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    gaps.append(2 * math.pi - (angles[-1] - angles[0]))
    target = 2 * math.pi / m
    gap_dev = max(abs(g - target) for g in gaps)
    if m > 2 and gap_dev > ANGULAR_TOLERANCE:
        return None
    if m == 2:
        gap_dev = 0.0  # two points are always diametrically opposite
    return (gap_dev, rmax / rmin, rmax, cand)


def _radius_limit(radius_cap, m, top):
    """The radius above which _within_reach drops an m-point candidate
    whose points have moduli at most top."""
    return max(radius_cap, COINCIDENT_RTOL * max(1.0, top)) + 8 * m * _EPS * top


def _within_reach(points, cands, m, radius_cap):
    """The candidates that _score_candidate may accept: every candidate but
    those whose radius (the largest distance of its points from their
    centroid) clearly exceeds both radius_cap and the coincidence bound.

    The radius is taken in numpy with the scorer's operations in its order
    (a running sum, then np.hypot), so that it overflows where the
    scorer's does; a radius that is not finite keeps its candidate.
    Whatever the rounding, numpy's radius and the scorer's differ by at
    most (3m + 12) units of roundoff times top, the largest modulus of a
    candidate's point, so a margin of 16m such units keeps every candidate
    the scorer could accept. Since the scorer alone decides the rest, the
    accepted clusters are those of scoring every candidate. points is a
    complex sequence or array.
    """
    if not cands:
        return []
    z = np.asarray(points, dtype=complex)[np.array(cands, dtype=np.intp)]
    x, y = z.real, z.imag
    with np.errstate(all="ignore"):  # overflow keeps the candidate, below
        top = float(np.hypot(x, y).max())
        limit = _radius_limit(radius_cap, m, top)
        sx, sy = x[:, 0].copy(), y[:, 0].copy()
        for k in range(1, m):
            sx += x[:, k]
            sy += y[:, k]
        dx, dy = x - (sx / m)[:, None], y - (sy / m)[:, None]
        radius = np.hypot(dx, dy).max(axis=1)
        far = (radius > limit) & (radius < np.inf)
    return [cands[i] for i in np.flatnonzero(~far).tolist()]


def _coincident_runs(points) -> List[List[int]]:
    """Indices of each value that occurs more than once, ascending.

    points, a complex sequence or array, is in a RootList's order, so that
    equal values are adjacent.
    """
    z = np.asarray(points, dtype=complex)
    # +1 where a run of equal values starts, -1 after its last index
    edge = np.diff(np.concatenate(([0], z[1:] == z[:-1], [0])).astype(np.int8))
    starts, stops = np.flatnonzero(edge == 1), np.flatnonzero(edge == -1) + 1
    return [list(range(a, b)) for a, b in zip(starts.tolist(), stops.tolist())]


def cluster_heuristic(roots: RootList, params: ClusterParams) -> RootList:
    """Distance/symmetry clustering with a bias toward higher multiplicity.

    Input multiplicities are expanded into coincident points, so a root
    carrying multiplicity d behaves like d coincident simple roots.
    Candidate clusters of size m are scanned from max_multiplicity (at most
    the point count) down to 2; the most symmetric passing candidates win.
    Before the scan at size m, each value held by c >= m active points
    yields floor(c / m) clusters of its lowest indices: exactly coincident
    candidates score best of all, and the nearest-neighbour candidates
    cannot find them, since every distance among the copies ties. Every
    candidate list first passes _within_reach, which drops only candidates
    that the scorer rejects. Above ENUMERATION_LIMIT points the candidates
    come from one kd-tree query (_nearest), made at the first size that
    needs it and bounded by the farthest neighbour that can pass that gate
    at any size left. Each centroid is checked where it is computed.
    """
    z = roots.expand()
    points = z.tolist()
    active = set(range(len(points)))
    accepted: List[Item] = []

    def accept(cand, m):
        accepted.append((_centroid(sum(points[i] for i in cand), m), m))
        active.difference_update(cand)

    runs = _coincident_runs(z)
    nearest = None
    for m in range(min(params.max_multiplicity, len(points)), 1, -1):
        if len(active) < m:
            continue
        for run in runs:
            if len(run) >= m:
                run[:] = [i for i in run if i in active]
                whole = len(run) - len(run) % m
                for k in range(0, whole, m):
                    accept(run[k : k + m], m)
                del run[:whole]
        if len(active) < m:
            continue
        act = sorted(active)
        radius_cap = params.sigma ** (1.0 / m)
        if len(act) <= ENUMERATION_LIMIT:
            cands = list(combinations(act, m))
        else:
            if nearest is None:  # one query serves every size from m down
                nearest = _nearest(z, act, m, max(radius_cap, params.sigma**0.5))
            cands = _knn_candidates(points, act, m, radius_cap, nearest)
        scored = []
        for cand in _within_reach(z, cands, m, radius_cap):
            score = _score_candidate(points, cand, m, radius_cap)
            if score is not None:
                scored.append(score)
        scored.sort()
        for _, _, _, cand in scored:
            if all(i in active for i in cand):
                accept(cand, m)
    # the singles are in order; the clusters go where a stable sort of
    # accepted + singles places them
    out = [(points[i], 1) for i in sorted(active)]
    _insert_ordered(out, sorted(accepted, key=_order))
    return RootList._trusted(out)


def cluster(roots: RootList, params: ClusterParams) -> RootList:
    """Dispatch on params.strategy."""
    if params.strategy is Strategy.DNC:
        return cluster_dnc(roots, params.sigma)
    return cluster_heuristic(roots, params)
