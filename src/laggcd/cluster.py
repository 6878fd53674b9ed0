"""Collapse numerically split multiple roots into roots with multiplicities.

Two interchangeable strategies:

* a divide-and-conquer pass patterned on the classic closest-pair
  recursion, merging pairs within tolerance by multiplicity-weighted
  centroid, and
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
from typing import List, Tuple

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidParameterError
from .lagpoly import RootList

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
# distances sit this far (relatively) below its last tree distance, and
# that distance (in the tree's scaled units) is too large for its square
# to underflow.
_KD_MARGIN = 1e-9
_KD_TINY = 1e-150


class Strategy(str, Enum):
    DNC = "dnc"
    HEURISTIC = "heuristic"


@dataclass
class ClusterParams:
    sigma: float
    max_multiplicity: int = 3
    strategy: Strategy = Strategy.DNC

    def __post_init__(self):
        try:
            self.strategy = Strategy(self.strategy)
        except ValueError as exc:  # "'x' is not a valid Strategy"
            raise InvalidParameterError(str(exc)) from None
        # written as `not x >= ...` so that NaN fails too
        if not self.sigma >= 0:
            raise InvalidParameterError("sigma must be >= 0")
        try:  # an integer, as RootList reads multiplicities
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
                d = abs(pts[i][0] - pts[j][0])
                if d <= sigma and (best is None or d < best[0]):
                    best = (d, i, j)
        if best is None:
            break
        _, i, j = best
        (u, du), (v, dv) = pts[i], pts[j]
        merged = ((du * u + dv * v) / (du + dv), du + dv)
        pts = [p for k, p in enumerate(pts) if k not in (i, j)] + [merged]
        pts.sort(key=lambda t: (t[0].imag, t[0].real))
    return pts


def _dnc(q: List[Item], lo: int, hi: int, sigma: float) -> List[Item]:
    if hi - lo == 1:
        return [q[lo]]
    # split index per the 1-based floor((l+r)/2) convention
    mid = (lo + 1 + hi) // 2
    both = _dnc(q, lo, mid, sigma) + _dnc(q, mid, hi, sigma)
    mid_x = q[mid - 1][0].real
    # only the strip's order matters, and a stable sort commutes with
    # this filter, so the strip alone is sorted (in _merge_strip)
    strip = [t for t in both if abs(t[0].real - mid_x) <= sigma]
    rest = [t for t in both if abs(t[0].real - mid_x) > sigma]
    return rest + _merge_strip(strip, sigma)


def cluster_dnc(roots: RootList, sigma: float) -> RootList:
    """Divide-and-conquer clustering at tolerance sigma, in a single pass.

    This is the reference behaviour: a chain like [1, 1.5, 2] at sigma 0.5
    collapses only partially. An empty list comes back unchanged.
    """
    if not sigma >= 0:
        raise InvalidParameterError("sigma must be >= 0")
    if not roots:
        return roots
    return RootList(_dnc(roots.entries, 0, len(roots), sigma))


def _knn_candidates(points, active, m):
    """Each active point with its m - 1 nearest active neighbours, ranked
    by (abs(points[j] - points[i]), j) as a sort over all of them would.

    The ranking comes from a kd-tree (see _nearest_rows).
    """
    z = np.array([points[i] for i in active], dtype=complex)
    xy = np.column_stack([z.real, z.imag])
    act = np.array(active)
    rows = [act[row].tolist() for row in _nearest_rows(z, xy, m)]
    return sorted({tuple(sorted([i] + row)) for i, row in zip(active, rows)})


def _nearest_rows(z, xy, m):
    """Positions of the m - 1 nearest other points of each point of z,
    by (distance, position); xy holds z's finite coordinates.

    One cKDTree query fetches m + 1 neighbours of every point; they are
    re-ranked exactly with np.hypot, which equals Python's abs(complex) bit
    for bit (np.abs on complex does not). The tree's distances round
    differently, so a row is trusted only if its kept distances lie below
    its last tree distance (no unfetched point is nearer) by a clear
    margin. Other rows, from ties and coincident points, are ranked over
    all points.
    """
    n = len(z)
    k = min(m + 1, n)
    # the tree works on the points scaled by a power of two into the unit
    # square, so that its squared distances cannot overflow
    scale = np.frexp(np.abs(xy).max())[1]
    unit = np.ldexp(xy, -scale)
    tree_dist, near = cKDTree(unit).query(unit, k=k)
    own = near == np.arange(n)[:, None]
    dz = z[near] - z[:, None]
    dist = np.where(own, np.inf, np.hypot(dz.real, dz.imag))
    order = np.lexsort((np.where(own, n, near), dist))[:, : m - 1]
    kept = np.take_along_axis(near, order, axis=1)
    last = np.take_along_axis(dist, order[:, -1:], axis=1)[:, 0]
    bound = tree_dist[:, -1]
    trusted = (k == n) | (
        (last < np.ldexp(bound, scale) * (1 - _KD_MARGIN)) & (bound > _KD_TINY)
    )
    rows = list(kept)
    for a in np.flatnonzero(~trusted):
        dz = z - z[a]
        rest = np.argsort(np.hypot(dz.real, dz.imag), kind="stable")
        rows[a] = rest[rest != a][: m - 1]
    return rows


def _score_candidate(points, cand, m, radius_cap):
    """Return an orderable score tuple if the candidate passes, else None."""
    pts = [points[i] for i in cand]
    centroid = sum(pts) / m
    dists = [abs(p - centroid) for p in pts]
    rmax = max(dists)
    scale = max(1.0, abs(centroid))
    if rmax <= COINCIDENT_RTOL * scale:
        return (0.0, 1.0, 0.0, cand)  # exactly coincident points
    if rmax > radius_cap:
        return None
    rmin = min(dists)
    if rmin <= COINCIDENT_RTOL * scale or rmax / rmin > RADIUS_BAND:
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


def _coincident_runs(points) -> List[List[int]]:
    """Indices of each value that occurs more than once, ascending."""
    runs = {}
    for i, p in enumerate(points):
        runs.setdefault(p, []).append(i)
    return [run for run in runs.values() if len(run) > 1]


def cluster_heuristic(roots: RootList, params: ClusterParams) -> RootList:
    """Distance/symmetry clustering with a bias toward higher multiplicity.

    Input multiplicities are expanded into coincident points, so a root
    carrying multiplicity d behaves like d coincident simple roots.
    Candidate clusters of size m are scanned from max_multiplicity (at most
    the point count) down to 2; the most symmetric passing candidates win.
    Before the scan at size m, each value held by c >= m active points
    yields floor(c / m) clusters of its lowest indices: exactly coincident
    candidates score best of all, and the nearest-neighbour candidates
    cannot find them, since every distance among the copies ties.
    """
    points = [r for r, mult in roots for _ in range(mult)]
    active = set(range(len(points)))
    accepted: List[Item] = []

    def accept(cand, m):
        centroid = sum(points[i] for i in cand) / m
        accepted.append((centroid, m))
        active.difference_update(cand)

    runs = _coincident_runs(points)
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
        if len(act) <= ENUMERATION_LIMIT:
            cands = list(combinations(act, m))
        else:
            cands = _knn_candidates(points, act, m)
        radius_cap = params.sigma ** (1.0 / m)
        scored = []
        for cand in cands:
            score = _score_candidate(points, cand, m, radius_cap)
            if score is not None:
                scored.append(score)
        scored.sort(key=lambda s: (s[0], s[1], s[2], s[3]))
        for _, _, _, cand in scored:
            if all(i in active for i in cand):
                accept(cand, m)
    accepted.extend((points[i], 1) for i in sorted(active))
    return RootList(accepted)


def cluster(roots: RootList, params: ClusterParams) -> RootList:
    """Dispatch on params.strategy."""
    if params.strategy is Strategy.DNC:
        return cluster_dnc(roots, params.sigma)
    return cluster_heuristic(roots, params)
