"""Approximate-GCD pipeline: rootfind, cluster, match, reconstruct, certify.

The GCD gets one root per matched edge, placed at the multiplicity-weighted
average of the edge's endpoints, with the edge weight as multiplicity. The
nearby polynomials keep their unmatched clusters plus leftover multiplicity
of matched ones, so degrees are preserved exactly. Everything stays in root
or node/value form; results are monic by convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .cluster import ClusterParams, cluster
from .errors import DegenerateInputError, InvalidParameterError, ZeroPolynomialError
from .lagpoly import LagrangePoly, RootList, from_roots
from .matching import MatchGraph, Matching, build_graph, exact_mwm, greedy_mwm
from .metric import RHO_SUM, root_pseudometric
from .rootfind import RootfindReport, roots as find_roots

# Relative tolerance used when deduplicating candidate sample nodes for the
# materialized GCD; kept above the near-duplicate warning threshold so the
# chosen nodes never trigger conditioning complaints downstream.
NODE_DEDUP_RTOL = 1e-7


@dataclass
class AgcdResult:
    """What approximate_gcd found, in root form, with its certificates.

    The inputs are the reports' polys, p_report.poly and q_report.poly.
    The output polynomials gcd_poly, p_tilde_poly and q_tilde_poly and the
    cofactors cofactor_p and cofactor_q are computed on first read from
    those inputs and the graph and matching, then cached. An error from
    building one (such as values that overflow) is raised at that read,
    and reading p_tilde_poly or q_tilde_poly resamples on P's or Q's
    nodes, so it can emit a NearDuplicateNodesWarning.
    """

    gcd_roots: RootList
    p_tilde_roots: RootList
    q_tilde_roots: RootList
    graph: MatchGraph
    matching: Matching
    dist_p: float
    dist_q: float
    cert_p: bool
    cert_q: bool
    p_report: RootfindReport
    q_report: RootfindReport
    warnings: List[str] = field(default_factory=list)

    @property
    def gcd_degree(self) -> int:
        return self.gcd_roots.total_multiplicity()

    @cached_property
    def gcd_poly(self) -> LagrangePoly:
        gcd, p, q = self.gcd_roots, self.p_report.poly, self.q_report.poly
        return from_roots(gcd, _gcd_sample_nodes(gcd, p, q))

    @cached_property
    def p_tilde_poly(self) -> LagrangePoly:
        return from_roots(self.p_tilde_roots, self.p_report.poly.nodes)

    @cached_property
    def q_tilde_poly(self) -> LagrangePoly:
        return from_roots(self.q_tilde_roots, self.q_report.poly.nodes)

    # the cofactors are the leftovers alone: reconstruct without the GCD
    @cached_property
    def cofactor_p(self) -> RootList:
        return reconstruct(self.graph.left, self.matching, "left", RootList())

    @cached_property
    def cofactor_q(self) -> RootList:
        return reconstruct(self.graph.right, self.matching, "right", RootList())


def assemble_gcd(m: Matching, g: MatchGraph) -> RootList:
    """One GCD root per matched edge, at the multiplicity-weighted average
    of the endpoints, carrying the edge weight as multiplicity.

    An empty matching yields an empty RootList: the degree-0 GCD, i.e. the
    inputs are coprime at this tolerance.
    """
    entries = []
    for e in m.edges:
        a, da = g.left.entries[e.left]
        b, db = g.right.entries[e.right]
        center = (da * a + db * b) / (da + db)
        entries.append((center, e.weight))
    return RootList(entries)


def reconstruct(
    clustered: RootList,
    m: Matching,
    side: str,
    gcd: RootList,
) -> RootList:
    """Nearby polynomial for one side: GCD roots plus this side's clusters,
    with matched clusters reduced by the matched weight.

    side is "left" (P) or "right" (Q), selecting which edge endpoint indexes
    into `clustered`.
    """
    if side not in ("left", "right"):
        raise InvalidParameterError("side must be 'left' or 'right'")
    weight_at = {
        (e.left if side == "left" else e.right): e.weight for e in m.edges
    }
    entries = list(gcd.entries)
    for idx, (r, d) in enumerate(clustered):
        leftover = d - weight_at.get(idx, 0)
        if leftover > 0:
            entries.append((r, leftover))
    return RootList(entries)


def certify_distance(
    p: Union[RootList, Sequence[complex]],
    pt: RootList,
    sigma: float,
    rho: str = RHO_SUM,
) -> Tuple[float, bool]:
    """Distance from the root vector p (a RootList or complex sequence) to
    the reconstructed pt, and whether it is within sigma; raises
    InvalidParameterError unless sigma >= 0."""
    if not sigma >= 0:  # also rejects nan
        raise InvalidParameterError("sigma must be >= 0")
    d = root_pseudometric(p, pt, rho=rho)
    return d, d <= sigma


def _gcd_sample_nodes(gcd: RootList, p: LagrangePoly, q: LagrangePoly) -> np.ndarray:
    """Distinct nodes to carry the materialized GCD: the cluster centers
    plus 0, padded with Chebyshev points of the combined node hull."""
    needed = gcd.total_multiplicity() + 1
    reals = np.concatenate([p.nodes.real, q.nodes.real])
    lo, hi = float(reals.min()), float(reals.max())
    if hi - lo < 1.0:
        mid = 0.5 * (lo + hi)
        lo, hi = mid - 0.5, mid + 0.5
    tol = NODE_DEDUP_RTOL * max(1.0, hi - lo)

    chosen: List[complex] = []

    def push(z: complex) -> None:
        if all(abs(z - c) > tol for c in chosen):
            chosen.append(z)

    for r, _ in gcd:
        push(complex(r))
    push(0.0)
    k = 2 * needed + 2
    while len(chosen) < needed:
        cheb = (lo + hi) / 2 + (hi - lo) / 2 * np.cos(
            (2 * np.arange(1, k + 1) - 1) * np.pi / (2 * k)
        )
        for c in cheb:
            if len(chosen) >= needed:
                break
            push(complex(c))
        k = 2 * k + 1  # denser grid if collisions exhausted this one
    return np.array(sorted(chosen[:needed], key=lambda z: (z.real, z.imag)))


def approximate_gcd(
    p: LagrangePoly,
    q: LagrangePoly,
    params: ClusterParams,
    matcher: str = "greedy",
    rho: str = "sum",
    sigma: Optional[float] = None,
) -> AgcdResult:
    """Run the full pipeline on a pair of sampled polynomials.

    params.sigma drives clustering; sigma (default params.sigma) bounds
    both the graph's edges and the distance certificate. The clustered
    roots are the graph's left (P) and right (Q) sides. Diagnostics go
    only to AgcdResult.warnings: each failed certify_distance with its
    distance, then each side's rootfinding note. A side whose rootfinding
    keeps no root raises DegenerateInputError. No output polynomial is
    built here; see AgcdResult for the fields computed on first read.
    """
    for poly, name in ((p, "P"), (q, "Q")):
        if np.max(np.abs(poly.values)) == 0.0:
            raise ZeroPolynomialError("%s is identically zero; GCD undefined" % name)
    if matcher not in ("greedy", "exact"):
        raise InvalidParameterError("matcher must be 'greedy' or 'exact'")

    p_report = find_roots(p)
    q_report = find_roots(q)
    for name, rep in (("P", p_report), ("Q", q_report)):
        if len(rep.roots) == 0:
            raise DegenerateInputError(
                "%s rootfinding found no roots: %s" % (name, rep.backward_note)
            )
    p_roots = RootList((r, 1) for r in p_report.roots)
    q_roots = RootList((r, 1) for r in q_report.roots)
    p_clustered = cluster(p_roots, params)
    q_clustered = cluster(q_roots, params)

    sigma = params.sigma if sigma is None else sigma
    graph = build_graph(p_clustered, q_clustered, sigma)
    match = exact_mwm(graph) if matcher == "exact" else greedy_mwm(graph)
    gcd = assemble_gcd(match, graph)
    p_tilde = reconstruct(p_clustered, match, "left", gcd)
    q_tilde = reconstruct(q_clustered, match, "right", gcd)

    # exact integer bookkeeping; violations would be implementation bugs
    assert gcd.total_multiplicity() == match.total_weight
    assert p_tilde.total_multiplicity() == len(p_report.roots)
    assert q_tilde.total_multiplicity() == len(q_report.roots)

    dist_p, cert_p = certify_distance(p_report.roots, p_tilde, sigma, rho=rho)
    dist_q, cert_q = certify_distance(q_report.roots, q_tilde, sigma, rho=rho)
    warns = [
        "distance certificate failed for %s: d=%.6g > sigma=%.6g" % (name, d, sigma)
        for name, ok, d in (("P", cert_p, dist_p), ("Q", cert_q, dist_q))
        if not ok
    ]
    for name, rep in (("P", p_report), ("Q", q_report)):
        if rep.backward_note:
            warns.append("%s rootfinding: %s" % (name, rep.backward_note))

    return AgcdResult(
        gcd_roots=gcd,
        p_tilde_roots=p_tilde,
        q_tilde_roots=q_tilde,
        graph=graph,
        matching=match,
        dist_p=dist_p,
        dist_q=dist_q,
        cert_p=cert_p,
        cert_q=cert_q,
        p_report=p_report,
        q_report=q_report,
        warnings=warns,
    )
