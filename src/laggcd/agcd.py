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
from .errors import (
    DegenerateInputError, InvalidParameterError, ZeroPolynomialError, check_sigma
)
from .lagpoly import (
    LagrangePoly, RootList, _centroid, _insert_ordered, _order, from_roots
)
from .matching import MatchGraph, Matching, build_graph, exact_mwm, greedy_mwm
from .metric import RHO_SUM, check_rho, root_pseudometric
from .rootfind import RootfindReport, roots as find_roots

MATCHER_GREEDY = "greedy"  # greedy_mwm
MATCHER_EXACT = "exact"  # exact_mwm
MATCHERS = (MATCHER_GREEDY, MATCHER_EXACT)  # in the order messages list them


@dataclass
class AgcdResult:
    """What approximate_gcd found, in root form, with its certificates.

    The inputs are the reports' polys, p_report.poly and q_report.poly.
    The output polynomials gcd_poly, p_tilde_poly and q_tilde_poly and the
    cofactors cofactor_p and cofactor_q are computed on first read from
    those inputs and the graph and matching, then cached. An error from
    building one (such as values that overflow) is raised at that read;
    p_tilde_poly and q_tilde_poly reuse P's and Q's checked nodes. The
    warnings come in approximate_gcd's order, the inputs' node notes first.

    gcd_poly lives on gcd_degree + 1 Chebyshev points of the real interval
    P's and Q's nodes span, widened to length 1 if narrower. It is accurate
    relative to its size on that interval, not at each point: it is not
    exactly zero at its roots, and loses relative accuracy next to a tight
    cluster of them, where it is tiny.
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
        return from_roots(self.p_tilde_roots, self.p_report.poly)

    @cached_property
    def q_tilde_poly(self) -> LagrangePoly:
        return from_roots(self.q_tilde_roots, self.q_report.poly)

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
    inputs are coprime at this tolerance. The edges are taken as build_graph
    makes them, with int weights of at least 1; only the centres are
    checked, for finiteness, where they are computed, and then sorted.
    """
    entries = []
    for e in m.edges:
        a, da = g.left.entries[e.left]
        b, db = g.right.entries[e.right]
        entries.append((_centroid(da * a + db * b, da + db), e.weight))
    return RootList._trusted(sorted(entries, key=_order))


def reconstruct(
    clustered: RootList,
    m: Matching,
    side: str,
    gcd: RootList,
) -> RootList:
    """Nearby polynomial for one side: GCD roots plus this side's clusters,
    with matched clusters reduced by the matched weight.

    side is "left" (P) or "right" (Q), selecting which edge endpoint indexes
    into `clustered`. The entries come from RootLists and the matching's
    int weights, so they are not checked again. The leftovers are in order,
    and the GCD roots go where a stable sort of gcd + leftovers places them.
    """
    if side not in ("left", "right"):
        raise InvalidParameterError("side must be 'left' or 'right'")
    weight_at = {
        (e.left if side == "left" else e.right): e.weight for e in m.edges
    }
    out = list(clustered.entries)
    # from the end, so that a deletion moves no index still to come; an
    # edge end that indexes no entry of clustered is ignored
    for idx in sorted(filter(range(len(out)).__contains__, weight_at), reverse=True):
        r, d = out[idx]
        if d > weight_at[idx]:
            out[idx] = (r, d - weight_at[idx])
        else:
            del out[idx]
    _insert_ordered(out, gcd.entries)
    return RootList._trusted(out)


def certify_distance(
    p: Union[RootList, Sequence[complex]],
    pt: RootList,
    sigma: float,
    rho: str = RHO_SUM,
) -> Tuple[float, bool]:
    """Distance from the root vector p (a RootList or complex sequence) to
    the reconstructed pt, and whether it is within sigma; raises
    InvalidParameterError unless sigma is a real number >= 0."""
    check_sigma(sigma)
    d = root_pseudometric(p, pt, rho=rho)
    return d, d <= sigma


def _gcd_sample_nodes(gcd: RootList, p: LagrangePoly, q: LagrangePoly) -> np.ndarray:
    """gcd_degree + 1 first-kind Chebyshev points, ascending, of the real
    interval P's and Q's nodes span, widened to length 1 if narrower."""
    n = gcd.total_multiplicity() + 1
    reals = np.concatenate([p.nodes.real, q.nodes.real])
    lo, hi = float(reals.min()), float(reals.max())
    mid, half = 0.5 * (lo + hi), max(0.5 * (hi - lo), 0.5)
    # sin of symmetric angles: exactly symmetric points, mid itself for odd n
    return mid + half * np.sin(np.pi * (2 * np.arange(n) - n + 1) / (2 * n))


def _side_note(side: str, topic: str, text: Optional[str]) -> List[str]:
    """The line "<side> <topic>: <text>" of a run's warnings, in a list,
    or no line without a text."""
    return ["%s %s: %s" % (side, topic, text)] if text else []


def approximate_gcd(
    p: LagrangePoly,
    q: LagrangePoly,
    params: ClusterParams,
    matcher: str = MATCHER_GREEDY,
    rho: str = RHO_SUM,
    sigma: Optional[float] = None,
) -> AgcdResult:
    """Run the full pipeline on a pair of sampled polynomials.

    params.sigma drives clustering; sigma (default params.sigma) bounds
    both the graph's edges and the distance certificate. The clustered
    roots are the graph's left (P) and right (Q) sides. Diagnostics go
    only to AgcdResult.warnings: each input's LagrangePoly.note, each failed
    certify_distance with its distance, then each side's rootfinding note
    and, where its inclusion disks are known, the note on those wider than
    sigma (RootfindReport.wide_disk_note).
    A side whose rootfinding keeps no root raises DegenerateInputError.
    No output polynomial is built here; AgcdResult builds them on read.
    """
    for poly, name in ((p, "P"), (q, "Q")):
        if poly.peak == 0.0:
            raise ZeroPolynomialError("%s is identically zero; GCD undefined" % name)
    if matcher not in MATCHERS:
        names = " or ".join(map(repr, MATCHERS))
        raise InvalidParameterError("matcher must be %s" % names)
    check_rho(rho)
    if sigma is not None:
        check_sigma(sigma)

    p_report = find_roots(p)
    q_report = find_roots(q)
    for name, rep in (("P", p_report), ("Q", q_report)):
        if len(rep.roots) == 0:
            raise DegenerateInputError(
                "%s rootfinding found no roots: %s" % (name, rep.backward_note)
            )
    # the reports' roots are finite and in a RootList's order already
    p_roots = RootList._trusted([(r, 1) for r in p_report.roots.tolist()])
    q_roots = RootList._trusted([(r, 1) for r in q_report.roots.tolist()])
    p_clustered = cluster(p_roots, params)
    q_clustered = cluster(q_roots, params)

    sigma = params.sigma if sigma is None else sigma
    graph = build_graph(p_clustered, q_clustered, sigma)
    match = exact_mwm(graph) if matcher == MATCHER_EXACT else greedy_mwm(graph)
    gcd = assemble_gcd(match, graph)
    p_tilde = reconstruct(p_clustered, match, "left", gcd)
    q_tilde = reconstruct(q_clustered, match, "right", gcd)

    # exact integer bookkeeping; violations would be implementation bugs
    assert gcd.total_multiplicity() == match.total_weight
    assert p_tilde.total_multiplicity() == len(p_report.roots)
    assert q_tilde.total_multiplicity() == len(q_report.roots)

    dist_p, cert_p = certify_distance(p_report.roots, p_tilde, sigma, rho=rho)
    dist_q, cert_q = certify_distance(q_report.roots, q_tilde, sigma, rho=rho)
    notes = _side_note("P", "nodes", p.note) + _side_note("Q", "nodes", q.note)
    notes += [
        "distance certificate failed for %s: d=%.6g > sigma=%.6g" % (name, d, sigma)
        for name, ok, d in (("P", cert_p, dist_p), ("Q", cert_q, dist_q))
        if not ok
    ]
    for name, rep in (("P", p_report), ("Q", q_report)):
        notes += _side_note(name, "rootfinding", rep.backward_note)
        notes += _side_note(name, "rootfinding", rep.wide_disk_note(sigma))

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
        warnings=notes,
    )
