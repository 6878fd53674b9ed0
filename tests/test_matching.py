"""Bipartite graph construction, greedy matching, exact oracle."""

from itertools import combinations

import pytest

from laggcd import (
    Matching,
    RootList,
    build_graph,
    exact_mwm,
    greedy_mwm,
)
from laggcd.matching import Edge, MatchGraph


def brute_force_mwm_weight(g):
    """Oracle for the oracle: enumerate all vertex-disjoint edge subsets."""
    best = 0
    edges = list(g.edges)
    for k in range(1, len(edges) + 1):
        for combo in combinations(edges, k):
            ls = [e.left for e in combo]
            rs = [e.right for e in combo]
            if len(set(ls)) == len(ls) and len(set(rs)) == len(rs):
                best = max(best, sum(e.weight for e in combo))
    return best


def index_graph(nl, nr, weighted_edges):
    """Graph over integer-positioned vertices with explicit edges."""
    left = RootList((k, 1) for k in range(nl))
    right = RootList((k, 1) for k in range(nr))
    edges = tuple(
        Edge(i, j, w, float(d)) for i, j, w, d in weighted_edges
    )
    return MatchGraph(left=left, right=right, edges=edges)


class TestBuildGraph:
    def reference_graph(self, sigma=0.5):
        rp = RootList([(1.0, 1), (1.825, 4), (2.7, 2)])
        rq = RootList([(1.4425, 4), (2.9, 2)])
        return build_graph(rp, rq, sigma)

    def test_reference_edges(self):
        g = self.reference_graph()
        got = {(e.left, e.right): e.weight for e in g.edges}
        # both P-roots within 0.5 of 1.4425 connect to it; the 2.7/2.9
        # pair is the only other edge
        assert got == {(0, 0): 1, (1, 0): 4, (2, 1): 2}
        dist = {(e.left, e.right): e.distance for e in g.edges}
        assert dist[(1, 0)] == pytest.approx(0.3825)

    def test_sigma_zero_disjoint(self):
        g = build_graph(RootList([(1.0, 1)]), RootList([(2.0, 1)]), 0.0)
        assert g.edges == ()

    def test_min_multiplicity_weight(self):
        g = build_graph(RootList([(2.0, 3)]), RootList([(2.0, 5)]), 0.1)
        assert len(g.edges) == 1
        assert g.edges[0].weight == 3

    def test_empty_side(self):
        g = build_graph(RootList(), RootList([(1.0, 1)]), 1.0)
        assert g.edges == ()

    def test_transpose_symmetry(self, rng):
        for _ in range(20):
            na, nb = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            ra = RootList(zip(rng.uniform(0, 2, na), rng.integers(1, 4, na)))
            rb = RootList(zip(rng.uniform(0, 2, nb), rng.integers(1, 4, nb)))
            sigma = float(rng.uniform(0, 1))
            fwd = build_graph(ra, rb, sigma)
            bwd = build_graph(rb, ra, sigma)
            assert {(e.left, e.right, e.weight) for e in fwd.edges} == {
                (e.right, e.left, e.weight) for e in bwd.edges
            }

    def test_monotone_in_sigma(self, rng):
        ra = RootList(zip(rng.uniform(0, 2, 5), [1] * 5))
        rb = RootList(zip(rng.uniform(0, 2, 5), [1] * 5))
        s1, s2 = 0.3, 0.8
        e1 = {(e.left, e.right) for e in build_graph(ra, rb, s1).edges}
        e2 = {(e.left, e.right) for e in build_graph(ra, rb, s2).edges}
        assert e1 <= e2

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            build_graph(RootList(), RootList(), -1.0)


class TestGreedy:
    def test_reference_matching_weight(self):
        rp = RootList([(1.0, 1), (1.825, 4), (2.7, 2)])
        rq = RootList([(1.4425, 4), (2.9, 2)])
        m = greedy_mwm(build_graph(rp, rq, 0.5))
        assert m.total_weight == 6
        assert len(m.edges) == 2

    def test_single_edge(self):
        g = index_graph(1, 1, [(0, 0, 3, 0.1)])
        m = greedy_mwm(g)
        assert m.total_weight == 3

    def test_path_picks_heavier(self):
        # a-b weight 2, b-c weight 3 sharing the right vertex b? model as
        # left {a, c}, right {b}: greedy must take the weight-3 edge
        g = index_graph(2, 1, [(0, 0, 2, 0.0), (1, 0, 3, 0.0)])
        m = greedy_mwm(g)
        assert m.total_weight == 3
        assert m.edges[0].left == 1

    def test_distance_tiebreak(self):
        g = index_graph(2, 1, [(0, 0, 2, 0.5), (1, 0, 2, 0.1)])
        m = greedy_mwm(g)
        assert m.edges[0].left == 1

    def test_empty(self):
        assert greedy_mwm(index_graph(0, 0, [])).total_weight == 0


class TestExact:
    def test_reference_matches_greedy(self):
        rp = RootList([(1.0, 1), (1.825, 4), (2.7, 2)])
        rq = RootList([(1.4425, 4), (2.9, 2)])
        g = build_graph(rp, rq, 0.5)
        assert exact_mwm(g).total_weight == greedy_mwm(g).total_weight == 6

    def test_rejects_cardinality_trap(self):
        # an alternative maximum-cardinality matching of lower weight must
        # not be selected: (0-0 w1, 2-1 w2) has cardinality 2, weight 3
        g = index_graph(3, 2, [(0, 0, 1, 0.0), (1, 0, 4, 0.0), (2, 1, 2, 0.0)])
        m = exact_mwm(g)
        assert m.total_weight == 6

    def test_empty_graph(self):
        assert exact_mwm(index_graph(0, 0, [])).total_weight == 0

    def test_200_by_200_graph_with_one_edge(self):
        left = RootList((k, 1) for k in range(200))
        right = RootList((k, 1) for k in range(200))
        edge = Edge(0, 0, 1, 0.0)
        g = MatchGraph(left=left, right=right, edges=(edge,))
        assert exact_mwm(g).edges == (edge,)

    def test_exact_equals_brute_force(self, rng):
        for _ in range(60):
            nl, nr = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            edges = [
                (i, j, int(rng.integers(1, 6)), float(rng.uniform(0, 1)))
                for i in range(nl)
                for j in range(nr)
                if rng.uniform() < 0.5
            ]
            g = index_graph(nl, nr, edges)
            assert exact_mwm(g).total_weight == brute_force_mwm_weight(g)


class TestMatchingValidity:
    def test_rejects_shared_vertices(self):
        e1 = Edge(0, 0, 1, 0.0)
        e2 = Edge(0, 1, 1, 0.0)
        with pytest.raises(ValueError):
            Matching((e1, e2))

    def test_greedy_half_bound(self, rng):
        for _ in range(200):
            nl, nr = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            edges = [
                (i, j, int(rng.integers(1, 6)), float(rng.uniform(0, 1)))
                for i in range(nl)
                for j in range(nr)
                if rng.uniform() < 0.4
            ]
            g = index_graph(nl, nr, edges)
            assert 2 * greedy_mwm(g).total_weight >= exact_mwm(g).total_weight
