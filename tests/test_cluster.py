"""Root clustering: divide-and-conquer pass and the symmetry heuristic."""

import cmath
import math

import numpy as np
import pytest

from laggcd import (
    ClusterParams,
    RootList,
    Strategy,
    cluster,
    cluster_dnc,
    cluster_heuristic,
)


def singles(points):
    return RootList((p, 1) for p in points)


def bbox(points):
    res = [p.real for p in points]
    ims = [p.imag for p in points]
    return min(res), max(res), min(ims), max(ims)


class TestDnC:
    def test_reference_chain_example(self):
        out = cluster_dnc(singles([1.0, 1.5, 2.0]), 0.5)
        assert out.entries == ((1.25 + 0j, 2), (2.0 + 0j, 1))

    def test_singleton_unchanged(self):
        out = cluster_dnc(RootList([(3.0, 2)]), 10.0)
        assert out.entries == ((3.0 + 0j, 2),)

    def test_empty(self):
        assert cluster_dnc(RootList(), 1.0) == RootList()

    def test_reference_rootset(self):
        rp = singles([1.0, 1.7, 1.75, 1.85, 1.9, 2.6, 2.8])
        out = cluster_dnc(rp, 0.5)
        assert out.total_multiplicity() == 7
        assert sorted(m for _, m in out) == [1, 2, 4]
        centers = {m: r for r, m in out}
        assert centers[1] == pytest.approx(1.0)
        assert centers[4].real == pytest.approx(1.8, abs=1e-9)
        assert centers[2].real == pytest.approx(2.7, abs=1e-9)

    def test_sigma_zero_merges_only_coincident(self):
        out = cluster_dnc(singles([1.0, 1.0, 1.0 + 1e-12, 2.0]), 0.0)
        assert out.entries == ((1.0 + 0j, 2), (1.0 + 1e-12 + 0j, 1), (2.0 + 0j, 1))

    def test_multiplicity_conservation_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 40))
            pts = rng.uniform(0, 1, n) + 1j * rng.uniform(0, 1, n)
            mults = rng.integers(1, 4, n)
            rl = RootList(zip(pts, mults))
            out = cluster_dnc(rl, float(rng.uniform(0, 0.3)))
            assert out.total_multiplicity() == rl.total_multiplicity()

    def test_centroid_containment(self, rng):
        pts = list(rng.uniform(-2, 2, 30) + 1j * rng.uniform(-2, 2, 30))
        out = cluster_dnc(singles(pts), 0.5)
        lo_r, hi_r, lo_i, hi_i = bbox(pts)
        for r, _ in out:
            assert lo_r - 1e-12 <= r.real <= hi_r + 1e-12
            assert lo_i - 1e-12 <= r.imag <= hi_i + 1e-12

    def test_determinism(self, rng):
        pts = list(rng.uniform(0, 1, 25) + 1j * rng.uniform(0, 1, 25))
        a = cluster_dnc(singles(pts), 0.05)
        b = cluster_dnc(singles(pts), 0.05)
        assert a == b

    def test_comparison_counting(self, dnc_comparisons):
        # the sweep measures 1.0-1.5 and 1.5-2.0, each a first partner; the
        # left pair merges after 1 comparison; the top strip compares the
        # merged point with 2.0
        assert dnc_comparisons(singles([1.0, 1.5, 2.0]), 0.5) == 4

    def test_comparison_count_matches_instrumented_merge(self, dnc_comparisons):
        # counts of an instrumented loop that incremented once per pair
        # distance it evaluated, on these clouds: 198 + 461 and 998 + 1831
        # of the sweep and the strip merges
        rng = np.random.default_rng(5)
        for n, expected in ((64, 659), (256, 2829)):
            pts = rng.uniform(0, 1, n) + 1j * rng.uniform(0, 1, n)
            assert dnc_comparisons(singles(pts), 4.0 / n) == expected

    def test_merge_comparisons_scale_quasilinearly(self, rng, dnc_comparisons):
        counts = {}
        for exp in (8, 11, 14):
            n = 2 ** exp
            pts = rng.uniform(0, 1, n) + 1j * rng.uniform(0, 1, n)
            counts[exp] = dnc_comparisons(singles(pts), 1.0 / n)
        # n log n growth: factor 8 in n between successive sizes
        assert counts[11] <= 1.5 * 8 * (11 / 8) * counts[8]
        assert counts[14] <= 1.5 * 8 * (14 / 11) * counts[11]


class TestHeuristic:
    def params(self, sigma, **kw):
        return ClusterParams(sigma=sigma, strategy=Strategy.HEURISTIC, **kw)

    def test_perfect_triple(self):
        pts = [5.0 + 1e-3 * cmath.exp(2j * math.pi * k / 3) for k in range(3)]
        out = cluster_heuristic(singles(pts), self.params(1e-3))
        assert len(out) == 1
        (r, m), = out.entries
        assert m == 3
        assert abs(r - 5.0) <= 1e-12

    def test_distant_pair_untouched(self):
        sigma = 0.01
        out = cluster_heuristic(singles([0.0, 10 * sigma ** 0.5]), self.params(sigma))
        assert sorted(m for _, m in out) == [1, 1]

    def test_coincident_points_merge(self):
        out = cluster_heuristic(RootList([(2.0, 2)]), self.params(1e-6))
        assert out.entries == ((2.0 + 0j, 2),)

    def test_points_within_rounding_count_as_coincident(self):
        # 1.0 and its next two doubles spread far beyond the triple's
        # radius cap sigma ** (1/3) = 1e-20, but only by rounding
        b = float(np.nextafter(1.0, 2.0))
        pts = [1.0, b, float(np.nextafter(b, 2.0))]
        out = cluster_heuristic(singles(pts), self.params(1e-60))
        assert [m for _, m in out] == [3]

    def test_max_multiplicity_cap(self):
        out = cluster_heuristic(RootList([(2.0, 4)]), self.params(1e-6))
        assert sorted(m for _, m in out) == [1, 3]
        assert out.total_multiplicity() == 4

    @pytest.mark.parametrize(
        "mult, triples, doubles, singles_",
        [(14, 4, 1, 0), (2000, 666, 1, 0), (10**5, 33333, 0, 1)],
    )
    def test_coincident_copies_split_into_largest_clusters(
        self, mult, triples, doubles, singles_
    ):
        # beyond the enumeration limit every neighbour distance ties, so
        # the copies are grouped before the neighbour search
        out = cluster_heuristic(RootList([(0.5 - 0.25j, mult)]), self.params(1e-6))
        counts = [sum(m == k for _, m in out) for k in (3, 2, 1)]
        assert counts == [triples, doubles, singles_]
        assert all(r == 0.5 - 0.25j for r, _ in out)

    def test_coincident_copies_beside_distinct_points(self):
        pts = [3.0 + 1e-3 * cmath.exp(2j * math.pi * k / 3) for k in range(3)]
        rl = RootList([(0.0, 7), (-0.0, 1)] + [(p, 1) for p in pts + [9.0, 9.5j]])
        out = cluster_heuristic(rl, self.params(1e-6))
        assert sorted(m for r, m in out if r == 0) == [2, 3, 3]
        (r, m), = [(r, m) for r, m in out if abs(r - 3.0) < 0.1]
        assert m == 3 and abs(r - 3.0) <= 1e-12
        assert {r for r, m in out if m == 1} == {9.0, 9.5j}
        assert out.total_multiplicity() == rl.total_multiplicity()

    def test_symmetry_preferred_over_distance(self):
        # perfect triangle of radius 0.05 about the origin plus a point
        # closer to the centre: the symmetric triple must win
        r = 0.05
        tri = [r * cmath.exp(2j * math.pi * k / 3 + 0.3j) for k in range(3)]
        interior = 0.015 + 0.001j
        out = cluster_heuristic(singles(tri + [interior]), self.params(1e-3))
        triples = [(c, m) for c, m in out if m == 3]
        assert len(triples) == 1
        center = triples[0][0]
        assert abs(center - sum(tri) / 3) <= 1e-12
        ones = [c for c, m in out if m == 1]
        assert ones == [interior]

    def test_unit_square_experiment(self, rng):
        n = 20
        pts = list(rng.uniform(0, 1, n) + 1j * rng.uniform(0, 1, n))
        params = self.params(1.0 / n ** 2)
        out1 = cluster_heuristic(singles(pts), params)
        out2 = cluster_heuristic(singles(pts), params)
        assert out1 == out2
        assert out1.total_multiplicity() == n
        for c, _ in out1:
            assert -1e-12 <= c.real <= 1 + 1e-12
            assert -1e-12 <= c.imag <= 1 + 1e-12

    def test_multiplicity_conservation_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 15))
            pts = rng.uniform(0, 1, n) + 1j * rng.uniform(0, 1, n)
            mults = rng.integers(1, 3, n)
            rl = RootList(zip(pts, mults))
            out = cluster_heuristic(rl, self.params(float(rng.uniform(0, 0.01))))
            assert out.total_multiplicity() == rl.total_multiplicity()


class TestDispatch:
    def test_strategy_dispatch(self):
        rl = RootList([(1.0, 1), (1.5, 1), (2.0, 1)])
        dnc = cluster(rl, ClusterParams(sigma=0.5, strategy="dnc"))
        heur = cluster(rl, ClusterParams(sigma=0.5, strategy="heuristic"))
        assert dnc.total_multiplicity() == heur.total_multiplicity() == 3

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ClusterParams(sigma=-1.0)
        with pytest.raises(ValueError):
            ClusterParams(sigma=1.0, max_multiplicity=0)
        with pytest.raises(ValueError):
            ClusterParams(sigma=1.0, strategy="bogus")
