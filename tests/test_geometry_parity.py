"""The near-linear geometry layers against the all-pairs loops they replace.

Each oracle below is the straightforward version of a layer: the
divide-and-conquer clustering recursion that visits every node, the
heuristic scan that scores every candidate, the all-pairs edge scan, a
full sort per point for nearest neighbours, a binary search over every
distinct distance for the bottleneck, a per-node product loop for
sampling from roots, the dense assignment
over all n x n distances for rho="sum", the per-entry check and sort of
a RootList's constructor, the full sort of reconstruct's output, and
Aberth's sweeps and inclusion disks with fresh arrays at every step and
every meeting pair of disks listed to name the first, and Aberth's start
record with fresh arrays on every call. The
fast versions must give the same Python objects and the same floats, bit
for bit (rho="sum" only where its optimal assignment is unique; elsewhere
to 1e-15 relative), and the constructor the same errors.
"""

import cmath
import importlib
import math
import operator
import sys
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.spatial import cKDTree

from laggcd import (
    ClusterParams,
    InvalidParameterError,
    LagrangePoly,
    Matching,
    RootList,
    assemble_gcd,
    build_graph,
    cluster_dnc,
    cluster_heuristic,
    from_roots,
    greedy_mwm,
    reconstruct,
    root_pseudometric,
)
from laggcd.cluster import ENUMERATION_LIMIT, _knn_candidates
from laggcd.lagpoly import real_slack
from laggcd.matching import _NUMPY_SWEEP_MIN_N, _PAIR_BLOCK, Edge
from laggcd.metric import _PAIR_FIRST_MIN_N, _bottleneck, _unshared

# the package re-exports the function `cluster` under the module's name
cluster_mod = importlib.import_module("laggcd.cluster")
metric_mod = importlib.import_module("laggcd.metric")
matching_mod = importlib.import_module("laggcd.matching")
rootfind_mod = importlib.import_module("laggcd.rootfind")
EPS = np.finfo(float).eps


# ---------------------------------------------------------------- oracles


def _oracle_dnc(q, lo, hi, sigma):
    if hi - lo == 1:
        return [q[lo]]
    mid = (lo + 1 + hi) // 2
    both = _oracle_dnc(q, lo, mid, sigma) + _oracle_dnc(q, mid, hi, sigma)
    mid_x = q[mid - 1][0].real
    strip = [t for t in both if abs(t[0].real - mid_x) <= sigma]
    rest = [t for t in both if abs(t[0].real - mid_x) > sigma]
    return rest + cluster_mod._merge_strip(strip, sigma)


def oracle_dnc(roots, sigma):
    if not roots:
        return roots
    return RootList(_oracle_dnc(roots.entries, 0, len(roots), sigma))


def oracle_heuristic(roots, params):
    """cluster_heuristic with every candidate scored exactly, no radius gate."""
    points = [r for r, mult in roots for _ in range(mult)]
    active = set(range(len(points)))
    accepted = []

    def accept(cand, m):
        accepted.append((sum(points[i] for i in cand) / m, m))
        active.difference_update(cand)

    runs = cluster_mod._coincident_runs(points)
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
        scores = (cluster_mod._score_candidate(points, c, m, radius_cap) for c in cands)
        for _, _, _, cand in sorted(s for s in scores if s is not None):
            if all(i in active for i in cand):
                accept(cand, m)
    return RootList(accepted + [(points[i], 1) for i in sorted(active)])


def oracle_edges(roots_p, roots_q, sigma):
    edges = []
    for i, (r, dr) in enumerate(roots_p):
        for j, (s, ds) in enumerate(roots_q):
            d = abs(r - s)
            if d <= sigma:
                edges.append(Edge(i, j, min(dr, ds), d))
    return tuple(edges)


def oracle_knn(points, active, m):
    cands = set()
    for i in active:
        others = sorted(
            (j for j in active if j != i),
            key=lambda j: (abs(points[j] - points[i]), j),
        )
        cand = tuple(sorted([i] + others[: m - 1]))
        if len(cand) == m:
            cands.add(cand)
    return sorted(cands)


def oracle_bottleneck(dist):
    n = dist.shape[0]
    values = np.unique(dist)

    def feasible(t):
        adj = csr_matrix(dist <= t)
        match = maximum_bipartite_matching(adj, perm_type="column")
        return int((match >= 0).sum()) == n

    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(values[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])


def oracle_sum(f, g):
    f, g = np.asarray(f, dtype=complex), np.asarray(g, dtype=complex)
    dist = np.abs(f[:, None] - g[None, :])
    rows, cols = linear_sum_assignment(dist)
    return float(dist[rows, cols].sum()) / len(f)


def oracle_unshared(f, g):
    """Multisets of f and of g left after removing their intersection."""
    cf, cg = Counter(map(complex, f)), Counter(map(complex, g))
    return cf - cg, cg - cf


def oracle_expand(roots):
    if not roots.entries:
        return np.empty(0, dtype=complex)
    return np.array([r for r, m in roots.entries for _ in range(m)], dtype=complex)


def oracle_values(roots, nodes, leading_coeff=1.0):
    x = np.asarray(nodes, dtype=complex)
    expanded = oracle_expand(roots)
    values = np.empty(len(x), dtype=complex)
    for k, xk in enumerate(x):
        factors = xk - expanded
        order = np.argsort(np.abs(factors), kind="stable")
        v = complex(leading_coeff)
        for f in factors[order]:
            v *= f
        values[k] = v
    return values


def oracle_rootlist(entries):
    """RootList's entries checked one at a time, in input order, then
    stably sorted by (real part, imaginary part)."""
    norm = []
    for root, mult in entries:
        bad = InvalidParameterError("entries must be (number, integer), got %r" % ((root, mult),))
        if isinstance(root, (str, bytes)) or isinstance(mult, bool):
            raise bad
        try:
            root, mult = complex(root), operator.index(mult)
        except (TypeError, ValueError):
            raise bad from None
        if not cmath.isfinite(root):
            raise InvalidParameterError("roots must be finite, got %r" % root)
        if mult < 1:
            raise InvalidParameterError("multiplicities must be >= 1, got %d" % mult)
        norm.append((root, mult))
    norm.sort(key=lambda e: (e[0].real, e[0].imag))
    return tuple(norm)


def oracle_reconstruct(clustered, m, side, gcd):
    """The GCD's entries and each cluster's leftover, stably sorted."""
    weight_at = {(e.left if side == "left" else e.right): e.weight for e in m.edges}
    entries = list(gcd.entries)
    for idx, (r, d) in enumerate(clustered):
        if d > weight_at.get(idx, 0):
            entries.append((r, d - weight_at.get(idx, 0)))
    return RootList._trusted(sorted(entries, key=lambda e: (e[0].real, e[0].imag)))


# ---------------------------------------------------------------- inputs


def cloud(rng, n, complex_=True, scale=1.0):
    z = rng.uniform(-scale, scale, n)
    if complex_:
        z = z + 1j * rng.uniform(-scale, scale, n)
    return z


def with_mults(rng, z, top=3):
    return RootList((complex(r), int(m)) for r, m in zip(z, rng.integers(1, top + 1, len(z))))


def bits(a):
    return np.asarray(a).tobytes()


# ---------------------------------------------------------------- cluster_dnc


def assert_dnc_parity(roots, sigma):
    out, ref = cluster_dnc(roots, sigma), oracle_dnc(roots, sigma)
    assert out == ref
    assert repr(out) == repr(ref)  # signed zeros and multiplicity order too
    return out


class TestDnC:
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_lists(self, seed, complex_):
        rng = np.random.default_rng([7, seed])
        for _ in range(40):
            roots = with_mults(rng, cloud(rng, int(rng.integers(0, 60)), complex_))
            sigma = float(rng.choice([0.0, 1e-3, 0.05, 0.3, 5.0]))
            assert_dnc_parity(roots, sigma)

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicates_and_signed_zeros(self, seed):
        # non-dyadic duplicates, whose centroids round, and zeros that
        # compare equal but print apart
        pool = [0.1, 1 / 3, 0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0),
                0.1 + 0.1j, 1 / 3 - 0.1j, 0.2, 0.30000000000000004]
        rng = np.random.default_rng([8, seed])
        for _ in range(300):
            picks = rng.integers(0, len(pool), int(rng.integers(1, 25)))
            roots = RootList((pool[k], int(rng.integers(1, 4))) for k in picks)
            sigma = float(rng.choice([0.0, 0.05, 0.1, 0.25, math.inf]))
            assert_dnc_parity(roots, sigma)

    def test_sigma_zero_and_infinite(self):
        rng = np.random.default_rng(9)
        roots = with_mults(rng, np.round(cloud(rng, 80) * 4) / 4)
        assert len(assert_dnc_parity(roots, 0.0)) < len(roots)
        assert len(assert_dnc_parity(roots, math.inf)) < 10

    @pytest.mark.parametrize("offset", [0.0, 1.0, 1e6, -3e12])
    def test_distances_exactly_at_sigma(self, offset):
        rng = np.random.default_rng(10)
        z = offset + cloud(rng, 60, scale=1e-2 * (1 + abs(offset)) ** 0.5)
        roots = with_mults(rng, z)
        for i, j in rng.integers(0, 60, (10, 2)):
            assert_dnc_parity(roots, abs(roots.entries[i][0] - roots.entries[j][0]))

    def test_rounded_difference_at_sigma(self):
        # (1 + 2**-52) - 2**-53 rounds to 1.0 = sigma, though the second
        # root lies past 2**-53 + sigma: the windows must be wider than sigma
        pair = [(2.0**-53, 1), (1 + 2.0**-52, 1)]
        for roots in (RootList(pair), RootList(pair + [(-5.0, 1)])):
            assert [m for _, m in assert_dnc_parity(roots, 1.0)][-1] == 2

    def test_chain(self):
        out = assert_dnc_parity(RootList([(1.0, 1), (1.5, 1), (2.0, 1)]), 0.5)
        assert out.entries == ((1.25 + 0j, 2), (2.0 + 0j, 1))

    def test_2048_root_cloud_with_planted_triples(self):
        # one root per cell of a 96 x 96 grid, and 64 triples of radius 1e-4
        rng = np.random.default_rng(11)
        cells = rng.choice(96 * 96, size=2048 - 2 * 64, replace=False)
        z = (cells % 96 + 1j * (cells // 96) + 0.5) / 96
        centers, z = z[:64], z[64:]
        angles = rng.uniform(0, 2 * np.pi, (64, 1)) + 2 * np.pi * np.arange(3) / 3
        triples = centers[:, None] + 1e-4 * np.exp(1j * angles)
        roots = RootList((complex(r), 1) for r in np.concatenate([z, triples.ravel()]))
        out = assert_dnc_parity(roots, 3e-4)
        assert sorted(m for _, m in out).count(3) == 64

    def test_dense_cloud_every_root_partnered(self):
        rng = np.random.default_rng(12)
        z = cloud(rng, 256)
        roots = with_mults(rng, np.concatenate([z, z + 0.01 * cloud(rng, 256)]))
        for sigma in (0.03, 0.2, 1.0):
            assert_dnc_parity(roots, sigma)

    def test_1024_roots_on_one_real_part(self):
        rng = np.random.default_rng(13)
        ims = np.arange(1000) * 0.01 + rng.uniform(0, 1e-3, 1000)
        ims = np.concatenate([ims, ims[::42] + 2e-3])  # 24 close pairs
        roots = RootList((complex(0.25, y), 1) for y in ims)
        out = assert_dnc_parity(roots, 5e-3)
        assert len(out) == 1000

    def test_root_clouds_wide_side(self, dnc_comparisons):
        # a wide side of the benchmark's root clouds: 64 triples of radius
        # about 1e-4 and 1856 singletons, one to a jittered cell of a
        # 96 x 96 grid; nearly every root passes through untouched
        rng = np.random.default_rng(20)
        cells = rng.choice(96 * 96, size=64 + 1856, replace=False)
        jitter = rng.uniform(0.25, 0.75, len(cells)) + 1j * rng.uniform(0.25, 0.75, len(cells))
        z = (cells % 96 + 1j * (cells // 96) + jitter) / 96
        centers, singles = z[:64], z[64:]
        theta = rng.uniform(0, 2 * np.pi, (64, 1)) + 2 * np.pi * np.arange(3) / 3
        theta = theta + rng.uniform(-0.05, 0.05, (64, 3))
        triples = centers[:, None] + 1e-4 * rng.uniform(0.9, 1.1, (64, 3)) * np.exp(1j * theta)
        roots = RootList((r, 1) for r in np.concatenate([triples.ravel(), singles]))
        out = assert_dnc_parity(roots, 3e-4)
        assert sorted(m for _, m in out) == [1] * 1856 + [3] * 64
        # the pair distances of the recursion that visits every node with
        # a root and its partner, before children were checked by the caller
        assert dnc_comparisons(roots, 3e-4) == 4117

    def test_centroid_landing_on_a_root_past_the_window(self, monkeypatch):
        # the top strip merges 0.5 and 0.52; a merge step that puts the
        # centroid on the root 1.0 must leave it after that root, as the
        # stable sort of "rest + merged strip" does
        merge = cluster_mod._merge_strip

        def onto_one(points, sigma):
            return [(1.0 + 0j, m) if m > 1 else (r, m) for r, m in merge(points, sigma)]

        monkeypatch.setattr(cluster_mod, "_merge_strip", onto_one)
        roots = RootList([(0.0, 1), (0.5, 1), (0.52, 1), (1.0, 1)])
        out = assert_dnc_parity(roots, 0.05)
        assert out.entries == ((0j, 1), (1 + 0j, 1), (1 + 0j, 2))

    def test_centroids_that_leave_the_window(self, monkeypatch):
        # a merge step that moves each centroid 3 sigma along the real axis,
        # left or right by a bit of its imaginary part, past either end of
        # the strip's window: the pruned recursion re-sorts and still matches
        merge = cluster_mod._merge_strip

        def drifting(points, sigma):
            out = merge(points, sigma)
            if len(out) == len(points):
                return out
            step = [(-3, 3)[int(abs(r.imag) * 1e6) % 2] * sigma for r, _ in out]
            return [(r + d, m) if m > 1 else (r, m) for (r, m), d in zip(out, step)]

        monkeypatch.setattr(cluster_mod, "_merge_strip", drifting)
        rng = np.random.default_rng(14)
        for _ in range(50):
            roots = with_mults(rng, cloud(rng, 40), top=1)
            assert_dnc_parity(roots, float(rng.choice([0.05, 0.2])))


# ---------------------------------------------------------------- RootList


def assert_rootlist_parity(entries):
    out, ref = RootList(entries), oracle_rootlist(entries)
    assert out.entries == ref
    assert repr(out) == "RootList(%r)" % (list(ref),)  # signed zeros too
    assert all(type(r) is complex and type(m) is int for r, m in out)


# numpy integer roots and multiplicities take the per-entry checks, the
# others the bulk ones
ROOT_KINDS = (complex, np.complex128, float, int, np.int64, np.int32, np.uint8)
BULK_KINDS = ROOT_KINDS[:4]


def mixed_entries(rng, n, grid=False, bulk=False):
    """n entries whose roots are of random kinds (bulk: of kinds and with
    multiplicities that the bulk check takes); on a grid of quarter steps
    with signed zeros, exact ties of different multiplicities."""
    kinds = BULK_KINDS if bulk else ROOT_KINDS
    entries = []
    for _ in range(n):
        kind = kinds[int(rng.integers(len(kinds)))]
        if grid:
            x, y = (float(v) for v in rng.integers(-3, 4, 2) / 4)
            x, y = x * float(rng.choice([1, -1])), y * float(rng.choice([1, -1]))
        else:
            x, y = (float(v) for v in rng.uniform(-2, 2, 2))
        if kind in (complex, np.complex128):
            root = kind(complex(x, y))
        elif kind is float:
            root = x
        else:
            root = kind(abs(round(4 * x)))
        mult = int(rng.integers(1, 4))
        entries.append((root, np.int64(mult) if not bulk and rng.random() < 0.05 else mult))
    return entries


class TestRootList:
    @pytest.mark.parametrize("n", [0, 1, 4, 16, 63, 64, 512, 2048])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_lists(self, seed, n):
        rng = np.random.default_rng([21, seed, n])
        assert_rootlist_parity(mixed_entries(rng, n))
        assert_rootlist_parity(mixed_entries(rng, n, bulk=True))
        assert_rootlist_parity([(complex(r), 1) for r in cloud(rng, n)])
        assert_rootlist_parity([(r, 2) for r in cloud(rng, n)])  # np.complex128

    @pytest.mark.parametrize("seed", range(4))
    def test_ties_and_signed_zeros(self, seed):
        rng = np.random.default_rng([22, seed])
        for n in (2, 5, 30, 200):
            assert_rootlist_parity(mixed_entries(rng, n, grid=True))
            assert_rootlist_parity(mixed_entries(rng, n, grid=True, bulk=True))
        zeros = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 0j, 0]
        entries = [(zeros[k], int(m)) for k, m in zip(rng.integers(0, 6, 40), rng.integers(1, 4, 40))]
        assert_rootlist_parity(entries)

    @pytest.mark.parametrize("n", [2, 16, 512])
    @pytest.mark.parametrize("seed", range(6))
    def test_first_bad_entry_raises(self, seed, n):
        # two bad entries at random places: the error is the first one's
        bad = [(math.nan, 1), (1.0, 0), (0.5, True), ("1", 1), (complex(0.0, math.inf), 2)]
        rng = np.random.default_rng([23, seed, n])
        for _ in range(10):
            entries = mixed_entries(rng, n, grid=bool(seed % 2), bulk=seed < 4)
            for pos in sorted(rng.choice(n + 1, 2, replace=False), reverse=True):
                entries.insert(int(pos), bad[int(rng.integers(len(bad)))])
            with pytest.raises(InvalidParameterError) as got:
                RootList(entries)
            with pytest.raises(InvalidParameterError) as want:
                oracle_rootlist(entries)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([1 + 0j], "entries must be (number, integer), got (1+0j)"),
            ([(1.0, 1), (1, 2, 3)], "entries must be (number, integer), got (1, 2, 3)"),
            ([(1, 2, 3), (1.0, 1)], "entries must be (number, integer), got (1, 2, 3)"),
            ([(1.0, 1), ()], "entries must be (number, integer), got ()"),
            (5, "entries must be an iterable of (number, integer) pairs, got 5"),
        ],
    )
    def test_entries_that_are_no_pairs(self, entries, message):
        with pytest.raises(InvalidParameterError) as exc:
            RootList(entries)
        assert str(exc.value) == message

    def test_entries_as_lists_and_iterators(self):
        # an iterator is used up by one pass, so the fallback must not
        # follow a bulk pass that read it
        def entries():
            return [iter((1.0, np.int64(2))), [0.5, 1], (0.5, 3), iter([0.25j, 1])]

        assert RootList(entries()).entries == oracle_rootlist(entries())
        assert_rootlist_parity([[0.5, 1], [0.25, 2], (0.5, 3)])

    def test_error_while_iterating_propagates(self):
        def entries():
            yield (1.0, 1)
            raise KeyError("from the iterable")

        with pytest.raises(KeyError):
            RootList(entries())


# ---------------------------------------------------------------- reconstruct


def assert_reconstruct_parity(clustered, m, side, gcd):
    out, ref = reconstruct(clustered, m, side, gcd), oracle_reconstruct(clustered, m, side, gcd)
    assert out == ref
    assert repr(out) == repr(ref)
    return out


def random_matching(rng, clustered, side):
    """Edges on a random half of clustered's entries, each of a random
    weight up to the entry's multiplicity, so that some entries go."""
    picked = [i for i in range(len(clustered)) if rng.random() < 0.5]
    other = rng.permutation(len(picked)).tolist()
    edges = []
    for i, j in zip(picked, other):
        weight = int(rng.integers(1, clustered.entries[i][1] + 1))
        edges.append(Edge(i, j, weight, 0.0) if side == "left" else Edge(j, i, weight, 0.0))
    return Matching(tuple(edges))


class TestReconstruct:
    POOL = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 0.25, -0.25j,
            0.25 + 0.5j, 0.5, 1 / 3, complex(1 / 3, -0.0)]

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("seed", range(4))
    def test_gcd_roots_equal_to_clusters(self, seed, side):
        # GCD roots drawn from the clusters' own values, signed zeros
        # included, so that each lands on equal entries
        rng = np.random.default_rng([24, seed])
        for _ in range(100):
            pick = lambda n: [(self.POOL[k], int(rng.integers(1, 4))) for k in rng.integers(0, len(self.POOL), n)]
            clustered = RootList(pick(int(rng.integers(0, 12))))
            gcd = RootList(pick(int(rng.integers(0, 6))))
            m = random_matching(rng, clustered, side)
            assert_reconstruct_parity(clustered, m, side, gcd)
            assert_reconstruct_parity(clustered, m, side, RootList())  # a cofactor

    def test_gcd_root_on_an_unmatched_cluster(self):
        clustered = RootList([(-0.0, 2), (0.5, 1), (0.5, 3), (1.0, 1)])
        gcd = RootList([(0.0, 1), (0.5, 2)])
        m = Matching((Edge(1, 0, 1, 0.0), Edge(3, 1, 1, 0.0)))
        out = assert_reconstruct_parity(clustered, m, "left", gcd)
        assert repr(out) == "RootList([(0j, 1), ((-0+0j), 2), ((0.5+0j), 2), ((0.5+0j), 3)])"

    def test_edge_ends_outside_the_list_are_ignored(self):
        clustered = RootList([(0.0, 2), (1.0, 1)])
        m = Matching((Edge(-1, 0, 1, 0.0), Edge(0, 1, 1, 0.0), Edge(2, 2, 1, 0.0)))
        out = assert_reconstruct_parity(clustered, m, "left", RootList([(0.5, 1)]))
        assert out.entries == ((0j, 1), (0.5 + 0j, 1), (1 + 0j, 1))

    @pytest.mark.parametrize("seed", range(3))
    def test_pipeline_on_clouds(self, seed):
        # the stages' own outputs, the empty-GCD cofactor calls included
        rng = np.random.default_rng([25, seed])
        p = with_mults(rng, np.round(cloud(rng, 300) * 8) / 8)
        q = with_mults(rng, np.round(cloud(rng, 300) * 8) / 8)
        g = build_graph(p, q, 0.2)
        m = greedy_mwm(g)
        gcd = assemble_gcd(m, g)
        for roots, side in ((p, "left"), (q, "right")):
            assert assert_reconstruct_parity(roots, m, side, gcd).total_multiplicity() == (
                roots.total_multiplicity()
            )
            assert_reconstruct_parity(roots, m, side, RootList())


# ---------------------------------------------------------------- cluster_heuristic


def assert_heuristic_parity(roots, sigma, max_multiplicity=3):
    params = ClusterParams(
        sigma=sigma, max_multiplicity=max_multiplicity, strategy="heuristic"
    )
    out, ref = cluster_heuristic(roots, params), oracle_heuristic(roots, params)
    assert out == ref
    assert repr(out) == repr(ref)
    return out


def planted(rng, n, radius, m=3, scale=1.0):
    """n points of a cloud, n // (2 m) m-gons of the given radius among them."""
    k = n // (2 * m)
    z = cloud(rng, n - k * m + k, scale=scale)
    centres, points = z[:k], list(z[k:])
    for c in centres:
        t = rng.uniform(0, 2 * np.pi) + 2 * np.pi * np.arange(m) / m
        points += list(c + radius * np.exp(1j * (t + rng.uniform(-0.05, 0.05, m))))
    return points


class TestHeuristic:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_clouds_either_side_of_enumeration_limit(self, seed):
        rng = np.random.default_rng([20, seed])
        for n in (2, 5, ENUMERATION_LIMIT, ENUMERATION_LIMIT + 1, 30, 80):
            z = planted(rng, n, 10.0 ** rng.uniform(-4, -1))
            roots = RootList((complex(r), 1) for r in z)
            for sigma in (1e-9, 1e-4, 1e-2, 0.5):
                assert_heuristic_parity(roots, sigma, int(rng.integers(2, 5)))

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("far", [8, 40], ids=["enumerated", "knn"])
    def test_radius_within_ulps_of_the_cap(self, monkeypatch, m, far):
        # caps sigma**(1/m) from 4 ulps below to 4 ulps above the radius the
        # scorer takes for a regular m-gon among far points, with enumerated
        # or nearest-neighbour candidates, enough of them for the radius gate
        gate, gated = cluster_mod._within_reach, []
        monkeypatch.setattr(
            cluster_mod, "_within_reach", lambda *a: gated.append(a[2]) or gate(*a)
        )
        polygon = [complex(1e-3 * np.exp(2j * np.pi * (j / m + 0.1))) for j in range(m)]
        others = [complex(3 + k % 8, 1 + k // 8) for k in range(far)]
        roots = RootList((z, 1) for z in polygon + others)
        pts = sorted(polygon, key=lambda z: (z.real, z.imag))  # the scorer's order
        centroid = sum(pts) / m
        radius = max(abs(p - centroid) for p in pts)
        lo = hi = radius
        for _ in range(4):
            lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)
        sigma = radius**m
        while sigma ** (1.0 / m) >= lo:
            sigma = math.nextafter(sigma, 0.0)
        caps = set()
        while sigma ** (1.0 / m) <= hi:
            cap = sigma ** (1.0 / m)
            if cap >= lo and cap not in caps:
                caps.add(cap)
                out = assert_heuristic_parity(roots, sigma, m)
                assert any(mult == m for _, mult in out) == (cap >= radius)
            sigma = math.nextafter(sigma, 1.0)
        assert len(caps) >= 8
        assert m in gated

    @pytest.mark.parametrize("seed", range(4))
    def test_coincident_runs(self, seed):
        rng = np.random.default_rng([21, seed])
        pool = planted(rng, 12, 1e-3)
        for _ in range(20):
            picks = rng.integers(0, len(pool), int(rng.integers(2, 30)))
            roots = RootList((complex(pool[k]), int(rng.integers(1, 5))) for k in picks)
            assert_heuristic_parity(roots, float(rng.choice([0.0, 1e-9, 1e-3])), 4)

    def test_coincident_runs_group_indices_by_value(self):
        # in a RootList's order equal values are adjacent, signed zeros
        # (equal as numbers) included; the runs are those of a dict of values
        pool = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1 + 0j, 1 + 1j, 2j, -1 + 0j]
        rng = np.random.default_rng(28)
        for _ in range(60):
            picks = rng.integers(0, len(pool), int(rng.integers(0, 20)))
            roots = RootList((pool[k], int(rng.integers(1, 4))) for k in picks)
            points = [r for r, mult in roots for _ in range(mult)]
            groups = {}
            for i, p in enumerate(points):
                groups.setdefault(p, []).append(i)
            want = [run for run in groups.values() if len(run) > 1]
            assert cluster_mod._coincident_runs(points) == want
            assert cluster_mod._coincident_runs(roots.expand()) == want

    def test_sigma_zero(self):
        rng = np.random.default_rng(22)
        z = planted(rng, 40, 1e-15) + [0.5, 0.5, 0.5 + 1e-14]
        roots = RootList((complex(r), 1) for r in z)
        assert_heuristic_parity(roots, 0.0)
        assert_heuristic_parity(RootList(roots.entries[:ENUMERATION_LIMIT]), 0.0)

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_extreme_scales(self, scale):
        rng = np.random.default_rng(23)
        z = planted(rng, 40, 1e-3 * scale, scale=scale)
        roots = RootList((complex(r), 1) for r in z)
        for sigma in (0.0, 1e-9, (1e-3 * scale) ** 2, 1e300):
            assert_heuristic_parity(roots, sigma)
            assert_heuristic_parity(RootList(roots.entries[:10]), sigma)

    def test_gate_drops_only_what_the_scorer_rejects(self):
        # on a spread cloud most kNN candidates lie far beyond the cap
        rng = np.random.default_rng(24)
        points = [complex(z) for z in planted(rng, 200, 1e-4)]
        for m in (2, 3):
            cap = 1e-9 ** (1.0 / m)
            cands = _knn_candidates(points, list(range(len(points))), m)
            kept = cluster_mod._within_reach(points, cands, m, cap)
            dropped = set(cands) - set(kept)
            assert len(dropped) > len(cands) // 2
            assert all(
                cluster_mod._score_candidate(points, c, m, cap) is None
                for c in dropped
            )

    def test_gate_on_no_candidates(self):
        assert cluster_mod._within_reach([1 + 0j, 2 + 0j], [], 2, 0.1) == []

    @pytest.mark.parametrize("seed", range(3))
    def test_512_root_clouds_with_planted_triples(self, seed):
        # 85 triples of radius 1e-4 among 257 other points: at sigma 1e-9
        # (triple cap 1e-3) most points fetch no neighbour within the reach
        rng = np.random.default_rng([25, seed])
        roots = RootList((complex(z), 1) for z in planted(rng, 512, 1e-4))
        for sigma in (1e-12, 1e-9, 1e-6):
            out = assert_heuristic_parity(roots, sigma)
        assert sum(mult == 3 for _, mult in out) >= 80

    @pytest.mark.parametrize("sigma", [1e-2, 10.0])
    def test_dense_sigma(self, sigma):
        # at sigma 10 the reach of both sizes covers the whole cloud; at
        # 1e-2 the triples taken at size 3 leave rows with no neighbour
        # fetched for size 2, and the query is made again
        rng = np.random.default_rng(26)
        roots = RootList((complex(z), 1) for z in planted(rng, 300, 1e-2))
        assert_heuristic_parity(roots, sigma)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_clouds_at_extreme_scales(self, scale):
        # at 1e200 no finite sigma's cap reaches a radius of 1e-4 * scale,
        # and the coincidence bound sets the reach; at 1e-200 every reach
        # covers the cloud
        rng = np.random.default_rng(27)
        for radius in (1e-15, 1e-4):
            z = planted(rng, 120, radius * scale, scale=scale)
            roots = RootList((complex(r), 1) for r in z)
            for sigma in (0.0, 1e-9, 1e300, math.inf):
                assert_heuristic_parity(roots, sigma)

    def test_fetched_neighbours_all_taken_at_size_three(self, monkeypatch):
        # per gadget a triple of radius 1e-4 about c, a point p at 2.5e-4
        # from c whose three nearest neighbours are the triple, and q, 4e-4
        # beyond p: once the triples are taken, p fetched no neighbour left
        # although q lies within the pair's reach, so the query is made
        # again over the 32 points left, and (p, q) is found
        points = []
        for k in range(16):
            c = complex(0.05 * (k % 4), 0.05 * (k // 4))
            points += [c + 1e-4 * np.exp(1j * (0.3 + 2 * np.pi * j / 3)) for j in range(3)]
            points += [c + 2.5e-4 * np.exp(0.3j), c + 6.5e-4 * np.exp(0.3j)]
        roots = RootList((complex(z), 1) for z in points)
        query, queried = cluster_mod._nearest, []
        monkeypatch.setattr(
            cluster_mod, "_nearest", lambda *a: queried.append(len(a[1])) or query(*a)
        )
        cluster_heuristic(roots, ClusterParams(sigma=1e-7, strategy="heuristic"))
        assert queried == [80, 32]
        monkeypatch.undo()
        out = assert_heuristic_parity(roots, 1e-7)
        assert sorted(mult for _, mult in out) == [2] * 16 + [3] * 16


# ---------------------------------------------------------------- build_graph


class TestBuildGraph:
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_clouds(self, seed, complex_):
        rng = np.random.default_rng([1, seed])
        n_p, n_q = rng.integers(0, 120, 2)
        p = with_mults(rng, cloud(rng, n_p, complex_))
        q = with_mults(rng, cloud(rng, n_q, complex_))
        sigma = float(rng.choice([0.0, 1e-3, 0.05, 0.3, 5.0]))
        assert build_graph(p, q, sigma).edges == oracle_edges(p, q, sigma)

    @pytest.mark.parametrize("offset", [0.0, 1.0, 1e6, -3e12])
    def test_distances_exactly_at_sigma(self, offset):
        rng = np.random.default_rng(2)
        zp = offset + cloud(rng, 40, scale=1e-3 * (1 + abs(offset)) ** 0.5)
        zq = offset + cloud(rng, 40, scale=1e-3 * (1 + abs(offset)) ** 0.5)
        p, q = with_mults(rng, zp), with_mults(rng, zq)
        for i, j in rng.integers(0, 40, (10, 2)):
            sigma = abs(p.entries[i][0] - q.entries[j][0])
            edges = build_graph(p, q, sigma).edges
            assert edges == oracle_edges(p, q, sigma)
            assert any(e.distance == sigma for e in edges)

    def test_rounded_difference_at_sigma(self):
        # 1.0 - (-1e-17) rounds to 1.0 = sigma: an edge whose exact real
        # gap exceeds sigma, so the window must be wider than sigma
        p = RootList([(1.0, 1), (-1e-17, 2)])
        q = RootList([(-1e-17, 1), (1.0, 1)])
        edges = build_graph(p, q, 1.0).edges
        assert edges == oracle_edges(p, q, 1.0)
        assert len(edges) == 4

    def test_exact_pythagorean_boundary(self):
        p = RootList([(0.0, 1), (10.0, 2)])
        q = RootList([(3 + 4j, 1), (-5.0, 1), (5j, 3), (13 + 12j, 1), (10 - 5j, 2)])
        edges = build_graph(p, q, 5.0).edges
        assert edges == oracle_edges(p, q, 5.0)
        assert len(edges) == 4

    def test_sigma_zero_coincident_roots(self):
        shared = [0.0, -0.0, 1.5, 1.5 + 2j, -7.25j]
        p = RootList((z, 1 + k % 3) for k, z in enumerate(shared + [0.5, 2.0]))
        q = RootList((z, 2) for z in shared + [0.25])
        edges = build_graph(p, q, 0.0).edges
        assert edges == oracle_edges(p, q, 0.0)
        assert len(edges) == 2 * 2 + 3  # 0.0 and -0.0 both meet both zeros

    def test_sigma_zero_to_infinite(self):
        p = RootList([(0.0, 1), (1.0, 1)])
        q = RootList([(0.5, 1), (1.0, 1)])
        for sigma in (0.0, 0.6, math.inf):
            assert build_graph(p, q, sigma).edges == oracle_edges(p, q, sigma)
        assert len(build_graph(p, q, math.inf).edges) == 4

    def test_2048_root_cloud(self):
        rng = np.random.default_rng(3)
        p = RootList((complex(z), 1) for z in cloud(rng, 2048))
        q = RootList((complex(z), 1) for z in cloud(rng, 2048))
        edges = build_graph(p, q, 0.02).edges
        assert edges == oracle_edges(p, q, 0.02)
        assert len(edges) > 1000

    @pytest.mark.parametrize("offset", [-1, 0], ids=["python", "numpy"])
    def test_either_side_of_numpy_threshold(self, offset):
        rng = np.random.default_rng(10)
        n = _NUMPY_SWEEP_MIN_N + offset
        for _ in range(4):
            p = with_mults(rng, cloud(rng, n))
            q = with_mults(rng, cloud(rng, int(rng.integers(0, 2 * n))))
            for sigma in (1e-3, 0.05, 0.3):
                assert build_graph(p, q, sigma).edges == oracle_edges(p, q, sigma)

    @pytest.mark.parametrize("sigma", [1.7e308, math.inf])
    def test_distances_beyond_the_double_range(self, monkeypatch, sigma):
        # abs(r - s) raises OverflowError on many of these pairs, so the
        # Python sweep, which reads it as inf, is the reference
        rng = np.random.default_rng(11)
        big = 1.5e308 * cloud(rng, 80)
        p, q = with_mults(rng, big[:70]), with_mults(rng, np.concatenate([big[70:], -big[:60]]))
        monkeypatch.setattr(matching_mod, "_NUMPY_SWEEP_MIN_N", 10**9)
        ref = build_graph(p, q, sigma).edges
        monkeypatch.undo()
        assert build_graph(p, q, sigma).edges == ref
        assert any(e.distance == math.inf for e in ref) == (sigma == math.inf)
        assert any(e.distance > 1e308 for e in ref)

    def test_window_ends_beyond_the_double_range(self, monkeypatch):
        # 1e308 + sigma is the largest double, and real_slack's few ulps
        # carry the window's ends past it
        sigma = sys.float_info.max - 1e308
        rng = np.random.default_rng(16)
        z = np.concatenate([[1e308, -1e308, 1e308 + 1e307j], cloud(rng, 70)])
        p, q = with_mults(rng, z[:64]), with_mults(rng, -z[::-1])
        assert real_slack(p.entries, sigma) + 1e308 == math.inf
        monkeypatch.setattr(matching_mod, "_NUMPY_SWEEP_MIN_N", 10**9)
        ref = build_graph(p, q, sigma).edges
        monkeypatch.undo()
        assert build_graph(p, q, sigma).edges == ref

    @pytest.mark.parametrize("block", [7, _PAIR_BLOCK], ids=["blocks", "one"])
    def test_q_on_one_real_part(self, monkeypatch, block):
        # every P root near real part 0.25 has all of Q in its window,
        # which the sweep takes in blocks of about `block` pairs
        monkeypatch.setattr(matching_mod, "_PAIR_BLOCK", block)
        rng = np.random.default_rng(12)
        zp = np.concatenate([0.25 + 1j * cloud(rng, 40, False), cloud(rng, 60)])
        p = with_mults(rng, zp)
        q = with_mults(rng, 0.25 + 1j * cloud(rng, 100, False))
        for sigma in (0.0, 0.01, 0.5):
            assert build_graph(p, q, sigma).edges == oracle_edges(p, q, sigma)
        assert len(build_graph(p, q, 0.5).edges) > 1000

    def test_signed_zeros(self):
        zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
        rng = np.random.default_rng(13)
        p = RootList((z, 1 + k % 3) for k, z in enumerate(zeros + list(cloud(rng, 70))))
        q = RootList((z, 2) for z in zeros + [-0.0 + 1e-300j] + list(cloud(rng, 70)))
        assert len(p) >= _NUMPY_SWEEP_MIN_N
        for sigma in (0.0, 5e-324, 1e-3):
            edges = build_graph(p, q, sigma).edges
            assert edges == oracle_edges(p, q, sigma)
        assert sum(e.distance == 0.0 for e in build_graph(p, q, 0.0).edges) == 16

    def test_sigma_zero_and_infinite_at_size(self):
        rng = np.random.default_rng(14)
        z = cloud(rng, 90)
        p = with_mults(rng, np.concatenate([z[:60], z[:10]]))
        q = with_mults(rng, np.concatenate([z[50:], z[:5]]))
        for sigma in (0.0, math.inf):
            edges = build_graph(p, q, sigma).edges
            assert edges == oracle_edges(p, q, sigma)
        assert len(build_graph(p, q, math.inf).edges) == len(p) * len(q)


# ---------------------------------------------------------------- kNN candidates


class TestKnnCandidates:
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_clouds(self, seed, complex_, m):
        rng = np.random.default_rng([4, seed])
        points = [complex(z) for z in cloud(rng, 150, complex_)]
        active = sorted(rng.choice(150, size=int(rng.integers(13, 150)), replace=False).tolist())
        assert _knn_candidates(points, active, m) == oracle_knn(points, active, m)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_equidistant_ties(self, m):
        grid = [complex(a, b) for a in range(6) for b in range(6)]
        circle = [10 + 10j + complex(math.cos(t), math.sin(t)) for t in np.arange(8) * math.pi / 4]
        points = grid + circle + [0.5 + 0.5j, 10 + 10j]
        active = list(range(len(points)))
        assert _knn_candidates(points, active, m) == oracle_knn(points, active, m)

    def test_distances_one_ulp_apart(self):
        # abs(p1) exceeds abs(p2) by one ulp; np.abs on complex orders them
        # the other way, so only the exact modulus picks p2 for the origin
        p1 = 0.9081006056533703 + 0.1945275088089863j
        p2 = -0.11839165558890176 - 0.9211248979147002j
        assert abs(p1) > abs(p2)
        points = [0j, p1, p2, p1 + 0.01, p2 - 0.01j] + [complex(10 + k) for k in range(10)]
        active = list(range(len(points)))
        got = _knn_candidates(points, active, 2)
        assert got == oracle_knn(points, active, 2)
        assert (0, 2) in got and (0, 1) not in got

    @pytest.mark.parametrize("m", [2, 3])
    def test_coincident_points(self, m):
        points = [0.0j] * 9 + [1.0 + 0j] * 4 + [2.0 + 1j, 2.0 + 1j, 3.0 + 0j] + [1e-170j, 2e-170j]
        active = list(range(len(points)))
        assert _knn_candidates(points, active, m) == oracle_knn(points, active, m)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_scales(self, scale):
        rng = np.random.default_rng(5)
        points = [complex(z) * scale for z in cloud(rng, 40)]
        active = list(range(40))
        assert _knn_candidates(points, active, 3) == oracle_knn(points, active, 3)

    @pytest.mark.parametrize("count", [ENUMERATION_LIMIT, ENUMERATION_LIMIT + 1])
    def test_heuristic_either_side_of_enumeration_limit(self, monkeypatch, count):
        rng = np.random.default_rng(6)
        centers = cloud(rng, count)
        points = []
        for c in centers:  # triples of radius 1e-3, plus their centers' jitter
            points += [c + 1e-3 * np.exp(2j * np.pi * (k / 3 + rng.uniform(0, 0.02))) for k in range(3)]
        roots = RootList((complex(z), 1) for z in points[:count])
        params = ClusterParams(sigma=1e-9, strategy="heuristic")
        fast = cluster_heuristic(roots, params)
        monkeypatch.setattr(
            cluster_mod,
            "_knn_candidates",
            lambda points, active, m, radius_cap, nearest: oracle_knn(points, active, m),
        )
        assert cluster_heuristic(roots, params) == fast

    def test_heuristic_clouds_with_triples(self, monkeypatch):
        rng = np.random.default_rng(7)
        centers = cloud(rng, 40)
        pts = [c + 1e-4 * np.exp(2j * np.pi * k / 3) for c in centers[:10] for k in range(3)]
        roots = RootList((complex(z), 1) for z in list(centers[10:]) + pts)
        params = ClusterParams(sigma=1e-9, strategy="heuristic", max_multiplicity=4)
        fast = cluster_heuristic(roots, params)
        monkeypatch.setattr(
            cluster_mod,
            "_knn_candidates",
            lambda points, active, m, radius_cap, nearest: oracle_knn(points, active, m),
        )
        assert cluster_heuristic(roots, params) == fast

    def test_2048_point_cloud(self):
        rng = np.random.default_rng(8)
        points = [complex(z) for z in cloud(rng, 2048)]
        active = list(range(2048))
        assert _knn_candidates(points, active, 3) == oracle_knn(points, active, 3)

    def test_queries_fetch_at_most_m_plus_1_a_point(self, monkeypatch):
        # 2048 uniform points at sigma 1e-2, where the reach holds many
        # points: each query fetches at most m + 1 neighbours a point, and
        # no all-pairs search (a tree with only `query`) is made
        fetched = []

        class Tree:
            def __init__(self, data):
                self.tree = cKDTree(data)

            def query(self, x, k, **kw):
                dist, near = self.tree.query(x, k=k, **kw)
                fetched.append((near.size, len(x)))
                return dist, near

        rng = np.random.default_rng(15)
        roots = RootList((complex(z), 1) for z in cloud(rng, 2048))
        params = ClusterParams(sigma=1e-2, strategy="heuristic")
        monkeypatch.setattr(cluster_mod, "cKDTree", Tree)
        out = cluster_heuristic(roots, params)
        monkeypatch.undo()
        assert fetched[0] == (2048 * 4, 2048)
        assert all(size <= count * 4 for size, count in fetched)
        assert out == oracle_heuristic(roots, params)


# ---------------------------------------------------------------- bottleneck


def pairwise_between(f, g):
    with np.errstate(over="ignore"):  # beyond the double range is inf
        return np.abs(np.asarray(f)[:, None] - np.asarray(g)[None, :])


N = _PAIR_FIRST_MIN_N


def certificate_pair(rng, n, groups):
    """A raw root cloud and its reconstruction, in shuffled orders, and the
    number of roots they do not share: each of `groups` perturbed doubles
    and triples becomes its centroid, repeated, and every other root
    passes through unchanged."""
    sizes = [2, 3] * (groups // 2) + [3] * (groups % 2)
    singles = cloud(rng, n - sum(sizes))
    raw, rebuilt = [singles], [singles]
    for m, center in zip(sizes, cloud(rng, groups)):
        angles = 2 * np.pi * (np.arange(m) / m + rng.uniform(0, 0.02, m))
        group = center + 1e-4 * np.exp(1j * angles)
        raw.append(group)
        rebuilt.append(np.repeat(sum(group) / m, m))
    raw, rebuilt = np.concatenate(raw), np.concatenate(rebuilt)
    return rng.permutation(raw), rng.permutation(rebuilt), sum(sizes)


class TestBottleneck:
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64, 256])
    def test_random_root_vectors(self, n, complex_):
        rng = np.random.default_rng([9, n])
        for _ in range(5):
            dist = pairwise_between(cloud(rng, n, complex_), cloud(rng, n, complex_))
            assert bits(_bottleneck(dist)) == bits(oracle_bottleneck(dist))

    def test_both_paths_taken(self):
        rng = np.random.default_rng(10)
        at_lower_bound = above = 0
        for _ in range(60):
            n = int(rng.integers(2, 12))
            z = cloud(rng, n)
            dist = pairwise_between(z, z + 0.3 * cloud(rng, n))
            got = _bottleneck(dist)
            assert bits(got) == bits(oracle_bottleneck(dist))
            lb = max(dist.min(axis=1).max(), dist.min(axis=0).max())
            at_lower_bound += got == lb
            above += got > lb
        assert at_lower_bound and above

    @pytest.mark.parametrize("n", [3, 8, 20])
    def test_tied_integer_distances(self, n):
        rng = np.random.default_rng([11, n])
        for _ in range(10):
            dist = rng.integers(0, 4, (n, n)).astype(float)
            assert bits(_bottleneck(dist)) == bits(oracle_bottleneck(dist))

    def test_coincident_roots(self):
        f = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
        g = np.array([0.0, 1.0, 1.0, 1.0, 2.0])
        dist = pairwise_between(f, g)
        assert bits(_bottleneck(dist)) == bits(oracle_bottleneck(dist))

    def test_nan_entries(self):
        dist = pairwise_between([0.0, 1.0, math.nan], [0.5, 1.0, 2.0])
        assert bits(_bottleneck(dist)) == bits(oracle_bottleneck(dist))

    # root_pseudometric(rho="max") against the oracle on all n x n
    # distances, with the sizes of the blocks _bottleneck searched: [k]
    # where the shared copies pair first and the k x k bound is the
    # optimum, [k, n] where it is not and the dense search follows, [n] on
    # the dense path alone, [] when every coordinate is shared.

    @pytest.fixture
    def searched(self, monkeypatch):
        sizes = []

        def spy(dist):
            sizes.append(dist.shape[0])
            return _bottleneck(dist)

        monkeypatch.setattr(metric_mod, "_bottleneck", spy)
        return sizes

    def check(self, searched, f, g):
        f, g = np.asarray(f, dtype=complex), np.asarray(g, dtype=complex)
        searched.clear()
        got = root_pseudometric(f, g, rho="max")
        assert bits(got) == bits(oracle_bottleneck(pairwise_between(f, g)) / len(f))
        return got, list(searched)

    @pytest.mark.parametrize("n", [16, N - 1, N, 2 * N, 512])
    def test_certificate_pairs(self, searched, n):
        rng = np.random.default_rng([20, n])
        for _ in range(3):
            raw, rebuilt, unshared = certificate_pair(rng, n, max(2, n // 32))
            got, sizes = self.check(searched, raw, rebuilt)
            assert got > 0.0
            assert sizes == ([unshared] if n >= N else [n])

    def test_counterexample_above_the_threshold(self, searched):
        # {-1, 0} against {0, 1} with shared far roots: pairing the shared 0
        # gives 2 against a lower bound of 1, so the dense search decides
        shared = 10.0 + np.arange(N - 2)
        f = np.concatenate([[-1.0, 0.0], shared])
        g = np.concatenate([[0.0, 1.0], shared[::-1]])
        got, sizes = self.check(searched, f, g)
        assert got == 1.0 / N
        assert sizes == [1, N]

    @pytest.mark.parametrize("n", [N - 1, N, 300])
    def test_all_shared_and_none_shared(self, searched, n):
        rng = np.random.default_rng([21, n])
        f = cloud(rng, n)
        got, sizes = self.check(searched, f, rng.permutation(f))
        assert bits(got) == bits(0.0)
        assert sizes == ([] if n >= N else [n])
        got, sizes = self.check(searched, f, cloud(rng, n))
        assert sizes == [n]

    def test_signed_zeros(self, searched):
        rng = np.random.default_rng(22)
        zeros = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)]
        rest = cloud(rng, N - 4)
        f = rng.permutation(np.concatenate([np.array(zeros, dtype=complex), rest]))
        g = np.concatenate([np.zeros(4), rest])
        g[-3:] += 1e-3
        got, sizes = self.check(searched, f, g)
        assert got > 0.0 and sizes == [3]

    @pytest.mark.parametrize("seed", range(6))
    def test_unequal_copy_counts(self, searched, seed):
        rng = np.random.default_rng([23, seed])
        values = cloud(rng, 8)
        counts_f, counts_g = rng.integers(0, 6, (2, 8))
        f, g = np.repeat(values, counts_f), np.repeat(values, counts_g)
        n = N + max(len(f), len(g))
        both = cloud(rng, n - max(len(f), len(g)))
        f = rng.permutation(np.concatenate([f, cloud(rng, n - len(f) - len(both)), both]))
        g = rng.permutation(np.concatenate([g, cloud(rng, n - len(g) - len(both)), both]))
        _, sizes = self.check(searched, f, g)
        k = sum(oracle_unshared(f, g)[0].values())
        assert sizes in ([k], [k, n])

    def test_distances_beyond_the_double_range(self, searched):
        rng = np.random.default_rng(24)
        big = 1e308 * (1 + 1j)
        # the lone far root of each side: its nearest root is 1.4e308 away,
        # while the two far roots are inf apart, so the dense search decides
        shared = cloud(rng, N - 1)
        got, sizes = self.check(
            searched, np.append(shared, big), np.append(shared[::-1], -big)
        )
        assert math.isfinite(got) and sizes == [1, N]
        # near -big, every root is inf from big: the bound inf is attained
        shared = -big + 1e306 * cloud(rng, N - 1)
        got, sizes = self.check(searched, np.append(shared, big), np.append(shared, -big))
        assert got == math.inf and sizes == [1]




# ---------------------------------------------------------------- from_roots


class TestFromRoots:
    @pytest.mark.parametrize("degree", [0, 1, 4, 16, 64])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_random_roots(self, degree, complex_):
        rng = np.random.default_rng([12, degree])
        z = cloud(rng, degree, complex_)
        roots = RootList((complex(r), 1) for r in z)
        nodes = np.cos(np.pi * (np.arange(degree + 3) + 0.5) / (degree + 3)) * 1.1
        got = from_roots(roots, nodes).values
        assert bits(got) == bits(oracle_values(roots, nodes))

    def test_conjugate_pairs_at_real_nodes(self):
        # equal moduli |x - r| = |x - conj(r)| make the stable order matter
        rng = np.random.default_rng(13)
        z = cloud(rng, 10)
        roots = RootList((complex(r), 1) for r in list(z) + list(np.conj(z)))
        nodes = np.linspace(-1, 1, 24)
        got = from_roots(roots, nodes).values
        assert bits(got) == bits(oracle_values(roots, nodes))

    def test_coincident_expanded_multiplicities(self):
        roots = RootList([(0.5, 4), (0.5 + 0.25j, 3), (-0.75, 5), (0.5 - 0.25j, 3)])
        nodes = np.linspace(-2, 2, roots.total_multiplicity() + 2)
        assert bits(roots.expand()) == bits(oracle_expand(roots))
        got = from_roots(roots, nodes).values
        assert bits(got) == bits(oracle_values(roots, nodes))

    @pytest.mark.parametrize("lead", [1.0, -2.5, 3 - 4j, 1e-300j, 0.0])
    def test_complex_leading_coeff_and_complex_nodes(self, lead):
        rng = np.random.default_rng(14)
        roots = with_mults(rng, cloud(rng, 6))
        nodes = cloud(rng, roots.total_multiplicity() + 1)
        got = from_roots(roots, nodes, leading_coeff=lead).values
        assert bits(got) == bits(oracle_values(roots, nodes, lead))

    def test_empty_root_list(self):
        assert bits(RootList().expand()) == bits(oracle_expand(RootList()))
        got = from_roots(RootList(), [0.0, 1.0], leading_coeff=2 + 1j).values
        assert bits(got) == bits(oracle_values(RootList(), [0.0, 1.0], 2 + 1j))


# ---------------------------------------------------------------- rho = "sum"


def moved(rng, f, share, complex_=True):
    """f with all but a share of its coordinates moved, in shuffled order."""
    g = np.array(f, dtype=complex)
    k = len(g) - int(round(share * len(g)))
    idx = rng.choice(len(g), size=k, replace=False)
    g[idx] += 0.05 * cloud(rng, k, complex_)
    return rng.permutation(g)


class TestSumAssignment:
    @pytest.mark.parametrize("share", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 64])
    def test_random_root_vectors(self, n, complex_, share):
        rng = np.random.default_rng([15, n, int(share * 2)])
        for _ in range(5):
            f = cloud(rng, n, complex_)
            g = moved(rng, f, share, complex_)
            got = root_pseudometric(f, g)
            assert bits(got) == bits(oracle_sum(f, g))
            if share == 1.0:
                assert bits(got) == bits(0.0)

    def test_coordinates_one_ulp_apart(self):
        # near-equal is not equal: these must go through the assignment
        rng = np.random.default_rng(16)
        f = cloud(rng, 12)
        g = f.copy()
        g[:4] = np.nextafter(g[:4].real, np.inf) + 1j * g[:4].imag
        g[4:8] += 1e-13
        g = rng.permutation(g)
        got = root_pseudometric(f, g)
        assert got > 0.0
        assert bits(got) == bits(oracle_sum(f, g))

    def test_signed_zeros(self):
        zeros = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)]
        f = np.array(zeros + [1.0 + 2j, -3.0], dtype=complex)
        g = np.array([0.0, 0.0, 0.0, 0.0, 1.0 + 2.5j, -3.0 + 1e-3j], dtype=complex)
        rows, cols = _unshared(np.concatenate([f, g]), len(f))
        assert rows.tolist() == [4, 5] and cols.tolist() == [4, 5]
        assert bits(root_pseudometric(f, g)) == bits(oracle_sum(f, g))
        assert bits(root_pseudometric(f[:4], g[:4])) == bits(0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_repeated_shared_values(self, seed):
        # shared values held a different number of times by each side: the
        # surplus copies are interchangeable, so the optimum is not unique
        rng = np.random.default_rng([17, seed])
        values = cloud(rng, 5)
        counts_f, counts_g = rng.integers(0, 4, (2, 5))
        f = np.repeat(values, counts_f)
        g = np.repeat(values, counts_g)
        n = max(len(f), len(g)) + 2
        f = rng.permutation(np.concatenate([f, cloud(rng, n - len(f))]))
        g = rng.permutation(np.concatenate([g, cloud(rng, n - len(g))]))
        rows, cols = _unshared(np.concatenate([f, g]), n)
        assert (Counter(map(complex, f[rows])), Counter(map(complex, g[cols]))) == (
            oracle_unshared(f, g)
        )
        assert math.isclose(root_pseudometric(f, g), oracle_sum(f, g), rel_tol=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_unshared_against_multiset_difference(self, seed):
        rng = np.random.default_rng([18, seed])
        pool = np.array([0.0, -0.0, 1.0, 1j, 1.0 + 1j, complex(2.0, -0.0), 2.0, 3.0j])
        for _ in range(50):
            n = int(rng.integers(1, 12))
            f, g = rng.choice(pool, n), rng.choice(pool, n)
            rows, cols = _unshared(np.concatenate([f, g]), n)
            assert (Counter(map(complex, f[rows])), Counter(map(complex, g[cols]))) == (
                oracle_unshared(f, g)
            )
            assert math.isclose(root_pseudometric(f, g), oracle_sum(f, g), rel_tol=1e-15)

    def test_2048_root_cloud_with_triples(self):
        # the certificate's input on a wide root cloud: singletons pass
        # through unchanged, each perturbed triple becomes its centroid
        rng = np.random.default_rng(19)
        singles = cloud(rng, 2048 - 3 * 64)
        centers = cloud(rng, 64)
        angles = 2 * np.pi * (np.arange(3) / 3 + rng.uniform(0, 0.02, (64, 3)))
        triples = centers[:, None] + 1e-4 * np.exp(1j * angles)
        centroids = [sum(t) / 3 for t in triples]
        raw = np.concatenate([singles, triples.ravel()])
        rebuilt = np.concatenate([singles, np.repeat(centroids, 3)])
        raw, rebuilt = rng.permutation(raw), rng.permutation(rebuilt)
        got = root_pseudometric(raw, rebuilt)
        assert got > 0.0
        assert bits(got) == bits(oracle_sum(raw, rebuilt))


# ---------------------------------------------------------------- Aberth


def oracle_aberth(p, wf):
    """_aberth with fresh arrays every sweep."""
    x, n = p.nodes, p.degree
    ends = np.sort(x.real)
    z = 0.5 * (ends[1:] + ends[:-1]) + 1e-3j * p.spread
    active = np.arange(n)
    tol, size = 4 * (n + 1) * EPS, np.abs(wf)
    for _ in range(rootfind_mod._ABERTH_SWEEPS):
        za = z[active]
        inv = za[:, None] - x
        np.reciprocal(inv, out=inv)
        s, total = inv @ wf, inv.sum(axis=1)
        done = np.abs(s) <= tol * (np.abs(inv) @ size)
        newton = s / (s * total - np.square(inv, out=inv) @ wf)
        repel = np.reciprocal(za[:, None] - z)
        repel[np.arange(len(active)), active] = 0.0
        step = newton / (1.0 - newton * repel.sum(axis=1))
        step[~np.isfinite(step)] = 0.0
        done |= np.abs(step) <= EPS * np.abs(za)
        z[active] = za - step
        active = active[~done]
        if not len(active):
            return z
    return None


def oracle_inclusion_disks(p, wf, z):
    """_inclusion_disks with fresh arrays and a full scan for roots on nodes."""
    n = len(z)
    diff = z[:, None] - p.nodes
    hit_rows, hit_cols = np.nonzero(diff == 0.0)
    log_p = np.log(np.abs(diff)).sum(axis=1)
    log_p += np.log(np.abs(np.reciprocal(diff, out=diff) @ wf))
    log_p[hit_rows] = np.log(np.abs(wf[hit_cols] / p.weights[hit_cols]))
    gaps = np.abs(z[:, None] - z)
    np.fill_diagonal(gaps, 1.0)
    log_w = log_p - np.log(abs(wf.sum())) - np.log(gaps).sum(axis=1)
    radii = n * np.exp(log_w)
    scale = math.log(np.abs(p.weights).max()) + math.log(p.peak)
    residuals = np.exp(log_p + scale)
    np.fill_diagonal(gaps, np.inf)
    return radii, residuals, gaps <= radii[:, None] + radii


def oracle_aberth_report(p):
    """(roots, radii, residuals, backward_note) of _aberth_report, with the
    first meeting pair taken from the list of all of them, or None where
    it gives way to QZ."""
    wf = p._node_set.column * rootfind_mod._unit_values(p.values, p.peak)
    with np.errstate(all="ignore"):
        z = oracle_aberth(p, wf)
        if z is None or not np.isfinite(z).all():
            return None
        z = z[np.lexsort((z.imag, z.real))]
        radii, residuals, meet = oracle_inclusion_disks(p, wf, z)
    if not (np.isfinite(radii).all() and np.isfinite(residuals).all()):
        return None
    far = np.abs(z - p._node_set.center) > rootfind_mod._ABERTH_FAR * p.spread
    if (radii[far] > p.spread).any():
        return None
    note = None
    if meet.any():
        a, b = np.argwhere(meet)[0]
        text = rootfind_mod._root_text
        note = (
            "%d of %d roots have inclusion disks that meet another's, "
            "first %s and %s (radii %.3g and %.3g); the data do not "
            "separate them"
            % (np.count_nonzero(meet.any(axis=1)), len(z), text(z[a]),
               text(z[b]), radii[a], radii[b])
        )
    return z, radii, residuals, note


def assert_aberth_parity(p):
    """_aberth_report(p) gives the oracle's roots, radii, residuals and
    note byte for byte, or gives way to QZ where it does; returns the
    report."""
    got, want = rootfind_mod._aberth_report(p), oracle_aberth_report(p)
    if want is None:
        assert got is None
        return got
    z, radii, residuals, note = want
    assert bits(got.roots) == bits(z)
    assert bits(got.radii) == bits(radii)
    assert bits(got.residuals) == bits(residuals)
    assert got.backward_note == note
    assert got.discarded_count == 2
    return got


def aberth_nodes(kind, n, rng):
    """n+1 distinct real nodes of the given kind."""
    cheb = np.cos((2 * np.arange(n + 1) + 1) * np.pi / (2 * n + 2))
    if kind == "chebyshev":
        return cheb
    if kind == "equispaced":
        return np.linspace(-1.0, 1.0, n + 1)
    if kind == "random":
        return np.sort(rng.uniform(-1.0, 1.0, n + 1))
    return 0.3 + 5e-4 * cheb  # narrow: width 1e-3


def aberth_values(kind, nodes, rng):
    n = len(nodes) - 1
    if kind == "real":
        return rng.standard_normal(n + 1)
    if kind == "complex":
        return rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    lo, hi = nodes.min(), nodes.max()
    planted = lo + (hi - lo) * rng.uniform(0.05, 0.95, n)
    return np.prod(nodes[:, None] - planted, axis=1)


class TestAberthWorkspace:
    """The Aberth sweeps and inclusion disks, computed in one reused
    workspace, against the allocating code they replace."""

    @pytest.mark.parametrize("values", ["real", "complex", "planted"])
    @pytest.mark.parametrize("nodes", ["chebyshev", "equispaced", "random"])
    @pytest.mark.parametrize("n", [64, 113, 200])
    def test_seeded_sides(self, n, nodes, values):
        rng = np.random.default_rng([20, n, len(nodes), len(values)])
        x = aberth_nodes(nodes, n, rng)
        assert_aberth_parity(LagrangePoly(x, aberth_values(values, x, rng)))

    # on an interval 1e-3 wide the weights overflow from degree 88
    @pytest.mark.parametrize("values", ["real", "complex", "planted"])
    @pytest.mark.parametrize("n", [64, 80])
    def test_seeded_narrow_sides(self, n, values):
        rng = np.random.default_rng([20, n, len(values)])
        x = aberth_nodes("narrow", n, rng)
        assert_aberth_parity(LagrangePoly(x, aberth_values(values, x, rng)))

    @pytest.mark.parametrize("n", [64, 150])
    def test_planted_root_exactly_on_a_node(self, n):
        x = aberth_nodes("chebyshev", n, None)
        planted = np.append(np.cos(np.arange(1, n) * np.pi / n), x[10])
        report = assert_aberth_parity(LagrangePoly(x, np.prod(x[:, None] - planted, axis=1)))
        (at,) = np.flatnonzero(report.roots == x[10])
        assert report.residuals[at] == 0.0 and report.radii[at] == 0.0

    def test_sweep_cap_fallback(self, monkeypatch):
        rng = np.random.default_rng(21)
        p = LagrangePoly(aberth_nodes("chebyshev", 128, rng), rng.uniform(-1, 1, 129))
        assert assert_aberth_parity(p) is not None
        monkeypatch.setattr(rootfind_mod, "_ABERTH_SWEEPS", 3)
        assert assert_aberth_parity(p) is None

    def test_lower_degree_data_fall_back(self):
        x = aberth_nodes("chebyshev", 64, None)
        planted = 0.9 * np.cos(np.arange(1, 61) * np.pi / 61)
        assert assert_aberth_parity(LagrangePoly(x, np.prod(x[:, None] - planted, axis=1))) is None

    @pytest.mark.parametrize("n", [128, 200])
    def test_several_meeting_pairs_name_the_first(self, n):
        # 0.95-scaled Chebyshev roots sampled by their product: many disks
        # meet, and the note names the first pair in row-major order
        x = aberth_nodes("chebyshev", n, None)
        report = assert_aberth_parity(LagrangePoly(x, np.prod(x[:, None] - 0.95 * x[:-1], axis=1)))
        z, rho = report.roots, report.radii
        gaps = np.abs(z[:, None] - z)
        np.fill_diagonal(gaps, np.inf)
        pairs = np.argwhere(gaps <= rho[:, None] + rho)
        assert len(pairs) > 2
        a, b = pairs[0]
        assert report.backward_note.startswith(
            "%d of %d roots have inclusion disks that meet another's, first %s and %s"
            % (len(set(pairs[:, 0].tolist())), n, rootfind_mod._root_text(z[a]),
               rootfind_mod._root_text(z[b]))
        )


def oracle_starts(p):
    """Aberth's start record of p's nodes with fresh arrays: the starts,
    sum_k 1/(z0_i - x_k) and sum_{j != i} 1/(z0_i - z0_j)."""
    x, n = p.nodes, p.degree
    ends = np.sort(x.real)
    z = 0.5 * (ends[1:] + ends[:-1]) + 1e-3j * p.spread
    with np.errstate(all="ignore"):  # 1/0 on the diagonal
        repel = np.reciprocal(z[:, None] - z)
    repel[np.arange(n), np.arange(n)] = 0.0
    return z, np.reciprocal(z[:, None] - x).sum(axis=1), repel.sum(axis=1)


def assert_starts_parity(p, monkeypatch):
    """A roots call on p's node set, with its record taken away first,
    builds the oracle's record byte for byte, read-only."""
    monkeypatch.setattr(p._node_set, "starts", None)
    rootfind_mod.roots(p)
    record = p._node_set.starts
    for got, want in zip(record, oracle_starts(p), strict=True):
        assert bits(got) == bits(want)
        assert not got.flags.writeable


class TestAberthStarts:
    """Aberth's start record, built once per real node set of 65 or more
    nodes and kept with it, against fresh arrays."""

    @pytest.mark.parametrize("nodes", ["chebyshev", "equispaced", "random"])
    @pytest.mark.parametrize("n", [64, 113, 200])
    def test_record_matches_fresh_arrays(self, n, nodes, monkeypatch):
        rng = np.random.default_rng([30, n, len(nodes)])
        x = aberth_nodes(nodes, n, rng)
        assert_starts_parity(LagrangePoly(x, rng.standard_normal(n + 1)), monkeypatch)

    # on an interval 1e-3 wide the weights overflow from degree 88
    @pytest.mark.parametrize("n", [64, 80])
    def test_narrow_record_matches_fresh_arrays(self, n, monkeypatch):
        rng = np.random.default_rng([30, n])
        x = aberth_nodes("narrow", n, rng)
        assert_starts_parity(LagrangePoly(x, rng.standard_normal(n + 1)), monkeypatch)

    def test_equal_nodes_share_one_record_and_warm_calls_match_cold_ones(self, monkeypatch):
        rng = np.random.default_rng(31)
        x = aberth_nodes("chebyshev", 150, None) + 0.375  # nodes no other test uses
        p = LagrangePoly(x, rng.standard_normal(151))
        q = LagrangePoly(x.copy(), p.values * (1 - 0.5j) + 0.25)
        node_set = p._node_set
        assert q._node_set is node_set and node_set.starts is None
        cold_p = rootfind_mod.roots(p)
        record = node_set.starts
        assert record is not None
        warm_q, warm_p = rootfind_mod.roots(q), rootfind_mod.roots(p)
        assert node_set.starts is record
        monkeypatch.setattr(node_set, "starts", None)
        cold_q = rootfind_mod.roots(q)
        assert node_set.starts is not record
        for warm, cold in ((warm_p, cold_p), (warm_q, cold_q)):
            assert warm.radii is not None
            for name in ("roots", "radii", "residuals"):
                assert bits(getattr(warm, name)) == bits(getattr(cold, name))
            assert warm.backward_note == cold.backward_note

    def test_complex_nodes_and_low_degrees_build_none(self):
        rng = np.random.default_rng(32)
        circle = 0.9 * np.exp(2j * np.pi * np.arange(101) / 101)
        for x in (circle, aberth_nodes("chebyshev", 63, None) + 0.375):
            p = LagrangePoly(x, rng.standard_normal(len(x)))
            report = rootfind_mod.roots(p)
            assert report.radii is None and p._node_set.starts is None

    @pytest.mark.parametrize("n", [256, 512])
    def test_cold_call_memory_peak_stays_below_40_n_squared_bytes(self, n):
        # a first call builds the record in the workspace the sweeps use
        x = aberth_nodes("chebyshev", n, None) + 0.375  # nodes no other test uses
        planted = np.cos(np.arange(n, 0, -1) * np.pi / (n + 1)) + 0.375
        p = LagrangePoly(x, np.prod(x[:, None] - planted, axis=1))
        assert p._node_set.starts is None
        tracemalloc.start()
        try:
            report = rootfind_mod.roots(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.radii is not None and p._node_set.starts is not None
        assert peak <= 40 * n * n
