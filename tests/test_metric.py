"""Root pseudometric: assignment solvers against brute-force permutations."""

from itertools import permutations

import numpy as np
import pytest

from laggcd import (
    LagrangePoly,
    LengthMismatchError,
    RootList,
    certify_distance,
    from_roots,
    root_pseudometric,
    roots as find_roots,
)
from conftest import PX, PY


def brute_force(f, g, rho):
    n = len(f)
    best = None
    for perm in permutations(range(n)):
        diffs = [abs(f[perm[i]] - g[i]) for i in range(n)]
        val = sum(diffs) if rho == "sum" else max(diffs)
        if best is None or val < best:
            best = val
    return best / n


def random_vector(rng, n):
    return rng.uniform(-3, 3, n) + 1j * rng.uniform(-3, 3, n)


class TestBasics:
    def test_identity_zero(self, rng):
        f = random_vector(rng, 5)
        assert root_pseudometric(f, f) == 0.0

    def test_permutation_invariance(self):
        assert root_pseudometric([0.0, 1.0], [1.0, 0.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            root_pseudometric([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(LengthMismatchError):
            root_pseudometric([], [])

    def test_bad_rho(self):
        with pytest.raises(ValueError):
            root_pseudometric([1.0], [1.0], rho="median")

    def test_accepts_rootlist_and_rootvector(self):
        rl = RootList([(1.0, 2)])
        rv = (1.0 + 0j, 1.0 + 0j)
        assert root_pseudometric(rl, rv) == 0.0

    def test_single_coordinate_shift(self):
        # shifting one root of n by 2*sigma*n moves the distance to 2*sigma
        sigma, n = 0.1, 4
        f = [0.0, 10.0, 20.0, 30.0]
        g = [0.0, 10.0, 20.0, 30.0 + 2 * sigma * n]
        assert root_pseudometric(f, g) == pytest.approx(2 * sigma)


class TestOracleEquivalence:
    @pytest.mark.parametrize("rho", ["sum", "max"])
    def test_matches_brute_force(self, rng, rho):
        for _ in range(50):
            n = int(rng.integers(1, 7))
            f, g = random_vector(rng, n), random_vector(rng, n)
            got = root_pseudometric(f, g, rho=rho)
            want = brute_force(list(f), list(g), rho)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("n", [7, 8])
    def test_matches_brute_force_larger(self, rng, n):
        for _ in range(3):
            f, g = random_vector(rng, n), random_vector(rng, n)
            for rho in ("sum", "max"):
                got = root_pseudometric(f, g, rho=rho)
                want = brute_force(list(f), list(g), rho)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


class TestAxioms:
    @pytest.mark.parametrize("rho", ["sum", "max"])
    def test_symmetry_and_triangle(self, rng, rho):
        for _ in range(200):
            n = int(rng.integers(1, 7))
            f, g, h = (random_vector(rng, n) for _ in range(3))
            dfg = root_pseudometric(f, g, rho=rho)
            dgf = root_pseudometric(g, f, rho=rho)
            assert dfg == pytest.approx(dgf, rel=1e-12, abs=1e-14)
            dfh = root_pseudometric(f, h, rho=rho)
            dhg = root_pseudometric(h, g, rho=rho)
            assert dfg <= dfh + dhg + 1e-12
            assert dfg >= 0.0

    def test_scale_invariance_via_roots(self):
        # roots ignore the leading coefficient, so d(cf, f) = 0
        roots = RootList([(1.0, 1), (2.5, 2)])
        nodes = [-1.0, 0.0, 1.0, 2.0]
        p = from_roots(roots, nodes, leading_coeff=1.0)
        cp = from_roots(roots, nodes, leading_coeff=-17.0)
        # budget dominated by double-root splitting in the rootfinder
        d, ok = certify_distance(find_roots(p).roots, roots, sigma=1e-5)
        dc, okc = certify_distance(find_roots(cp).roots, roots, sigma=1e-5)
        assert ok and okc
        assert d == pytest.approx(dc, abs=1e-6)


class TestCertify:
    def test_reference_certificate(self, ref_p):
        pt = RootList([(1.63375, 4), (2.8, 2), (1.0, 1)])
        d, ok = certify_distance(find_roots(ref_p).roots, pt, sigma=0.5)
        assert ok
        assert d < 0.2

    def test_certificate_failure(self):
        f = [0.0, 1.0, 2.0]
        pt = RootList([(0.0, 1), (1.0, 1), (8.0, 1)])
        d, ok = certify_distance(tuple(map(complex, f)), pt, sigma=0.5)
        assert not ok
        assert d == pytest.approx(2.0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            certify_distance(RootList([(0.0, 1)]), RootList([(0.0, 2)]), 1.0)
