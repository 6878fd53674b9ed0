"""Node/value representation: weights, evaluation, materialization."""

import warnings

import numpy as np
import pytest

from laggcd import (
    DegenerateInputError,
    DuplicateNodesError,
    InsufficientNodesError,
    LagrangePoly,
    NearDuplicateNodesWarning,
    RootList,
    barycentric_weights,
    evaluate,
    from_roots,
)
from conftest import PX, PY


def product_weights(nodes):
    """Independent oracle: direct product formula, plain Python loops."""
    out = []
    for k, xk in enumerate(nodes):
        prod = 1.0 + 0.0j
        for j, xj in enumerate(nodes):
            if j != k:
                prod *= xk - xj
        out.append(1.0 / prod)
    return out


def newton_eval(xs, ys, z):
    """Independent oracle: Newton divided differences + nested evaluation."""
    n = len(xs)
    coef = np.array(ys, dtype=complex)
    for j in range(1, n):
        coef[j:] = (coef[j:] - coef[j - 1 : -1]) / (np.array(xs[j:]) - np.array(xs[: n - j]))
    acc = coef[-1]
    for k in range(n - 2, -1, -1):
        acc = acc * (z - xs[k]) + coef[k]
    return acc


class TestBarycentricWeights:
    def test_two_nodes(self):
        assert np.allclose(barycentric_weights([0, 1]), [-1, 1])

    def test_three_nodes(self):
        assert np.allclose(barycentric_weights([0, 1, 2]), [0.5, -1, 0.5])

    def test_single_node(self):
        assert np.array_equal(barycentric_weights([3.7]), [1.0 + 0j])

    def test_reference_nodes_against_product_oracle(self):
        w = barycentric_weights(PX)
        expected = product_weights(PX)
        assert np.allclose(w, expected, rtol=1e-12, atol=0)
        # defining identity w_k * prod_{j != k}(x_k - x_j) = 1
        for k in range(len(PX)):
            prod = np.prod([PX[k] - PX[j] for j in range(len(PX)) if j != k])
            assert abs(w[k] * prod - 1) <= 1e-12

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(DuplicateNodesError):
            barycentric_weights([1.0, 2.0, 1.0])

    def test_near_duplicate_warns(self):
        with pytest.warns(NearDuplicateNodesWarning):
            barycentric_weights([0.0, 1e-10, 1.0])

    OVERFLOWING_NODES = {
        "chebyshev_1025": np.cos(np.pi * np.arange(1025) / 1024),
        "wide_150": np.linspace(0.0, 1000.0, 150),
        "narrow_120": np.linspace(0.0, 1e-3, 120),
    }

    @pytest.mark.parametrize(
        "nodes", OVERFLOWING_NODES.values(), ids=OVERFLOWING_NODES.keys()
    )
    def test_unrepresentable_weights_raise(self, nodes):
        # the suite turns RuntimeWarnings into errors, so the product must
        # overflow silently and the check after it must speak
        with pytest.raises(DegenerateInputError, match="barycentric weights"):
            LagrangePoly(nodes, np.ones(len(nodes)))

    def test_800_chebyshev_nodes_still_build(self):
        nodes = np.cos(np.pi * np.arange(800) / 799)
        w = LagrangePoly(nodes, np.ones(800)).weights
        assert np.isfinite(w).all() and np.all(w != 0)

    def test_weight_consistency_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 15))
            nodes = np.sort(rng.uniform(-5, 5, n))
            while np.min(np.diff(nodes)) < 1e-3:
                nodes = np.sort(rng.uniform(-5, 5, n))
            w = barycentric_weights(nodes)
            for k in range(n):
                prod = np.prod(np.delete(nodes, k) * -1 + nodes[k])
                assert abs(w[k] * prod - 1) <= 1e-10


class TestLagrangePolyWeights:
    def test_weights_match_module_function_bit_for_bit(self, rng):
        for nodes in (PX, [3.7], rng.uniform(-5, 5, 9) + 1j * rng.uniform(-1, 1, 9)):
            p = LagrangePoly(nodes, np.ones(len(nodes)))
            assert np.array_equal(p.weights, barycentric_weights(nodes))

    def test_weights_read_only(self):
        p = LagrangePoly(PX, PY)
        assert not p.weights.flags.writeable
        with pytest.raises(ValueError):
            p.weights[0] = 0.0

    def test_near_duplicate_warns_once_per_construction(self):
        nodes = [0.0, 1e-10, 1.0]
        builds = (
            lambda: LagrangePoly(nodes, [1.0, 2.0, 3.0]),
            lambda: from_roots(RootList([(0.5, 1)]), nodes),
        )
        for build in builds:
            for _ in range(2):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    evaluate(build(), 0.5)  # uses the stored weights
                assert [w.category for w in caught] == [NearDuplicateNodesWarning]


class TestEvaluate:
    def test_square_interpolant(self):
        p = LagrangePoly([0, 1, 2], [0, 1, 4])
        assert evaluate(p, 3.0) == pytest.approx(9.0)

    def test_node_hit_is_bit_exact(self):
        vals = [0.1234567890123456, -2.5, 3.75]
        p = LagrangePoly([0.0, 1.0, 2.0], vals)
        for x, v in zip(p.nodes, p.values):
            assert evaluate(p, x) == v

    def test_degree_zero(self):
        p = LagrangePoly([2.0], [5.0])
        assert evaluate(p, 100.0) == pytest.approx(5.0)

    def test_reference_data_near_root(self, ref_p):
        # 1.0 lies close to (but not exactly at) a root of the sampled data
        val = evaluate(ref_p, 1.0)
        assert abs(val) <= 1e-3 * max(abs(v) for v in PY)
        assert abs(val - newton_eval(PX, PY, 1.0)) <= 1e-9 * max(abs(v) for v in PY)

    def test_matches_horner_random_polynomials(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 26))
            coeffs = rng.uniform(-2, 2, d + 1)
            nodes = np.linspace(-1, 1, d + 1) * 3
            values = np.polyval(coeffs, nodes)
            p = LagrangePoly(nodes, values)
            zs = rng.uniform(-3, 3, 50)
            got = evaluate(p, zs)
            want = np.polyval(coeffs, zs)
            scale = np.maximum(1.0, np.abs(want))
            assert np.all(np.abs(got - want) / scale <= 1e-9)

    def test_vectorized_matches_scalar(self, rng):
        p = LagrangePoly([0, 1, 2, 3], [1, -1, 2, 0])
        zs = rng.uniform(-2, 5, 7)
        batch = evaluate(p, zs)
        for z, b in zip(zs, batch):
            assert evaluate(p, z) == b


class TestRootList:
    def test_sorted_and_normalized(self):
        rl = RootList([(2.0, 1), (1.0 + 1j, 2), (1.0 - 1j, 3)])
        assert rl.entries == ((1 - 1j, 3), (1 + 1j, 2), (2 + 0j, 1))
        assert rl.total_multiplicity() == 6

    def test_expand(self):
        rl = RootList([(3.0, 2), (1.0, 1)])
        assert list(rl.expand()) == [1 + 0j, 3 + 0j, 3 + 0j]

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError):
            RootList([(1.0, 0)])

    def test_empty(self):
        rl = RootList()
        assert rl.total_multiplicity() == 0
        assert len(rl.expand()) == 0


class TestFromRoots:
    def test_linear_factor(self):
        p = from_roots(RootList([(1.0, 1)]), [0.0, 2.0])
        assert np.allclose(p.values, [-1.0, 1.0])

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(DuplicateNodesError):
            from_roots(RootList([(1.63, 4), (2.8, 2)]), [1.63] * 7)

    def test_insufficient_nodes(self):
        with pytest.raises(InsufficientNodesError):
            from_roots(RootList([(1.0, 2)]), [0.0, 1.0])

    def test_high_multiplicity_value_at_zero(self):
        roots = RootList([(1.63375, 4), (2.8, 2)])
        nodes = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        p = from_roots(roots, nodes)
        expected = (0 - 1.63375) ** 4 * (0 - 2.8) ** 2  # ~55.86
        assert p.values[0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(55.85, rel=1e-3)

    def test_matches_product_form_at_random_points(self, rng):
        roots = RootList([(1.5, 2), (-0.5 + 1j, 1), (2.0, 3)])
        nodes = np.linspace(-4, 4, 9)
        p = from_roots(roots, nodes, leading_coeff=2.5)
        for z in rng.uniform(-4, 4, 20):
            want = 2.5 * (z - 1.5) ** 2 * (z - (-0.5 + 1j)) * (z - 2.0) ** 3
            got = evaluate(p, z)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_leading_coeff_default_monic(self):
        p = from_roots(RootList([(0.0, 1)]), [1.0, 2.0])
        assert np.allclose(p.values, [1.0, 2.0])
