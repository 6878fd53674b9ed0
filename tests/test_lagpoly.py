"""Node/value representation: weights, evaluation, materialization."""

import warnings

import mpmath
import numpy as np
import pytest

from laggcd import (
    DegenerateInputError,
    DuplicateNodesError,
    InsufficientNodesError,
    InvalidParameterError,
    LagrangePoly,
    RootList,
    barycentric_weights,
    evaluate,
    from_roots,
)
from laggcd.lagpoly import _NODE_SETS, _node_set
from conftest import PX, PY

NEAR_NODES = [0.0, 1e-10, 1.0]
NEAR_NOTE = (
    "nearly coincident nodes (gap 1.000e-10 vs spread 1.000e+00); "
    "expect poor conditioning"
)


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


# degree-10 interpolant of prod (z - r_j), r_j = linspace(-0.8, 0.8, 10), on
# 11 first-kind Chebyshev nodes: a form that divides by sum_k w_k / (z - x_k)
# loses all accuracy on it off [-1, 1] (relative error 1.0 at z = 100)
LINSPACE_ROOTS = np.linspace(-0.8, 0.8, 10)


def linspace_poly():
    x = np.cos((2 * np.arange(11) + 1) * np.pi / 22)
    return LagrangePoly(x, np.prod(x[:, None] - LINSPACE_ROOTS, axis=1))


def linspace_product(z):
    """Independent oracle: prod (z - r_j) in 40-digit arithmetic."""
    with mpmath.workdps(40):
        return complex(mpmath.fprod(mpmath.mpc(z) - mpmath.mpf(r) for r in LINSPACE_ROOTS))


class TestBarycentricWeights:
    def test_two_nodes(self):
        assert np.allclose(barycentric_weights([0, 1]), [-1, 1])

    def test_three_nodes(self):
        assert np.allclose(barycentric_weights([0, 1, 2]), [0.5, -1, 0.5])

    def test_single_node(self):
        assert np.array_equal(barycentric_weights([3.7]), [1.0 + 0j])

    def test_single_node_shares_the_record(self):
        w = barycentric_weights([3.7])
        p = LagrangePoly([3.7], [2.0])
        record = _node_set(np.array([3.7], dtype=complex).tobytes())
        assert p._node_set is record and p.weights is record.weights
        one = np.array([1 + 0j]).tobytes()  # +0j: the bytes see a signed zero
        assert w.tobytes() == record.weights.tobytes() == one
        assert w is not record.weights and w.flags.writeable
        assert (record.note, record.spread, p.note, p.spread) == (None, 0.0, None, 0.0)
        assert p(-1.0) == 2.0

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

    def test_near_duplicate_is_noted_not_warned(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = barycentric_weights(NEAR_NODES)
            p = LagrangePoly(NEAR_NODES, [1.0, 2.0, 3.0])
        assert np.array_equal(w, p.weights)
        assert p.note == NEAR_NOTE

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

    def test_near_duplicate_noted_on_every_construction(self):
        builds = (
            lambda: LagrangePoly(NEAR_NODES, [1.0, 2.0, 3.0]),
            lambda: from_roots(RootList([(0.5, 1)]), NEAR_NODES),
        )
        for build in builds:
            for _ in range(2):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    p = build()
                    evaluate(p, 0.5)  # uses the stored weights
                assert p.note == NEAR_NOTE

    def test_note_keeps_the_warning_message(self):
        p = LagrangePoly(NEAR_NODES, [1.0, 2.0, 3.0])
        assert p.note == NEAR_NOTE
        assert LagrangePoly(PX, PY).note is None
        with pytest.raises(AttributeError):
            p.note = None

    def test_resampling_on_a_poly_shares_its_checked_nodes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = LagrangePoly(NEAR_NODES, [1.0, 2.0, 3.0])
            resampled = (
                LagrangePoly(base, [4.0, 5.0, 6.0]),
                from_roots(RootList([(0.5, 1)]), base),
            )
            want = from_roots(RootList([(0.5, 1)]), np.array(base.nodes))
        assert resampled[1].values.tobytes() == want.values.tobytes()
        assert want.note == base.note == NEAR_NOTE  # nodes given again
        for poly in resampled:
            assert poly.nodes is base.nodes and poly.weights is base.weights
            assert poly.note is base.note
            assert not poly.values.flags.writeable

    def test_resampling_checks_values_against_the_nodes(self):
        base = LagrangePoly([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(InvalidParameterError):
            LagrangePoly(base, [1.0, 2.0])
        with pytest.raises(InsufficientNodesError):
            from_roots(RootList([(0.5, 3)]), base)


class TestNodeSetCache:
    def test_equal_nodes_share_one_record(self):
        x = np.cos((2 * np.arange(9) + 1) * np.pi / 18)
        p = LagrangePoly(x, np.arange(9.0))
        others = (
            LagrangePoly(list(x), np.ones(9)),
            LagrangePoly(x + 0j, np.ones(9)),
            LagrangePoly(p, np.ones(9)),
            from_roots(RootList([(0.5, 2)]), p),
            from_roots(RootList([(0.5, 2)]), x.copy()),
        )
        for q in others:
            assert q._node_set is p._node_set
            assert q.nodes is p.nodes and q.weights is p.weights
        facts = p._node_set
        for arr in (facts.nodes, facts.weights, facts.column):
            assert not arr.flags.writeable
        assert facts.center == np.array(x, dtype=complex).mean() and facts.real
        assert facts.column.tobytes() == (p.weights / np.abs(p.weights).max()).tobytes()
        assert p.peak == np.abs(p.values).max() == 8.0

    def test_bad_nodes_raise_on_every_call(self):
        for nodes, error in (
            ([0.0, 1.0, 1.0], DuplicateNodesError),
            ([-1e308, 1e308], DegenerateInputError),
            ([0.0, np.nan], InvalidParameterError),
        ):
            for _ in range(3):
                with pytest.raises(error):
                    LagrangePoly(nodes, np.ones(len(nodes)))
                with pytest.raises(error):
                    from_roots(RootList([(0.5, 1)]), nodes)

    def test_signed_zeros_get_their_own_record(self):
        sets = [
            LagrangePoly(nodes, [1.0, 2.0])._node_set
            for nodes in ([0.0, 1.0], [-0.0, 1.0], [complex(0.0, -0.0), 1.0])
        ]
        assert len({id(s) for s in sets}) == 3
        assert [bool(np.signbit(s.nodes[0].real)) for s in sets] == [False, True, False]
        assert bool(np.signbit(sets[2].nodes[0].imag))

    def test_caller_arrays_may_change_afterwards(self):
        # complex128 arrays, which np.asarray would not copy
        x = np.array([0.0, 0.5, 2.0], dtype=complex)
        y = np.array([1.0, 3.0, 2.0], dtype=complex)
        p = LagrangePoly(x, y)
        x[1], y[1] = 1.0, 7.0
        assert list(p.nodes) == [0.0, 0.5, 2.0] and list(p.values) == [1.0, 3.0, 2.0]
        q = LagrangePoly(x, y)
        assert q._node_set is not p._node_set and list(q.nodes) == [0.0, 1.0, 2.0]
        assert np.array_equal(p.weights, barycentric_weights([0.0, 0.5, 2.0]))

    def test_cache_is_bounded(self):
        for k in range(10 * _NODE_SETS):
            LagrangePoly([0.0, 1.0 + k], [1.0, 2.0])
        info = _node_set.cache_info()
        assert info.maxsize == _NODE_SETS and info.currsize <= _NODE_SETS

    def test_lookup_on_a_polys_nodes_after_eviction(self):
        # a polynomial built on p's nodes looks them up again; once p's
        # record has left the cache, a new one must give the same bytes
        x = np.cos((2 * np.arange(7) + 1) * np.pi / 14) * 0.9 + 0.1j
        p = LagrangePoly(x, np.arange(7.0) - 2.5j)
        roots = RootList([(0.25 - 0.5j, 2), (-0.3, 1)])

        def built():
            polys = (LagrangePoly(p, 3j * np.ones(7)), from_roots(roots, p, 2.0 - 1j))
            records = [q._node_set for q in polys]
            arrays = [[a.tobytes() for a in (q.nodes, q.weights, q.values)] for q in polys]
            return records, arrays

        records, before = built()
        assert all(r is p._node_set for r in records)
        for k in range(2 * _NODE_SETS):
            LagrangePoly([0.0, 2.0 + k], [1.0, 2.0])
        records, after = built()
        assert all(r is not p._node_set for r in records)
        assert after == before

    def test_barycentric_weights_returns_a_fresh_writeable_array(self):
        p = LagrangePoly(PX, PY)
        w = barycentric_weights(PX)
        assert w is not p.weights and w.flags.writeable
        assert w is not barycentric_weights(PX)
        want = p.weights.copy()
        w[:] = 0.0
        assert np.array_equal(LagrangePoly(PX, PY).weights, want)


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

    @pytest.mark.parametrize("z", [2.0, 10.0, 100.0, 1e8, 3j])
    def test_accurate_off_the_node_interval(self, z):
        want = linspace_product(z)
        assert abs(evaluate(linspace_poly(), z) - want) <= 1e-13 * abs(want)

    def test_accurate_on_the_node_interval(self):
        zs = np.linspace(-1.0, 1.0, 2001)
        want = np.array([linspace_product(z) for z in zs])
        err = np.abs(evaluate(linspace_poly(), zs) - want)
        assert np.max(err) <= 1e-15 * np.max(np.abs(want))

    def test_far_point_is_finite_within_the_backward_error(self):
        # x + 1 on three nodes: at 1e17 the nodes round away from z - x_k,
        # so only Higham's bound, eps * sum_k |l_k(z) f_k|, holds
        p = LagrangePoly([0, 1, 2], [1, 2, 3])
        z = 1e17
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate(p, z)
        cond = sum(abs(p.weights * p.values)) * z**2
        assert np.isfinite(got)
        assert abs(got - (z + 1)) <= 10 * np.finfo(float).eps * cond

    def test_node_product_may_overflow_where_the_value_does_not(self):
        # degree 40 with leading coefficient 1e-20 on nodes spread over
        # 2e7: at 1e8, prod (z - x_k) is about 1e328 but p(z) about 1e300
        k = np.arange(41)
        x = 1e7 * np.cos((2 * k + 1) * np.pi / 82)
        r = 0.9e7 * np.cos(k[1:] * np.pi / 41)
        p = LagrangePoly(x, 1e-20 * np.prod(x[:, None] - r, axis=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate(p, 1e8)
        with mpmath.workdps(40):
            want = 1e-20 * complex(mpmath.fprod(mpmath.mpf(1e8) - mpmath.mpf(v) for v in r))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_values_at_the_top_of_the_double_range_are_eight_times_their_eighth(self):
        # finite parts whose moduli pass the double range (an infinite peak):
        # the sum of w_k f_k / (z - x_k) overflowed, and evaluate gave
        # nan+nanj at 2.9 with no warning
        x = [0.0, 1.0, 2.0, 3.0]
        top = LagrangePoly(x, 1.5e308 * (1 + 1j) * np.array([-1, 1 / 3, -1 / 3, 1]))
        assert top.peak == np.inf
        finite_top = LagrangePoly(x, top.values * 0.75)
        assert 2.0**1022 < finite_top.peak < np.inf
        zs = np.array([2.9, 0.5, 1.5 + 0.5j, 1.0, 2.2 - 0.1j])
        for p in (top, finite_top):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = evaluate(p, zs)
            eighth = LagrangePoly(x, p.values * 0.125)
            assert got.tobytes() == (8 * evaluate(eighth, zs)).tobytes()
            assert got[3] == p.values[1]
        assert evaluate(top, 2.9) == pytest.approx(9.94e307 * (1 + 1j), rel=1e-3)

    def test_vectorized_matches_scalar(self, rng):
        p = LagrangePoly([0, 1, 2, 3], [1, -1, 2, 0])
        zs = rng.uniform(-2, 5, 7)
        batch = evaluate(p, zs)
        for z, b in zip(zs, batch):
            assert evaluate(p, z) == b

    @pytest.mark.parametrize("shape", [(2, 3), (3, 4), (4, 1, 2)])
    def test_array_of_any_shape_matches_scalar(self, rng, shape):
        # (3, 4): the last dimension equals the node count
        p = LagrangePoly([0, 1, 2, 3], [1, -1, 2, 0])
        zs = rng.uniform(-2, 5, shape) + 1j * rng.uniform(-1, 1, shape)
        zs.flat[1] = p.nodes[2]  # an exact node hit
        got = p(zs)
        assert got.shape == zs.shape
        assert got.flat[1] == p.values[2]
        for z, b in zip(zs.flat, got.flat):
            assert evaluate(p, z) == b
        assert np.isscalar(p(0.5))


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

    def test_hash_follows_equality(self):
        a = RootList([(2.0, 1), (1.0 + 1j, 2), (1.0 - 1j, 3)])
        b = RootList([(1.0 - 1j, 3), (2.0, 1), (1.0 + 1j, 2)])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        c = RootList([(2.0, 2), (1.0 + 1j, 2), (1.0 - 1j, 3)])
        assert c != a and hash(c) != hash(a)
        assert len({a, c}) == 2


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

    def test_overflowing_product_is_rejected_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="values must be finite"):
                from_roots(RootList([(1e200, 3)]), [0, 1, 2, 3])

    def test_leading_coeff_default_monic(self):
        p = from_roots(RootList([(0.0, 1)]), [1.0, 2.0])
        assert np.allclose(p.values, [1.0, 2.0])
