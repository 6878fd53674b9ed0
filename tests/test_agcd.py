"""Pipeline assembly: GCD from a matching, nearby pair, certificates."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from laggcd import agcd as agcd_module
from laggcd import rootfind as rootfind_module
from laggcd import (
    ClusterParams,
    DegenerateInputError,
    LagrangePoly,
    NearDuplicateNodesWarning,
    RootList,
    ZeroPolynomialError,
    approximate_gcd,
    assemble_gcd,
    build_graph,
    evaluate,
    from_roots,
    greedy_mwm,
    reconstruct,
    roots,
)


def cheb_nodes(count, lo=-8.0, hi=8.0):
    k = np.arange(1, count + 1)
    return (lo + hi) / 2 + (hi - lo) / 2 * np.cos((2 * k - 1) * np.pi / (2 * count))


class TestAssembleGcd:
    def reference(self):
        rp = RootList([(1.0, 1), (1.825, 4), (2.7, 2)])
        rq = RootList([(1.4425, 4), (2.9, 2)])
        g = build_graph(rp, rq, 0.5)
        return g, greedy_mwm(g)

    def test_reference_gcd_roots(self):
        g, m = self.reference()
        gcd = assemble_gcd(m, g)
        centers = {mult: r for r, mult in gcd}
        assert centers[4].real == pytest.approx((4 * 1.825 + 4 * 1.4425) / 8)
        assert centers[4].real == pytest.approx(1.63375)
        assert centers[2].real == pytest.approx(2.8)
        assert gcd.total_multiplicity() == 6

    def test_identical_endpoints(self):
        g = build_graph(RootList([(5.0, 1)]), RootList([(5.0, 1)]), 0.1)
        gcd = assemble_gcd(greedy_mwm(g), g)
        assert gcd.entries == ((5.0 + 0j, 1),)

    def test_no_edges_degree_zero(self):
        g = build_graph(RootList([(0.0, 1)]), RootList([(9.0, 1)]), 0.1)
        gcd = assemble_gcd(greedy_mwm(g), g)
        assert gcd.total_multiplicity() == 0


class TestReconstruct:
    def test_reference_tilde_structure(self):
        rp = RootList([(1.0, 1), (1.825, 4), (2.7, 2)])
        rq = RootList([(1.4425, 4), (2.9, 2)])
        g = build_graph(rp, rq, 0.5)
        m = greedy_mwm(g)
        gcd = assemble_gcd(m, g)
        pt = reconstruct(rp, m, "left", gcd)
        qt = reconstruct(rq, m, "right", gcd)
        # matched clusters are fully absorbed; only the lone root survives
        assert pt.total_multiplicity() == 7
        assert qt == gcd
        extra = [e for e in pt.entries if e not in gcd.entries]
        assert extra == [(1.0 + 0j, 1)]

    def test_unmatched_pass_through(self):
        rp = RootList([(0.0, 2), (5.0, 1)])
        g = build_graph(rp, RootList([(9.0, 1)]), 0.1)
        m = greedy_mwm(g)
        pt = reconstruct(rp, m, "left", assemble_gcd(m, g))
        assert pt == rp

    def test_bad_side(self):
        with pytest.raises(ValueError):
            reconstruct(RootList(), greedy_mwm(build_graph(RootList(), RootList(), 1.0)), "middle", RootList())


class TestApproximateGcd:
    def test_reference_end_to_end(self, ref_p, ref_q):
        res = approximate_gcd(ref_p, ref_q, ClusterParams(sigma=0.5))
        assert res.gcd_degree == 6
        assert res.matching.total_weight == 6
        assert sorted(m for _, m in res.gcd_roots) == [2, 4]
        assert res.cert_p and res.cert_q
        assert res.dist_p <= 0.5 and res.dist_q <= 0.5

    def test_identical_inputs(self):
        nodes = np.array([0.0, 1.0, 2.0, 3.0])
        p = from_roots(RootList([(0.5, 1), (1.5, 1), (2.5, 1)]), nodes)
        res = approximate_gcd(p, p, ClusterParams(sigma=1e-6))
        assert res.gcd_degree == 3
        assert res.dist_p == pytest.approx(0.0, abs=1e-9)
        assert res.dist_q == pytest.approx(0.0, abs=1e-9)
        assert res.p_tilde_roots == res.q_tilde_roots

    def test_separated_roots_coprime(self):
        p = from_roots(RootList([(0.0, 1), (1.0, 1)]), np.array([-3.0, -2.0, 4.0]))
        q = from_roots(RootList([(10.0, 1), (11.0, 1)]), np.array([8.0, 9.5, 13.0]))
        res = approximate_gcd(p, q, ClusterParams(sigma=0.01))
        assert res.gcd_degree == 0
        assert res.matching.total_weight == 0
        assert res.gcd_poly.degree == 0
        assert res.gcd_poly.nodes.tobytes() == np.array([0j]).tobytes()
        assert res.gcd_poly.values.tobytes() == np.array([1 + 0j]).tobytes()
        assert evaluate(res.gcd_poly, 123.0) == pytest.approx(1.0)
        # tilde polynomials keep each side's own clustered roots
        assert res.p_tilde_roots == res.graph.left

    def test_exact_recovery_synthetic(self):
        g0 = RootList([(-2.0, 1), (3.0, 2)])
        a = RootList([(0.0, 1), (5.0, 1)])
        b = RootList([(-5.0, 1)])
        p_roots = RootList(list(g0.entries) + list(a.entries))
        q_roots = RootList(list(g0.entries) + list(b.entries))
        p = from_roots(p_roots, cheb_nodes(p_roots.total_multiplicity() + 1))
        q = from_roots(q_roots, cheb_nodes(q_roots.total_multiplicity() + 1))
        # sigma must cover the ~1e-5 eigenvalue splitting of the double root
        res = approximate_gcd(p, q, ClusterParams(sigma=1e-4))
        assert res.gcd_degree == 3
        got = sorted(res.gcd_roots.entries, key=lambda e: e[0].real)
        assert got[0][1] == 1 and abs(got[0][0] + 2.0) <= 1e-6
        assert got[1][1] == 2 and abs(got[1][0] - 3.0) <= 1e-6

    def test_monotone_degree_in_sigma(self, ref_p, ref_q):
        degrees = []
        for sigma in (0.01, 0.05, 0.1, 0.3, 0.5, 0.8):
            res = approximate_gcd(ref_p, ref_q, ClusterParams(sigma=sigma))
            degrees.append(res.gcd_degree)
        assert degrees == sorted(degrees)

    def test_zero_polynomial_rejected(self, ref_p):
        zero = LagrangePoly([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(ZeroPolynomialError):
            approximate_gcd(ref_p, zero, ClusterParams(sigma=0.5))

    def test_side_without_roots_is_numerical_error(self):
        # a constant keeps none of its eigenvalues: no root vector to certify
        const = LagrangePoly([0.0, 1.0, 2.0], [5.0, 5.0, 5.0])
        with pytest.raises(DegenerateInputError) as exc:
            approximate_gcd(const, const, ClusterParams(sigma=0.5))
        assert exc.value.exit_code == 3
        assert str(exc.value).startswith(
            "P rootfinding found no roots: sampled data appears to have degree 0"
        )

    def test_degree_bookkeeping_random(self, rng):
        for _ in range(10):
            dp = int(rng.integers(2, 7))
            dq = int(rng.integers(2, 7))
            p = LagrangePoly(cheb_nodes(dp + 1, -2, 2), rng.uniform(-5, 5, dp + 1))
            q = LagrangePoly(cheb_nodes(dq + 1, -2, 2), rng.uniform(-5, 5, dq + 1))
            res = approximate_gcd(p, q, ClusterParams(sigma=float(rng.uniform(0, 0.5))))
            assert res.p_tilde_roots.total_multiplicity() == len(res.p_report.roots)
            assert res.q_tilde_roots.total_multiplicity() == len(res.q_report.roots)
            assert res.gcd_degree == res.matching.total_weight
            # gcd divides both tilde root lists
            for r, m in res.gcd_roots:
                assert any(r == s and m <= ms for s, ms in res.p_tilde_roots)
                assert any(r == s and m <= ms for s, ms in res.q_tilde_roots)

    def test_perturbed_common_roots_certificate(self, rng):
        # common roots perturbed by <= sigma/4 on each side: certificate
        # is analytically expected to hold
        sigma = 0.2
        common = [(-1.0, 1), (2.0, 1)]
        for _ in range(5):
            eps = lambda: complex(*rng.uniform(-sigma / 8, sigma / 8, 2))
            pr = RootList([(r + eps(), m) for r, m in common] + [(6.0, 1)])
            qr = RootList([(r + eps(), m) for r, m in common] + [(-6.0, 1)])
            p = from_roots(pr, cheb_nodes(4))
            q = from_roots(qr, cheb_nodes(4))
            res = approximate_gcd(p, q, ClusterParams(sigma=sigma))
            assert res.gcd_degree >= 2
            assert res.cert_p and res.cert_q

    def test_exact_matcher_available(self, ref_p, ref_q):
        res = approximate_gcd(
            ref_p, ref_q, ClusterParams(sigma=0.5), matcher="exact"
        )
        assert res.gcd_degree == 6

    def test_cofactors(self, ref_p, ref_q):
        res = approximate_gcd(ref_p, ref_q, ClusterParams(sigma=0.5))
        assert res.cofactor_q.total_multiplicity() == 0
        assert res.cofactor_p.total_multiplicity() == 1
        (r, m), = res.cofactor_p.entries
        assert m == 1 and abs(r.imag) < 1e-9

    def test_gcd_poly_matches_product(self, ref_p, ref_q):
        res = approximate_gcd(ref_p, ref_q, ClusterParams(sigma=0.5))
        z = 3.3 + 0.1j
        want = 1.0 + 0j
        for r, m in res.gcd_roots:
            want *= (z - r) ** m
        assert evaluate(res.gcd_poly, z) == pytest.approx(want, rel=1e-9)

    def test_result_holds_each_input_once(self, ref_p, ref_q):
        res = approximate_gcd(ref_p, ref_q, ClusterParams(sigma=0.5))
        assert res.p_report.poly is ref_p and res.q_report.poly is ref_q
        assert not hasattr(res, "p") and not hasattr(res, "q")

    def test_gcd_nodes_span_at_least_one(self):
        # P's and Q's nodes span [0, 0.3]; the GCD's extra sample node is
        # a Chebyshev point of the unit interval around their midpoint
        x = np.linspace(0.0, 0.3, 4)
        p = from_roots(RootList([(0.1, 2), (0.2, 1)]), x)
        q = from_roots(RootList([(0.1, 2), (0.25, 1)]), x)
        res = approximate_gcd(p, q, ClusterParams(sigma=1e-3))
        assert [m for _, m in res.gcd_roots] == [2]
        nodes = res.gcd_poly.nodes
        assert len(nodes) == 3 and nodes[0] == 0.0
        assert nodes[-1].real == pytest.approx(0.15 + 0.5 * np.cos(np.pi / 16))

    def test_certificate_warning_path(self, rng):
        # a cluster sigma above sigma merges P's roots 0 and 0.3 into a
        # double at 0.15, which costs d = 0.15 > sigma = 0.1
        p = from_roots(RootList([(0.0, 1), (0.3, 1)]), np.array([-2.0, 3.0, 4.0]))
        q = from_roots(RootList([(0.4, 1), (1.4, 1)]), np.array([-2.0, 3.0, 4.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = approximate_gcd(p, q, ClusterParams(sigma=0.5), sigma=0.1)
        assert not res.cert_p
        assert res.warnings[0].startswith("distance certificate failed for P: d=")


def test_rootfinding_note_reaches_warnings():
    # P samples (x - 1)(x - 2) at four nodes: degree 2 below nominal 3
    x = np.array([-2.0, 0.0, 3.0, 5.0])
    p = LagrangePoly(x, (x - 1) * (x - 2))
    q = from_roots(RootList([(1.0, 1), (7.0, 1)]), np.array([-2.0, 0.0, 3.0]))
    res = approximate_gcd(p, q, ClusterParams(sigma=1e-6))
    assert len(res.warnings) == 1
    assert res.warnings[0].startswith(
        "P rootfinding: sampled data appears to have degree 2 < nominal 3; "
    )
    assert res.gcd_degree == 1


# Planted pairs as the small batch benchmark draws them: degrees 4-16, a GCD
# of 1-3 roots of multiplicity 1-3, all distinct roots at least 3 sigma apart
# in [-0.9, 0.9] (grid slots 4.5 sigma apart, each jittered by at most
# 0.75 sigma), samples at Chebyshev points with relative noise 1e-10.
SWAP_SIGMA = 1e-2
SWAP_SLOTS = np.arange(-0.9 + 0.75 * SWAP_SIGMA, 0.9 - 0.75 * SWAP_SIGMA, 4.5 * SWAP_SIGMA)


@st.composite
def planted_pairs(draw):
    deg_p, deg_q = draw(st.integers(4, 16)), draw(st.integers(4, 16))
    mults = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    assume(sum(mults) < min(deg_p, deg_q))
    n_a, n_b = deg_p - sum(mults), deg_q - sum(mults)
    count = len(mults) + n_a + n_b
    slots = draw(st.lists(st.sampled_from(range(len(SWAP_SLOTS))),
                          min_size=count, max_size=count, unique=True))
    jitter = draw(st.lists(st.floats(-0.75 * SWAP_SIGMA, 0.75 * SWAP_SIGMA),
                           min_size=count, max_size=count))
    pts = SWAP_SLOTS[slots] + np.array(jitter)
    g = np.repeat(pts[: len(mults)], mults)
    sides = []
    for roots_ in (pts[len(mults) : len(mults) + n_a], pts[len(mults) + n_a :]):
        nodes = np.sort(cheb_nodes(len(g) + len(roots_) + 1, -1.0, 1.0))
        values = np.prod(nodes[:, None] - np.concatenate([g, roots_])[None, :], axis=1)
        noise = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(nodes),
                              max_size=len(nodes)))
        sides.append(LagrangePoly(nodes, values * (1.0 + 1e-10 * np.array(noise))))
    return sides


@settings(max_examples=150, deadline=None, derandomize=True)
@given(planted_pairs())
def test_swapping_p_and_q_swaps_the_result(pair):
    p, q = pair
    pq = approximate_gcd(p, q, ClusterParams(sigma=SWAP_SIGMA))
    qp = approximate_gcd(q, p, ClusterParams(sigma=SWAP_SIGMA))
    assert qp.gcd_roots == pq.gcd_roots
    assert (qp.cofactor_p, qp.cofactor_q) == (pq.cofactor_q, pq.cofactor_p)
    assert (qp.dist_p, qp.dist_q) == (pq.dist_q, pq.dist_p)
    assert (qp.cert_p, qp.cert_q) == (pq.cert_q, pq.cert_p)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(planted_pairs())
def test_power_of_two_scaling_of_p_keeps_the_result(pair):
    p, q = pair
    base = approximate_gcd(p, q, ClusterParams(sigma=SWAP_SIGMA))
    for k in (-30, -20, -10, -4, 4, 10, 20, 30):
        scaled = LagrangePoly(p.nodes, p.values * 2.0**k)
        res = approximate_gcd(scaled, q, ClusterParams(sigma=SWAP_SIGMA))
        assert res.gcd_roots == base.gcd_roots
        assert (res.cofactor_p, res.cofactor_q) == (base.cofactor_p, base.cofactor_q)
        assert (res.dist_p, res.dist_q) == (base.dist_p, base.dist_q)
        assert (res.cert_p, res.cert_q) == (base.cert_p, base.cert_q)
        assert res.warnings == base.warnings


# The output polynomials, the cofactors and the root residuals are built on
# first read, once; approximate_gcd itself builds none of them.
LAZY_POLYS = ("gcd_poly", "p_tilde_poly", "q_tilde_poly")


def counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls in a list."""
    calls, real = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_outputs_are_computed_on_first_read_only(monkeypatch, ref_p, ref_q):
    from_roots_calls = counted(monkeypatch, agcd_module, "from_roots")
    reconstruct_calls = counted(monkeypatch, agcd_module, "reconstruct")
    evaluate_calls = counted(monkeypatch, rootfind_module, "evaluate")
    res = approximate_gcd(ref_p, ref_q, ClusterParams(sigma=0.5))
    assert (len(from_roots_calls), len(evaluate_calls)) == (0, 0)
    assert len(reconstruct_calls) == 2  # p_tilde and q_tilde only
    for name, calls in [(n, from_roots_calls) for n in LAZY_POLYS] + [
        ("cofactor_p", reconstruct_calls),
        ("cofactor_q", reconstruct_calls),
    ]:
        before = len(calls)
        first = getattr(res, name)
        assert len(calls) == before + 1, name
        assert getattr(res, name) is first
        assert len(calls) == before + 1, name
    for report in (res.p_report, res.q_report):
        before = len(evaluate_calls)
        first = report.residuals
        assert len(evaluate_calls) == before + 1
        assert report.residuals is first
        assert len(evaluate_calls) == before + 1
    assert len(from_roots_calls) == len(LAZY_POLYS)


def test_near_duplicate_nodes_warn_only_when_read():
    x = np.array([0.0, 1.0, 2.0, 2.0 + 1e-9])
    with pytest.warns(NearDuplicateNodesWarning):
        p = LagrangePoly(x, (x - 1) * (x - 3) * (x + 1))
    q = from_roots(RootList([(1.0, 1), (4.0, 1)]), np.array([-1.0, 2.5, 6.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = approximate_gcd(p, q, ClusterParams(sigma=1e-3))
        res.gcd_poly, res.q_tilde_poly, res.cofactor_p, res.cofactor_q
    with pytest.warns(NearDuplicateNodesWarning):
        res.p_tilde_poly


def assert_same_rootlist(got, want):
    assert got.expand().tobytes() == want.expand().tobytes()
    assert [m for _, m in got] == [m for _, m in want]


def assert_lazy_outputs_are_eager(res, p, q):
    gcd_nodes = agcd_module._gcd_sample_nodes(res.gcd_roots, p, q)
    for got, roots_, nodes in (
        (res.gcd_poly, res.gcd_roots, gcd_nodes),
        (res.p_tilde_poly, res.p_tilde_roots, p.nodes),
        (res.q_tilde_poly, res.q_tilde_roots, q.nodes),
    ):
        want = from_roots(roots_, nodes)
        assert got.nodes.tobytes() == want.nodes.tobytes()
        assert got.values.tobytes() == want.values.tobytes()
    for report, poly in ((res.p_report, p), (res.q_report, q)):
        want = np.abs(evaluate(poly, report.roots))
        assert report.residuals.tobytes() == want.tobytes()
    left, right = res.graph.left, res.graph.right
    assert_same_rootlist(
        res.cofactor_p, reconstruct(left, res.matching, "left", RootList())
    )
    assert_same_rootlist(
        res.cofactor_q, reconstruct(right, res.matching, "right", RootList())
    )


def test_lazy_outputs_match_eager_recomputation_on_reference(ref_p, ref_q):
    res = approximate_gcd(ref_p, ref_q, ClusterParams(sigma=0.5))
    assert_lazy_outputs_are_eager(res, ref_p, ref_q)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(planted_pairs())
def test_lazy_outputs_match_eager_recomputation(pair):
    p, q = pair
    res = approximate_gcd(p, q, ClusterParams(sigma=SWAP_SIGMA))
    assert_lazy_outputs_are_eager(res, p, q)
