"""Companion pencil construction and eigenvalue-based rootfinding."""

import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from laggcd import (
    DegenerateInputError,
    LagrangePoly,
    RootList,
    build_pencil,
    evaluate,
    from_roots,
    pencil_determinant,
    roots,
)
import laggcd.rootfind as rootfind_module
from laggcd.rootfind import FAR_ROOT_FACTOR, SPURIOUS_BETA_RTOL, _eigenvalues
from conftest import random_distinct_nodes


def sorted_real(arr):
    return np.sort(np.real(arr))


class TestBuildPencil:
    def test_linear_layout(self):
        # samples of x - 1 at nodes 0 and 1
        p = LagrangePoly([0.0, 1.0], [-1.0, 0.0])
        pencil = build_pencil(p)
        c0 = np.array([[0, 1, 0], [-1, 0, 0], [1, 0, 1]], dtype=complex)
        c1 = np.diag([0.0, 1.0, 1.0]).astype(complex)
        assert len(pencil) == 2
        assert np.array_equal(pencil[0], c0)
        assert np.array_equal(pencil[1], c1)

    def test_determinant_is_polynomial(self):
        p = LagrangePoly([0.0, 1.0], [-1.0, 0.0])
        pencil = build_pencil(p)
        assert pencil_determinant(pencil, 5.0) == pytest.approx(4.0)

    def test_reference_pencil_dimension(self, ref_p):
        # eight nodes, nominal degree 7, pencil size degree + 2
        pencil = build_pencil(ref_p)
        assert [c.shape for c in pencil] == [(ref_p.degree + 2,) * 2] * 2
        assert ref_p.degree + 2 == 9

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            build_pencil(LagrangePoly([1.0], [2.0]))

    def test_determinant_identity_random(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 13))
            nodes = random_distinct_nodes(rng, n + 1)
            values = rng.uniform(-10, 10, n + 1)
            p = LagrangePoly(nodes, values)
            pencil = build_pencil(p)
            for z in rng.uniform(-4, 4, 10) + 1j * rng.uniform(-1, 1, 10):
                det = pencil_determinant(pencil, z)
                want = evaluate(p, z)
                assert abs(det - want) / max(1.0, abs(want)) <= 1e-6


class TestRoots:
    def test_exact_quadratic(self):
        # (x-1)(x-2) sampled at 0, 1, 3
        p = LagrangePoly([0.0, 1.0, 3.0], [2.0, 0.0, 2.0])
        report = roots(p)
        assert np.allclose(sorted_real(report.roots), [1.0, 2.0], atol=1e-9)
        assert np.max(np.abs(report.roots.imag)) <= 1e-9
        assert report.discarded_count == 2

    def test_reference_p_residuals_and_count(self, ref_p):
        report = roots(ref_p)
        assert len(report.roots) == 7
        assert report.discarded_count == 2
        assert np.all(report.residuals <= 1e-6 * max(abs(v) for v in ref_p.values))

    def test_reference_q_count(self, ref_q):
        report = roots(ref_q)
        assert len(report.roots) == 6
        assert report.discarded_count == 2

    def test_zero_polynomial_rejected(self):
        with pytest.raises(DegenerateInputError):
            roots(LagrangePoly([0.0, 1.0, 2.0], [0.0, 0.0, 0.0]))

    def test_residuals_random_well_conditioned(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 13))
            nodes = random_distinct_nodes(rng, n + 1, min_gap=0.1)
            values = rng.uniform(-10, 10, n + 1)
            p = LagrangePoly(nodes, values)
            report = roots(p)
            assert len(report.roots) == n
            assert np.all(report.residuals <= 1e-6 * np.max(np.abs(values)))

    def test_translation_covariance(self, rng):
        nodes = random_distinct_nodes(rng, 7, min_gap=0.2)
        values = rng.uniform(-5, 5, 7)
        base = roots(LagrangePoly(nodes, values)).roots
        for c in rng.uniform(-10, 10, 3):
            shifted = roots(LagrangePoly(nodes + c, values)).roots
            got = np.sort_complex(shifted)
            want = np.sort_complex(base + c)
            assert np.max(np.abs(got - want)) <= 1e-8

    def test_degree_deflation_reports_actual_degree(self):
        # degree-2 data carried on 5 nodes: only 2 genuine roots exist
        nodes = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        values = (nodes - 0.5) * (nodes + 1.5)
        report = roots(LagrangePoly(nodes, values))
        genuine = sorted_real(report.roots)
        assert any(abs(r - 0.5) < 1e-6 for r in genuine)
        assert any(abs(r + 1.5) < 1e-6 for r in genuine)
        # any surviving artifact roots still carry small residuals or are
        # reported via the diagnostic note
        if len(report.roots) < 4:
            assert report.backward_note is not None

    def test_roots_sorted_deterministically(self, ref_p):
        r1 = roots(ref_p).roots
        r2 = roots(ref_p).roots
        assert np.array_equal(r1, r2)
        assert list(r1.real) == sorted(r1.real)


def oracle_kept_eigenvalues(p, eigenvalues=_eigenvalues):
    """The eigenvalue filter of `roots` as a per-eigenvalue loop over
    eigenvalues(p), by default the (alpha, beta) `roots` filters: skip the
    two smallest |beta|, then tiny beta, then the far field."""
    alpha, beta = eigenvalues(p)
    beta_scale = max(1.0, float(np.abs(beta).max()))
    center = p.nodes.mean()
    spread = max(float(np.abs(p.nodes[:, None] - p.nodes[None, :]).max()), 1.0)
    kept = []
    for i in np.argsort(np.abs(beta), kind="stable")[2:]:
        if abs(beta[i]) <= SPURIOUS_BETA_RTOL * beta_scale:
            continue
        lam = alpha[i] / beta[i]
        if not abs(lam - center) <= FAR_ROOT_FACTOR * spread:
            continue
        kept.append(lam)
    kept.sort(key=lambda z: (z.real, z.imag))
    return np.array(kept, dtype=complex)


FILTER_KINDS = ["real", "complex", "low_degree", "wide"]


def filter_cases(kind, max_degree=40):
    """40 seeded polynomials of degree 1 to max_degree - 1 at Chebyshev
    points: random real or complex values, lower-degree data, or nodes
    spread over [-1000, 1000]."""
    rng = np.random.default_rng(FILTER_KINDS.index(kind))
    for _ in range(40):
        n = int(rng.integers(1, max_degree))
        nodes = np.cos((2 * np.arange(n + 1) + 1) * np.pi / (2 * n + 2))
        values = rng.standard_normal(n + 1)
        if kind == "complex":
            values = values + 1j * rng.standard_normal(n + 1)
        elif kind == "low_degree":
            planted = rng.uniform(-1, 1, int(rng.integers(0, n + 1)))
            values = np.prod(nodes[:, None] - planted[None, :], axis=1)
        elif kind == "wide":
            nodes = 1000 * nodes
        yield LagrangePoly(nodes, values)


@pytest.mark.parametrize("kind", FILTER_KINDS)
def test_eigenvalue_filter_matches_loop(kind):
    for p in filter_cases(kind):
        report = roots(p)
        want = oracle_kept_eigenvalues(p)
        assert report.roots.tobytes() == want.tobytes()
        assert report.discarded_count == len(build_pencil(p)[0]) - len(want)


def oracle_scaled_eigenvalues(p):
    """_eigenvalues as it was written before the node-set cache: the
    complex build_pencil, row 0 and column 0 scaled, a subnormal row raised
    by 2**1000 first, then ?ggev, in real arithmetic for a real pencil."""
    c0, c1 = build_pencil(p)
    top = np.abs(p.values).max()
    if top < np.finfo(float).tiny:
        c0[0] *= 2.0**1000
        top *= 2.0**1000
    c0[0] /= top
    c0[:, 0] /= np.abs(p.weights).max()
    if not c0.imag.any():
        c0, c1 = c0.real, c1.real
    ggev, = scipy.linalg.lapack.get_lapack_funcs(("ggev",), (c0, c1))
    *alpha, beta, _, _, _, info = ggev(c0, c1, compute_vl=0, compute_vr=0)
    assert info == 0
    alpha = alpha[0] + 1j * alpha[1] if len(alpha) == 2 else alpha[0]
    return alpha, beta


def lent_node_cases():
    """Polynomials built on another's nodes, LagrangePoly(p, values) and
    from_roots(roots, p), on real Chebyshev points and on complex nodes
    (0.9-scaled roots of unity), with real and complex values."""
    rng = np.random.default_rng(99)
    for n in (3, 8, 17):
        for nodes in (
            np.cos((2 * np.arange(n + 1) + 1) * np.pi / (2 * n + 2)),
            0.9 * np.exp(2j * np.pi * np.arange(n + 1) / (n + 1)),
        ):
            base = LagrangePoly(nodes, rng.standard_normal(n + 1))
            yield base
            yield LagrangePoly(base, rng.standard_normal(n + 1))
            yield LagrangePoly(base, rng.standard_normal(n + 1) * (1 - 2j))
            yield from_roots(RootList((complex(r), 1) for r in rng.uniform(-1, 1, n)), base)


def test_eigenvalues_match_the_unshared_solve_bit_for_bit(ref_p):
    tiny = ref_p.values * 2.0**-1060
    cases = [p for kind in FILTER_KINDS for p in filter_cases(kind)]
    cases += list(lent_node_cases())
    cases += [LagrangePoly(ref_p, tiny), LagrangePoly(ref_p, tiny * (1 + 1j))]
    assert np.abs(cases[-1].values).max() < np.finfo(float).tiny
    for p in cases:
        got, want = _eigenvalues(p), oracle_scaled_eigenvalues(p)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert [a.dtype for a in got] == [a.dtype for a in want]


def test_eigenvalues_match_at_the_smallest_and_largest_qz_pencils():
    # _eigenvalues builds c0 transposed and hands LAPACK its Fortran-order
    # view: degree 1 (a 3 x 3 pencil), degree 63 (the largest real-node QZ
    # below Aberth) with real and complex values, and degree 70 on complex
    # nodes (QZ at Aberth's sizes)
    rng = np.random.default_rng(31)
    cheb = np.cos((2 * np.arange(64) + 1) * np.pi / 128)
    unity = 0.9 * np.exp(2j * np.pi * np.arange(71) / 71)
    cases = [
        LagrangePoly([0.0, 1.0], [-1.0, 2.0]),
        LagrangePoly(cheb, rng.standard_normal(64)),
        LagrangePoly(cheb, rng.standard_normal(64) + 1j * rng.standard_normal(64)),
        LagrangePoly(unity, rng.standard_normal(71)),
    ]
    for p in cases:
        got, want = _eigenvalues(p), oracle_scaled_eigenvalues(p)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert [a.dtype for a in got] == [a.dtype for a in want]
        # a second call sees the same pencil: nothing the first one wrote
        # to in place is shared with it
        first, again = roots(p), roots(p)
        for report in (first, again):
            assert report.radii is None and len(report.roots) == p.degree
        assert first.roots.tobytes() == again.roots.tobytes()
        assert first.residuals.tobytes() == again.residuals.tobytes()
        assert first.backward_note == again.backward_note


def raw_pencil_eigenvalues(p):
    """(alpha, beta) from a complex QZ of the unscaled pencil."""
    pencil = build_pencil(p)
    return scipy.linalg.eig(
        *pencil, right=False, homogeneous_eigvals=True
    )


# Below degree 20 the raw pencil's weights stay under 2^20 and its roots
# agree with the scaled solve to 3.5e-11 (real) and 2.2e-12 (complex). From
# degree 30 they drift apart by up to 2e-5: the raw pencil is then the
# inaccurate one (on a degree-39 complex case the scaled roots are within
# 3e-15 of a 60-digit solve, the raw ones 6e-6 off), which
# test_chebyshev_roots_match_mpmath covers.
RAW_PENCIL_RTOL = 1e-8


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_roots_match_raw_pencil_qz(kind):
    for p in filter_cases(kind, max_degree=20):
        got = roots(p).roots
        raw = oracle_kept_eigenvalues(p, raw_pencil_eigenvalues)
        assert len(raw) == len(got) == p.degree
        for r in raw:
            assert np.min(np.abs(got - r)) <= RAW_PENCIL_RTOL * max(1.0, abs(r))


def at_the_top(p, factor):
    """(base, top): p's values times factor, and those times the power of
    two that puts their largest real or imaginary part at the top of the
    double range, above 2**1022, where 1 / peak is subnormal."""
    base = LagrangePoly(p.nodes, p.values * factor)
    k = 1024 - int(np.frexp(np.abs(base.values.view(float)).max())[1])
    top = LagrangePoly(p.nodes, base.values * 2.0 ** (k - 1000) * 2.0**1000)
    assert top.peak > 2.0**1022
    return base, top


def test_power_of_two_scaling_gives_identical_roots(ref_p):
    complex_p = LagrangePoly(ref_p.nodes, ref_p.values * (1 + 0.5j) - 3j)
    for p in (ref_p, complex_p):
        base = roots(p).roots
        for k in (-30, -20, -10, -4, 4, 10, 20, 30):
            scaled = roots(LagrangePoly(p.nodes, p.values * 2.0**k)).roots
            assert scaled.tobytes() == base.tobytes()
    # finite parts whose moduli pass the double range (an infinite peak),
    # and a finite peak at the top of the range
    tops = [at_the_top(ref_p, 1 + 1j), at_the_top(ref_p, 1)]
    assert [top.peak == np.inf for _, top in tops] == [True, False]
    for base, top in tops:
        assert strict_roots(top).roots.tobytes() == roots(base).roots.tobytes()


def test_subnormal_values_give_the_roots_of_their_normal_scaling(ref_p):
    # below about 5.6e-309, 1 / max|f| overflows in a complex division
    tiny = LagrangePoly(ref_p.nodes, ref_p.values * 2.0**-1060)
    assert np.abs(tiny.values).max() < 5.6e-309
    normal = LagrangePoly(ref_p.nodes, tiny.values * 2.0**1000 * 2.0**60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = roots(tiny).roots
    assert got.tobytes() == roots(normal).roots.tobytes()


def monomial_coefficients(nodes, values):
    """Monomial coefficients, highest first, of the interpolant of the float
    data, by Newton divided differences in the current mpmath precision."""
    x = [mpmath.mpf(float(v)) for v in nodes]
    c = [mpmath.mpf(float(v)) for v in values]
    n = len(x)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (x[i] - x[i - j])
    poly = [c[-1]]
    for i in range(n - 2, -1, -1):  # poly * (X - x[i]) + c[i]
        poly = [a - x[i] * b for a, b in zip(poly + [0], [0] + poly)]
        poly[-1] += c[i]
    return poly


@pytest.mark.parametrize("n", [32, 64, 128])
def test_chebyshev_roots_match_mpmath(n):
    # roots at the n interior second-kind Chebyshev points cos(k pi/(n+1)),
    # samples at the n+1 first-kind Chebyshev points: well conditioned at
    # every degree in node/value form
    planted = np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    nodes = np.cos((2 * np.arange(n + 1) + 1) * np.pi / (2 * n + 2))
    values = np.prod(nodes[:, None] - planted[None, :], axis=1)
    got = roots(LagrangePoly(nodes, values)).roots
    assert len(got) == n
    # The oracle solves the same float data in 50 digits. Expanding to
    # monomials loses about 0.4n digits on these roots, so the expansion
    # carries n/2 guard digits and Durand-Kerner twice the precision.
    with mpmath.workdps(50 + n // 2):
        coeffs = monomial_coefficients(nodes, values)
        dps = mpmath.mp.dps
        want = mpmath.polyroots(
            coeffs,
            maxsteps=100,
            extraprec=int(3.4 * dps),
            roots_init=[mpmath.mpf(float(r)) for r in planted],
        )
    want = np.array([complex(r) for r in want])
    assert np.max(np.abs(np.sort_complex(got) - np.sort_complex(want))) <= 1e-12


# ---------------------------------------------------------------- Aberth
# From degree 64 up on real nodes roots() runs Aberth's iteration, which
# reports inclusion-disk radii; QZ, which reports none, runs below that,
# on complex nodes and wherever Aberth gives way.


def chebyshev_planted(n):
    """Samples at the n+1 first-kind Chebyshev points of the polynomial
    whose roots are the n interior second-kind points cos(k pi/(n+1)),
    ascending, with those roots."""
    planted = np.cos(np.arange(n, 0, -1) * np.pi / (n + 1))
    nodes = np.cos((2 * np.arange(n + 1) + 1) * np.pi / (2 * n + 2))
    return LagrangePoly(nodes, np.prod(nodes[:, None] - planted, axis=1)), planted


def strict_roots(p):
    """roots(p), with any Python warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return roots(p)


def assert_qz_report(report, p):
    """report is QZ's: the filtered eigenvalues byte for byte, no radii."""
    want = oracle_kept_eigenvalues(p)
    assert report.roots.tobytes() == want.tobytes()
    assert report.discarded_count == p.degree + 2 - len(want)
    assert report.radii is None


@pytest.mark.parametrize("n", [256, 512])
def test_aberth_finds_well_conditioned_chebyshev_roots(n):
    p, planted = chebyshev_planted(n)
    report = strict_roots(p)
    assert report.radii is not None and len(report.radii) == n
    assert report.discarded_count == 2
    assert np.max(np.abs(report.roots - planted)) <= 1e-13
    assert report.backward_note is None
    assert report.wide_disk_note(1e-6) is None


@pytest.mark.parametrize("n", [256, 512])
def test_aberth_memory_peak_stays_below_40_n_squared_bytes(n):
    # the sweeps and disks share one workspace of 24 n (n+1) bytes; fresh
    # arrays at every step took the peak to about 64 n^2
    p, _ = chebyshev_planted(n)
    roots(p)  # fills the node-set cache
    tracemalloc.start()
    try:
        roots(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 40 * n * n


def test_aberth_power_of_two_scaling_gives_identical_roots():
    rng = np.random.default_rng(7)
    nodes = np.cos((2 * np.arange(101) + 1) * np.pi / 202)
    cases = [chebyshev_planted(128)[0], LagrangePoly(nodes, rng.uniform(-1, 1, 101))]
    cases.append(LagrangePoly(nodes, cases[1].values * (1 - 0.5j)))
    for p in cases:
        base = strict_roots(p)
        assert base.radii is not None
        for k in (-40, -8, 3, 40):
            scaled = strict_roots(LagrangePoly(p.nodes, p.values * 2.0**k))
            assert scaled.roots.tobytes() == base.roots.tobytes()
            assert scaled.radii.tobytes() == base.radii.tobytes()
    # at the top of the double range, with an infinite peak and a finite one
    tops = [at_the_top(cases[0], f) for f in (1.25 + 1.25j, 1 + 1j)]
    assert [top.peak == np.inf for _, top in tops] == [True, False]
    for base, top in tops:
        got, want = strict_roots(top), strict_roots(base)
        assert want.radii is not None
        assert got.roots.tobytes() == want.roots.tobytes()
        assert got.radii.tobytes() == want.radii.tobytes()


@pytest.mark.parametrize("k", [970, 1000, 1020])
def test_aberth_keeps_its_roots_where_only_a_residual_passes_the_double_range(k):
    # the residuals of these data are about 3e17 times their peak; those
    # past the double range read inf, and the side stays on Aberth
    rng = np.random.default_rng(7)
    nodes = np.cos((2 * np.arange(101) + 1) * np.pi / 202)
    base = strict_roots(LagrangePoly(nodes, rng.uniform(-1, 1, 101)))
    scaled = strict_roots(LagrangePoly(nodes, base.poly.values * 2.0**k))
    assert scaled.radii is not None and np.isinf(scaled.residuals).any()
    assert scaled.roots.tobytes() == base.roots.tobytes()
    assert scaled.radii.tobytes() == base.radii.tobytes()


def test_aberth_on_subnormal_values_gives_the_roots_of_their_normal_scaling():
    rng = np.random.default_rng(11)
    nodes = np.cos((2 * np.arange(101) + 1) * np.pi / 202)
    tiny = LagrangePoly(nodes, rng.uniform(-1, 1, 101) * 2.0**-1060)
    assert tiny.peak < np.finfo(float).tiny
    normal = LagrangePoly(nodes, tiny.values * 2.0**1000 * 2.0**60)
    got, want = strict_roots(tiny), strict_roots(normal)
    assert got.radii is not None
    assert got.roots.tobytes() == want.roots.tobytes()


def test_complex_nodes_keep_the_qz_roots_from_degree_64_up():
    rng = np.random.default_rng(8)
    for n in (64, 100):
        nodes = 0.9 * np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
        for values in (
            rng.standard_normal(n + 1),
            rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1),
        ):
            p = LagrangePoly(nodes, values)
            assert_qz_report(strict_roots(p), p)


def test_lower_degree_data_fall_back_to_qz():
    # degree-60 data on 65 nodes: Aberth puts the 4 excess roots about 14
    # node spreads out, with disks thousands of spreads wide
    nodes = np.cos((2 * np.arange(65) + 1) * np.pi / 130)
    planted = 0.9 * np.cos(np.arange(1, 61) * np.pi / 61)
    p = LagrangePoly(nodes, np.prod(nodes[:, None] - planted, axis=1))
    report = strict_roots(p)
    assert_qz_report(report, p)
    assert report.backward_note == (
        "sampled data appears to have degree 60 < nominal 64; "
        "6 eigenvalues discarded"
    )


@pytest.mark.xfail(
    strict=True,
    reason="a degree drop of 12 at degree 64 leaves Aberth's excess roots "
    "1.0-1.4 node spreads out, inside _ABERTH_FAR, so QZ never names it; "
    "the side is loud only through its meeting disks",
)
def test_a_degree_drop_within_reach_is_named():
    nodes = np.cos((2 * np.arange(65) + 1) * np.pi / 130)
    planted = 0.9 * np.cos(np.arange(1, 53) * np.pi / 53)
    report = strict_roots(LagrangePoly(nodes, np.prod(nodes[:, None] - planted, axis=1)))
    assert report.backward_note.startswith(
        "sampled data appears to have degree 52 < nominal 64"
    )


def test_past_the_sweep_cap_qz_solves(monkeypatch):
    rng = np.random.default_rng(9)
    nodes = np.cos((2 * np.arange(129) + 1) * np.pi / 258)
    p = LagrangePoly(nodes, rng.uniform(-1, 1, 129))
    assert strict_roots(p).radii is not None  # Aberth, within the cap
    monkeypatch.setattr(rootfind_module, "_ABERTH_SWEEPS", 3)
    assert_qz_report(strict_roots(p), p)


def test_aberth_residuals_agree_with_evaluate():
    # At a root both are rounding noise: they agree to (n+1) eps relative
    # to the size of the terms the barycentric sum cancels, |l(r)| times
    # sum_k |w_k f_k / (r - x_k)|, which bounds either one's rounding error.
    rng = np.random.default_rng(10)
    nodes = np.cos((2 * np.arange(101) + 1) * np.pi / 202)
    cases = [
        chebyshev_planted(128)[0],
        LagrangePoly(nodes, rng.standard_normal(101)),
        LagrangePoly(3 * nodes + 7, rng.standard_normal(101) * 1e30),
    ]
    for p in cases:
        report = strict_roots(p)
        assert report.radii is not None
        diff = report.roots[:, None] - p.nodes
        scale = np.abs(diff).prod(axis=1) * np.abs(p.weights * p.values / diff).sum(axis=1)
        got, want = report.residuals, np.abs(evaluate(p, report.roots))
        assert np.all(np.abs(got - want) <= (p.degree + 1) * np.finfo(float).eps * scale)


def test_aberth_root_on_a_node_takes_the_datum_there():
    # a planted root exactly on node x_10: f_10 is 0, the sums there are
    # not finite, and the disk and residual come from the datum
    n = 64
    nodes = np.cos((2 * np.arange(n + 1) + 1) * np.pi / (2 * n + 2))
    planted = np.append(np.cos(np.arange(1, n) * np.pi / n), nodes[10])
    report = strict_roots(LagrangePoly(nodes, np.prod(nodes[:, None] - planted, axis=1)))
    assert report.radii is not None and report.backward_note is None
    (at,) = np.flatnonzero(report.roots == nodes[10])
    assert report.residuals[at] == 0.0 and report.radii[at] == 0.0


def test_meeting_disks_are_noted():
    # degree 128 on 0.95-scaled Chebyshev roots sampled by their product:
    # the data do not separate the roots, and the note says so
    n = 128
    nodes = np.cos((2 * np.arange(n + 1) + 1) * np.pi / (2 * n + 2))
    planted = 0.95 * nodes[:-1]
    report = strict_roots(LagrangePoly(nodes, np.prod(nodes[:, None] - planted, axis=1)))
    assert len(report.roots) == n and report.radii is not None
    z, rho = report.roots.tolist(), report.radii.tolist()
    pairs = [
        (a, b) for a in range(n) for b in range(n)
        if a != b and abs(z[a] - z[b]) <= rho[a] + rho[b]
    ]
    a, b = pairs[0]
    text = rootfind_module._root_text
    assert report.backward_note == (
        "%d of 128 roots have inclusion disks that meet another's, first %s "
        "and %s (radii %.3g and %.3g); the data do not separate them"
        % (len({a for a, _ in pairs}), text(z[a]), text(z[b]), rho[a], rho[b])
    )


def test_disks_wider_than_sigma_are_noted():
    p, _ = chebyshev_planted(64)
    report = strict_roots(p)
    assert report.wide_disk_note(1e-6) is None
    widest = int(np.argmax(report.radii))
    assert report.wide_disk_note(0.0) == (
        "64 of 64 roots have inclusion disks wider than sigma=0, widest %s "
        "(radius %.3g); the data do not fix them to sigma"
        % (rootfind_module._root_text(report.roots[widest]), report.radii[widest])
    )
    assert roots(LagrangePoly([0.0, 1.0, 3.0], [2.0, 0.0, 2.0])).wide_disk_note(0.0) is None
