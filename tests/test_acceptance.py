"""Acceptance suite: one numbered test per shipping criterion.

Each criterion prints a single PASS/FAIL line on the terminal (bypassing
capture) so the verdicts are visible in any run. Criteria 1 and 2 are
marked as expected failures: the bundled reference dataset's sampled
values are internally inconsistent with its printed root/GCD summary
(the samples encode a lone root near 0.90, not 1.00, and cluster centers
1.800/1.400, hence a GCD root at 1.600 rather than 1.63375). Companion
tests pin the values the samples actually encode.
"""

import time
from itertools import permutations

import numpy as np
import pytest

from laggcd import (
    ClusterParams,
    LagrangePoly,
    RootList,
    Strategy,
    approximate_gcd,
    build_pencil,
    cluster_dnc,
    cluster_heuristic,
    evaluate,
    exact_mwm,
    from_roots,
    greedy_mwm,
    pencil_determinant,
    root_pseudometric,
    roots,
)
from laggcd.matching import Edge, MatchGraph
from conftest import random_distinct_nodes

# roots actually encoded by the reference samples (7 significant digits)
MEASURED_P = [0.9000097, 1.6990599, 1.7514374, 1.8503492, 1.8991882,
              2.5999838, 2.8000096]
MEASURED_Q = [1.3122085, 1.3341675, 1.4554877, 1.4982092, 2.7999981,
              2.9999944]


def announce(capsys, num, name, ok):
    with capsys.disabled():
        print("\n[acceptance %02d] %s: %s" % (num, name, "PASS" if ok else "FAIL"))


def max_deviation(found, targets):
    found = sorted(found, key=lambda z: z.real)
    targets = sorted(targets)
    if len(found) != len(targets):
        return float("inf")
    return max(abs(f - t) for f, t in zip(found, targets))


def cheb_nodes(count, lo, hi):
    k = np.arange(1, count + 1)
    return (lo + hi) / 2 + (hi - lo) / 2 * np.cos((2 * k - 1) * np.pi / (2 * count))


@pytest.mark.xfail(
    strict=True,
    reason="reference samples encode a lone root near 0.90 (printed 1.00) and a "
    "Q root at 1.4555 (printed 1.45); both miss the 5e-3 tolerance",
)
def test_criterion_01_reference_root_regression(capsys, ref_p, ref_q):
    t0 = time.perf_counter()
    rp = roots(ref_p).roots
    rq = roots(ref_q).roots
    elapsed = time.perf_counter() - t0
    dev_p = max_deviation(rp, [2.80, 2.60, 1.90, 1.85, 1.75, 1.70, 1.00])
    dev_q = max_deviation(rq, [3.0, 2.80, 1.31, 1.33, 1.45, 1.50])
    ok = dev_p <= 5e-3 and dev_q <= 5e-3 and elapsed < 1.0
    announce(capsys, 1, "reference rootfinding regression", ok)
    assert elapsed < 1.0
    assert dev_p <= 5e-3, "worst P deviation %.4g" % dev_p
    assert dev_q <= 5e-3, "worst Q deviation %.4g" % dev_q


def test_criterion_01_companion_measured_roots(ref_p, ref_q):
    # regression against the values the samples actually encode
    t0 = time.perf_counter()
    rp = roots(ref_p).roots
    rq = roots(ref_q).roots
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert max_deviation(rp, MEASURED_P) <= 1e-6
    assert max_deviation(rq, MEASURED_Q) <= 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="reference samples yield cluster centers 1.800/1.400, hence a GCD "
    "root at 1.600 (printed 1.63375) and a cofactor root at 0.90 (printed "
    "1.00); both miss the 1e-2 tolerance",
)
def test_criterion_02_reference_end_to_end(capsys, ref_p, ref_q):
    res = approximate_gcd(ref_p, ref_q, ClusterParams(sigma=0.5))
    structure_ok = (
        res.gcd_degree == 6
        and sorted(m for _, m in res.gcd_roots) == [2, 4]
        and res.matching.total_weight == 6
    )
    centers = {m: r for r, m in res.gcd_roots}
    roots_ok = (
        structure_ok
        and abs(centers[4] - 1.63375) <= 1e-2
        and abs(centers[2] - 2.8) <= 1e-2
    )
    # P~ = G*(x-1), Q~ = G up to 1e-2 on root lists
    pt_extra = [e for e in res.p_tilde_roots if e not in res.gcd_roots.entries]
    tilde_ok = (
        res.q_tilde_roots == res.gcd_roots
        and len(pt_extra) == 1
        and pt_extra[0][1] == 1
        and abs(pt_extra[0][0] - 1.0) <= 1e-2
    )
    ok = structure_ok and roots_ok and tilde_ok
    announce(capsys, 2, "reference end-to-end pipeline", ok)
    assert structure_ok
    assert roots_ok, "gcd centers %r" % (centers,)
    assert tilde_ok, "tilde extras %r" % (pt_extra,)


def test_criterion_02_companion_measured_pipeline(ref_p, ref_q):
    res = approximate_gcd(ref_p, ref_q, ClusterParams(sigma=0.5))
    assert res.gcd_degree == 6
    assert res.matching.total_weight == 6
    centers = {m: r for r, m in res.gcd_roots}
    assert abs(centers[4] - 1.600013) <= 1e-4
    assert abs(centers[2] - 2.8) <= 1e-4
    assert res.q_tilde_roots == res.gcd_roots
    (r, m), = res.cofactor_p.entries
    assert m == 1 and abs(r - 0.90001) <= 1e-4


def test_criterion_03_pencil_determinant_identity(capsys, rng):
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        nodes = random_distinct_nodes(rng, n + 1)
        values = rng.uniform(-10, 10, n + 1)
        p = LagrangePoly(nodes, values)
        pencil = build_pencil(p)
        for z in rng.uniform(-4, 4, 10) + 1j * rng.uniform(-1, 1, 10):
            det = pencil_determinant(pencil, z)
            want = evaluate(p, z)
            worst = max(worst, abs(det - want) / max(1.0, abs(want)))
    ok = worst <= 1e-6
    announce(capsys, 3, "pencil determinant identity (200 polys)", ok)
    assert ok, "worst relative deviation %.3g" % worst


def test_criterion_04_dnc_worked_example(capsys):
    out = cluster_dnc(RootList([(1.0, 1), (1.5, 1), (2.0, 1)]), 0.5)
    ok = out.entries == ((1.25 + 0j, 2), (2.0 + 0j, 1))
    announce(capsys, 4, "divide-and-conquer worked example", ok)
    assert ok, "got %r" % (out.entries,)


def brute_min(f, g, rho):
    n = len(f)
    d = np.abs(np.subtract.outer(np.asarray(f), np.asarray(g)))
    perms = np.array(list(permutations(range(n))))
    picked = d[perms, np.arange(n)]
    agg = picked.sum(axis=1) if rho == "sum" else picked.max(axis=1)
    return float(agg.min()) / n


def test_criterion_05_pseudometric_axioms_and_oracle(capsys, rng):
    def vec(n):
        return rng.uniform(-3, 3, n) + 1j * rng.uniform(-3, 3, n)

    violations = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        f, g, h = vec(n), vec(n), vec(n)
        for rho in ("sum", "max"):
            dfg = root_pseudometric(f, g, rho=rho)
            if abs(dfg - root_pseudometric(g, f, rho=rho)) > 1e-12:
                violations += 1
            if dfg > root_pseudometric(f, h, rho=rho) + root_pseudometric(
                h, g, rho=rho
            ) + 1e-12:
                violations += 1
    mismatches = 0
    for _ in range(60):
        n = int(rng.integers(1, 9))
        f, g = vec(n), vec(n)
        for rho in ("sum", "max"):
            got = root_pseudometric(f, g, rho=rho)
            want = brute_min(f, g, rho)
            if abs(got - want) > 1e-12 * max(1.0, want):
                mismatches += 1
    ok = violations == 0 and mismatches == 0
    announce(capsys, 5, "pseudometric axioms and assignment oracle", ok)
    assert violations == 0
    assert mismatches == 0


def test_criterion_06_greedy_half_bound(capsys, rng):
    violations = 0
    for _ in range(500):
        nl, nr = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        edges = tuple(
            Edge(i, j, int(rng.integers(1, 6)), float(rng.uniform(0, 1)))
            for i in range(nl)
            for j in range(nr)
            if rng.uniform() < 0.4
        )
        left = RootList((k, 1) for k in range(nl))
        right = RootList((k, 1) for k in range(nr))
        g = MatchGraph(left=left, right=right, edges=edges)
        if 2 * greedy_mwm(g).total_weight < exact_mwm(g).total_weight:
            violations += 1
    ok = violations == 0
    announce(capsys, 6, "greedy matching 1/2-approximation bound", ok)
    assert violations == 0


def synthetic_pair(rng):
    """P = G0*A, Q = G0*B over distinct integer roots, degrees <= 10."""
    pool = np.arange(-8, 9)
    rng.shuffle(pool)
    dg = int(rng.integers(1, 4))
    da = int(rng.integers(1, 5))
    db = int(rng.integers(1, 5))
    g0 = [float(r) for r in pool[:dg]]
    a = [float(r) for r in pool[dg:dg + da]]
    b = [float(r) for r in pool[dg + da:dg + da + db]]

    def build(extra):
        rl = RootList((r, 1) for r in g0 + extra)
        return from_roots(rl, cheb_nodes(rl.total_multiplicity() + 1, -10.0, 10.0))

    return g0, build(a), build(b)


def test_criterion_07_exact_gcd_recovery(capsys, rng):
    successes = 0
    untraced = []
    for trial in range(100):
        g0, p, q = synthetic_pair(rng)
        res = approximate_gcd(p, q, ClusterParams(sigma=1e-6))
        got = sorted(r.real for r, _ in res.gcd_roots)
        mults_ok = all(m == 1 for _, m in res.gcd_roots)
        if (
            res.gcd_degree == len(g0)
            and mults_ok
            and max_deviation([complex(r) for r in got], sorted(g0)) <= 1e-6
        ):
            successes += 1
        elif not (
            res.p_report.backward_note
            or res.q_report.backward_note
            or res.warnings
        ):
            untraced.append(trial)
    ok = successes >= 95 and not untraced
    announce(
        capsys, 7, "exact-GCD recovery (%d/100 recovered)" % successes, ok
    )
    assert successes >= 95
    assert not untraced, "failures without diagnostics: %r" % untraced


def test_criterion_08_conservation(capsys, rng):
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 25))
        pts = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        rl = RootList(zip(pts, rng.integers(1, 4, n)))
        sigma = float(rng.uniform(0, 0.2))
        total = rl.total_multiplicity()
        params = ClusterParams(sigma=sigma, strategy=Strategy.HEURISTIC)
        if cluster_dnc(rl, sigma).total_multiplicity() != total:
            ok = False
        if cluster_heuristic(rl, params).total_multiplicity() != total:
            ok = False
    for _ in range(60):
        dp = int(rng.integers(2, 8))
        dq = int(rng.integers(2, 8))

        def poly(d):
            step = rng.uniform(0.4, 0.9)
            rs = np.cumsum(rng.uniform(step, 1.0, d)) - d / 2
            rl = RootList((float(r), 1) for r in rs)
            return from_roots(rl, cheb_nodes(d + 1, -6.0, 6.0))

        p, q = poly(dp), poly(dq)
        res = approximate_gcd(p, q, ClusterParams(sigma=float(rng.uniform(0, 0.5))))
        if res.p_tilde_roots.total_multiplicity() != p.degree:
            ok = False
        if res.q_tilde_roots.total_multiplicity() != q.degree:
            ok = False
        if res.gcd_degree != res.matching.total_weight:
            ok = False
    announce(capsys, 8, "multiplicity and degree conservation", ok)
    assert ok


def test_criterion_09_unit_square_heuristic(capsys, rng):
    n = 20
    pts = list(rng.uniform(0, 1, n) + 1j * rng.uniform(0, 1, n))
    rl = RootList((p, 1) for p in pts)
    params = ClusterParams(sigma=1.0 / n ** 2, strategy=Strategy.HEURISTIC)
    out1 = cluster_heuristic(rl, params)
    out2 = cluster_heuristic(rl, params)
    inside = all(
        -1e-12 <= c.real <= 1 + 1e-12 and -1e-12 <= c.imag <= 1 + 1e-12
        for c, _ in out1
    )
    ok = out1 == out2 and out1.total_multiplicity() == n and inside
    announce(capsys, 9, "seeded unit-square heuristic run", ok)
    assert ok


def test_criterion_10_scaling_sanity(capsys, rng, dnc_comparisons):
    counts = {}
    for exp in (10, 14):
        n = 2 ** exp
        pts = rng.uniform(0, 1, n) + 1j * rng.uniform(0, 1, n)
        counts[exp] = dnc_comparisons(RootList((p, 1) for p in pts), 1.0 / n)
    dnc_ratio = counts[14] / counts[10]
    dnc_ok = dnc_ratio <= 1.3 * (16 * 14 / 10)

    def rootfind_time(degree):
        nodes = cheb_nodes(degree + 1, -1.0, 1.0)
        p = LagrangePoly(nodes, rng.uniform(-1, 1, degree + 1))
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            roots(p)
            best = min(best, time.perf_counter() - t0)
        return best

    time_ratio = rootfind_time(128) / rootfind_time(64)
    time_ok = time_ratio <= 12.0
    ok = dnc_ok and time_ok
    announce(
        capsys,
        10,
        "scaling sanity (merge ratio %.1f, time ratio %.1f)"
        % (dnc_ratio, time_ratio),
        ok,
    )
    assert dnc_ok, "comparison growth factor %.2f" % dnc_ratio
    assert time_ok, "rootfind time growth factor %.2f" % time_ratio
