"""The four benchmark workloads: seeded inputs, the timed call, the oracle.

Inputs are made here with numpy alone (never with `laggcd.from_roots`), so a
seed gives bit-identical inputs whatever the library does. The library sees
only nodes, values and root lists. Problem ``i`` of a run draws from its own
generator, seeded by ``(seed, workload, i)``, so the inputs do not depend on
how many problems a run gets through.

Each workload plants a known GCD and its oracle classifies every attempt as
``solved``, ``raised`` or ``wrong``. "Solved" means: nothing raised (exit 0
for the CLI), the GCD degree equals the planted degree, and every planted
root is matched by a found root of equal multiplicity within the workload's
tolerance ``tol``. A wrong answer is *silent* when it also passed both
certificates and carried no warning.

Library functions are looked up on their modules at call time, so the traced
run (see ``spans.py``) sees every call the workloads make.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

import numpy as np

Roots = List[Tuple[complex, int]]

SOLVED, RAISED, WRONG = "solved", "raised", "wrong"
WARMUP_ID = 10**9


@dataclass
class Problem:
    label: str  # groups problems for per-label statistics, e.g. "deg64"
    planted: Roots  # the planted GCD
    tol: float
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    status: str
    silent: bool = False  # wrong, yet certified and without warnings
    err: float = 0.0  # largest planted-root error, for solved problems
    raised: Optional[str] = None  # exception type name or "exit <code>"


# --------------------------------------------------------------- generation


def cheb_nodes(count: int) -> np.ndarray:
    """Chebyshev points of the first kind on [-1, 1], ascending."""
    k = np.arange(count)
    return np.sort(np.cos((2 * k + 1) * np.pi / (2 * count)))


def expand(roots: Roots) -> np.ndarray:
    return np.array([r for r, m in roots for _ in range(m)], dtype=complex)


def sample(roots: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Values of the monic polynomial with these roots at the nodes."""
    return np.prod(nodes[:, None] - roots[None, :], axis=1)


def add_noise(rng, values: np.ndarray, rel: float) -> np.ndarray:
    noise = rng.standard_normal(len(values))
    if np.iscomplexobj(values):
        noise = noise + 1j * rng.standard_normal(len(values))
    return values * (1.0 + rel * noise)


def separated_reals(rng, count: int, gap: float, lo: float, hi: float) -> np.ndarray:
    """count reals in [lo, hi], pairwise at least gap apart: distinct grid
    slots 1.5*gap apart, each jittered by at most gap/4."""
    slots = np.arange(lo + gap / 4, hi - gap / 4, 1.5 * gap)
    chosen = rng.choice(slots, size=count, replace=False)
    return chosen + rng.uniform(-gap / 4, gap / 4, size=count)


def separated_disk(rng, count: int, gap: float, radius: float) -> np.ndarray:
    """count points in the disk |z| <= radius, pairwise at least gap apart
    (dart throwing; the disk has room for far more points than asked)."""
    out: List[complex] = []
    while len(out) < count:
        z = radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - w) >= gap for w in out):
            out.append(complex(z))
    return np.array(out)


def gcd_multiplicities(rng, max_degree: int) -> List[int]:
    """1-3 planted GCD roots of multiplicity 1-3, of total degree < max_degree."""
    while True:
        mults = [int(m) for m in rng.integers(1, 4, size=int(rng.integers(1, 4)))]
        if sum(mults) < max_degree:
            return mults


# ------------------------------------------------------------------- oracle


def match_planted(planted: Roots, found: Roots, tol: float) -> Tuple[bool, float]:
    """Whether found is the planted GCD within tol, and the largest error.

    Planted roots lie more than 2*tol apart, so the nearest unused found
    root of equal multiplicity is the only candidate for each.
    """
    if sum(m for _, m in planted) != sum(m for _, m in found):
        return False, float("inf")
    if len(planted) != len(found):
        return False, float("inf")
    unused = list(found)
    worst = 0.0
    for r, m in planted:
        cands = [(abs(r - s), k) for k, (s, d) in enumerate(unused) if d == m]
        if not cands:
            return False, float("inf")
        dist, k = min(cands)
        if dist > tol:
            return False, float("inf")
        worst = max(worst, dist)
        unused.pop(k)
    return True, worst


def judge(problem: Problem, found: Roots, certified: bool, warned: bool) -> Outcome:
    ok, err = match_planted(problem.planted, found, problem.tol)
    if ok:
        return Outcome(SOLVED, err=err)
    return Outcome(WRONG, silent=certified and not warned)


# ---------------------------------------------------------------- workloads


class Workload:
    """One benchmark workload; subclasses fill in the methods below."""

    name = ""
    index = 0
    # problems per round: the speed reference runs after each round and
    # corrects that round's CPU time, so a round holds every kind of
    # problem the workload cycles through and lasts long enough (tens of ms
    # or more) for a reference of 5% of its time to take several samples
    round_size = 1
    # problems per second of --seconds that a run completes even in the
    # slow state of the machine the benchmark was built on, with a margin
    # (about 0.8 of the slowest rate seen there); see counted_rounds
    counted_rate = 1.0

    def counted_rounds(self, seconds: float) -> int:
        """The fixed number of rounds whose problems a run of `seconds`
        always attempts, whatever the machine's speed: `attempted`,
        `failed` and the outcomes are taken over these, so they repeat
        exactly for a seed."""
        return max(1, int(seconds * self.counted_rate / self.round_size))

    def rng(self, seed: int, pid: int):
        return np.random.default_rng([seed, self.index, pid])

    def make(self, seed: int, pid: int, workdir: str) -> Problem:
        raise NotImplementedError

    def warmup(self, seed: int, workdir: str) -> List[Problem]:
        """The set-up problems, drawn outside the measured id range."""
        return [self.make(seed, WARMUP_ID, workdir)]

    def solve(self, lib, problem: Problem) -> Any:
        """The timed call into the library."""
        raise NotImplementedError

    def check(self, problem: Problem, output: Any) -> Outcome:
        raise NotImplementedError

    def planted_output(self, problem: Problem) -> Any:
        """An output carrying exactly the planted answer (oracle self-check)."""
        raise NotImplementedError


class _Planted:
    """Stand-in for AgcdResult with the planted GCD and clean certificates."""

    def __init__(self, roots: Roots):
        self.gcd_roots, self.cert_p, self.cert_q, self.warnings = roots, True, True, []


class _AgcdPairs(Workload):
    """`approximate_gcd` with default settings at tolerance SIGMA on the
    pair (px, py), (qx, qy); the oracle reads only the GCD root list, the
    certificates and the warnings."""

    SIGMA = 0.0

    def solve(self, lib, problem):
        d = problem.data
        return lib.approximate_gcd(
            lib.LagrangePoly(d["px"], d["py"]),
            lib.LagrangePoly(d["qx"], d["qy"]),
            lib.ClusterParams(sigma=self.SIGMA),
        )

    def check(self, problem, output):
        found = [(complex(r), int(m)) for r, m in output.gcd_roots]
        certified = bool(output.cert_p and output.cert_q)
        return judge(problem, found, certified, bool(output.warnings))

    def planted_output(self, problem):
        return _Planted(problem.planted)


class SmallBatch(_AgcdPairs):
    """Many real planted pairs of degree 4-16, default pipeline."""

    name, index, round_size = "small_batch", 1, 50
    counted_rate = 350.0
    SIGMA = 1e-2
    NOISE = 1e-10

    def make(self, seed, pid, workdir):
        rng = self.rng(seed, pid)
        deg_p, deg_q = (int(d) for d in rng.integers(4, 17, size=2))
        # all distinct roots (GCD and both cofactors) lie 3*sigma apart, so
        # the planted GCD is the GCD at tolerance sigma
        mults = gcd_multiplicities(rng, min(deg_p, deg_q))
        n_g, deg_g = len(mults), sum(mults)
        n_a, n_b = deg_p - deg_g, deg_q - deg_g
        pts = separated_reals(rng, n_g + n_a + n_b, 3 * self.SIGMA, -0.9, 0.9)
        gcd = [(complex(x), m) for x, m in zip(pts, mults)]
        g = expand(gcd)
        p_roots = np.concatenate([g, pts[n_g : n_g + n_a]]).real
        q_roots = np.concatenate([g, pts[n_g + n_a :]]).real
        px, qx = cheb_nodes(deg_p + 1), cheb_nodes(deg_q + 1)
        py = add_noise(rng, sample(p_roots, px), self.NOISE)
        qy = add_noise(rng, sample(q_roots, qx), self.NOISE)
        return Problem("all", gcd, self.SIGMA, dict(px=px, py=py, qx=qx, qy=qy))


class LargeDegree(_AgcdPairs):
    """Single pairs at degree 64, 128, 256 with roots at 0.95*Chebyshev."""

    name, index, round_size = "large_degree", 2, 3
    counted_rate = 4.5
    DEGREES = (64, 128, 256)
    # far below the smallest root gap (about 7e-5 at degree 256)
    SIGMA = 1e-6

    def make(self, seed, pid, workdir):
        return self._make(self.rng(seed, pid), self.DEGREES[pid % 3])

    def warmup(self, seed, workdir):
        return [self._make(self.rng(seed, WARMUP_ID), self.DEGREES[0])]

    def _make(self, rng, n):
        p_roots = 0.95 * cheb_nodes(n)
        g = np.sort(rng.choice(p_roots, size=n // 2, replace=False))
        mids = 0.5 * (p_roots[1:] + p_roots[:-1])
        b = np.sort(rng.choice(mids, size=n - n // 2, replace=False))
        nodes = cheb_nodes(n + 1)
        data = dict(
            px=nodes,
            py=sample(p_roots, nodes).real,
            qx=nodes,
            qy=sample(np.concatenate([g, b]), nodes).real,
        )
        planted = [(complex(r), 1) for r in g]
        return Problem("deg%d" % n, planted, self.SIGMA, data)


class RootClouds(Workload):
    """The root-list half of the pipeline on large complex root clouds.

    Even problems are *wide* pairs (2048 roots a side, dnc, rho=sum), odd
    ones *tight* pairs (512 roots a side, heuristic, rho=max). Both sides
    share planted triple clusters of radius 1e-4; every other root sits in
    its own cell of a 96x96 grid over the unit square, inset so that roots
    of different cells are at least half a cell (about 5e-3) apart.
    """

    name, index, round_size = "root_clouds", 3, 2
    counted_rate = 0.9
    GRID = 96
    RADIUS = 1e-4
    EDGE_SIGMA = 1e-3
    # (roots per side, shared triple clusters, strategy, cluster sigma, rho);
    # 1e-9 puts the heuristic's triple radius cap sigma**(1/3) at 1e-3.
    KINDS = (
        (2048, 64, "dnc", 3e-4, "sum"),
        (512, 16, "heuristic", 1e-9, "max"),
    )
    WARMUP_SIZES = ((96, 4), (48, 2))

    def make(self, seed, pid, workdir):
        n, k = self.KINDS[pid % 2][:2]
        return self._make(self.rng(seed, pid), pid % 2, n, k)

    def warmup(self, seed, workdir):
        # a small pair of each kind loads the same code paths cheaply
        rng = self.rng(seed, WARMUP_ID)
        return [self._make(rng, kind, *self.WARMUP_SIZES[kind]) for kind in (0, 1)]

    def _triple(self, rng, center):
        theta = rng.uniform(0, 2 * np.pi) + 2 * np.pi * np.arange(3) / 3
        theta = theta + rng.uniform(-0.05, 0.05, size=3)
        radius = self.RADIUS * rng.uniform(0.9, 1.1, size=3)
        return center + radius * np.exp(1j * theta)

    def _make(self, rng, kind, n, k):
        cell = 1.0 / self.GRID
        cells = rng.choice(self.GRID**2, size=k + 2 * (n - 3 * k), replace=False)
        corner = (cells % self.GRID + 1j * (cells // self.GRID)) * cell
        jitter = rng.uniform(0.25, 0.75, size=len(cells)) + 1j * rng.uniform(
            0.25, 0.75, size=len(cells)
        )
        pts = corner + cell * jitter
        centers, rest = pts[:k], pts[k:]
        side_p = np.concatenate([self._triple(rng, c) for c in centers] + [rest[: n - 3 * k]])
        side_q = np.concatenate([self._triple(rng, c) for c in centers] + [rest[n - 3 * k :]])
        planted = [(complex(c), 3) for c in centers]
        data = dict(kind=kind, p=side_p, q=side_q)
        return Problem(("wide", "tight")[kind], planted, self.EDGE_SIGMA, data)

    def solve(self, lib, problem):
        _, _, strategy, sigma, rho = self.KINDS[problem.data["kind"]]
        agcd = lib.agcd
        params = lib.ClusterParams(sigma=sigma, strategy=strategy)
        sides = [lib.RootList((r, 1) for r in problem.data[s]) for s in ("p", "q")]
        clustered = [agcd.cluster(roots, params) for roots in sides]
        graph = agcd.build_graph(clustered[0], clustered[1], self.EDGE_SIGMA)
        match = agcd.greedy_mwm(graph)
        gcd = agcd.assemble_gcd(match, graph)
        dists = []
        for s, c, side in zip(("p", "q"), clustered, ("left", "right")):
            tilde = agcd.reconstruct(c, match, side, gcd)
            dists.append(agcd.root_pseudometric(problem.data[s], tilde.expand(), rho=rho))
        return gcd, dists

    def check(self, problem, output):
        gcd, dists = output
        found = [(complex(r), int(m)) for r, m in gcd]
        return judge(problem, found, max(dists) <= self.EDGE_SIGMA, False)

    def planted_output(self, problem):
        return problem.planted, [0.0, 0.0]


class CliFiles(Workload):
    """In-process `laggcd agcd` on complex-rooted problem files."""

    name, index, round_size = "cli_files", 4, 20
    counted_rate = 60.0
    SIGMA = 1e-4  # edge and certificate tolerance (the file's sigma)
    SIGMA_CLUSTER = 1e-6  # heuristic radius caps: 1e-3 double, 1e-2 triple
    NOISE = 1e-10
    GAP = 0.05
    ARGS = ("--strategy", "heuristic", "--matcher", "exact", "--rho", "max")

    def make(self, seed, pid, workdir):
        rng = self.rng(seed, pid)
        deg_p, deg_q = (int(d) for d in rng.integers(6, 17, size=2))
        mults = gcd_multiplicities(rng, min(deg_p, deg_q))
        n_g, deg_g = len(mults), sum(mults)
        n_a, n_b = deg_p - deg_g, deg_q - deg_g
        pts = separated_disk(rng, n_g + n_a + n_b, self.GAP, 0.9)
        gcd = [(complex(z), m) for z, m in zip(pts, mults)]
        g = expand(gcd)
        px, qx = cheb_nodes(deg_p + 1), cheb_nodes(deg_q + 1)
        py = add_noise(rng, sample(np.concatenate([g, pts[n_g : n_g + n_a]]), px), self.NOISE)
        qy = add_noise(rng, sample(np.concatenate([g, pts[n_g + n_a :]]), qx), self.NOISE)
        doc = {
            "px": [float(x) for x in px],
            "py": [[float(z.real), float(z.imag)] for z in py],
            "qx": [float(x) for x in qx],
            "qy": [[float(z.real), float(z.imag)] for z in qy],
            "sigma": self.SIGMA,
            "sigmaOverrides": {"cluster": self.SIGMA_CLUSTER},
        }
        path = os.path.join(workdir, "problem-%d.json" % pid)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out = os.path.join(workdir, "result-%d.json" % pid)
        if os.path.exists(out):
            os.remove(out)
        return Problem("all", gcd, self.SIGMA, dict(path=path, out=out))

    def solve(self, lib, problem):
        argv = ["agcd", problem.data["path"], *self.ARGS, "-o", problem.data["out"]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return lib.cli.main(argv)

    def check(self, problem, output):
        if output != 0:
            return Outcome(RAISED, raised="exit %s" % output)
        try:
            with open(problem.data["out"]) as fh:
                doc = json.load(fh)
        except (OSError, ValueError):  # exit 0 without a readable result
            return Outcome(WRONG)
        # read the GCD itself: the payload's "sigma" field reports the
        # cluster override, not the file's sigma
        found = [(complex(*z), int(m)) for z, m in doc["gcd"]["roots"]]
        certified = bool(doc["cert_p"] and doc["cert_q"])
        return judge(problem, found, certified, bool(doc["warnings"]))

    def planted_output(self, problem):
        doc = {
            "gcd": {"roots": [[[r.real, r.imag], m] for r, m in problem.planted]},
            "cert_p": True,
            "cert_q": True,
            "warnings": [],
        }
        with open(problem.data["out"], "w") as fh:
            json.dump(doc, fh)
        return 0


WORKLOADS = {w.name: w for w in (SmallBatch(), LargeDegree(), RootClouds(), CliFiles())}
