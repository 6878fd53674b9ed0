"""Rootfinding for polynomials in node/value form, by two methods.

Companion pencil (QZ): the degree-n polynomial sampled at n+1 nodes is
embedded in an (n+2) x (n+2) pencil (C0, C1) whose finite generalized
eigenvalues are the polynomial's roots; det(z*C1 - C0) equals the
interpolant at z. The pencil carries two eigenvalues at infinity which are
filtered after the solve. The solver builds the pencil with row 0 and
column 0 scaled to a largest modulus of 1, in real arithmetic when the
data are real. It costs O(n^3) and runs below degree 64, on complex nodes,
and wherever Aberth's iteration gives up.

Aberth-Ehrlich: from degree 64 up on real nodes, all n roots are refined
together, each sweep O(n^2), using only the barycentric sums
t_k(z) = w_k f_k / (z - x_k), s(z) = sum_k t_k, on which
p(z) = prod_k (z - x_k) * s(z) and p'/p = sum_k 1/(z - x_k) + s'/s. The
same sums at the final roots give each root's Weierstrass inclusion disk,
which says how far the data determine it: the iteration stops on
rounding-level sums, and "converged" does not mean "accurate".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .errors import (
    DegenerateInputError,
    EigensolveFailureError,
    InvalidParameterError,
)
from .lagpoly import _HUGE, LagrangePoly, evaluate

# |beta| below this (relative to the largest |beta|) marks an eigenvalue
# at infinity in the homogeneous (alpha, beta) representation.
SPURIOUS_BETA_RTOL = 1e-10
# Eigenvalues this many node-spreads away from the node centroid are
# artifacts of sampled data whose actual degree is below nominal.
FAR_ROOT_FACTOR = 1e6
_TINY = np.finfo(float).tiny  # the smallest normal double
_EPS = np.finfo(float).eps
# Aberth replaces QZ from this degree up, on real nodes. Below it QZ is
# faster: 0.035 against 0.20 ms at degree 4, 0.29 against 0.76 ms at 32.
_ABERTH_DEGREE = 64
# Sweeps after which Aberth gives up and QZ solves. Well-conditioned data
# take 5-24 sweeps at degree 64-512; random values, on Chebyshev or
# equispaced nodes, at most 21 at degree 64-256, and the sides of the
# benchmark's large_degree workload 13-18.
_ABERTH_SWEEPS = 60
# A root more than this many node spreads from the node centre, with a
# disk wider than the spread, sends the side to QZ: that is where data of
# lower degree than nominal put their excess roots (on 65 nodes, 2.4 to
# 4.5e7 spreads out for degree 56 to 63, with disks of 20 to 3e9 spreads).
# Roots that the data fix have small disks wherever they lie (random
# values put some 27 spreads out, with disks of 6e-11 spreads). Larger
# drops leave the excess roots within reach, where their disks all meet.
_ABERTH_FAR = 2.0

Pencil = Tuple[np.ndarray, np.ndarray]  # (c0, c1)
Workspace = Tuple[np.ndarray, np.ndarray]  # complex and real, n (n+1) long


@dataclass
class RootfindReport:
    """The finite roots of poly, sorted by (real, imaginary) part.

    residuals, |poly| at each root, comes from the final barycentric sums
    where Aberth found the roots; after QZ it is computed on first read by
    evaluate, and cached. radii are the roots' Weierstrass inclusion-disk
    radii, in the roots' order, where Aberth found them, else None.
    """

    roots: np.ndarray
    poly: LagrangePoly
    backward_note: Optional[str] = None
    radii: Optional[np.ndarray] = None

    @property
    def discarded_count(self) -> int:
        """How many of the pencil's degree + 2 eigenvalues are not roots:
        its two infinities, and the far-field eigenvalues of data whose
        degree is below nominal; 2 after Aberth, which builds no pencil."""
        return self.poly.degree + 2 - len(self.roots)

    @cached_property
    def residuals(self) -> np.ndarray:
        return np.abs(evaluate(self.poly, self.roots))

    def wide_disk_note(self, sigma: float) -> Optional[str]:
        """The text on the roots whose inclusion disks are wider than sigma,
        naming the widest, or None (and always None after QZ)."""
        if self.radii is None:
            return None
        wide = np.count_nonzero(self.radii > sigma)
        if not wide:
            return None
        k = int(np.argmax(self.radii))
        return (
            "%d of %d roots have inclusion disks wider than sigma=%.6g, "
            "widest %s (radius %.3g); the data do not fix them to sigma"
            % (wide, len(self.roots), sigma, _root_text(self.roots[k]), self.radii[k])
        )


def _root_text(z: complex) -> str:
    return "%.6g%+.6gj" % (z.real, z.imag)


def _unit_values(values: np.ndarray, peak: float) -> np.ndarray:
    """values divided by their largest modulus, peak. A subnormal peak is
    first raised by 2**1000 with the values, as numpy's complex division
    takes 1 / peak, which would overflow. Above _HUGE the values are
    first scaled by 1/8 and the peak is taken of them again: finite values
    whose moduli pass the double range have an infinite peak."""
    if peak < _TINY:
        values, peak = values * 2.0**1000, peak * 2.0**1000
    elif peak > _HUGE:
        values = values * 0.125
        peak = float(np.abs(values).max())
    return values / peak


def _log_peak(p: LagrangePoly) -> float:
    """log(p.peak), finite also where the peak is infinite: there it is
    taken of the values scaled by 1/8, as in _unit_values."""
    if p.peak < np.inf:
        return math.log(p.peak)
    return math.log(np.abs(p.values * 0.125).max()) + math.log(8.0)


def build_pencil(p: LagrangePoly) -> Pencil:
    """Arrowhead pencil (c0, c1), of size degree + 2: c0 holds -values in
    row 0, weights in column 0 and the nodes on the trailing diagonal; c1
    is the identity with (0,0) zeroed. The solver builds its scaled pencil
    itself; this unscaled complex one is the reference it is checked
    against."""
    n = p.degree
    if n < 1:
        raise InvalidParameterError("pencil requires nominal degree >= 1")
    dim = n + 2
    c0 = np.zeros((dim, dim), dtype=complex)
    c0[0, 1:] = -p.values
    c0[1:, 0] = p.weights
    idx = np.arange(1, dim)
    c0[idx, idx] = p.nodes
    c1 = np.eye(dim, dtype=complex)
    c1[0, 0] = 0.0
    return c0, c1


def pencil_determinant(pencil: Pencil, z: complex) -> complex:
    """det(z*C1 - C0) of the pencil (c0, c1) by LU; equals the sampled
    polynomial at z."""
    c0, c1 = pencil
    return complex(np.linalg.det(z * c1 - c0))


def _eigenvalues(p: LagrangePoly) -> Tuple[np.ndarray, np.ndarray]:
    """Homogeneous eigenvalues (alpha, beta) of p's pencil, by one LAPACK
    ?ggev call without eigenvectors.

    This is build_pencil(p) with row 0 divided by max|f| (_unit_values)
    and column 0 by max|w|, which scales the determinant by a constant
    only; a power-of-two factor on the values then leaves the solve
    bit-identical. The column is the node set's, shared by every
    polynomial on p's nodes. A pencil without imaginary part is built and
    solved in real arithmetic.
    """
    node_set = p._node_set
    row = _unit_values(-p.values, p.peak)
    column, diagonal = node_set.column, node_set.nodes
    if node_set.real and not row.imag.any():
        row, column, diagonal = row.real, column.real, diagonal.real
    # Fortran order, so that LAPACK works on these arrays without a copy
    dim = p.degree + 2
    c0 = np.zeros((dim, dim), dtype=row.dtype, order="F")
    c0[0, 1:] = row
    c0[1:, 0] = column
    c1 = np.zeros_like(c0)
    idx = np.arange(1, dim)
    c0[idx, idx] = diagonal
    c1[idx, idx] = 1.0
    ggev, = get_lapack_funcs(("ggev",), (c0, c1))
    # dggev returns alpha as two arrays (alphar, alphai), zggev as one
    *alpha, beta, _, _, _, info = ggev(
        c0, c1, compute_vl=0, compute_vr=0, overwrite_a=1, overwrite_b=1
    )
    if info != 0:
        raise EigensolveFailureError("eigensolve failed: ?ggev info %d" % info)
    alpha = alpha[0] + 1j * alpha[1] if len(alpha) == 2 else alpha[0]
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
        raise EigensolveFailureError("eigensolver returned non-finite data")
    return alpha, beta


def _rows(a: np.ndarray, m: int, k: int) -> np.ndarray:
    """The first m * k entries of the flat array a, as an m x k array."""
    return a[: m * k].reshape(m, k)


def _inverse_gaps(zc: np.ndarray, x: np.ndarray, work: Workspace) -> np.ndarray:
    """1/(z_i - x_k) for the column zc of m iterates, an m x len(x) array
    at the start of work's complex buffer."""
    inv = np.subtract(zc, x, out=_rows(work[0], len(zc), len(x)))
    return np.reciprocal(inv, out=inv)


def _repulsion(
    zc: np.ndarray, z: np.ndarray, active: np.ndarray, rows: np.ndarray, work: Workspace
) -> np.ndarray:
    """sum_{j != i} 1/(z_i - z_j) for the column zc = z[active] of m
    iterates, from an m x n block at the start of work's complex buffer;
    rows is np.arange(n)."""
    repel = np.subtract(zc, z, out=_rows(work[0], len(zc), len(z)))
    np.reciprocal(repel, out=repel)
    repel[rows[: len(zc)], active] = 0.0
    return repel.sum(axis=1)


def _starts(p: LagrangePoly, work: Workspace) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aberth's start record of p's real nodes: the starts z0, the
    midpoints of the sorted nodes lifted by 1e-3 node spreads into the
    upper half plane, and sweep 0's two node-only sums, sum_k 1/(z0_i - x_k)
    and sum_{j != i} 1/(z0_i - z0_j), read-only (48 n bytes). It is built
    by the calls and in the workspace that a later sweep uses, and leaves
    1/(z0_i - x_k) at the start of work, where sweep 0 reads it.
    """
    ends = np.sort(p.nodes.real)
    z = 0.5 * (ends[1:] + ends[:-1]) + 1e-3j * p.spread
    zc, rows = z[:, None], np.arange(len(z))
    near = _repulsion(zc, z, rows, rows, work)
    total = _inverse_gaps(zc, p.nodes, work).sum(axis=1)
    for a in (z, total, near):
        a.flags.writeable = False
    return z, total, near


def _aberth(p: LagrangePoly, wf: np.ndarray, work: Workspace) -> Optional[np.ndarray]:
    """p's n roots by Aberth-Ehrlich iteration, unordered, or None once
    _ABERTH_SWEEPS sweeps have not fixed them all; p's nodes are real.

    wf is w_k f_k up to a constant factor. The starts, and the sums of
    sweep 0 that depend on the nodes alone, come from the start record
    (_starts), which the first call on p's nodes builds and keeps with
    their node set, so that every polynomial on those nodes starts from
    the same bits while the node set is cached. Each sweep works on the m
    roots still moving: the Newton correction N = 1 / (p'/p) from the
    barycentric sums, then Aberth's step N / (1 - N * sum_{j != i} 1 /
    (z_i - z_j)). A root is fixed after the sweep whose step left it in
    place to rounding, or that started from a rounding-level sum,
    |s| <= 4 (n+1) eps sum_k |t_k|; that last step is taken. A step that
    is not finite (from an iterate exactly on a node or on another root)
    is taken as 0. As m x (n+1) arrays at the start of work, 1/(z - x_k)
    and then its square take the complex buffer and |1/(z - x_k)| the real
    one; before them, 1/(z_i - z_j) takes the complex buffer's first m n
    entries.
    """
    x, n = p.nodes, p.degree
    starts = p._node_set.starts
    cold = starts is None
    if cold:
        starts = p._node_set.starts = _starts(p, work)
    z, total, near = starts
    z = z.copy()
    # a cold call's _starts left sweep 0's 1/(z - x_k) in work
    inv = _rows(work[0], n, n + 1) if cold else _inverse_gaps(z[:, None], x, work)
    active = rows = np.arange(n)
    tol, size = 4 * (n + 1) * _EPS, np.abs(wf)
    for sweep in range(_ABERTH_SWEEPS):
        za = z[active]
        if sweep:  # sweep 0's node-only sums come from the start record
            zc = za[:, None]
            near = _repulsion(zc, z, active, rows, work)
            inv = _inverse_gaps(zc, x, work)
            total = inv.sum(axis=1)
        s = inv @ wf
        done = np.abs(s) <= tol * (np.abs(inv, out=_rows(work[1], len(za), n + 1)) @ size)
        newton = s / (s * total - np.square(inv, out=inv) @ wf)
        step = newton / (1.0 - newton * near)
        step[~np.isfinite(step)] = 0.0
        done |= np.abs(step) <= _EPS * np.abs(za)
        z[active] = za - step
        active = active[~done]
        if not len(active):
            return z
    return None


def _inclusion_disks(
    p: LagrangePoly, wf: np.ndarray, z: np.ndarray, work: Workspace
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(radii, residuals, meet) at the roots z of p, from the barycentric
    sums there, with wf and work as in _aberth.

    Root j's Weierstrass correction is W_j = p(z_j) / (lc * prod_{k != j}
    (z_j - z_k)), lc = sum_k w_k f_k the leading coefficient, and its disk
    has radius n |W_j|: the union of the disks holds every root of p, and
    a component of m disks exactly m. All of it is taken in log space, so
    that no product overflows on its way. The residual |p(z_j)| is
    |prod_k (z_j - x_k)| |s(z_j)| with s's constant factor max|w| * peak
    put back; beyond the double range it reads inf. A log residual that is
    NaN or +inf, from sums that broke down, makes the radius NaN or inf
    too. At a root exactly on a node x_k, where the sums are not finite,
    p is the datum f_k, as in evaluate. meet[j, k] is whether the
    disks of z_j and z_k, j != k, meet. In work, z_j - x_k and then its
    reciprocal take the complex buffer and log|z_j - x_k| the real one,
    n x (n+1); then z_j - z_k the complex one, the gaps the real one, and
    log gaps, then the reach r_j + r_k, the complex one read as reals, n x n.
    """
    n = len(z)
    diff = np.subtract(z[:, None], p.nodes, out=_rows(work[0], n, n + 1))
    log_d = np.abs(diff, out=_rows(work[1], n, n + 1))
    np.log(log_d, out=log_d)
    log_p = log_d.sum(axis=1) + np.log(np.abs(np.reciprocal(diff, out=diff) @ wf))
    if not np.isfinite(log_p).all():  # a root exactly on a node leaves -inf or NaN
        hit_rows, hit_cols = np.nonzero(log_d == -np.inf)
        # wf_k / w_k is f_k with the sums' constant factor taken out
        log_p[hit_rows] = np.log(np.abs(wf[hit_cols] / p.weights[hit_cols]))
    gaps = np.subtract(z[:, None], z, out=_rows(work[0], n, n))
    gaps = np.abs(gaps, out=_rows(work[1], n, n))
    np.fill_diagonal(gaps, 1.0)
    reals = _rows(work[0].view(float), n, n)
    log_w = log_p - np.log(abs(wf.sum())) - np.log(gaps, out=reals).sum(axis=1)
    radii = n * np.exp(log_w)
    scale = math.log(np.abs(p.weights).max()) + _log_peak(p)
    residuals = np.exp(log_p + scale)
    np.fill_diagonal(gaps, np.inf)
    return radii, residuals, gaps <= np.add(radii[:, None], radii, out=reals)


def _aberth_report(p: LagrangePoly) -> Optional[RootfindReport]:
    """roots(p) by _aberth, or None where QZ should solve instead: past the
    sweep cap, for a disk that is not finite (which a log residual that is
    NaN or +inf gives; a residual that only passes the double range reads
    inf and stays), and for a root beyond _ABERTH_FAR node spreads from
    the node centre whose disk is wider than the spread. _aberth and
    _inclusion_disks share one workspace, a complex and a real buffer of
    n (n+1) entries (24 n (n+1) bytes); each array they need is a
    contiguous view of a buffer's start."""
    n = p.degree
    work = np.empty(n * (n + 1), complex), np.empty(n * (n + 1))
    wf = p._node_set.column * _unit_values(p.values, p.peak)
    with np.errstate(all="ignore"):
        z = _aberth(p, wf, work)
        if z is None or not np.isfinite(z).all():
            return None
        z = z[np.lexsort((z.imag, z.real))]
        radii, residuals, meet = _inclusion_disks(p, wf, z, work)
    if not np.isfinite(radii).all():
        return None
    far = np.abs(z - p._node_set.center) > _ABERTH_FAR * p.spread
    if (radii[far] > p.spread).any():
        return None
    note = None
    if meet.any():
        a, b = divmod(int(np.argmax(meet)), n)  # the first pair in the roots' order
        note = (
            "%d of %d roots have inclusion disks that meet another's, "
            "first %s and %s (radii %.3g and %.3g); the data do not "
            "separate them"
            % (np.count_nonzero(meet.any(axis=1)), len(z), _root_text(z[a]),
               _root_text(z[b]), radii[a], radii[b])
        )
    report = RootfindReport(roots=z, poly=p, backward_note=note, radii=radii)
    report.residuals = residuals  # the cached value, from the same sums
    return report


def roots(p: LagrangePoly) -> RootfindReport:
    """All finite roots of the sampled polynomial.

    From degree 64 up on real nodes, Aberth's iteration finds them
    (_aberth_report) and reports each root's inclusion-disk radius; its
    residuals come from the same sums. Where two disks meet, the note names
    the first two such roots: the data do not separate them. The disks,
    not convergence, say how accurate the roots are. Aberth returns
    exactly n roots, so its discarded_count is 2. It gives way to QZ past
    its sweep cap, for a root more than two node spreads from the node
    centre with a disk wider than the spread (the mark of data whose
    degree is below nominal), and for a disk that is not finite; a
    residual beyond the double range reads inf.

    QZ, below degree 64, on complex nodes and as that fallback, returns
    exactly n roots for full-degree data; its residuals are computed when
    first read. If the data's actual degree is lower, far-field
    eigenvalues are discarded as well and a diagnostic note is attached
    rather than padding the list.
    """
    if p.degree < 1:
        raise InvalidParameterError("rootfinding requires nominal degree >= 1")
    if p.peak == 0.0:
        raise DegenerateInputError(
            "all sampled values are zero; the polynomial is identically zero"
        )
    if p.degree >= _ABERTH_DEGREE and p._node_set.real:
        report = _aberth_report(p)
        if report is not None:
            return report
    alpha, beta = _eigenvalues(p)
    beta_scale = max(1.0, float(np.abs(beta).max()))
    center = p._node_set.center
    spread = max(p.spread, 1.0)

    # The two smallest-|beta| eigenvalues are the pencil's structural
    # infinities; anything else with tiny beta or far outside the node
    # region (a non-finite quotient included) is a degree-deflation artifact.
    order = np.argsort(np.abs(beta), kind="stable")[2:]
    alpha, beta = alpha[order], beta[order]
    big = np.abs(beta) > SPURIOUS_BETA_RTOL * beta_scale
    lam = alpha[big] / beta[big]
    lam = lam[np.abs(lam - center) <= FAR_ROOT_FACTOR * spread]
    report = RootfindReport(roots=lam[np.lexsort((lam.imag, lam.real))], poly=p)
    found = len(report.roots)
    if found < p.degree:
        report.backward_note = (
            "sampled data appears to have degree %d < nominal %d; "
            "%d eigenvalues discarded" % (found, p.degree, report.discarded_count)
        )
    return report
