"""Companion-pencil rootfinding for polynomials in node/value form.

The degree-n polynomial sampled at n+1 nodes is embedded in an
(n+2) x (n+2) pencil (C0, C1) whose finite generalized eigenvalues are the
polynomial's roots; det(z*C1 - C0) equals the interpolant at z. The pencil
carries two eigenvalues at infinity which are filtered after the solve.
The solver builds the pencil with row 0 and column 0 scaled to a largest
modulus of 1, in real arithmetic when the data are real.
"""

from __future__ import annotations

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
from .lagpoly import LagrangePoly, evaluate

# |beta| below this (relative to the largest |beta|) marks an eigenvalue
# at infinity in the homogeneous (alpha, beta) representation.
SPURIOUS_BETA_RTOL = 1e-10
# Eigenvalues this many node-spreads away from the node centroid are
# artifacts of sampled data whose actual degree is below nominal.
FAR_ROOT_FACTOR = 1e6
_TINY = np.finfo(float).tiny  # the smallest normal double

Pencil = Tuple[np.ndarray, np.ndarray]  # (c0, c1)


@dataclass
class RootfindReport:
    """The finite roots of poly, sorted by (real, imaginary) part.

    residuals, |poly| at each root, is computed on first read and cached.
    """

    roots: np.ndarray
    discarded_count: int
    poly: LagrangePoly
    backward_note: Optional[str] = None

    @cached_property
    def residuals(self) -> np.ndarray:
        return np.abs(evaluate(self.poly, self.roots))


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

    This is build_pencil(p) with row 0 divided by max|f| and column 0 by
    max|w|, which scales the determinant by a constant only; a
    power-of-two factor on the values then leaves the solve bit-identical.
    The column is the node set's, shared by every polynomial on p's nodes.
    A subnormal max|f| is first raised by 2**1000 with its row, as numpy's
    complex division takes 1 / max|f|, which would overflow. A pencil
    without imaginary part is built and solved in real arithmetic.
    """
    node_set = p._node_set
    top, row = p.peak, -p.values
    if top < _TINY:
        row *= 2.0**1000
        top *= 2.0**1000
    row /= top
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


def roots(p: LagrangePoly) -> RootfindReport:
    """All finite roots of the sampled polynomial; their residuals are
    computed when first read.

    Returns exactly n roots for full-degree data. If the data's actual
    degree is lower, far-field eigenvalues are discarded as well and a
    diagnostic note is attached rather than padding the list.
    """
    if p.degree < 1:
        raise InvalidParameterError("rootfinding requires nominal degree >= 1")
    if p.peak == 0.0:
        raise DegenerateInputError(
            "all sampled values are zero; the polynomial is identically zero"
        )
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
    found = lam[np.lexsort((lam.imag, lam.real))]
    discarded = p.degree + 2 - len(found)
    note = None
    if len(found) < p.degree:
        note = (
            "sampled data appears to have degree %d < nominal %d; "
            "%d eigenvalues discarded" % (len(found), p.degree, discarded)
        )
    return RootfindReport(
        roots=found,
        discarded_count=discarded,
        poly=p,
        backward_note=note,
    )
