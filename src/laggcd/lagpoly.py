"""Polynomials represented by their values at distinct nodes.

All arithmetic is complex double precision; real inputs are promoted on
construction. Nothing in this module (or the rest of the package) ever
converts to monomial coefficients.
"""

from __future__ import annotations

import cmath
import operator
import warnings
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateInputError,
    DuplicateNodesError,
    InsufficientNodesError,
    InvalidParameterError,
    NearDuplicateNodesWarning,
)

# Relative (to node spread) gap thresholds for rejecting/warning about
# nearly coincident nodes.
DUPLICATE_GAP_RTOL = 1e-12
NEAR_DUPLICATE_GAP_RTOL = 1e-8


def barycentric_weights(nodes) -> np.ndarray:
    """Normalization factors w_k = 1 / prod_{j != k} (x_k - x_j).

    A single node yields [1]. The node differences are formed once, both
    to check the gaps and to take the products: coincident nodes raise
    DuplicateNodesError, dangerously small gaps warn. A NaN or infinite
    node raises InvalidParameterError; a weight whose product overflows or
    underflows (infinite, NaN or exactly 0) raises DegenerateInputError.
    """
    x = np.asarray(nodes, dtype=complex)
    if x.ndim != 1 or len(x) == 0:
        raise InvalidParameterError("nodes must be a non-empty 1-d sequence")
    finite = np.isfinite(x)
    if not finite.all():
        raise InvalidParameterError("nodes must be finite, got %s" % x[~finite][0])
    if len(x) == 1:
        return np.ones(1, dtype=complex)
    diff = x[:, None] - x[None, :]
    gaps = np.abs(diff)
    spread = gaps.max()
    np.fill_diagonal(gaps, spread)  # so that the minimum is over pairs only
    smallest = gaps.min()
    if spread == 0.0 or smallest <= DUPLICATE_GAP_RTOL * spread:
        raise DuplicateNodesError(
            "nodes must be pairwise distinct (smallest gap %.3e, spread %.3e)"
            % (smallest, spread)
        )
    if smallest < NEAR_DUPLICATE_GAP_RTOL * spread:
        # attributed to the caller of LagrangePoly, the usual entry point
        warnings.warn(
            "nearly coincident nodes (gap %.3e vs spread %.3e); "
            "expect poor conditioning" % (smallest, spread),
            NearDuplicateNodesWarning,
            stacklevel=3,
        )
    np.fill_diagonal(diff, 1.0)
    with np.errstate(all="ignore"):
        weights = 1.0 / diff.prod(axis=1)
    bad = np.count_nonzero(~np.isfinite(weights) | (weights == 0))
    if bad:
        raise DegenerateInputError(
            "%d of the %d barycentric weights overflow or underflow "
            "(node spread %.3e)" % (bad, len(x), spread)
        )
    return weights


class LagrangePoly:
    """A polynomial given by samples (nodes[k], values[k]) at distinct nodes.

    The nominal degree is len(nodes) - 1. Instances are immutable; the
    barycentric weights are computed on construction, which also checks
    the nodes.
    """

    def __init__(self, nodes, values):
        nodes = np.array(nodes, dtype=complex)
        values = np.array(values, dtype=complex)
        if nodes.ndim != 1 or values.ndim != 1:
            raise InvalidParameterError("nodes and values must be 1-d sequences")
        if len(nodes) != len(values) or len(nodes) == 0:
            raise InvalidParameterError("need len(nodes) == len(values) >= 1")
        weights = barycentric_weights(nodes)
        for arr in (nodes, values, weights):
            arr.flags.writeable = False
        self.nodes, self.values, self.weights = nodes, values, weights

    @property
    def degree(self) -> int:
        return len(self.nodes) - 1

    def __call__(self, z):
        return evaluate(self, z)

    def __repr__(self) -> str:
        return "LagrangePoly(degree=%d, nodes=%s)" % (self.degree, self.nodes)


def evaluate(p: LagrangePoly, z):
    """Evaluate the interpolant at z (scalar or array).

    Uses the second barycentric form; if z coincides exactly with a node
    the stored value is returned unchanged (no tolerance involved).
    """
    zarr = np.asarray(z, dtype=complex)
    scalar = zarr.ndim == 0
    zz = np.atleast_1d(zarr)
    diff = zz[:, None] - p.nodes[None, :]
    out = np.empty(len(zz), dtype=complex)
    hit_rows, hit_cols = np.nonzero(diff == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = p.weights[None, :] / diff
        num = (ratio * p.values[None, :]).sum(axis=1)
        den = ratio.sum(axis=1)
        out[:] = num / den
    out[hit_rows] = p.values[hit_cols]
    return out[0] if scalar else out


class RootList:
    """A multiset of complex roots with positive integer multiplicities.

    The invariant every stage relies on: each root is a finite Python
    complex, each multiplicity an int >= 1, and the entries are sorted by
    (real part, imaginary part), so that all downstream output is
    deterministic. A root that is not a number (a string included), a NaN
    or infinite part, or a multiplicity that is not an integer of at least
    1, raises InvalidParameterError.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Tuple[complex, int]] = ()):
        norm = []
        for root, mult in entries:
            try:  # a string is no number, though complex() would parse "1"
                if isinstance(root, (str, bytes)):
                    raise TypeError
                root, mult = complex(root), operator.index(mult)
            except (TypeError, ValueError):
                raise InvalidParameterError(
                    "entries must be (number, integer), got %r" % ((root, mult),)
                ) from None
            if not cmath.isfinite(root):
                raise InvalidParameterError("roots must be finite, got %r" % root)
            if mult < 1:
                raise InvalidParameterError(
                    "multiplicities must be >= 1, got %d" % mult
                )
            norm.append((root, mult))
        norm.sort(key=lambda e: (e[0].real, e[0].imag))
        self.entries: Tuple[Tuple[complex, int], ...] = tuple(norm)

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    def expand(self) -> np.ndarray:
        """Roots repeated according to multiplicity, as a complex array."""
        roots = np.array([r for r, _ in self.entries], dtype=complex)
        return np.repeat(roots, [m for _, m in self.entries])

    def __iter__(self) -> Iterator[Tuple[complex, int]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, RootList) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return "RootList(%r)" % (list(self.entries),)


def from_roots(
    roots: RootList,
    nodes: Sequence,
    leading_coeff: complex = 1.0,
) -> LagrangePoly:
    """Sample leading_coeff * prod (x - r)^mult at the given nodes.

    The node list must have at least total_multiplicity + 1 entries so the
    product is represented exactly. Per node, factors are multiplied in
    order of increasing modulus to limit cancellation; all nodes advance
    together, one factor column at a time. The product is written out in
    real arithmetic, (a + bi)(c + di) = (ac - bd) + (ad + bc)i with each
    operation rounded, which is the product one complex number at a time
    gives; numpy's complex array `*` may fuse a multiply and an add and
    then differs in the last bit. The order key is np.abs, as in the
    per-node loop; np.abs on complex is not Python's abs bit for bit, so
    code that must match abs(complex) uses np.hypot instead.
    """
    x = np.asarray(nodes, dtype=complex)
    if x.ndim != 1 or len(x) == 0:
        raise InvalidParameterError("nodes must be a non-empty 1-d sequence")
    deg = roots.total_multiplicity()
    if len(x) < deg + 1:
        raise InsufficientNodesError(
            "need at least %d nodes for degree %d, got %d" % (deg + 1, deg, len(x))
        )
    factors = x[:, None] - roots.expand()[None, :]
    order = np.argsort(np.abs(factors), axis=1, kind="stable")
    factors = np.take_along_axis(factors, order, axis=1)
    c = complex(leading_coeff)
    vr, vi = np.full(len(x), c.real), np.full(len(x), c.imag)
    for fr, fi in zip(factors.real.T, factors.imag.T):
        vr, vi = vr * fr - vi * fi, vr * fi + vi * fr
    values = np.empty(len(x), dtype=complex)
    values.real, values.imag = vr, vi
    return LagrangePoly(x, values)
