"""Polynomials represented by their values at distinct nodes.

All arithmetic is complex double precision; real inputs are promoted on
construction. Nothing in this module (or the rest of the package) ever
converts to monomial coefficients.
"""

from __future__ import annotations

import bisect
import cmath
import contextlib
import functools
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DegenerateInputError,
    DuplicateNodesError,
    InsufficientNodesError,
    InvalidParameterError,
)

# Relative (to node spread) gap thresholds for rejecting and for noting
# nearly coincident nodes.
DUPLICATE_GAP_RTOL = 1e-12
NEAR_DUPLICATE_GAP_RTOL = 1e-8
_EPS = sys.float_info.epsilon
# Above this peak 1 / peak is subnormal, and numpy's complex division, which
# multiplies by it, rounds the quotients apart from those of scaled data;
# evaluate and rootfinding scale such values by 1/8 first.
_HUGE = 2.0**1022
# How many distinct node sets _node_set keeps, the most recently used; an
# entry holds three arrays of the node count, and three more once Aberth
# has run on it.
_NODE_SETS = 64


def barycentric_weights(nodes) -> np.ndarray:
    """Normalization factors w_k = 1 / prod_{j != k} (x_k - x_j), a fresh,
    writeable copy of the node set's weights (_node_set).

    A single node yields [1]. The node differences are formed once, both
    to check the gaps and to take the products: coincident nodes raise
    DuplicateNodesError; nearly coincident ones are no error but give the
    node note, which LagrangePoly keeps as `note`. A NaN or infinite node
    raises InvalidParameterError; a node difference that overflows, or a
    weight whose product overflows or underflows (infinite, NaN or exactly
    0), raises DegenerateInputError.
    """
    x = _complex_array(nodes, "nodes")
    if x.ndim != 1 or len(x) == 0:
        raise InvalidParameterError("nodes must be a non-empty 1-d sequence")
    return np.array(_node_set(x.tobytes()).weights)


def _complex_array(data, name: str) -> np.ndarray:
    """np.array(data, dtype=complex), or InvalidParameterError naming the
    input where numpy cannot convert it: an entry that is no number (a
    numeric string is one), a ragged nesting, an int beyond the doubles."""
    try:
        return np.array(data, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError("%s must be numbers (%s)" % (name, exc)) from None


def _check_finite(a: np.ndarray, name: str) -> None:
    """InvalidParameterError naming a's first NaN or infinite entry, if any."""
    finite = np.isfinite(a)
    if not finite.all():
        raise InvalidParameterError("%s must be finite, got %s" % (name, a[~finite][0]))


@dataclass(eq=False)
class _NodeSet:
    """What a polynomial's nodes alone determine, computed once per
    distinct node array (_node_set). The arrays are read-only."""

    nodes: np.ndarray
    weights: np.ndarray  # barycentric_weights
    note: Optional[str]  # the text on nearly coincident nodes, or None
    spread: float  # the largest distance between two nodes
    center: complex  # nodes.mean(), the centre of roots()' far field
    column: np.ndarray  # weights / max|w|, column 0 of the scaled pencil
    real: bool  # neither nodes nor column has an imaginary part
    # Aberth's start record, three arrays of the degree, which rootfinding
    # builds on its first Aberth call on these nodes (rootfind._starts)
    starts: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None


@functools.lru_cache(maxsize=_NODE_SETS)
def _node_set(key: bytes) -> _NodeSet:
    """The node set of the 1-d, non-empty complex128 nodes whose bytes
    are key, with barycentric_weights' checks and errors.

    Cached on key, so that equal nodes share one record; nodes that differ
    only in the sign of a zero differ in their bytes and get their own.
    An error is not cached, so it is raised again on every call.
    """
    x = np.frombuffer(key, dtype=complex)  # read-only, held by the key
    _check_finite(x, "nodes")
    with np.errstate(all="ignore"):  # overflow and underflow are checked below
        diff = x[:, None] - x[None, :]
        gaps = np.abs(diff)
        np.fill_diagonal(diff, 1.0)
        weights = 1.0 / diff.prod(axis=1)
    spread = float(gaps.max())
    if spread == np.inf:
        raise DegenerateInputError("node differences overflow (spread inf)")
    np.fill_diagonal(gaps, spread)  # so that the minimum is over pairs only
    smallest = gaps.min()
    if len(x) > 1 and (spread == 0.0 or smallest <= DUPLICATE_GAP_RTOL * spread):
        raise DuplicateNodesError(
            "nodes must be pairwise distinct (smallest gap %.3e, spread %.3e)"
            % (smallest, spread)
        )
    note = None
    if smallest < NEAR_DUPLICATE_GAP_RTOL * spread:
        note = (
            "nearly coincident nodes (gap %.3e vs spread %.3e); "
            "expect poor conditioning" % (smallest, spread)
        )
    bad = np.count_nonzero(~np.isfinite(weights) | (weights == 0))
    if bad:
        raise DegenerateInputError(
            "%d of the %d barycentric weights overflow or underflow "
            "(node spread %.3e)" % (bad, len(x), spread)
        )
    column = weights / np.abs(weights).max()
    weights.flags.writeable = column.flags.writeable = False
    real = not (x.imag.any() or column.imag.any())
    return _NodeSet(x, weights, note, spread, x.mean(), column, real)


class LagrangePoly:
    """A polynomial given by samples (nodes[k], values[k]) at distinct nodes.

    The nominal degree is len(nodes) - 1. Instances are immutable. What
    the nodes alone determine is computed once per distinct node array
    and shared by every LagrangePoly on equal nodes, from a cache of the
    most recently used node sets: the barycentric weights, which also
    check the nodes; `note`, the node note, the text on nearly coincident
    nodes, or None, which approximate_gcd reports first in its warnings;
    and `spread`, the largest distance between two nodes. A LagrangePoly
    given as nodes stands for its nodes, which are looked up as any are.
    `peak` is the largest |value|. A node or value that is no number, NaN
    or infinite raises InvalidParameterError.
    """

    def __init__(self, nodes, values):
        if isinstance(nodes, LagrangePoly):
            nodes = nodes.nodes
        nodes, values = _complex_array(nodes, "nodes"), _complex_array(values, "values")
        if nodes.ndim != 1 or values.ndim != 1:
            raise InvalidParameterError("nodes and values must be 1-d sequences")
        if len(nodes) != len(values) or len(nodes) == 0:
            raise InvalidParameterError("need len(nodes) == len(values) >= 1")
        _check_finite(values, "values")
        node_set = _node_set(nodes.tobytes())
        values.flags.writeable = False
        self.nodes, self.values, self.weights = node_set.nodes, values, node_set.weights
        self.spread, self.peak = node_set.spread, float(np.abs(values).max())
        self._node_set = node_set

    @property
    def note(self) -> Optional[str]:
        return self._node_set.note

    @property
    def degree(self) -> int:
        return len(self.nodes) - 1

    def __call__(self, z):
        return evaluate(self, z)

    def __repr__(self) -> str:
        return "LagrangePoly(degree=%d, nodes=%s)" % (self.degree, self.nodes)


def evaluate(p: LagrangePoly, z):
    """Evaluate the interpolant at z: a scalar for a scalar, else an
    array of z's shape.

    Uses the first (modified Lagrange) barycentric form
    l(z) * sum_k w_k f_k / (z - x_k), with l(z) = prod_k (z - x_k), which
    is backward stable at every z (Higham, IMA J. Numer. Anal. 24, 2004);
    the second form's denominator cancels off the node interval. Each
    factor of l(z) is scaled by an exact power of two, so that the product
    cannot overflow or underflow on its way. If z coincides exactly with
    a node the stored value is returned unchanged (no tolerance involved).
    Values whose peak is above _HUGE are scaled by 1/8 first, and the
    result by 8 through the shift, so that a finite value whose sum
    overflows is not lost. A z that is no number, NaN or infinite raises
    InvalidParameterError.
    """
    zarr = _complex_array(z, "evaluation points")
    zz = zarr.reshape(-1)
    _check_finite(zz, "evaluation points")
    diff = zz[:, None] - p.nodes[None, :]
    values, top = (p.values * 0.125, 3) if p.peak > _HUGE else (p.values, 0)
    out = np.empty(len(zz), dtype=complex)
    hit_rows, hit_cols = np.nonzero(diff == 0.0)
    with np.errstate(all="ignore"):
        exps = np.frexp(np.abs(diff))[1]
        scaled = np.empty_like(diff)
        scaled.real = np.ldexp(diff.real, -exps)
        scaled.imag = np.ldexp(diff.imag, -exps)
        total = scaled.prod(axis=1) * (p.weights * values / diff).sum(axis=1)
        shift = exps.sum(axis=1) + top
        out.real = np.ldexp(total.real, shift)
        out.imag = np.ldexp(total.imag, shift)
    out[hit_rows] = p.values[hit_cols]
    return out[0] if zarr.ndim == 0 else out.reshape(zarr.shape)


def _convert(root, mult) -> Tuple[complex, int]:
    """(complex(root), operator.index(mult)), or InvalidParameterError."""
    # a string is no number, though complex() would parse "1", and a bool is
    # no multiplicity, though operator.index(True) is 1
    try:
        if isinstance(root, (str, bytes)) or isinstance(mult, bool):
            raise TypeError
        return complex(root), operator.index(mult)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            "entries must be (number, integer), got %r" % ((root, mult),)
        ) from None
    except OverflowError:  # an int beyond the double range
        raise InvalidParameterError("roots must be finite, got %r" % (root,)) from None


def _finite_root(root: complex) -> complex:
    """root, or RootList's error where it is not finite."""
    if not cmath.isfinite(root):
        raise InvalidParameterError("roots must be finite, got %r" % root)
    return root


def _centroid(total: complex, weight: int) -> complex:
    """total / weight, a merged root, checked by _finite_root (a sum or
    quotient beyond the double range is not finite)."""
    return _finite_root(total / weight)


def _order(entry: Tuple[complex, int]) -> Tuple[float, float]:
    """A RootList's sort key: the root's (real part, imaginary part)."""
    root = entry[0]
    return (root.real, root.imag)


def _insert_ordered(out: List[Tuple[complex, int]], entries: Sequence) -> None:
    """Insert entries, in a RootList's order, into the list out, also in
    that order, each before any equal entry of out, the last first: where
    a stable sort of entries + out places them."""
    for entry in reversed(entries):
        out.insert(bisect.bisect_left(out, _order(entry), key=_order), entry)


# Root types whose conversion by np.array(..., dtype=complex) equals
# complex() bit for bit; RootList checks other roots one entry at a time.
_BULK_ROOTS = frozenset((complex, float, int, np.complex128, np.float64))


def _bulk_checked(items: list) -> Optional[Tuple[Tuple[complex, int], ...]]:
    """The list items as RootList entries, checked and sorted in bulk, or
    None unless there are some and each is a pair, a tuple or list (which
    zip does not use up), whose root has a type of _BULK_ROOTS and a
    finite value, and whose multiplicity is an int of at least 1. numpy
    orders complex numbers by (real part, imaginary part), its stable
    argsort keeps ties in input order as list.sort does, and both compare
    -0.0 equal to 0.0."""
    if not set(map(type, items)) <= {tuple, list}:
        return None
    try:
        # zip's strict mode fails unless the entries have one length, and
        # the unpacking unless that length is 2
        roots, mults = zip(*items, strict=True)
        if not (
            set(map(type, roots)) <= _BULK_ROOTS
            and set(map(type, mults)) == {int}
            and min(mults) >= 1
        ):
            return None
        z = np.array(roots, dtype=complex)
    except (TypeError, ValueError, OverflowError):  # no pairs; an int past the doubles
        return None
    if not np.isfinite(z).all():
        return None
    order = np.argsort(z, kind="stable")
    return tuple(zip(z[order].tolist(), np.array(mults)[order].tolist()))


def _checked(items: list) -> Tuple[Tuple[complex, int], ...]:
    """RootList's entries one at a time: the error of the first entry that
    fails, in input order, else the entries converted and sorted."""
    norm = []
    for entry in items:
        try:
            root, mult = entry
        except (TypeError, ValueError):  # not a pair
            raise InvalidParameterError(
                "entries must be (number, integer), got %r" % (entry,)
            ) from None
        root, mult = _convert(root, mult)
        _finite_root(root)
        if mult < 1:
            raise InvalidParameterError("multiplicities must be >= 1, got %d" % mult)
        norm.append((root, mult))
    norm.sort(key=_order)
    return tuple(norm)


class RootList:
    """A multiset of complex roots with positive integer multiplicities.

    The invariant every stage relies on: each root is a finite Python
    complex, each multiplicity an int >= 1, and the entries are sorted by
    (real part, imaginary part), so that all downstream output is
    deterministic. A root that is not a number (a string included), a NaN
    or infinite part, or a multiplicity that is not an integer of at least
    1 (a bool included), raises InvalidParameterError.

    A list is checked in bulk where its types allow (_bulk_checked), else
    entry by entry (_checked); both give the same entries and errors. Each
    stage builds its output in order and wraps it with RootList._trusted,
    which skips the checks that its entries pass by construction; each
    merged root is checked where it is computed (_centroid).
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Tuple[complex, int]] = ()):
        try:
            it = iter(entries)
        except TypeError:
            raise InvalidParameterError(
                "entries must be an iterable of (number, integer) pairs, got %r"
                % (entries,)
            ) from None
        items = list(it)
        self.entries: Tuple[Tuple[complex, int], ...] = _bulk_checked(
            items
        ) or _checked(items)

    @classmethod
    def _trusted(cls, entries: Sequence[Tuple[complex, int]]) -> "RootList":
        """A RootList of entries that are already finite Python complex
        roots with int multiplicities >= 1 in a RootList's order, which are
        not checked again."""
        self = cls.__new__(cls)
        self.entries = tuple(entries)
        return self

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    def expand(self) -> np.ndarray:
        """Roots repeated according to multiplicity, as a complex array; a
        total multiplicity too large for one raises InvalidParameterError."""
        roots = np.array([r for r, _ in self.entries], dtype=complex)
        mults = [m for _, m in self.entries]
        total = sum(mults)
        if total == len(mults):  # every multiplicity 1: nothing to repeat
            return roots
        if total <= sys.maxsize:  # numpy would wrap a larger count
            with contextlib.suppress(ValueError, MemoryError):  # numpy refuses it
                return np.repeat(roots, mults)
        raise InvalidParameterError("cannot expand a total multiplicity of %d" % total)

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


def real_slack(entries: Sequence[Tuple[complex, int]], sigma: float) -> float:
    """Half-width of a real-part window that holds, around the real part of
    any root r of entries (in a RootList's order), every root s with
    abs(r - s) <= sigma.

    It is sigma widened by a few ulps of the largest real part, so that no
    rounding in the subtraction, the hypotenuse or the window's own bounds
    can drop a pair from a sweep over the real-part order.
    """
    reach = max(abs(entries[0][0].real), abs(entries[-1][0].real)) if entries else 0.0
    return sigma + 4 * _EPS * (reach + sigma)


def from_roots(
    roots: RootList,
    nodes: Union[Sequence, LagrangePoly],
    leading_coeff: complex = 1.0,
) -> LagrangePoly:
    """Sample leading_coeff * prod (x - r)^mult at nodes (or a LagrangePoly's).

    The node list must have at least total_multiplicity + 1 entries so the
    product is represented exactly. Per node, factors are multiplied in
    order of increasing modulus to limit cancellation; all nodes advance
    together, one factor column at a time. The product is written out in
    real arithmetic, (a + bi)(c + di) = (ac - bd) + (ad + bc)i with each
    operation rounded, which is the product one complex number at a time
    gives; numpy's complex array `*` may fuse a multiply and an add and
    then differs in the last bit. The order key is np.abs, as in the
    per-node loop; np.abs on complex is not Python's abs bit for bit, so
    code that must match abs(complex) uses np.hypot instead. Nodes or a
    leading_coeff that are no numbers raise InvalidParameterError.
    """
    if isinstance(nodes, LagrangePoly):
        nodes = nodes.nodes
    x = _complex_array(nodes, "nodes")
    try:
        c = complex(leading_coeff)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(
            "leading_coeff must be a number (%s)" % exc
        ) from None
    if x.ndim != 1 or len(x) == 0:
        raise InvalidParameterError("nodes must be a non-empty 1-d sequence")
    deg = roots.total_multiplicity()
    if len(x) < deg + 1:
        raise InsufficientNodesError(
            "need at least %d nodes for degree %d, got %d" % (deg + 1, deg, len(x))
        )
    # a product beyond the double range is inf or NaN, which LagrangePoly rejects
    with np.errstate(over="ignore", invalid="ignore"):
        factors = x[:, None] - roots.expand()[None, :]
        order = np.argsort(np.abs(factors), axis=1, kind="stable")
        factors = np.take_along_axis(factors, order, axis=1)
        vr, vi = np.full(len(x), c.real), np.full(len(x), c.imag)
        for fr, fi in zip(factors.real.T, factors.imag.T):
            vr, vi = vr * fr - vi * fi, vr * fi + vi * fr
    values = np.empty(len(x), dtype=complex)
    values.real, values.imag = vr, vi
    return LagrangePoly(x, values)
