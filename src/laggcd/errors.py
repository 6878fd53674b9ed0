"""Exception types shared across the package, and the one check of a
tolerance. The package raises no Python warning: the note on nearly
coincident nodes is LagrangePoly.note, reported first in AgcdResult.warnings."""

import numbers


class LagGcdError(Exception):
    """Base class for all errors raised by laggcd; the CLI exits with exit_code."""

    exit_code = 2  # bad input or options; numerical failures use 3


class InvalidParameterError(LagGcdError, ValueError):
    """A library option is out of range; also a ValueError, so either catch works."""


class DuplicateNodesError(LagGcdError):
    """Two interpolation nodes coincide (or are far below the resolvable gap)."""


class InsufficientNodesError(LagGcdError):
    """Node set too small to carry the requested polynomial degree."""


class EigensolveFailureError(LagGcdError):
    """The generalized eigenvalue problem could not be solved."""

    exit_code = 3


class DegenerateInputError(LagGcdError):
    """Input data does not define a usable polynomial (e.g. identically zero)."""

    exit_code = 3


class ZeroPolynomialError(DegenerateInputError):
    """A GCD was requested for an identically-zero polynomial."""


class LengthMismatchError(LagGcdError):
    """Root vectors of different lengths; the pseudometric is undefined."""


class ProblemFileError(LagGcdError):
    """A problem/points file could not be parsed or failed validation."""


def check_sigma(sigma) -> None:
    """Raise InvalidParameterError unless sigma is a real number >= 0: a
    NaN, a bool, a complex number or a non-number fails; numpy scalars
    and inf pass."""
    # float first: it is the usual case, and the ABC check is slow
    if isinstance(sigma, bool) or not isinstance(sigma, (float, numbers.Real)):
        raise InvalidParameterError("sigma must be a real number, got %r" % (sigma,))
    if not sigma >= 0:  # also rejects nan
        raise InvalidParameterError("sigma must be >= 0")
