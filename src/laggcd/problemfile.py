"""JSON problem and points files for the command-line tools.

A problem file carries both polynomials in node/value form plus the
tolerance:

    {
      "px": [...], "py": [...],      # nodes and values of P, same length
      "qx": [...], "qy": [...],      # nodes and values of Q, same length
      "sigma": 0.5,                  # bounds edges and certificate
      "strategy": "dnc",             # optional: "dnc" | "heuristic"
      "maxMultiplicity": 3,          # optional
      "rho": "sum",                  # optional: "sum" | "max"
      "sigmaOverrides": {"cluster": 1e-3}  # optional; else clusters at sigma
    }

Any other field is an error, so that a misspelt option cannot fall back
to its default unnoticed. Numbers are plain reals or [re, im] pairs, all
finite doubles. A points file for the cluster command is a JSON array of
[root, multiplicity] entries, where root again is a real or an [re, im]
pair.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cluster import Strategy
from .errors import ProblemFileError
from .lagpoly import RootList
from .metric import RHOS

_REQUIRED = ("px", "py", "qx", "qy", "sigma")
_OPTIONAL = ("strategy", "maxMultiplicity", "rho", "sigmaOverrides")


def _is_number(v) -> bool:
    """An int or float, not a bool, whose value is a finite double."""
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    return number and abs(v) <= sys.float_info.max  # exact for ints, false for nan


def _positive_int(v, name: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise ProblemFileError("%s must be a positive integer, got %r" % (name, v))
    return v


def parse_scalar(v) -> complex:
    """A number, or a two-element [re, im] array of numbers."""
    if _is_number(v):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)):
        return complex(v[0], v[1])
    raise ProblemFileError("expected a finite number or [re, im] pair, got %r" % (v,))


def _scalar_array(raw, name: str) -> np.ndarray:
    if not isinstance(raw, list):
        raise ProblemFileError("field %r must be an array" % name)
    return np.array([parse_scalar(v) for v in raw], dtype=complex)


def _tolerance(v, name: str) -> float:
    if not (_is_number(v) and v >= 0):
        raise ProblemFileError("%s must be a number >= 0, got %r" % (name, v))
    return float(v)


@dataclass
class ProblemFile:
    px: np.ndarray
    py: np.ndarray
    qx: np.ndarray
    qy: np.ndarray
    sigma: float
    strategy: Optional[str] = None
    max_multiplicity: Optional[int] = None
    rho: Optional[str] = None
    sigma_cluster: Optional[float] = None


def parse_problem(data: dict) -> ProblemFile:
    if not isinstance(data, dict):
        raise ProblemFileError("problem file must be a JSON object")
    missing = [k for k in _REQUIRED if k not in data]
    if missing:
        raise ProblemFileError("missing required fields: %s" % ", ".join(missing))
    unknown = sorted(map(repr, set(data).difference(_REQUIRED, _OPTIONAL)))
    if unknown:
        raise ProblemFileError("unknown fields: %s" % ", ".join(unknown))
    # every array is read before either side's lengths are checked
    arrays = {k: _scalar_array(data[k], k) for k in ("px", "py", "qx", "qy")}
    for x, y in (("px", "py"), ("qx", "qy")):
        if len(arrays[x]) != len(arrays[y]) or len(arrays[x]) < 2:
            raise ProblemFileError("%s and %s must have equal length >= 2" % (x, y))
    sigma = _tolerance(data["sigma"], "sigma")
    overrides = data.get("sigmaOverrides")
    if overrides is not None and not isinstance(overrides, dict):
        raise ProblemFileError("sigmaOverrides must be an object or null")
    overrides = overrides or {}
    bad = sorted(set(overrides) - {"cluster"})
    if bad:
        raise ProblemFileError("sigmaOverrides %s: the only key is 'cluster'" % bad)
    sigma_cluster = overrides.get("cluster")
    if sigma_cluster is not None:
        sigma_cluster = _tolerance(sigma_cluster, "sigmaOverrides.cluster")
    for key, choices in (("strategy", tuple(s.value for s in Strategy)), ("rho", RHOS)):
        if data.get(key) not in (None, *choices):
            raise ProblemFileError("%s must be one of %s" % (key, choices))
    max_mult = data.get("maxMultiplicity")
    if max_mult is not None:
        _positive_int(max_mult, "maxMultiplicity")
    return ProblemFile(
        **arrays,
        sigma=sigma,
        strategy=data.get("strategy"),
        max_multiplicity=max_mult,
        rho=data.get("rho"),
        sigma_cluster=sigma_cluster,
    )


def _read_json(path: str):
    """The JSON document in the UTF-8 file at path; a file that cannot be
    read, decoded or parsed (also one nested past the recursion limit) is
    a ProblemFileError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ProblemFileError("cannot read %s: %s" % (path, exc)) from exc
    except UnicodeDecodeError as exc:
        raise ProblemFileError("%s is not UTF-8: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError("invalid JSON in %s: %s" % (path, exc)) from exc
    except RecursionError as exc:
        raise ProblemFileError("JSON in %s is nested too deeply" % path) from exc


def load_problem(path: str) -> ProblemFile:
    return parse_problem(_read_json(path))


def load_points(path: str) -> RootList:
    """Points file: JSON array of [root, multiplicity] entries."""
    data = _read_json(path)
    if not isinstance(data, list):
        raise ProblemFileError("points file must be a JSON array")
    entries = []
    for item in data:
        if not (isinstance(item, list) and len(item) == 2):
            raise ProblemFileError(
                "each point must be a [root, multiplicity] pair, got %r" % (item,)
            )
        entries.append((parse_scalar(item[0]), _positive_int(item[1], "multiplicity")))
    return RootList(entries)
