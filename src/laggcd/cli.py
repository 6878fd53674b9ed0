"""Command-line front end.

Subcommands:
    roots    print the roots (with residuals) of one side of a problem file
    agcd     run the full approximate-GCD pipeline, emit JSON
    cluster  cluster a points file, emit plot-ready CSV

Exit codes: 0 success (including certificate warnings); on a LagGcdError,
one `error:` line and the error's `exit_code`: 3 for numerical failures,
2 for bad input or options (as for the arguments argparse rejects) and
for an output file that cannot be written. `roots` and `agcd` first print
each input polynomial's node note as one `warning: P nodes: ...` (or Q)
line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from collections import Counter
from typing import Optional

from .agcd import MATCHER_GREEDY, MATCHERS, AgcdResult, _side_note, approximate_gcd
from .cluster import ClusterParams, Strategy, cluster as run_cluster
from .errors import LagGcdError
from .lagpoly import LagrangePoly, RootList
from .metric import RHO_SUM, RHOS
from .problemfile import ProblemFile, load_points, load_problem
from .rootfind import roots as find_roots

def _cnum(z: complex):
    return [float(z.real), float(z.imag)]


def _rootlist_json(rl: RootList):
    return [[_cnum(r), m] for r, m in rl]


def _poly_json(roots: RootList, p: LagrangePoly):
    return {
        "roots": _rootlist_json(roots),
        "nodes": [_cnum(z) for z in p.nodes],
        "values": [_cnum(z) for z in p.values],
    }


def _dumps(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte, without the stdlib's
    pure-Python indent encoder (the C encoder writes compact JSON only).

    Lists, tuples and dicts are walked here; a plain int or finite float
    is its repr, which is json's text for it; keys and every other scalar
    (strings, None, bools, NaN/Infinity, float subclasses) go through
    json.dumps, and so does the whole of a dict with a non-string key.
    """
    parts = []
    _write(obj, "\n", parts.append)
    return "".join(parts)


def _write(obj, pad: str, write) -> None:
    """Write obj as json.dumps(obj, indent=2) does at the indentation of
    pad, a newline plus the spaces of the enclosing lines."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = pad + "  "
        if len(obj) == 2:  # an [re, im] pair in one format
            a, b = obj
            if type(a) is float and type(b) is float and a - a == 0 and b - b == 0:
                write("[%s%r,%s%r%s]" % (inner, a, inner, b, pad))
                return
        sep = "[" + inner
        for item in obj:
            write(sep)
            _write(item, inner, write)
            sep = "," + inner
        write(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
        elif not all(type(key) is str for key in obj):  # json converts these keys
            write(json.dumps(obj, indent=2).replace("\n", pad))
        else:
            inner = pad + "  "
            sep = "{" + inner
            for key, item in obj.items():
                write(sep + json.dumps(key) + ": ")
                _write(item, inner, write)
                sep = "," + inner
            write(pad + "}")
    elif type(obj) is int or type(obj) is float and obj - obj == 0:
        write(repr(obj))
    else:
        write(json.dumps(obj))


def _emit(text: str, out: Optional[str]) -> None:
    """Write text to the file out, or to stdout (newline-terminated) if
    out is not given; a file that cannot be written is an input error."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise LagGcdError("cannot write %s: %s" % (out, exc.strerror)) from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _read_side(pf: ProblemFile, side: str) -> LagrangePoly:
    """Side P or Q of pf as a LagrangePoly; its node note goes to stderr."""
    x, y = (pf.px, pf.py) if side == "P" else (pf.qx, pf.qy)
    poly = LagrangePoly(x, y)
    for line in _side_note(side, "nodes", poly.note):
        print("warning: " + line, file=sys.stderr)
    return poly


def _run_params(args, pf: Optional[ProblemFile] = None):
    """Base sigma, rho and ClusterParams.

    Each value comes from its flag, else from the problem file; the cluster
    sigma still unset is the base sigma, and any other option still unset
    keeps its library default (approximate_gcd's rho, ClusterParams' own).
    """
    def given(name, default=None):
        value = getattr(args, name, None)
        value = getattr(pf, name, None) if value is None else value
        return default if value is None else value

    sigma = given("sigma")
    names = ("max_multiplicity", "strategy")
    options = {name: given(name) for name in names if given(name) is not None}
    params = ClusterParams(sigma=given("sigma_cluster", sigma), **options)
    return sigma, given("rho", RHO_SUM), params


def cmd_roots(args) -> int:
    pf = load_problem(args.file)
    poly = _read_side(pf, args.side)
    report = find_roots(poly)
    payload = {
        "side": args.side,
        "roots": [
            {"root": _cnum(r), "residual": float(res)}
            for r, res in zip(report.roots, report.residuals)
        ],
        "discarded": report.discarded_count,
        "note": report.backward_note,
        "warnings": _side_note(args.side, "nodes", poly.note)
        + _side_note(args.side, "rootfinding", report.backward_note),
    }
    _emit(_dumps(payload), args.output)
    return 0


def _agcd_json(result: AgcdResult, settings: dict) -> dict:
    gcd = _poly_json(result.gcd_roots, result.gcd_poly)
    return {
        **settings,
        "gcd": {"degree": result.gcd_degree, **gcd},
        "p_tilde": _poly_json(result.p_tilde_roots, result.p_tilde_poly),
        "q_tilde": _poly_json(result.q_tilde_roots, result.q_tilde_poly),
        "cofactor_p": _rootlist_json(result.cofactor_p),
        "cofactor_q": _rootlist_json(result.cofactor_q),
        "matching": {
            "total_weight": result.matching.total_weight,
            "edges": [
                {
                    "left": _cnum(result.graph.left.entries[e.left][0]),
                    "right": _cnum(result.graph.right.entries[e.right][0]),
                    "weight": e.weight,
                    "distance": e.distance,
                }
                for e in result.matching.edges
            ],
        },
        "p_roots": [_cnum(r) for r in result.p_report.roots],
        "q_roots": [_cnum(r) for r in result.q_report.roots],
        "p_clustered": _rootlist_json(result.graph.left),
        "q_clustered": _rootlist_json(result.graph.right),
        "dist_p": result.dist_p,
        "dist_q": result.dist_q,
        "cert_p": result.cert_p,
        "cert_q": result.cert_q,
        "warnings": result.warnings,
    }


def _csv(header, rows) -> str:
    """The header and rows as CSV text, one "\\n"-terminated line each."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _graph_csv(result: AgcdResult) -> str:
    rows = []
    for e in result.graph.edges:
        left = result.graph.left.entries[e.left][0]
        right = result.graph.right.entries[e.right][0]
        distance = "%.17g" % e.distance
        rows.append([repr_complex(left), repr_complex(right), e.weight, distance])
    return _csv(["left_root", "right_root", "weight", "distance"], rows)


def repr_complex(z: complex) -> str:
    if z.imag == 0:
        return "%.17g" % z.real
    return "%.17g%+.17gj" % (z.real, z.imag)


def cmd_agcd(args) -> int:
    pf = load_problem(args.file)
    sigma, rho, params = _run_params(args, pf)
    p, q = _read_side(pf, "P"), _read_side(pf, "Q")
    settings = {
        "sigma": sigma,
        "sigmas": {"cluster": params.sigma, "edge": sigma, "cert": sigma},
        "rho": rho,
        "matcher": args.matcher,
        "strategy": params.strategy.value,
    }
    result = approximate_gcd(p, q, params, matcher=args.matcher, rho=rho, sigma=sigma)
    if args.graph_csv:
        _emit(_graph_csv(result), args.graph_csv)
    _emit(_dumps(_agcd_json(result, settings)), args.output)
    return 0


def cmd_cluster(args) -> int:
    points = load_points(args.file)
    _, _, params = _run_params(args)
    clustered = run_cluster(points, params)
    unused = Counter(points.entries)
    rows = []
    for idx, (r, m) in enumerate(clustered):
        untouched = unused[r, m] > 0
        if untouched:
            unused[r, m] -= 1
        merged = "false" if untouched else "true"
        rows.append(["%.17g" % r.real, "%.17g" % r.imag, m, idx, merged])
    header = ["re", "im", "multiplicity", "cluster_id", "was_merged"]
    _emit(_csv(header, rows), args.output)
    return 0


def _number(convert, least=None):
    """argparse type: a finite number (as `convert` reads it), >= least if
    given. Without a bound a NaN passes, for the library's own check."""

    def number(text: str):
        value = convert(text)  # a ValueError reads "invalid number value"
        if abs(value) == math.inf:
            raise argparse.ArgumentTypeError("must be finite, got %s" % text)
        if least is not None and not value >= least:  # also rejects nan
            raise argparse.ArgumentTypeError("must be >= %s, got %s" % (least, text))
        return value

    return number


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The laggcd parser, built once per process and shared by every call
    (so no caller may change it): parse_args returns a fresh Namespace on
    each call and the type checks hold no state."""
    parser = argparse.ArgumentParser(
        prog="laggcd",
        description="Approximate polynomial GCD for node/value (Lagrange) data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_roots = sub.add_parser("roots", help="roots of one side of a problem file")
    p_roots.add_argument("file")
    p_roots.add_argument("--side", choices=["P", "Q"], default="P")
    p_roots.add_argument("-o", "--output")
    p_roots.set_defaults(func=cmd_roots)

    p_agcd = sub.add_parser("agcd", help="full approximate-GCD pipeline")
    p_cluster = sub.add_parser("cluster", help="cluster a points file to CSV")
    for sp, func in ((p_agcd, cmd_agcd), (p_cluster, cmd_cluster)):
        sp.add_argument("file")
        sp.add_argument("--sigma", type=_number(float, 0), required=sp is p_cluster)
        sp.add_argument("--strategy", choices=[s.value for s in Strategy])
        sp.add_argument(
            "--max-mult", dest="max_multiplicity", type=_number(int, 1),
            help="largest cluster size; only the heuristic strategy reads it",
        )
        sp.add_argument("-o", "--output")
        sp.set_defaults(func=func)
    p_agcd.add_argument("--sigma-cluster", type=_number(float, 0))
    p_agcd.add_argument("--rho", choices=RHOS)
    p_agcd.add_argument("--matcher", choices=MATCHERS, default=MATCHER_GREEDY)
    p_agcd.add_argument("--graph-csv", metavar="PATH")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LagGcdError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
