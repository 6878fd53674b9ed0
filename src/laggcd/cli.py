"""Command-line front end.

Subcommands:
    roots    print the roots (with residuals) of one side of a problem file
    agcd     run the full approximate-GCD pipeline, emit JSON
    cluster  cluster a points file, emit plot-ready CSV

Exit codes: 0 success (including certificate warnings); on a LagGcdError,
one `error:` line and the error's `exit_code`: 3 for numerical failures,
2 for bad input or options (as for the arguments argparse rejects) and
for an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings
from collections import Counter
from typing import Optional

from .agcd import AgcdResult, approximate_gcd
from .cluster import ClusterParams, cluster as run_cluster
from .errors import LagGcdError, NearDuplicateNodesWarning
from .lagpoly import LagrangePoly, RootList
from .problemfile import ProblemFile, load_points, load_problem
from .rootfind import roots as find_roots

def _cnum(z: complex):
    return [float(z.real), float(z.imag)]


def _rootlist_json(rl: RootList):
    return [[_cnum(r), m] for r, m in rl]


def _poly_json(p: LagrangePoly):
    return {
        "nodes": [_cnum(z) for z in p.nodes],
        "values": [_cnum(z) for z in p.values],
    }


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


def _run_params(args, pf: Optional[ProblemFile] = None):
    """Base sigma and ClusterParams.

    Each value comes from its flag, else from the problem file; the cluster
    sigma still unset is the base sigma, and any other option still unset
    keeps its ClusterParams default.
    """
    def given(name, default=None):
        value = getattr(args, name, None)
        value = getattr(pf, name, None) if value is None else value
        return default if value is None else value

    sigma = given("sigma")
    options = {
        name: given(name)
        for name in ("max_multiplicity", "strategy")
        if given(name) is not None
    }
    return sigma, ClusterParams(sigma=given("sigma_cluster", sigma), **options)


def cmd_roots(args) -> int:
    pf = load_problem(args.file)
    if args.side == "P":
        poly = LagrangePoly(pf.px, pf.py)
    else:
        poly = LagrangePoly(pf.qx, pf.qy)
    report = find_roots(poly)
    payload = {
        "side": args.side,
        "roots": [
            {"root": _cnum(r), "residual": float(res)}
            for r, res in zip(report.roots, report.residuals)
        ],
        "discarded": report.discarded_count,
        "note": report.backward_note,
    }
    _emit(json.dumps(payload, indent=2), args.output)
    return 0


def _agcd_json(result: AgcdResult, settings: dict, notes: list) -> dict:
    return {
        **settings,
        "gcd": {
            "degree": result.gcd_degree,
            "roots": _rootlist_json(result.gcd_roots),
            **_poly_json(result.gcd_poly),
        },
        "p_tilde": {
            "roots": _rootlist_json(result.p_tilde_roots),
            **_poly_json(result.p_tilde_poly),
        },
        "q_tilde": {
            "roots": _rootlist_json(result.q_tilde_roots),
            **_poly_json(result.q_tilde_poly),
        },
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
        "warnings": notes + result.warnings,
    }


def _graph_csv(result: AgcdResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["left_root", "right_root", "weight", "distance"])
    for e in result.graph.edges:
        left = result.graph.left.entries[e.left][0]
        right = result.graph.right.entries[e.right][0]
        writer.writerow(
            [repr_complex(left), repr_complex(right), e.weight, "%.17g" % e.distance]
        )
    return buf.getvalue()


def repr_complex(z: complex) -> str:
    if z.imag == 0:
        return "%.17g" % z.real
    return "%.17g%+.17gj" % (z.real, z.imag)


def _sampled(name: str, x, y, notes: list) -> LagrangePoly:
    """LagrangePoly(x, y), noting a NearDuplicateNodesWarning in notes."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NearDuplicateNodesWarning)
        poly = LagrangePoly(x, y)
    for w in caught:  # shown as usual, the near-duplicate ones also noted
        if issubclass(w.category, NearDuplicateNodesWarning):
            notes.append("%s nodes: %s" % (name, w.message))
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return poly


def cmd_agcd(args) -> int:
    pf = load_problem(args.file)
    sigma, params = _run_params(args, pf)
    rho = args.rho or pf.rho or "sum"
    notes = []
    p, q = _sampled("P", pf.px, pf.py, notes), _sampled("Q", pf.qx, pf.qy, notes)
    settings = {
        "sigma": sigma,
        "sigmas": {"cluster": params.sigma, "edge": sigma, "cert": sigma},
        "rho": rho,
        "matcher": args.matcher,
        "strategy": params.strategy.value,
    }
    with warnings.catch_warnings():
        # reading the output polynomials resamples them on P's and Q's
        # nodes, which warned above
        warnings.simplefilter("ignore", NearDuplicateNodesWarning)
        result = approximate_gcd(
            p, q, params, matcher=args.matcher, rho=rho, sigma=sigma
        )
        if args.graph_csv:
            _emit(_graph_csv(result), args.graph_csv)
        payload = _agcd_json(result, settings, notes)
    _emit(json.dumps(payload, indent=2), args.output)
    return 0


def cmd_cluster(args) -> int:
    points = load_points(args.file)
    _, params = _run_params(args)
    clustered = run_cluster(points, params)
    unused = Counter(points.entries)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["re", "im", "multiplicity", "cluster_id", "was_merged"])
    for idx, (r, m) in enumerate(clustered):
        untouched = unused[r, m] > 0
        if untouched:
            unused[r, m] -= 1
        writer.writerow(
            [
                "%.17g" % r.real,
                "%.17g" % r.imag,
                m,
                idx,
                "false" if untouched else "true",
            ]
        )
    _emit(buf.getvalue(), args.output)
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


def build_parser() -> argparse.ArgumentParser:
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
        sp.add_argument("--strategy", choices=["dnc", "heuristic"])
        sp.add_argument("--max-mult", dest="max_multiplicity", type=_number(int, 1))
        sp.add_argument("-o", "--output")
        sp.set_defaults(func=func)
    p_agcd.add_argument("--sigma-cluster", type=_number(float, 0))
    p_agcd.add_argument("--rho", choices=["sum", "max"])
    p_agcd.add_argument("--matcher", choices=["greedy", "exact"], default="greedy")
    p_agcd.add_argument("--graph-csv", metavar="PATH")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LagGcdError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
