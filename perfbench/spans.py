"""Spans around calls into laggcd, recorded from outside the library.

For the traced run only, `Tracer.install` replaces the public functions where
the pipeline looks them up (module attributes such as
``laggcd.agcd.find_roots``) with wrappers that record a span per call, and
`Tracer.uninstall` puts the originals back. Untraced runs never install it,
so they call the unmodified library.

A span is ``[name, start, end, parent, problem, info]``: ``parent`` is the
index of the enclosing span (None for a problem's root span) and ``info``
holds counts taken at the call boundary. Spans stay in memory and are written
out once, at the end of the run. A hook whose attribute no longer exists is
listed in ``Tracer.missing``; the metrics it feeds are then left out rather
than reported as zero.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

SELF = "agcd.approximate_gcd.self_ms"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _cluster_name(args, kwargs):
    strategy = _arg(args, kwargs, 1, "params").strategy
    return "cluster." + getattr(strategy, "value", str(strategy))


def _metric_name(args, kwargs):
    return "metric." + _arg(args, kwargs, 2, "rho", "sum")


def _count_roots(info, args, kwargs, rep):
    info["degree"] = args[0].degree
    info["found"] = len(rep.roots)
    info["discarded"] = rep.discarded_count


def _count_cluster(info, args, kwargs, out):
    info["roots_in"] = args[0].total_multiplicity()
    info["clusters_out"] = len(out)


def _count_graph(info, args, kwargs, graph):
    info["pairs"] = len(args[0]) * len(args[1])
    info["edges"] = len(graph.edges)


def _count_matching(info, args, kwargs, match):
    g = args[0]
    info["matched"] = match.total_weight
    info["possible"] = min(g.left.total_multiplicity(), g.right.total_multiplicity())


def _count_metric(info, args, kwargs, out):
    info["n"] = len(args[0])


def _count_from_roots(info, args, kwargs, poly):
    info["products"] = len(poly.nodes) * args[0].total_multiplicity()


def _count_load(info, args, kwargs, out):
    info["bytes"] = os.path.getsize(args[0])


def _count_main(info, args, kwargs, code):
    argv = list(args[0])
    if "-o" in argv:
        out = argv[argv.index("-o") + 1]
        info["bytes"] = os.path.getsize(out) if os.path.exists(out) else 0


# (module, attribute, span name or function of the call's arguments,
#  counter(info, args, kwargs, result) or None, metric-name prefixes fed)
HOOKS = (
    ("laggcd.agcd", "find_roots", "rootfind.roots", _count_roots, ("rootfind.", SELF)),
    ("laggcd.rootfind", "evaluate", "lagpoly.evaluate", None, ("lagpoly.evaluate.",)),
    ("laggcd.agcd", "cluster", _cluster_name, _count_cluster, ("cluster.", SELF)),
    (
        "laggcd.agcd",
        "build_graph",
        "matching.build_graph",
        _count_graph,
        ("matching.build_graph.", "matching.pairs_scanned", "matching.edge_frac", SELF),
    ),
    ("laggcd.agcd", "greedy_mwm", "matching.greedy", _count_matching, ("matching.greedy.", "matching.matched_frac", SELF)),
    ("laggcd.agcd", "exact_mwm", "matching.exact", _count_matching, ("matching.exact.", "matching.matched_frac", SELF)),
    ("laggcd.agcd", "assemble_gcd", "agcd.assemble_gcd", None, (SELF,)),
    ("laggcd.agcd", "reconstruct", "agcd.reconstruct", None, (SELF,)),
    ("laggcd.agcd", "root_pseudometric", _metric_name, _count_metric, ("metric.", SELF)),
    ("laggcd.agcd", "from_roots", "lagpoly.from_roots", _count_from_roots, ("lagpoly.from_roots.", "agcd.materialize.", SELF)),
    ("laggcd.cli", "load_problem", "problemfile.load_problem", _count_load, ("problemfile.", "cli.main.self_ms")),
    ("laggcd.cli", "approximate_gcd", "agcd.approximate_gcd", None, ("agcd.", "cli.main.self_ms")),
    ("laggcd", "approximate_gcd", "agcd.approximate_gcd", None, ("agcd.",)),
    ("laggcd.cli", "main", "cli.main", _count_main, ("cli.",)),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []  # "module.attribute" of hooks that were not found
        self._stack = []
        self._problem = None
        self._originals = []

    # ------------------------------------------------------------- hooks

    def install(self) -> None:
        for module_name, attr, name, counter, _ in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append("%s.%s" % (module_name, attr))
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, perf_counter(), None, parent, self._problem, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            span = self._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[5]["raised"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if counter is not None:
                counter(span[5], args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # ---------------------------------------------------------- problems

    def begin(self, problem_id: int):
        self._problem = problem_id
        return self._open("problem")

    def end(self, span) -> None:
        self._close(span)
        self._problem = None

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, problem, info in self.spans:
                rec = dict(name=name, start=start, end=end, parent=parent, problem=problem)
                rec.update(info)
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(tracer: Tracer, problems: int) -> dict:
    """Per-layer metrics from the spans of a traced pass over `problems`
    problems: ``ms`` is busy ms per problem, ``calls`` calls per problem,
    ``self_ms`` busy time minus child spans. A layer that was not called
    reports 0; a metric fed by a missing hook is left out."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    busy = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    info = defaultdict(list)
    materialize = 0.0
    for k, (name, start, end, parent, _, inf) in enumerate(spans):
        busy[name] += end - start
        own[name] += end - start - child[k]
        calls[name] += 1
        info[name].append(inf)
        if name == "lagpoly.from_roots" and parent is not None:
            if spans[parent][0] == "agcd.approximate_gcd":
                materialize += end - start

    per = 1.0 / max(problems, 1)

    def ms(name):
        return 1e3 * busy[name] * per

    def total(name, key):
        return sum(i.get(key, 0) for i in info[name])

    def ratio(num, den):
        return num / den if den else 0.0

    roots = [i for i in info["rootfind.roots"] if "found" in i]
    clusters = ("cluster.dnc", "cluster.heuristic")
    roots_in = sum(total(c, "roots_in") for c in clusters)
    clusters_out = sum(total(c, "clusters_out") for c in clusters)
    m = {
        "rootfind.roots.ms": ms("rootfind.roots"),
        "rootfind.roots.calls": calls["rootfind.roots"] * per,
        "rootfind.pencil_flops": sum((i["degree"] + 2) ** 3 for i in roots) * per,
        "rootfind.found_frac": ratio(sum(i["found"] for i in roots), sum(i["degree"] for i in roots)),
        "rootfind.extra_discarded": sum(i["discarded"] - 2 for i in roots) * per,
        "lagpoly.from_roots.ms": ms("lagpoly.from_roots"),
        "lagpoly.from_roots.calls": calls["lagpoly.from_roots"] * per,
        "lagpoly.from_roots.products": total("lagpoly.from_roots", "products") * per,
        "lagpoly.evaluate.ms": ms("lagpoly.evaluate"),
        "cluster.dnc.ms": ms("cluster.dnc"),
        "cluster.heuristic.ms": ms("cluster.heuristic"),
        "cluster.merge_frac": ratio(roots_in - clusters_out, roots_in),
        "matching.build_graph.ms": ms("matching.build_graph"),
        "matching.pairs_scanned": total("matching.build_graph", "pairs") * per,
        "matching.edge_frac": ratio(
            total("matching.build_graph", "edges"), total("matching.build_graph", "pairs")
        ),
        "matching.greedy.ms": ms("matching.greedy"),
        "matching.exact.ms": ms("matching.exact"),
        "matching.matched_frac": ratio(
            total("matching.greedy", "matched") + total("matching.exact", "matched"),
            total("matching.greedy", "possible") + total("matching.exact", "possible"),
        ),
        "metric.sum.ms": ms("metric.sum"),
        "metric.max.ms": ms("metric.max"),
        "metric.calls": (calls["metric.sum"] + calls["metric.max"]) * per,
        "metric.n": ratio(
            total("metric.sum", "n") + total("metric.max", "n"),
            calls["metric.sum"] + calls["metric.max"],
        ),
        "agcd.approximate_gcd.ms": ms("agcd.approximate_gcd"),
        SELF: 1e3 * own["agcd.approximate_gcd"] * per,
        "agcd.materialize.ms": 1e3 * materialize * per,
        "agcd.raised": sum("raised" in i for i in info["agcd.approximate_gcd"]) * per,
        "problemfile.load_problem.ms": ms("problemfile.load_problem"),
        "problemfile.bytes_in": total("problemfile.load_problem", "bytes") * per,
        "cli.main.ms": ms("cli.main"),
        "cli.main.self_ms": 1e3 * own["cli.main"] * per,
        "cli.bytes_out": total("cli.main", "bytes") * per,
    }
    for deg in (64, 128, 256):
        at = [s for s in spans if s[0] == "rootfind.roots" and s[5].get("degree") == deg]
        m["rootfind.roots.deg%d.ms" % deg] = ratio(1e3 * sum(s[2] - s[1] for s in at), len(at))
    fed = [p for h in HOOKS if "%s.%s" % h[:2] in tracer.missing for p in h[4]]
    return {k: v for k, v in m.items() if not any(k.startswith(p) for p in fed)}


def raised_by_type(tracer: Tracer) -> dict:
    """Exceptions leaving approximate_gcd, counted by type."""
    return dict(
        Counter(
            info["raised"]
            for name, _, _, _, _, info in tracer.spans
            if name == "agcd.approximate_gcd" and "raised" in info
        )
    )
