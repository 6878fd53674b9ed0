"""The benchmark's traced run wraps module attributes of the library
(perfbench/spans.py, HOOKS); a hook whose attribute is gone silently drops
the per-layer metrics it feeds. Every hook must resolve to a callable."""

import importlib
import importlib.util
import os

_SPANS_PY = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_hook_resolves():
    spans = _load_spans()
    missing = [
        "%s.%s" % (module, attr)
        for module, attr, *_ in spans.HOOKS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert spans.HOOKS and missing == []
