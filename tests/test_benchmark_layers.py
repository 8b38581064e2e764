"""The traced benchmark wraps package functions by module and name
(perfbench/spans.py); a rename would otherwise break only that benchmark."""

import importlib
import importlib.util
import os


def test_benchmark_layers_resolve():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, name, _ in spans.LAYERS:
        fn = getattr(importlib.import_module("ipcs2d." + module), name, None)
        assert callable(fn), "ipcs2d.%s.%s" % (module, name)
