"""benchmarks/bench_e2e.py times the functions its LAYERS table names,
resolving each with getattr when it starts.  Every name must resolve, so
that a rename in src fails here, not only when the benchmark is run.  The
script is read, not imported, as the tracer's is in test_tracer_targets.
"""

import importlib
import os

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks", "bench_e2e.py")


def test_every_layer_function_resolves():
    with open(BENCH) as fh:
        namespace = {"__name__": "bench_e2e", "__file__": BENCH}
        exec(compile(fh.read(), BENCH, "exec"), namespace)
    names = [q for _marker, qualnames in namespace["LAYERS"].values() for q in qualnames]
    assert names
    for qualname in names:
        module, name = qualname.split(".")
        assert callable(getattr(importlib.import_module("tyang." + module), name)), qualname
