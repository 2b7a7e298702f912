"""The perfbench tracer wraps tyang functions by their names.  Every name it
targets must resolve, so that a rename in src fails here, not only in a
traced benchmark run.  perfbench/tracer.py is read, not imported, so that
nothing is written under perfbench/.
"""

import importlib
import os

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "tracer.py")


def _tracer():
    with open(TRACER) as fh:
        code = compile(fh.read(), TRACER, "exec")
    namespace = {"__name__": "perfbench_tracer"}
    exec(code, namespace)
    return namespace


def test_every_span_and_counter_target_resolves():
    tracer = _tracer()
    targets = [t for table in (tracer["SPANS"], tracer["COUNTERS"]) for ts in table.values() for t in ts]
    assert targets
    for target in targets:
        importlib.import_module(target.split(":")[0])
    found = tracer["originals"]()
    assert len(found) == len(targets) + 1
    assert all(callable(f) for f in found)
