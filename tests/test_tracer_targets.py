"""The perfbench tracer wraps tyang functions by their names.  Every name it
targets must resolve, so that a rename in src fails here, not only in a
traced benchmark run.  perfbench/tracer.py is read, not imported, so that
nothing is written under perfbench/.
"""

import importlib
import os
import subprocess
import sys

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


def test_install_patches_every_slot():
    # install() refuses a traced function bound as a default argument or a
    # closure cell, which would stop every traced benchmark pass.  It
    # patches tyang's modules in place, so it runs in a child interpreter.
    src = os.path.join(os.path.dirname(TRACER), "..", "src")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        f"ns = {{'__name__': 'perfbench_tracer'}}\n"
        f"exec(compile(open({TRACER!r}).read(), {TRACER!r}, 'exec'), ns)\n"
        "print(ns['Tracer']().install().patched)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) > 0
