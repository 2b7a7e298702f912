"""One pass of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/one_pass.py --workload W --seed N --work DIR [--trace] [--setup-only]

A pass pays what a user's ``tyang run`` pays every time: interpreter-level
imports and any module-level cache fill.  It imports ``tyang.cli``, writes
the generated scenario files, then runs them one at a time through
``tyang.cli.main(["run", file, "--out", report, "--max-dim", cap])``.
The program sees only the scenario files.

setup_s runs from the top of this file to the start of the first
scenario.  Before each scenario the pass also times a fixed reference
loop (see reference()); batch_s leaves those loops out.  Run it with the
checkout's ``src`` on PYTHONPATH.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

import scenarios  # noqa: E402

_REF_MATRIX = [[Fraction(7 * i + j - 20, 1 + (i + 2 * j) % 5) for j in range(8)] for i in range(8)]


def reference():
    """Seconds taken by a fixed exact-arithmetic loop that uses no tyang code.

    Six products of 8x8 Fraction matrices, about 20 ms on an idle core:
    the same kind of work as the program's own (pure-Python Fraction
    arithmetic and short-lived lists), so a shared host's speed swings
    slow it about as much as they slow a scenario run next to it.  The
    garbage collector is off while it runs, so the objects the program
    keeps alive cannot change its cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    a = _REF_MATRIX
    for _ in range(6):
        a = [[sum(x * y for x, y in zip(row, col)) / 97 for col in zip(*_REF_MATRIX)] for row in a]
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


def _check(scenario, code, report):
    """Why the report misses the scenario's expectation, or None.

    Judged by the report, never by the exit code alone: negative controls
    exit 1 by design.  The CLI's own verdict on the expectations block
    must be "pass" and the overall status must be the expected one.
    """
    want = scenario["expectations"]["overall"]
    if report.get("expectations") != "pass":
        return f"expectations: {report.get('expectations')!r}"
    if report.get("overall") != want:
        return f"overall {report.get('overall')!r}, expected {want!r}"
    if code != (0 if want == "pass" else 1):
        return f"exit code {code} with overall {want!r}"
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True, help="directory for scenario files and reports")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import tyang.cli
    import tyang._kernel

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(tyang.__file__).startswith(src + os.sep):
        raise SystemExit(f"tyang imported from {tyang.__file__}, not from {src}")

    scen_dir = os.path.join(args.work, "scenarios")
    os.makedirs(scen_dir, exist_ok=True)
    plan = []
    for sc in scenarios.generate(args.workload, args.seed):
        path = os.path.join(scen_dir, sc["name"] + ".json")
        with open(path, "wb") as fh:
            fh.write(scenarios.scenario_bytes(sc))
        plan.append((sc, path))
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s, "backend": tyang._kernel.BACKEND}
    if args.setup_only:
        print(json.dumps(result))
        return

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()

    out_dir = os.path.join(args.work, "reports")
    os.makedirs(out_dir, exist_ok=True)
    times, digests, failures, refs = {}, {}, {}, []
    t_batch = time.perf_counter()
    for sc, path in plan:
        out = os.path.join(out_dir, sc["name"] + ".json")
        if os.path.exists(out):  # left by an earlier pass of this run
            os.remove(out)
        refs.append(reference())
        t0 = time.perf_counter()
        try:
            code = tyang.cli.main(["run", path, "--out", out, "--max-dim", str(scenarios.MAX_DIM)])
        except Exception as e:  # a scenario that raises counts as failed; the batch goes on
            code, err = None, f"{type(e).__name__}: {e}"
        times[sc["name"]] = time.perf_counter() - t0
        if code is None or not os.path.exists(out):
            failures[sc["name"]] = err if code is None else f"no report, exit code {code}"
            continue
        with open(out, "rb") as fh:
            data = fh.read()
        digests[sc["name"]] = hashlib.sha256(data).hexdigest()
        why = _check(sc, code, json.loads(data))
        if why:
            failures[sc["name"]] = why
    result.update({
        "batch_s": time.perf_counter() - t_batch - sum(refs),
        "ref_mean_s": sum(refs) / len(refs),
        "scenario_s": times,
        "digests": digests,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["patched_slots"] = tracer.patched
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
