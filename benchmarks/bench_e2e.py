#!/usr/bin/env python3
"""End-to-end timings of the perfbench workloads, recorded as a BENCH file.

    python3 benchmarks/bench_e2e.py --label NAME --out benchmarks/BENCH_<n>.json [--src SRC]

Run from the root of a checkout.  The scenario lists come from
perfbench/scenarios.py (imported, not changed) at seed 101; every scenario
of every workload runs once, in this one interpreter, through
``tyang.cli.main(["run", file, "--out", report, "--max-dim", cap])``, with
the tyang package imported from SRC (default: this checkout's src).  The
record stored under NAME in the output file holds the kernel backend,
seconds per scenario and per workload, the SHA-256 of every report, and,
for the daha-principal scenarios, the seconds spent inside verify_daha,
sf_presentation and center_check, timed by wrappers this script puts
around them.  Records under other names
already in the file are kept, so one file can hold the same benchmark run
on two checkouts (say, a change and its parent).
"""

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
HECKE_CHECKS = ("verify_daha", "sf_presentation", "center_check")
SEED = 101


def _timed(module, name, sink):
    """Replace module.name by a wrapper adding its seconds to sink[name]."""
    func = getattr(module, name)

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            sink[name] += time.perf_counter() - t0

    setattr(module, name, wrapper)


def run_pass(cli, scenarios, workload, work, layers):
    """One pass over a workload: {name: record}, with the Hecke check
    seconds in the records of the daha-principal scenarios."""
    out = {}
    for sc in scenarios.generate(workload, SEED):
        path = os.path.join(work, sc["name"] + ".json")
        report = os.path.join(work, sc["name"] + ".report.json")
        with open(path, "wb") as fh:
            fh.write(scenarios.scenario_bytes(sc))
        for key in layers:
            layers[key] = 0.0
        t0 = time.perf_counter()
        cli.main(["run", path, "--out", report, "--max-dim", str(scenarios.MAX_DIM)])
        rec = {"s": round(time.perf_counter() - t0, 4)}
        with open(report, "rb") as fh:
            rec["sha256"] = hashlib.sha256(fh.read()).hexdigest()
        if "daha-principal" in sc["name"]:
            rec["hecke_s"] = {key: round(s, 4) for key, s in layers.items()}
        out[sc["name"]] = rec
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of the record, e.g. parent or change")
    ap.add_argument("--out", required=True, help="BENCH json file to create or update")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding the tyang package")
    args = ap.parse_args()

    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "perfbench")]
    import scenarios
    import tyang._kernel
    import tyang.cli
    import tyang.daha

    layers = dict.fromkeys(HECKE_CHECKS, 0.0)
    for name in HECKE_CHECKS:
        _timed(tyang.daha, name, layers)

    workloads = {}
    with tempfile.TemporaryDirectory() as work:
        for workload in scenarios.WORKLOADS:
            per_scenario = run_pass(tyang.cli, scenarios, workload, work, layers)
            workloads[workload] = {
                "s": round(sum(r["s"] for r in per_scenario.values()), 3),
                "scenarios": per_scenario,
            }

    data = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    data.setdefault("runs", {})[args.label] = {
        "python": platform.python_version(),
        "backend": tyang._kernel.BACKEND,
        "nproc": os.cpu_count(),
        "seed": SEED,
        "workloads": workloads,
    }
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, rec in workloads.items():
        print(f"{args.label} {workload}: {rec['s']:.3f} s")


if __name__ == "__main__":
    main()
