#!/usr/bin/env python3
"""End-to-end timings of the perfbench workloads, recorded as a BENCH file.

    python3 benchmarks/bench_e2e.py --label NAME --out benchmarks/BENCH_<n>.json [--src SRC]

Run from the root of a checkout.  The scenario lists come from
perfbench/scenarios.py (imported, not changed) at seed 101; every scenario
of every workload runs once, in this one interpreter, through
``tyang.cli.main(["run", file, "--out", report, "--max-dim", cap])``, with
the tyang package imported from SRC (default: this checkout's src).
Before each scenario the fixed reference loop of perfbench/one_pass.py
(``one_pass.reference``, imported, not changed) runs once, and the
scenario's seconds are also recorded in units of that loop's seconds
(``ref``), which a shared host's speed swings move far less than the
seconds themselves.  The record stored under NAME in the output file
holds the seconds and reference units per scenario and per workload, the
SHA-256 of every report, and
the seconds spent inside the layers of LAYERS, timed by wrappers this
script puts around them: verify_daha, sf_presentation and center_check in
the daha-principal scenarios, the series product, the quotient module
and the expansion in the drinfeld scenarios, the highest weight, the
Verma conditions and the rank-one certificate in the classify scenarios,
and, in every scenario, the
products of generator families (b_from_T, b_tensor, verify_b,
inverse_series_action) and the grid certifier check_identity_2var, whose
seconds hold the grid evaluation of the families it calls back.  A
timed function is wrapped in every tyang module that binds it, and its
seconds are inclusive (an inverse series formed inside b_from_T counts in
both) but a recursive call is not counted twice.  Last, the record holds
the wall seconds and summary line of the Tier-1 suite of the checkout
that holds SRC (``python -m pytest -q --continue-on-collection-errors``
in SRC's parent).  Records under other names already in
the file are kept, so one file can hold the same benchmark run on two
checkouts (say, a change and its parent).
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
# record key -> (scenario-name marker, or None for every scenario;
# "module.function" names, relative to tyang, timed inside it)
LAYERS = {
    "hecke_s": ("daha-principal", ("daha.verify_daha", "daha.sf_presentation", "daha.center_check")),
    "drinfeld_s": ("drinfeld", ("drinfeld._cleared_product", "drinfeld._quotient_module", "yangian.series_expansion")),
    "classify_s": ("classify", ("twisted.highest_bweight", "twisted.verma_conditions", "twisted.classify_rank1")),
    "families_s": (None, (
        "twisted.b_from_T", "twisted.b_tensor", "twisted.verify_b", "yangian.inverse_series_action")),
    "grid_s": (None, ("superlinalg.check_identity_2var",)),
}
SEED = 101


def _timed(qualname, sink):
    """Replace tyang.<module>.<name> by a wrapper adding its seconds to
    sink[name], in every loaded tyang module that binds it."""
    module, name = qualname.split(".")
    func = getattr(importlib.import_module("tyang." + module), name)
    depth = [0]

    def wrapper(*args, **kwargs):
        depth[0] += 1
        t0 = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            depth[0] -= 1
            if not depth[0]:
                sink[name] += time.perf_counter() - t0

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("tyang") and getattr(mod, name, None) is func:
            setattr(mod, name, wrapper)


def run_pass(cli, scenarios, reference, workload, work, layers):
    """One pass over a workload: {name: record}, with the seconds of the
    timed functions of LAYERS in the records of the scenarios they mark,
    and each scenario's seconds over those of one run of reference, the
    loop run just before it."""
    out = {}
    for sc in scenarios.generate(workload, SEED):
        path = os.path.join(work, sc["name"] + ".json")
        report = os.path.join(work, sc["name"] + ".report.json")
        with open(path, "wb") as fh:
            fh.write(scenarios.scenario_bytes(sc))
        for sink in layers.values():
            for name in sink:
                sink[name] = 0.0
        ref = reference()
        t0 = time.perf_counter()
        cli.main(["run", path, "--out", report, "--max-dim", str(scenarios.MAX_DIM)])
        seconds = time.perf_counter() - t0
        rec = {"s": round(seconds, 4), "ref": round(seconds / ref, 4)}
        with open(report, "rb") as fh:
            rec["sha256"] = hashlib.sha256(fh.read()).hexdigest()
        for key, (marker, _names) in LAYERS.items():
            if marker is None or marker in sc["name"]:
                rec[key] = {name: round(s, 4) for name, s in layers[key].items()}
        out[sc["name"]] = rec
    return out


def run_tier1(src):
    """Wall seconds and summary line of the Tier-1 suite of the checkout
    holding src."""
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=os.path.dirname(src), env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"s": round(seconds, 1), "summary": lines[-1] if lines else "", "returncode": proc.returncode}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of the record, e.g. parent or change")
    ap.add_argument("--out", required=True, help="BENCH json file to create or update")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding the tyang package")
    args = ap.parse_args()

    src = os.path.abspath(args.src)
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    import one_pass
    import scenarios
    import tyang.cli

    layers = {}
    for key, (_marker, names) in LAYERS.items():
        layers[key] = dict.fromkeys((q.split(".")[1] for q in names), 0.0)
        for qualname in names:
            _timed(qualname, layers[key])

    workloads = {}
    with tempfile.TemporaryDirectory() as work:
        for workload in scenarios.WORKLOADS:
            per_scenario = run_pass(tyang.cli, scenarios, one_pass.reference, workload, work, layers)
            workloads[workload] = {
                "s": round(sum(r["s"] for r in per_scenario.values()), 3),
                "ref": round(sum(r["ref"] for r in per_scenario.values()), 2),
                "scenarios": per_scenario,
            }

    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": SEED,
        "workloads": workloads,
        "tier1": run_tier1(src),
    }
    data = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    data.setdefault("runs", {})[args.label] = record
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, rec in workloads.items():
        print(f"{args.label} {workload}: {rec['s']:.3f} s, {rec['ref']:.2f} ref")
    print(f"{args.label} tier1: {record['tier1']['s']:.1f} s, {record['tier1']['summary']}")


if __name__ == "__main__":
    main()
