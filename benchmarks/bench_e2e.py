#!/usr/bin/env python3
"""End-to-end timings of the perfbench workloads, recorded as a BENCH file.

    python3 benchmarks/bench_e2e.py --label NAME --out benchmarks/BENCH_<n>.json [--src SRC]

Run from the root of a checkout.  The scenario lists of the perfbench
workloads come from perfbench/scenarios.py (imported, not changed) at seed
101, run PASSES times over at perfbench's dimension cap; a fourth workload,
heavy, holds the scenario files of benchmarks/heavy (RTT and reflection
certificates at dim 16 to 64, among them one negative control, the
drinfeld functor on the principal series at l = 3 and a rank-one
classification at dim 8), run
HEAVY_PASSES times over with the cap HEAVY_MAX_DIM.  Each scenario runs in
this one interpreter through
``tyang.cli.main(["run", file, "--out", report, "--max-dim", cap])``, with
the tyang package imported from SRC (default: this checkout's src).
Before each scenario the fixed reference loop of perfbench/one_pass.py
(``one_pass.reference``, imported, not changed) runs once, and the
scenario's seconds are also recorded in units of that loop's seconds
(``ref``), which a shared host's speed swings move far less than the
seconds themselves.  The record stored under NAME in the output file is
compact: per workload, its seconds and reference units and those of each
layer of LAYERS, and per scenario only its reference units and the
SHA-256 of its report.  The layers are the seconds spent inside the
functions of LAYERS, timed by wrappers this script puts around them:
verify_daha, sf_presentation and center_check in the daha-principal
scenarios, the series product, the quotient module and the expansion in
the drinfeld scenarios, the sign relations (_sign_relations) and every
echelon form (_kernel.echelon: the sign quotient's, and those of the
kernels and the irreducibility test of the functor output) there too, the highest weight, the Verma conditions and the rank-one
certificate in the classify scenarios, appendix_identities in the
appendix scenarios, and, in every scenario, the products of generator
families (b_from_T, b_tensor, verify_b, inverse_series_action), the grid
certifier check_identity_2var, whose seconds hold the grid evaluation of
the families it calls back, the grid lift of a family at one point
(yangian._lift_at, inside the grid seconds), and the Koszul assembly
(_kron_rows and _kron_sum_rows), which no longer holds the grid lift: it
is the coproducts, the flips and the Drinfeld operators.  A timed function
is wrapped in every tyang module that binds it, a function the checkout
under SRC lacks is not timed, and a layer none of whose functions exists
there is left out of the record (so an older checkout can be run with
this script).  A layer's seconds are those spent inside any of its
functions, a call nested in another of them, or in itself, counted once,
so a layer compares across checkouts whose functions call each other
differently.  They are also taken in the units of the loop run before
each scenario, so a layer compares across records as the scenario totals
do; each workload holds every layer it runs summed over its scenarios,
in seconds and in those units.  Every figure of the record, per scenario
and per workload, is the median over the workload's passes; the reports
must hash alike in every pass.  Last, the record holds the wall seconds and
summary line of the Tier-1 suite of the checkout that holds SRC
(``python -m pytest -q --continue-on-collection-errors`` in SRC's
parent).  Records under other names already in the file are kept, so one
file can hold the same benchmark run on two checkouts (say, a change and
its parent).  Standard output has each workload's totals and layers, and
each heavy scenario's median reference units: one heavy scenario, the
drinfeld functor at l = 3, is most of the heavy total and would hide a
change to any other.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
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
    "quotient_s": ("drinfeld", ("drinfeld._sign_relations", "_kernel.echelon")),
    "classify_s": ("classify", ("twisted.highest_bweight", "twisted.verma_conditions", "twisted.classify_rank1")),
    "families_s": (None, (
        "twisted.b_from_T", "twisted.b_tensor", "twisted.verify_b", "yangian.inverse_series_action")),
    "grid_s": (None, ("superlinalg.check_identity_2var",)),
    "lift_s": (None, ("yangian._lift_at",)),
    "assembly_s": (None, ("superlinalg._kron_rows", "superlinalg._kron_sum_rows")),
    "appendix_s": ("appendix", ("drinfeld.appendix_identities",)),
}
SEED = 101
PASSES = 5
HEAVY_DIR = os.path.join(ROOT, "benchmarks", "heavy")
HEAVY_PASSES = 3
HEAVY_MAX_DIM = 1024


def _timed(qualname, seconds, depth):
    """Replace tyang.<module>.<name>, in every loaded tyang module that
    binds it, by a wrapper that adds its seconds to seconds[0] when no
    function of its layer, whose shared call depth is depth, is running
    around it.  Returns whether the function exists."""
    module, name = qualname.split(".")
    func = getattr(importlib.import_module("tyang." + module), name, None)
    if func is None:
        return False

    def wrapper(*args, **kwargs):
        depth[0] += 1
        t0 = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            depth[0] -= 1
            if not depth[0]:
                seconds[0] += time.perf_counter() - t0

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("tyang") and getattr(mod, name, None) is func:
            setattr(mod, name, wrapper)
    return True


def run_pass(cli, items, reference, work, layers, max_dim):
    """One pass over a workload's (name, scenario bytes) items: {name:
    record}, with the seconds of each timed layer (layers, keyed as LAYERS)
    in the records of the scenarios it marks, and each scenario's seconds
    over those of one run of reference, the loop run just before it."""
    out = {}
    for name, data in items:
        path = os.path.join(work, name + ".json")
        report = os.path.join(work, name + ".report.json")
        with open(path, "wb") as fh:
            fh.write(data)
        for seconds in layers.values():
            seconds[0] = 0.0
        ref = reference()
        t0 = time.perf_counter()
        cli.main(["run", path, "--out", report, "--max-dim", str(max_dim)])
        seconds = time.perf_counter() - t0
        rec = {"s": round(seconds, 4), "ref": round(seconds / ref, 4)}
        with open(report, "rb") as fh:
            rec["sha256"] = hashlib.sha256(fh.read()).hexdigest()
        for key, (marker, _names) in LAYERS.items():
            if key in layers and (marker is None or marker in name):
                rec[key] = {"s": round(layers[key][0], 4), "ref": round(layers[key][0] / ref, 4)}
        out[name] = rec
    return out


def heavy_items():
    """The (name, bytes) of the heavy scenario files, by file name."""
    out = []
    for fname in sorted(os.listdir(HEAVY_DIR)):
        with open(os.path.join(HEAVY_DIR, fname), "rb") as fh:
            out.append((fname[: -len(".json")], fh.read()))
    return out


def median_record(passes):
    """One compact record per scenario from the records of several passes:
    the median of its reference units and the digest of its report, which
    must agree in every pass."""
    out = {}
    for name in passes[0]:
        recs = [p[name] for p in passes]
        if len({r["sha256"] for r in recs}) != 1:
            raise SystemExit(f"{name}: the report differs between passes")
        out[name] = {"ref": round(statistics.median(r["ref"] for r in recs), 4), "sha256": recs[0]["sha256"]}
    return out


def workload_totals(passes):
    """The seconds and reference units of a workload, and those of each of
    its layers summed over its scenarios, as medians over the passes."""
    med = lambda total, nd: round(statistics.median(total(p.values()) for p in passes), nd)
    first = passes[0].values()
    return {
        "s": med(lambda recs: sum(r["s"] for r in recs), 3),
        "ref": med(lambda recs: sum(r["ref"] for r in recs), 2),
        "layers": {
            key: {unit: med(lambda recs: sum(r[key][unit] for r in recs if key in r), 4)
                  for unit in ("s", "ref")}
            for key in LAYERS
            if any(key in r for r in first)
        },
    }


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
        seconds, depth = [0.0], [0]
        if any([_timed(qualname, seconds, depth) for qualname in names]):
            layers[key] = seconds

    plan = {
        workload: ([(sc["name"], scenarios.scenario_bytes(sc)) for sc in scenarios.generate(workload, SEED)],
                   PASSES, scenarios.MAX_DIM)
        for workload in scenarios.WORKLOADS
    }
    plan["heavy"] = (heavy_items(), HEAVY_PASSES, HEAVY_MAX_DIM)
    workloads = {}
    with tempfile.TemporaryDirectory() as work:
        for workload, (items, npasses, max_dim) in plan.items():
            passes = [run_pass(tyang.cli, items, one_pass.reference, work, layers, max_dim)
                      for _ in range(npasses)]
            workloads[workload] = dict(workload_totals(passes), scenarios=median_record(passes), passes=npasses)

    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": SEED,
        "passes": PASSES,
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
        layers = ", ".join(f"{key} {v['ref']:.2f}" for key, v in rec["layers"].items())
        print(f"{args.label} {workload}: {rec['s']:.3f} s, {rec['ref']:.2f} ref; layers in ref: {layers}")
        if workload == "heavy":
            for name, sc in rec["scenarios"].items():
                print(f"{args.label} heavy {name}: {sc['ref']:.2f} ref")
    print(f"{args.label} tier1: {record['tier1']['s']:.1f} s, {record['tier1']['summary']}")


if __name__ == "__main__":
    main()
