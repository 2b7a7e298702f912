#!/usr/bin/env python3
"""End-to-end timings of the perfbench workloads, recorded as a BENCH file.

    python3 benchmarks/bench_e2e.py --label NAME --out benchmarks/BENCH_<n>.json [--src SRC]

Run from the root of a checkout.  The scenario lists come from
perfbench/scenarios.py (imported, not changed) at seed 101; every workload
runs PASSES times over, in this one interpreter, each scenario through
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
and the expansion in the drinfeld scenarios, the sign quotient
(_sign_relations, _column_span_rref, _quotient_maps) there too, the
highest weight, the Verma conditions and the rank-one certificate in the
classify scenarios,
appendix_identities in the appendix scenarios, and, in every scenario, the
products of generator families (b_from_T, b_tensor, verify_b,
inverse_series_action), the grid certifier check_identity_2var, whose
seconds hold the grid evaluation of the families it calls back, and the
Koszul assembly (_kron_rows and _kron_sum_rows).  Each layer's seconds
are recorded twice, as {"s": seconds, "ref": reference units} per
function, the units those of the loop run before the scenario, so a
layer compares across records as the scenario totals do; each workload
also holds the sum of the "all" of every layer it runs over its
scenarios, in both.  A timed function is wrapped in every tyang module
that binds it, and its
seconds are inclusive (an inverse series formed inside b_from_T counts in
both) but a recursive call is not counted twice; each layer's "all"
holds the seconds spent inside any of its functions, a call nested in
another of them counted once, so it compares across checkouts whose
functions call each other differently.  Every figure of the record,
per scenario and per workload, is the median over the PASSES passes, so
a single layer compares between records as the totals do; the reports
must hash alike in every pass.  Last, the record holds
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
    "quotient_s": ("drinfeld", ("drinfeld._sign_relations", "drinfeld._column_span_rref", "drinfeld._quotient_maps")),
    "classify_s": ("classify", ("twisted.highest_bweight", "twisted.verma_conditions", "twisted.classify_rank1")),
    "families_s": (None, (
        "twisted.b_from_T", "twisted.b_tensor", "twisted.verify_b", "yangian.inverse_series_action")),
    "grid_s": (None, ("superlinalg.check_identity_2var",)),
    "assembly_s": (None, ("superlinalg._kron_rows", "superlinalg._kron_sum_rows")),
    "appendix_s": ("appendix", ("drinfeld.appendix_identities",)),
}
SEED = 101
PASSES = 5


def _timed(qualname, sink, layer_depth):
    """Replace tyang.<module>.<name> by a wrapper adding its seconds to
    sink[name], in every loaded tyang module that binds it, and to
    sink["all"] when no other function of the layer, whose shared call
    depth is layer_depth, is running."""
    module, name = qualname.split(".")
    func = getattr(importlib.import_module("tyang." + module), name)
    depth = [0]

    def wrapper(*args, **kwargs):
        depth[0] += 1
        layer_depth[0] += 1
        t0 = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            depth[0] -= 1
            layer_depth[0] -= 1
            seconds = time.perf_counter() - t0
            if not depth[0]:
                sink[name] += seconds
            if not layer_depth[0]:
                sink["all"] += seconds

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
                rec[key] = {name: {"s": round(s, 4), "ref": round(s / ref, 4)} for name, s in layers[key].items()}
        out[sc["name"]] = rec
    return out


def median_record(passes):
    """One record per scenario from the records of several passes: the
    median of every figure, the layers' included; the report digests must
    agree."""
    out = {}
    for name in passes[0]:
        recs = [p[name] for p in passes]
        if len({r["sha256"] for r in recs}) != 1:
            raise SystemExit(f"{name}: the report differs between passes")
        med = lambda get: round(statistics.median(map(get, recs)), 4)
        rec = {"s": med(lambda r: r["s"]), "ref": med(lambda r: r["ref"]), "sha256": recs[0]["sha256"]}
        for key in LAYERS:
            if key in recs[0]:
                rec[key] = {f: {u: med(lambda r: r[key][f][u]) for u in ("s", "ref")} for f in recs[0][key]}
        out[name] = rec
    return out


def workload_totals(passes):
    """The seconds and reference units of a workload, and the "all" of each
    of its layers summed over its scenarios, as medians over the passes."""
    med = lambda total, nd: round(statistics.median(total(p.values()) for p in passes), nd)
    first = passes[0].values()
    return {
        "s": med(lambda recs: sum(r["s"] for r in recs), 3),
        "ref": med(lambda recs: sum(r["ref"] for r in recs), 2),
        "layers": {
            key: {unit: med(lambda recs: sum(r[key]["all"][unit] for r in recs if key in r), 4)
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
        layers[key] = dict.fromkeys([q.split(".")[1] for q in names] + ["all"], 0.0)
        layer_depth = [0]
        for qualname in names:
            _timed(qualname, layers[key], layer_depth)

    workloads = {}
    with tempfile.TemporaryDirectory() as work:
        for workload in scenarios.WORKLOADS:
            passes = [run_pass(tyang.cli, scenarios, one_pass.reference, workload, work, layers)
                      for _ in range(PASSES)]
            workloads[workload] = dict(workload_totals(passes), scenarios=median_record(passes))

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
    print(f"{args.label} tier1: {record['tier1']['s']:.1f} s, {record['tier1']['summary']}")


if __name__ == "__main__":
    main()
