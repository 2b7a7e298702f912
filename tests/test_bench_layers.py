"""benchmarks/bench_e2e.py times the functions its LAYERS table names,
resolving each with getattr when it starts.  Every name must resolve, so
that a rename in src fails here, not only when the benchmark is run.  The
script is read, not imported, as the tracer's is in test_tracer_targets.

Its heavy workload runs the scenario files of benchmarks/heavy; each is
parsed here, and its carrier sized by the CLI's readers without building
it, so a malformed file fails here too.  Expectations may pin the data of
checks besides the overall verdict.
"""

import importlib
import json
import math
import os

import pytest

from tyang import cli

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
BENCH = os.path.join(ROOT, "benchmarks", "bench_e2e.py")
HEAVY_DIR = os.path.join(ROOT, "benchmarks", "heavy")
# file -> (pipeline, carrier dim, kappa, expected overall); the carrier of
# a drinfeld scenario is M x V^(l+1), as the CLI's guard counts it.
HEAVY = {
    "classify-vector11-x3.json": ("classify", 8, 2, "pass"),
    "drinfeld-principal-l3.json": ("drinfeld", 768, 2, "pass"),
    "reflection-negative-control-x4.json": ("verify-twisted", 16, 2, "fail"),
    "reflection-vector11-x5-gamma.json": ("verify-twisted", 32, 2, "pass"),
    "rtt-vector11-x6.json": ("verify-yangian", 64, 2, "pass"),
    "rtt-vector21-x3.json": ("verify-yangian", 27, 3, "pass"),
}


def _bench_namespace():
    with open(BENCH) as fh:
        namespace = {"__name__": "bench_e2e", "__file__": BENCH}
        exec(compile(fh.read(), BENCH, "exec"), namespace)
    return namespace


def test_every_layer_function_resolves():
    names = [q for _marker, qualnames in _bench_namespace()["LAYERS"].values() for q in qualnames]
    assert names
    for qualname in names:
        module, name = qualname.split(".")
        assert callable(getattr(importlib.import_module("tyang." + module), name)), qualname


def test_quotient_layer_times_the_drinfeld_echelon_form():
    # The wrapper replaces _kernel.echelon where a module binds it, so the
    # sign quotient is timed only while drinfeld binds that very function.
    from tyang import _kernel, drinfeld

    assert _bench_namespace()["LAYERS"]["quotient_s"][1] == ("drinfeld._sign_relations", "_kernel.echelon")
    assert drinfeld.echelon is _kernel.echelon


def test_heavy_workload_reads_every_heavy_file():
    namespace = _bench_namespace()
    assert sorted(os.listdir(namespace["HEAVY_DIR"])) == sorted(HEAVY)
    assert [name for name, _data in namespace["heavy_items"]()] == [f[: -len(".json")] for f in sorted(HEAVY)]


@pytest.mark.parametrize("fname", sorted(HEAVY))
def test_heavy_scenario_parses(fname):
    pipeline, dim, kappa, overall = HEAVY[fname]
    with open(os.path.join(HEAVY_DIR, fname)) as fh:
        scenario = json.load(fh)
    assert scenario["name"] == fname[: -len(".json")]
    assert scenario["pipeline"] == pipeline and pipeline in cli.PIPELINE_FUNCS
    assert scenario["expectations"]["overall"] == overall
    assert set(scenario["expectations"]) <= {"overall", "checks"}
    inputs = scenario["inputs"]
    if pipeline == "drinfeld":
        (factors, l), _build = cli.build_daha_module(inputs["m"])
        size = (math.prod(factors) * len(inputs["ps"]) ** (l + 1), len(inputs["ps"]))
    else:
        reader, key = (cli.build_taction, "t") if pipeline == "verify-yangian" else (cli.build_baction, "b")
        size, _build = reader(inputs[key])
    assert size == (dim, kappa)
    assert dim <= _bench_namespace()["HEAVY_MAX_DIM"]
