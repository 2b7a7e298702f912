"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

Each traced or measured pass runs in a fresh interpreter, as in the
benchmark itself, because installing the tracer cannot be undone.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import scenarios  # noqa: E402

# Not used while the workloads were tuned.
HELD_OUT_SEED = 7919


def _python(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _pass(workload, seed, work, trace):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"),
           "--workload", workload, "--seed", str(seed), "--work", str(work)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = [scenarios.scenario_bytes(s) for s in scenarios.generate(workload, 5)]
    again = [scenarios.scenario_bytes(s) for s in scenarios.generate(workload, 5)]
    other = [scenarios.scenario_bytes(s) for s in scenarios.generate(workload, 6)]
    assert first == again
    assert first != other
    assert len({json.loads(b)["name"] for b in first}) == len(first)
    assert all(json.loads(b)["expectations"]["overall"] in ("pass", "fail") for b in first)


def test_wrapping_leaves_no_unwrapped_alias():
    got = _python(
        "import tyang.cli, tracer\n"
        "originals = tracer.originals()\n"
        "before = len(tracer._slots(originals))\n"
        "tr = tracer.Tracer().install()\n"
        "import json, tyang.yangian, tyang.twisted, tyang.drinfeld, tyang.superlinalg\n"
        "aliases = [m.check_identity_2var for m in (tyang.yangian, tyang.twisted, tyang.superlinalg)]\n"
        "print(json.dumps({'before': before, 'patched': tr.patched, 'after': len(tracer._slots(originals)),\n"
        "  'aliases_wrapped': all(hasattr(a, '__wrapped__') for a in aliases),\n"
        "  'pipelines_wrapped': all(hasattr(f, '__wrapped__') for f in tyang.cli.PIPELINE_FUNCS.values())}))\n"
    )
    assert got["before"] == got["patched"] > len(scenarios.WORKLOADS)
    assert got["after"] == 0
    assert got["aliases_wrapped"] and got["pipelines_wrapped"]


def test_negative_control_stops_before_the_planned_grid(tmp_path):
    neg = next(s for s in scenarios.generate("symbolic-mixed", HELD_OUT_SEED) if s["expectations"]["overall"] == "fail")
    path = tmp_path / "neg.json"
    path.write_bytes(scenarios.scenario_bytes(neg))
    got = _python(
        "import json, tyang.cli, tracer\n"
        "tr = tracer.Tracer().install()\n"
        f"code = tyang.cli.main(['run', {str(path)!r}, '--out', {str(tmp_path / 'r.json')!r}])\n"
        "print(json.dumps({'code': code, 'points': tr.grid_points, 'planned': tr.grid_points_planned}))\n"
    )
    assert got["code"] == 1
    assert 0 < got["points"] < got["planned"]


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_held_out_seed_meets_expectations_and_layer_shape(workload, tmp_path):
    plain = _pass(workload, HELD_OUT_SEED, tmp_path / "plain", trace=False)
    traced = _pass(workload, HELD_OUT_SEED, tmp_path / "traced", trace=True)
    assert plain["failures"] == {} and traced["failures"] == {}
    # Tracing observes and changes nothing: reports are byte-identical.
    assert plain["digests"] == traced["digests"]
    layers = traced["layers"]
    if workload == "grid-certify":
        assert layers["superlinalg.check_identity_2var.s"] >= 0.8 * traced["batch_s"]
    elif workload == "dense-operator":
        assert layers["superlinalg.eval_mat.calls"] == 0
    else:
        assert layers["superlinalg.rf_matmul.s"] > layers["superlinalg.check_identity_2var.s"]
        assert layers["superlinalg.grid_points"] < layers["superlinalg.grid_points_planned"]
