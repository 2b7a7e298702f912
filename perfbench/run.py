"""End-to-end benchmark of the tyang scenario runner.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark byte-compiles ``src/``,
then runs measured passes of one workload (see scenarios.py), each in a
fresh interpreter, one after another with no concurrency: a closed loop
with one client.  It starts another round (the set-up probes and a pass)
while the median round still fits in the time budget, and always runs at
least MIN_PASSES.

--trace 0 reports the end-to-end metrics:

  batch_ref        time of the whole scenario list, in reference units,
                   median over passes
  scenario_p50_ref median time per scenario within a pass, in reference
                   units, median over passes
  setup_s          import of tyang.cli plus writing the scenario files,
                   median over the passes and SETUP_PROBES set-up-only
                   launches before each pass
  peak_rss_mb      ru_maxrss of the pass's own process, median over passes

A reference unit is the mean time, within the same pass, of a fixed
exact-arithmetic loop that uses no tyang code and runs just before every
scenario (one_pass.reference).  The host this benchmark was written on is
a shared 2-CPU machine whose speed swings by up to 1.9x in spells of
5-40 s, often longer than a run; wall and CPU seconds swing alike, so
neither repeats between runs.  Time measured in the loop's units cancels
most of the swing, because the loop and the scenarios next to it run at
the same speed.  A change to tyang moves these numbers; the loop itself
does not change with the program.  The same figures in seconds
(batch_s, scenario_p50_s) are printed on the information line.

The tail time per scenario (the highest percentile of per-scenario times,
pooled over the passes, that has at least ten scenarios beyond it in the
first MIN_PASSES passes) is printed on the information line with its
percentile and sample count.  It is not a bounded metric: it did not
repeat within a tenth between runs.

--trace 1 alternates untraced and traced passes and reports the per-layer
numbers of the traced passes (medians; counts repeat exactly) plus the
tracing overhead, traced over untraced batch_ref.

Every pass checks each report against the scenario's expectations and
records its SHA-256.  The run fails (exit 1) when a scenario misses its
expectation or a report digest differs between passes.  Information lines
(environment stamp, digests, per-pass figures) precede the result, which
is the last line of standard output.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import scenarios  # noqa: E402
from tracer import COUNTERS, SPANS  # noqa: E402

MIN_PASSES = 3
SETUP_PROBES = 2
# A run ends, passed or failed, within this many seconds of its start.
RUN_LIMIT_S = 170

END_TO_END = {
    "batch_ref": "ref",
    "scenario_p50_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    """Metric name -> unit of every per-layer metric the traced run reports."""
    units = {}
    for name in SPANS:
        if name == "cli.pipeline":
            continue
        units[name + ".calls"] = "count"
        units[name + ".s"] = "s"
    for name in COUNTERS:
        units[name + ".calls"] = "count"
        units[name + ".s"] = "s"
    units.update({
        "superlinalg.check_identity_2var.self_s": "s",
        "superlinalg.grid_points": "count",
        "superlinalg.grid_points_planned": "count",
        "kernel.mat_mul.madds_computed": "count",
        "exactalg.ratfun_new.calls": "count",
        "cli.self_s": "s",
        "trace.batch_s": "s",
        "trace.untraced_batch_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    return units


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Byte-compile the program so no pass pays compilation."""
    if not os.path.isfile(os.path.join(ROOT, "src", "tyang", "cli.py")):
        fail("no program to measure: src/tyang/cli.py is missing from the checkout")
    proc = subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src", "tyang")],
                          cwd=ROOT, capture_output=True, text=True, timeout=RUN_LIMIT_S)
    if proc.returncode != 0:
        fail(f"byte-compiling src failed:\n{proc.stdout}{proc.stderr}")


def run_pass(workload, seed, work, deadline, trace=False, setup_only=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"),
           "--workload", workload, "--seed", str(seed), "--work", work]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"a pass of {workload} did not finish within the run's {RUN_LIMIT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"a pass of {workload} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_percentile(n_scenarios):
    """Highest whole percentile with at least ten of MIN_PASSES * n samples above it."""
    n = MIN_PASSES * n_scenarios
    return math.floor(100 * (n - 10) / n)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run's files are still there
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(args, work):
    deadline = time.monotonic() + RUN_LIMIT_S
    n_scen = len(scenarios.generate(args.workload, args.seed))
    start = time.perf_counter()
    setups, plain, traced, rounds = [], [], [], []
    while True:
        t_round = time.perf_counter()
        if args.trace:
            plain.append(run_pass(args.workload, args.seed, work, deadline))
            traced.append(run_pass(args.workload, args.seed, work, deadline, trace=True))
        else:
            setups += [run_pass(args.workload, args.seed, work, deadline, setup_only=True)["setup_s"]
                       for _ in range(SETUP_PROBES)]
            plain.append(run_pass(args.workload, args.seed, work, deadline))
        rounds.append(time.perf_counter() - t_round)
        enough = args.trace or len(plain) >= MIN_PASSES
        if enough and time.perf_counter() - start + statistics.median(rounds) > args.seconds:
            break
    passes = plain + traced

    attempted = sum(len(p["scenario_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    mismatched = sorted({name for p in passes for name, d in p["digests"].items()
                         if d != passes[0]["digests"].get(name)})
    digest_all = hashlib.sha256("".join(f"{k}={v}\n" for k, v in sorted(passes[0]["digests"].items())).encode())
    pct = tail_percentile(n_scen)
    pooled = [t for p in plain for t in p["scenario_s"].values()]
    info = {
        "workload": args.workload,
        "environment": {
            "backend": ",".join(sorted({p["backend"] for p in passes})),
            "tyang_pure_env": os.environ.get("TYANG_PURE"),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
        },
        "passes": len(plain),
        "traced_passes": len(traced),
        "batch_s": statistics.median(p["batch_s"] for p in plain),
        "scenario_p50_s": statistics.median(statistics.median(p["scenario_s"].values()) for p in plain),
        "pass_batch_s": [p["batch_s"] for p in plain],
        "pass_ref_mean_s": [p["ref_mean_s"] for p in plain],
        "traced_batch_s": [p["batch_s"] for p in traced],
        "scenario_tail_s": {"value": nearest_rank(pooled, pct), "percentile": pct,
                            "samples": len(pooled), "scenarios_per_pass": n_scen},
        "report_sha256": passes[0]["digests"],
        "report_set_sha256": digest_all.hexdigest(),
        "digest_mismatches": mismatched,
        "failures": [p["failures"] for p in passes if p["failures"]],
    }
    print(json.dumps({"info": info}))
    if failed:
        print(f"perfbench: {failed} of {attempted} scenario runs missed their expectation", file=sys.stderr)
    if mismatched:
        print(f"perfbench: report digests differ between passes for {mismatched}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(plain, traced)
    else:
        values = {
            "batch_ref": statistics.median(batch_ref(p) for p in plain),
            "scenario_p50_ref": statistics.median(statistics.median(p["scenario_s"].values()) / p["ref_mean_s"]
                                                  for p in plain),
            "setup_s": statistics.median(setups + [p["setup_s"] for p in plain]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {
        "correct": failed == 0 and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def batch_ref(p):
    """A pass's batch time in units of its mean reference-loop time."""
    return p["batch_s"] / p["ref_mean_s"]


def layer_metrics(plain, traced):
    derived = {
        "trace.batch_s": statistics.median(t["batch_s"] for t in traced),
        "trace.untraced_batch_s": statistics.median(p["batch_s"] for p in plain),
        "trace.overhead_ratio": (statistics.median(batch_ref(t) for t in traced)
                                 / statistics.median(batch_ref(p) for p in plain)),
    }
    out = {}
    for name, unit in per_layer_units().items():
        if name in derived:
            value = derived[name]
        else:
            value = statistics.median(t["layers"].get(name, 0) for t in traced)
        out[name] = {"value": value, "unit": unit}
    return out


if __name__ == "__main__":
    sys.exit(main())
