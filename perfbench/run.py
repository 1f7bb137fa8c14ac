#!/usr/bin/env python3
"""End-to-end benchmark of the ABase simulator.

Builds the benchmark (perfbench/CMakeLists.txt, Release, against the
library sources in src/) and runs one workload:

    python3 perfbench/run.py --workload kv_uncached --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload
twice (untraced, then traced), checks that both runs are the same
simulation, and prints the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Traced runs also leave their spans, the simulator's perfetto trace and
the full ledger under <build>/trace/.

    python3 perfbench/run.py --selftest     # the benchmark's own tests

Build outputs go to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) under the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

STAGES = ["Fault", "Generate", "ProxyAdmit", "Route", "NodeSchedule", "Replicate",
          "Settle", "Control"]
PARALLEL_STAGES = ["Generate", "ProxyAdmit", "Route", "NodeSchedule", "Replicate"]
# Morsel labels (src/sim/pipeline.cc) -> the stage they run in.
MORSEL_STAGE = {"Generate": "Generate", "ProxyAdmit": "ProxyAdmit",
                "AdmitInjected": "ProxyAdmit", "RouteSubmit": "Route",
                "NodeTick": "NodeSchedule", "ReplApply": "Replicate"}

# Output fields that must agree between the untraced and traced runs.
SAME_SIMULATION = ["digest", "attempted", "failed", "settled_ok", "latency_samples"]
SAME_METRICS = ["virtual_p50_us", "virtual_p99_us"]


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    # The compiler's temporary files stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_binary(args):
    """Runs the benchmark binary; returns its result object (or None)."""
    cmd = [os.path.join(build_dir(), "abase_perfbench")] + args
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("no output from: " + " ".join(cmd))
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log("unparsable output from: " + " ".join(cmd))
        return None


def stage_busy(perfetto_path, first_tick, window_ticks):
    """Per parallel stage: (wall us, summed morsel-busy us) over the window.

    Every tick emits one slice per pipeline stage on track 0, in stage
    order, each written when it ends, so a stage slice follows the morsel
    slices it encloses. "Fault" has no morsels: it opens each tick. A
    morsel label can equal its stage's name, so the stage slice is the
    last track-0 slice of that name within the tick.
    """
    with open(perfetto_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    ticks = []
    for e in events:
        if e["tid"] != 0:
            continue
        if e["name"] == "Fault":
            ticks.append({})
        if ticks and e["name"] in STAGES:
            ticks[-1][e["name"]] = e
    if len(ticks) < first_tick + window_ticks:
        return None
    window = ticks[first_tick:first_tick + window_ticks]
    lo = window[0]["Fault"]["ts"]
    hi = max(e["ts"] + e["dur"] for e in window[-1].values())
    stage_slices = set(id(e) for t in window for e in t.values())
    wall = {s: sum(t[s]["dur"] for t in window if s in t) for s in PARALLEL_STAGES}
    busy = {s: 0 for s in PARALLEL_STAGES}
    for e in events:
        stage = MORSEL_STAGE.get(e["name"])
        if stage and id(e) not in stage_slices and lo <= e["ts"] <= hi:
            busy[stage] += e["dur"]
    return wall, busy


def layer_metrics(traced, base, perfetto_path):
    m = {k: v for k, v in traced["metrics"].items()}
    ops = max(1, traced["attempted"])
    workers = traced["workers"]
    parsed = stage_busy(perfetto_path, traced["first_window_tick"], traced["window_ticks"])
    if parsed is None:
        log("the perfetto trace does not cover the timed window")
        return None
    for stage in PARALLEL_STAGES:
        wall_us, busy_us = parsed[0][stage], parsed[1][stage]
        m["sim.%s.busy_ns_per_op" % stage] = {"value": busy_us * 1e3 / ops, "unit": "ns"}
        eff = busy_us / (workers * wall_us) if wall_us > 0 else 0.0
        m["sim.%s.parallel_efficiency" % stage] = {"value": eff, "unit": "ratio"}
    untraced_ops = base["metrics"]["ops_per_s"]["value"]
    traced_ops = traced["metrics"]["ops_per_s"]["value"]
    m["trace.ops_per_s_untraced"] = {"value": untraced_ops, "unit": "ops/s"}
    m["trace.ops_per_s_traced"] = {"value": traced_ops, "unit": "ops/s"}
    m["trace.overhead_ratio"] = {"value": untraced_ops / traced_ops if traced_ops else 0.0,
                                 "unit": "ratio"}
    return m


def selftest():
    if not build():
        return 1
    test = os.path.join(build_dir(), "perfbench_selftest")
    return subprocess.run([test]).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error("unknown workload %r (one of %s)" % (args.workload, ", ".join(names)))
    if not build():
        return 1

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds)]
    base = run_binary(common + ["--trace", "0"])
    if base is None:
        return 1
    correct = base["correct"]
    if args.trace == 0:
        wanted = spec["end_to_end"]
        metrics = base["metrics"]
    else:
        trace_dir = os.path.join(build_dir(), "trace")
        os.makedirs(trace_dir, exist_ok=True)
        stem = os.path.join(trace_dir, "%s-seed%d" % (args.workload, args.seed))
        traced = run_binary(common + ["--trace", "1", "--perfetto", stem + ".perfetto.json",
                                      "--spans", stem + ".spans.json"])
        if traced is None:
            return 1
        correct = correct and traced["correct"]
        for key in SAME_SIMULATION:
            if base[key] != traced[key]:
                log("tracing changed the simulation: %s %r != %r" % (key, base[key], traced[key]))
                correct = False
        for key in SAME_METRICS:
            if base["metrics"][key]["value"] != traced["metrics"][key]["value"]:
                log("tracing changed %s" % key)
                correct = False
        wanted = spec["per_layer"]
        metrics = layer_metrics(traced, base, stem + ".perfetto.json")
        if metrics is None:
            return 1
        with open(stem + ".ledger.json", "w") as f:
            json.dump({"untraced": base, "traced": traced, "metrics": metrics}, f, indent=1)
    out = {}
    for w in wanted:
        if w["name"] not in metrics:
            log("metric %s missing" % w["name"])
            return 1
        out[w["name"]] = {"value": metrics[w["name"]]["value"], "unit": w["unit"]}
    for failure in base.get("failures", []):
        log("check failed: " + failure)
    print(json.dumps({"correct": bool(correct), "attempted": base["attempted"],
                      "failed": base["failed"], "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
