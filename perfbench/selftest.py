#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py [--seconds S] [WORKLOAD ...]

Run it from the root of a checkout.  For each workload (default: all in
BENCHMARK.json) it makes short runs through perfbench/run.py:

  - at the default seed, two untraced and two traced runs, whose exact
    columns must repeat: run_cycles_per_step, code_instrs_per_line and
    modeled_bytes_per_line, and every per-layer count (rewrites,
    routines, machine instructions, loader traffic, cache hits and
    misses, ...);
  - at the held-out seed, one untraced and one traced run.

Every run must print a well-formed result that is correct, carries
exactly the declared metrics with their units, and has no failed op.
On cmo-cold and naim-tight the layer timers must cover at least 95% of
the replayed op.  Exits 1 on the first violation.
"""

import json
import math
import os
import subprocess
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 7

# Per-layer metrics that depend on timing or on the GC's schedule
# rather than on the program; every other count must repeat exactly.
NOT_EXACT = {"gc.major_collections", "dist.events"}
EXACT_E2E = ["run_cycles_per_step", "code_instrs_per_line",
             "modeled_bytes_per_line"]
# Workloads whose replayed op the layer timers must cover to 95%.
ATTRIBUTED = {"cmo-cold", "naim-tight"}


def fail(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(workload, seed, seconds, trace, spec):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    label = f"{workload} seed {seed} trace {trace}"
    if out.returncode != 0:
        fail(f"{label}: exit code {out.returncode}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        fail(f"{label}: no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{label}: correct={result['correct']} failed={result['failed']}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        fail(f"{label}: attempted={result['attempted']}")
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        fail(f"{label}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            fail(f"{label}: {m['name']} unit {got['unit']} != {m['unit']}")
        if not math.isfinite(got["value"]):
            fail(f"{label}: {m['name']} is not finite")
        if not trace and got["value"] <= 0:
            fail(f"{label}: end-to-end {m['name']} is {got['value']}")
    if trace and workload in ATTRIBUTED and metrics["unattributed_ratio"]["value"] > 0.05:
        fail(f"{label}: layer timers cover under 95% of the replayed op")
    print(f"selftest: ok  {label}: {result['attempted']} ops", flush=True)
    return metrics


def exact_columns(metrics, trace, spec):
    if not trace:
        names = EXACT_E2E
    else:
        names = [m["name"] for m in spec["per_layer"]
                 if m["unit"] != "s" and m["name"] not in NOT_EXACT
                 and not m["name"].startswith(("gc.", "trace.", "par."))
                 and m["name"] not in ("unattributed_ratio",
                                       "frontend.klines_per_s")]
    return {n: metrics[n]["value"] for n in names}


def main(argv):
    seconds = 1
    if argv[:1] == ["--seconds"]:
        seconds, argv = int(argv[1]), argv[2:]
    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the root of a checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = argv or [w["name"] for w in spec["workloads"]]
    for w in workloads:
        for trace in (0, 1):
            a = run(w, DEFAULT_SEED, seconds, trace, spec)
            b = run(w, DEFAULT_SEED, seconds, trace, spec)
            ea, eb = exact_columns(a, trace, spec), exact_columns(b, trace, spec)
            diff = [n for n in ea if ea[n] != eb[n]]
            if diff:
                fail(f"{w} trace {trace}: exact columns differ between runs "
                     f"at one seed: {', '.join(diff)}")
            run(w, HELD_OUT_SEED, seconds, trace, spec)
    print("selftest: all passed")


if __name__ == "__main__":
    main(sys.argv[1:])
