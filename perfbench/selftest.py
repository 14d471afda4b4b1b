#!/usr/bin/env python3
"""Self-test of the benchmark (about two minutes after the first build).

    python3 perfbench/selftest.py

Runs every workload at --tiny size through the same code path as the
measured runs and asserts that:
  - the result line is correct, with no failed run, and names every
    metric of BENCHMARK.json with its unit (end-to-end untraced,
    per-layer traced);
  - the traced run's estimates, solver time and unattributed time add up
    to the engine time;
  - a corrupted sim_digest and a broken invariant are reported as failed
    runs, and probe estimates larger than the engine time fail the
    traced run;
  - Debug and sanitizer builds are refused;
  - in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exits 0 when every assertion holds.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace),
                             "--tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def metrics_match(result, wanted):
    names = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    return (set(got) == set(names)
            and all(got[n]["unit"] == u
                    and isinstance(got[n]["value"], (int, float))
                    for n, u in names.items()))


for w in [x["name"] for x in SPEC["workloads"]]:
    proc, result = bench(w, 0)
    expect(proc.returncode == 0 and result is not None and result["correct"]
           and result["failed"] == 0 and result["attempted"] >= 2,
           "%s: untraced run correct with no failed run" % w)
    expect(result is not None and metrics_match(result, SPEC["end_to_end"]),
           "%s: every end-to-end metric printed with its unit" % w)
    expect("sim_digest %s " % w in proc.stdout, "%s: sim_digest printed" % w)

    proc, result = bench(w, 1)
    expect(proc.returncode == 0 and result is not None and result["correct"],
           "%s: traced run correct" % w)
    if result is not None and metrics_match(result, SPEC["per_layer"]):
        m = {k: v["value"] for k, v in result["metrics"].items()}
        parts = sum(v for k, v in m.items() if k.endswith(".est_busy_s"))
        parts += m["runtime.solver_s"] + m["system.unattributed_s"]
        expect(abs(parts - m["system.engine_s"]) < 1e-9,
               "%s: est_busy_s + solver + unattributed == engine" % w)
    else:
        expect(False, "%s: every per-layer metric printed with its unit" % w)

for inject in ("digest", "invariant"):
    for w in ("graph_pr", "serving_observed"):
        proc, result = bench(w, 0, "--inject", inject)
        expect(result is not None and not result["correct"]
               and result["failed"] >= 1
               and result["failed"] < result["attempted"],
               "%s: injected %s fault reported as a failed run" % (w, inject))

# Probe estimates larger than the engine time leave a negative remainder.
proc, result = bench("graph_pr", 1, "--inject", "estimate")
expect(result is not None and not result["correct"] and result["failed"] == 1
       and "system.unattributed_s" in proc.stdout,
       "graph_pr: negative system.unattributed_s fails the traced run")

for build_type, flags in (("Debug", "-g"),
                          ("Release", "-O2 -fsanitize=address")):
    expect(run.refusal({"build_type": build_type, "cxx_flags": flags}) != "",
           "%s build with '%s' refused" % (build_type, flags))
expect(run.refusal({"build_type": "RelWithDebInfo",
                    "cxx_flags": "-O2 -g -DNDEBUG"}) == "",
       "RelWithDebInfo build accepted")

bare = os.path.join(ROOT, ".bench_out", "bare")
shutil.rmtree(bare, ignore_errors=True)
os.makedirs(bare)
shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
for path in SPEC["paths"]:
    shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
proc, result = bench("graph_pr", 0, cwd=bare)
expect(proc.returncode != 0 and result is None,
       "bare directory: non-zero exit and no result")
shutil.rmtree(bare, ignore_errors=True)

print("%d failure(s)" % len(failures))
sys.exit(1 if failures else 0)
