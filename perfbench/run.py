#!/usr/bin/env python3
"""NDPExt simulator benchmark.

Builds the simulator from this checkout (perfbench/CMakeLists.txt, build
tree in .bench_build/), then runs one workload in a closed loop with one
client: each simulator run is a fresh perfbench_sim process, started only
after the previous one has exited, for at least --seconds seconds.

    python3 perfbench/run.py --workload graph_pr --seed 1 --seconds 30 \
        --trace 0

--trace 0 prints the end-to-end metrics (median over the passes of the
run); --trace 1 runs the same passes plus one traced pass with the
per-layer probes, and prints the per-layer metrics. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Every simulator run is checked (see README.md); a failed check marks the
run failed and the result incorrect. Exit status 0 once a result line is
printed; 1 if the benchmark cannot build or run at all.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Every workload runs on 64 simulated cores (4x2 stacks of 2x4 units, or
# one stack of 8x8 units).
CORES = 64
POLICIES = ["host", "ndpext", "ndpext-static", "jigsaw", "whirlpool",
            "nexus", "static-interleave"]
STREAM_MODE = {"ndpext", "ndpext-static"}
# Passes per variant (no telemetry, no checkpoints) in a traced run; the
# overheads compare their median with the untraced passes' median.
VARIANT_PASSES = 3

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_accesses_per_s", "accesses/s"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("workloads.prepare_s", "s"),
    ("workloads.rmat_s", "s"),
    ("workloads.gen_ns_per_access", "ns"),
    ("workloads.est_busy_s", "s"),
    ("system.run_s", "s"),
    ("system.engine_s", "s"),
    ("system.build_s", "s"),
    ("system.core_steps", "count"),
    ("system.engine_accesses_per_s", "accesses/s"),
    ("system.unattributed_s", "s"),
    ("cache.l1_accesses", "count"),
    ("cache.l1_hit_ratio", "ratio"),
    ("cache.l1_ns", "ns"),
    ("cache.est_busy_s", "s"),
    ("ndp.requests", "count"),
    ("ndp.hit_ratio", "ratio"),
    ("ndp.metadata_hit_ratio", "ratio"),
    ("ndp.locate_ns", "ns"),
    ("ndp.tag_ns", "ns"),
    ("ndp.est_busy_s", "s"),
    ("ndp.stream_mode_run_s", "s"),
    ("ndp.cacheline_mode_run_s", "s"),
    ("noc.transfers", "count"),
    ("noc.link_reservations", "count"),
    ("noc.link_queue_cycles", "cycles"),
    ("noc.transfer_ns", "ns"),
    ("noc.est_busy_s", "s"),
    ("cxl.accesses", "count"),
    ("cxl.link_queue_cycles", "cycles"),
    ("cxl.access_ns", "ns"),
    ("cxl.est_busy_s", "s"),
    ("mem.unit_row_ns", "ns"),
    ("mem.ext_row_hit_ratio", "ratio"),
    ("mem.est_busy_s", "s"),
    ("runtime.solver_s", "s"),
    ("runtime.decisions", "count"),
    ("runtime.iterations", "count"),
    ("runtime.config_us", "us"),
    ("runtime.assign_us", "us"),
    ("baselines.host_run_s", "s"),
    ("serving.arrivals", "count"),
    ("serving.retired", "count"),
    ("telemetry.write_s", "s"),
    ("telemetry.bytes", "bytes"),
    ("telemetry.overhead_s", "s"),
    ("sim.ckpt_bytes", "bytes"),
    ("sim.ckpt_images", "count"),
    ("sim.ckpt_overhead_s", "s"),
    ("trace.overhead_s", "s"),
]

# Mean inter-arrival periods (cycles, per tenant and core) of the nominal
# regime of bench/bench_serving.cc: 60000 for the reserved tenant, 80000
# for the best-effort ones. Every tenant meets its SLO there.
SERVING_TENANTS = [
    "name=emb,workload=recsys,arrival=bursty,period=60000,qos=reserved,"
    "reserve-pct=25,slo=120000",
    "name=tensor,workload=mv,arrival=poisson,period=80000,slo=120000",
    "name=stencil,workload=hotspot,arrival=diurnal,period=80000,"
    "slo=120000,arrive={arrive}",
    "name=lu,workload=lud,arrival=poisson,period=80000,slo=120000,"
    "depart={depart}",
]


class Spec:
    """One simulator run of a workload pass."""

    def __init__(self, label, args, policy, accesses=None,
                 telemetry=False, checkpoint_every=0):
        self.label = label
        self.args = args
        self.policy = policy
        self.accesses = accesses  # per core; None for open-loop serving
        self.telemetry = telemetry
        self.checkpoint_every = checkpoint_every


def workload_specs(name, tiny):
    """The simulator runs that make up one pass of a workload."""
    if name == "graph_pr":
        acc, mb = (500, 8) if tiny else (20000, 96)
        return [Spec("pr/ndpext", ["--workload=pr", "--policy=ndpext",
                                   "--accesses=%d" % acc,
                                   "--footprint-mb=%d" % mb],
                     "ndpext", acc)]
    if name == "sweep_recsys":
        acc = 500 if tiny else 6000
        return [Spec("recsys/" + p, ["--workload=recsys", "--policy=" + p,
                                     "--accesses=%d" % acc],
                     p, acc) for p in POLICIES]
    if name == "serving_observed":
        horizon, arrive, depart, every = ((400000, 1, 3, 2) if tiny
                                          else (4000000, 10, 25, 8))
        tenants = ["--tenant=" + t.format(arrive=arrive, depart=depart)
                   for t in SERVING_TENANTS]
        return [Spec("serving/ndpext",
                     ["--stacks=1x1", "--units=8x8", "--epoch=100000",
                      "--solver-warm-start", "--horizon=%d" % horizon]
                     + tenants,
                     "ndpext", None, telemetry=True,
                     checkpoint_every=every)]
    raise KeyError(name)


WORKLOADS = ["graph_pr", "sweep_recsys", "serving_observed"]


def fail_setup(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the programs; return the build record."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail_setup("simulator sources not found under %s/src" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = [["cmake", "--build", BUILD_DIR, "-j",
              str(min(4, os.cpu_count() or 1))]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    log = os.path.join(BUILD_DIR, "perfbench-build.log")
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                fail_setup("build failed (%s):\n%s"
                           % (" ".join(step), open(log).read()[-3000:]))
    info = json.loads(subprocess.run(
        [os.path.join(BUILD_DIR, "perfbench_sim"), "--build-info"],
        capture_output=True, text=True, check=True).stdout)
    reason = refusal(info)
    if reason:
        fail_setup(reason)
    return info


def refusal(info):
    """Why a build must not be measured ("" if it may)."""
    flags = info["cxx_flags"]
    if (info["build_type"] in ("", "Debug") or "-fsanitize" in flags
            or "-O0" in flags):
        return ("refusing to measure a %s build with flags '%s'"
                % (info["build_type"] or "untyped", flags))
    return ""


def sim_digest(stats):
    """Hash of the stats JSON without its host-time (*Micros, *PerSec) keys."""
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items()
                    if not k.endswith(("Micros", "PerSec"))}
        return value
    text = json.dumps(strip(stats), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_run(spec, rec, inject):
    """Output checks of one simulator run; returns the failures found."""
    problems = []
    if rec["rc"] != 0:
        return ["exit status %d: %s" % (rec["rc"], rec["stderr"])]
    stats = rec["stats"]
    counters = stats["stats"]
    if inject == "invariant":
        if "cores.memStallCycles" in counters:
            counters["cores.memStallCycles"] += 1
        else:
            stats["accesses"] += 1
    if "cores.memStallCycles" in counters:
        stalls = sum(v for k, v in counters.items()
                     if k.startswith("cores.stall."))
        if abs(counters["cores.memStallCycles"] - stalls) > 0.5:
            problems.append("cores.memStallCycles %s != sum of "
                            "cores.stall.* %s"
                            % (counters["cores.memStallCycles"], stalls))
    if spec.accesses is not None:
        expected = CORES * spec.accesses
        if stats["accesses"] != expected:
            problems.append("retired %d accesses, expected %d"
                            % (stats["accesses"], expected))
    else:
        for key, value in counters.items():
            if key.startswith("tenant.") and key.endswith(".arrivals"):
                retired = counters.get(key[:-len("arrivals")] + "retired")
                if retired != value:
                    problems.append("%s retired %s of %s arrivals"
                                    % (key[:-len(".arrivals")], retired,
                                       value))
    if rec.get("report_rc", 0) != 0:
        problems.append("telemetry check failed: " + rec["report_err"])
    return problems


def run_once(spec, seed, probe=False, telemetry=True, checkpoint=True):
    """One simulator run in a fresh process; returns its record."""
    work = os.path.join(OUT_DIR, "run")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    stats_path = os.path.join(work, "stats.json")
    timing_path = os.path.join(work, "timing.json")
    args = ([os.path.join(BUILD_DIR, "perfbench_sim")] + spec.args
            + ["--seed=%d" % seed, "--stats-json=" + stats_path,
               "--timing-json=" + timing_path])
    if spec.telemetry and telemetry:
        args += ["--telemetry=" + os.path.join(work, "tel"),
                 "--trace-requests"]
    if spec.checkpoint_every and checkpoint:
        args += ["--checkpoint=" + os.path.join(work, "ck"),
                 "--checkpoint-every=%d" % spec.checkpoint_every]
    if probe:
        args.append("--probe")
    with open(os.path.join(work, "stderr.txt"), "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(args, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {"label": spec.label, "policy": spec.policy, "rc": proc.returncode,
           "start": start, "end": end, "rss_mb": usage.ru_maxrss / 1024.0}
    if rec["rc"] != 0:
        rec["stderr"] = open(os.path.join(work, "stderr.txt")).read()[-500:]
        return rec
    with open(stats_path) as f:
        rec["stats"] = json.load(f)
    with open(timing_path) as f:
        timing = json.load(f)
    rec["spans"] = timing["spans"]
    rec["probe"] = timing["probe"]
    rec["wall"] = timing["last_artifact"] - start
    span = {s["name"]: s["end"] - s["start"] for s in timing["spans"]}
    rec["span"] = span
    engine = rec["stats"]["engineWallMicros"] / 1e6
    rec["setup"] = span["workloads.prepare"] + (
        span["system.run"] - engine if "system.run" in span else 0.0)
    sizes = {"tel": 0, "ck": 0}
    images = 0
    for name in os.listdir(work):
        for prefix in sizes:
            if name.startswith(prefix + "."):
                sizes[prefix] += os.path.getsize(os.path.join(work, name))
        images += name.endswith(".ckpt")
    rec["telemetry_bytes"], rec["ckpt_bytes"] = sizes["tel"], sizes["ck"]
    rec["ckpt_images"] = images
    if spec.telemetry and telemetry:
        report = subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_report"), "check",
             os.path.join(work, "tel")], capture_output=True, text=True)
        rec["report_rc"] = report.returncode
        rec["report_err"] = (report.stderr or report.stdout)[-300:]
    return rec


class Bench:
    def __init__(self, workload, seed, tiny, inject):
        self.seed = seed
        self.inject = inject
        self.specs = workload_specs(workload, tiny)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.reference = {}  # label -> sim_digest of its first run

    def run_pass(self, probe=False, telemetry=True, checkpoint=True):
        """Run every simulator run of one pass and check each."""
        recs = []
        for spec in self.specs:
            rec = run_once(spec, self.seed, probe, telemetry, checkpoint)
            self.attempted += 1
            inject = None
            if self.inject and spec.label in self.reference:
                inject = self.inject
            if inject == "estimate" and rec.get("probe"):
                rec["probe"]["layers"]["l1_ns"] *= 1e6
            problems = check_run(spec, rec, inject)
            if not problems:
                stats = rec["stats"]
                if inject == "digest":
                    stats["cycles"] += 1
                rec["digest"] = sim_digest(stats)
                ref = self.reference.setdefault(spec.label, rec["digest"])
                if ref != rec["digest"]:
                    problems.append("sim_digest %s differs from %s"
                                    % (rec["digest"], ref))
            if problems:
                self.failed += 1
                self.failures.append("%s: %s" % (spec.label,
                                                 "; ".join(problems)))
            rec["ok"] = not problems
            recs.append(rec)
        return recs

    def passes(self, seconds):
        """Closed loop: passes back to back while the next one is
        expected to end within `seconds` (at least two, so the digest
        check always compares a repeat)."""
        start = time.monotonic()
        out = []
        durations = []
        while True:
            begin = time.monotonic()
            out.append(self.run_pass())
            durations.append(time.monotonic() - begin)
            expected_end = (time.monotonic() - start
                            + statistics.median(durations))
            if len(out) >= 2 and expected_end > seconds:
                return out


def pass_metrics(recs):
    """End-to-end metrics of one pass, or None if any run in it failed."""
    if not all(r["ok"] for r in recs):
        return None
    wall = sum(r["wall"] for r in recs)
    setup = sum(r["setup"] for r in recs)
    accesses = sum(r["stats"]["accesses"] for r in recs)
    return {"wall_s": wall, "setup_s": setup,
            "sim_accesses_per_s": accesses / (wall - setup),
            "peak_rss_mb": max(r["rss_mb"] for r in recs)}


def summarize(values):
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def self_time(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        s["self"] = s["end"] - s["start"] - covered


def pass_spans(recs, run_id, spans):
    """Append the pass's spans: pass > process > library call."""
    pass_id = len(spans)
    spans.append({"id": pass_id, "name": "pass", "parent": None,
                  "run": run_id, "start": recs[0]["start"],
                  "end": recs[-1]["end"]})
    for rec in recs:
        proc_id = len(spans)
        spans.append({"id": proc_id, "name": "process " + rec["label"],
                      "parent": pass_id, "run": run_id,
                      "start": rec["start"], "end": rec["end"]})
        for s in rec.get("spans", []):
            spans.append({"id": len(spans), "name": s["name"],
                          "parent": proc_id, "run": run_id,
                          "start": s["start"], "end": s["end"]})


def layer_metrics(recs, untraced_wall, variants):
    """Per-layer metrics of the traced pass (sums over its runs)."""
    m = {name: 0.0 for name, _ in PER_LAYER}
    weighted = {}

    def add_weighted(key, value, weight):
        total, wsum = weighted.get(key, (0.0, 0.0))
        weighted[key] = (total + value * weight, wsum + weight)

    l1_hits = l1_total = cache_hits = cache_total = 0.0
    meta = meta_w = ext_hits = ext_total = 0.0
    for r in recs:
        s = r["stats"]["stats"]
        probe = r["probe"]
        layers = probe["layers"]
        m["workloads.prepare_s"] += r["span"]["workloads.prepare"]
        m["workloads.rmat_s"] += layers["rmat_s"]
        accesses = r["stats"]["accesses"]
        add_weighted("workloads.gen_ns_per_access", layers["gen_ns"], accesses)
        if r["policy"] == "host":
            m["baselines.host_run_s"] += r["span"]["baselines.host_run"]
            continue
        run_s = r["span"]["system.run"]
        engine = r["stats"]["engineWallMicros"] / 1e6
        m["system.run_s"] += run_s
        m["system.engine_s"] += engine
        m["system.core_steps"] += s.get("engine.eventsFired", 0)
        key = ("ndp.stream_mode_run_s" if r["policy"] in STREAM_MODE
               else "ndp.cacheline_mode_run_s")
        m[key] += run_s
        m["workloads.est_busy_s"] += layers["gen_ns"] * accesses * 1e-9
        m["cache.l1_accesses"] += accesses
        l1_hits += r["stats"]["l1Hits"]
        l1_total += accesses
        add_weighted("cache.l1_ns", layers["l1_ns"], accesses)
        m["cache.est_busy_s"] += layers["l1_ns"] * accesses * 1e-9
        requests = s.get("cache.lat.requests", 0)
        m["ndp.requests"] += requests
        cache_hits += s.get("cache.hits", 0)
        cache_total += s.get("cache.hits", 0) + s.get("cache.misses", 0)
        meta += r["stats"]["metadataHitRate"] * requests
        meta_w += requests
        add_weighted("ndp.locate_ns", layers["locate_ns"], requests)
        add_weighted("ndp.tag_ns", layers["tag_ns"], requests)
        m["ndp.est_busy_s"] += ((layers["locate_ns"] + layers["tag_ns"])
                                * requests * 1e-9)
        transfers = s.get("noc.transfers", 0)
        m["noc.transfers"] += transfers
        m["noc.link_reservations"] += s.get("noc.linkReservations", 0)
        m["noc.link_queue_cycles"] += s.get("noc.linkQueueCycles", 0)
        add_weighted("noc.transfer_ns", layers["transfer_ns"], transfers)
        m["noc.est_busy_s"] += layers["transfer_ns"] * transfers * 1e-9
        ext = s.get("ext.accesses", 0)
        m["cxl.accesses"] += ext
        m["cxl.link_queue_cycles"] += s.get("ext.linkQueueCycles", 0)
        add_weighted("cxl.access_ns", layers["cxl_ns"], ext)
        m["cxl.est_busy_s"] += layers["cxl_ns"] * ext * 1e-9
        rows = s.get("cache.hits", 0) + s.get("cache.misses", 0)
        add_weighted("mem.unit_row_ns", layers["row_ns"], rows)
        m["mem.est_busy_s"] += layers["row_ns"] * rows * 1e-9
        ext_hits += s.get("ext.dram.rowHits", 0)
        ext_total += (s.get("ext.dram.rowHits", 0)
                      + s.get("ext.dram.rowMisses", 0))
        m["runtime.solver_s"] += s.get("runtime.solver.wallMicros", 0) / 1e6
        m["runtime.decisions"] += s.get("runtime.solver.decisions", 0)
        m["runtime.iterations"] += s.get("runtime.solver.iterations", 0)
        add_weighted("runtime.config_us", probe["config_us"], 1)
        add_weighted("runtime.assign_us", probe["assign_us"], 1)
        m["serving.arrivals"] += sum(v for k, v in s.items()
                                     if k.startswith("tenant.")
                                     and k.endswith(".arrivals"))
        m["serving.retired"] += sum(v for k, v in s.items()
                                    if k.startswith("tenant.")
                                    and k.endswith(".retired"))
        m["telemetry.write_s"] += r["span"].get("telemetry.write", 0.0)
        m["telemetry.bytes"] += r["telemetry_bytes"]
        m["sim.ckpt_bytes"] += r["ckpt_bytes"]
        m["sim.ckpt_images"] += r["ckpt_images"]
    for key, (total, wsum) in weighted.items():
        m[key] = total / wsum if wsum else 0.0
    m["system.build_s"] = m["system.run_s"] - m["system.engine_s"]
    if m["system.engine_s"]:
        m["system.engine_accesses_per_s"] = (m["cache.l1_accesses"]
                                             / m["system.engine_s"])
    m["cache.l1_hit_ratio"] = l1_hits / l1_total if l1_total else 0.0
    m["ndp.hit_ratio"] = cache_hits / cache_total if cache_total else 0.0
    m["ndp.metadata_hit_ratio"] = meta / meta_w if meta_w else 0.0
    m["mem.ext_row_hit_ratio"] = ext_hits / ext_total if ext_total else 0.0
    busy = sum(v for k, v in m.items() if k.endswith(".est_busy_s"))
    m["system.unattributed_s"] = (m["system.engine_s"] - busy
                                  - m["runtime.solver_s"])
    m["trace.overhead_s"] = sum(r["wall"] for r in recs) - untraced_wall
    if "no_telemetry" in variants:
        m["telemetry.overhead_s"] = untraced_wall - variants["no_telemetry"]
    if "no_checkpoint" in variants:
        m["sim.ckpt_overhead_s"] = untraced_wall - variants["no_checkpoint"]
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (seconds, not minutes)")
    parser.add_argument("--inject", choices=("digest", "invariant",
                                             "estimate"),
                        help="self-test: corrupt every run after the first")
    args = parser.parse_args()

    info = build()
    print("build: type=%s compiler=%s flags=%s"
          % (info["build_type"], info["compiler"], info["cxx_flags"]))
    bench = Bench(args.workload, args.seed, args.tiny, args.inject)
    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = bench.passes(seconds)
    per_pass = [m for m in map(pass_metrics, passes) if m is not None]

    spans = []
    for run_id, recs in enumerate(passes):
        pass_spans(recs, run_id, spans)

    metrics = {}
    if per_pass:
        for name, unit in END_TO_END:
            summary = summarize([p[name] for p in per_pass])
            print("  %-20s median %-12.6g q1 %-12.6g q3 %-12.6g n=%d %s"
                  % (name, summary["median"], summary["q1"], summary["q3"],
                     summary["n"], unit))
            metrics[name] = {"value": summary["median"], "unit": unit}

    if args.trace and per_pass:
        untraced = statistics.median(p["wall_s"] for p in per_pass)
        traced = bench.run_pass(probe=True)
        pass_spans(traced, len(passes), spans)
        variants = {}

        def variant(**flags):
            """Median wall of VARIANT_PASSES passes run with `flags`."""
            walls = []
            for _ in range(VARIANT_PASSES):
                recs = bench.run_pass(**flags)
                pass_spans(recs, spans[-1]["run"] + 1, spans)
                walls.append(sum(r["wall"] for r in recs if r["ok"]))
            return statistics.median(walls)

        if any(s.telemetry for s in bench.specs):
            variants["no_telemetry"] = variant(telemetry=False)
        if any(s.checkpoint_every for s in bench.specs):
            variants["no_checkpoint"] = variant(checkpoint=False)
        metrics = {}
        if all(r["ok"] for r in traced):
            layers = layer_metrics(traced, untraced, variants)
            for name, unit in PER_LAYER:
                print("  %-30s %-14.6g %s" % (name, layers[name], unit))
                metrics[name] = {"value": layers[name], "unit": unit}
            if layers["system.unattributed_s"] < 0:
                # The probes' estimates exceed the engine time they split.
                bench.failed += 1
                bench.failures.append("traced pass: system.unattributed_s "
                                      "%.4g < 0" % layers[
                                          "system.unattributed_s"])
    print("workload %s seed %d: %d passes, %d runs attempted, %d failed"
          % (args.workload, args.seed, len(passes), bench.attempted,
             bench.failed))
    for failure in bench.failures:
        print("  FAILED " + failure)
    self_time(spans)
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + s["self"]
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])
    print("self time by span (s): "
          + ", ".join("%s=%.4f" % kv for kv in ranked))

    digests = [r.get("digest", "-") for r in passes[0]]
    print("sim_digest %s %s" % (args.workload, hashlib.sha256(
        "".join(digests).encode()).hexdigest()[:16]
        if "-" not in digests else "-"))
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, "spans-%s-seed%d-trace%d.json"
                              % (args.workload, args.seed, args.trace))
    with open(trace_path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "build": info, "spans": spans}, f)
    shutil.rmtree(os.path.join(OUT_DIR, "run"), ignore_errors=True)

    correct = bench.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
